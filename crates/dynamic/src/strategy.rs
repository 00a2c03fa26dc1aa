//! The online read-replicate / write-collapse strategy for trees.
//!
//! The paper's related work (Section 1.3) cites the dynamic strategies of
//! \[10\] (Maggs, Meyer auf der Heide, Vöcking, Westermann, FOCS'97): data
//! management in the congestion model with *no* knowledge of the access
//! pattern, 3-competitive on trees. This module implements the strategy
//! family those results are built on:
//!
//! * copies of each object form a connected subtree `R` of the network
//!   (inner nodes may hold copies — like the nibble placement, the
//!   dynamic tree strategy is stated for trees with storage everywhere);
//! * a **read** from `P` is served by the closest copy; every edge on the
//!   path accumulates a counter, and once an edge adjacent to `R` has
//!   collected `D` reads, `R` grows one step across it (paying `D` on
//!   that edge for the data movement — `D` models the object size in
//!   requests);
//! * a **write** from `P` updates all copies (Steiner broadcast over `R`,
//!   which the connectivity makes a path-union) and then *collapses* `R`
//!   to the single copy nearest to the writer, resetting all counters —
//!   so stale replicas never absorb more than the reads that justified
//!   them.
//!
//! All traffic — service paths, update broadcasts and the `D`-sized
//! replications — is charged to the same per-edge loads as the static
//! model, so online congestion is directly comparable to the offline
//! (hindsight) nibble placement.
//!
//! # One kernel and its oracle
//!
//! [`DynamicTree::serve`] is the production kernel: allocation-free in
//! steady state and O(depth) amortized per request, built on
//! generation-stamped replica membership, epoch-stamped lazy counter
//! resets and a connected-set Steiner broadcast (see `DESIGN.md` §5).
//! The naive kernel lives apart, as the oracle
//! [`crate::reference::ReferenceTree`]; the differential suite pins the
//! two to each other bit for bit.

use hbn_load::LoadMap;
use hbn_topology::{EdgeId, Network, NodeId};
use hbn_workload::ObjectId;

/// One online request: [`hbn_workload::Request`] under the serve loop's
/// name.
pub use hbn_workload::Request as OnlineRequest;

/// Materialize a phase schedule's request stream as an online trace —
/// the shared feed of the differential suites and the serve-loop
/// benchmarks.
pub fn online_trace(
    net: &Network,
    schedule: &hbn_workload::PhaseSchedule,
    seed: u64,
) -> Vec<OnlineRequest> {
    schedule.stream(net, seed).collect()
}

/// One node-indexed slot of an object's stamped state. Because every edge
/// is identified by its child node, a node's membership stamp and its
/// parent edge's read counter share the slot — one bounds check and one
/// cache line per touch.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Membership stamp: the node holds a copy iff `member == gen`.
    member: u64,
    /// Counter stamp: `count` is live iff `cstamp == gen`.
    cstamp: u64,
    /// Read counter of the node's parent edge.
    count: u64,
}

/// Per-object state, materialized lazily on the object's first request —
/// constructing a strategy for millions of objects costs one pointer-sized
/// slot per untouched object.
///
/// Membership and counters are *generation-stamped*: a write-collapse
/// bumps `gen`, and one increment invalidates every membership bit and
/// every counter at once, replacing the naive kernel's O(n) memset. The
/// slot vector grows on demand to the highest touched node id, so an
/// object whose traffic stays inside one subtree never pays for the whole
/// network.
#[derive(Debug, Clone)]
struct ObjectState {
    /// Nodes holding copies; always a connected subtree, never empty
    /// after the first request.
    replicas: Vec<NodeId>,
    /// Current membership/counter generation (starts at 1 so the slots'
    /// implicit zero stamps never match).
    gen: u64,
    /// Stamped membership + counter slots, indexed by node id.
    slots: Vec<Slot>,
}

impl ObjectState {
    fn new() -> ObjectState {
        ObjectState { replicas: Vec::new(), gen: 1, slots: Vec::new() }
    }

    /// Grow the slot vector with zeroed slots so that index `i` is valid.
    /// No-op once the object's touched region is covered — the steady
    /// state allocates nothing.
    #[inline]
    fn grow_to(&mut self, i: usize) {
        if self.slots.len() <= i {
            self.slots.resize(i + 1, Slot::default());
        }
    }

    /// O(1) membership test against the current generation.
    #[inline]
    fn contains(&self, v: NodeId) -> bool {
        self.slots.get(v.index()).is_some_and(|s| s.member == self.gen)
    }

    /// Add `v` to the replica set (stamping its membership slot).
    #[inline]
    fn insert_replica(&mut self, v: NodeId) {
        self.replicas.push(v);
        self.grow_to(v.index());
        self.slots[v.index()].member = self.gen;
    }

    /// Collapse the replica set to the single survivor `v`: one generation
    /// bump invalidates every membership stamp and every counter — O(1)
    /// instead of the oracle's O(n) memset.
    #[inline]
    fn collapse_to(&mut self, v: NodeId) {
        self.replicas.clear();
        self.gen += 1;
        self.insert_replica(v);
    }

    /// Current value of the read counter on `e` (0 when its stamp is
    /// stale).
    #[inline]
    fn counter(&self, e: EdgeId) -> u64 {
        match self.slots.get(e.index()) {
            Some(s) if s.cstamp == self.gen => s.count,
            _ => 0,
        }
    }

    /// Count one read crossing `e`, reviving a stale counter as 0 first.
    #[inline]
    fn count_read(&mut self, e: EdgeId) {
        self.grow_to(e.index());
        let gen = self.gen;
        let slot = &mut self.slots[e.index()];
        if slot.cstamp != gen {
            slot.cstamp = gen;
            slot.count = 0;
        }
        slot.count += 1;
    }

    /// Reset the (live) counter on `e` after a replication crossed it.
    #[inline]
    fn reset_counter(&mut self, e: EdgeId) {
        self.grow_to(e.index());
        let gen = self.gen;
        let slot = &mut self.slots[e.index()];
        slot.cstamp = gen;
        slot.count = 0;
    }
}

/// The exported durable state of one object: its replica set (in
/// insertion order — index 0 is the walk anchor) and its live read
/// counters as `(edge, count)` pairs.
pub type ObjectExport = (Vec<NodeId>, Vec<(EdgeId, u64)>);

/// Counters accumulated over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DynamicStats {
    /// Reads served.
    pub reads: u64,
    /// Writes served.
    pub writes: u64,
    /// Replication events (each paid `D` on one edge).
    pub replications: u64,
    /// Collapse events triggered by writes.
    pub collapses: u64,
    /// Fault-repair replication events — the subset of `replications`
    /// performed to heal copy sets around a bus outage (each paid `D`
    /// on one edge, exactly like any other replication).
    pub repairs: u64,
}

impl DynamicStats {
    /// Pointwise sum — merges the counters of independent event sources
    /// (a strategy's serve loop and its healing or seeding work, or
    /// disjoint object sets).
    pub fn merge(self, other: DynamicStats) -> DynamicStats {
        DynamicStats {
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            replications: self.replications + other.replications,
            collapses: self.collapses + other.collapses,
            repairs: self.repairs + other.repairs,
        }
    }
}

/// The online strategy over all objects of a network.
///
/// `Clone` snapshots the full strategy state — replica sets, edge
/// counters, loads, stats — so a clone driven forward reproduces the
/// original bit for bit (the checkpoint/restore contract of scenario
/// sessions).
#[derive(Debug, Clone)]
pub struct DynamicTree {
    threshold: u64,
    /// Lazily materialized per-object state: untouched objects cost one
    /// `None` slot.
    objects: Vec<Option<Box<ObjectState>>>,
    loads: LoadMap,
    stats: DynamicStats,
    n_nodes: usize,
    /// Edges of the current request's walk, requester → replica entry
    /// point: transient per call, its capacity reused across calls.
    path: Vec<EdgeId>,
}

impl DynamicTree {
    /// A fresh strategy for `n_objects` objects on `net`, replicating
    /// after `threshold ≥ 1` reads cross an edge (the object "size" `D`).
    ///
    /// Per-object state is materialized on first touch, so `n_objects` can
    /// be in the millions: construction costs one pointer-sized slot per
    /// object and nothing else.
    pub fn new(net: &Network, n_objects: usize, threshold: u64) -> Self {
        assert!(threshold >= 1, "the replication threshold must be positive");
        DynamicTree {
            threshold,
            objects: vec![None; n_objects],
            loads: LoadMap::zero(net),
            stats: DynamicStats::default(),
            n_nodes: net.n_nodes(),
            path: Vec::new(),
        }
    }

    /// Current copy nodes of `x` (empty before its first request).
    pub fn replicas(&self, x: ObjectId) -> &[NodeId] {
        match &self.objects[x.index()] {
            Some(st) => &st.replicas,
            None => &[],
        }
    }

    /// Accumulated per-edge loads (service + broadcast + replication).
    pub fn loads(&self) -> &LoadMap {
        &self.loads
    }

    /// Event counters.
    pub fn stats(&self) -> DynamicStats {
        self.stats
    }

    /// Replace the replica set of `x` with `nodes` — the hybrid-strategy
    /// seeding hook: a static placement (typically the connected nibble
    /// copy set of `x`) becomes the strategy's working set, as if the
    /// online strategy had replicated its way there.
    ///
    /// `nodes` must be non-empty and form a connected subgraph of the
    /// network (the strategy's structural invariant; the nibble copy sets
    /// of Theorem 3.1 are connected by construction — `debug_assert`ed).
    /// `nodes[0]` becomes the walk anchor. All read counters of `x` are
    /// discarded, exactly as a write-collapse would discard them. No
    /// traffic is charged and no stats are counted — migration accounting
    /// is the caller's job (the scenario engine charges the copy-set
    /// delta at `D` per copy).
    pub fn seed_replicas(&mut self, net: &Network, x: ObjectId, nodes: &[NodeId]) {
        assert_eq!(net.n_nodes(), self.n_nodes, "network mismatch");
        assert!(!nodes.is_empty(), "a seeded replica set cannot be empty");
        debug_assert!(
            nodes.iter().all(|&r| {
                let mut v = r;
                while v != nodes[0] {
                    v = net.step_towards(v, nodes[0]);
                    if !nodes.contains(&v) {
                        return false;
                    }
                }
                true
            }),
            "a seeded replica set must be connected"
        );
        let st = self.objects[x.index()].get_or_insert_with(|| Box::new(ObjectState::new()));
        // One generation bump invalidates every membership stamp and
        // counter, so seeding costs O(|seed|) beyond growing the slots.
        st.gen += 1;
        st.replicas.clear();
        for &v in nodes {
            st.insert_replica(v);
        }
    }

    /// Number of objects this strategy was constructed for.
    #[inline]
    pub fn n_objects(&self) -> usize {
        self.objects.len()
    }

    /// Export the live state of `x` for durable serialization: its
    /// replica set (in insertion order — `replicas[0]` is the walk
    /// anchor) and its live read counters as `(edge, count)` pairs in
    /// ascending edge order (a counter is live under the current
    /// generation stamp). `None` for an untouched object.
    pub fn export_object(&self, x: ObjectId) -> Option<ObjectExport> {
        let st = self.objects[x.index()].as_ref()?;
        let counters = st
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.count > 0 && s.cstamp == st.gen)
            .map(|(i, s)| (EdgeId(i as u32), s.count))
            .collect();
        Some((st.replicas.clone(), counters))
    }

    /// Rebuild the state of `x` from an [`DynamicTree::export_object`]
    /// snapshot: seed the replica set (uncharged, exactly like
    /// [`DynamicTree::seed_replicas`]) and re-install the live read
    /// counters. `replicas` must be non-empty and connected.
    pub fn restore_object(
        &mut self,
        net: &Network,
        x: ObjectId,
        replicas: &[NodeId],
        counters: &[(EdgeId, u64)],
    ) {
        self.seed_replicas(net, x, replicas);
        let st = self.objects[x.index()].as_mut().expect("seeded above");
        let gen = st.gen;
        for &(e, c) in counters {
            st.grow_to(e.index());
            let slot = &mut st.slots[e.index()];
            slot.cstamp = gen;
            slot.count = c;
        }
    }

    /// Overwrite the accumulated loads and stats — the accounting half
    /// of a durable restore, paired with per-object
    /// [`DynamicTree::restore_object`] calls.
    pub fn restore_accounting(&mut self, loads: LoadMap, stats: DynamicStats) {
        self.loads = loads;
        self.stats = stats;
    }

    /// Serve a request trace in trace order.
    pub fn serve_trace(&mut self, net: &Network, trace: &[OnlineRequest]) {
        for &req in trace {
            self.serve(net, req);
        }
    }

    /// Process one request on the zero-allocation kernel, charging its
    /// traffic to the load map.
    ///
    /// Per request the kernel walks the requester → replica-set path once
    /// (O(1) membership tests via generation stamps), counts reads and
    /// grows the replica set along that path, and on writes broadcasts
    /// over the connected replica subtree (O(|R|), amortized against the
    /// replications that built `R`) before collapsing it with a single
    /// generation bump. Amortized cost: O(path length) = O(depth); heap
    /// allocations: none once the per-object stamp vectors and the
    /// owned path buffer have reached their high-water sizes.
    pub fn serve(&mut self, net: &Network, req: OnlineRequest) {
        assert_eq!(net.n_nodes(), self.n_nodes, "network mismatch");
        let st =
            self.objects[req.object.index()].get_or_insert_with(|| Box::new(ObjectState::new()));
        if st.replicas.is_empty() {
            // First touch: materialise the object at the requester for
            // free (the adversary pays the same placement).
            st.insert_replica(req.processor);
        }
        if !req.is_write && st.contains(req.processor) {
            // Local read: served by the requester's own copy — no
            // traffic, no counters, no state change. This is the steady
            // state of read-dominated serving (hot objects replicated
            // everywhere), so it exits in O(1).
            self.stats.reads += 1;
            return;
        }
        // Serve at the nearest copy: the entry point of the walk from the
        // requester towards the (connected) replica set.
        let anchor = st.replicas[0];
        self.path.clear();
        let mut v = req.processor;
        while !st.contains(v) {
            let next = net.step_towards(v, anchor);
            // The edge id is the child endpoint of the hop.
            let hop_edge = if net.parent(next) == v { next } else { v };
            self.path.push(EdgeId::from(hop_edge));
            v = next;
        }
        for &e in &self.path {
            self.loads.add_edge(e, 1);
        }

        if req.is_write {
            self.stats.writes += 1;
            if st.replicas.len() > 1 {
                // Update broadcast over the replica subtree. `R` is
                // connected, so its Steiner tree is exactly its induced
                // edge set: every parent edge whose both endpoints hold a
                // copy. O(|R|) with stamped membership tests — the
                // connected-set specialization of
                // `hbn_topology::steiner::steiner_edges` (pinned to it by
                // the differential suite via the oracle).
                for &r in &st.replicas {
                    if r != net.root() && st.contains(net.parent(r)) {
                        self.loads.add_edge(EdgeId::from(r), 1);
                    }
                }
                self.stats.collapses += 1;
            }
            // Collapse to the copy serving the writer (`v`): one
            // generation bump resets membership and all counters.
            st.collapse_to(v);
        } else {
            self.stats.reads += 1;
            // Count the read on every traversed edge; grow the replica
            // set across saturated edges, from the replica side outwards,
            // so connectivity is preserved.
            for &e in &self.path {
                st.count_read(e);
            }
            let mut frontier = v;
            for &e in self.path.iter().rev() {
                if st.counter(e) < self.threshold {
                    break;
                }
                // Replicate one step towards the reader: the data moves
                // across `e`, costing `threshold` (the object size).
                let (child, parent) = net.edge_endpoints(e);
                let next = if child == frontier { parent } else { child };
                self.loads.add_edge(e, self.threshold);
                st.reset_counter(e);
                st.insert_replica(next);
                self.stats.replications += 1;
                frontier = next;
            }
        }
    }

    /// Exact congestion of all traffic so far.
    pub fn congestion(&self, net: &Network) -> hbn_load::LoadRatio {
        self.loads.congestion(net).congestion
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbn_topology::generators::{balanced, star, BandwidthProfile};

    fn read(p: NodeId, x: u32) -> OnlineRequest {
        OnlineRequest { processor: p, object: ObjectId(x), is_write: false }
    }

    fn write(p: NodeId, x: u32) -> OnlineRequest {
        OnlineRequest { processor: p, object: ObjectId(x), is_write: true }
    }

    #[test]
    fn first_touch_is_free_and_local() {
        let net = star(3, 4);
        let p = net.processors();
        let mut d = DynamicTree::new(&net, 1, 2);
        d.serve(&net, read(p[0], 0));
        assert_eq!(d.replicas(ObjectId(0)), &[p[0]]);
        assert_eq!(d.loads().total(), 0);
    }

    #[test]
    fn untouched_objects_have_no_state() {
        let net = star(3, 4);
        let p = net.processors();
        let mut d = DynamicTree::new(&net, 1_000, 2);
        assert!(d.replicas(ObjectId(777)).is_empty());
        d.serve(&net, read(p[0], 777));
        assert_eq!(d.replicas(ObjectId(777)), &[p[0]]);
        assert!(d.objects.iter().filter(|o| o.is_some()).count() == 1);
    }

    #[test]
    fn repeated_remote_reads_trigger_replication() {
        let net = star(3, 4);
        let p = net.processors();
        let mut d = DynamicTree::new(&net, 1, 2);
        // Materialise at p0, then two remote reads from p1 saturate both
        // edges on the path.
        d.serve(&net, read(p[0], 0));
        d.serve(&net, read(p[1], 0));
        assert_eq!(d.stats().replications, 0);
        d.serve(&net, read(p[1], 0));
        // Both edges hit the threshold: replicas grow p0 -> bus -> p1.
        assert!(d.replicas(ObjectId(0)).contains(&p[1]));
        assert_eq!(d.stats().replications, 2);
        // The third read is free.
        let before = d.loads().total();
        d.serve(&net, read(p[1], 0));
        assert_eq!(d.loads().total(), before);
    }

    #[test]
    fn write_collapses_replicas() {
        let net = star(4, 4);
        let p = net.processors();
        let mut d = DynamicTree::new(&net, 1, 1);
        d.serve(&net, read(p[0], 0));
        d.serve(&net, read(p[1], 0)); // threshold 1: replicate immediately
        assert!(d.replicas(ObjectId(0)).len() > 1);
        d.serve(&net, write(p[2], 0));
        assert_eq!(d.replicas(ObjectId(0)).len(), 1);
        assert_eq!(d.stats().collapses, 1);
    }

    #[test]
    fn collapse_resets_counters_lazily() {
        let net = star(4, 4);
        let p = net.processors();
        let mut d = DynamicTree::new(&net, 1, 2);
        d.serve(&net, read(p[0], 0));
        // One read from p1 leaves both path counters at 1.
        d.serve(&net, read(p[1], 0));
        assert_eq!(d.stats().replications, 0);
        // The write collapse must discard those counts (via the generation
        // bump): a single post-collapse read cannot replicate.
        d.serve(&net, write(p[0], 0));
        d.serve(&net, read(p[1], 0));
        assert_eq!(d.stats().replications, 0);
        // But the second one saturates the path again.
        d.serve(&net, read(p[1], 0));
        assert_eq!(d.stats().replications, 2);
    }

    #[test]
    fn replicas_stay_connected() {
        use rand::{Rng, SeedableRng};
        let net = balanced(3, 3, BandwidthProfile::Uniform);
        let procs = net.processors();
        let mut rng = rand::rngs::StdRng::seed_from_u64(200);
        let mut d = DynamicTree::new(&net, 3, 2);
        for _ in 0..500 {
            let req = OnlineRequest {
                processor: procs[rng.gen_range(0..procs.len())],
                object: ObjectId(rng.gen_range(0..3)),
                is_write: rng.gen_bool(0.25),
            };
            d.serve(&net, req);
            // Connectivity: every replica can walk towards replicas[0]
            // through replica nodes only.
            for x in 0..3u32 {
                let reps = d.replicas(ObjectId(x));
                if reps.len() <= 1 {
                    continue;
                }
                let anchor = reps[0];
                for &r in reps {
                    let mut v = r;
                    while v != anchor {
                        v = net.step_towards(v, anchor);
                        assert!(
                            reps.contains(&v),
                            "replica set disconnected between {r} and {anchor}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn read_only_steady_state_has_no_traffic_growth() {
        let net = star(4, 4);
        let p = net.processors();
        let mut d = DynamicTree::new(&net, 1, 3);
        d.serve(&net, read(p[0], 0));
        // Saturate: every processor reads until fully replicated.
        for _ in 0..20 {
            for &q in p {
                d.serve(&net, read(q, 0));
            }
        }
        let before = d.loads().total();
        for &q in p {
            d.serve(&net, read(q, 0));
        }
        assert_eq!(d.loads().total(), before, "all reads are now local");
    }

    #[test]
    fn seeding_replaces_replicas_and_discards_counters() {
        let net = star(4, 4);
        let p = net.processors();
        let mut d = DynamicTree::new(&net, 1, 2);
        d.serve(&net, read(p[0], 0));
        // One read from p1 leaves live counters on the path.
        d.serve(&net, read(p[1], 0));
        // Seed a connected set through the bus: counters must be gone.
        d.seed_replicas(&net, ObjectId(0), &[net.root(), p[2]]);
        assert_eq!(d.replicas(ObjectId(0)), &[net.root(), p[2]]);
        d.serve(&net, read(p[1], 0));
        assert_eq!(d.stats().replications, 0, "stale pre-seed counters must not fire");
        // Seeding itself charges nothing.
        let mut fresh = DynamicTree::new(&net, 1, 2);
        fresh.seed_replicas(&net, ObjectId(0), &[p[3]]);
        assert_eq!(fresh.loads().total(), 0);
        assert_eq!(fresh.stats(), DynamicStats::default());
    }

    #[test]
    fn seeded_strategies_agree_across_kernels() {
        use crate::reference::ReferenceTree;
        use rand::{Rng, SeedableRng};
        let net = balanced(3, 2, BandwidthProfile::Uniform);
        let procs = net.processors();
        let seed: Vec<NodeId> = vec![net.root(), net.children(net.root())[0]];
        let mut fast = DynamicTree::new(&net, 2, 2);
        let mut reference = ReferenceTree::new(&net, 2, 2);
        fast.seed_replicas(&net, ObjectId(0), &seed);
        fast.seed_replicas(&net, ObjectId(1), &[procs[4]]);
        reference.seed_replicas(&net, ObjectId(0), &seed);
        reference.seed_replicas(&net, ObjectId(1), &[procs[4]]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..800 {
            let req = OnlineRequest {
                processor: procs[rng.gen_range(0..procs.len())],
                object: ObjectId(rng.gen_range(0..2)),
                is_write: rng.gen_bool(0.2),
            };
            fast.serve(&net, req);
            reference.serve(&net, req);
        }
        assert_eq!(fast.loads(), reference.loads());
        assert_eq!(fast.stats(), reference.stats());
        for x in 0..2u32 {
            assert_eq!(fast.replicas(ObjectId(x)), reference.replicas(ObjectId(x)));
        }
    }

    #[test]
    fn export_restore_roundtrip_resumes_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let net = balanced(3, 2, BandwidthProfile::Uniform);
        let procs = net.processors();
        let mut rng = rand::rngs::StdRng::seed_from_u64(78);
        let mk_trace = |rng: &mut rand::rngs::StdRng, n: usize| -> Vec<OnlineRequest> {
            (0..n)
                .map(|_| OnlineRequest {
                    processor: procs[rng.gen_range(0..procs.len())],
                    object: ObjectId(rng.gen_range(0..5)),
                    is_write: rng.gen_bool(0.15),
                })
                .collect()
        };
        let first = mk_trace(&mut rng, 800);
        let second = mk_trace(&mut rng, 800);

        let mut original = DynamicTree::new(&net, 5, 2);
        original.serve_trace(&net, &first);

        // Rebuild a fresh strategy from the export and drive both through
        // the same second half: every observable must match.
        let mut restored = DynamicTree::new(&net, 5, 2);
        for x in 0..5u32 {
            if let Some((replicas, counters)) = original.export_object(ObjectId(x)) {
                restored.restore_object(&net, ObjectId(x), &replicas, &counters);
            }
        }
        restored.restore_accounting(original.loads().clone(), original.stats());

        original.serve_trace(&net, &second);
        restored.serve_trace(&net, &second);
        assert_eq!(original.loads(), restored.loads());
        assert_eq!(original.stats(), restored.stats());
        for x in 0..5u32 {
            assert_eq!(original.replicas(ObjectId(x)), restored.replicas(ObjectId(x)));
        }
    }

    #[test]
    #[should_panic(expected = "cannot be empty")]
    fn empty_seed_rejected() {
        let net = star(3, 4);
        let mut d = DynamicTree::new(&net, 1, 2);
        d.seed_replicas(&net, ObjectId(0), &[]);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn zero_threshold_rejected() {
        let net = star(3, 4);
        let _ = DynamicTree::new(&net, 1, 0);
    }
}
