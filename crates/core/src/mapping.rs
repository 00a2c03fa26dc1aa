//! Step 3 — the mapping algorithm: moving copies from buses to processors
//! (paper, Section 3.3, Figures 5 and 6).
//!
//! The tree is rooted (we use the network's fixed root; the paper allows
//! any root) and every edge is replaced by an upward and a downward
//! directed edge. For each directed edge the algorithm tracks
//!
//! * the **basic load** `L_b(~e)`: requests of the *modified* placement
//!   whose server-to-requester path uses `~e`;
//! * the **acceptable load** `L_acc(~e)`, initially `2·L_b(~e)`;
//! * the **mapping load** `L_map(~e)`: forwarding traffic added by moves.
//!
//! Moving a copy `c` along `~e` increases `L_map(~e)` by `s(c) + κ_x(c)`,
//! which is at most `τ_max = max_c (s(c) + κ_x(c))`.
//!
//! The **upwards phase** (Figure 5) processes nodes bottom-up; each moves
//! as many copies as possible to its parent while `L_map + τ_max ≤ L_acc`,
//! then the leftover budget `δ` is cancelled on both directions of its
//! parent edge (so `L_acc` of a downward edge may go negative). The
//! **downwards phase** (Figure 6) processes buses top-down; every copy is
//! pushed along a *free* child edge, i.e. one with
//! `L_map + s(c) + κ ≤ L_acc + τ_max`. Lemma 4.1 proves a free edge always
//! exists; this implementation verifies it and additionally can check
//! Invariant 4.2 after every step.
//!
//! Erratum handled (see DESIGN.md): Figure 6 starts at level
//! `height(T) − 1`, which never processes the root even though the
//! upwards phase moves copies onto it; we start at the root.
//!
//! Only copies sitting on buses participate — the extended-nibble strategy
//! leaves leaf-only objects untouched (Theorem 4.3's analysis), and fixed
//! leaf copies contribute to the basic loads only.

use crate::copies::ObjectCopies;
use hbn_topology::{EdgeId, Network, NodeId};
use std::collections::BinaryHeap;

/// Which form of Invariant 4.2 the checked mode verifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InvariantForm {
    /// The repaired form `… + Σ_{c∈M(v)} (s(c) + κ_x(c))` — exactly
    /// preserved by every movement and adjustment (see the erratum in
    /// DESIGN.md); the default.
    #[default]
    Repaired,
    /// The paper's printed form `… + 2 Σ_{c∈M(v)} s(c)` — holds initially
    /// but is *not* preserved when a copy with `s > κ` arrives at a node;
    /// kept selectable so experiment EXP-MAP can demonstrate the erratum.
    PaperOriginal,
}

/// Options for [`map_to_leaves`]; the default maps unchecked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MappingOptions {
    /// Verify Invariant 4.2 at every node after each movement/adjustment
    /// (slows mapping down; used by tests and experiment EXP-MAP).
    pub check_invariants: bool,
    /// Which invariant form the checked mode verifies.
    pub invariant_form: InvariantForm,
}

/// Mapping failures. `NoFreeEdge` contradicts Lemma 4.1 and indicates
/// corrupted input (e.g. copies that were never processed by the deletion
/// algorithm); `InvariantViolated` can only fire in checked mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingError {
    /// A copy on `node` found no free child edge (contradicts Lemma 4.1).
    NoFreeEdge {
        /// The node whose child edges are all saturated.
        node: NodeId,
    },
    /// Invariant 4.2 failed at `node` (checked mode only).
    InvariantViolated {
        /// The node where the invariant broke.
        node: NodeId,
    },
}

impl std::fmt::Display for MappingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MappingError::NoFreeEdge { node } => {
                write!(f, "no free child edge at {node} (Lemma 4.1 violated)")
            }
            MappingError::InvariantViolated { node } => {
                write!(f, "Invariant 4.2 violated at {node}")
            }
        }
    }
}

impl std::error::Error for MappingError {}

/// Directed per-edge quantities of a finished mapping run, for analysis
/// and the Lemma 4.4–4.6 checks. All vectors are indexed by [`EdgeId`]
/// (child node id; root slot unused).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingReport {
    /// `τ_max`: the largest `s(c) + κ_x(c)` over mapped copies.
    pub tau_max: u64,
    /// Number of upward copy moves.
    pub moves_up: u64,
    /// Number of downward copy moves.
    pub moves_down: u64,
    /// Number of copies that participated in mapping.
    pub mapped_copies: usize,
    /// Basic load on upward edges.
    pub up_basic: Vec<u64>,
    /// Basic load on downward edges.
    pub down_basic: Vec<u64>,
    /// Final mapping load on upward edges.
    pub up_map: Vec<u64>,
    /// Final mapping load on downward edges.
    pub down_map: Vec<u64>,
    /// Final acceptable load on upward edges.
    pub up_acc: Vec<i64>,
    /// Final acceptable load on downward edges.
    pub down_acc: Vec<i64>,
}

impl MappingReport {
    /// Total mapping load (both directions) crossing undirected edge `e`.
    pub fn map_load(&self, e: EdgeId) -> u64 {
        self.up_map[e.index()] + self.down_map[e.index()]
    }
}

/// A copy on a bus, taking part in the mapping phase.
#[derive(Debug)]
struct Movable {
    /// The node currently holding the copy.
    node: NodeId,
    /// `s(c) + κ_x(c)` — the mapping-load increment of moving this copy,
    /// also the copy's term in the repaired Invariant 4.2.
    increment: u64,
    /// `s(c)` — used by the paper-original invariant form.
    served: u64,
}

/// The mapping phase's working state: the directed per-edge loads, the
/// copies on buses and the node each one currently stands on.
///
/// A caller registers every request group ([`Mapper::add_group`]) and
/// every copy ([`Mapper::add_copy`]) of the modified placement, in any
/// interleaving, then calls [`Mapper::run`]. [`map_to_leaves`] builds a
/// fresh one per call; [`crate::PlacementKernel`] keeps one and
/// [`Mapper::reset`]s it, so once its buffers have grown a run
/// allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct Mapper {
    up_basic: Vec<u64>,
    down_basic: Vec<u64>,
    up_map: Vec<u64>,
    down_map: Vec<u64>,
    up_acc: Vec<i64>,
    down_acc: Vec<i64>,
    /// Bus copies in registration order.
    movable: Vec<Movable>,
    /// Movable copy ids currently stationed at each node.
    stationed: Vec<Vec<usize>>,
    tau_max: u64,
    moves_up: u64,
    moves_down: u64,
    /// Non-root nodes bottom-up (the upwards phase's order).
    bottom_up: Vec<NodeId>,
    /// Buses top-down (the downwards phase's order).
    top_down: Vec<NodeId>,
    /// Lazy max-heap over one bus's child-edge slacks.
    heap: BinaryHeap<(i128, u32)>,
}

impl Mapper {
    /// Forget the previous run and size the per-node buffers for `net`.
    pub(crate) fn reset(&mut self, net: &Network) {
        let n = net.n_nodes();
        for basic in [&mut self.up_basic, &mut self.down_basic] {
            basic.clear();
            basic.resize(n, 0);
        }
        self.movable.clear();
        self.stationed.resize_with(n, Vec::new);
        self.stationed.iter_mut().for_each(Vec::clear);
        self.tau_max = 0;
        self.moves_up = 0;
        self.moves_down = 0;
    }

    /// Basic load of `weight` requests from `processor` served by the copy
    /// on `server`: the directed path from the server to the requester.
    pub(crate) fn add_group(
        &mut self,
        net: &Network,
        server: NodeId,
        processor: NodeId,
        weight: u64,
    ) {
        if weight == 0 || processor == server {
            return;
        }
        let l = net.lca(server, processor);
        // Server climbs to the LCA on upward edges...
        let mut v = server;
        while v != l {
            self.up_basic[v.index()] += weight;
            v = net.parent(v);
        }
        // ...then descends to the requester on downward edges.
        let mut v = processor;
        while v != l {
            self.down_basic[v.index()] += weight;
            v = net.parent(v);
        }
    }

    /// A copy on `node` serving `served` requests of an object with write
    /// contention `kappa`. Only a copy on a bus takes part in the mapping.
    pub(crate) fn add_copy(&mut self, net: &Network, node: NodeId, served: u64, kappa: u64) {
        if net.is_bus(node) {
            let id = self.movable.len();
            self.movable.push(Movable { node, increment: served + kappa, served });
            self.stationed[node.index()].push(id);
        }
    }

    /// Where the mapping put each bus copy, in registration order (every
    /// node a processor after a successful [`Mapper::run`]).
    pub(crate) fn mapped_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.movable.iter().map(|m| m.node)
    }

    /// Run the upwards and downwards phases over the registered copies,
    /// moving every bus copy to a processor.
    pub(crate) fn run(
        &mut self,
        net: &Network,
        options: &MappingOptions,
    ) -> Result<(), MappingError> {
        let n = net.n_nodes();
        let tau_max = self.movable.iter().map(|m| m.increment).max().unwrap_or(0);
        self.tau_max = tau_max;
        for map in [&mut self.up_map, &mut self.down_map] {
            map.clear();
            map.resize(n, 0);
        }
        self.up_acc.clear();
        self.up_acc.extend(self.up_basic.iter().map(|&b| 2 * b as i64));
        self.down_acc.clear();
        self.down_acc.extend(self.down_basic.iter().map(|&b| 2 * b as i64));

        // Non-root nodes by decreasing depth (the paper's levels 0 ..
        // height-1), ids ascending within a depth for determinism.
        self.bottom_up.clear();
        self.bottom_up.extend(net.nodes().filter(|&v| v != net.root()));
        self.bottom_up.sort_unstable_by_key(|&v| (std::cmp::Reverse(net.depth(v)), v));

        // ---- Upwards phase (Figure 5) ----
        for k in 0..self.bottom_up.len() {
            let v = self.bottom_up[k];
            let e = v.index();
            let parent = net.parent(v);
            while let Some(&ci) = self.stationed[e].last() {
                let fits = self.up_map[e] as i128 + tau_max as i128 <= self.up_acc[e] as i128;
                if !fits {
                    break;
                }
                self.stationed[e].pop();
                self.up_map[e] += self.movable[ci].increment;
                self.movable[ci].node = parent;
                self.stationed[parent.index()].push(ci);
                self.moves_up += 1;
            }
            // Adjustment: cancel the unused upward budget on both directions.
            let delta = self.up_acc[e] - self.up_map[e] as i64;
            debug_assert!(delta >= 0, "upward moves never exceed the acceptable load");
            self.up_acc[e] -= delta;
            self.down_acc[e] -= delta;
            if options.check_invariants {
                for node in [v, parent] {
                    if net.is_bus(node)
                        && !self.invariant_4_2_holds(net, node, options.invariant_form)
                    {
                        return Err(MappingError::InvariantViolated { node });
                    }
                }
            }
        }

        // ---- Downwards phase (Figure 6, with the root included) ----
        // Buses by increasing depth; all copies cascade towards the leaves.
        self.top_down.clear();
        self.top_down.extend(net.nodes().filter(|&v| net.is_bus(v)));
        self.top_down.sort_unstable_by_key(|&v| (net.depth(v), v));
        for k in 0..self.top_down.len() {
            let v = self.top_down[k];
            if self.stationed[v.index()].is_empty() {
                continue;
            }
            // Lazy max-heap over child-edge slacks: picking the max-slack
            // free edge costs O(log degree) per move, which Theorem 4.3's
            // runtime bound O(|X|·|V|·height(T)·log degree(T)) relies on.
            self.heap.clear();
            for &c in net.children(v) {
                let slack = self.down_slack(c);
                self.heap.push((slack, c.0));
            }
            // The copies leave `v` one by one; while they do, `M(v)` holds
            // none of them. Their list is handed back, emptied, afterwards.
            let pending = std::mem::take(&mut self.stationed[v.index()]);
            for &ci in &pending {
                let need = self.movable[ci].increment as i128;
                let child = loop {
                    let Some(&(recorded, c)) = self.heap.peek() else {
                        return Err(MappingError::NoFreeEdge { node: v });
                    };
                    let current = self.down_slack(NodeId(c));
                    if current != recorded {
                        // Stale entry: refresh (slacks only decrease).
                        self.heap.pop();
                        self.heap.push((current, c));
                        continue;
                    }
                    if current < need {
                        return Err(MappingError::NoFreeEdge { node: v });
                    }
                    break NodeId(c);
                };
                self.down_map[child.index()] += self.movable[ci].increment;
                self.movable[ci].node = child;
                if net.is_bus(child) {
                    self.stationed[child.index()].push(ci);
                }
                self.moves_down += 1;
                if options.check_invariants
                    && !self.invariant_4_2_holds(net, v, options.invariant_form)
                {
                    return Err(MappingError::InvariantViolated { node: v });
                }
            }
            let mut emptied = pending;
            emptied.clear();
            self.stationed[v.index()] = emptied;
        }

        debug_assert!(
            self.movable.iter().all(|m| net.is_processor(m.node)),
            "all copies must end on processors"
        );
        Ok(())
    }

    /// The finished run's report. Moves the per-edge vectors out, so the
    /// next run regrows them.
    pub(crate) fn take_report(&mut self) -> MappingReport {
        MappingReport {
            tau_max: self.tau_max,
            moves_up: self.moves_up,
            moves_down: self.moves_down,
            mapped_copies: self.movable.len(),
            up_basic: std::mem::take(&mut self.up_basic),
            down_basic: std::mem::take(&mut self.down_basic),
            up_map: std::mem::take(&mut self.up_map),
            down_map: std::mem::take(&mut self.down_map),
            up_acc: std::mem::take(&mut self.up_acc),
            down_acc: std::mem::take(&mut self.down_acc),
        }
    }

    /// Remaining capacity of the downward edge into `child`: a copy with
    /// increment `s + κ ≤ slack` may move along it (the paper's "free
    /// edge" condition `L_map + s + κ ≤ L_acc + τ_max`).
    fn down_slack(&self, child: NodeId) -> i128 {
        self.down_acc[child.index()] as i128 + self.tau_max as i128
            - self.down_map[child.index()] as i128
    }

    /// The repaired Invariant 4.2 at bus `v`:
    /// `Σ_out (L_acc − L_map) ≥ Σ_in (L_acc − L_map) + Σ_{c ∈ M(v)} (s(c) + κ_x(c))`.
    ///
    /// The paper states the last term as `2 Σ s(c)`. That form holds
    /// initially (every copy has `s ≥ κ` after deletion, so
    /// `Σ (s + κ) ≤ 2 Σ s`) and is preserved when a copy *leaves* `v`, but
    /// a copy *arriving* at `v` changes the right side by
    /// `2s − (s + κ) = s − κ ≥ 0`, which can break it. With `Σ (s + κ)`
    /// both movements change each side by exactly `s + κ`, so the
    /// invariant is preserved exactly — and it still implies Lemma 4.1: if
    /// no child edge of `v` is free for copy `c*`, then every child edge
    /// has `L_acc − L_map < (s* + κ*) − τ_max ≤ 0`, so the left sum is
    /// below `(s* + κ*) − τ_max`, contradicting the invariant (whose right
    /// side is at least `−τ_max + (s* + κ*)` in the paper's case 1).
    /// Recorded as an erratum in DESIGN.md.
    ///
    /// Outgoing edges of `v` are its upward parent edge and the downward
    /// child edges; incoming are the reverse orientations.
    fn invariant_4_2_holds(&self, net: &Network, v: NodeId, form: InvariantForm) -> bool {
        let mut out_sum: i128 = 0;
        let mut in_sum: i128 = 0;
        if v != net.root() {
            let e = v.index();
            out_sum += self.up_acc[e] as i128 - self.up_map[e] as i128;
            in_sum += self.down_acc[e] as i128 - self.down_map[e] as i128;
        }
        for &c in net.children(v) {
            let e = c.index();
            out_sum += self.down_acc[e] as i128 - self.down_map[e] as i128;
            in_sum += self.up_acc[e] as i128 - self.up_map[e] as i128;
        }
        let term: i128 = self.stationed[v.index()]
            .iter()
            .map(|&ci| match form {
                InvariantForm::Repaired => self.movable[ci].increment as i128,
                InvariantForm::PaperOriginal => 2 * self.movable[ci].served as i128,
            })
            .sum();
        out_sum >= in_sum + term
    }
}

/// Run the mapping algorithm over the modified placement of *all* objects.
///
/// `all_copies` holds every object's post-deletion copies (and untouched
/// objects' nibble copies); copies on buses are moved to leaves **in
/// place**, and stay where they were if the run fails. Returns the
/// per-edge report.
pub fn map_to_leaves(
    net: &Network,
    all_copies: &mut [ObjectCopies],
    options: &MappingOptions,
) -> Result<MappingReport, MappingError> {
    let mut mapper = Mapper::default();
    mapper.reset(net);
    for oc in all_copies.iter() {
        for copy in &oc.copies {
            for grp in &copy.groups {
                mapper.add_group(net, copy.node, grp.processor, grp.weight());
            }
            mapper.add_copy(net, copy.node, copy.served(), oc.kappa);
        }
    }
    mapper.run(net, options)?;
    let bus_copies =
        all_copies.iter_mut().flat_map(|oc| oc.copies.iter_mut()).filter(|c| net.is_bus(c.node));
    for (copy, node) in bus_copies.zip(mapper.mapped_nodes()) {
        copy.node = node;
    }
    Ok(mapper.take_report())
}

/// Observation 3.3, checked after the algorithm: every downward child edge
/// `~e` of a node that moved copies satisfies `L_map(~e) ≤ L_acc(~e) +
/// τ_max`, or carried nothing and has `L_acc(~e) < −τ_max`.
pub fn observation_3_3_holds(net: &Network, report: &MappingReport) -> bool {
    net.edges().all(|e| {
        let i = e.index();
        let lmap = report.down_map[i] as i128;
        let lacc = report.down_acc[i] as i128;
        let tau = report.tau_max as i128;
        lmap <= lacc + tau || (lmap == 0 && lacc < -tau)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::copies::{CopyState, Group};
    use crate::deletion::delete_rarely_used;
    use crate::gravity::Workspace;
    use crate::nibble::nibble_object;
    use hbn_topology::generators::{random_network, star, BandwidthProfile};
    use hbn_workload::{AccessMatrix, ObjectId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Build the modified placement (nibble + deletion for bus-using
    /// objects) for all objects of a workload.
    fn modified_placement(net: &Network, m: &AccessMatrix) -> Vec<ObjectCopies> {
        let mut ws = Workspace::new(net.n_nodes());
        m.objects()
            .map(|x| {
                let out = nibble_object(net, m, x, &mut ws);
                if out.uses_bus {
                    delete_rarely_used(net, out.gravity, out.copies).copies
                } else {
                    out.copies
                }
            })
            .collect()
    }

    fn checked_options() -> MappingOptions {
        MappingOptions { check_invariants: true, ..Default::default() }
    }

    #[test]
    fn all_copies_end_on_leaves() {
        let mut rng = StdRng::seed_from_u64(30);
        for round in 0..40 {
            let net = random_network(6, 12, BandwidthProfile::Uniform, &mut rng);
            let m = hbn_workload::generators::uniform(&net, 4, 6, 4, 0.7, &mut rng);
            let mut copies = modified_placement(&net, &m);
            let report = map_to_leaves(&net, &mut copies, &checked_options())
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
            for oc in &copies {
                for c in &oc.copies {
                    assert!(net.is_processor(c.node), "round {round}: copy left on {}", c.node);
                }
            }
            assert!(observation_3_3_holds(&net, &report), "round {round}");
        }
    }

    #[test]
    fn no_bus_copies_is_a_noop() {
        let net = star(4, 10);
        let p = net.processors();
        let x = ObjectId(0);
        let mut copies = vec![ObjectCopies {
            object: x,
            kappa: 1,
            copies: vec![CopyState {
                object: x,
                node: p[0],
                groups: vec![Group { processor: p[1], reads: 2, writes: 1 }],
            }],
        }];
        let report = map_to_leaves(&net, &mut copies, &checked_options()).unwrap();
        assert_eq!(report.mapped_copies, 0);
        assert_eq!(report.moves_up + report.moves_down, 0);
        assert_eq!(report.tau_max, 0);
        assert_eq!(copies[0].copies[0].node, p[0]);
    }

    #[test]
    fn basic_loads_are_directional() {
        // Copy at the bus of a star serving p1: the path bus -> p1 uses the
        // downward edge of e(p1) only.
        let net = star(3, 10);
        let p = net.processors();
        let x = ObjectId(0);
        let mut copies = vec![ObjectCopies {
            object: x,
            kappa: 2,
            copies: vec![CopyState {
                object: x,
                node: net.root(),
                groups: vec![Group { processor: p[0], reads: 1, writes: 2 }],
            }],
        }];
        let report = map_to_leaves(&net, &mut copies, &checked_options()).unwrap();
        let e = EdgeId::from(p[0]);
        assert_eq!(report.down_basic[e.index()], 3);
        assert_eq!(report.up_basic[e.index()], 0);
        // The copy (s = 3, κ = 2) must have landed on some leaf.
        assert!(net.is_processor(copies[0].copies[0].node));
        assert_eq!(report.tau_max, 5);
    }

    /// Lemma 4.4: L_acc(~e+) + L_acc(~e−) ≤ 2 L_nib(e) — the acceptable
    /// loads never exceed twice the modified placement's edge load, which
    /// itself is ≤ 2 × nibble; here we check the direct 2·L_b form.
    #[test]
    fn acceptable_loads_bounded_by_basic() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..20 {
            let net = random_network(5, 10, BandwidthProfile::Uniform, &mut rng);
            let m = hbn_workload::generators::uniform(&net, 3, 5, 5, 0.8, &mut rng);
            let mut copies = modified_placement(&net, &m);
            let report = map_to_leaves(&net, &mut copies, &checked_options()).unwrap();
            for e in net.edges() {
                let i = e.index();
                // Acceptable loads only decrease from 2·L_b.
                assert!(report.up_acc[i] <= 2 * report.up_basic[i] as i64);
                assert!(report.down_acc[i] <= 2 * report.down_basic[i] as i64);
            }
        }
    }

    #[test]
    fn shared_write_object_maps_from_gravity_bus() {
        // All processors write: nibble puts a single copy on the bus; the
        // mapping must bring it to a leaf.
        let net = star(4, 10);
        let m = hbn_workload::generators::shared_write(&net, 1, 0, 3);
        let mut copies = modified_placement(&net, &m);
        assert!(copies[0].copies.iter().any(|c| net.is_bus(c.node)), "precondition");
        let report = map_to_leaves(&net, &mut copies, &checked_options()).unwrap();
        assert!(report.mapped_copies >= 1);
        assert!(report.moves_down >= 1);
        for c in &copies[0].copies {
            assert!(net.is_processor(c.node));
        }
    }

    #[test]
    fn deep_tree_mapping_with_invariants() {
        let mut rng = StdRng::seed_from_u64(33);
        let net = hbn_topology::generators::bus_path(8, BandwidthProfile::Uniform);
        let m = hbn_workload::generators::uniform(&net, 5, 4, 4, 1.0, &mut rng);
        let mut copies = modified_placement(&net, &m);
        let report = map_to_leaves(&net, &mut copies, &checked_options()).unwrap();
        assert!(observation_3_3_holds(&net, &report));
        for oc in &copies {
            for c in &oc.copies {
                assert!(net.is_processor(c.node));
            }
        }
    }
}
