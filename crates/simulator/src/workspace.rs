//! The exact replay kernel and its reusable [`SimWorkspace`].
//!
//! Replays the slot semantics of [`crate::reference`] — bit-for-bit
//! identical [`SimResult`]s, including under a [`CapacityOverlay`] —
//! with per-slot work proportional to what *moves*, not to what waits.
//! At congested operating points most packets are blocked for most
//! slots; a kernel that scans every active packet each slot spends
//! nearly all of its time re-discovering that.
//!
//! ## Queue-head dominance: probe heads, not packets
//!
//! Every unicast packet waiting to cross switch `e = (c, p)` contends for
//! the *same* token pools — the switch pool `b(e)` plus the bus pools at
//! whichever endpoints are buses — regardless of direction. Token pools
//! only shrink within a slot. Therefore, if the *smallest-key* packet
//! queued at `e` is blocked, every later packet at `e` is blocked too.
//! The kernel keeps a per-switch min-heap ordered by the arbitration key
//! `(prio, seq)` and probes only heap heads. When a head crosses, the
//! next head enters the candidate set *at its own key position*, so
//! several packets still cross one switch per slot exactly when
//! bandwidth allows. Per-slot work is O(active switches + crossings +
//! multicasts) rather than O(active packets).
//!
//! ## Multicasts: a cached, compacted arbitration plan
//!
//! Update broadcasts fanning out along their Steiner tree have no single
//! switch, so each live multicast is probed every slot, merged into the
//! commit walk in key order. Its grouping of destinations by next hop
//! depends only on `(position, destinations)`, and a blocked remainder
//! keeps both — so the plan (`GroupPlan`) is computed once per packet
//! and merely *compacted* when some groups cross. A fully blocked
//! multicast costs one read-only pass over its groups' pools.
//!
//! ## Why the kernel is sequential
//!
//! Every slot commits crossings in exact global `(prio, seq)` order. A
//! crossing of switch `(c, p)` draws from the bus pools at two adjacent
//! levels, so bus `c`'s pool is shared between the switches below and
//! above it; under contention the winner depends on the global key order
//! across levels (see `DESIGN.md` for a two-packet counterexample). No
//! partition of one slot's arbitration is independent, and a measured
//! intra-slot fan-out only lost. Replays parallelise *across* independent
//! units instead: seed shards and tenants.
//!
//! ## Shared setup
//!
//! * **Routing** uses a dense CSR table over `object × processor`
//!   (`route_off`/`route_entries`), consuming split budgets in the
//!   reference router's order; every request is routed up front.
//! * **Injection queues** are a CSR over processors in trace order, read
//!   through per-processor cursors.
//! * **Token pools** are reset in place each slot from cached bandwidth
//!   vectors (under the run's capacity overlay, when one is bound).
//!
//! A workspace can be reused across runs (and across networks): buffers
//! are sized at bind time and only grow, so after the first replay the
//! slot loop performs no heap allocation.

use crate::engine::{SimConfig, SimError, SimResult};
use crate::packet::PacketKind;
use crate::trace::Request;
use hbn_load::Placement;
use hbn_topology::{CapacityOverlay, EdgeId, Network, NodeId};
use hbn_workload::{AccessMatrix, ObjectId};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::ops::Range;

/// Everything a packet carries besides its destinations.
#[derive(Debug, Clone, Copy)]
struct Header {
    /// Arbitration priority (injection order; fragments inherit it).
    prio: u64,
    /// Unique creation sequence; tie-breaks equal priorities.
    seq: u64,
    object: ObjectId,
    kind: PacketKind,
    position: NodeId,
    issued_at: u64,
}

impl Header {
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.prio, self.seq)
    }
}

/// A unicast packet waiting in (or moving between) switch queues.
#[derive(Debug, Clone, Copy)]
struct QPacket {
    head: Header,
    dest: NodeId,
}

// Switch queues pop the smallest arbitration key first. Keys are
// globally unique, so pop order is a total order.
impl Ord for QPacket {
    fn cmp(&self, other: &Self) -> Ordering {
        other.head.key().cmp(&self.head.key())
    }
}

impl PartialOrd for QPacket {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for QPacket {
    fn eq(&self, other: &Self) -> bool {
        self.head.key() == other.head.key()
    }
}

impl Eq for QPacket {}

/// A multicast packet: an update broadcast with ≥ 2 remaining copies, or
/// a blocked remainder or fragment thereof. Destination sets and plans
/// are recycled through a pool, so the steady-state slot loop stays
/// allocation-free.
#[derive(Debug)]
struct McPacket {
    head: Header,
    /// Remaining destinations; empty marks a dead slab entry.
    dests: Vec<NodeId>,
    /// Cached arbitration plan; empty = not yet built. Valid for as long
    /// as the packet sits at `head.position`.
    groups: Vec<GroupPlan>,
}

/// The token pools one crossing of a switch draws from: the switch's own
/// `b(e)` pool, plus the `2·b(B)` pool of each endpoint that is a bus.
#[derive(Debug, Clone, Copy)]
struct Switch {
    /// Child endpoint index — the switch's id.
    child: u32,
    parent: u32,
    child_bus: bool,
    parent_bus: bool,
}

impl Switch {
    #[inline]
    fn of(net: &Network, child: NodeId) -> Switch {
        let parent = net.parent(child);
        Switch {
            child: child.0,
            parent: parent.0,
            child_bus: net.is_bus(child),
            parent_bus: net.is_bus(parent),
        }
    }
}

/// One hop-group of a multicast's cached arbitration plan: the
/// destinations `dests[start .. start + len]` all leave the packet's
/// position through `switch` towards `hop`. A crossed group is emptied
/// (`len = 0`) and dropped when the plan is compacted.
#[derive(Debug, Clone, Copy)]
struct GroupPlan {
    hop: NodeId,
    switch: Switch,
    start: u32,
    len: u32,
}

impl GroupPlan {
    fn range(&self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// One assignment entry in the dense router, with remaining budgets.
#[derive(Debug, Clone, Copy)]
struct RouteEntry {
    server: NodeId,
    reads: u64,
    writes: u64,
}

/// A routed request waiting in its processor's injection queue.
#[derive(Debug, Clone, Copy)]
struct Queued {
    object: ObjectId,
    server: NodeId,
    is_write: bool,
}

/// Reusable buffers for the replay kernel. Construct once, pass to
/// [`crate::simulate_with`] any number of times; every buffer is reset at
/// bind time and retains its capacity between runs.
#[derive(Debug, Default)]
pub struct SimWorkspace {
    // Static per-run caches of the capacity normalisation: b(e) per switch
    // (0 at the root slot) and 2·b(B) per bus (0 at processors), both
    // under the run's capacity overlay when one is bound.
    edge_bw: Vec<u64>,
    bus_bw2: Vec<u64>,
    // Down buses of the bound overlay: zero bus tokens while
    // `slot < outage_slots`, so their packets defer and retry.
    down_buses: Vec<NodeId>,
    outage_slots: u64,
    // Dense router: CSR over object × processor (dense processor index).
    route_off: Vec<u32>,
    route_entries: Vec<RouteEntry>,
    // Injection queues: CSR over processors, entries in trace order.
    q_off: Vec<u32>,
    q_cursor: Vec<u32>,
    q_entries: Vec<Queued>,
    // Per-slot token pools, reset in place.
    edge_tokens: Vec<u64>,
    bus_tokens: Vec<u64>,
    /// Per-switch queues of waiting unicast packets, indexed by the
    /// switch's child endpoint (the root slot is never used).
    heaps: Vec<BinaryHeap<QPacket>>,
    /// Switches with (possibly) non-empty queues, plus membership flags.
    active_edges: Vec<u32>,
    edge_active: Vec<bool>,
    /// This slot's candidates: the head key of every non-empty queue.
    cands: BinaryHeap<Reverse<((u64, u64), u32)>>,
    /// Unicast packets injected, moved or spawned since the last flush,
    /// each queued at the switch it crosses next.
    arrivals: Vec<QPacket>,
    /// Multicast slab; dead entries (empty `dests`) are on `mc_free`.
    mc: Vec<McPacket>,
    /// Slab indices of live multicasts, sorted by `(prio, seq)`. The
    /// commit walk merges this list with the candidate heap.
    mc_order: Vec<u32>,
    mc_free: Vec<u32>,
    /// Multicasts spawned since the last flush.
    mc_spawn: Vec<McPacket>,
    /// Recycled `(dests, groups)` buffers of dead multicasts.
    mc_pool: Vec<(Vec<NodeId>, Vec<GroupPlan>)>,
    // Multicast grouping and fragment scratch.
    hop_of: Vec<NodeId>,
    group_hops: Vec<NodeId>,
    regrouped: Vec<NodeId>,
    frag: Vec<NodeId>,
    upd: Vec<NodeId>,
    // Outputs.
    edge_crossings: Vec<u64>,
    latencies: Vec<u64>,
}

/// One replay in progress: the placement whose copies update broadcasts
/// fan out to, the slot clock, the arbitration-key counters and the
/// result tallies.
struct Replay<'a> {
    placement: &'a Placement,
    slot: u64,
    next_prio: u64,
    next_seq: u64,
    delivered_requests: u64,
    delivered_updates: u64,
    makespan: u64,
}

impl Replay<'_> {
    /// A fresh arbitration priority, drawn once per request or broadcast.
    fn fresh_prio(&mut self) -> u64 {
        self.next_prio += 1;
        self.next_prio - 1
    }

    /// A fresh creation sequence, drawn once per packet or fragment.
    fn fresh_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }
}

/// The switch (by child endpoint) a packet at `position` must cross next
/// on the way to `dest`.
#[inline]
fn next_switch(net: &Network, position: NodeId, dest: NodeId) -> usize {
    if net.is_ancestor(position, dest) {
        net.child_towards(position, dest).index()
    } else {
        position.index()
    }
}

/// A multicast holding `dests`, in buffers taken from `pool`.
fn pooled_multicast(
    pool: &mut Vec<(Vec<NodeId>, Vec<GroupPlan>)>,
    head: Header,
    from: &[NodeId],
) -> McPacket {
    let (mut dests, mut groups) = pool.pop().unwrap_or_default();
    dests.clear();
    dests.extend_from_slice(from);
    groups.clear();
    McPacket { head, dests, groups }
}

impl SimWorkspace {
    /// An empty workspace; buffers are sized lazily on first use.
    pub fn new() -> SimWorkspace {
        SimWorkspace::default()
    }

    /// Reset all per-run state and (re)build the static caches for `net`
    /// under an optional capacity overlay. A pristine (or absent)
    /// overlay yields the unmodified bandwidths.
    fn bind(&mut self, net: &Network, overlay: Option<&CapacityOverlay>) {
        let n = net.n_nodes();
        self.edge_bw.clear();
        self.edge_bw.extend(net.nodes().map(|v| {
            if v == net.root() {
                0
            } else {
                net.edge_bandwidth(EdgeId::from(v))
            }
        }));
        self.bus_bw2.clear();
        self.bus_bw2.extend(net.nodes().map(|v| {
            if net.is_bus(v) {
                match overlay {
                    Some(o) => 2 * o.effective_node_bandwidth(net, v),
                    None => 2 * net.node_bandwidth(v),
                }
            } else {
                0
            }
        }));
        self.down_buses.clear();
        self.outage_slots = 0;
        if let Some(o) = overlay {
            self.down_buses.extend(o.down_nodes().into_iter().filter(|&v| net.is_bus(v)));
            self.outage_slots = o.outage_slots();
        }
        self.edge_tokens.clear();
        self.edge_tokens.resize(n, 0);
        self.bus_tokens.clear();
        self.bus_tokens.resize(n, 0);
        self.edge_crossings.clear();
        self.edge_crossings.resize(n, 0);
        self.latencies.clear();
        if self.heaps.len() < n {
            self.heaps.resize_with(n, BinaryHeap::new);
        }
        for h in &mut self.heaps {
            h.clear();
        }
        self.active_edges.clear();
        self.edge_active.clear();
        self.edge_active.resize(n, false);
        self.cands.clear();
        self.arrivals.clear();
        self.mc_pool
            .extend(self.mc.drain(..).chain(self.mc_spawn.drain(..)).map(|m| (m.dests, m.groups)));
        self.mc_order.clear();
        self.mc_free.clear();
    }

    /// Build the dense CSR router from the placement's assignments.
    ///
    /// Entries keep the naive router's scan order (per object, assignment
    /// order), so split budgets are consumed identically. Assignment
    /// entries whose `processor` is not a leaf are unroutable by
    /// construction and skipped.
    fn build_router(&mut self, net: &Network, matrix: &AccessMatrix, placement: &Placement) {
        let n_procs = net.n_processors();
        let cells = matrix.n_objects() * n_procs;
        self.route_off.clear();
        self.route_off.resize(cells + 1, 0);
        for x in matrix.objects() {
            for e in placement.assignment(x) {
                if !net.is_processor(e.processor) {
                    continue;
                }
                let cell = x.index() * n_procs + net.processor_index(e.processor);
                self.route_off[cell + 1] += 1;
            }
        }
        for i in 0..cells {
            self.route_off[i + 1] += self.route_off[i];
        }
        self.route_entries.clear();
        self.route_entries.resize(
            self.route_off[cells] as usize,
            RouteEntry { server: NodeId(0), reads: 0, writes: 0 },
        );
        // Fill via per-cell cursors, reusing q_cursor as scratch.
        self.q_cursor.clear();
        self.q_cursor.extend_from_slice(&self.route_off[..cells]);
        for x in matrix.objects() {
            for e in placement.assignment(x) {
                if !net.is_processor(e.processor) {
                    continue;
                }
                let cell = x.index() * n_procs + net.processor_index(e.processor);
                let at = self.q_cursor[cell];
                self.q_cursor[cell] += 1;
                self.route_entries[at as usize] =
                    RouteEntry { server: e.server, reads: e.reads, writes: e.writes };
            }
        }
    }

    /// Route one request against the remaining budgets, exactly like the
    /// naive router: first entry with budget of the right kind wins. An
    /// object id outside the matrix is unroutable (the CSR table has no
    /// cell for it), matching the reference router's missing-key case.
    fn route(&mut self, n_procs: usize, pi: usize, req: &Request) -> Option<NodeId> {
        let cell = req.object.index() * n_procs + pi;
        if cell + 1 >= self.route_off.len() {
            return None;
        }
        let range = self.route_off[cell] as usize..self.route_off[cell + 1] as usize;
        for entry in &mut self.route_entries[range] {
            if req.is_write && entry.writes > 0 {
                entry.writes -= 1;
                return Some(entry.server);
            }
            if !req.is_write && entry.reads > 0 {
                entry.reads -= 1;
                return Some(entry.server);
            }
        }
        None
    }

    /// Build the per-processor injection queues (CSR) in trace order,
    /// routing every request up front like the naive kernel does.
    fn build_queues(&mut self, net: &Network, trace: &[Request]) -> Result<(), SimError> {
        let n_procs = net.n_processors();
        self.q_off.clear();
        self.q_off.resize(n_procs + 1, 0);
        for req in trace {
            // Non-leaf requesters are rejected in the routing pass below,
            // in trace order (matching the reference kernel); here they
            // are only skipped so the counting pass cannot error.
            if net.is_processor(req.processor) {
                self.q_off[net.processor_index(req.processor) + 1] += 1;
            }
        }
        for i in 0..n_procs {
            self.q_off[i + 1] += self.q_off[i];
        }
        self.q_entries.clear();
        self.q_entries.resize(
            self.q_off[n_procs] as usize,
            Queued { object: ObjectId(0), server: NodeId(0), is_write: false },
        );
        self.q_cursor.clear();
        self.q_cursor.extend_from_slice(&self.q_off[..n_procs]);
        for req in trace {
            // A non-leaf requester can never inject; reject it exactly
            // where the reference kernel does, before routing the request.
            if !net.is_processor(req.processor) {
                return Err(SimError::UnroutedRequest {
                    processor: req.processor,
                    object: req.object,
                });
            }
            let pi = net.processor_index(req.processor);
            let server = self.route(n_procs, pi, req).ok_or(SimError::UnroutedRequest {
                processor: req.processor,
                object: req.object,
            })?;
            let at = self.q_cursor[pi];
            self.q_cursor[pi] += 1;
            self.q_entries[at as usize] =
                Queued { object: req.object, server, is_write: req.is_write };
        }
        // Reset the cursors to the queue heads for the injection loop.
        self.q_cursor.clear();
        self.q_cursor.extend_from_slice(&self.q_off[..n_procs]);
        Ok(())
    }

    /// Whether `s` still has a token in every pool it draws from.
    #[inline]
    fn is_open(&self, s: Switch) -> bool {
        self.edge_tokens[s.child as usize] >= 1
            && (!s.child_bus || self.bus_tokens[s.child as usize] >= 1)
            && (!s.parent_bus || self.bus_tokens[s.parent as usize] >= 1)
    }

    /// Take one token from every pool of an open switch and count the
    /// crossing.
    #[inline]
    fn cross(&mut self, s: Switch) {
        let (c, p) = (s.child as usize, s.parent as usize);
        self.edge_tokens[c] -= 1;
        if s.child_bus {
            self.bus_tokens[c] -= 1;
        }
        if s.parent_bus {
            self.bus_tokens[p] -= 1;
        }
        self.edge_crossings[c] += 1;
    }

    /// Queue every pending unicast at the switch it must cross next, and
    /// register every pending multicast in key order. Returns how many
    /// unicasts were queued.
    fn flush(&mut self, net: &Network) -> usize {
        let queued = self.arrivals.len();
        for pkt in self.arrivals.drain(..) {
            let e = next_switch(net, pkt.head.position, pkt.dest);
            self.heaps[e].push(pkt);
            if !self.edge_active[e] {
                self.edge_active[e] = true;
                self.active_edges.push(e as u32);
            }
        }
        for m in self.mc_spawn.drain(..) {
            let key = m.head.key();
            let idx = match self.mc_free.pop() {
                Some(i) => {
                    self.mc[i as usize] = m;
                    i
                }
                None => {
                    self.mc.push(m);
                    (self.mc.len() - 1) as u32
                }
            };
            let mc = &self.mc;
            let pos = self.mc_order.partition_point(|&j| mc[j as usize].head.key() < key);
            self.mc_order.insert(pos, idx);
        }
        queued
    }

    /// Spawn the update broadcast of a write completed at `server`: one
    /// packet to `copies(x) \ {server}` (sorted, deduplicated), keyed
    /// now and contending from the next flush on. No-op when no other
    /// copy exists.
    fn spawn_update(&mut self, r: &mut Replay, x: ObjectId, server: NodeId, issued_at: u64) {
        self.upd.clear();
        self.upd.extend(r.placement.copies(x).iter().copied().filter(|&c| c != server));
        if self.upd.is_empty() {
            return;
        }
        self.upd.sort_unstable();
        self.upd.dedup();
        let head = Header {
            prio: r.fresh_prio(),
            seq: r.fresh_seq(),
            object: x,
            kind: PacketKind::Update,
            position: server,
            issued_at,
        };
        if let [dest] = self.upd[..] {
            self.arrivals.push(QPacket { head, dest });
        } else {
            let m = pooled_multicast(&mut self.mc_pool, head, &self.upd);
            self.mc_spawn.push(m);
        }
    }

    /// Deliver a packet to `copies` destinations at `hop` at the end of
    /// the current slot: a request completes (a write spawns its update
    /// broadcast from `hop`), an update reaches its copies.
    fn deliver(&mut self, r: &mut Replay, head: Header, hop: NodeId, copies: u64) {
        let done = r.slot + 1;
        r.makespan = r.makespan.max(done);
        match head.kind {
            PacketKind::Read | PacketKind::Write => {
                r.delivered_requests += 1;
                self.latencies.push(done - head.issued_at);
                if head.kind == PacketKind::Write {
                    self.spawn_update(r, head.object, hop, done);
                }
            }
            PacketKind::Update => r.delivered_updates += copies,
        }
    }

    /// Arbitrate the head of switch `e`'s queue. Returns whether it
    /// crossed; if so, the next head joins the candidates at its own key.
    fn commit_switch(&mut self, net: &Network, e: u32, r: &mut Replay) -> bool {
        let child = NodeId(e);
        let switch = Switch::of(net, child);
        if !self.is_open(switch) {
            // Pools only shrink within a slot, and every packet queued
            // here needs this exact pool set: the whole queue is blocked
            // for the rest of the slot.
            return false;
        }
        self.cross(switch);
        let queue = &mut self.heaps[e as usize];
        let pkt = queue.pop().expect("candidates are queue heads");
        if let Some(next) = queue.peek() {
            self.cands.push(Reverse((next.head.key(), e)));
        }
        let hop = if pkt.head.position == child { net.parent(child) } else { child };
        if hop == pkt.dest {
            self.deliver(r, pkt.head, hop, 1);
        } else {
            let head = Header { seq: r.fresh_seq(), position: hop, ..pkt.head };
            self.arrivals.push(QPacket { head, ..pkt });
        }
        true
    }

    /// Build a multicast's arbitration plan: group `dests` by next hop in
    /// first-occurrence order (a one-entry child-subtree cache skips the
    /// O(log degree) lookup while consecutive destinations share a
    /// subtree), reorder `dests` group-contiguously, and record one
    /// [`GroupPlan`] per hop.
    fn build_plan(
        &mut self,
        net: &Network,
        v: NodeId,
        dests: &mut Vec<NodeId>,
        groups: &mut Vec<GroupPlan>,
    ) {
        self.hop_of.clear();
        self.group_hops.clear();
        let mut cached: Option<(u32, u32, NodeId)> = None;
        for &d in dests.iter() {
            let hop = if !net.is_ancestor(v, d) {
                net.parent(v)
            } else {
                let t = net.preorder_index(d);
                match cached {
                    Some((lo, hi, c)) if (lo..hi).contains(&t) => c,
                    _ => {
                        let c = net.child_towards(v, d);
                        let lo = net.preorder_index(c);
                        cached = Some((lo, lo + net.subtree_size(c) as u32, c));
                        c
                    }
                }
            };
            self.hop_of.push(hop);
            if !self.group_hops.contains(&hop) {
                self.group_hops.push(hop);
            }
        }
        self.regrouped.clear();
        groups.clear();
        for &hop in &self.group_hops {
            let start = self.regrouped.len() as u32;
            for (&h, &d) in self.hop_of.iter().zip(dests.iter()) {
                if h == hop {
                    self.regrouped.push(d);
                }
            }
            let child = if net.parent(hop) == v { hop } else { v };
            groups.push(GroupPlan {
                hop,
                switch: Switch::of(net, child),
                start,
                len: self.regrouped.len() as u32 - start,
            });
        }
        std::mem::swap(dests, &mut self.regrouped);
    }

    /// Arbitrate multicast `mi` through its cached plan: per-group
    /// all-or-nothing token checks, fragments queued for the next flush,
    /// deliveries at the hops. Returns whether the packet died (every
    /// group crossed).
    fn commit_multicast(&mut self, net: &Network, mi: usize, r: &mut Replay) -> bool {
        if self.mc[mi].groups.is_empty() {
            let mut dests = std::mem::take(&mut self.mc[mi].dests);
            let mut groups = std::mem::take(&mut self.mc[mi].groups);
            self.build_plan(net, self.mc[mi].head.position, &mut dests, &mut groups);
            self.mc[mi].dests = dests;
            self.mc[mi].groups = groups;
        }
        // Fully blocked packets — the common case at congested operating
        // points — are probed read-only and cross nothing.
        if !self.mc[mi].groups.iter().any(|g| self.is_open(g.switch)) {
            return false;
        }
        let head = self.mc[mi].head;
        let mut dests = std::mem::take(&mut self.mc[mi].dests);
        let mut groups = std::mem::take(&mut self.mc[mi].groups);
        for g in &mut groups {
            if !self.is_open(g.switch) {
                continue;
            }
            self.cross(g.switch);
            self.frag.clear();
            let mut delivered_here = 0u64;
            for &d in &dests[g.range()] {
                if d == g.hop {
                    delivered_here += 1;
                } else {
                    self.frag.push(d);
                }
            }
            g.len = 0;
            // The group's branch continues from `hop` as a fragment
            // inheriting the origin's priority.
            self.frag.sort_unstable();
            if !self.frag.is_empty() {
                let frag = Header { seq: r.fresh_seq(), position: g.hop, ..head };
                if let [dest] = self.frag[..] {
                    self.arrivals.push(QPacket { head: frag, dest });
                } else {
                    let m = pooled_multicast(&mut self.mc_pool, frag, &self.frag);
                    self.mc_spawn.push(m);
                }
            }
            if delivered_here > 0 {
                self.deliver(r, head, g.hop, delivered_here);
            }
        }
        // Compact: surviving groups (and their destination slices)
        // slide left in order — exactly the grouping a fresh rebuild
        // of the remainder would produce, so the plan stays valid.
        let mut w = 0usize;
        groups.retain_mut(|g| {
            if g.len == 0 {
                return false;
            }
            dests.copy_within(g.range(), w);
            g.start = w as u32;
            w += g.len as usize;
            true
        });
        dests.truncate(w);
        if dests.is_empty() {
            // `mc[mi].dests` stays empty: the slab entry is dead.
            self.mc_pool.push((dests, groups));
            true
        } else {
            self.mc[mi].dests = dests;
            self.mc[mi].groups = groups;
            false
        }
    }
}

/// Run the exact replay kernel; see [`crate::simulate_with`].
pub(crate) fn run(
    ws: &mut SimWorkspace,
    net: &Network,
    matrix: &AccessMatrix,
    placement: &Placement,
    trace: &[Request],
    config: SimConfig,
    overlay: Option<&CapacityOverlay>,
) -> Result<SimResult, SimError> {
    ws.bind(net, overlay);
    ws.build_router(net, matrix, placement);
    ws.build_queues(net, trace)?;

    let n_procs = net.n_processors();
    let mut r = Replay {
        placement,
        slot: 0,
        next_prio: 0,
        next_seq: 0,
        delivered_requests: 0,
        delivered_updates: 0,
        makespan: 0,
    };
    let mut remaining_queued = trace.len();
    // Unicasts sitting in switch queues.
    let mut waiting = 0usize;

    loop {
        if r.slot >= config.max_slots {
            return Err(SimError::SlotBudgetExceeded);
        }

        // --- Injection: cursors over the CSR queues. Routed packets and
        // the broadcasts of local writes contend in this very slot.
        let mut injected_any = false;
        if remaining_queued > 0 {
            for pi in 0..n_procs {
                let p = net.processor_at(pi);
                for _ in 0..config.injection_rate {
                    let cur = ws.q_cursor[pi];
                    if cur == ws.q_off[pi + 1] {
                        break;
                    }
                    ws.q_cursor[pi] = cur + 1;
                    remaining_queued -= 1;
                    injected_any = true;
                    let q = ws.q_entries[cur as usize];
                    let prio = r.fresh_prio();
                    if q.server == p {
                        // Local reference copy: request completes instantly.
                        r.delivered_requests += 1;
                        ws.latencies.push(0);
                        r.makespan = r.makespan.max(r.slot);
                        if q.is_write {
                            let now = r.slot;
                            ws.spawn_update(&mut r, q.object, p, now);
                        }
                    } else {
                        let head = Header {
                            prio,
                            seq: r.fresh_seq(),
                            object: q.object,
                            kind: if q.is_write { PacketKind::Write } else { PacketKind::Read },
                            position: p,
                            issued_at: r.slot,
                        };
                        ws.arrivals.push(QPacket { head, dest: q.server });
                    }
                }
            }
        }
        waiting += ws.flush(net);

        // --- Token refresh. Down buses grant none during the outage
        // window; every edge has a bus endpoint, so their crossings defer
        // until the window ends and the packets retry — never lost.
        ws.edge_tokens.copy_from_slice(&ws.edge_bw);
        ws.bus_tokens.copy_from_slice(&ws.bus_bw2);
        if r.slot < ws.outage_slots {
            for &b in &ws.down_buses {
                ws.bus_tokens[b.index()] = 0;
            }
        }

        // --- Candidates: the head of every non-empty switch queue.
        let (heaps, cands, edge_active) = (&ws.heaps, &mut ws.cands, &mut ws.edge_active);
        ws.active_edges.retain(|&e| match heaps[e as usize].peek() {
            Some(h) => {
                cands.push(Reverse((h.head.key(), e)));
                true
            }
            None => {
                edge_active[e as usize] = false;
                false
            }
        });

        // --- Commit in exact global (prio, seq) order: a two-way merge of
        // the switch heads and the sorted live multicasts. Every multicast
        // is probed each slot (pools refill per slot, so a blocked one may
        // cross the very next); the walk only reads the live list, and
        // dead entries are swept from it afterwards.
        let mut mj = 0;
        let mut mc_died = false;
        loop {
            let sw = ws.cands.peek().map(|&Reverse((key, _))| key);
            let mc = ws.mc_order.get(mj).map(|&i| ws.mc[i as usize].head.key());
            let take_switch = match (sw, mc) {
                (None, None) => break,
                (Some(s), Some(m)) => s < m,
                (s, _) => s.is_some(),
            };
            if take_switch {
                let Reverse((_, e)) = ws.cands.pop().expect("peeked");
                if ws.commit_switch(net, e, &mut r) {
                    waiting -= 1;
                }
            } else {
                let mi = ws.mc_order[mj];
                mj += 1;
                mc_died |= ws.commit_multicast(net, mi as usize, &mut r);
            }
        }
        if mc_died {
            let (mc, free) = (&ws.mc, &mut ws.mc_free);
            ws.mc_order.retain(|&i| {
                let dead = mc[i as usize].dests.is_empty();
                if dead {
                    free.push(i);
                }
                !dead
            });
        }

        let idle = waiting == 0
            && ws.arrivals.is_empty()
            && ws.mc_order.is_empty()
            && ws.mc_spawn.is_empty();
        if idle && !injected_any && remaining_queued == 0 {
            break;
        }
        r.slot += 1;
    }

    ws.latencies.sort_unstable();
    let mean_latency = if ws.latencies.is_empty() {
        0.0
    } else {
        ws.latencies.iter().sum::<u64>() as f64 / ws.latencies.len() as f64
    };
    let p99_latency = ws
        .latencies
        .get(((ws.latencies.len() as f64 * 0.99).ceil() as usize).saturating_sub(1))
        .copied()
        .unwrap_or(0);
    Ok(SimResult {
        makespan: r.makespan,
        delivered_requests: r.delivered_requests,
        delivered_updates: r.delivered_updates,
        mean_latency,
        p99_latency,
        edge_crossings: ws.edge_crossings.clone(),
    })
}
