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
//! Every crossing of switch `e = (c, p)` draws on the *same* token pools
//! — the switch pool `b(e)` plus the bus pools at whichever endpoints are
//! buses — whatever its direction, and token pools only shrink within a
//! slot. So if the smallest-key entry queued at `e` is blocked, every
//! later entry at `e` is blocked too. Each switch keeps its queue as a
//! deque in ascending arbitration key, and the kernel probes only queue
//! fronts. Arrivals come nearly in key order (most land behind every
//! waiting entry), so an enqueue is usually a push at the back, else a
//! push at the front or one binary-search insert, and a crossing pops
//! the front in O(1). Keys are unique, so the front is the entry a
//! min-heap would pop.
//!
//! ## Broadcasts wait as hop-groups
//!
//! An update broadcast at node `v` splits its destinations by next hop.
//! Each such hop-group crosses exactly one switch, so it is queued at
//! that switch like a unicast, under the key `(prio, seq, start)`:
//! `start` is the group's offset in the broadcast's destination buffer,
//! which grows in plan order, and no other packet shares `(prio, seq)`.
//! The walk thus visits a broadcast's groups contiguously and in plan
//! order, exactly where the oracle probes the whole packet, while a
//! blocked group waits unseen behind its blocked queue head. The plan is
//! built once, when the broadcast is flushed into the queues; a crossed
//! group leaves a fragment at its hop, and the broadcast's slab entry is
//! freed when its last group has crossed.
//!
//! ## One walk over the open heads per slot
//!
//! The fronts of the non-empty queues form one list sorted by key, kept
//! across slots: a key below a queue's front replaces the front's entry,
//! and the queues a flush starts are set aside and merged into the list
//! once, after the flush (a packet that moved a hop keeps its older
//! priority, so inserting each new head alone would shift the fresher
//! heads once per started queue). Each slot walks that list once,
//! merged in key order with a small heap of same-slot re-entries: when a
//! head crosses and its switch is still open, the switch's next head
//! joins the walk at its own key, so a switch passes several entries per
//! slot exactly when bandwidth allows. A head that stays blocked keeps
//! its place (the list is compacted in place). A switch closed by a
//! crossing stays out until the next slot, since dominance blocks its
//! next head anyway, and so does a re-entry that a later crossing
//! closed: their next heads are set aside, sorted after the walk and
//! merged into the list. So at the start of every walk the
//! list holds exactly the queue fronts in key order, and no slot sorts
//! the heads from scratch. Per-slot work is O(active switches +
//! crossings), and injection visits only the processors with requests
//! left.
//!
//! ## Why the kernel is sequential
//!
//! Every slot commits crossings in exact global key order. A crossing of
//! switch `(c, p)` draws from the bus pools at two adjacent levels, so
//! bus `c`'s pool is shared between the switches below and above it;
//! under contention the winner depends on the global key order across
//! levels (see `DESIGN.md` for a two-packet counterexample). No
//! partition of one slot's arbitration is independent, and a measured
//! intra-slot fan-out only lost. Replays parallelise *across* independent
//! units instead: seed shards and tenants.
//!
//! ## Shared setup
//!
//! * **Routing** is keyed by the epoch's objects. Each object the trace
//!   names gets a dense index through a generation-stamped slot
//!   (`obj_slot`), and its routable assignment entries one CSR range
//!   (`route_off`/`route_entries`), stably sorted by processor, so each
//!   `(object, processor)` cell keeps its entries in assignment order and
//!   split budgets are consumed in the reference router's order. A bind
//!   costs `O(requests + assignment entries of the traced objects)`,
//!   whatever the matrix's object count; every request is routed up
//!   front.
//! * **Injection queues** are a CSR over processors in trace order, read
//!   through per-processor cursors; the processors with requests left
//!   are listed in index order and compacted as their queues drain.
//! * **Token pools** are reset in place each slot from cached bandwidth
//!   vectors (under the run's capacity overlay, when one is bound).
//!
//! A workspace can be reused across runs (and across networks): buffers
//! are sized at bind time and only grow, and a replay hands out the
//! broadcast slab's entries in the same order as the replay before it,
//! so a repeated replay performs no heap allocation beyond the
//! `edge_crossings` it returns.

use crate::engine::{SimConfig, SimError, SimResult};
use crate::packet::PacketKind;
use crate::trace::Request;
use hbn_load::Placement;
use hbn_topology::{CapacityOverlay, EdgeId, Network, NodeId};
use hbn_workload::{AccessMatrix, ObjectId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
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

/// The arbitration key of a queue entry: `(prio, seq, start)`.
type Key = (u64, u64, u32);

/// An entry of a switch queue: a unicast packet, or one hop-group of a
/// broadcast.
#[derive(Debug, Clone, Copy)]
struct QPacket {
    head: Header,
    /// A unicast's destination, or a hop-group's broadcast slab index.
    target: u32,
    /// A hop-group's destinations are `dests[start .. start + len]` of
    /// its broadcast; `len == 0` marks a unicast.
    start: u32,
    len: u32,
}

impl QPacket {
    fn unicast(head: Header, dest: NodeId) -> QPacket {
        QPacket { head, target: dest.0, start: 0, len: 0 }
    }

    #[inline]
    fn key(&self) -> Key {
        (self.head.prio, self.head.seq, self.start)
    }
}

/// A broadcast slab entry: destinations laid out group by group in plan
/// order, and the number of its groups still queued (0 = free). The
/// buffer stays with the entry, so the slab recycles it.
#[derive(Debug, Default)]
struct Broadcast {
    dests: Vec<NodeId>,
    open_groups: u32,
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

/// One assignment entry in the router, with remaining budgets.
#[derive(Debug, Clone, Copy)]
struct RouteEntry {
    processor: NodeId,
    server: NodeId,
    reads: u64,
    writes: u64,
}

/// An object's router slot: its dense index, valid while `stamp` equals
/// the workspace's current routing generation.
#[derive(Debug, Clone, Copy, Default)]
struct ObjSlot {
    stamp: u32,
    dense: u32,
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
    // Router: per object id a generation-stamped dense index, and per
    // dense index a CSR range of its entries, sorted by processor.
    obj_slot: Vec<ObjSlot>,
    route_generation: u32,
    route_off: Vec<u32>,
    route_entries: Vec<RouteEntry>,
    // Injection queues: CSR over processors, entries in trace order, and
    // the processors with requests left, in index order.
    q_off: Vec<u32>,
    q_cursor: Vec<u32>,
    q_entries: Vec<Queued>,
    live_procs: Vec<u32>,
    // Per-slot token pools, reset in place.
    edge_tokens: Vec<u64>,
    bus_tokens: Vec<u64>,
    /// Per-switch queues of unicasts and hop-groups in ascending key
    /// order, indexed by the switch's child endpoint (the root slot is
    /// never used).
    queues: Vec<VecDeque<QPacket>>,
    /// The front of every non-empty queue with its switch, sorted by key.
    /// Kept across slots; exact at the start of each walk.
    heads: Vec<(Key, u32)>,
    /// The next heads of switches that crossed this slot: those still
    /// open re-enter the walk, the others (and blocked re-entries) wait
    /// for the merge into `heads` after the walk.
    reentry: BinaryHeap<Reverse<(Key, u32)>>,
    /// Heads set aside for one merge into `heads`: during a flush, the
    /// queues it starts; during a walk, the heads that wait for the next
    /// slot.
    deferred: Vec<(Key, u32)>,
    /// Unicast packets injected, moved or spawned since the last flush.
    arrivals: Vec<QPacket>,
    /// Broadcasts spawned since the last flush, their destinations in
    /// `spawn_dests`.
    spawned: Vec<(Header, Range<u32>)>,
    spawn_dests: Vec<NodeId>,
    /// Broadcast slab, with its free entries on `mc_free`.
    mc: Vec<Broadcast>,
    mc_free: Vec<u32>,
    // Plan and update scratch.
    hop_of: Vec<NodeId>,
    group_hops: Vec<NodeId>,
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
        if self.queues.len() < n {
            self.queues.resize_with(n, VecDeque::new);
        }
        for q in &mut self.queues {
            q.clear();
        }
        self.heads.clear();
        self.reentry.clear();
        self.deferred.clear();
        self.arrivals.clear();
        self.spawned.clear();
        self.spawn_dests.clear();
        // Every slab entry is free, the lowest index on top: a replay
        // then hands out entries exactly as one that grew the slab, so an
        // identical replay reuses every buffer at the size it reached.
        self.mc_free.clear();
        self.mc_free.extend((0..self.mc.len() as u32).rev());
    }

    /// Build the router for the objects `trace` names, from their
    /// assignments in `placement`.
    ///
    /// Each traced object inside the matrix gets the next dense index, in
    /// trace order, and its entries one CSR range. The range is stably
    /// sorted by processor, so every `(object, processor)` cell keeps the
    /// naive router's scan order (assignment order) and split budgets
    /// are consumed identically. Assignment entries whose `processor` is
    /// not a leaf are unroutable by construction and skipped. Objects
    /// outside the matrix get no slot in this generation, like the
    /// reference router, which has no key for them.
    fn build_router(
        &mut self,
        net: &Network,
        matrix: &AccessMatrix,
        placement: &Placement,
        trace: &[Request],
    ) {
        self.route_generation = self.route_generation.wrapping_add(1);
        if self.route_generation == 0 {
            // Wrapped: physically reset to keep stamps unambiguous.
            self.obj_slot.iter_mut().for_each(|slot| slot.stamp = 0);
            self.route_generation = 1;
        }
        let generation = self.route_generation;
        self.route_off.clear();
        self.route_off.push(0);
        self.route_entries.clear();
        for req in trace {
            let x = req.object.index();
            if x >= matrix.n_objects() {
                continue;
            }
            if x >= self.obj_slot.len() {
                self.obj_slot.resize(x + 1, ObjSlot::default());
            }
            let slot = &mut self.obj_slot[x];
            if slot.stamp == generation {
                continue;
            }
            *slot = ObjSlot { stamp: generation, dense: (self.route_off.len() - 1) as u32 };
            let start = self.route_entries.len();
            self.route_entries.extend(
                placement
                    .assignment(req.object)
                    .iter()
                    .filter(|e| net.is_processor(e.processor))
                    .map(|e| RouteEntry {
                        processor: e.processor,
                        server: e.server,
                        reads: e.reads,
                        writes: e.writes,
                    }),
            );
            let entries = &mut self.route_entries[start..];
            if !entries.is_sorted_by_key(|e| e.processor) {
                entries.sort_by_key(|e| e.processor);
            }
            self.route_off.push(self.route_entries.len() as u32);
        }
    }

    /// Route one request against the remaining budgets, exactly like the
    /// naive router: first entry of its cell with budget of the right kind
    /// wins. An object without a slot in this generation (outside the
    /// matrix) or a processor without entries has no cell, and is
    /// unroutable, matching the reference router's missing key.
    fn route(&mut self, req: &Request) -> Option<NodeId> {
        let slot = self.obj_slot.get(req.object.index())?;
        if slot.stamp != self.route_generation {
            return None;
        }
        let d = slot.dense as usize;
        let object =
            &mut self.route_entries[self.route_off[d] as usize..self.route_off[d + 1] as usize];
        let first = object.partition_point(|e| e.processor < req.processor);
        for entry in object[first..].iter_mut().take_while(|e| e.processor == req.processor) {
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
    /// routing every request up front like the naive kernel does, and
    /// list the processors with a non-empty queue.
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
            let server = self.route(req).ok_or(SimError::UnroutedRequest {
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
        self.live_procs.clear();
        self.live_procs.extend(
            (0..n_procs as u32).filter(|&i| self.q_off[i as usize] < self.q_off[i as usize + 1]),
        );
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

    /// Queue `pkt` at switch `e`, in key order. A first entry sets the
    /// switch aside in `deferred`; a new front of a queue in `heads`
    /// replaces the queue's entry there.
    #[inline]
    fn enqueue(&mut self, e: usize, pkt: QPacket) {
        let key = pkt.key();
        let q = &mut self.queues[e];
        let (Some(front), Some(back)) = (q.front(), q.back()) else {
            q.push_back(pkt);
            self.deferred.push((key, e as u32));
            return;
        };
        if key > back.key() {
            q.push_back(pkt);
        } else if key < front.key() {
            let front = (front.key(), e as u32);
            q.push_front(pkt);
            // Keys are unique: the search finds the old front unless this
            // flush started the queue, whose front is read after the flush.
            let old = self.heads.partition_point(|h| h.0 < front.0);
            if self.heads.get(old) == Some(&front) {
                let at = self.heads[..old].partition_point(|h| h.0 < key);
                self.heads[at..=old].rotate_right(1);
                self.heads[at] = (key, e as u32);
            } else {
                debug_assert!(self.deferred.iter().any(|h| h.1 == front.1), "fronts are in heads");
            }
        } else {
            let at = q.partition_point(|p| p.key() < key);
            q.insert(at, pkt);
        }
    }

    /// Queue every pending unicast at the switch it must cross next, and
    /// every pending broadcast's hop-groups at theirs, then merge the
    /// fronts of the queues this started into `heads`. Returns how many
    /// entries were queued.
    fn flush(&mut self, net: &Network) -> usize {
        let mut queued = self.arrivals.len();
        for i in 0..self.arrivals.len() {
            let pkt = self.arrivals[i];
            self.enqueue(next_switch(net, pkt.head.position, NodeId(pkt.target)), pkt);
        }
        self.arrivals.clear();
        for i in 0..self.spawned.len() {
            let (head, dests) = self.spawned[i].clone();
            queued += self.plan(net, head, dests.start as usize..dests.end as usize);
        }
        self.spawned.clear();
        self.spawn_dests.clear();
        for h in &mut self.deferred {
            h.0 = self.queues[h.1 as usize].front().expect("a started queue").key();
        }
        self.merge_deferred();
        queued
    }

    /// Give the broadcast `head`, bound for `spawn_dests[dests]`, a slab
    /// entry and queue its hop-groups: destinations grouped by next hop in
    /// first-occurrence order (a one-entry child-subtree cache skips the
    /// O(log degree) lookup while consecutive destinations share a
    /// subtree), each group contiguous in the entry's buffer. Returns the
    /// number of groups.
    fn plan(&mut self, net: &Network, head: Header, dests: Range<usize>) -> usize {
        let v = head.position;
        self.hop_of.clear();
        self.group_hops.clear();
        let mut cached: Option<(u32, u32, NodeId)> = None;
        for &d in &self.spawn_dests[dests.clone()] {
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
        let idx = match self.mc_free.pop() {
            Some(i) => i,
            None => {
                self.mc.push(Broadcast::default());
                (self.mc.len() - 1) as u32
            }
        };
        let mut entry = std::mem::take(&mut self.mc[idx as usize]);
        entry.dests.clear();
        let groups = self.group_hops.len();
        for g in 0..groups {
            let hop = self.group_hops[g];
            let start = entry.dests.len();
            entry.dests.extend(
                self.hop_of
                    .iter()
                    .zip(&self.spawn_dests[dests.clone()])
                    .filter(|&(&h, _)| h == hop)
                    .map(|(_, &d)| d),
            );
            let len = entry.dests.len() - start;
            let switch = if net.parent(hop) == v { hop } else { v };
            let group = QPacket { head, target: idx, start: start as u32, len: len as u32 };
            self.enqueue(switch.index(), group);
        }
        entry.open_groups = groups as u32;
        self.mc[idx as usize] = entry;
        groups
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
            self.arrivals.push(QPacket::unicast(head, dest));
        } else {
            let start = self.spawn_dests.len() as u32;
            self.spawn_dests.extend_from_slice(&self.upd);
            self.spawned.push((head, start..self.spawn_dests.len() as u32));
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
    /// crossed; if so, the next head joins this slot's walk at its own
    /// key while the switch is still open, and waits for the next slot
    /// otherwise.
    fn commit_switch(&mut self, net: &Network, e: u32, r: &mut Replay) -> bool {
        let child = NodeId(e);
        let switch = Switch::of(net, child);
        if !self.is_open(switch) {
            // Pools only shrink within a slot, and every entry queued
            // here needs this exact pool set: the whole queue is blocked
            // for the rest of the slot.
            return false;
        }
        self.cross(switch);
        let pkt = self.queues[e as usize].pop_front().expect("walk entries are queue heads");
        let hop = if pkt.head.position == child { net.parent(child) } else { child };
        if pkt.len > 0 {
            self.cross_group(r, pkt, hop);
        } else if hop.0 == pkt.target {
            self.deliver(r, pkt.head, hop, 1);
        } else {
            let head = Header { seq: r.fresh_seq(), position: hop, ..pkt.head };
            self.arrivals.push(QPacket { head, ..pkt });
        }
        if let Some(next) = self.queues[e as usize].front() {
            let head = (next.key(), e);
            if self.is_open(switch) {
                self.reentry.push(Reverse(head));
            } else {
                self.deferred.push(head);
            }
        }
        true
    }

    /// Merge the heads set aside during the walk into `heads`, which then
    /// holds every queue front in key order again.
    fn merge_deferred(&mut self) {
        if self.deferred.is_empty() {
            return;
        }
        self.deferred.sort_unstable();
        let (mut i, mut j) = (self.heads.len(), self.deferred.len());
        self.heads.resize(i + j, self.deferred[0]);
        // Merge from the back, so every entry moves at most once; the
        // kept prefix is in place once the set-aside heads are.
        while j > 0 {
            if i > 0 && self.heads[i - 1] > self.deferred[j - 1] {
                i -= 1;
                self.heads[i + j] = self.heads[i];
            } else {
                j -= 1;
                self.heads[i + j] = self.deferred[j];
            }
        }
        self.deferred.clear();
    }

    /// A hop-group has crossed to `hop`: deliver there, continue the rest
    /// of the group as a fragment inheriting the broadcast's priority,
    /// and free the broadcast's slab entry with its last group.
    fn cross_group(&mut self, r: &mut Replay, group: QPacket, hop: NodeId) {
        let mi = group.target as usize;
        let range = group.start as usize..(group.start + group.len) as usize;
        // A group's destinations keep the broadcast's sorted order, so
        // the fragment is sorted as the oracle's fresh packet is.
        let start = self.spawn_dests.len();
        let mut delivered_here = 0u64;
        for &d in &self.mc[mi].dests[range] {
            if d == hop {
                delivered_here += 1;
            } else {
                self.spawn_dests.push(d);
            }
        }
        debug_assert!(self.spawn_dests[start..].is_sorted(), "fragments stay sorted");
        let fragment = self.spawn_dests.len() - start;
        if fragment > 0 {
            let head = Header { seq: r.fresh_seq(), position: hop, ..group.head };
            if fragment == 1 {
                let dest = self.spawn_dests.pop().expect("one fragment destination");
                self.arrivals.push(QPacket::unicast(head, dest));
            } else {
                self.spawned.push((head, start as u32..self.spawn_dests.len() as u32));
            }
        }
        if delivered_here > 0 {
            self.deliver(r, group.head, hop, delivered_here);
        }
        let entry = &mut self.mc[mi];
        entry.open_groups -= 1;
        if entry.open_groups == 0 {
            self.mc_free.push(group.target);
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
    ws.build_router(net, matrix, placement, trace);
    ws.build_queues(net, trace)?;

    let mut r = Replay {
        placement,
        slot: 0,
        next_prio: 0,
        next_seq: 0,
        delivered_requests: 0,
        delivered_updates: 0,
        makespan: 0,
    };
    // Entries sitting in switch queues.
    let mut waiting = 0usize;

    loop {
        if r.slot >= config.max_slots {
            return Err(SimError::SlotBudgetExceeded);
        }

        // --- Injection: cursors over the CSR queues of the processors
        // with requests left. Routed packets and the broadcasts of local
        // writes contend in this very slot.
        let mut injected_any = false;
        let mut kept = 0;
        for k in 0..ws.live_procs.len() {
            let pi = ws.live_procs[k] as usize;
            let p = net.processor_at(pi);
            let end = ws.q_off[pi + 1];
            for _ in 0..config.injection_rate {
                let cur = ws.q_cursor[pi];
                if cur == end {
                    break;
                }
                ws.q_cursor[pi] = cur + 1;
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
                    ws.arrivals.push(QPacket::unicast(head, q.server));
                }
            }
            if ws.q_cursor[pi] < end {
                ws.live_procs[kept] = pi as u32;
                kept += 1;
            }
        }
        ws.live_procs.truncate(kept);
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

        // --- The walk: the sorted queue fronts, merged in exact global
        // key order with the same-slot re-entries of switches that crossed
        // and are still open. Blocked fronts keep their places; the heads
        // set aside for the next slot are merged in after the walk.
        let (mut next, mut kept) = (0, 0);
        loop {
            let from_heads = match (ws.heads.get(next), ws.reentry.peek()) {
                (None, None) => break,
                (Some(&(key, _)), Some(&Reverse((again, _)))) => key < again,
                (head, _) => head.is_some(),
            };
            let head = if from_heads {
                next += 1;
                ws.heads[next - 1]
            } else {
                ws.reentry.pop().expect("peeked").0
            };
            if ws.commit_switch(net, head.1, &mut r) {
                waiting -= 1;
            } else if from_heads {
                ws.heads[kept] = head;
                kept += 1;
            } else {
                ws.deferred.push(head);
            }
        }
        ws.heads.truncate(kept);
        ws.merge_deferred();

        let idle = waiting == 0 && ws.arrivals.is_empty() && ws.spawned.is_empty();
        if idle && !injected_any && ws.live_procs.is_empty() {
            break;
        }
        r.slot += 1;
    }

    // The mean is an integer sum, and one selection finds the p99 rank.
    let n = ws.latencies.len();
    let mean_latency =
        if n == 0 { 0.0 } else { ws.latencies.iter().sum::<u64>() as f64 / n as f64 };
    let rank = ((n as f64 * 0.99).ceil() as usize).saturating_sub(1);
    let p99_latency = if rank < n { *ws.latencies.select_nth_unstable(rank).1 } else { 0 };
    Ok(SimResult {
        makespan: r.makespan,
        delivered_requests: r.delivered_requests,
        delivered_updates: r.delivered_updates,
        mean_latency,
        p99_latency,
        edge_crossings: ws.edge_crossings.clone(),
    })
}
