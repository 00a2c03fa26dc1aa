//! The naive reference kernel — the oracle — retained verbatim in
//! structure from the original engine for differential testing against
//! the event-driven kernel ([`crate::SimWorkspace`]).
//!
//! This path allocates freely — fresh token `Vec`s per slot, a grouping
//! `Vec` per packet move, one destination `Vec` per packet — and re-sorts
//! the active set every slot. It defines the simulator's semantics; the
//! fast kernel must produce an identical [`SimResult`] on every input
//! (see `tests/differential.rs`). The only change from the seed
//! implementation is the arbitration key: packets are ordered by
//! `(id, seq)` where `seq` is a unique creation sequence number, because
//! branch fragments of a multicast inherit their origin's id and the
//! seed's equal-id ordering depended on incidental vector layout.

use crate::engine::{SimConfig, SimError, SimResult};
use crate::packet::{Packet, PacketKind};
use crate::trace::Request;
use hbn_load::Placement;
use hbn_topology::{CapacityOverlay, EdgeId, Network, NodeId};
use hbn_workload::{AccessMatrix, ObjectId};
use std::collections::VecDeque;

/// `(object, processor) → [(server, reads_left, writes_left)]`.
type RouteTable = std::collections::HashMap<(u32, u32), Vec<(NodeId, u64, u64)>>;

/// Per-(object, processor) request budgets against assignment entries.
struct Router {
    table: RouteTable,
}

impl Router {
    fn new(placement: &Placement, matrix: &AccessMatrix) -> Router {
        let mut table = RouteTable::new();
        for x in matrix.objects() {
            for e in placement.assignment(x) {
                table.entry((x.0, e.processor.0)).or_default().push((e.server, e.reads, e.writes));
            }
        }
        Router { table }
    }

    fn route(&mut self, req: &Request) -> Option<NodeId> {
        let entries = self.table.get_mut(&(req.object.0, req.processor.0))?;
        for (server, reads, writes) in entries.iter_mut() {
            if req.is_write && *writes > 0 {
                *writes -= 1;
                return Some(*server);
            }
            if !req.is_write && *reads > 0 {
                *reads -= 1;
                return Some(*server);
            }
        }
        None
    }
}

/// Simulate replaying `trace` under `placement` with the naive kernel.
///
/// Semantically identical to [`crate::simulate`], kept as the reference
/// implementation; prefer the fast kernel everywhere else.
pub fn simulate_reference(
    net: &Network,
    matrix: &AccessMatrix,
    placement: &Placement,
    trace: &[Request],
    config: SimConfig,
) -> Result<SimResult, SimError> {
    reference_inner(net, matrix, placement, trace, config, None)
}

/// [`simulate_reference`] under a per-bus capacity overlay — the naive
/// counterpart of [`crate::simulate_with_overlay`], with identical
/// overlay semantics (degraded bus tokens; zero tokens on down buses
/// while `slot < overlay.outage_slots()`). The differential suite pins
/// the two kernels against each other under faults too.
pub fn simulate_reference_overlay(
    net: &Network,
    matrix: &AccessMatrix,
    placement: &Placement,
    trace: &[Request],
    config: SimConfig,
    overlay: &CapacityOverlay,
) -> Result<SimResult, SimError> {
    reference_inner(net, matrix, placement, trace, config, Some(overlay))
}

fn reference_inner(
    net: &Network,
    matrix: &AccessMatrix,
    placement: &Placement,
    trace: &[Request],
    config: SimConfig,
    overlay: Option<&CapacityOverlay>,
) -> Result<SimResult, SimError> {
    let n = net.n_nodes();
    let mut router = Router::new(placement, matrix);

    // Per-processor injection queues, in trace order. A non-leaf
    // requester could never inject (the seed silently dropped such
    // requests); both kernels reject them up front.
    let mut queues: Vec<VecDeque<(Request, NodeId)>> = vec![VecDeque::new(); n];
    for req in trace {
        if !net.is_processor(req.processor) {
            return Err(SimError::UnroutedRequest { processor: req.processor, object: req.object });
        }
        let server = router
            .route(req)
            .ok_or(SimError::UnroutedRequest { processor: req.processor, object: req.object })?;
        queues[req.processor.index()].push_back((*req, server));
    }

    let mut active: Vec<Packet> = Vec::new();
    let mut next_prio = 0u64;
    let mut next_seq = 0u64;
    let mut edge_crossings = vec![0u64; n];
    let mut latencies: Vec<u64> = Vec::new();
    let mut delivered_requests = 0u64;
    let mut delivered_updates = 0u64;
    let mut makespan = 0u64;

    // Deliveries that happen at injection (local server, or single-copy
    // local writes) are handled immediately below.
    let mut slot = 0u64;
    loop {
        if slot >= config.max_slots {
            return Err(SimError::SlotBudgetExceeded);
        }
        // --- Injection ---
        let mut injected_any = false;
        for &p in net.processors() {
            for _ in 0..config.injection_rate {
                let Some((req, server)) = queues[p.index()].pop_front() else {
                    break;
                };
                injected_any = true;
                let kind = if req.is_write { PacketKind::Write } else { PacketKind::Read };
                let pkt = Packet::new(next_prio, next_seq, req.object, kind, p, vec![server], slot);
                next_prio += 1;
                if pkt.done() {
                    // Local reference copy: request completes instantly.
                    delivered_requests += 1;
                    latencies.push(0);
                    makespan = makespan.max(slot);
                    if req.is_write {
                        spawn_update(
                            placement,
                            req.object,
                            server,
                            slot,
                            &mut next_prio,
                            &mut next_seq,
                            &mut active,
                        );
                    }
                } else {
                    next_seq += 1;
                    active.push(pkt);
                }
            }
        }

        // --- Forwarding ---
        let mut edge_tokens: Vec<u64> = (0..n as u32)
            .map(|v| {
                let v = NodeId(v);
                if v == net.root() {
                    0
                } else {
                    net.edge_bandwidth(EdgeId::from(v))
                }
            })
            .collect();
        let mut bus_tokens2: Vec<u64> = net
            .nodes()
            .map(|v| {
                if !net.is_bus(v) {
                    0
                } else {
                    match overlay {
                        // A down bus grants no tokens during the outage
                        // window, then reverts to its (possibly
                        // degraded) capacity.
                        Some(o) if o.is_down(v) && slot < o.outage_slots() => 0,
                        Some(o) => 2 * o.effective_node_bandwidth(net, v),
                        None => 2 * net.node_bandwidth(v),
                    }
                }
            })
            .collect();

        let mut spawned: Vec<Packet> = Vec::new();
        let mut finished: Vec<usize> = Vec::new();
        // (id, seq) order = injection order with deterministic fragment
        // tie-breaks; the lowest key always moves, so the batch provably
        // drains.
        active.sort_by_key(|p| (p.id, p.seq));
        for (i, pkt) in active.iter_mut().enumerate() {
            let mut remaining: Vec<NodeId> = Vec::new();
            for (hop, dests) in pkt.next_hops(net) {
                let edge = if net.parent(hop) == pkt.position { hop } else { pkt.position };
                let e = EdgeId::from(edge);
                let (a, b) = net.edge_endpoints(e);
                let bus_a = net.is_bus(a).then_some(a);
                let bus_b = net.is_bus(b).then_some(b);
                let ok = edge_tokens[e.index()] >= 1
                    && bus_a.is_none_or(|v| bus_tokens2[v.index()] >= 1)
                    && bus_b.is_none_or(|v| bus_tokens2[v.index()] >= 1);
                if !ok {
                    remaining.extend(dests);
                    continue;
                }
                edge_tokens[e.index()] -= 1;
                for v in [bus_a, bus_b].into_iter().flatten() {
                    bus_tokens2[v.index()] -= 1;
                }
                edge_crossings[e.index()] += 1;
                // The branch towards `hop` continues as its own packet,
                // inheriting the original's FIFO priority.
                let before = dests.len();
                let moved =
                    Packet::new(pkt.id, next_seq, pkt.object, pkt.kind, hop, dests, pkt.issued_at);
                next_seq += 1;
                let stripped = (before - moved.destinations.len()) as u64;
                if stripped > 0 {
                    match pkt.kind {
                        PacketKind::Read | PacketKind::Write => {
                            delivered_requests += 1;
                            latencies.push(slot + 1 - pkt.issued_at);
                            makespan = makespan.max(slot + 1);
                            if pkt.kind == PacketKind::Write {
                                spawn_update(
                                    placement,
                                    pkt.object,
                                    hop,
                                    slot + 1,
                                    &mut next_prio,
                                    &mut next_seq,
                                    &mut spawned,
                                );
                            }
                        }
                        PacketKind::Update => {
                            delivered_updates += stripped;
                            makespan = makespan.max(slot + 1);
                        }
                    }
                }
                if !moved.done() {
                    spawned.push(moved);
                }
            }
            pkt.destinations = remaining;
            if pkt.done() {
                finished.push(i);
            }
        }
        for i in finished.into_iter().rev() {
            active.swap_remove(i);
        }
        active.extend(spawned);

        if active.is_empty()
            && !injected_any
            && net.processors().iter().all(|&p| queues[p.index()].is_empty())
        {
            break;
        }
        slot += 1;
    }

    latencies.sort_unstable();
    let mean_latency = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
    };
    let p99_latency = latencies
        .get(((latencies.len() as f64 * 0.99).ceil() as usize).saturating_sub(1))
        .copied()
        .unwrap_or(0);
    Ok(SimResult {
        makespan,
        delivered_requests,
        delivered_updates,
        mean_latency,
        p99_latency,
        edge_crossings,
    })
}

/// Spawn the update broadcast from `server` to every other copy of `x`.
fn spawn_update(
    placement: &Placement,
    x: ObjectId,
    server: NodeId,
    slot: u64,
    next_prio: &mut u64,
    next_seq: &mut u64,
    out: &mut Vec<Packet>,
) {
    let others: Vec<NodeId> =
        placement.copies(x).iter().copied().filter(|&c| c != server).collect();
    if others.is_empty() {
        return;
    }
    let pkt = Packet::new(*next_prio, *next_seq, x, PacketKind::Update, server, others, slot);
    *next_prio += 1;
    *next_seq += 1;
    debug_assert!(!pkt.done());
    out.push(pkt);
}
