//! The slot-based network simulator.
//!
//! Time advances in slots. Per slot every switch `e` forwards up to
//! `b(e)` packets (both directions combined) and every bus `B` sustains
//! `2·b(B)` edge incidences — exactly the capacity normalisation of the
//! paper's congestion definition, so the congestion of a placement is a
//! certified lower bound on the simulated makespan, and the experiment
//! EXP-SIM measures how tightly makespan tracks congestion (the claim the
//! introduction imports from the authors' SPAA'99 evaluation).
//!
//! Arbitration is deterministic: packets try to move in `(id, seq)` order
//! (FIFO by injection, fragments tie-broken by creation sequence), and
//! multicast packets replicate at branch nodes, charging every Steiner
//! edge exactly once per update.
//!
//! The kernel ([`crate::SimWorkspace`], used by [`simulate`]) and its
//! oracle, the naive reference ([`crate::simulate_reference`]), implement
//! these semantics and are pinned to each other by the differential suite
//! in `tests/differential.rs`. See DESIGN.md for the capacity
//! normalisation and the event-driven kernel.

use crate::trace::Request;
use crate::workspace::{self, SimWorkspace};
use hbn_load::Placement;
use hbn_topology::NodeId;
use hbn_workload::{AccessMatrix, ObjectId};

/// Simulator configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Packets each processor may inject per slot.
    pub injection_rate: usize,
    /// Safety cap on simulated slots.
    pub max_slots: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { injection_rate: 1, max_slots: 10_000_000 }
    }
}

/// Aggregated simulation metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Slot at which the last packet drained (the batch makespan).
    pub makespan: u64,
    /// Requests delivered (reads + writes reaching their reference copy).
    pub delivered_requests: u64,
    /// Update deliveries (per updated copy).
    pub delivered_updates: u64,
    /// Mean request latency (delivery − injection), in slots.
    pub mean_latency: f64,
    /// 99th-percentile request latency.
    pub p99_latency: u64,
    /// Total crossings per switch (indexed by `EdgeId`); equals the load
    /// model's per-edge loads when the whole matrix is replayed.
    pub edge_crossings: Vec<u64>,
}

/// Simulation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A request could not be matched to an assignment entry of the
    /// placement (trace and placement disagree with the matrix).
    UnroutedRequest {
        /// The requesting processor.
        processor: NodeId,
        /// The object.
        object: ObjectId,
    },
    /// `max_slots` elapsed before the batch drained.
    SlotBudgetExceeded,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnroutedRequest { processor, object } => {
                write!(f, "no assignment entry left for ({processor}, {object})")
            }
            SimError::SlotBudgetExceeded => write!(f, "slot budget exceeded"),
        }
    }
}

impl std::error::Error for SimError {}

/// Simulate replaying `trace` under `placement`.
///
/// Every trace request must be covered by the placement's assignment
/// (replaying the full [`crate::trace::expand`] of the matrix always is).
///
/// Runs the event-driven kernel on a fresh [`SimWorkspace`];
/// callers replaying many traces should hold a workspace and use
/// [`simulate_with`] so buffers are reused across runs.
pub fn simulate(
    net: &hbn_topology::Network,
    matrix: &AccessMatrix,
    placement: &Placement,
    trace: &[Request],
    config: SimConfig,
) -> Result<SimResult, SimError> {
    simulate_with(&mut SimWorkspace::new(), net, matrix, placement, trace, config)
}

/// [`simulate`] with an explicit reusable workspace: after the first run
/// the slot loop performs no heap allocation (buffers retain their
/// high-water capacities between runs).
pub fn simulate_with(
    ws: &mut SimWorkspace,
    net: &hbn_topology::Network,
    matrix: &AccessMatrix,
    placement: &Placement,
    trace: &[Request],
    config: SimConfig,
) -> Result<SimResult, SimError> {
    workspace::run(ws, net, matrix, placement, trace, config, None)
}

/// [`simulate_with`] under a per-bus capacity overlay: degraded buses
/// grant fewer tokens per slot, and *down* buses grant none while
/// `slot < overlay.outage_slots()` — their packets defer and retry once
/// the outage window ends, so the batch still drains (deferred, never
/// lost). A pristine overlay is bit-for-bit identical to no overlay.
pub fn simulate_with_overlay(
    ws: &mut SimWorkspace,
    net: &hbn_topology::Network,
    matrix: &AccessMatrix,
    placement: &Placement,
    trace: &[Request],
    config: SimConfig,
    overlay: &hbn_topology::CapacityOverlay,
) -> Result<SimResult, SimError> {
    workspace::run(ws, net, matrix, placement, trace, config, Some(overlay))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{expand, expand_shuffled};
    use hbn_core::ExtendedNibble;
    use hbn_load::LoadMap;
    use hbn_topology::generators::{balanced, random_network, star, BandwidthProfile};
    use hbn_workload::generators as wgen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Replaying the full matrix reproduces the load model's per-edge
    /// loads exactly — the simulator and the analytical accounting agree.
    #[test]
    fn crossings_match_load_model() {
        let mut rng = StdRng::seed_from_u64(120);
        for round in 0..10 {
            let net = random_network(5, 10, BandwidthProfile::Uniform, &mut rng);
            let m = wgen::uniform(&net, 4, 3, 2, 0.7, &mut rng);
            let out = ExtendedNibble::new().place(&net, &m).unwrap();
            let trace = expand_shuffled(&m, &mut rng);
            let sim = simulate(&net, &m, &out.placement, &trace, SimConfig::default()).unwrap();
            let loads = LoadMap::from_placement(&net, &m, &out.placement);
            for e in net.edges() {
                assert_eq!(
                    sim.edge_crossings[e.index()],
                    loads.edge_load(e),
                    "round {round}, edge {e}"
                );
            }
        }
    }

    /// The congestion is a lower bound on the makespan.
    #[test]
    fn makespan_dominates_congestion() {
        let mut rng = StdRng::seed_from_u64(121);
        for _ in 0..10 {
            let net = balanced(3, 2, BandwidthProfile::Uniform);
            let m = wgen::zipf_read_mostly(&net, 6, 300, 0.8, 0.3, &mut rng);
            let out = ExtendedNibble::new().place(&net, &m).unwrap();
            let trace = expand_shuffled(&m, &mut rng);
            let sim = simulate(&net, &m, &out.placement, &trace, SimConfig::default()).unwrap();
            let congestion =
                LoadMap::from_placement(&net, &m, &out.placement).congestion(&net).congestion;
            assert!(
                sim.makespan as f64 >= congestion.as_f64(),
                "makespan {} below congestion {}",
                sim.makespan,
                congestion
            );
        }
    }

    #[test]
    fn local_reads_cost_nothing() {
        let net = star(3, 2);
        let p = net.processors();
        let mut m = AccessMatrix::new(1);
        m.add(p[0], ObjectId(0), 5, 0);
        let pl = hbn_load::Placement::single_leaf(&net, &m, |_| p[0]);
        let sim = simulate(&net, &m, &pl, &expand(&m), SimConfig::default()).unwrap();
        assert_eq!(sim.delivered_requests, 5);
        assert_eq!(sim.edge_crossings.iter().sum::<u64>(), 0);
        assert_eq!(sim.mean_latency, 0.0);
    }

    #[test]
    fn remote_read_takes_path_length_slots() {
        let net = star(3, 100);
        let p = net.processors();
        let mut m = AccessMatrix::new(1);
        m.add(p[0], ObjectId(0), 1, 0);
        let pl = hbn_load::Placement::single_leaf(&net, &m, |_| p[1]);
        let sim = simulate(&net, &m, &pl, &expand(&m), SimConfig::default()).unwrap();
        // Two hops (leaf edge up, leaf edge down), one packet, no
        // contention: latency 2.
        assert_eq!(sim.delivered_requests, 1);
        assert_eq!(sim.mean_latency, 2.0);
        assert_eq!(sim.makespan, 2);
    }

    #[test]
    fn write_broadcast_updates_all_copies() {
        let net = star(4, 100);
        let p = net.processors();
        let x = ObjectId(0);
        let mut m = AccessMatrix::new(1);
        m.add(p[0], x, 0, 1);
        let mut pl = hbn_load::Placement::new(1);
        pl.set_copies(x, vec![p[1], p[2], p[3]]);
        pl.nearest_assignment(&net, &m);
        let sim = simulate(&net, &m, &pl, &expand(&m), SimConfig::default()).unwrap();
        assert_eq!(sim.delivered_requests, 1);
        // The broadcast reaches the two non-reference copies.
        assert_eq!(sim.delivered_updates, 2);
        // Total crossings: 2 (request) + 3 (Steiner edges of 3 copies...
        // the reference copy's own edge is charged on the way in, so: path
        // p0->p1 = e0,e1; update p1->{p2,p3} = e1,e2,e3.
        assert_eq!(sim.edge_crossings.iter().sum::<u64>(), 5);
    }

    #[test]
    fn narrow_edge_serialises_traffic() {
        // 10 reads across a bandwidth-1 leaf edge: makespan ≥ 10.
        let net = star(3, 100);
        let p = net.processors();
        let mut m = AccessMatrix::new(1);
        m.add(p[0], ObjectId(0), 10, 0);
        let pl = hbn_load::Placement::single_leaf(&net, &m, |_| p[1]);
        let sim = simulate(&net, &m, &pl, &expand(&m), SimConfig::default()).unwrap();
        assert!(sim.makespan >= 10, "makespan {}", sim.makespan);
        assert!(sim.makespan <= 13, "pipelining keeps it near 10, got {}", sim.makespan);
    }

    #[test]
    fn better_placements_finish_faster() {
        // The motivating claim: lower congestion ⇒ lower makespan, here on
        // a read-heavy workload where the owner placement hammers one leaf.
        let mut rng = StdRng::seed_from_u64(122);
        let net = balanced(3, 2, BandwidthProfile::Uniform);
        let m = wgen::shared_write(&net, 4, 6, 1);
        let ext = ExtendedNibble::new().place(&net, &m).unwrap().placement;
        let one_leaf = hbn_load::Placement::single_leaf(&net, &m, |_| net.processors()[0]);
        let trace = expand_shuffled(&m, &mut rng);
        let sim_ext = simulate(&net, &m, &ext, &trace, SimConfig::default()).unwrap();
        let sim_one = simulate(&net, &m, &one_leaf, &trace, SimConfig::default()).unwrap();
        assert!(
            sim_ext.makespan < sim_one.makespan,
            "extended-nibble {} should beat single-leaf {}",
            sim_ext.makespan,
            sim_one.makespan
        );
    }

    #[test]
    fn unrouted_requests_are_rejected() {
        let net = star(3, 2);
        let p = net.processors();
        let mut m = AccessMatrix::new(1);
        m.add(p[0], ObjectId(0), 1, 0);
        let pl = hbn_load::Placement::new(1); // no copies at all
        let err = simulate(&net, &m, &pl, &expand(&m), SimConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::UnroutedRequest { .. }));
    }

    /// A requester id outside the network is unroutable on both kernels,
    /// like a bus requester, instead of an out-of-bounds panic.
    #[test]
    fn out_of_range_requesters_are_rejected() {
        let net = star(3, 100);
        let p = net.processors();
        let mut m = AccessMatrix::new(1);
        m.add(p[0], ObjectId(0), 1, 0);
        let pl = hbn_load::Placement::single_leaf(&net, &m, |_| p[1]);
        let beyond = NodeId(10_000);
        let trace = [Request { processor: beyond, object: ObjectId(0), is_write: false }];
        let cfg = SimConfig::default();
        let unrouted = Err(SimError::UnroutedRequest { processor: beyond, object: ObjectId(0) });
        assert_eq!(simulate(&net, &m, &pl, &trace, cfg), unrouted);
        assert_eq!(crate::simulate_reference(&net, &m, &pl, &trace, cfg), unrouted);
    }

    #[test]
    fn empty_trace_finishes_at_zero() {
        let net = star(3, 2);
        let m = AccessMatrix::new(1);
        let pl = hbn_load::Placement::new(1);
        let sim = simulate(&net, &m, &pl, &[], SimConfig::default()).unwrap();
        assert_eq!(sim.makespan, 0);
        assert_eq!(sim.delivered_requests, 0);
    }

    #[test]
    fn workspace_reuse_is_transparent() {
        // One workspace replaying different instances back to back gives
        // the same results as fresh workspaces.
        let mut rng = StdRng::seed_from_u64(123);
        let mut ws = SimWorkspace::new();
        for _ in 0..5 {
            let net = random_network(4, 9, BandwidthProfile::Uniform, &mut rng);
            let m = wgen::uniform(&net, 3, 4, 2, 0.6, &mut rng);
            let out = ExtendedNibble::new().place(&net, &m).unwrap();
            let trace = expand_shuffled(&m, &mut rng);
            let fresh = simulate(&net, &m, &out.placement, &trace, SimConfig::default()).unwrap();
            let reused =
                simulate_with(&mut ws, &net, &m, &out.placement, &trace, SimConfig::default())
                    .unwrap();
            assert_eq!(fresh, reused);
        }
    }
}

#[cfg(test)]
mod config_tests {
    use super::*;
    use crate::trace::expand;
    use hbn_topology::generators::star;

    #[test]
    fn slot_budget_is_enforced() {
        let net = star(3, 100);
        let p = net.processors();
        let mut m = AccessMatrix::new(1);
        m.add(p[0], ObjectId(0), 50, 0);
        let pl = hbn_load::Placement::single_leaf(&net, &m, |_| p[1]);
        let cfg = SimConfig { injection_rate: 1, max_slots: 3 };
        assert_eq!(
            simulate(&net, &m, &pl, &expand(&m), cfg).unwrap_err(),
            SimError::SlotBudgetExceeded
        );
    }

    #[test]
    fn higher_injection_rate_cannot_beat_edge_capacity() {
        // The leaf edge has bandwidth 1, so injecting faster only queues
        // packets at the source; makespan is unchanged.
        let net = star(3, 100);
        let p = net.processors();
        let mut m = AccessMatrix::new(1);
        m.add(p[0], ObjectId(0), 12, 0);
        let pl = hbn_load::Placement::single_leaf(&net, &m, |_| p[1]);
        let slow = simulate(
            &net,
            &m,
            &pl,
            &expand(&m),
            SimConfig { injection_rate: 1, max_slots: 1_000_000 },
        )
        .unwrap();
        let fast = simulate(
            &net,
            &m,
            &pl,
            &expand(&m),
            SimConfig { injection_rate: 8, max_slots: 1_000_000 },
        )
        .unwrap();
        assert_eq!(slow.delivered_requests, fast.delivered_requests);
        assert!(fast.makespan <= slow.makespan);
        assert!(fast.makespan >= 12, "bandwidth-1 edge serialises 12 packets");
    }

    #[test]
    fn split_assignments_replay_correctly() {
        // One processor's requests split across two servers: the router
        // must honour the per-entry budgets.
        let net = star(4, 100);
        let p = net.processors();
        let x = ObjectId(0);
        let mut m = AccessMatrix::new(1);
        m.add(p[0], x, 6, 0);
        let mut pl = hbn_load::Placement::new(1);
        pl.add_copy(x, p[1]);
        pl.add_copy(x, p[2]);
        pl.push_assignment(
            x,
            hbn_load::AssignmentEntry { processor: p[0], server: p[1], reads: 4, writes: 0 },
        );
        pl.push_assignment(
            x,
            hbn_load::AssignmentEntry { processor: p[0], server: p[2], reads: 2, writes: 0 },
        );
        pl.validate(&net, &m).unwrap();
        let sim = simulate(&net, &m, &pl, &expand(&m), SimConfig::default()).unwrap();
        assert_eq!(sim.delivered_requests, 6);
        // e(p1) carries 4, e(p2) carries 2, e(p0) carries 6.
        assert_eq!(sim.edge_crossings[p[1].index()], 4);
        assert_eq!(sim.edge_crossings[p[2].index()], 2);
        assert_eq!(sim.edge_crossings[p[0].index()], 6);
    }

    #[test]
    fn excess_trace_requests_are_rejected() {
        let net = star(3, 100);
        let p = net.processors();
        let mut m = AccessMatrix::new(1);
        m.add(p[0], ObjectId(0), 1, 0);
        let pl = hbn_load::Placement::single_leaf(&net, &m, |_| p[1]);
        let mut trace = expand(&m);
        trace.extend_from_slice(&trace.clone()); // replay twice: over budget
        assert!(matches!(
            simulate(&net, &m, &pl, &trace, SimConfig::default()),
            Err(SimError::UnroutedRequest { .. })
        ));
    }
}
