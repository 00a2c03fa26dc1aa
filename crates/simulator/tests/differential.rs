//! Differential tests: the event-driven replay kernel must produce an
//! identical `SimResult` to the retained naive reference kernel (the
//! oracle) on every instance — same makespan, latencies, delivery counts
//! and per-edge crossings — including under capacity overlays and on
//! the error paths. A full replay's per-edge crossings must also equal
//! the load model's accounting (`LoadMap::from_placement`).

use hbn_core::ExtendedNibble;
use hbn_load::{LoadMap, Placement};
use hbn_sim::{
    expand, expand_shuffled, simulate, simulate_reference, simulate_reference_overlay,
    simulate_with, simulate_with_overlay, SimConfig, SimError, SimWorkspace,
};
use hbn_testutil::{arb_network, workload_from_seed};
use hbn_topology::generators::{balanced, caterpillar, random_network, star, BandwidthProfile};
use hbn_topology::{CapacityOverlay, Network};
use hbn_workload::generators as wgen;
use hbn_workload::{AccessMatrix, ObjectId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn assert_kernels_agree(
    net: &Network,
    m: &AccessMatrix,
    placement: &hbn_load::Placement,
    trace: &[hbn_sim::Request],
    config: SimConfig,
    ctx: &str,
) {
    let fast = simulate(net, m, placement, trace, config);
    let naive = simulate_reference(net, m, placement, trace, config);
    assert_eq!(fast, naive, "kernel divergence on {ctx}");
}

/// Random networks × random workloads × the paper's strategy: the two
/// kernels agree on the full `SimResult`, and a single reused workspace
/// behaves like a fresh one.
#[test]
fn kernels_agree_on_random_instances() {
    let mut rng = StdRng::seed_from_u64(7001);
    let mut ws = SimWorkspace::new();
    for round in 0..30 {
        let buses = rng.gen_range(1..7);
        let procs = rng.gen_range(3..14).max(buses * 2);
        let net = random_network(buses, procs, BandwidthProfile::Uniform, &mut rng);
        let objects = rng.gen_range(1..6);
        let m = wgen::uniform(&net, objects, 5, 3, 0.7, &mut rng);
        let out = ExtendedNibble::new().place(&net, &m).unwrap();
        let trace = expand_shuffled(&m, &mut rng);
        let cfg = SimConfig::default();
        assert_kernels_agree(&net, &m, &out.placement, &trace, cfg, &format!("round {round}"));
        let fast = simulate_with(&mut ws, &net, &m, &out.placement, &trace, cfg).unwrap();
        let naive = simulate_reference(&net, &m, &out.placement, &trace, cfg).unwrap();
        assert_eq!(fast, naive, "reused-workspace divergence on round {round}");
    }
}

/// Injection rates above one put several fresh packets on a leaf switch
/// per slot, so queue heads change within a slot. One workspace is
/// reused across all rounds: stale state from a previous replay must not
/// leak, also when the last rounds move it from `balanced(5,4)` to a
/// star and back.
#[test]
fn kernels_agree_across_injection_rates() {
    let mut rng = StdRng::seed_from_u64(9001);
    let mut ws = SimWorkspace::new();
    for round in 0..28 {
        let net = match round {
            25 | 27 => balanced(5, 4, BandwidthProfile::Uniform),
            26 => star(9, 2),
            _ => {
                let buses = rng.gen_range(1..7);
                let procs = rng.gen_range(3..16).max(buses * 2);
                random_network(buses, procs, BandwidthProfile::Uniform, &mut rng)
            }
        };
        let m = if round < 25 {
            wgen::uniform(&net, rng.gen_range(1..6), 5, 3, 0.7, &mut rng)
        } else {
            wgen::zipf_read_mostly(&net, 24, 1_200, 0.9, 0.3, &mut rng)
        };
        let out = ExtendedNibble::new().place(&net, &m).unwrap();
        let trace = expand_shuffled(&m, &mut rng);
        let rate = [1usize, 2, 5][round % 3];
        let cfg = SimConfig { injection_rate: rate, ..SimConfig::default() };
        let naive = simulate_reference(&net, &m, &out.placement, &trace, cfg);
        let fast = simulate_with(&mut ws, &net, &m, &out.placement, &trace, cfg);
        assert_eq!(fast, naive, "reused-workspace divergence on round {round} at rate {rate}");
    }
}

/// Fat-tree bandwidths exercise the token accounting harder (buses can
/// carry several packets per slot, so partial blocking is frequent).
#[test]
fn kernels_agree_under_fat_tree_bandwidths() {
    let mut rng = StdRng::seed_from_u64(7002);
    for round in 0..15 {
        let net = random_network(
            rng.gen_range(2..6),
            rng.gen_range(6..16),
            BandwidthProfile::FatTree { base: 2, cap: 16 },
            &mut rng,
        );
        let m = wgen::zipf_read_mostly(&net, 8, 400, 0.9, 0.3, &mut rng);
        let out = ExtendedNibble::new().place(&net, &m).unwrap();
        let trace = expand_shuffled(&m, &mut rng);
        assert_kernels_agree(
            &net,
            &m,
            &out.placement,
            &trace,
            SimConfig::default(),
            &format!("fat round {round}"),
        );
    }
}

/// Write-heavy workloads drive the multicast path: update broadcasts
/// split at branch nodes and fragments inherit priorities and draw fresh
/// sequence numbers, which is where the key-ordered commit walk could
/// diverge from the sorted reference. The deeper tree keeps multicasts
/// alive across several levels of cached, compacted plans.
#[test]
fn kernels_agree_on_write_heavy_multicast() {
    let mut rng = StdRng::seed_from_u64(7003);
    for round in 0..15 {
        let net = balanced(3, 2, BandwidthProfile::Uniform);
        let m = wgen::shared_write(&net, rng.gen_range(2..6), rng.gen_range(2..8), 2);
        let out = ExtendedNibble::new().place(&net, &m).unwrap();
        let trace = expand_shuffled(&m, &mut rng);
        assert_kernels_agree(
            &net,
            &m,
            &out.placement,
            &trace,
            SimConfig::default(),
            &format!("write round {round}"),
        );
    }
    let mut rng = StdRng::seed_from_u64(9002);
    for round in 0..10 {
        let net = balanced(3, 3, BandwidthProfile::Uniform);
        let m = wgen::shared_write(&net, rng.gen_range(2..6), rng.gen_range(2..9), 3);
        let out = ExtendedNibble::new().place(&net, &m).unwrap();
        let trace = expand_shuffled(&m, &mut rng);
        assert_kernels_agree(
            &net,
            &m,
            &out.placement,
            &trace,
            SimConfig::default(),
            &format!("deep write round {round}"),
        );
    }
}

/// Hand-built split assignments and replicated placements (not produced
/// by the strategies) must also replay identically.
#[test]
fn kernels_agree_on_split_assignments() {
    let net = star(5, 100);
    let p = net.processors();
    let x = ObjectId(0);
    let mut m = AccessMatrix::new(1);
    m.add(p[0], x, 7, 2);
    m.add(p[1], x, 1, 1);
    let mut pl = hbn_load::Placement::new(1);
    pl.add_copy(x, p[2]);
    pl.add_copy(x, p[3]);
    pl.push_assignment(
        x,
        hbn_load::AssignmentEntry { processor: p[0], server: p[2], reads: 4, writes: 2 },
    );
    pl.push_assignment(
        x,
        hbn_load::AssignmentEntry { processor: p[0], server: p[3], reads: 3, writes: 0 },
    );
    pl.push_assignment(
        x,
        hbn_load::AssignmentEntry { processor: p[1], server: p[3], reads: 1, writes: 1 },
    );
    pl.validate(&net, &m).unwrap();
    assert_kernels_agree(&net, &m, &pl, &expand(&m), SimConfig::default(), "split assignments");
}

/// Injection-rate and slot-budget configurations flow through both
/// kernels identically, including the error paths.
#[test]
fn kernels_agree_on_configs_and_errors() {
    let net = star(4, 100);
    let p = net.processors();
    let mut m = AccessMatrix::new(1);
    m.add(p[0], ObjectId(0), 20, 0);
    let pl = hbn_load::Placement::single_leaf(&net, &m, |_| p[1]);
    let trace = expand(&m);
    for rate in [1usize, 3, 8] {
        let cfg = SimConfig { injection_rate: rate, max_slots: 1_000_000 };
        assert_kernels_agree(&net, &m, &pl, &trace, cfg, &format!("rate {rate}"));
    }
    let tight = SimConfig { injection_rate: 1, max_slots: 2 };
    assert_eq!(
        simulate(&net, &m, &pl, &trace, tight),
        simulate_reference(&net, &m, &pl, &trace, tight),
        "slot-budget error must match"
    );
    let empty = hbn_load::Placement::new(1);
    assert_eq!(
        simulate(&net, &m, &empty, &trace, SimConfig::default()),
        simulate_reference(&net, &m, &empty, &trace, SimConfig::default()),
        "unrouted error must match"
    );

    // An empty trace against a non-empty placement terminates at once.
    let res = simulate(&net, &m, &pl, &[], SimConfig::default());
    assert_eq!(res, simulate_reference(&net, &m, &pl, &[], SimConfig::default()));
    assert_eq!(res.unwrap().makespan, 0);

    // Budget exhausted mid-outage: the down root grants no tokens, so
    // nothing crosses before the budget runs out. Both kernels report the
    // budget error rather than deliver or hang.
    let mut overlay = CapacityOverlay::pristine(net.n_nodes()).with_outage_slots(1_000);
    overlay.set_down(net.root());
    let budget = SimConfig { injection_rate: 1, max_slots: 100 };
    let fast =
        simulate_with_overlay(&mut SimWorkspace::new(), &net, &m, &pl, &trace, budget, &overlay);
    assert_eq!(fast, Err(SimError::SlotBudgetExceeded), "overlay + budget");
    assert_eq!(fast, simulate_reference_overlay(&net, &m, &pl, &trace, budget, &overlay));
}

/// The two kernels agree under random capacity overlays too: degraded
/// buses, full outage windows, and combinations thereof. A pristine
/// overlay must reproduce the no-overlay result bit-for-bit in both
/// kernels.
#[test]
fn kernels_agree_under_capacity_overlays() {
    let mut rng = StdRng::seed_from_u64(7004);
    let mut ws = SimWorkspace::new();
    for round in 0..20 {
        let buses = rng.gen_range(2..6);
        let procs = rng.gen_range(4..12).max(buses * 2);
        let net =
            random_network(buses, procs, BandwidthProfile::FatTree { base: 2, cap: 16 }, &mut rng);
        let m = wgen::uniform(&net, rng.gen_range(1..5), 5, 3, 0.7, &mut rng);
        let out = ExtendedNibble::new().place(&net, &m).unwrap();
        let trace = expand_shuffled(&m, &mut rng);
        let cfg = SimConfig::default();

        // Random overlay: degrade some non-root buses, maybe take one
        // down for a bounded window.
        let mut overlay =
            CapacityOverlay::pristine(net.n_nodes()).with_outage_slots(rng.gen_range(1..40));
        for v in net.nodes().filter(|&v| net.is_bus(v) && v != net.root()) {
            if rng.gen_bool(0.4) {
                overlay.degrade(v, rng.gen_range(2..8));
            }
            if rng.gen_bool(0.2) {
                overlay.set_down(v);
            }
        }

        let fast = simulate_with_overlay(&mut ws, &net, &m, &out.placement, &trace, cfg, &overlay);
        let naive = simulate_reference_overlay(&net, &m, &out.placement, &trace, cfg, &overlay);
        assert_eq!(fast, naive, "overlay kernel divergence on round {round}");
        // Nothing is lost under an outage: the batch still drains.
        let res = fast.unwrap();
        assert_eq!(res.delivered_requests, trace.len() as u64, "lost traffic on round {round}");

        // Pristine overlay ≡ no overlay, in both kernels.
        let pristine = CapacityOverlay::pristine(net.n_nodes());
        assert_eq!(
            simulate_with_overlay(&mut ws, &net, &m, &out.placement, &trace, cfg, &pristine),
            simulate(&net, &m, &out.placement, &trace, cfg),
            "pristine overlay must be identity (fast, round {round})"
        );
        assert_eq!(
            simulate_reference_overlay(&net, &m, &out.placement, &trace, cfg, &pristine),
            simulate_reference(&net, &m, &out.placement, &trace, cfg),
            "pristine overlay must be identity (naive, round {round})"
        );
    }
}

/// An outage on the only route defers packets for exactly the outage
/// window: the makespan is inflated by it, but every request delivers.
#[test]
fn outage_defers_and_bounds_makespan() {
    let net = star(3, 100);
    let p = net.processors();
    let mut m = AccessMatrix::new(1);
    m.add(p[0], ObjectId(0), 1, 0);
    let pl = hbn_load::Placement::single_leaf(&net, &m, |_| p[1]);
    let trace = expand(&m);
    let cfg = SimConfig::default();
    let baseline = simulate(&net, &m, &pl, &trace, cfg).unwrap();
    assert_eq!(baseline.makespan, 2);

    // The star's only bus is the root; its outage stalls everything for
    // `outage_slots` slots, after which the packet crosses as usual.
    let mut overlay = CapacityOverlay::pristine(net.n_nodes()).with_outage_slots(10);
    overlay.set_down(net.root());
    let faulted = simulate(&net, &m, &pl, &trace, cfg).unwrap();
    assert_eq!(faulted, baseline, "overlay must not leak into the overlay-free entry point");
    let faulted =
        simulate_with_overlay(&mut SimWorkspace::new(), &net, &m, &pl, &trace, cfg, &overlay)
            .unwrap();
    assert_eq!(faulted.delivered_requests, 1, "no lost traffic under outage");
    assert_eq!(faulted.makespan, baseline.makespan + 10, "deferral is exactly the outage window");
    assert_eq!(
        simulate_reference_overlay(&net, &m, &pl, &trace, cfg, &overlay).unwrap(),
        faulted,
        "reference kernel must defer identically"
    );
}

/// A root outage on a heavily loaded star: a dense contention pattern
/// where every queue blocks at once and then drains together.
#[test]
fn kernels_agree_through_full_outage_drain() {
    let net = star(8, 2);
    let p = net.processors();
    let mut m = AccessMatrix::new(2);
    for (i, &proc) in p.iter().enumerate() {
        m.add(proc, ObjectId((i % 2) as u32), 6, 2);
    }
    let mut pl = hbn_load::Placement::new(2);
    pl.add_copy(ObjectId(0), p[0]);
    pl.add_copy(ObjectId(1), p[1]);
    pl.nearest_assignment(&net, &m);
    let mut overlay = CapacityOverlay::pristine(net.n_nodes()).with_outage_slots(25);
    overlay.set_down(net.root());
    let trace = expand(&m);
    let cfg = SimConfig::default();
    let fast =
        simulate_with_overlay(&mut SimWorkspace::new(), &net, &m, &pl, &trace, cfg, &overlay);
    assert_eq!(fast, simulate_reference_overlay(&net, &m, &pl, &trace, cfg, &overlay));
    assert_eq!(fast.unwrap().delivered_requests, trace.len() as u64, "no lost traffic");
}

/// A hand-built trace whose requester is a bus node (invalid by
/// construction) is rejected identically by both kernels.
#[test]
fn kernels_reject_non_leaf_requesters() {
    let net = star(3, 100);
    let p = net.processors();
    let mut m = AccessMatrix::new(1);
    m.add(p[0], ObjectId(0), 1, 0);
    let pl = hbn_load::Placement::single_leaf(&net, &m, |_| p[1]);
    let bad =
        vec![hbn_sim::Request { processor: net.root(), object: ObjectId(0), is_write: false }];
    let fast = simulate(&net, &m, &pl, &bad, SimConfig::default());
    let naive = simulate_reference(&net, &m, &pl, &bad, SimConfig::default());
    assert_eq!(fast, naive);
    assert!(matches!(fast, Err(hbn_sim::SimError::UnroutedRequest { .. })));

    // With several invalid requests, both kernels must report the same
    // (first, in trace order) offender — here the over-budget leaf
    // request at index 0, not the bus requester at index 1.
    let mixed = vec![
        hbn_sim::Request { processor: p[1], object: ObjectId(0), is_write: false },
        hbn_sim::Request { processor: net.root(), object: ObjectId(0), is_write: false },
    ];
    let fast = simulate(&net, &m, &pl, &mixed, SimConfig::default());
    let naive = simulate_reference(&net, &m, &pl, &mixed, SimConfig::default());
    assert_eq!(fast, naive);
    assert_eq!(
        fast,
        Err(hbn_sim::SimError::UnroutedRequest { processor: p[1], object: ObjectId(0) })
    );

    // An object id outside the matrix has no routing cell at all; both
    // kernels report it unroutable instead of panicking.
    let out_of_matrix =
        vec![hbn_sim::Request { processor: p[0], object: ObjectId(7), is_write: false }];
    let fast = simulate(&net, &m, &pl, &out_of_matrix, SimConfig::default());
    let naive = simulate_reference(&net, &m, &pl, &out_of_matrix, SimConfig::default());
    assert_eq!(fast, naive);
    assert_eq!(
        fast,
        Err(hbn_sim::SimError::UnroutedRequest { processor: p[0], object: ObjectId(7) })
    );
}

/// The router is keyed by the objects a trace names, not by the matrix's
/// object count: matrices spanning thousands of ids, each trace touching
/// a random few, route exactly like the oracle's table over every object.
/// One workspace serves every round, and the object counts shrink and
/// grow, so after each round a request for an object the previous round
/// traced is appended: outside the new matrix its slot holds a stale
/// generation stamp and must not route, inside it is over budget or has
/// no cell. Both kernels must report the same.
#[test]
fn router_keyed_by_traced_objects_matches_the_oracle() {
    let mut rng = StdRng::seed_from_u64(9101);
    let mut ws = SimWorkspace::new();
    let cfg = SimConfig::default();
    let mut previous: Vec<ObjectId> = Vec::new();
    for round in 0..36 {
        let buses = rng.gen_range(1..6);
        let procs = rng.gen_range(3..12).max(buses * 2);
        let net = random_network(buses, procs, BandwidthProfile::Uniform, &mut rng);
        let p = net.processors();
        let n_objects = [3000, 12, 4500, 1, 800, 2600][round % 6];
        let mut m = AccessMatrix::new(n_objects);
        for _ in 0..rng.gen_range(1..=5) {
            let x = ObjectId(rng.gen_range(0..n_objects as u32));
            for &q in p {
                if rng.gen_bool(0.5) {
                    m.add(q, x, rng.gen_range(0..4), rng.gen_range(0..3));
                }
            }
        }
        let placement = if round % 2 == 0 {
            // The paper's strategy: split assignments, copies on leaves.
            ExtendedNibble::new().place(&net, &m).unwrap().placement
        } else {
            // A snapshot: random copy sets with nearest-copy routing.
            let mut pl = Placement::new(n_objects);
            for x in m.support() {
                for _ in 0..rng.gen_range(1..4) {
                    pl.add_copy(x, p[rng.gen_range(0..p.len())]);
                }
            }
            pl.nearest_assignment(&net, &m);
            pl
        };
        let mut trace = expand_shuffled(&m, &mut rng);
        let label = format!("round {round} ({n_objects} objects, {} requests)", trace.len());
        let fast = simulate_with(&mut ws, &net, &m, &placement, &trace, cfg);
        assert_eq!(fast, simulate_reference(&net, &m, &placement, &trace, cfg), "{label}");
        assert_eq!(fast.unwrap().delivered_requests, trace.len() as u64, "{label}");
        for &stale in &previous {
            trace.push(hbn_sim::Request { processor: p[0], object: stale, is_write: false });
            let fast = simulate_with(&mut ws, &net, &m, &placement, &trace, cfg);
            let naive = simulate_reference(&net, &m, &placement, &trace, cfg);
            assert_eq!(fast, naive, "{label}: request for {stale}");
            assert!(matches!(fast, Err(SimError::UnroutedRequest { .. })), "{label}: {stale}");
            trace.pop();
        }
        previous = m.support().collect();
    }
}

/// A congested mid-size replay that keeps hundreds of update broadcasts
/// live at once. Their hop-groups queue behind unicasts and behind each
/// other at every switch, groups of one broadcast that share its bus
/// pool cross or block in plan order, and fat-tree switches pass several
/// entries per slot, so same-slot re-entry decides who crosses. One
/// workspace serves both rounds.
#[test]
fn kernels_agree_on_congested_broadcasts() {
    let mut ws = SimWorkspace::new();
    let profiles = [BandwidthProfile::Uniform, BandwidthProfile::FatTree { base: 2, cap: 16 }];
    for (round, profile) in profiles.into_iter().enumerate() {
        let net = balanced(4, 3, profile);
        let mut rng = StdRng::seed_from_u64(2207 + round as u64);
        let m = wgen::zipf_read_mostly(&net, 96, 3_000, 0.9, 0.2, &mut rng);
        let placement = ExtendedNibble::new().place(&net, &m).unwrap().placement;
        let trace = expand_shuffled(&m, &mut rng);
        let cfg = SimConfig::default();
        let fast = simulate_with(&mut ws, &net, &m, &placement, &trace, cfg).unwrap();
        let naive = simulate_reference(&net, &m, &placement, &trace, cfg).unwrap();
        assert_eq!(fast, naive, "congested broadcasts under {profile:?}");
        assert!(fast.delivered_updates > 1_000, "{profile:?}: too few updates to congest");
    }
}

/// On a caterpillar the far legs reach the copy's bus several hops after
/// the near legs, so a packet with an older priority reaches a switch
/// whose queue already holds younger packets: it sorts below the queue's
/// front and becomes the new head, or lands between waiting entries.
#[test]
fn kernels_agree_when_older_packets_reach_queues_of_younger_ones() {
    let net = caterpillar(7, 3, BandwidthProfile::Uniform);
    let root_legs: Vec<_> =
        net.children(net.root()).iter().copied().filter(|&v| net.is_processor(v)).collect();
    let mut m = AccessMatrix::new(2);
    for (i, &p) in net.processors().iter().enumerate() {
        m.add(p, ObjectId((i % 2) as u32), 5, 0);
    }
    let placement = hbn_load::Placement::single_leaf(&net, &m, |x| root_legs[x.index() % 2]);
    let mut rng = StdRng::seed_from_u64(2801);
    for rate in [1, 2, 4] {
        let cfg = SimConfig { injection_rate: rate, ..SimConfig::default() };
        for trace in [expand(&m), expand_shuffled(&m, &mut rng)] {
            assert_kernels_agree(&net, &m, &placement, &trace, cfg, &format!("rate {rate}"));
        }
    }
}

/// A fat-tree slot in which a bus-to-bus switch of bandwidth 2 crosses
/// and re-enters the walk while the processor switches it competes with
/// close on their first crossing and set their next heads aside, and the
/// packets that crossed start new queues at the next flush. Two copies
/// per object add hop-groups of update broadcasts to the same queues.
#[test]
fn kernels_agree_when_reentries_and_deferred_heads_share_a_slot() {
    let net = balanced(2, 3, BandwidthProfile::FatTree { base: 2, cap: 16 });
    let p = net.processors();
    let mut m = AccessMatrix::new(3);
    for (i, &q) in p.iter().enumerate() {
        m.add(q, ObjectId((i % 3) as u32), 4 + i as u64 % 3, u64::from(i % 2 == 0));
    }
    let mut placement = hbn_load::Placement::new(3);
    for x in 0..3u32 {
        placement.add_copy(ObjectId(x), p[p.len() - 1 - x as usize]);
        placement.add_copy(ObjectId(x), p[x as usize * 3]);
    }
    placement.nearest_assignment(&net, &m);
    let mut rng = StdRng::seed_from_u64(2802);
    for rate in [1, 2, 3] {
        let cfg = SimConfig { injection_rate: rate, ..SimConfig::default() };
        for trace in [expand(&m), expand_shuffled(&m, &mut rng)] {
            assert_kernels_agree(&net, &m, &placement, &trace, cfg, &format!("rate {rate}"));
        }
    }
}

/// Copy sets of `copies` random processors (duplicates merge) for every
/// requested object, with nearest-copy assignment.
fn random_leaf_placement(
    net: &Network,
    m: &AccessMatrix,
    copies: std::ops::RangeInclusive<usize>,
    seed: u64,
) -> Placement {
    let mut rng = StdRng::seed_from_u64(seed);
    let procs = net.processors();
    let mut placement = Placement::new(m.n_objects());
    for x in m.support() {
        for _ in 0..rng.gen_range(copies.clone()) {
            placement.add_copy(x, procs[rng.gen_range(0..procs.len())]);
        }
    }
    placement.nearest_assignment(net, m);
    placement
}

/// Assert that replaying all of `m` crosses every edge exactly as often
/// as the load model charges it.
fn assert_crossings_match_loads(net: &Network, m: &AccessMatrix, placement: &Placement) {
    let sim = simulate(net, m, placement, &expand(m), SimConfig::default()).unwrap();
    let loads = LoadMap::from_placement(net, m, placement);
    for e in net.edges() {
        assert_eq!(sim.edge_crossings[e.index()], loads.edge_load(e), "edge {e}");
    }
}

/// Wide supports on `balanced(4,3)`: every object has at least 22
/// requesters and is written, and its writes broadcast over 2–4 copies.
#[test]
fn crossings_match_the_load_model_on_wide_supports() {
    let net = balanced(4, 3, BandwidthProfile::Uniform);
    let m = workload_from_seed(&net, 6, 3, 2, 0.6, 4242);
    for x in m.objects() {
        assert!(m.object_entries(x).len() >= 22, "object {x}: too few requesters");
        assert!(m.write_contention(x) > 0, "object {x} is never written");
    }
    let placement = random_leaf_placement(&net, &m, 2..=4, 4243);
    assert!(m.objects().all(|x| placement.copies(x).len() >= 2));
    assert_crossings_match_loads(&net, &m, &placement);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Small random trees with dense workloads and random leaf copy sets
    /// of 1–4 processors: the replay's crossings are the accounting's
    /// loads, edge by edge.
    #[test]
    fn crossings_match_the_load_model(
        net in arb_network(5, 12),
        objects in 1usize..5,
        wl_seed in any::<u64>(),
        copy_seed in any::<u64>(),
    ) {
        let m = workload_from_seed(&net, objects, 5, 4, 0.8, wl_seed);
        let placement = random_leaf_placement(&net, &m, 1..=4, copy_seed);
        assert_crossings_match_loads(&net, &m, &placement);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Proptest-generated batches: random tree, uniform or fat-tree
    /// bandwidths, random workload, random injection rate, random overlay
    /// or none — the kernel tracks the oracle bit for bit.
    #[test]
    fn kernel_matches_reference(
        buses in 1usize..6,
        procs in 3usize..14,
        objects in 1usize..5,
        net_seed in any::<u64>(),
        wl_seed in any::<u64>(),
        rate in 1usize..6,
        fat in any::<bool>(),
        fault in any::<bool>(),
        outage in 1u64..30,
    ) {
        let mut rng = StdRng::seed_from_u64(net_seed);
        let profile = if fat {
            BandwidthProfile::FatTree { base: 2, cap: 16 }
        } else {
            BandwidthProfile::Uniform
        };
        let net = random_network(buses, procs.max(buses * 2), profile, &mut rng);
        let m = workload_from_seed(&net, objects, 6, 3, 0.7, wl_seed);
        let out = ExtendedNibble::new().place(&net, &m).unwrap();
        let trace = expand(&m);
        let cfg = SimConfig { injection_rate: rate, ..SimConfig::default() };
        let mut ws = SimWorkspace::new();
        let (fast, naive) = if fault {
            let mut o = CapacityOverlay::pristine(net.n_nodes()).with_outage_slots(outage);
            let mut orng = StdRng::seed_from_u64(wl_seed ^ 0xfa17);
            for v in net.nodes().filter(|&v| net.is_bus(v) && v != net.root()) {
                if orng.gen_bool(0.3) {
                    o.degrade(v, orng.gen_range(2..6));
                }
                if orng.gen_bool(0.2) {
                    o.set_down(v);
                }
            }
            (
                simulate_with_overlay(&mut ws, &net, &m, &out.placement, &trace, cfg, &o),
                simulate_reference_overlay(&net, &m, &out.placement, &trace, cfg, &o),
            )
        } else {
            (
                simulate_with(&mut ws, &net, &m, &out.placement, &trace, cfg),
                simulate_reference(&net, &m, &out.placement, &trace, cfg),
            )
        };
        prop_assert_eq!(fast, naive);
    }
}
