//! Fault-injection robustness: deterministic fault traces, no lost
//! traffic under a mid-run root-adjacent bus outage, repair traffic
//! charged exactly like migration, and bit-parity of the empty plan.

use hbn_core::PlacementKernel;
use hbn_dynamic::OnlineRequest;
use hbn_load::{LoadMap, NearestCopies};
use hbn_scenario::{
    charged_migration, run_scenario, run_scenario_with, DynamicStrategy, ExecutionConfig,
    FaultPlan, FrozenStatic, HybridReseed, PeriodicStatic, ScenarioSpec, Session, Strategy,
    StrategyKind, ThresholdSwitch, TopologyFamily,
};
use hbn_testutil::family_schedules;
use hbn_topology::{Network, NodeId};
use hbn_workload::{AccessMatrix, ObjectId};

const D: u64 = 2;

/// The hotspot-migration scenario of the acceptance criterion: a
/// warm-up phase plus a migrating-hotspot phase on a three-level
/// balanced tree, 8 epochs of 40 requests.
fn hotspot_spec(seed: u64) -> ScenarioSpec {
    let (_, schedule) = family_schedules(8, 80, 240).swap_remove(1);
    let topology = TopologyFamily::Balanced { branching: 3, height: 2 };
    ScenarioSpec {
        epoch_requests: 40,
        ..ScenarioSpec::new("hotspot-outage", topology, schedule, D, seed)
    }
}

/// A root-adjacent bus of the spec's topology (the outage target the
/// acceptance criterion names).
fn root_adjacent_bus(net: &Network) -> NodeId {
    *net.children(net.root()).iter().find(|&&v| net.is_bus(v)).expect("root has a bus child")
}

fn all_builtin_strategies() -> Vec<StrategyKind> {
    vec![
        StrategyKind::Dynamic,
        StrategyKind::PeriodicStatic { replace_every_epochs: 0 },
        StrategyKind::PeriodicStatic { replace_every_epochs: 2 },
        StrategyKind::Hybrid { reseed_every_epochs: 2 },
    ]
}

/// The headline acceptance test: a mid-run outage of a root-adjacent
/// bus under *every* built-in strategy. The run completes, no request
/// is lost, migration traffic is exactly `replications × D` and repair
/// traffic is exactly `repairs × D`, and the outage epochs are marked.
#[test]
fn mid_run_outage_completes_under_every_strategy_with_no_lost_requests() {
    let net = hotspot_spec(41).topology.build();
    let bus = root_adjacent_bus(&net);
    let plan = FaultPlan::single_outage(bus, 3, 5);

    let mut reports = Vec::new();
    for strategy in all_builtin_strategies() {
        let spec = ScenarioSpec { strategy, faults: plan.clone(), ..hotspot_spec(41) };
        reports.push(run_scenario(&spec));
    }
    // The trait-only strategies go through the same acceptance bar.
    let spec = ScenarioSpec { faults: plan.clone(), ..hotspot_spec(41) };
    reports
        .push(run_scenario_with(&spec, |net, exec, n| Box::new(FrozenStatic::new(net, exec, n))));
    reports.push(run_scenario_with(&spec, |net, exec, n| {
        Box::new(ThresholdSwitch::new(net, exec, n, 0.3, 2))
    }));

    for report in &reports {
        // No lost traffic: every scheduled request is served and replayed.
        assert_eq!(report.traffic.requests, 320, "strategy {}", report.strategy);
        assert_eq!(report.stats.reads + report.stats.writes, 320, "strategy {}", report.strategy);
        // Movement is charged at exactly D per crossed edge, repairs
        // exactly like migration.
        assert_eq!(report.traffic.migration_traffic, report.traffic.replications * D);
        assert_eq!(report.traffic.repair_traffic, report.traffic.repairs * D);
        assert!(report.traffic.repairs <= report.traffic.replications);
        // The outage epochs (3..5) are marked, all others pristine.
        assert_eq!(report.epochs.len(), 8);
        for (e, epoch) in report.epochs.iter().enumerate() {
            let expect_down = usize::from((3..5).contains(&e));
            assert_eq!(epoch.buses_down, expect_down, "epoch {e} of {}", report.strategy);
            assert_eq!(epoch.buses_degraded, 0);
        }
        // The outage defers (never drops) packets: an epoch whose trace
        // crosses the down bus pays at least the outage window.
        let worst_outage_makespan = report.epochs[3..5].iter().map(|e| e.makespan).max().unwrap();
        assert!(
            worst_outage_makespan >= plan.outage_slots,
            "strategy {}: outage makespan {} < window {}",
            report.strategy,
            worst_outage_makespan,
            plan.outage_slots
        );
    }
}

/// `frozen-static` equals `periodic-static(inf)` on fault-free runs only:
/// a changed outage set makes every `PeriodicStatic` re-place around the
/// dead subtree, whatever its period, while `FrozenStatic` only heals.
#[test]
fn outage_refit_separates_periodic_static_inf_from_frozen_static() {
    let net = hotspot_spec(41).topology.build();
    let plan = FaultPlan::single_outage(root_adjacent_bus(&net), 3, 5);
    let spec = ScenarioSpec { faults: plan, ..hotspot_spec(41) };
    let inf = run_scenario(&ScenarioSpec {
        strategy: StrategyKind::PeriodicStatic { replace_every_epochs: 0 },
        ..spec.clone()
    });
    let frozen = run_scenario_with(&spec, |net, exec, n| Box::new(FrozenStatic::new(net, exec, n)));
    assert_eq!(inf.strategy, "periodic-static(inf)");
    assert_eq!(frozen.strategy, "frozen-static");
    assert_eq!(inf.epochs[..3], frozen.epochs[..3], "equal until the outage");
    assert!(inf.epochs[3].traffic.replications > 0, "the outage epoch re-places");
    assert_eq!(frozen.epochs[3].traffic.replications, 0, "frozen only heals");
    for report in [&inf, &frozen] {
        assert_eq!(report.traffic.requests, 320, "strategy {}", report.strategy);
    }
}

/// Same seed, same plan ⇒ identical fault trace and identical report —
/// both for hand-written and for seeded random plans.
#[test]
fn fault_runs_are_deterministic() {
    let net = hotspot_spec(7).topology.build();

    let seeded_a = FaultPlan::seeded(&net, 99, 8);
    let seeded_b = FaultPlan::seeded(&net, 99, 8);
    assert_eq!(seeded_a, seeded_b, "seeded plans are a pure function of (net, seed)");

    for plan in [FaultPlan::single_outage(root_adjacent_bus(&net), 2, 4), seeded_a] {
        let spec = ScenarioSpec { faults: plan, ..hotspot_spec(7) };
        let a = run_scenario(&spec);
        let b = run_scenario(&spec);
        assert_eq!(a, b);
        assert!(a.epochs.iter().any(|e| e.buses_down + e.buses_degraded > 0));
    }
}

/// The empty plan is bit-for-bit inert, and so is a plan whose events
/// all lie beyond the end of the run.
#[test]
fn empty_and_out_of_range_plans_are_bit_for_bit_inert() {
    let baseline = run_scenario(&hotspot_spec(13));
    assert_eq!(baseline.recovery_epochs, None, "no fault, no recovery time");

    let net = hotspot_spec(13).topology.build();
    let bus = root_adjacent_bus(&net);
    for plan in [FaultPlan::none(), FaultPlan::single_outage(bus, 100, 102)] {
        let report = run_scenario(&ScenarioSpec { faults: plan, ..hotspot_spec(13) });
        assert_eq!(report, baseline);
    }
}

/// Degradation (capacity divided, bus still up) inflates the replayed
/// makespan of the degraded epochs but strands nothing: no repairs, no
/// down marks, and the run still serves everything.
#[test]
fn degradation_slows_but_strands_nothing() {
    let net = hotspot_spec(17).topology.build();
    let bus = root_adjacent_bus(&net);
    let plan = FaultPlan::default().degrade(2, bus, 4).restore(6, bus);
    let report = run_scenario(&ScenarioSpec { faults: plan, ..hotspot_spec(17) });
    assert_eq!(report.traffic.requests, 320);
    assert_eq!(report.traffic.repairs, 0, "degradation is not an outage: nothing to heal");
    for (e, epoch) in report.epochs.iter().enumerate() {
        assert_eq!(epoch.buses_down, 0);
        assert_eq!(epoch.buses_degraded, usize::from((2..6).contains(&e)));
    }
    // Congestion is normalized against *effective* capacity, so the
    // degraded epochs report elevated online congestion whenever the
    // degraded bus carries load.
    let clean = run_scenario(&hotspot_spec(17));
    for e in 2..6 {
        assert!(
            report.epochs[e].online_congestion >= clean.epochs[e].online_congestion,
            "epoch {e}: degraded congestion must not undercut the clean run"
        );
    }
}

/// Deterministic repair micro-test: drive all traffic from processors
/// under one root-adjacent bus so the dynamic strategy's copy sets live
/// wholly inside that subtree, then take the bus down. Self-healing
/// must evacuate every stranded copy set to a live harbor, charging
/// exactly `repairs × D` — and afterwards no copy set touches a
/// stranded node.
#[test]
fn dynamic_self_healing_evacuates_stranded_copy_sets() {
    let spec_net = TopologyFamily::Balanced { branching: 3, height: 2 }.build();
    let bus = root_adjacent_bus(&spec_net);
    let stranded: Vec<NodeId> =
        spec_net.processors().iter().copied().filter(|&p| spec_net.is_ancestor(bus, p)).collect();
    assert!(!stranded.is_empty());

    let (_, schedule) = family_schedules(4, 40, 40).swap_remove(0);
    let topology = TopologyFamily::Balanced { branching: 3, height: 2 };
    let spec = ScenarioSpec {
        faults: FaultPlan::default().down(2, bus),
        ..ScenarioSpec::new("heal-micro", topology, schedule, D, 3)
    };

    let mut session = Session::new(&spec);
    // Two pushed epochs of subtree-only traffic: a write pins each
    // object's copy set inside the doomed subtree, reads keep it there.
    for round in 0..2usize {
        let batch: Vec<OnlineRequest> = (0..session.max_objects())
            .map(|x| OnlineRequest {
                processor: stranded[x % stranded.len()],
                object: ObjectId(x as u32),
                is_write: round == 0,
            })
            .collect();
        session.push_epoch(&batch).unwrap();
    }
    for x in 0..session.max_objects() {
        let copies = session.strategy().copy_set(ObjectId(x as u32));
        assert!(
            copies.iter().all(|&v| spec_net.is_ancestor(bus, v) || v == bus),
            "object {x}: copy set {copies:?} must sit inside the doomed subtree"
        );
    }

    // Epoch 2: the bus goes down; begin_epoch heals before serving.
    let before = session.strategy().stats();
    let batch: Vec<OnlineRequest> = (0..session.max_objects())
        .map(|x| OnlineRequest {
            processor: spec_net.processors()[0],
            object: ObjectId(x as u32),
            is_write: false,
        })
        .collect();
    let summary = session.push_epoch(&batch).unwrap();
    let after = session.strategy().stats();

    assert!(after.repairs > before.repairs, "wholly stranded sets must be repaired");
    assert_eq!(summary.traffic.repairs, after.repairs - before.repairs);
    assert_eq!(summary.traffic.repair_traffic, summary.traffic.repairs * D);
    assert_eq!(summary.buses_down, 1);
    let view = spec.faults.fault_view(&spec_net, 2);
    for x in 0..session.max_objects() {
        let copies = session.strategy().copy_set(ObjectId(x as u32));
        assert!(!copies.is_empty());
        assert!(
            copies.iter().all(|&v| !view.stranded[v.index()]),
            "object {x}: healed copy set {copies:?} still touches a stranded node"
        );
    }
}

/// The same micro-scenario under a periodically re-placing static
/// strategy: the heal path re-roots wholly stranded placements onto a
/// live harbor processor, charged as repairs.
#[test]
fn static_self_healing_reroots_stranded_placements() {
    let spec_net = TopologyFamily::Balanced { branching: 3, height: 2 }.build();
    let bus = root_adjacent_bus(&spec_net);
    let stranded: Vec<NodeId> =
        spec_net.processors().iter().copied().filter(|&p| spec_net.is_ancestor(bus, p)).collect();

    let (_, schedule) = family_schedules(4, 40, 40).swap_remove(0);
    let topology = TopologyFamily::Balanced { branching: 3, height: 2 };
    let spec = ScenarioSpec {
        strategy: StrategyKind::PeriodicStatic { replace_every_epochs: 1 },
        faults: FaultPlan::default().down(2, bus),
        ..ScenarioSpec::new("heal-static-micro", topology, schedule, D, 3)
    };

    let mut session = Session::new(&spec);
    // Two epochs of subtree-only traffic; every boundary re-fits the
    // placement from the observed aggregate, pulling it into the subtree.
    for _ in 0..2 {
        let batch: Vec<OnlineRequest> = (0..session.max_objects())
            .map(|x| OnlineRequest {
                processor: stranded[x % stranded.len()],
                object: ObjectId(x as u32),
                is_write: false,
            })
            .collect();
        session.push_epoch(&batch).unwrap();
    }

    let before = session.strategy().stats();
    let batch: Vec<OnlineRequest> = (0..session.max_objects())
        .map(|x| OnlineRequest {
            processor: spec_net.processors()[0],
            object: ObjectId(x as u32),
            is_write: false,
        })
        .collect();
    let summary = session.push_epoch(&batch).unwrap();
    let after = session.strategy().stats();

    assert!(after.repairs > before.repairs);
    assert_eq!(summary.traffic.repair_traffic, summary.traffic.repairs * D);
    let view = spec.faults.fault_view(&spec_net, 2);
    for x in 0..session.max_objects() {
        let copies = session.strategy().copy_set(ObjectId(x as u32));
        assert!(!copies.is_empty());
        assert!(copies.iter().all(|&v| !view.stranded[v.index()]));
    }
}

/// Recovery time is measured from the last faulty epoch: once the
/// outage clears and online congestion drops back to the pre-fault
/// baseline, `recovery_epochs` records the distance.
#[test]
fn recovery_time_is_reported_after_the_outage_clears() {
    let net = hotspot_spec(41).topology.build();
    let bus = root_adjacent_bus(&net);
    // A short early outage with a long pristine tail: the run has ample
    // room to settle back to baseline.
    let plan = FaultPlan::single_outage(bus, 2, 3);
    let report = run_scenario(&ScenarioSpec { faults: plan, ..hotspot_spec(41) });
    if let Some(k) = report.recovery_epochs {
        let baseline = report.epochs[..2].iter().map(|e| e.online_congestion).max().unwrap();
        let recovered = &report.epochs[2 + k as usize];
        assert!(recovered.buses_down == 0);
        assert!(recovered.online_congestion <= baseline);
    }
    // Determinism of the field itself.
    let again = run_scenario(&ScenarioSpec {
        faults: FaultPlan::single_outage(bus, 2, 3),
        ..hotspot_spec(41)
    });
    assert_eq!(report.recovery_epochs, again.recovery_epochs);
}

// --- the outage rule inside re-placement and re-seeding ---------------

/// The outage micro-instance driven strategy by strategy: a
/// root-adjacent bus of `balanced(3,2)` goes down at epoch 1. In epoch 0
/// object 0 is read from one processor under that bus and one outside
/// it, and object 1 only from under it. Returns the network, the bus
/// and epoch 0's trace.
fn outage_instance() -> (Network, NodeId, Vec<OnlineRequest>) {
    let net = TopologyFamily::Balanced { branching: 3, height: 2 }.build();
    let bus = root_adjacent_bus(&net);
    let (doomed, live): (Vec<NodeId>, Vec<NodeId>) =
        net.processors().iter().partition(|&&p| net.is_ancestor(bus, p));
    let read = |processor, x| OnlineRequest { processor, object: ObjectId(x), is_write: false };
    let trace =
        (0..12).flat_map(|_| [read(doomed[0], 0), read(live[0], 0), read(doomed[1], 1)]).collect();
    (net, bus, trace)
}

/// The access matrix of `trace` over `n_objects` objects.
fn matrix_of(n_objects: usize, trace: &[OnlineRequest]) -> AccessMatrix {
    let mut matrix = AccessMatrix::new(n_objects);
    for r in trace {
        matrix.add(r.processor, r.object, u64::from(!r.is_write), u64::from(r.is_write));
    }
    matrix
}

/// The total load `strategy` has charged so far.
fn charged_total(net: &Network, strategy: &dyn Strategy) -> u64 {
    let mut loads = LoadMap::zero(net);
    strategy.add_loads_to(&mut loads);
    loads.total()
}

/// Copies of `from` that `to` does not keep.
fn dropped(from: &[NodeId], to: &[NodeId]) -> u64 {
    from.iter().filter(|v| !to.contains(v)).count() as u64
}

fn sorted(nodes: &[NodeId]) -> Vec<NodeId> {
    let mut nodes = nodes.to_vec();
    nodes.sort_unstable();
    nodes
}

/// A hybrid re-seed inside an outage seeds only the live part of a
/// stranded nibble set, and an object whose nibble set is stranded
/// wholly keeps what the heal left it, exactly as a policy that never
/// re-seeds does. Collapses and replications match the transfers
/// charged.
#[test]
fn hybrid_reseed_under_an_outage_seeds_only_the_live_part() {
    let (net, bus, trace) = outage_instance();
    let exec = ExecutionConfig { threshold: D, ..ExecutionConfig::default() };
    let plan = FaultPlan::default().down(1, bus);
    let observed = matrix_of(2, &trace);
    let mut hybrid = HybridReseed::new(&net, &exec, 2, 1);
    let mut dynamic = DynamicStrategy::new(&net, &exec, 2);
    for strategy in [&mut hybrid as &mut dyn Strategy, &mut dynamic] {
        strategy.begin_epoch(&net, 0, &AccessMatrix::new(2), &plan.fault_view(&net, 0));
        strategy.serve_batch(&net, &trace, &observed);
    }

    let view = plan.fault_view(&net, 1);
    let stranded = |v: &NodeId| view.stranded[v.index()];
    let live_part = |nodes: &[NodeId]| -> Vec<NodeId> {
        nodes.iter().copied().filter(|v| !stranded(v)).collect()
    };
    let held: Vec<Vec<NodeId>> = (0..2).map(|x| hybrid.copy_set(ObjectId(x)).to_vec()).collect();
    let mut kernel = PlacementKernel::new(&net);
    let seeds: Vec<Vec<NodeId>> =
        (0..2).map(|x| kernel.nibble_copies(&net, &observed, ObjectId(x)).to_vec()).collect();
    for nodes in [&held[0], &seeds[0]] {
        assert!(nodes.iter().any(stranded) && !nodes.iter().all(stranded), "{nodes:?}");
    }
    for nodes in [&held[1], &seeds[1]] {
        assert!(nodes.iter().all(stranded), "{nodes:?}");
    }

    let (before, charged_before) = (hybrid.stats(), charged_total(&net, &hybrid));
    hybrid.begin_epoch(&net, 1, &observed, &view);
    dynamic.begin_epoch(&net, 1, &observed, &view);
    let live_seed = live_part(&seeds[0]);
    assert_eq!(sorted(hybrid.copy_set(ObjectId(0))), sorted(&live_seed));
    let harbor = dynamic.copy_set(ObjectId(1));
    assert_eq!(hybrid.copy_set(ObjectId(1)), harbor, "a wholly stranded seed is skipped");
    assert!(!harbor.iter().any(stranded));

    // The heal drops object 0's stranded copies and re-homes object 1;
    // the re-seed then moves object 0 from its healed set to its live seed.
    let healed = live_part(&held[0]);
    let mut loads = LoadMap::zero(&net);
    let mut sweep = NearestCopies::new(net.n_nodes());
    let repairs = charged_migration(&net, &held[1], harbor, D, &mut loads, &mut sweep);
    let seeding = charged_migration(&net, &healed, &live_seed, D, &mut loads, &mut sweep);
    let after = hybrid.stats();
    assert!(repairs > 0);
    assert_eq!(after.repairs - before.repairs, repairs);
    assert_eq!(after.replications - before.replications, repairs + seeding);
    assert_eq!(charged_total(&net, &hybrid) - charged_before, (repairs + seeding) * D);
    assert_eq!(
        after.collapses - before.collapses,
        dropped(&held[0], &healed) + dropped(&held[1], harbor) + dropped(&healed, &live_seed)
    );
}

/// `PeriodicStatic`'s outage re-placement lands no copy on a stranded
/// node: the fresh placement keeps its live copies, and a set stranded
/// wholly moves to the live processor nearest it.
#[test]
fn periodic_static_outage_replacement_avoids_stranded_nodes() {
    let (net, bus, trace) = outage_instance();
    let exec = ExecutionConfig { threshold: D, ..ExecutionConfig::default() };
    let plan = FaultPlan::default().down(1, bus);
    let observed = matrix_of(2, &trace);
    // Never on schedule: only the outage re-places.
    let mut periodic = PeriodicStatic::new(&net, &exec, 2, 0);
    periodic.begin_epoch(&net, 0, &AccessMatrix::new(2), &plan.fault_view(&net, 0));
    periodic.serve_batch(&net, &trace, &observed);

    let view = plan.fault_view(&net, 1);
    let stranded = |v: &NodeId| view.stranded[v.index()];
    let fresh = PlacementKernel::new(&net).place(&net, &observed).unwrap();
    let (partly, wholly) = (fresh.copies(ObjectId(0)), fresh.copies(ObjectId(1)));
    assert!(partly.iter().any(stranded) && !partly.iter().all(stranded), "{partly:?}");
    assert!(wholly.iter().all(stranded), "{wholly:?}");

    let (before, charged_before) = (periodic.stats(), charged_total(&net, &periodic));
    periodic.begin_epoch(&net, 1, &observed, &view);
    for x in 0..2 {
        let copies = periodic.copy_set(ObjectId(x));
        assert!(!copies.is_empty() && !copies.iter().any(stranded), "object {x}: {copies:?}");
    }
    let live: Vec<NodeId> = partly.iter().copied().filter(|v| !stranded(v)).collect();
    assert_eq!(periodic.copy_set(ObjectId(0)), &live[..]);
    let nearest = net
        .processors()
        .iter()
        .copied()
        .filter(|p| !stranded(p))
        .min_by_key(|&p| (net.distance(wholly[0], p), p.0))
        .unwrap();
    assert_eq!(periodic.copy_set(ObjectId(1)), &[nearest]);
    let after = periodic.stats();
    assert!(after.replications > before.replications);
    assert_eq!(
        charged_total(&net, &periodic) - charged_before,
        (after.replications - before.replications) * D
    );
}
