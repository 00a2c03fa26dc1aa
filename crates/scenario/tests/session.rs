//! Session-driver semantics: mid-run strategy swaps, checkpoint/restore
//! exactness, externally pushed epochs and per-tenant attribution.

use hbn_dynamic::online_trace;
use hbn_load::LoadMap;
use hbn_scenario::{
    periodic_static_from, run_scenario_with, ReplayKernel, ScenarioReport, ScenarioSpec, Session,
    StrategyKind, TopologyFamily,
};
use hbn_workload::phases::{full_tour, PhaseKind, PhaseSchedule, PhaseSpec};

fn base_spec(seed: u64) -> ScenarioSpec {
    let topology = TopologyFamily::Balanced { branching: 3, height: 2 };
    ScenarioSpec {
        epoch_requests: 40,
        ..ScenarioSpec::new("session", topology, full_tour(8, 120), 2, seed)
    }
}

fn assert_reports_equal_modulo_label(a: &ScenarioReport, b: &ScenarioReport) {
    let mut a = a.clone();
    let mut b = b.clone();
    a.strategy = String::new();
    b.strategy = String::new();
    assert_eq!(a, b);
}

/// Run `spec` dynamically for `k` epochs, then swap to a periodic-static
/// policy whose first firing is pinned at `k`.
fn run_with_swap_at(spec: &ScenarioSpec, k: usize) -> ScenarioReport {
    let mut session = Session::new(spec);
    for _ in 0..k {
        session.step_epoch().unwrap().expect("schedule exhausted before the swap epoch");
    }
    let successor =
        periodic_static_from(session.network(), session.execution(), session.max_objects(), k, 0);
    let retired = session.swap_strategy(successor);
    assert_eq!(retired.label(), "dynamic");
    while session.step_epoch().unwrap().is_some() {}
    session.into_report()
}

/// The swap identity: serving dynamically through epoch `k−1` and then
/// swapping to a periodic-static policy that fires at `k` is *exactly* the
/// `ThresholdSwitch` policy forced to switch at `k` (write bound 0).
/// Both paths charge the same migration from the same dynamic copy sets
/// and serve the same static placement afterwards — bit for bit.
#[test]
fn dynamic_to_static_swap_equals_forced_threshold_switch() {
    let k = 4;
    let spec = base_spec(19);
    let swapped = run_with_swap_at(&spec, k);
    let switched = run_scenario_with(&spec, |net, exec, n| {
        StrategyKind::ThresholdSwitch { write_bound: 0.0, min_epochs: k }.build(net, exec, n)
    });
    assert!(
        switched.stats.replications
            > swapped.epochs[..k].iter().map(|e| e.traffic.replications).sum::<u64>()
            || switched.stats.replications > 0,
        "the forced switch must actually migrate"
    );
    assert_reports_equal_modulo_label(&swapped, &switched);
}

/// The swap must also hold under the reference replay kernel (the
/// simulator side is orthogonal to the strategy side).
#[test]
fn swap_identity_holds_under_reference_replay() {
    let k = 3;
    let mut spec = base_spec(7);
    spec.exec.replay = ReplayKernel::Reference;
    let swapped = run_with_swap_at(&spec, k);
    let switched = run_scenario_with(&spec, |net, exec, n| {
        StrategyKind::ThresholdSwitch { write_bound: 0.0, min_epochs: k }.build(net, exec, n)
    });
    assert_reports_equal_modulo_label(&swapped, &switched);
}

/// Swapping never loses accounting: the retired strategy's requests and
/// events stay in the session's cumulative report.
#[test]
fn swap_keeps_cumulative_accounting_unbroken() {
    let report = run_with_swap_at(&base_spec(3), 5);
    assert_eq!(report.traffic.requests, 720, "every scheduled request is accounted");
    assert_eq!(report.stats.reads + report.stats.writes, 720);
    assert_eq!(
        report.traffic.replications, report.stats.replications,
        "epoch deltas must sum to the merged strategy counters across the swap"
    );
    // The dynamic prefix replicated (warm-up reads), and the swap's
    // first firing migrated: both kinds of movement are present.
    assert!(report.stats.replications > 0);
}

/// Checkpoint/restore is exact: a run continued from a mid-run
/// checkpoint reproduces the unbroken run bit for bit — for every
/// built-in strategy kind.
#[test]
fn restored_session_reproduces_unbroken_run() {
    for strategy in [
        StrategyKind::Dynamic,
        StrategyKind::PeriodicStatic { replace_every_epochs: 2 },
        StrategyKind::Hybrid { reseed_every_epochs: 2 },
    ] {
        let mut spec = base_spec(23);
        spec.strategy = strategy;

        let mut unbroken = Session::new(&spec);
        for _ in 0..5 {
            unbroken.step_epoch().unwrap().unwrap();
        }
        let checkpoint = unbroken.checkpoint();
        while unbroken.step_epoch().unwrap().is_some() {}
        let expected = unbroken.into_report();

        let mut resumed = Session::restore(checkpoint).expect("in-memory checkpoint restores");
        assert_eq!(resumed.epoch_index(), 5);
        while resumed.step_epoch().unwrap().is_some() {}
        assert_eq!(resumed.into_report(), expected, "strategy {strategy}");
    }
}

/// Checkpoints are independent snapshots: the source session can keep
/// running (and diverge via a swap) without affecting the checkpoint.
#[test]
fn checkpoint_is_isolated_from_the_live_session() {
    let spec = base_spec(29);
    let mut a = Session::new(&spec);
    for _ in 0..4 {
        a.step_epoch().unwrap().unwrap();
    }
    let checkpoint = a.checkpoint();
    // Drive the original on — with a swap, so its state diverges hard.
    let successor = periodic_static_from(a.network(), a.execution(), a.max_objects(), 4, 0);
    a.swap_strategy(successor);
    while a.step_epoch().unwrap().is_some() {}
    let swapped_report = a.into_report();

    // The restored session continues the *dynamic* run.
    let mut b = Session::restore(checkpoint).expect("in-memory checkpoint restores");
    while b.step_epoch().unwrap().is_some() {}
    let resumed_report = b.into_report();
    assert_eq!(resumed_report.strategy, "dynamic");
    assert_ne!(resumed_report, swapped_report);

    // And equals a from-scratch dynamic run of the same spec.
    let unbroken = {
        let mut s = Session::new(&spec);
        while s.step_epoch().unwrap().is_some() {}
        s.into_report()
    };
    assert_eq!(resumed_report, unbroken);
}

/// A checkpoint taken after a swap restores the successor policy (the
/// strategy state snapshot goes through `Strategy::snapshot`).
#[test]
fn checkpoint_after_swap_restores_the_successor() {
    let spec = base_spec(31);
    let k = 4;
    let mut unbroken = Session::new(&spec);
    for _ in 0..k {
        unbroken.step_epoch().unwrap().unwrap();
    }
    let successor = periodic_static_from(
        unbroken.network(),
        unbroken.execution(),
        unbroken.max_objects(),
        k,
        0,
    );
    unbroken.swap_strategy(successor);
    // One post-swap epoch (the firing one), then checkpoint.
    unbroken.step_epoch().unwrap().unwrap();
    let checkpoint = unbroken.checkpoint();
    while unbroken.step_epoch().unwrap().is_some() {}
    let expected = unbroken.into_report();

    let mut resumed = Session::restore(checkpoint).expect("in-memory checkpoint restores");
    while resumed.step_epoch().unwrap().is_some() {}
    assert_eq!(resumed.into_report(), expected);
}

/// Pushed epochs go through the full pipeline: same serving, replay and
/// accounting as scheduled epochs with the identical trace. Several
/// epochs under a strategy that re-places at every boundary pin the
/// observed aggregate both paths fold their trace into.
#[test]
fn pushed_epoch_matches_scheduled_epoch_with_same_trace() {
    let schedule = PhaseSchedule::new(
        6,
        vec![PhaseSpec::new("only", PhaseKind::StaticZipf { skew: 0.9, write_fraction: 0.2 }, 400)],
    );
    for strategy in
        [StrategyKind::Dynamic, StrategyKind::PeriodicStatic { replace_every_epochs: 1 }]
    {
        let topology = TopologyFamily::Star { processors: 6, bus_bandwidth: 3 };
        let spec = ScenarioSpec {
            strategy,
            epoch_requests: 100,
            ..ScenarioSpec::new("push", topology, schedule.clone(), 2, 11)
        };

        // Scheduled: the single phase runs as four epochs.
        let mut scheduled = Session::new(&spec);
        let mut epochs = Vec::new();
        while let Some(epoch) = scheduled.step_epoch().unwrap() {
            epochs.push(epoch);
        }
        assert_eq!(epochs.len(), 4);

        // Pushed: the identical trace, fed externally in the same epochs.
        let net = spec.topology.build();
        let trace = online_trace(&net, &schedule, spec.seed);
        let mut pushed = Session::new(&spec);
        for (a, batch) in epochs.iter().zip(trace.chunks(100)) {
            let mut b = pushed.push_epoch(batch).unwrap();
            assert_eq!(a.phase, 0);
            assert_eq!(b.phase, 1, "pushed epochs report outside the schedule's phases");
            b.phase = 0;
            assert_eq!(*a, b, "{strategy}");
        }

        // The pushed session's report counts the traffic but has no
        // completed phase summary.
        let report = pushed.into_report();
        assert_eq!(report.traffic.requests, 400);
        assert!(report.phases.is_empty());
    }
}

/// External traffic is untrusted: a pushed request referencing an
/// object outside the session's id space must be rejected up front
/// (before any session state is touched), not panic mid-mutation.
#[test]
#[should_panic(expected = "references object")]
fn push_epoch_rejects_out_of_range_objects() {
    let spec = base_spec(3);
    let mut session = Session::new(&spec);
    let p = session.network().processors()[0];
    let bad = hbn_dynamic::OnlineRequest {
        processor: p,
        object: hbn_workload::ObjectId(session.max_objects() as u32),
        is_write: false,
    };
    let _ = session.push_epoch(&[bad]);
}

#[test]
#[should_panic(expected = "pushed request 1 is issued from a non-processor node")]
fn push_epoch_rejects_out_of_range_processors() {
    let spec = base_spec(3);
    let mut session = Session::new(&spec);
    let p = session.network().processors()[0];
    let request = |processor| hbn_dynamic::OnlineRequest {
        processor,
        object: hbn_workload::ObjectId(0),
        is_write: false,
    };
    let _ = session.push_epoch(&[request(p), request(hbn_topology::NodeId(10_000))]);
}

/// Pushed traffic is visible to re-optimizing strategies: it lands in
/// the observed aggregate.
#[test]
fn pushed_traffic_feeds_the_observed_aggregate() {
    let mut spec = base_spec(13);
    spec.strategy = StrategyKind::PeriodicStatic { replace_every_epochs: 1 };
    let mut session = Session::new(&spec);
    session.step_epoch().unwrap().unwrap();
    let net = spec.topology.build();
    let trace = online_trace(&net, &spec.schedule, 999);
    // Push a couple of foreign batches; every boundary re-optimizes from
    // the aggregate, which now includes them.
    session.push_epoch(&trace[..50]).unwrap();
    session.push_epoch(&trace[50..100]).unwrap();
    while session.step_epoch().unwrap().is_some() {}
    let report = session.into_report();
    assert_eq!(report.traffic.requests, 720 + 100);
    assert_eq!(report.epochs.len(), 18 + 2);
    assert_eq!(report.phases.len(), spec.schedule.phases.len());
    // Scheduled phase summaries cover exactly the scheduled requests.
    let scheduled: u64 = report.phases.iter().map(|p| p.traffic.requests).sum();
    assert_eq!(scheduled, 720);
}

/// Tenant attribution is linear: each object's snapshot loads go to its
/// tenant (`id % tenants`), so after every epoch the tenants' cumulative
/// loads sum exactly to the loads a fault-free static policy has charged,
/// which are its snapshot placements' loads.
#[test]
fn tenant_loads_sum_to_the_policy_loads() {
    let schedule = PhaseSchedule::new(
        40,
        vec![PhaseSpec::new(
            "interference",
            PhaseKind::Interference { tenants: 3, skew: 0.9, write_fraction: 0.2 },
            3_000,
        )],
    );
    let topology = TopologyFamily::Balanced { branching: 3, height: 2 };
    let mut spec = ScenarioSpec::new("tenants", topology, schedule, 2, 5);
    spec.epoch_requests = 250;
    spec.strategy = StrategyKind::FrozenStatic;
    let mut session = Session::new(&spec);
    let mut epochs = 0;
    while session.step_epoch().unwrap().is_some() {
        assert_eq!(session.tenant_loads().len(), 3);
        let mut tenants = LoadMap::zero(session.network());
        for loads in session.tenant_loads() {
            tenants.add_assign(loads);
        }
        let mut policy = LoadMap::zero(session.network());
        session.strategy().add_loads_to(&mut policy);
        assert_eq!(tenants, policy, "epoch {epochs}");
        epochs += 1;
    }
    assert_eq!(epochs, 12);
    assert!(session.tenant_loads().iter().all(|loads| loads.total() > 0));
}
