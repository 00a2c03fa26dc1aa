//! The estimator bracket suite: under `ReplayKernel::Estimate` every
//! epoch's congestion bounds must satisfy `lower ≤ exact makespan ≤
//! upper` on the sampled epochs (and never invert on any epoch), across
//! all six access-pattern families, the topology matrix, fault plans and
//! proptest-generated scenarios — plus a tightness regression pinning
//! the observed upper/lower gap so the bounds cannot silently rot into
//! vacuity.

use hbn_scenario::{
    run_scenario, FaultPlan, ReplayKernel, ScenarioSpec, Session, StrategyKind, TopologyFamily,
};
use hbn_testutil::family_schedules;
use hbn_workload::phases::full_tour;
use proptest::prelude::*;

fn topologies() -> Vec<TopologyFamily> {
    vec![
        TopologyFamily::Balanced { branching: 3, height: 2 },
        TopologyFamily::Star { processors: 9, bus_bandwidth: 3 },
        TopologyFamily::Caterpillar { spine: 3, legs: 2 },
    ]
}

fn estimate_spec(
    name: &str,
    topology: TopologyFamily,
    schedule: hbn_workload::PhaseSchedule,
    sample_every: usize,
) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(name, topology, schedule, 2, 17);
    spec.epoch_requests = 60;
    spec.exec.replay = ReplayKernel::Estimate { sample_every };
    spec
}

/// All six phase families × the topology matrix, with every epoch
/// sampled for exact replay: the bounds must bracket every epoch's exact
/// makespan, and the in-run validation must agree.
#[test]
fn bounds_bracket_exact_on_all_families_and_topologies() {
    for topology in topologies() {
        for (family, schedule) in family_schedules(8, 120, 240) {
            let spec = estimate_spec(family, topology, schedule, 1);
            let report = run_scenario(&spec);
            assert_eq!(report.estimated_epochs, report.epochs.len(), "{family}@{topology}");
            assert_eq!(report.estimate_violations, 0, "{family}@{topology}");
            assert!(report.estimate_gap.is_some(), "{family}@{topology}");
            for (i, epoch) in report.epochs.iter().enumerate() {
                let est = epoch.estimate.expect("estimator prices every epoch");
                assert!(est.sampled_exact, "sample_every=1 samples every epoch");
                assert!(
                    est.lower <= epoch.makespan && epoch.makespan <= est.upper,
                    "{family}@{topology} epoch {i}: bounds [{}, {}] miss makespan {}",
                    est.lower,
                    est.upper,
                    epoch.makespan
                );
            }
        }
    }
}

/// With every epoch sampled, the estimator run is the workspace run plus
/// bounds: traffic, congestion and the exact replay metrics must be
/// identical to a plain `ReplayKernel::Workspace` run of the same spec.
#[test]
fn sampled_epochs_match_the_workspace_kernel() {
    let topology = TopologyFamily::Balanced { branching: 3, height: 2 };
    let est_spec = estimate_spec("parity", topology, full_tour(8, 150), 1);
    let mut ws_spec = est_spec.clone();
    ws_spec.exec.replay = ReplayKernel::Workspace;
    let est = run_scenario(&est_spec);
    let ws = run_scenario(&ws_spec);
    assert_eq!(est.epochs.len(), ws.epochs.len());
    for (e, w) in est.epochs.iter().zip(&ws.epochs) {
        assert_eq!(e.traffic, w.traffic);
        assert_eq!(e.online_congestion, w.online_congestion);
        assert_eq!(e.placement_congestion, w.placement_congestion);
        assert_eq!(e.makespan, w.makespan);
        assert_eq!(e.mean_latency, w.mean_latency);
        assert_eq!(e.p99_latency, w.p99_latency);
        assert!(e.estimate.is_some() && w.estimate.is_none());
    }
    assert_eq!(est.total_makespan, ws.total_makespan);
    assert_eq!(est.competitive_ratio, ws.competitive_ratio);
}

/// Sampled validation under an active fault plan: the overlay-aware
/// bounds must still bracket the overlay-aware exact replay, including
/// epochs where a bus is fully down.
#[test]
fn bounds_bracket_under_faults() {
    let topology = TopologyFamily::Balanced { branching: 3, height: 2 };
    let net = topology.build();
    let bus = net.children(net.root())[0];
    let spec = ScenarioSpec {
        faults: FaultPlan::default().degrade(1, bus, 4).down(3, bus).restore(5, bus),
        ..estimate_spec("faulted", topology, full_tour(8, 150), 1)
    };
    let report = run_scenario(&spec);
    assert!(report.epochs.iter().any(|e| e.buses_down > 0), "the outage must hit");
    assert_eq!(report.estimate_violations, 0);
    for (i, epoch) in report.epochs.iter().enumerate() {
        let est = epoch.estimate.unwrap();
        assert!(est.lower <= epoch.makespan && epoch.makespan <= est.upper, "epoch {i}");
    }
}

/// A pushed zero-request epoch under the estimator: bounds are exactly
/// `{0, 0}`, the gap ratio is finite, nothing panics.
#[test]
fn zero_request_epoch_estimates_zero() {
    let spec = estimate_spec(
        "empty",
        TopologyFamily::Star { processors: 4, bus_bandwidth: 2 },
        full_tour(4, 30),
        1,
    );
    let mut session = Session::new(&spec);
    let epoch = session.push_epoch(&[]).unwrap();
    assert_eq!(epoch.traffic.requests, 0);
    assert_eq!(epoch.makespan, 0);
    let est = epoch.estimate.expect("estimator prices empty epochs too");
    assert_eq!((est.lower, est.upper), (0, 0));
    assert!(est.gap_ratio().is_finite());
    assert_eq!(est.gap_ratio(), 1.0);
    let report = session.report();
    assert_eq!(report.estimate_violations, 0);
    assert_eq!(report.estimated_epochs, 1);
}

/// `sample_every = 0` disables exact sampling entirely: every epoch is
/// priced, none replayed, and the unsampled epochs report zero makespan.
#[test]
fn unsampled_mode_never_replays() {
    let spec = estimate_spec(
        "unsampled",
        TopologyFamily::Caterpillar { spine: 3, legs: 2 },
        full_tour(6, 120),
        0,
    );
    let report = run_scenario(&spec);
    assert_eq!(report.estimated_epochs, report.epochs.len());
    assert_eq!(report.total_makespan, 0);
    for epoch in &report.epochs {
        let est = epoch.estimate.unwrap();
        assert!(!est.sampled_exact);
        assert!(est.lower <= est.upper);
        assert!(epoch.traffic.requests == 0 || est.upper > 0);
    }
}

/// Tightness regression: the mean upper/lower gap on a fixed reference
/// scenario. The bound derivation is conservative by design, but its
/// observed quality must not silently regress — if a change widens the
/// gap past this pin, it has to justify moving the number.
#[test]
fn gap_ratio_regression() {
    let spec = estimate_spec(
        "tightness",
        TopologyFamily::Balanced { branching: 3, height: 2 },
        full_tour(10, 300),
        1,
    );
    let report = run_scenario(&spec);
    assert_eq!(report.estimate_violations, 0);
    let gap = report.estimate_gap.unwrap();
    assert!(gap >= 1.0, "a mean gap below 1.0 would mean inverted bounds: {gap}");
    const GAP_CEILING: f64 = 12.0;
    assert!(
        gap <= GAP_CEILING,
        "estimator gap regressed: mean upper/lower ratio {gap:.2} > {GAP_CEILING}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Proptest sweep: random topology shape, seed, strategy and
    /// sampling period — bounds never invert, gap ratios stay finite,
    /// and every sampled epoch brackets its exact makespan.
    #[test]
    fn bounds_never_invert(
        branching in 2usize..4,
        seed in any::<u64>(),
        epoch_requests in 20usize..90,
        sample_every in 0usize..4,
        strategy_pick in 0usize..3,
    ) {
        let strategy = match strategy_pick {
            0 => StrategyKind::Dynamic,
            1 => StrategyKind::PeriodicStatic { replace_every_epochs: 2 },
            _ => StrategyKind::Hybrid { reseed_every_epochs: 2 },
        };
        let topology = TopologyFamily::Balanced { branching, height: 2 };
        let mut spec = ScenarioSpec {
            strategy,
            epoch_requests,
            ..ScenarioSpec::new("prop", topology, full_tour(6, 120), 2, seed)
        };
        spec.exec.replay = ReplayKernel::Estimate { sample_every };
        let report = run_scenario(&spec);
        prop_assert_eq!(report.estimate_violations, 0);
        prop_assert_eq!(report.estimated_epochs, report.epochs.len());
        for epoch in &report.epochs {
            let est = epoch.estimate.unwrap();
            prop_assert!(est.lower <= est.upper);
            prop_assert!(est.gap_ratio().is_finite() && est.gap_ratio() >= 1.0);
            if est.sampled_exact {
                prop_assert!(est.lower <= epoch.makespan && epoch.makespan <= est.upper);
            } else {
                prop_assert_eq!(epoch.makespan, 0);
            }
        }
    }
}
