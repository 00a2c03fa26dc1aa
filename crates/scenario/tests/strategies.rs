//! Strategy semantics: the periodic-static, hybrid, frozen-static and
//! threshold-switch strategies against the dynamic baseline.
//!
//! Pins (1) that `PeriodicStatic` with `replace_every_epochs = ∞` is a
//! single up-front static placement — equal to a never-firing periodic
//! strategy, migration-free, and reconstructible from the full-outcome
//! reference pipeline run on the first epoch's traffic; (2) that strategy reports are
//! invariant across replay kernels; (3) that a hybrid
//! whose re-seed boundary never fires is exactly the dynamic strategy;
//! (4) the migration-cost accounting identity
//! `migration_traffic = replications × D` on every epoch, for every
//! kind; and (5) that `FrozenStatic`, whose only boundary work is the
//! outage heal, reproduces `periodic-static(inf)` bit for bit on
//! fault-free runs.

use hbn_core::ExtendedNibble;
use hbn_load::{LoadMap, Placement};
use hbn_scenario::{
    run_scenario, ReplayKernel, ScenarioReport, ScenarioSpec, StrategyKind, TopologyFamily,
};
use hbn_testutil::family_schedules;
use hbn_workload::phases::full_tour;
use hbn_workload::AccessMatrix;
use proptest::prelude::*;

fn base_spec(seed: u64, epoch_requests: usize) -> ScenarioSpec {
    let topology = TopologyFamily::Balanced { branching: 3, height: 2 };
    ScenarioSpec {
        epoch_requests,
        ..ScenarioSpec::new("strategies", topology, full_tour(8, 120), 2, seed)
    }
}

/// Compare two reports up to the strategy label (which legitimately
/// differs between two parameterizations of the same behaviour).
fn assert_reports_equal_modulo_label(a: &ScenarioReport, b: &ScenarioReport) {
    let mut a = a.clone();
    let mut b = b.clone();
    a.strategy = String::new();
    b.strategy = String::new();
    assert_eq!(a, b);
}

#[test]
fn periodic_static_inf_never_migrates() {
    let mut spec = base_spec(5, 40);
    spec.strategy = StrategyKind::PeriodicStatic { replace_every_epochs: 0 };
    let report = run_scenario(&spec);
    assert_eq!(report.strategy, "periodic-static(inf)");
    assert_eq!(report.stats.replications, 0, "∞ never re-optimizes, so it never migrates");
    assert_eq!(report.stats.collapses, 0);
    assert_eq!(report.traffic.requests, 720);
    assert_eq!(report.stats.reads + report.stats.writes, 720);
    assert_eq!(report.traffic.migration_traffic, 0);
}

/// On a fault-free run `FrozenStatic` is the paper's pure static model,
/// exactly what `periodic-static(inf)` does: bit-for-bit equal (modulo
/// the label). Under an outage the two differ (`tests/faults.rs`).
#[test]
fn frozen_static_equals_periodic_static_inf() {
    for seed in [2u64, 11, 29] {
        let mut inf = base_spec(seed, 40);
        inf.strategy = StrategyKind::PeriodicStatic { replace_every_epochs: 0 };
        let mut frozen = base_spec(seed, 40);
        frozen.strategy = StrategyKind::FrozenStatic;
        let frozen = run_scenario(&frozen);
        assert_eq!(frozen.strategy, "frozen-static");
        assert_reports_equal_modulo_label(&run_scenario(&inf), &frozen);
    }
}

/// The ∞ strategy *is* the bootstrap placement: reconstruct it by
/// running the `ExtendedNibble::place` reference on the first epoch's
/// matrix (which pins the production kernel's bootstrap), then replaying
/// the serving semantics (first-touch materialization, nearest-copy
/// service under the static load model) epoch by epoch.
#[test]
fn periodic_static_inf_matches_manual_upfront_placement() {
    let spec = {
        let mut s = base_spec(9, 48);
        s.strategy = StrategyKind::PeriodicStatic { replace_every_epochs: 0 };
        s
    };
    let report = run_scenario(&spec);

    let net = spec.topology.build();
    let max_objects = spec.schedule.max_objects();
    let mut stream = spec.schedule.stream(&net, spec.seed);

    // Materialize the epoch split exactly as the engine does.
    let mut epoch_lens: Vec<usize> = Vec::new();
    for phase in &spec.schedule.phases {
        let mut remaining = phase.requests;
        while remaining > 0 {
            let len = spec.epoch_requests.min(remaining).max(if spec.epoch_requests == 0 {
                remaining
            } else {
                0
            });
            epoch_lens.push(len);
            remaining -= len;
        }
    }
    assert_eq!(epoch_lens.len(), report.epochs.len(), "same epoch split");

    let mut copies: Option<Placement> = None;
    for (idx, &len) in epoch_lens.iter().enumerate() {
        let mut epoch_matrix = AccessMatrix::new(max_objects);
        let mut first_touch: Vec<(hbn_workload::ObjectId, hbn_topology::NodeId)> = Vec::new();
        for req in stream.by_ref().take(len) {
            epoch_matrix.add(
                req.processor,
                req.object,
                u64::from(!req.is_write),
                u64::from(req.is_write),
            );
            first_touch.push((req.object, req.processor));
        }
        let placement = copies.get_or_insert_with(|| {
            // The up-front placement: the full-outcome reference
            // pipeline on epoch 0's matrix.
            ExtendedNibble::new().place(&net, &epoch_matrix).unwrap().placement
        });
        for &(x, p) in &first_touch {
            if placement.copies(x).is_empty() {
                placement.add_copy(x, p);
            }
        }
        let mut serving = Placement::new(max_objects);
        for x in epoch_matrix.objects() {
            if !epoch_matrix.object_entries(x).is_empty() {
                serving.set_copies(x, placement.copies(x).to_vec());
            }
        }
        serving.nearest_assignment(&net, &epoch_matrix);
        let service = LoadMap::from_placement(&net, &epoch_matrix, &serving);
        assert_eq!(
            service.congestion(&net).congestion,
            report.epochs[idx].placement_congestion,
            "epoch {idx} serving congestion"
        );
        // With no migration ever, the epoch's online congestion is
        // exactly its service congestion.
        assert_eq!(
            service.congestion(&net).congestion,
            report.epochs[idx].online_congestion,
            "epoch {idx} online congestion"
        );
    }
}

#[test]
fn hybrid_with_unreachable_boundary_is_dynamic() {
    for seed in [1u64, 6, 23] {
        let mut dynamic = base_spec(seed, 40);
        dynamic.strategy = StrategyKind::Dynamic;
        let mut hybrid = base_spec(seed, 40);
        // 720 requests / 40 per epoch = 18 epochs; a boundary at every
        // 10_000th epoch never fires, so the hybrid must degenerate to
        // the dynamic strategy exactly.
        hybrid.strategy = StrategyKind::Hybrid { reseed_every_epochs: 10_000 };
        assert_reports_equal_modulo_label(&run_scenario(&dynamic), &run_scenario(&hybrid));
    }
}

/// A threshold switch whose write bound is unreachable never leaves the
/// dynamic regime — it must be the dynamic strategy exactly.
#[test]
fn threshold_switch_with_unreachable_bound_is_dynamic() {
    for seed in [4u64, 17] {
        let mut dynamic = base_spec(seed, 40);
        dynamic.strategy = StrategyKind::Dynamic;
        let mut switch = base_spec(seed, 40);
        switch.strategy = StrategyKind::ThresholdSwitch { write_bound: 1.1, min_epochs: 1 };
        assert_reports_equal_modulo_label(&run_scenario(&dynamic), &run_scenario(&switch));
    }
}

#[test]
fn strategy_reports_are_invariant_across_serve_kernels() {
    for strategy in [
        StrategyKind::PeriodicStatic { replace_every_epochs: 3 },
        StrategyKind::Hybrid { reseed_every_epochs: 3 },
        StrategyKind::Hybrid { reseed_every_epochs: 0 },
    ] {
        let mut reference = base_spec(7, 30);
        reference.strategy = strategy;
        reference.exec.replay = ReplayKernel::Reference;
        let expected = run_scenario(&reference);

        let mut spec = base_spec(7, 30);
        spec.strategy = strategy;
        assert_eq!(run_scenario(&spec), expected, "strategy {strategy} must be kernel-invariant");
    }
}

/// `ThresholdSwitch` must be replay-kernel-invariant too, across its
/// switch.
#[test]
fn threshold_switch_is_invariant_across_serve_kernels() {
    let strategy = StrategyKind::ThresholdSwitch { write_bound: 0.1, min_epochs: 3 };
    let mut reference = ScenarioSpec { strategy, ..base_spec(7, 30) };
    reference.exec.replay = ReplayKernel::Reference;
    let expected = run_scenario(&reference);
    assert_eq!(run_scenario(&ScenarioSpec { strategy, ..base_spec(7, 30) }), expected);
}

#[test]
fn migration_traffic_is_replications_times_threshold_everywhere() {
    for strategy in [
        StrategyKind::Dynamic,
        StrategyKind::PeriodicStatic { replace_every_epochs: 2 },
        StrategyKind::PeriodicStatic { replace_every_epochs: 0 },
        StrategyKind::Hybrid { reseed_every_epochs: 2 },
        StrategyKind::ThresholdSwitch { write_bound: 0.1, min_epochs: 2 },
    ] {
        let mut spec = ScenarioSpec { strategy, ..base_spec(13, 36) };
        spec.exec.threshold = 3;
        let report = run_scenario(&spec);
        for (i, epoch) in report.epochs.iter().enumerate() {
            assert_eq!(
                epoch.traffic.migration_traffic,
                epoch.traffic.replications * spec.exec.threshold,
                "strategy {strategy}, epoch {i}"
            );
        }
        assert_eq!(
            report.traffic.migration_traffic,
            report.stats.replications * spec.exec.threshold,
            "{strategy}"
        );
    }
}

#[test]
fn periodic_static_migrates_when_the_working_set_moves() {
    // Hotspot migration moves the hot set between processor clusters;
    // a re-optimizing static strategy must pay migration traffic.
    let (_, schedule) = family_schedules(12, 60, 600).swap_remove(1);
    let topology = TopologyFamily::Balanced { branching: 3, height: 2 };
    let spec = ScenarioSpec {
        strategy: StrategyKind::PeriodicStatic { replace_every_epochs: 2 },
        epoch_requests: 60,
        ..ScenarioSpec::new("hotspot-static", topology, schedule, 2, 3)
    };
    let report = run_scenario(&spec);
    assert!(
        report.stats.replications > 0,
        "re-optimization under a moving hotspot must migrate copies"
    );
    assert!(report.competitive_ratio.is_some());
}

/// A write-heavy stream trips the threshold switch: it must actually
/// switch (migration traffic appears at the switch epoch) and serve the
/// rest under the static model.
#[test]
fn threshold_switch_fires_on_write_heavy_traffic() {
    let (_, schedule) = family_schedules(12, 60, 600).swap_remove(5); // single-bus-saturation, 50% writes
    let topology = TopologyFamily::Balanced { branching: 3, height: 2 };
    let mut spec = ScenarioSpec::new("switchy", topology, schedule, 2, 8);
    spec.epoch_requests = 60;
    spec.strategy = StrategyKind::ThresholdSwitch { write_bound: 0.2, min_epochs: 3 };
    let report = run_scenario(&spec);
    assert!(report.stats.replications > 0, "the switch must charge its migration");
    // After the switch the policy is frozen static: the last epochs add
    // no replications.
    let last = report.epochs.last().unwrap();
    assert_eq!(last.traffic.replications, 0, "post-switch epochs are static");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `replace_every_epochs = ∞` (0) behaves exactly like a periodic
    /// strategy whose boundary never fires: one up-front placement,
    /// kept for the whole run.
    #[test]
    fn periodic_static_inf_equals_upfront(seed in 0u64..1_000, epoch_requests in 20usize..70) {
        let mut inf = base_spec(seed, epoch_requests);
        inf.strategy = StrategyKind::PeriodicStatic { replace_every_epochs: 0 };
        let mut never = base_spec(seed, epoch_requests);
        // 720 requests split into ≥ 11 epochs; 10_000 never divides a
        // live epoch index.
        never.strategy = StrategyKind::PeriodicStatic { replace_every_epochs: 10_000 };
        let inf_report = run_scenario(&inf);
        prop_assert_eq!(inf_report.stats.replications, 0);
        let mut a = inf_report;
        let mut b = run_scenario(&never);
        a.strategy = String::new();
        b.strategy = String::new();
        prop_assert_eq!(a, b);
    }
}
