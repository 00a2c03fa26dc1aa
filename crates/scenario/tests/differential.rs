//! Differential pinning of the scenario engine's replay path: the
//! event-driven workspace kernel and the naive `simulate_reference`
//! oracle must produce identical epoch replay summaries for the same
//! scenario, and the engine itself must be deterministic in its seed.

use hbn_scenario::{run_scenario, ReplayKernel, ScenarioSpec, TopologyFamily};
use hbn_workload::phases::{full_tour, PhaseKind, PhaseSchedule, PhaseSpec};

fn small_spec() -> ScenarioSpec {
    let topology = TopologyFamily::Balanced { branching: 3, height: 2 };
    ScenarioSpec {
        epoch_requests: 50, // exercise mid-phase epoch boundaries
        ..ScenarioSpec::new("differential", topology, full_tour(6, 120), 2, 41)
    }
}

#[test]
fn workspace_and_reference_kernels_agree_on_every_epoch() {
    let ws_spec = small_spec();
    let mut ref_spec = small_spec();
    ref_spec.exec.replay = ReplayKernel::Reference;

    let ws_report = run_scenario(&ws_spec);
    let ref_report = run_scenario(&ref_spec);

    assert_eq!(ws_report.epochs.len(), ref_report.epochs.len());
    for (a, b) in ws_report.epochs.iter().zip(&ref_report.epochs) {
        assert_eq!(a, b, "replay summaries diverged in phase {}", a.phase);
    }
    assert_eq!(ws_report, ref_report);
}

#[test]
fn scenario_runs_are_seed_deterministic() {
    let spec = small_spec();
    assert_eq!(run_scenario(&spec), run_scenario(&spec));
    let mut other = small_spec();
    other.seed = 42;
    assert_ne!(run_scenario(&spec), run_scenario(&other));
}

#[test]
fn epoch_makespan_dominates_snapshot_congestion() {
    // The paper's congestion-matters claim, end to end: each epoch's
    // simulated makespan is lower-bounded by the congestion of the
    // snapshot placement serving that epoch's traffic.
    let report = run_scenario(&small_spec());
    for e in &report.epochs {
        assert!(
            e.makespan as f64 >= e.placement_congestion.as_f64(),
            "phase {}: makespan {} below congestion {}",
            e.phase,
            e.makespan,
            e.placement_congestion
        );
    }
}

#[test]
fn churn_scenarios_replay_cleanly() {
    // Object churn retires ids mid-phase; the engine must keep placements
    // and replays consistent with the shifting live set.
    let schedule = PhaseSchedule::new(
        5,
        vec![
            PhaseSpec::new(
                "churn",
                PhaseKind::ObjectChurn { churn_every: 20, skew: 1.0, write_fraction: 0.3 },
                300,
            ),
            PhaseSpec::new("settle", PhaseKind::StaticZipf { skew: 0.8, write_fraction: 0.1 }, 200),
        ],
    );
    let topology = TopologyFamily::Star { processors: 8, bus_bandwidth: 2 };
    let mut spec = ScenarioSpec::new("churn-replay", topology, schedule, 3, 7);
    spec.epoch_requests = 60;
    let report = run_scenario(&spec);
    assert_eq!(report.traffic.requests, 500);
    assert_eq!(report.phases.len(), 2);
    // 300/60 + 200/60 → 5 + 4 epochs.
    assert_eq!(report.epochs.len(), 9);
    assert!(report.stats.collapses > 0, "write collapses should fire under churn");
}
