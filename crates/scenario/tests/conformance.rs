//! Table-driven per-family conformance harness.
//!
//! Every access-pattern family in the `hbn_testutil::family_schedules`
//! registry is swept through the same invariant battery, under
//! heterogeneous bus capacities ([`CapacityProfile`]) and on more than
//! one topology family (including the SCI ring-of-rings reduction):
//!
//! 1. **Determinism per seed** — the same spec yields the identical
//!    report, bit for bit.
//! 2. **Request-volume accounting** — the report serves exactly the
//!    scheduled volume, epochs partition it, and reads + writes = total.
//! 3. **Serve-kernel invariance** — the family's trace, served by the
//!    production kernel and by its naive oracle, leaves identical replica
//!    sets, loads and stats.
//! 4. **Replay-kernel parity** — the workspace replay kernel equals the
//!    reference oracle, heterogeneous capacities included.
//! 5. **Estimator bounds** — under the estimator kernel the bounds are
//!    never inverted and exact-sampled epochs never violate them.
//! 6. **Tenant attribution** — per-tenant requests partition the run's
//!    total exactly when the schedule declares tenants.
//!
//! Registration is structural: `family_label` in `hbn_testutil` matches
//! `PhaseKind` exhaustively, so a new family cannot compile without a
//! registry label, and this harness asserts the registry and
//! [`REGISTERED_FAMILIES`] agree — an unregistered family is a compile
//! or CI failure, never a silent coverage gap.

use hbn_dynamic::{online_trace, DynamicTree, ReferenceTree};
use hbn_scenario::{run_scenario, ReplayKernel, ScenarioReport, ScenarioSpec, TopologyFamily};
use hbn_testutil::{family_label, family_schedules, REGISTERED_FAMILIES};
use hbn_topology::CapacityProfile;
use hbn_workload::phases::PhaseSchedule;
use hbn_workload::ObjectId;

const OBJECTS: usize = 10;
const WARMUP: usize = 30;
const VOLUME: usize = 90;
const EPOCH_REQUESTS: usize = 40;

/// The topology × capacity grid every family is swept over: a balanced
/// tree and the SCI ring-of-rings reduction, each under a non-uniform
/// static capacity profile (so every invariant below is exercised with
/// heterogeneous bus bandwidths, not just the uniform default).
fn grid() -> Vec<(TopologyFamily, CapacityProfile)> {
    vec![
        (
            TopologyFamily::Balanced { branching: 3, height: 2 },
            CapacityProfile::DegradedLeaves { divisor: 2 },
        ),
        (
            TopologyFamily::Balanced { branching: 3, height: 2 },
            CapacityProfile::FatRoot { boost: 2 },
        ),
        (
            TopologyFamily::SciCluster {
                rings: 3,
                procs_per_ring: 2,
                ring_bandwidth: 8,
                switch_bandwidth: 4,
            },
            CapacityProfile::DegradedLeaves { divisor: 2 },
        ),
    ]
}

fn base_spec(
    family: &str,
    schedule: &PhaseSchedule,
    topology: TopologyFamily,
    capacity: CapacityProfile,
) -> ScenarioSpec {
    let name = format!("conformance-{family}");
    ScenarioSpec {
        capacity,
        epoch_requests: EPOCH_REQUESTS,
        ..ScenarioSpec::new(name, topology, schedule.clone(), 2, 41)
    }
}

/// The registry itself is conformant: labels match [`REGISTERED_FAMILIES`]
/// in order, and each schedule's measured phase maps back to its label
/// through the exhaustive [`family_label`] match — the registration trip
/// wire that makes an unregistered `PhaseKind` a compile/CI failure.
#[test]
fn registry_matches_registered_families() {
    let fams = family_schedules(OBJECTS, WARMUP, VOLUME);
    let labels: Vec<&str> = fams.iter().map(|(l, _)| *l).collect();
    assert_eq!(labels, REGISTERED_FAMILIES, "family_schedules must cover REGISTERED_FAMILIES");
    for (label, schedule) in &fams {
        assert_eq!(
            family_label(&schedule.phases[1].kind),
            *label,
            "registry label and PhaseKind label must agree"
        );
    }
}

fn check_volume(report: &ScenarioReport, schedule: &PhaseSchedule, cell: &str) {
    assert_eq!(
        report.traffic.requests as usize,
        schedule.total_requests(),
        "{cell}: run must serve the scheduled volume exactly"
    );
    assert_eq!(
        report.traffic.reads + report.traffic.writes,
        report.traffic.requests,
        "{cell}: reads + writes must partition requests"
    );
    let epoch_total: u64 = report.epochs.iter().map(|e| e.traffic.requests).sum();
    assert_eq!(epoch_total, report.traffic.requests, "{cell}: epochs must partition the volume");
    for (phase, summary) in schedule.phases.iter().zip(&report.phases) {
        assert_eq!(
            summary.traffic.requests as usize, phase.requests,
            "{cell}: phase {:?} volume",
            phase.label
        );
    }
}

fn check_tenants(report: &ScenarioReport, schedule: &PhaseSchedule, cell: &str) {
    let tenants = schedule.tenants();
    if tenants > 1 {
        assert_eq!(report.tenants.len(), tenants, "{cell}: one summary per declared tenant");
        let attributed: u64 = report.tenants.iter().map(|t| t.requests).sum();
        assert_eq!(
            attributed, report.traffic.requests,
            "{cell}: per-tenant requests must partition the total exactly"
        );
        for (i, t) in report.tenants.iter().enumerate() {
            assert_eq!(t.tenant, i, "{cell}: tenant summaries are indexed");
            assert!(t.requests > 0, "{cell}: every tenant partition must see traffic");
        }
    } else {
        assert!(report.tenants.is_empty(), "{cell}: single-tenant runs carry no attribution");
    }
}

/// Invariants 1, 2 and 6 for every registry family on every grid cell:
/// per-seed determinism, exact volume accounting, tenant partition.
#[test]
fn every_family_is_deterministic_and_accounts_its_volume() {
    for (family, schedule) in family_schedules(OBJECTS, WARMUP, VOLUME) {
        for (topology, capacity) in grid() {
            let cell = format!("{family} × {topology} × {capacity}");
            let spec = base_spec(family, &schedule, topology, capacity);
            let report = run_scenario(&spec);
            assert_eq!(report, run_scenario(&spec), "{cell}: same seed, same report");
            check_volume(&report, &schedule, &cell);
            check_tenants(&report, &schedule, &cell);
        }
    }
}

/// Invariant 3: the serve kernel equals its oracle. Each family's trace,
/// served by `DynamicTree::serve` and by the naive `ReferenceTree`, leaves
/// identical replica sets, loads and stats on every grid topology.
/// `Session` serves on the kernel alone; the legacy-parity suite pins it
/// end to end against an engine that serves on the oracle.
#[test]
fn every_family_is_serve_kernel_invariant() {
    for (family, schedule) in family_schedules(OBJECTS, WARMUP, VOLUME) {
        for (topology, capacity) in grid() {
            let cell = format!("{family} × {topology} × {capacity}");
            let spec = base_spec(family, &schedule, topology, capacity);
            let net = spec.build_network();
            let n = schedule.max_objects();
            let mut kernel = DynamicTree::new(&net, n, spec.exec.threshold);
            let mut oracle = ReferenceTree::new(&net, n, spec.exec.threshold);
            for req in online_trace(&net, &schedule, spec.seed) {
                kernel.serve(&net, req);
                oracle.serve(&net, req);
            }
            assert_eq!(kernel.stats(), oracle.stats(), "{cell}: kernel vs oracle stats");
            assert_eq!(kernel.loads(), oracle.loads(), "{cell}: kernel vs oracle loads");
            for x in 0..n as u32 {
                assert_eq!(
                    kernel.replicas(ObjectId(x)),
                    oracle.replicas(ObjectId(x)),
                    "{cell}: kernel vs oracle replicas of object {x}"
                );
            }
        }
    }
}

/// Invariant 4: the workspace replay kernel is bit-for-bit the reference
/// oracle on every family — under the non-uniform capacity profiles,
/// where per-bus slot budgets actually differ.
#[test]
fn every_family_replays_identically_on_kernel_and_oracle() {
    for (family, schedule) in family_schedules(OBJECTS, WARMUP, VOLUME) {
        for (topology, capacity) in grid() {
            let cell = format!("{family} × {topology} × {capacity}");
            let kernel = run_scenario(&base_spec(family, &schedule, topology, capacity));
            let mut s = base_spec(family, &schedule, topology, capacity);
            s.exec.replay = ReplayKernel::Reference;
            assert_eq!(run_scenario(&s), kernel, "{cell}: reference vs workspace replay");
        }
    }
}

/// Invariant 5: under the estimator kernel the congestion bounds are
/// never inverted, exact-sampled epochs always land inside them, and the
/// run records zero violations — for every family on every grid cell.
#[test]
fn every_family_estimates_within_bounds() {
    for (family, schedule) in family_schedules(OBJECTS, WARMUP, VOLUME) {
        for (topology, capacity) in grid() {
            let cell = format!("{family} × {topology} × {capacity}");
            let mut spec = base_spec(family, &schedule, topology, capacity);
            spec.exec.replay = ReplayKernel::Estimate { sample_every: 2 };
            let report = run_scenario(&spec);
            assert_eq!(report.estimate_violations, 0, "{cell}: no bound violations");
            assert!(report.estimated_epochs > 0, "{cell}: estimator must price epochs");
            for epoch in &report.epochs {
                let est = epoch
                    .estimate
                    .unwrap_or_else(|| panic!("{cell}: estimator epochs must carry bounds"));
                assert!(est.lower <= est.upper, "{cell}: bounds must never invert");
                if est.sampled_exact {
                    assert!(
                        est.lower <= epoch.makespan && epoch.makespan <= est.upper,
                        "{cell}: sampled makespan {} outside [{}, {}]",
                        epoch.makespan,
                        est.lower,
                        est.upper
                    );
                }
            }
            check_volume(&report, &schedule, &cell);
        }
    }
}
