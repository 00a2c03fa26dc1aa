//! EXP-SCEN — the end-to-end scenario matrix: every access-pattern family
//! of `hbn_workload::phases` crossed with several topology families, each
//! cell run across independent seed shards (rayon). Each run streams the
//! phase schedule through the online read-replicate / write-collapse
//! strategy (zero-allocation workspace serve kernel) and
//! replays every epoch on the zero-allocation packet simulator, so the
//! numbers below exercise the paper's actual pipeline: online traffic →
//! dynamic placement → congestion → completion time.
//!
//! Production scale reaches `fat-balanced(4,3)` (64 processors) at
//! ≥ 100k requests per seed, with bounded replay epochs so saturated
//! cells stay linear in the backlog; `HBN_EXP_QUICK=1` drops the volumes
//! so CI can run the same matrix in seconds. Emits `BENCH_scenarios.json` (with
//! self-describing cells: threshold, epoch granularity, kernel, capacity
//! profile, and per-tenant attribution columns on multi-tenant families)
//! so the scenario trajectory is tracked across PRs alongside
//! `BENCH_replay.json` and `BENCH_dynamic.json`.

#![warn(missing_docs)]

use hbn_bench::{emit_scenarios_json, exp_quick, ScenarioBenchRecord, Table};
use hbn_scenario::{run_scenario_sharded, ScenarioSpec, TopologyFamily};
use hbn_testutil::{cell_seeds, family_schedules, seeded_rng};
use hbn_topology::CapacityProfile;
use hbn_workload::phases::PhaseSchedule;
use rand::Rng;
use std::time::Instant;

/// Live objects at schedule start.
const OBJECTS: usize = 24;
/// Replication threshold `D` of the online strategy.
const THRESHOLD: u64 = 3;
/// Seed shards per matrix cell.
const SHARDS: usize = 4;
/// Requests per replay epoch. Bounding the epoch bounds the simulator's
/// slot-loop backlog on saturated cells (the blocked-packet set is
/// re-scanned every slot), which keeps 100k-request runs linear instead
/// of quadratic in the backlog.
const EPOCH_REQUESTS: usize = 5_000;

/// (warm-up requests, measured-phase requests) per schedule: ≥ 100k per
/// seed at production scale, CI-sized in quick mode.
fn volumes() -> (usize, usize) {
    if exp_quick() {
        (400, 2_000)
    } else {
        (4_000, 100_000)
    }
}

/// The access-pattern families of the matrix: a light stationary warm-up
/// (so the strategy starts from a populated replica state) followed by
/// the family phase under measurement. The family registry is shared
/// with the differential suites and the conformance harness via
/// `hbn-testutil`, so the matrix sweeps every registered family.
fn families() -> Vec<(&'static str, PhaseSchedule)> {
    let (warmup, volume) = volumes();
    family_schedules(OBJECTS, warmup, volume)
}

/// The (topology, static capacity profile) rows of the matrix. The
/// profile rewrites per-bus bandwidths at build time
/// (`ScenarioSpec::build_network`), so the degraded-leaves row measures
/// the same workloads under heterogeneous capacities.
fn topologies() -> Vec<(TopologyFamily, CapacityProfile)> {
    vec![
        (TopologyFamily::Balanced { branching: 3, height: 2 }, CapacityProfile::Uniform),
        // The 64-processor scale row. Fat-tree bandwidths: at this size a
        // uniform b = 1 tree saturates by construction and the replay
        // measures nothing but simulator backlog.
        (TopologyFamily::FatBalanced { branching: 4, height: 3 }, CapacityProfile::Uniform),
        (TopologyFamily::Star { processors: 12, bus_bandwidth: 4 }, CapacityProfile::Uniform),
        (TopologyFamily::Caterpillar { spine: 4, legs: 3 }, CapacityProfile::Uniform),
        // The SCI ring-of-rings reduction: 12 processors behind
        // per-ring buses under a switch bus.
        (
            TopologyFamily::SciCluster {
                rings: 4,
                procs_per_ring: 3,
                ring_bandwidth: 8,
                switch_bandwidth: 4,
            },
            CapacityProfile::Uniform,
        ),
        // Heterogeneous-capacity row: leaf-adjacent buses at half
        // bandwidth, everything else untouched.
        (
            TopologyFamily::Balanced { branching: 3, height: 2 },
            CapacityProfile::DegradedLeaves { divisor: 2 },
        ),
    ]
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn main() {
    let (warmup, volume) = volumes();
    println!(
        "EXP-SCEN — scenario matrix: {} access-pattern families x {} topologies, \
         {} seed shards each, {} requests per seed{}\n",
        families().len(),
        topologies().len(),
        SHARDS,
        warmup + volume,
        if exp_quick() { " (HBN_EXP_QUICK)" } else { "" }
    );

    // All shard seeds flow from the canonical RNG constructions in
    // hbn-testutil: one base seed per matrix cell, one independent
    // stream per shard.
    let mut seed_source = seeded_rng(17);
    let mut records: Vec<ScenarioBenchRecord> = Vec::new();
    let mut t = Table::new([
        "family",
        "topology",
        "capacity",
        "procs",
        "makespan",
        "online cong.",
        "vs hindsight",
        "repl",
        "coll",
        "mean lat",
        "wall (ms)",
        "req/s",
    ]);

    for (family, schedule) in families() {
        for (topology, capacity) in topologies() {
            let seeds = cell_seeds(seed_source.gen(), SHARDS);
            let spec =
                ScenarioSpec::builder(format!("{family}@{topology}"), topology, schedule.clone())
                    .capacity(capacity)
                    .threshold(THRESHOLD)
                    .epoch_requests(EPOCH_REQUESTS)
                    .build();
            let processors = spec.build_network().n_processors();

            let start = Instant::now();
            let reports = run_scenario_sharded(&spec, &seeds);
            let wall = start.elapsed().as_secs_f64();

            let ratios: Vec<f64> = reports.iter().filter_map(|r| r.competitive_ratio).collect();
            let n_tenants = reports[0].tenants.len();
            let rec = ScenarioBenchRecord {
                family: family.to_string(),
                topology: topology.label(),
                capacity: capacity.to_string(),
                processors,
                seeds: SHARDS,
                requests_per_seed: schedule.total_requests(),
                epochs: reports[0].epochs.len(),
                threshold_d: spec.exec.threshold,
                epoch_requests: spec.epoch_requests,
                kernel: spec.kernel_label(),
                mean_makespan_slots: mean(reports.iter().map(|r| r.total_makespan as f64)),
                mean_online_congestion: mean(reports.iter().map(|r| r.online_congestion.as_f64())),
                mean_competitive_ratio: if ratios.is_empty() {
                    None
                } else {
                    Some(ratios.iter().sum::<f64>() / ratios.len() as f64)
                },
                mean_replications: mean(reports.iter().map(|r| r.stats.replications as f64)),
                mean_collapses: mean(reports.iter().map(|r| r.stats.collapses as f64)),
                mean_latency_slots: mean(reports.iter().map(|r| {
                    let total: u64 = r.phases.iter().map(|p| p.traffic.requests).sum();
                    if total == 0 {
                        0.0
                    } else {
                        r.phases
                            .iter()
                            .map(|p| p.mean_latency * p.traffic.requests as f64)
                            .sum::<f64>()
                            / total as f64
                    }
                })),
                tenant_requests: (0..n_tenants)
                    .map(|t| mean(reports.iter().map(|r| r.tenants[t].requests as f64)))
                    .collect(),
                tenant_congestion: (0..n_tenants)
                    .map(|t| {
                        mean(reports.iter().map(|r| r.tenants[t].placement_congestion.as_f64()))
                    })
                    .collect(),
                wall_seconds: wall,
            };
            t.row([
                family.to_string(),
                rec.topology.clone(),
                rec.capacity.clone(),
                processors.to_string(),
                format!("{:.0}", rec.mean_makespan_slots),
                format!("{:.0}", rec.mean_online_congestion),
                rec.mean_competitive_ratio.map_or("-".into(), |r| format!("{r:.2}x")),
                format!("{:.0}", rec.mean_replications),
                format!("{:.0}", rec.mean_collapses),
                format!("{:.2}", rec.mean_latency_slots),
                format!("{:.1}", wall * 1e3),
                format!("{:.0}", rec.requests_per_sec()),
            ]);
            records.push(rec);
        }
    }

    println!("{}", t.render());
    println!(
        "Expected shape: read-mostly families (static-zipf, bursty) replicate\n\
         once and settle near the hindsight congestion; hotspot-migration and\n\
         object-churn pay recurring replication/collapse traffic as the working\n\
         set moves; mix-flip alternates cheap and expensive regimes;\n\
         single-bus-saturation concentrates every broadcast on one bus — the\n\
         adversarial ceiling of the matrix; interference partitions objects\n\
         across tenants (per-tenant attribution in the JSON); diurnal and\n\
         flash-crowd drive the stream through a time-varying open-loop\n\
         arrival process.\n"
    );

    emit_scenarios_json("BENCH_scenarios.json", &records).expect("write BENCH_scenarios.json");
    println!("wrote BENCH_scenarios.json");
}
