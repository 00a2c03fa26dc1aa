//! EXP-SCEN — the end-to-end scenario matrix: every access-pattern family
//! of `hbn_workload::phases` crossed with several topology families, each
//! cell run across independent seed shards, one thread each. Each run
//! streams the phase schedule through the online read-replicate /
//! write-collapse strategy (zero-allocation workspace serve kernel) and
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

use hbn_bench::{distinct, exp_quick, mean, per_sec, shards, write_bench, Obj, Table};
use hbn_scenario::{run_scenario, ScenarioSpec, TopologyFamily};
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
/// Requests per replay epoch. Bounding the epoch bounds the backlog a
/// saturated cell's replay carries from slot to slot, so a 100k-request
/// run costs the sum of its epochs' replays, each over at most this many
/// requests.
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
    let mut cells = Vec::new();
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
            let spec = ScenarioSpec {
                capacity,
                epoch_requests: EPOCH_REQUESTS,
                ..ScenarioSpec::new(
                    format!("{family}@{topology}"),
                    topology,
                    schedule.clone(),
                    THRESHOLD,
                    0,
                )
            };
            let processors = spec.build_network().n_processors();

            let start = Instant::now();
            let reports =
                shards(&seeds, |seed| run_scenario(&ScenarioSpec { seed, ..spec.clone() }));
            let wall = start.elapsed().as_secs_f64();

            let ratios: Vec<f64> = reports.iter().filter_map(|r| r.competitive_ratio).collect();
            let competitive_ratio =
                (!ratios.is_empty()).then(|| ratios.iter().sum::<f64>() / ratios.len() as f64);
            let makespan = mean(reports.iter().map(|r| r.total_makespan as f64));
            let congestion = mean(reports.iter().map(|r| r.online_congestion.as_f64()));
            let replications = mean(reports.iter().map(|r| r.stats.replications as f64));
            let collapses = mean(reports.iter().map(|r| r.stats.collapses as f64));
            let latency = mean(reports.iter().map(|r| {
                let total: u64 = r.phases.iter().map(|p| p.traffic.requests).sum();
                if total == 0 {
                    0.0
                } else {
                    r.phases.iter().map(|p| p.mean_latency * p.traffic.requests as f64).sum::<f64>()
                        / total as f64
                }
            }));
            let n_tenants = reports[0].tenants.len();
            let tenant_requests: Vec<f64> = (0..n_tenants)
                .map(|t| mean(reports.iter().map(|r| r.tenants[t].requests as f64)))
                .collect();
            let tenant_congestion: Vec<f64> = (0..n_tenants)
                .map(|t| mean(reports.iter().map(|r| r.tenants[t].placement_congestion.as_f64())))
                .collect();
            let rate = per_sec(schedule.total_requests() * SHARDS, wall);
            t.row([
                family.to_string(),
                topology.to_string(),
                capacity.to_string(),
                processors.to_string(),
                format!("{makespan:.0}"),
                format!("{congestion:.0}"),
                competitive_ratio.map_or("-".into(), |r| format!("{r:.2}x")),
                format!("{replications:.0}"),
                format!("{collapses:.0}"),
                format!("{latency:.2}"),
                format!("{:.1}", wall * 1e3),
                format!("{rate:.0}"),
            ]);
            cells.push(
                Obj::new()
                    .str("family", family)
                    .str("topology", &topology.to_string())
                    .str("capacity", &capacity.to_string())
                    .raw("processors", processors)
                    .raw("seeds", SHARDS)
                    .raw("requests_per_seed", schedule.total_requests())
                    .raw("epochs", reports[0].epochs.len())
                    .raw("threshold_d", spec.exec.threshold)
                    .raw("epoch_requests", spec.epoch_requests)
                    .str("kernel", &spec.exec.replay.to_string())
                    .f64("mean_makespan_slots", makespan)
                    .f64("mean_online_congestion", congestion)
                    .opt_f64("mean_competitive_ratio", competitive_ratio)
                    .f64("mean_replications", replications)
                    .f64("mean_collapses", collapses)
                    .f64("mean_latency_slots", latency)
                    .f64s("tenant_requests", &tenant_requests)
                    .f64s("tenant_congestion", &tenant_congestion)
                    .f64("wall_seconds", wall)
                    .f64("requests_per_sec", rate),
            );
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

    let head = Obj::new()
        .raw("families", distinct(families().into_iter().map(|(family, _)| family)))
        .raw("topologies", distinct(topologies().iter().map(|(topology, _)| topology.to_string())));
    write_bench("BENCH_scenarios.json", "scenario_matrix", &head, &[("cells", cells)])
        .expect("write BENCH_scenarios.json");
    println!("wrote BENCH_scenarios.json");
}
