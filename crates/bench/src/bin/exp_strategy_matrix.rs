//! EXP-STRAT — the strategy matrix: every access-pattern family of
//! `hbn_workload::phases` crossed with several topologies and served
//! under each data-management strategy of the scenario engine — the
//! dynamic read-replicate / write-collapse strategy, the periodically
//! re-optimized static extended-nibble placement (batched
//! `PlacementKernel`), a single up-front static placement
//! (`periodic-static(inf)`), the hybrid (static nibble seeds the dynamic
//! tree's replica sets), `frozen-static` (place once, never re-optimize —
//! the paper's pure static model as its own policy) and
//! `threshold-switch` (serve dynamically until the observed write
//! fraction crosses a bound, then swap to a static placement).
//!
//! This is the comparison the paper's headline result implies but never
//! measures: Sections 3–4 prove the *static* placement 7-competitive,
//! Section 1.3 points to 3-competitive *dynamic* strategies — here all
//! of them serve identical phase-scheduled traffic under identical load
//! accounting, with migration cost charged at `D` per edge a moved
//! copy crosses (the dynamic replication unit), so
//! congestion, migration traffic and the empirical competitive ratio
//! (against the hindsight nibble placement) are directly comparable per
//! (family × topology × strategy) cell.
//!
//! Emits `BENCH_strategies.json`; `HBN_EXP_QUICK=1` runs the same matrix
//! at CI-sized volumes.

#![warn(missing_docs)]

use hbn_bench::{distinct, exp_quick, mean, per_sec, shards, write_bench, Obj, Table};
use hbn_scenario::{run_scenario, ScenarioSpec, StrategyKind, TopologyFamily};
use hbn_testutil::{cell_seeds, family_schedules, seeded_rng};
use hbn_workload::phases::PhaseSchedule;
use rand::Rng;
use std::time::Instant;

/// Live objects at schedule start.
const OBJECTS: usize = 24;
/// Replication / migration charge `D` per edge a copy crosses.
const THRESHOLD: u64 = 3;
/// Seed shards per matrix cell.
const SHARDS: usize = 2;

/// (warm-up requests, measured-phase requests, requests per replay
/// epoch) per schedule.
fn volumes() -> (usize, usize, usize) {
    if exp_quick() {
        (400, 2_000, 400)
    } else {
        (4_000, 40_000, 4_000)
    }
}

/// The access-pattern families (shared canonical set, warm-up +
/// measured phase).
fn families() -> Vec<(&'static str, PhaseSchedule)> {
    let (warmup, volume, _) = volumes();
    family_schedules(OBJECTS, warmup, volume)
}

fn topologies() -> Vec<TopologyFamily> {
    vec![
        TopologyFamily::Balanced { branching: 3, height: 2 },
        TopologyFamily::Star { processors: 12, bus_bandwidth: 4 },
        TopologyFamily::Caterpillar { spine: 4, legs: 3 },
    ]
}

/// The strategy axis. The periodic strategies re-optimize every 4
/// epochs; `periodic-static(inf)` keeps the placement computed on the
/// warm-up traffic for the whole run; the threshold switch flips to
/// static once ≥ 15% of the observed traffic is writes (epoch 2 at the
/// earliest, so it has a dynamic prefix to migrate away from).
fn strategies() -> Vec<StrategyKind> {
    vec![
        StrategyKind::Dynamic,
        StrategyKind::PeriodicStatic { replace_every_epochs: 0 },
        StrategyKind::PeriodicStatic { replace_every_epochs: 4 },
        StrategyKind::Hybrid { reseed_every_epochs: 4 },
        StrategyKind::FrozenStatic,
        StrategyKind::ThresholdSwitch { write_bound: 0.15, min_epochs: 2 },
    ]
}

fn main() {
    let (warmup, volume, epoch_requests) = volumes();
    println!(
        "EXP-STRAT — strategy matrix: {} families x {} topologies x {} strategies, \
         {} seed shards each, {} requests per seed{}\n",
        families().len(),
        topologies().len(),
        strategies().len(),
        SHARDS,
        warmup + volume,
        if exp_quick() { " (HBN_EXP_QUICK)" } else { "" }
    );

    let mut seed_source = seeded_rng(23);
    let mut cells = Vec::new();
    let mut strategy_labels = Vec::new();
    let mut t = Table::new([
        "family",
        "topology",
        "strategy",
        "online cong.",
        "migration",
        "vs hindsight",
        "repl",
        "coll",
        "makespan",
        "wall (ms)",
    ]);

    for (family, schedule) in families() {
        for topology in topologies() {
            // One seed set per (family, topology): every strategy serves
            // the *identical* request streams.
            let seeds = cell_seeds(seed_source.gen(), SHARDS);
            let processors = topology.build().n_processors();
            let spec = ScenarioSpec {
                epoch_requests,
                ..ScenarioSpec::new(
                    format!("{family}@{topology}"),
                    topology,
                    schedule.clone(),
                    THRESHOLD,
                    0,
                )
            };

            for strategy in strategies() {
                let start = Instant::now();
                let reports = shards(&seeds, |seed| {
                    run_scenario(&ScenarioSpec { seed, strategy, ..spec.clone() })
                });
                let wall = start.elapsed().as_secs_f64();

                let ratios: Vec<f64> = reports.iter().filter_map(|r| r.competitive_ratio).collect();
                let competitive_ratio =
                    (!ratios.is_empty()).then(|| ratios.iter().sum::<f64>() / ratios.len() as f64);
                // Label from the report, i.e. `Strategy::label()` itself —
                // the bench cell cannot drift from what the engine records.
                let label = reports[0].strategy.clone();
                let congestion = mean(reports.iter().map(|r| r.online_congestion.as_f64()));
                let migration = mean(reports.iter().map(|r| r.traffic.migration_traffic as f64));
                let replications = mean(reports.iter().map(|r| r.stats.replications as f64));
                let collapses = mean(reports.iter().map(|r| r.stats.collapses as f64));
                let makespan = mean(reports.iter().map(|r| r.total_makespan as f64));
                t.row([
                    family.to_string(),
                    topology.to_string(),
                    label.clone(),
                    format!("{congestion:.0}"),
                    format!("{migration:.0}"),
                    competitive_ratio.map_or("-".into(), |r| format!("{r:.2}x")),
                    format!("{replications:.0}"),
                    format!("{collapses:.0}"),
                    format!("{makespan:.0}"),
                    format!("{:.1}", wall * 1e3),
                ]);
                cells.push(
                    Obj::new()
                        .str("family", family)
                        .str("topology", &topology.to_string())
                        .str("strategy", &label)
                        .raw("processors", processors)
                        .raw("seeds", SHARDS)
                        .raw("requests_per_seed", schedule.total_requests())
                        .raw("epochs", reports[0].epochs.len())
                        .raw("threshold_d", spec.exec.threshold)
                        .raw("epoch_requests", spec.epoch_requests)
                        .f64("mean_online_congestion", congestion)
                        .f64("mean_migration_traffic", migration)
                        .opt_f64("mean_competitive_ratio", competitive_ratio)
                        .f64("mean_replications", replications)
                        .f64("mean_collapses", collapses)
                        .f64("mean_makespan_slots", makespan)
                        .f64("wall_seconds", wall)
                        .f64("requests_per_sec", per_sec(schedule.total_requests() * SHARDS, wall)),
                );
                strategy_labels.push(label);
            }
        }
    }

    println!("{}", t.render());
    println!(
        "Expected shape: on stationary read-mostly families the up-front static\n\
         placements (periodic-static(inf), frozen-static — equal on these\n\
         fault-free runs, where neither re-places after its bootstrap\n\
         placement) land near the hindsight optimum and the dynamic strategy pays\n\
         a small replication overhead on top; under hotspot-migration and\n\
         object-churn the frozen placement degrades while periodic\n\
         re-optimization buys its migration traffic back in service\n\
         congestion, and the hybrid tracks the dynamic strategy with cheaper\n\
         convergence after each re-seed. Write-heavy flips favour the dynamic\n\
         collapse rule everywhere — which is exactly the regime where\n\
         threshold-switch stays dynamic longest.\n"
    );

    let head = Obj::new()
        .raw("strategies", distinct(strategy_labels))
        .raw("families", distinct(families().into_iter().map(|(family, _)| family)));
    write_bench("BENCH_strategies.json", "strategy_matrix", &head, &[("cells", cells)])
        .expect("write BENCH_strategies.json");
    println!("wrote BENCH_strategies.json");
}
