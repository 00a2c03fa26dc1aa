//! EXP-FAULT — degraded-mode behaviour of every strategy under
//! deterministic bus faults.
//!
//! For every cell (topology × strategy × fault plan) the hotspot
//! scenario runs twice: once fault-free and once under the plan — a
//! mid-run outage of a root-adjacent bus, a capacity degradation, or a
//! seeded random plan. The degraded run must serve every scheduled
//! request (outages defer packets, never drop them), charge repair
//! traffic at exactly `repairs × D`, and the document records the
//! degraded-mode competitive ratio next to the clean one plus the
//! recovery time in epochs.
//!
//! Emits `BENCH_faults.json`; `HBN_EXP_QUICK=1` runs the same cells at
//! CI-sized volumes.

#![warn(missing_docs)]

use hbn_bench::{
    exp_quick, root_adjacent_bus, strategy_axis, write_bench, Obj, StrategyAxis, Table,
};
use hbn_scenario::{run_scenario_with, FaultPlan, ScenarioReport, ScenarioSpec, TopologyFamily};
use hbn_testutil::{cell_seeds, family_schedules, seeded_rng};
use hbn_topology::Network;
use rand::Rng;
use std::time::Instant;

/// Live objects at schedule start.
const OBJECTS: usize = 24;
/// Replication / migration charge `D`.
const THRESHOLD: u64 = 3;

/// (warm-up requests, measured-phase requests, requests per replay
/// epoch) per schedule.
fn volumes() -> (usize, usize, usize) {
    if exp_quick() {
        (400, 2_000, 400)
    } else {
        (4_000, 40_000, 4_000)
    }
}

/// The fault-plan axis for a run of `n_epochs` epochs on `net`.
fn fault_plans(net: &Network, n_epochs: usize, seed: u64) -> Vec<(String, FaultPlan)> {
    let bus = root_adjacent_bus(net);
    let from = (n_epochs * 2 / 5).max(1);
    let to = (n_epochs * 3 / 5).max(from + 1);
    vec![
        (format!("outage(e{from}..{to})"), FaultPlan::single_outage(bus, from, to)),
        (
            format!("degrade/4(e{from}..{to})"),
            FaultPlan::default().degrade(from, bus, 4).restore(to, bus),
        ),
        (format!("seeded({seed})"), FaultPlan::seeded(net, seed, n_epochs)),
    ]
}

fn run(spec: &ScenarioSpec, strategy: StrategyAxis) -> ScenarioReport {
    run_scenario_with(spec, |net, exec, n| strategy.build(net, exec, n))
}

fn main() {
    let (warmup, volume, epoch_requests) = volumes();
    let (family, schedule) = family_schedules(OBJECTS, warmup, volume).swap_remove(1);
    let topologies = [
        TopologyFamily::Balanced { branching: 3, height: 2 },
        TopologyFamily::Caterpillar { spine: 4, legs: 3 },
    ];
    let n_epochs: usize = schedule.phases.iter().map(|p| p.requests.div_ceil(epoch_requests)).sum();

    println!(
        "EXP-FAULT — degraded-mode matrix: {family} x {} topologies x {} strategies \
         x 3 fault plans, {} requests per run, {} epochs{}\n",
        topologies.len(),
        strategy_axis().len(),
        warmup + volume,
        n_epochs,
        if exp_quick() { " (HBN_EXP_QUICK)" } else { "" }
    );

    let mut seed_source = seeded_rng(53);
    let mut cells = Vec::new();
    let mut recovered = 0usize;
    let mut t = Table::new([
        "scenario",
        "strategy",
        "fault plan",
        "repairs",
        "repair traffic",
        "ratio",
        "clean ratio",
        "recovery",
    ]);

    for topology in topologies {
        let net = topology.build();
        let cell_seed = cell_seeds(seed_source.gen(), 1)[0];
        let plans = fault_plans(&net, n_epochs, cell_seed);
        for strategy in strategy_axis() {
            let clean_spec = ScenarioSpec {
                epoch_requests,
                ..ScenarioSpec::new(
                    format!("{family}@{topology}"),
                    topology,
                    schedule.clone(),
                    THRESHOLD,
                    cell_seed,
                )
            };
            let clean = run(&clean_spec, strategy);

            for (plan_label, plan) in &plans {
                let mut spec = clean_spec.clone();
                spec.faults = plan.clone();
                let start = Instant::now();
                let report = run(&spec, strategy);
                let wall = start.elapsed().as_secs_f64();

                // Degraded-mode acceptance: nothing lost, movement
                // charged at exactly D per crossed edge.
                assert_eq!(
                    report.traffic.requests,
                    (warmup + volume) as u64,
                    "{plan_label} under {}: traffic lost to the fault",
                    report.strategy
                );
                assert_eq!(report.traffic.repair_traffic, report.traffic.repairs * THRESHOLD);
                assert_eq!(
                    report.traffic.migration_traffic,
                    report.traffic.replications * THRESHOLD
                );

                let faulty_epochs =
                    report.epochs.iter().filter(|e| e.buses_down + e.buses_degraded > 0).count();
                let fmt_ratio =
                    |r: Option<f64>| r.map(|v| format!("{v:.3}")).unwrap_or_else(|| "-".into());
                t.row([
                    format!("{family}@{topology}"),
                    report.strategy.clone(),
                    plan_label.clone(),
                    report.traffic.repairs.to_string(),
                    report.traffic.repair_traffic.to_string(),
                    fmt_ratio(report.competitive_ratio),
                    fmt_ratio(clean.competitive_ratio),
                    report.recovery_epochs.map(|k| format!("{k} ep")).unwrap_or_else(|| "-".into()),
                ]);
                recovered += usize::from(report.recovery_epochs.is_some());
                cells.push(
                    Obj::new()
                        .str("scenario", &format!("{family}@{topology}"))
                        .str("strategy", &report.strategy)
                        .str("fault_plan", plan_label)
                        .raw("seed", cell_seed)
                        .raw("requests", report.traffic.requests)
                        .raw("epochs", report.epochs.len())
                        .raw("faulty_epochs", faulty_epochs)
                        .raw("repairs", report.traffic.repairs)
                        .raw("repair_traffic", report.traffic.repair_traffic)
                        .raw("migration_traffic", report.traffic.migration_traffic)
                        .opt_f64("competitive_ratio", report.competitive_ratio)
                        .opt_f64("clean_competitive_ratio", clean.competitive_ratio)
                        .raw("makespan_slots", report.total_makespan)
                        .raw("clean_makespan_slots", clean.total_makespan)
                        .opt("recovery_epochs", report.recovery_epochs)
                        .f64("wall_seconds", wall),
                );
            }
        }
    }

    println!("{}", t.render());
    println!(
        "Every degraded run served its full schedule (outages defer packets,\n\
         never drop them) and charged repair traffic at exactly repairs x D —\n\
         the same unit as migration, so the ratio columns stay comparable.\n"
    );

    let head = Obj::new().raw("cells_recovered_in_run", recovered);
    write_bench("BENCH_faults.json", "fault_matrix", &head, &[("cells", cells)])
        .expect("write BENCH_faults.json");
    println!("wrote BENCH_faults.json");
}
