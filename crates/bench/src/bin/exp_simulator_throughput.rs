//! EXP-SIM (Section 1 motivation, ref \[8\]): replay identical traffic under
//! placements of different congestion and measure the batch makespan on
//! the packet simulator. The paper's premise — execution time tracks the
//! congestion of the data management strategy — should appear as a tight
//! monotone relation. (The replay kernel's own throughput against its
//! oracle is EXP-REPLAY, `exp_replay_scaling`.)

#![warn(missing_docs)]

use hbn_baselines::{ExtendedNibbleStrategy, GreedyCongestion, OwnerLeaf, RandomLeaf, Strategy};
use hbn_bench::Table;
use hbn_load::{LoadMap, Placement};
use hbn_sim::{expand_shuffled, simulate_with, SimConfig, SimResult, SimWorkspace};
use hbn_topology::generators::{balanced, BandwidthProfile};
use hbn_topology::Network;
use hbn_workload::generators as wgen;
use hbn_workload::AccessMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// Replay `trace` under every placement in parallel (one workspace per
/// replay; the replays are independent).
fn replay_all(
    net: &Network,
    m: &AccessMatrix,
    strategies: &[(String, Placement)],
    trace: &[hbn_sim::Request],
) -> Vec<SimResult> {
    strategies
        .par_iter()
        .map(|(_, placement)| {
            let mut ws = SimWorkspace::new();
            simulate_with(&mut ws, net, m, placement, trace, SimConfig::default())
                .expect("full replay is always routable")
        })
        .collect()
}

fn congestion_vs_makespan() {
    println!("EXP-SIM — makespan vs congestion (the congestion-matters claim)\n");
    let net = balanced(3, 3, BandwidthProfile::Uniform);
    let mut rng = StdRng::seed_from_u64(9);
    let m = wgen::zipf_read_mostly(&net, 32, 4000, 0.9, 0.25, &mut rng);
    let trace = expand_shuffled(&m, &mut rng);

    let strategies: Vec<(String, Placement)> = vec![
        ("single-leaf".into(), Placement::single_leaf(&net, &m, |_| net.processors()[0])),
        ("random-leaf".into(), RandomLeaf::new(3).place(&net, &m)),
        ("owner-leaf".into(), OwnerLeaf.place(&net, &m)),
        ("greedy".into(), GreedyCongestion.place(&net, &m)),
        ("extended-nibble".into(), ExtendedNibbleStrategy::default().place(&net, &m)),
    ];

    let results = replay_all(&net, &m, &strategies, &trace);

    let mut t = Table::new([
        "placement",
        "congestion",
        "makespan",
        "makespan/congestion",
        "mean lat",
        "p99 lat",
    ]);
    let mut points = Vec::new();
    for ((name, placement), sim) in strategies.iter().zip(&results) {
        let congestion = LoadMap::from_placement(&net, &m, placement).congestion(&net).congestion;
        let c = congestion.as_f64();
        points.push((c, sim.makespan as f64));
        t.row([
            name.clone(),
            congestion.to_string(),
            sim.makespan.to_string(),
            format!("{:.3}", sim.makespan as f64 / c.max(1.0)),
            format!("{:.1}", sim.mean_latency),
            sim.p99_latency.to_string(),
        ]);
    }
    println!("{}", t.render());

    // Pearson correlation between congestion and makespan.
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let cov = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>();
    let sx = points.iter().map(|p| (p.0 - mx).powi(2)).sum::<f64>().sqrt();
    let sy = points.iter().map(|p| (p.1 - my).powi(2)).sum::<f64>().sqrt();
    println!("congestion-makespan correlation: {:.4}", cov / (sx * sy));
    println!(
        "\nExpected shape: makespan ≥ congestion on every row, ratio close to 1\n\
         for good placements, correlation near 1.0 — congestion predicts\n\
         completion time, as the paper's motivation (ref [8]) claims.\n"
    );
}

fn main() {
    congestion_vs_makespan();
}
