//! An SCI workstation cluster (Figures 1–2 of the paper): model a ring of
//! rings, reduce it to the equivalent hierarchical bus network, place a
//! parallel-program workload with several strategies, and replay the
//! traffic on the packet simulator to see makespan track congestion.
//!
//! Run with: `cargo run --release --example sci_cluster`

use hierbus::baselines::{
    ExtendedNibbleStrategy, GreedyCongestion, OwnerLeaf, RandomLeaf, Strategy,
};
use hierbus::prelude::*;
use hierbus::sim::{expand_shuffled, simulate, SimConfig};
use hierbus::topology::sci::ring_of_rings;
use rand::rngs::StdRng;

fn main() {
    // Eight SCI ringlets of six workstations each, joined by a top ring.
    let rings = ring_of_rings(8, 6, 32, 8);
    let conv = rings.to_bus_network().expect("valid ring network");
    let net = conv.network;
    println!(
        "SCI cluster: {} ringlets -> bus tree with {} processors / {} buses",
        rings.n_rings(),
        net.n_processors(),
        net.n_buses()
    );

    // Producer/consumer sharing: each object written by one node, read by 5.
    let mut rng = StdRng::seed_from_u64(2000);
    let matrix = hierbus::workload::generators::producer_consumer(&net, 48, 5, 20, 8, &mut rng);

    let strategies: Vec<Box<dyn Strategy>> = vec![
        Box::new(RandomLeaf::new(1)),
        Box::new(OwnerLeaf),
        Box::new(GreedyCongestion),
        Box::new(ExtendedNibbleStrategy),
    ];

    let trace = expand_shuffled(&matrix, &mut rng);
    println!("{:<20} {:>12} {:>12} {:>10}", "strategy", "congestion", "makespan", "latency");
    for s in &strategies {
        let placement = s.place(&net, &matrix);
        placement.validate(&net, &matrix).expect("strategies produce valid placements");
        let congestion =
            LoadMap::from_placement(&net, &matrix, &placement).congestion(&net).congestion;
        let sim = simulate(&net, &matrix, &placement, &trace, SimConfig::default())
            .expect("trace covered");
        println!(
            "{:<20} {:>12} {:>12} {:>10.1}",
            s.name(),
            congestion.to_string(),
            sim.makespan,
            sim.mean_latency
        );
    }
    println!("\nLower congestion should mean lower makespan — the paper's motivation.");
}
