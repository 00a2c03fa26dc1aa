//! EXP-SEQ (Theorem 4.3, runtime): the extended-nibble strategy's
//! measured wall-clock stays within
//! `O(|X| · |V| · height(T) · log(degree(T)))`. Steps 1–2 touch only
//! each object's support (the union of its requesters' root paths), so
//! time is linear in `|X|` but grows far below linearly in `|V|`: only
//! the global mapping phase scans the network.

#![warn(missing_docs)]

use hbn_bench::Table;
use hbn_core::ExtendedNibble;
use hbn_topology::generators::{balanced, bus_path, BandwidthProfile};
use hbn_workload::generators as wgen;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn time_place(net: &hbn_topology::Network, m: &hbn_workload::AccessMatrix) -> f64 {
    let strat = ExtendedNibble::new();
    let start = Instant::now();
    let out = strat.place(net, m).unwrap();
    std::hint::black_box(out);
    start.elapsed().as_secs_f64() * 1e3
}

fn main() {
    println!("EXP-SEQ — sequential runtime scaling of the extended-nibble strategy\n");
    let mut rng = StdRng::seed_from_u64(6);

    // (a) Scaling in |X| on a fixed network.
    let net = balanced(4, 3, BandwidthProfile::Uniform); // 64 procs
    let mut t = Table::new(["|X|", "time (ms)", "time / |X| (ms)"]);
    for objects in [50usize, 100, 200, 400, 800] {
        let m = wgen::zipf_read_mostly(&net, objects, objects * 40, 0.9, 0.3, &mut rng);
        let ms = time_place(&net, &m);
        t.row([objects.to_string(), format!("{ms:.2}"), format!("{:.4}", ms / objects as f64)]);
    }
    println!("{}", t.render());

    // (b) Scaling in |V| (balanced trees of growing width).
    let mut t = Table::new(["|V|", "height", "time (ms)", "time / |V| (us)"]);
    for branching in [2usize, 3, 4, 5, 6] {
        let net = balanced(branching, 3, BandwidthProfile::Uniform);
        let m = wgen::zipf_read_mostly(&net, 100, 4000, 0.9, 0.3, &mut rng);
        let ms = time_place(&net, &m);
        t.row([
            net.n_nodes().to_string(),
            net.height().to_string(),
            format!("{ms:.2}"),
            format!("{:.2}", ms * 1e3 / net.n_nodes() as f64),
        ]);
    }
    println!("{}", t.render());

    // (c) Scaling in height (bus paths).
    let mut t = Table::new(["height", "|V|", "time (ms)"]);
    for buses in [8usize, 16, 32, 64] {
        let net = bus_path(buses, BandwidthProfile::Uniform);
        let m = wgen::uniform(&net, 200, 6, 4, 1.0, &mut rng);
        let ms = time_place(&net, &m);
        t.row([net.height().to_string(), net.n_nodes().to_string(), format!("{ms:.2}")]);
    }
    println!("{}", t.render());
    println!(
        "Expected shape: (a) linear in |X|; (b) far below linear in |V|\n\
         (steps 1-2 follow each object's requesters; only the mapping phase\n\
         scans |V|), so time / |V| falls as |V| grows; (c) grows with height."
    );
}
