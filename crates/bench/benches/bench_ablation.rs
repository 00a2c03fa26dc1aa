//! Ablation benchmarks for the design choices called out in DESIGN.md:
//!
//! * max-slack (heap) vs first-fit free-edge selection in the downwards
//!   phase of the mapping algorithm;
//! * one vs several `PlacementKernel` object shards for steps 1–2;
//! * exact-rational vs float congestion comparison.

#![warn(missing_docs)]

use criterion::{criterion_group, criterion_main, Criterion};
use hbn_core::{
    ExtendedNibble, ExtendedNibbleOptions, FreeEdgePolicy, MappingOptions, PlacementKernel,
};
use hbn_load::{LoadMap, LoadRatio};
use hbn_topology::generators::{balanced, BandwidthProfile};
use hbn_workload::generators as wgen;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_edge_policy(c: &mut Criterion) {
    // High-degree tree with many mapped copies: the heap's O(log degree)
    // vs first-fit's O(degree) per move.
    let net = balanced(8, 2, BandwidthProfile::Uniform);
    let m = wgen::shared_write(&net, 32, 1, 2);
    let mut group = c.benchmark_group("mapping_edge_policy");
    for (name, policy) in
        [("max_slack_heap", FreeEdgePolicy::MaxSlack), ("first_fit_scan", FreeEdgePolicy::FirstFit)]
    {
        let strat = ExtendedNibble {
            options: ExtendedNibbleOptions {
                mapping: MappingOptions { edge_policy: policy, ..Default::default() },
            },
        };
        group.bench_function(name, |b| b.iter(|| black_box(strat.place(&net, &m).unwrap())));
    }
    group.finish();
}

fn bench_parallel_objects(c: &mut Criterion) {
    let net = balanced(4, 3, BandwidthProfile::Uniform);
    let mut rng = StdRng::seed_from_u64(7);
    let m = wgen::zipf_read_mostly(&net, 512, 20_000, 0.9, 0.3, &mut rng);
    let mut group = c.benchmark_group("parallel_objects");
    for shards in [1usize, 4] {
        let mut kernel = PlacementKernel::new(&net, shards);
        group.bench_function(format!("shards_{shards}"), |b| {
            b.iter(|| black_box(kernel.place(&net, &m).unwrap()))
        });
    }
    group.finish();
}

fn bench_congestion_arithmetic(c: &mut Criterion) {
    let net = balanced(4, 3, BandwidthProfile::FatTree { base: 2, cap: 16 });
    let mut rng = StdRng::seed_from_u64(8);
    let m = wgen::zipf_read_mostly(&net, 64, 5000, 0.9, 0.3, &mut rng);
    let out = ExtendedNibble::new().place(&net, &m).unwrap();
    let loads = LoadMap::from_placement(&net, &m, &out.placement);
    let mut group = c.benchmark_group("congestion_arithmetic");
    group.bench_function("exact_rational", |b| b.iter(|| black_box(loads.congestion(&net))));
    group.bench_function("float_max", |b| {
        b.iter(|| {
            let mut best = 0.0f64;
            for e in net.edges() {
                best = best.max(loads.edge_load(e) as f64 / net.edge_bandwidth(e) as f64);
            }
            for v in net.nodes().filter(|&v| net.is_bus(v)) {
                best = best
                    .max(loads.bus_load_x2(&net, v) as f64 / (2 * net.node_bandwidth(v)) as f64);
            }
            black_box(LoadRatio::ZERO);
            black_box(best)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_edge_policy, bench_parallel_objects, bench_congestion_arithmetic);
criterion_main!(benches);
