//! Criterion benchmarks for the dynamic-strategy serve kernels: the
//! zero-allocation `DynamicTree::serve` against the naive
//! `serve_reference`, on a six-family phase tour at `balanced(4,3)`
//! (64 processors), plus a write-heavy ping-pong instance tracking the
//! collapse fast path.

#![warn(missing_docs)]

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hbn_dynamic::{online_trace, DynamicTree, OnlineRequest};
use hbn_topology::generators::{balanced, star, BandwidthProfile};
use hbn_topology::Network;
use hbn_workload::phases::full_tour;
use hbn_workload::ObjectId;
use std::hint::black_box;

const OBJECTS: usize = 64;
const THRESHOLD: u64 = 3;

/// The tour trace plus the id-space bound (object churn mints fresh ids
/// beyond the initial set).
fn tour_trace(net: &Network, total: usize) -> (Vec<OnlineRequest>, usize) {
    let schedule = full_tour(OBJECTS, total / 6);
    (online_trace(net, &schedule, 7), schedule.max_objects())
}

fn serve_all(net: &Network, reqs: &[OnlineRequest], max_objects: usize, fast: bool) -> u64 {
    let mut strategy = DynamicTree::new(net, max_objects, THRESHOLD);
    for &req in reqs {
        if fast {
            strategy.serve(net, req);
        } else {
            strategy.serve_reference(net, req);
        }
    }
    strategy.loads().total()
}

fn bench_serve_kernels(c: &mut Criterion) {
    let net = balanced(4, 3, BandwidthProfile::Uniform);
    let (reqs, max_objects) = tour_trace(&net, 18_000);
    let mut group = c.benchmark_group("dynamic_serve_balanced_4_3");
    group.throughput(Throughput::Elements(reqs.len() as u64));

    group.bench_function("fast", |b| {
        b.iter(|| black_box(serve_all(&net, &reqs, max_objects, true)))
    });
    group.bench_function("reference_naive", |b| {
        b.iter(|| black_box(serve_all(&net, &reqs, max_objects, false)))
    });
    group.finish();
}

fn bench_write_collapse(c: &mut Criterion) {
    // Alternating remote reads and writes on one object: every write pays
    // a broadcast + collapse, every read pair re-replicates — the
    // counter-reset hot path the generation stamps optimize.
    let net = star(32, 8);
    let procs = net.processors();
    let reqs: Vec<OnlineRequest> = (0..12_000usize)
        .map(|i| OnlineRequest {
            processor: procs[i % procs.len()],
            object: ObjectId(0),
            is_write: i % 3 == 2,
        })
        .collect();
    let mut group = c.benchmark_group("dynamic_serve_ping_pong_star_32");
    group.throughput(Throughput::Elements(reqs.len() as u64));
    group.bench_function("fast", |b| b.iter(|| black_box(serve_all(&net, &reqs, 1, true))));
    group.bench_function("reference_naive", |b| {
        b.iter(|| black_box(serve_all(&net, &reqs, 1, false)))
    });
    group.finish();
}

criterion_group!(benches, bench_serve_kernels, bench_write_collapse);
criterion_main!(benches);
