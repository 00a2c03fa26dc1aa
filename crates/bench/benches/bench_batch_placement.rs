//! Criterion benchmarks for the static-placement kernel: a
//! scratch-reusing `PlacementKernel` against the one-shot
//! `ExtendedNibble::place` (a fresh kernel per call) on a `balanced(4,4)`
//! tree (256 processors, 341 nodes) — the shape of one periodic
//! re-optimization epoch.
//!
//! Two instance shapes bracket the pipeline's regimes:
//!
//! * `zipf_heavy` — 1k heavily shared objects: the global mapping phase
//!   dominates, so scratch reuse buys little (reused ≈ one-shot).
//! * `sparse_many` — 8k objects with ~3 requesters each (the paper's
//!   many-pages scenario): the per-object gravity/nibble walks dominate.

#![warn(missing_docs)]

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hbn_core::{ExtendedNibble, PlacementKernel};
use hbn_topology::generators::{balanced, BandwidthProfile};
use hbn_topology::Network;
use hbn_workload::generators as wgen;
use hbn_workload::AccessMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn net() -> Network {
    balanced(4, 4, BandwidthProfile::Uniform)
}

fn zipf_heavy(net: &Network) -> (usize, AccessMatrix) {
    let mut rng = StdRng::seed_from_u64(31);
    (1_024, wgen::zipf_read_mostly(net, 1_024, 120_000, 0.9, 0.25, &mut rng))
}

fn sparse_many(net: &Network) -> (usize, AccessMatrix) {
    let mut rng = StdRng::seed_from_u64(32);
    (8_192, wgen::uniform(net, 8_192, 12, 2, 0.012, &mut rng))
}

fn bench_batch_placement(c: &mut Criterion) {
    let net = net();
    for (label, (objects, m)) in
        [("zipf_heavy", zipf_heavy(&net)), ("sparse_many", sparse_many(&net))]
    {
        let mut group = c.benchmark_group(format!("batch_placement/{label}"));
        group.throughput(Throughput::Elements(objects as u64));

        group.bench_function("per_object", |b| {
            b.iter(|| {
                let out = ExtendedNibble::new().place(&net, &m).unwrap();
                black_box(out.mapping.tau_max)
            })
        });

        // The kernel is constructed once and reused across iterations,
        // exactly as the periodic-static strategy reuses it across epochs.
        let mut kernel = PlacementKernel::new(&net);
        group.bench_function("batch_kernel", |b| {
            b.iter(|| {
                let out = kernel.place(&net, &m).unwrap();
                black_box(out.mapping.tau_max)
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_batch_placement);
criterion_main!(benches);
