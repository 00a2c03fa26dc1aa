//! Criterion benchmarks for the packet simulator: the event-driven
//! workspace kernel (fresh and reused) against the naive reference
//! oracle, on the acceptance instance `balanced(4,3)` with 512 objects
//! and ~15k requests, plus a smaller instance tracking per-slot overhead.

#![warn(missing_docs)]

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hbn_baselines::{ExtendedNibbleStrategy, Strategy};
use hbn_load::Placement;
use hbn_sim::{
    expand_shuffled, simulate, simulate_reference, simulate_with, Request, SimConfig, SimWorkspace,
};
use hbn_topology::generators::{balanced, BandwidthProfile};
use hbn_topology::Network;
use hbn_workload::generators as wgen;
use hbn_workload::AccessMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

struct Instance {
    net: Network,
    m: AccessMatrix,
    placement: Placement,
    trace: Vec<Request>,
}

fn instance(branching: usize, height: u32, objects: usize, requests: usize) -> Instance {
    let net = balanced(branching, height, BandwidthProfile::Uniform);
    let mut rng = StdRng::seed_from_u64(9);
    let m = wgen::zipf_read_mostly(&net, objects, requests, 0.9, 0.25, &mut rng);
    let placement = ExtendedNibbleStrategy::default().place(&net, &m);
    let trace = expand_shuffled(&m, &mut rng);
    Instance { net, m, placement, trace }
}

fn bench_kernels(c: &mut Criterion) {
    let inst = instance(4, 3, 512, 15_000);
    let mut group = c.benchmark_group("simulator_replay_balanced_4_3");
    group.throughput(Throughput::Elements(inst.trace.len() as u64));

    let mut ws = SimWorkspace::new();
    group.bench_function("optimized_reused_workspace", |b| {
        b.iter(|| {
            black_box(
                simulate_with(
                    &mut ws,
                    &inst.net,
                    &inst.m,
                    &inst.placement,
                    &inst.trace,
                    SimConfig::default(),
                )
                .unwrap(),
            )
        })
    });
    group.bench_function("optimized_fresh_workspace", |b| {
        b.iter(|| {
            black_box(
                simulate(&inst.net, &inst.m, &inst.placement, &inst.trace, SimConfig::default())
                    .unwrap(),
            )
        })
    });
    group.bench_function("reference_naive", |b| {
        b.iter(|| {
            black_box(
                simulate_reference(
                    &inst.net,
                    &inst.m,
                    &inst.placement,
                    &inst.trace,
                    SimConfig::default(),
                )
                .unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_small_slots(c: &mut Criterion) {
    // A small congested instance: per-slot bookkeeping dominates, so this
    // tracks the kernel's fixed overhead rather than bulk throughput.
    let inst = instance(2, 2, 8, 600);
    let mut group = c.benchmark_group("simulator_replay_small");
    group.throughput(Throughput::Elements(inst.trace.len() as u64));
    let mut ws = SimWorkspace::new();
    group.bench_function("optimized_reused_workspace", |b| {
        b.iter(|| {
            black_box(
                simulate_with(
                    &mut ws,
                    &inst.net,
                    &inst.m,
                    &inst.placement,
                    &inst.trace,
                    SimConfig::default(),
                )
                .unwrap(),
            )
        })
    });
    group.bench_function("reference_naive", |b| {
        b.iter(|| {
            black_box(
                simulate_reference(
                    &inst.net,
                    &inst.m,
                    &inst.placement,
                    &inst.trace,
                    SimConfig::default(),
                )
                .unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_kernels, bench_small_slots);
criterion_main!(benches);
