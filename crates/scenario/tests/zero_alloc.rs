//! Allocation accounting for the scenario engine, via the shared
//! counting global allocator (this integration test is its own binary,
//! so the allocator swap is local to it):
//!
//! - an epoch the built-in dynamic strategy has already served once —
//!   every stamp vector, replica list and the path buffer at its
//!   high-water size — must perform **zero** heap allocations on the
//!   calling thread;
//! - a warm `Session` epoch of a static policy that does not re-place
//!   allocates the same blocks and bytes whatever the object bound: the
//!   epoch matrix and the snapshot placement are reused, not rebuilt at
//!   `max_objects`.

use hbn_dynamic::OnlineRequest;
use hbn_scenario::{
    ExecutionConfig, FrozenStatic, ReplayKernel, ScenarioSpec, Session, StrategyKind,
    TopologyFamily,
};
use hbn_testutil::{allocated_bytes, allocations, mixed_serve_pattern, CountingAlloc};
use hbn_topology::generators::{balanced, BandwidthProfile};
use hbn_workload::phases::{PhaseKind, PhaseSchedule, PhaseSpec};
use hbn_workload::{AccessMatrix, ObjectId};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_serve_batch_allocates_nothing() {
    let net = balanced(3, 3, BandwidthProfile::Uniform);
    let trace = mixed_serve_pattern(&net);
    let mut epoch_matrix = AccessMatrix::new(8);
    for req in &trace {
        let w = u64::from(req.is_write);
        epoch_matrix.add(req.processor, req.object, 1 - w, w);
    }
    let exec = ExecutionConfig { threshold: 2, ..ExecutionConfig::default() };
    let mut strategy = StrategyKind::Dynamic.build(&net, &exec, 8);

    // Warm-up epoch: grows every lazy per-object buffer to its high-water
    // size. The identical second epoch drives the identical state
    // evolution, so every buffer already fits.
    strategy.serve_batch(&net, &trace, &epoch_matrix);
    let before = allocations();
    strategy.serve_batch(&net, &trace, &epoch_matrix);
    let after = allocations();
    assert_eq!(after - before, 0, "serve_batch allocated {} times in steady state", after - before);
}

/// Blocks and bytes the second of two identical pushed epochs allocates,
/// on a frozen-static session over `max_objects` object ids.
fn warm_push(max_objects: usize, replay: ReplayKernel) -> (u64, u64) {
    let schedule = PhaseSchedule::new(
        max_objects,
        vec![PhaseSpec::new(
            "zipf",
            PhaseKind::StaticZipf { skew: 0.9, write_fraction: 0.2 },
            1_000,
        )],
    );
    let topology = TopologyFamily::Balanced { branching: 3, height: 2 };
    let mut spec = ScenarioSpec::new("warm-push", topology, schedule, 2, 0);
    spec.exec.replay = replay;
    let mut session =
        Session::with_strategy(&spec, |net, exec, n| Box::new(FrozenStatic::new(net, exec, n)));
    let p = session.network().processors().to_vec();
    let batch: Vec<OnlineRequest> = (0..240)
        .map(|i| OnlineRequest {
            processor: p[(i * 7) % p.len()],
            object: ObjectId(((i * 13) % 97 * 5) as u32),
            is_write: i % 6 == 0,
        })
        .collect();
    session.push_epoch(&batch).unwrap();
    let (blocks, bytes) = (allocations(), allocated_bytes());
    session.push_epoch(&batch).unwrap();
    (allocations() - blocks, allocated_bytes() - bytes)
}

#[test]
fn warm_epoch_allocation_does_not_grow_with_max_objects() {
    for replay in [ReplayKernel::Workspace, ReplayKernel::Estimate { sample_every: 0 }] {
        let small = warm_push(1_000, replay);
        let large = warm_push(100_000, replay);
        assert_eq!(small, large, "{replay}: a warm epoch's (blocks, bytes) at 1k and 100k objects");
    }
}
