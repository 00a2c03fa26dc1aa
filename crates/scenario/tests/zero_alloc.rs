//! Allocation accounting for the scenario engine's dynamic serve path,
//! via the shared counting global allocator (this integration test is
//! its own binary, so the allocator swap is local to it): an epoch the
//! built-in dynamic strategy has already served once — every stamp
//! vector, replica list and the path buffer at its high-water size —
//! must perform **zero** heap allocations on the calling thread.

use hbn_scenario::{ExecutionConfig, StrategyKind};
use hbn_testutil::{allocations, mixed_serve_pattern, CountingAlloc};
use hbn_topology::generators::{balanced, BandwidthProfile};
use hbn_workload::AccessMatrix;

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
