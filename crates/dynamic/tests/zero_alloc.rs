//! Allocation accounting for the serve path, via a counting global
//! allocator (this integration test is its own binary, so the allocator
//! swap is local to it). Each thread counts only its own allocations, so
//! the tests hold however many of them the harness runs side by side:
//!
//! * steady-state serves — a request pattern the strategy has already seen
//!   once, so every stamp vector, replica list and the path buffer is at
//!   its high-water size — must perform **zero** heap allocations;
//! * `DynamicTree::new` for millions of objects must allocate O(1)
//!   *blocks* (the lazy `None` slots plus the load map), not O(objects)
//!   per-object state.

use hbn_dynamic::DynamicTree;
use hbn_testutil::{allocations, mixed_serve_pattern, CountingAlloc};
use hbn_topology::generators::{balanced, BandwidthProfile};
use hbn_workload::ObjectId;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_serve_allocates_nothing() {
    let net = balanced(3, 3, BandwidthProfile::Uniform);
    let reqs = mixed_serve_pattern(&net);
    let mut strategy = DynamicTree::new(&net, 8, 2);

    // Warm-up pass: grows every lazy stamp vector, replica list and the
    // owned path buffer to its high-water size.
    for &req in &reqs {
        strategy.serve(&net, req);
    }

    // Steady state: the identical pattern drives the identical state
    // evolution, so every buffer already fits. Zero allocations allowed.
    let before = allocations();
    for &req in &reqs {
        strategy.serve(&net, req);
    }
    let after = allocations();
    assert_eq!(after - before, 0, "serve path allocated {} times in steady state", after - before);
}

#[test]
fn construction_is_lazy_for_millions_of_objects() {
    let net = balanced(3, 3, BandwidthProfile::Uniform);
    let before = allocations();
    let strategy = DynamicTree::new(&net, 2_000_000, 3);
    let after = allocations();
    // One block for the object slots, one for the load map — a small
    // constant, never O(objects) per-object state.
    assert!(
        after - before <= 8,
        "constructing 2M lazy objects allocated {} blocks",
        after - before
    );
    assert!(strategy.replicas(ObjectId(1_999_999)).is_empty());
}
