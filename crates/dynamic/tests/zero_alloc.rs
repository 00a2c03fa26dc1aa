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

use hbn_dynamic::{DynamicTree, OnlineRequest};
use hbn_topology::generators::{balanced, BandwidthProfile};
use hbn_workload::ObjectId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // `const`-initialised: no lazy-init path, so touching the counter
    // from inside the allocator never allocates or recurses.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` rather than `with`: an allocator must never panic, and
    // a block allocated while its thread is torn down is no test's.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` contract carries over; counting touches
// only a thread-local `Cell`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` via this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A deterministic mixed pattern (remote reads saturating paths, write
/// collapses, re-replication) that exercises every serve branch.
fn pattern(net: &hbn_topology::Network) -> Vec<OnlineRequest> {
    let procs = net.processors();
    let n_objects = 8u32;
    let mut reqs = Vec::new();
    for round in 0..6usize {
        for x in 0..n_objects {
            for (i, &p) in procs.iter().enumerate() {
                reqs.push(OnlineRequest {
                    processor: p,
                    object: ObjectId(x),
                    is_write: (i + round) % 7 == 0,
                });
            }
        }
    }
    reqs
}

#[test]
fn steady_state_serve_allocates_nothing() {
    let net = balanced(3, 3, BandwidthProfile::Uniform);
    let reqs = pattern(&net);
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
