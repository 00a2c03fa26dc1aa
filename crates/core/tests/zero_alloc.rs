//! Allocation accounting for the production static-placement kernel, via
//! a counting global allocator (this integration test is its own binary,
//! so the allocator swap is local to it). Each thread counts only its own
//! allocations, so the tests hold however many of them the harness runs
//! side by side.
//!
//! Once a kernel's buffers have grown, a [`PlacementKernel::place`]
//! allocates the copy sets it returns and a constant beyond them — not
//! per-object copies, request groups or intermediate placements — its
//! readout ([`PlacementKernel::final_copies`]) and its step-1-only pass
//! allocate nothing, and a clone copies none of the grown buffers.

use hbn_core::PlacementKernel;
use hbn_testutil::{allocations, seeded_rng, CountingAlloc};
use hbn_topology::generators::{balanced, BandwidthProfile};
use hbn_workload::generators as wgen;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_place_allocates_only_the_copy_sets() {
    let net = balanced(5, 3, BandwidthProfile::Uniform);
    let m = wgen::zipf_read_mostly(&net, 2_000, 80_000, 0.9, 0.3, &mut seeded_rng(20));
    let mut kernel = PlacementKernel::new(&net);
    // Warm-up: the same matrix grows every buffer to its high-water size.
    drop(kernel.place(&net, &m).unwrap());

    let before = allocations();
    let placement = kernel.place(&net, &m).unwrap();
    let made = allocations() - before;

    let objects = m.n_objects() as u64;
    let copy_sets = m.objects().filter(|&x| !placement.copies(x).is_empty()).count() as u64;
    assert!(made < 2 * objects, "a warm place made {made} allocations for {objects} objects");
    assert!(
        made <= copy_sets + 8,
        "a warm place made {made} allocations beyond its {copy_sets} copy sets' blocks"
    );
}

#[test]
fn warm_readout_allocates_nothing() {
    let net = balanced(5, 3, BandwidthProfile::Uniform);
    let m = wgen::zipf_read_mostly(&net, 2_000, 80_000, 0.9, 0.3, &mut seeded_rng(23));
    let mut kernel = PlacementKernel::new(&net);
    let copies: usize = kernel.final_copies(&net, &m).unwrap().map(<[_]>::len).sum();

    let before = allocations();
    let again: usize = kernel.final_copies(&net, &m).unwrap().map(<[_]>::len).sum();
    let made = allocations() - before;
    assert!(copies > 0);
    assert_eq!(again, copies);
    assert_eq!(made, 0, "a warm readout allocated {made} times");
}

#[test]
fn clone_of_a_warm_kernel_copies_no_scratch() {
    // Strategy checkpoints clone the kernel: the clone gets the node
    // count and fresh per-node slots, never the grown buffers.
    let net = balanced(5, 3, BandwidthProfile::Uniform);
    let m = wgen::zipf_read_mostly(&net, 2_000, 80_000, 0.9, 0.3, &mut seeded_rng(22));
    let mut kernel = PlacementKernel::new(&net);
    let placement = kernel.place(&net, &m).unwrap();

    let before = allocations();
    let mut clone = kernel.clone();
    let made = allocations() - before;
    assert!(made <= 4, "cloning a warm kernel made {made} allocations");
    assert_eq!(clone.place(&net, &m).unwrap(), placement);
}

#[test]
fn warm_nibble_pass_allocates_nothing() {
    let net = balanced(4, 3, BandwidthProfile::Uniform);
    let m = wgen::zipf_read_mostly(&net, 500, 20_000, 0.9, 0.3, &mut seeded_rng(21));
    let mut kernel = PlacementKernel::new(&net);
    for x in m.objects() {
        kernel.nibble_copies(&net, &m, x);
    }

    let before = allocations();
    let mut seeded = 0;
    for x in m.objects() {
        seeded += kernel.nibble_copies(&net, &m, x).len();
    }
    let made = allocations() - before;
    assert!(seeded > 0);
    assert_eq!(made, 0, "a warm step-1 pass allocated {made} times");
}
