//! Differential suite for the production static-placement kernel: the
//! copy sets a [`PlacementKernel`] builds — reused across successive
//! matrices, the way the re-placing policies reuse it — must equal the
//! final placement of the full-outcome reference
//! [`ExtendedNibble::place`] object by object, and its step-1-only pass
//! must equal the reference's nibble placement. Stale scratch must never
//! leak between objects or calls.

use hbn_core::{ExtendedNibble, PlacementKernel};
use hbn_testutil::{arb_network, seeded_rng, workload_from_seed};
use hbn_topology::generators::{balanced, bus_path, random_network, star, BandwidthProfile};
use hbn_topology::Network;
use hbn_workload::generators as wgen;
use hbn_workload::AccessMatrix;
use proptest::prelude::*;

/// Assert that `kernel` builds the reference's final copy sets, with no
/// assignment entries, and the reference's nibble copy sets.
fn assert_kernel_matches_reference(net: &Network, m: &AccessMatrix, kernel: &mut PlacementKernel) {
    let reference = ExtendedNibble::new().place(net, m).expect("reference");
    let copies = kernel.place(net, m).expect("kernel");
    assert_eq!(copies.n_objects(), m.n_objects());
    for x in m.objects() {
        assert_eq!(copies.copies(x), reference.placement.copies(x), "final copies of {x}");
        assert!(copies.assignment(x).is_empty(), "assignment entries for {x}");
        assert_eq!(
            kernel.nibble_copies(net, m, x),
            reference.nibble_placement.copies(x),
            "nibble copies of {x}"
        );
    }
    assert!(copies.is_leaf_only(net));
}

#[test]
fn batch_matches_per_object_on_random_instances() {
    let mut rng = seeded_rng(101);
    for _ in 0..25 {
        let net = random_network(6, 12, BandwidthProfile::Uniform, &mut rng);
        let mut kernel = PlacementKernel::new(&net);
        for _ in 0..3 {
            let m = wgen::uniform(&net, 7, 6, 4, 0.6, &mut rng);
            assert_kernel_matches_reference(&net, &m, &mut kernel);
        }
    }
}

#[test]
fn kernel_reuse_across_epochs_stays_exact() {
    // One kernel, many successive matrices of different object counts
    // (the periodic re-optimization pattern): stale scratch must never
    // leak between calls, and a clone (fresh scratch) places the same.
    let net = balanced(3, 2, BandwidthProfile::Uniform);
    let mut kernel = PlacementKernel::new(&net);
    for seed in 0..12u64 {
        let m = workload_from_seed(&net, 1 + seed as usize % 7, 7, 4, 0.7, seed);
        assert_kernel_matches_reference(&net, &m, &mut kernel);
        let mut clone = kernel.clone();
        assert_eq!(clone.place(&net, &m).unwrap(), kernel.place(&net, &m).unwrap());
    }
}

#[test]
fn kernel_matches_reference_on_skewed_deep_and_write_heavy_workloads() {
    // Zipf traffic on a wide tree, uniform traffic with heavy writes on
    // deep bus paths (many deletions and splits), and all-writer objects
    // whose single copy starts on the bus.
    let mut rng = seeded_rng(102);
    let wide = balanced(4, 3, BandwidthProfile::Uniform);
    let mut kernel = PlacementKernel::new(&wide);
    for objects in [50, 300] {
        let m = wgen::zipf_read_mostly(&wide, objects, objects * 40, 0.9, 0.3, &mut rng);
        assert_kernel_matches_reference(&wide, &m, &mut kernel);
    }
    for buses in [8, 16] {
        let deep = bus_path(buses, BandwidthProfile::Uniform);
        let mut kernel = PlacementKernel::new(&deep);
        for _ in 0..3 {
            let m = wgen::uniform(&deep, 40, 6, 4, 1.0, &mut rng);
            assert_kernel_matches_reference(&deep, &m, &mut kernel);
        }
    }
    let hub = star(8, 4);
    let m = wgen::shared_write(&hub, 3, 2, 3);
    assert_kernel_matches_reference(&hub, &m, &mut PlacementKernel::new(&hub));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One kernel reused over several arbitrary matrices of different
    /// object counts on one arbitrary network builds every matrix's
    /// reference copy sets.
    #[test]
    fn batch_equals_per_object(
        net in arb_network(5, 10),
        batches in proptest::collection::vec((0usize..=8, 0u64..8, 0u64..6, any::<u64>()), 1..5),
    ) {
        let mut kernel = PlacementKernel::new(&net);
        for (objects, max_r, max_w, seed) in batches {
            let m = workload_from_seed(&net, objects, max_r, max_w, 0.7, seed);
            let reference = ExtendedNibble::new().place(&net, &m).unwrap();
            let copies = kernel.place(&net, &m).unwrap();
            for x in m.objects() {
                prop_assert_eq!(copies.copies(x), reference.placement.copies(x));
                prop_assert_eq!(
                    kernel.nibble_copies(&net, &m, x),
                    reference.nibble_placement.copies(x)
                );
            }
        }
    }
}
