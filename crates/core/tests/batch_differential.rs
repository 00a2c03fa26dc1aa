//! Differential suite for the production static-placement kernel: the
//! copy sets a [`PlacementKernel`] builds — reused across successive
//! matrices, the way the re-placing policies reuse it — must equal the
//! final placement of the full-outcome reference
//! [`ExtendedNibble::place`] object by object, and its step-1-only pass
//! must equal the reference's nibble placement. Stale scratch must never
//! leak between objects or calls.
//!
//! The kernel's hindsight pass, [`PlacementKernel::add_nibble_loads`], is
//! pinned the same way to the loads of the reference nibble placement,
//! `LoadMap::from_placement(net, m, &nibble_placement(net, m))`, and its
//! per-object readout, [`PlacementKernel::final_copies`], to
//! [`PlacementKernel::place`].

use hbn_core::{nibble_placement, ExtendedNibble, PlacementKernel};
use hbn_load::LoadMap;
use hbn_testutil::{arb_network, seeded_rng, workload_from_seed};
use hbn_topology::generators::{balanced, bus_path, random_network, star, BandwidthProfile};
use hbn_topology::Network;
use hbn_workload::generators as wgen;
use hbn_workload::{AccessMatrix, ObjectId};
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

/// Assert that the kernel's hindsight pass adds exactly the loads of the
/// reference nibble placement to a map, on top of what it holds. Returns
/// whether that placement puts a copy on a bus.
fn assert_nibble_loads_match(
    net: &Network,
    m: &AccessMatrix,
    kernel: &mut PlacementKernel,
) -> bool {
    let reference = nibble_placement(net, m);
    let expected = LoadMap::from_placement(net, m, &reference);
    let mut loads = LoadMap::zero(net);
    kernel.add_nibble_loads(net, m, &mut loads);
    assert_eq!(loads, expected, "hindsight loads");
    kernel.add_nibble_loads(net, m, &mut loads);
    let mut twice = expected.clone();
    twice.add_assign(&expected);
    assert_eq!(loads, twice, "the pass adds to the map");
    !reference.is_leaf_only(net)
}

/// Assert that the kernel's readout yields one set per object id, in id
/// order, each sorted, deduplicated, empty exactly when the object has no
/// requests, and equal to the set [`PlacementKernel::place`] holds.
fn assert_readout_matches_place(net: &Network, m: &AccessMatrix, kernel: &mut PlacementKernel) {
    let placed = kernel.place(net, m).expect("place");
    let readout = kernel.final_copies(net, m).expect("readout");
    assert_eq!(readout.len(), m.n_objects());
    for (x, copies) in m.objects().zip(readout) {
        assert_eq!(copies, placed.copies(x), "readout of {x}");
        assert!(copies.windows(2).all(|w| w[0] < w[1]), "readout of {x} unsorted: {copies:?}");
        assert_eq!(copies.is_empty(), m.object_entries(x).is_empty(), "readout of {x}");
    }
}

/// The readout equals `place` object by object on the instances the
/// reference comparisons below run: random trees, reuse across matrices
/// of different object counts, zipf, deep write-heavy and all-writer
/// traffic.
#[test]
fn readout_equals_place_object_by_object() {
    let mut rng = seeded_rng(101);
    for _ in 0..25 {
        let net = random_network(6, 12, BandwidthProfile::Uniform, &mut rng);
        let mut kernel = PlacementKernel::new(&net);
        for _ in 0..3 {
            let m = wgen::uniform(&net, 7, 6, 4, 0.6, &mut rng);
            assert_readout_matches_place(&net, &m, &mut kernel);
        }
    }
    let net = balanced(3, 2, BandwidthProfile::Uniform);
    let mut kernel = PlacementKernel::new(&net);
    for seed in 0..12u64 {
        let m = workload_from_seed(&net, 1 + seed as usize % 7, 7, 4, 0.7, seed);
        assert_readout_matches_place(&net, &m, &mut kernel);
    }
    let mut rng = seeded_rng(102);
    let wide = balanced(4, 3, BandwidthProfile::Uniform);
    let mut kernel = PlacementKernel::new(&wide);
    for objects in [50, 300] {
        let m = wgen::zipf_read_mostly(&wide, objects, objects * 40, 0.9, 0.3, &mut rng);
        assert_readout_matches_place(&wide, &m, &mut kernel);
    }
    for buses in [8, 16] {
        let deep = bus_path(buses, BandwidthProfile::Uniform);
        let mut kernel = PlacementKernel::new(&deep);
        for _ in 0..3 {
            let m = wgen::uniform(&deep, 40, 6, 4, 1.0, &mut rng);
            assert_readout_matches_place(&deep, &m, &mut kernel);
        }
    }
    let hub = star(8, 4);
    let m = wgen::shared_write(&hub, 3, 2, 3);
    assert_readout_matches_place(&hub, &m, &mut PlacementKernel::new(&hub));
}

#[test]
fn hindsight_pass_matches_the_nibble_placement_loads() {
    // Random trees and workloads (some objects without requests), zipf
    // traffic on a wide tree, heavy writes on deep bus paths and an
    // all-writer hub object whose single copy sits on the bus.
    let mut rng = seeded_rng(103);
    let mut on_buses = 0;
    for _ in 0..25 {
        let net = random_network(6, 12, BandwidthProfile::Uniform, &mut rng);
        let mut kernel = PlacementKernel::new(&net);
        for _ in 0..3 {
            let m = wgen::uniform(&net, 7, 6, 4, 0.6, &mut rng);
            on_buses += usize::from(assert_nibble_loads_match(&net, &m, &mut kernel));
        }
    }
    let wide = balanced(4, 3, BandwidthProfile::Uniform);
    let mut kernel = PlacementKernel::new(&wide);
    for objects in [50, 300] {
        let m = wgen::zipf_read_mostly(&wide, objects, objects * 40, 0.9, 0.3, &mut rng);
        on_buses += usize::from(assert_nibble_loads_match(&wide, &m, &mut kernel));
    }
    for buses in [8, 16] {
        let deep = bus_path(buses, BandwidthProfile::Uniform);
        let mut kernel = PlacementKernel::new(&deep);
        let m = wgen::uniform(&deep, 40, 6, 4, 1.0, &mut rng);
        on_buses += usize::from(assert_nibble_loads_match(&deep, &m, &mut kernel));
    }
    let hub = star(8, 4);
    let m = wgen::shared_write(&hub, 3, 2, 3);
    assert!(assert_nibble_loads_match(&hub, &m, &mut PlacementKernel::new(&hub)));
    assert!(on_buses > 0, "some instance must place a copy on a bus");

    // Objects without requests add nothing, wherever they sit.
    let net = balanced(3, 2, BandwidthProfile::Uniform);
    let mut sparse = AccessMatrix::new(9);
    sparse.add(net.processors()[4], ObjectId(6), 3, 2);
    sparse.add(net.processors()[0], ObjectId(6), 1, 0);
    assert_nibble_loads_match(&net, &sparse, &mut PlacementKernel::new(&net));
    assert_nibble_loads_match(&net, &AccessMatrix::new(5), &mut PlacementKernel::new(&net));
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

    /// One kernel's hindsight pass over several arbitrary matrices (empty
    /// objects included: a zero read and write cap leaves every object
    /// without requests) adds the reference nibble placement's loads.
    #[test]
    fn hindsight_pass_equals_reference_loads(
        net in arb_network(5, 10),
        batches in proptest::collection::vec(
            (0usize..=8, 0u64..8, 0u64..6, 0.0f64..=1.0, any::<u64>()),
            1..5,
        ),
    ) {
        let mut kernel = PlacementKernel::new(&net);
        for (objects, max_r, max_w, density, seed) in batches {
            let m = workload_from_seed(&net, objects, max_r, max_w, density, seed);
            assert_nibble_loads_match(&net, &m, &mut kernel);
        }
    }
}
