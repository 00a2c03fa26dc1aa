//! Differential suite for the batched static-placement kernel: the
//! [`PlacementKernel`] must be bit-for-bit identical to the per-object
//! [`ExtendedNibble::place`] path, for every shard count, including when
//! one kernel's scratch is reused across successive batches.

use hbn_core::{ExtendedNibble, PlacementKernel};
use hbn_load::Placement;
use hbn_testutil::{arb_instance, workload_from_seed};
use hbn_topology::generators::{balanced, random_network, BandwidthProfile};
use hbn_topology::Network;
use hbn_workload::AccessMatrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Assert full outcome equality: every placement stage, the gravity
/// centers, the mapping bound and the counters.
fn assert_outcomes_equal(net: &Network, m: &AccessMatrix, kernel: &mut PlacementKernel) {
    let per_object = ExtendedNibble::new().place(net, m).expect("per-object path");
    let batch = kernel.place(net, m).expect("batch path");
    assert_eq!(batch.placement, per_object.placement, "final placement");
    assert_eq!(batch.nibble_placement, per_object.nibble_placement, "nibble placement");
    assert_eq!(batch.modified_placement, per_object.modified_placement, "modified placement");
    assert_eq!(batch.gravity, per_object.gravity, "gravity centers");
    assert_eq!(batch.mapping.tau_max, per_object.mapping.tau_max, "tau_max");
    assert_eq!(batch.stats, per_object.stats, "stats");
    batch.placement.validate(net, m).unwrap();
    assert!(batch.placement.is_leaf_only(net));
}

#[test]
fn batch_matches_per_object_on_random_instances() {
    let mut rng = StdRng::seed_from_u64(101);
    for round in 0..25 {
        let net = random_network(6, 12, BandwidthProfile::Uniform, &mut rng);
        let m = hbn_workload::generators::uniform(&net, 7, 6, 4, 0.6, &mut rng);
        for shards in [1usize, 2, 5] {
            let mut kernel = PlacementKernel::new(&net, shards);
            assert_outcomes_equal(&net, &m, &mut kernel);
        }
        let _ = round;
    }
}

#[test]
fn kernel_reuse_across_epochs_stays_exact() {
    // One kernel, many successive batches over *different* matrices (the
    // periodic re-optimization pattern): stale scratch must never leak
    // between batches.
    let net = balanced(3, 2, BandwidthProfile::Uniform);
    let mut kernel = PlacementKernel::new(&net, 3);
    for seed in 0..12u64 {
        let m = workload_from_seed(&net, 6, 7, 4, 0.7, seed);
        assert_outcomes_equal(&net, &m, &mut kernel);
    }
}

/// A batch placement for reference comparison in the proptests below.
fn batch_placement(net: &Network, m: &AccessMatrix, shards: usize) -> Placement {
    PlacementKernel::new(net, shards).place(net, m).expect("batch path").placement
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The batch kernel's output is invariant in the shard count.
    #[test]
    fn shard_count_invariance((net, m) in arb_instance(5, 10, 6), shards in 2usize..9) {
        let one = batch_placement(&net, &m, 1);
        let many = batch_placement(&net, &m, shards);
        prop_assert_eq!(one, many);
    }

    /// ...and equal to the per-object path on arbitrary instances.
    #[test]
    fn batch_equals_per_object((net, m) in arb_instance(5, 10, 5)) {
        let per_object = ExtendedNibble::new().place(&net, &m).unwrap();
        let batch = batch_placement(&net, &m, 3);
        prop_assert_eq!(batch, per_object.placement);
    }
}
