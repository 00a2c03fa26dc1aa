//! Differential suite for the static-placement kernel: a
//! [`PlacementKernel`] reused across successive batches must be
//! bit-for-bit identical to a fresh kernel — the one-shot
//! [`ExtendedNibble::place`] — so stale scratch never leaks between
//! batches.

use hbn_core::{ExtendedNibble, PlacementKernel};
use hbn_testutil::{arb_network, workload_from_seed};
use hbn_topology::generators::{balanced, random_network, BandwidthProfile};
use hbn_topology::Network;
use hbn_workload::AccessMatrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Assert full outcome equality: every placement stage, the gravity
/// centers, the mapping bound and the counters.
fn assert_outcomes_equal(net: &Network, m: &AccessMatrix, kernel: &mut PlacementKernel) {
    let fresh = ExtendedNibble::new().place(net, m).expect("fresh kernel");
    let batch = kernel.place(net, m).expect("reused kernel");
    assert_eq!(batch.placement, fresh.placement, "final placement");
    assert_eq!(batch.nibble_placement, fresh.nibble_placement, "nibble placement");
    assert_eq!(batch.modified_placement, fresh.modified_placement, "modified placement");
    assert_eq!(batch.gravity, fresh.gravity, "gravity centers");
    assert_eq!(batch.mapping.tau_max, fresh.mapping.tau_max, "tau_max");
    assert_eq!(batch.stats, fresh.stats, "stats");
    batch.placement.validate(net, m).unwrap();
    assert!(batch.placement.is_leaf_only(net));
}

#[test]
fn batch_matches_per_object_on_random_instances() {
    let mut rng = StdRng::seed_from_u64(101);
    for _ in 0..25 {
        let net = random_network(6, 12, BandwidthProfile::Uniform, &mut rng);
        let mut kernel = PlacementKernel::new(&net);
        for _ in 0..3 {
            let m = hbn_workload::generators::uniform(&net, 7, 6, 4, 0.6, &mut rng);
            assert_outcomes_equal(&net, &m, &mut kernel);
        }
    }
}

#[test]
fn kernel_reuse_across_epochs_stays_exact() {
    // One kernel, many successive batches over *different* matrices (the
    // periodic re-optimization pattern): stale scratch must never leak
    // between batches.
    let net = balanced(3, 2, BandwidthProfile::Uniform);
    let mut kernel = PlacementKernel::new(&net);
    for seed in 0..12u64 {
        let m = workload_from_seed(&net, 6, 7, 4, 0.7, seed);
        assert_outcomes_equal(&net, &m, &mut kernel);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A kernel reused over several arbitrary batches on one arbitrary
    /// network places every batch exactly as a fresh kernel.
    #[test]
    fn batch_equals_per_object(
        net in arb_network(5, 10),
        batches in proptest::collection::vec((1usize..=5, 0u64..8, 0u64..6, any::<u64>()), 1..5),
    ) {
        let mut kernel = PlacementKernel::new(&net);
        for (objects, max_r, max_w, seed) in batches {
            let m = workload_from_seed(&net, objects, max_r, max_w, 0.7, seed);
            let fresh = ExtendedNibble::new().place(&net, &m).unwrap();
            let reused = kernel.place(&net, &m).unwrap();
            prop_assert_eq!(reused.placement, fresh.placement);
            prop_assert_eq!(reused.nibble_placement, fresh.nibble_placement);
            prop_assert_eq!(reused.stats, fresh.stats);
        }
    }
}
