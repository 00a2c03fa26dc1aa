//! Property-based integration tests: the full pipeline holds its
//! invariants on arbitrary generated instances.

use hierbus::core::{approximation_certificate, ExtendedNibble};
use hierbus::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The final placement is always valid, leaf-only and within the
    /// approximation guarantee (checked invariants on).
    #[test]
    fn extended_nibble_total_correctness(
        (net, m) in hbn_testutil::arb_instance(8, 16, 6),
    ) {
        let out = ExtendedNibble::checked().place(&net, &m).unwrap();
        out.placement.validate(&net, &m).unwrap();
        prop_assert!(out.placement.is_leaf_only(&net));
        let cert = approximation_certificate(&net, &m, &out);
        prop_assert!(cert.lemma_4_5_ok);
        prop_assert!(cert.lemma_4_6_ok);
        prop_assert!(cert.congestion <= cert.accounting_congestion);
        if let Some(r) = cert.ratio {
            prop_assert!(r <= 7.0 + 1e-9, "ratio {}", r);
        }
    }

    /// The nibble placement dominates every single-leaf placement on every
    /// edge (the executable core of Theorem 3.1).
    #[test]
    fn nibble_dominates_single_leaf_placements(
        (net, m) in hbn_testutil::arb_instance(5, 8, 3),
    ) {
        let nib = hierbus::core::nibble_placement(&net, &m);
        let nib_loads = LoadMap::from_placement(&net, &m, &nib);
        for &leaf in net.processors().iter().take(4) {
            let alt = Placement::single_leaf(&net, &m, |_| leaf);
            let alt_loads = LoadMap::from_placement(&net, &m, &alt);
            prop_assert!(nib_loads.dominated_by(&alt_loads));
        }
    }

    /// The distributed nibble protocol computes exactly the sequential
    /// placement.
    #[test]
    fn distributed_matches_sequential(
        (net, m) in hbn_testutil::arb_instance(6, 12, 5),
    ) {
        let dist = hierbus::distributed::distributed_nibble(&net, &m);
        let mut ws = hierbus::core::Workspace::new(net.n_nodes());
        for x in m.objects() {
            if m.total_weight(x) == 0 {
                prop_assert!(dist.copies[x.index()].is_empty());
                continue;
            }
            let seq = hierbus::core::nibble_object(&net, &m, x, &mut ws);
            prop_assert_eq!(&dist.copies[x.index()], &seq.copies.nodes());
        }
    }

    /// Replaying the workload on the simulator reproduces the analytical
    /// per-edge loads exactly.
    #[test]
    fn simulator_reproduces_load_model(
        (net, m) in hbn_testutil::arb_instance(5, 10, 4),
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let out = ExtendedNibble::new().place(&net, &m).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let trace = hierbus::sim::expand_shuffled(&m, &mut rng);
        let sim = hierbus::sim::simulate(
            &net, &m, &out.placement, &trace, hierbus::sim::SimConfig::default(),
        ).unwrap();
        let loads = LoadMap::from_placement(&net, &m, &out.placement);
        for e in net.edges() {
            prop_assert_eq!(sim.edge_crossings[e.index()], loads.edge_load(e));
        }
        prop_assert!(sim.makespan as f64 >= loads.congestion(&net).congestion.as_f64());
    }
}
