//! Property tests for the extended-nibble pipeline over arbitrary
//! generated instances (independent of the facade-level suites).

use hbn_core::{delete_rarely_used, nibble_object, ExtendedNibble, Workspace};
use hbn_load::{LoadMap, Placement};
use hbn_topology::generators::{random_network, BandwidthProfile};
use hbn_topology::{Network, NodeId};
use hbn_workload::{AccessMatrix, ObjectId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_instance() -> impl Strategy<Value = (Network, AccessMatrix)> {
    (1usize..7, 3usize..14, 1usize..5, any::<u64>()).prop_map(|(buses, procs, objects, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = random_network(buses, procs.max(buses * 2), BandwidthProfile::Uniform, &mut rng);
        let mut m = AccessMatrix::new(objects);
        for x in 0..objects as u32 {
            for &p in net.processors() {
                if rng.gen_bool(0.55) {
                    m.add(p, ObjectId(x), rng.gen_range(0..7), rng.gen_range(0..5));
                }
            }
        }
        (net, m)
    })
}

/// Instances whose objects cover the nibble's edge cases: no requests
/// (zero weight), a single requester, all writes, and a random mix.
fn arb_shaped_instance() -> impl Strategy<Value = (Network, AccessMatrix)> {
    (1usize..9, 3usize..16, 4usize..9, any::<u64>()).prop_map(|(buses, procs, objects, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = random_network(buses, procs.max(buses * 2), BandwidthProfile::Uniform, &mut rng);
        let mut m = AccessMatrix::new(objects);
        let procs = net.processors();
        for x in 0..objects as u32 {
            let x = ObjectId(x);
            match x.0 % 4 {
                0 => {} // zero weight
                1 => {
                    let p = procs[rng.gen_range(0..procs.len())];
                    m.add(p, x, rng.gen_range(0..5), rng.gen_range(1..4));
                }
                2 => {
                    for &p in procs {
                        if rng.gen_bool(0.5) {
                            m.add(p, x, 0, rng.gen_range(1..5));
                        }
                    }
                }
                _ => {
                    for &p in procs {
                        if rng.gen_bool(0.4) {
                            m.add(p, x, rng.gen_range(0..9), rng.gen_range(0..3));
                        }
                    }
                }
            }
        }
        (net, m)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The support-sparse nibble equals the paper's definitions evaluated
    /// densely over every node: the gravity center is the smallest-index
    /// node whose removal leaves no component heavier than `h_x / 2`, and
    /// the copy nodes are `g` plus every node whose `g`-rooted subtree
    /// weighs more than `κ_x`. One workspace serves every object, so a
    /// stale slot from the previous object would show.
    #[test]
    fn sparse_nibble_matches_the_dense_definitions((net, m) in arb_shaped_instance()) {
        let mut ws = Workspace::new(net.n_nodes());
        for x in m.objects() {
            let nib = nibble_object(&net, &m, x, &mut ws);
            let entries = m.object_entries(x);
            let total: u64 = entries.iter().map(|e| e.total()).sum();
            if total == 0 {
                prop_assert!(nib.copies.copies.is_empty());
                continue;
            }
            // The weight of each component of T − v, keyed by the
            // neighbor of v it hangs off.
            let is_center = |v: NodeId| {
                let mut components = std::collections::BTreeMap::<NodeId, u64>::new();
                for e in entries.iter().filter(|e| e.processor != v) {
                    *components.entry(net.step_towards(v, e.processor)).or_default() += e.total();
                }
                2 * components.values().copied().max().unwrap_or(0) <= total
            };
            let g = net.nodes().find(|&v| is_center(v)).expect("a center exists");
            prop_assert_eq!(nib.gravity, g);
            // h(T_g(v)): the requesters whose path to g runs through v.
            let kappa = m.write_contention(x);
            let rooted_weight = |v: NodeId| -> u64 {
                entries
                    .iter()
                    .filter(|e| {
                        net.distance(e.processor, v) + net.distance(v, g)
                            == net.distance(e.processor, g)
                    })
                    .map(|e| e.total())
                    .sum()
            };
            let copy_rule: Vec<NodeId> =
                net.nodes().filter(|&v| v == g || rooted_weight(v) > kappa).collect();
            prop_assert_eq!(nib.copies.nodes(), copy_rule);
            let uses_bus = nib.copies.nodes().iter().any(|&v| net.is_bus(v));
            prop_assert_eq!(nib.uses_bus, uses_bus);
            prop_assert_eq!(nib.copies.total_served(), total);
        }
    }

    /// Steps 1–2 conserve requests: nothing is lost or duplicated.
    #[test]
    fn request_conservation((net, m) in arb_instance()) {
        let mut ws = Workspace::new(net.n_nodes());
        for x in m.objects() {
            let nib = nibble_object(&net, &m, x, &mut ws);
            prop_assert_eq!(nib.copies.total_served(), m.total_weight(x));
            let del = delete_rarely_used(&net, nib.gravity, nib.copies);
            prop_assert_eq!(del.copies.total_served(), m.total_weight(x));
        }
    }

    /// The gravity center never lies strictly outside the requesters'
    /// Steiner hull (it is a weighted median).
    #[test]
    fn gravity_is_inside_the_request_hull((net, m) in arb_instance()) {
        let mut ws = Workspace::new(net.n_nodes());
        for x in m.objects() {
            let entries = m.object_entries(x);
            if entries.is_empty() {
                continue;
            }
            let nib = nibble_object(&net, &m, x, &mut ws);
            let requesters: Vec<_> = entries.iter().map(|e| e.processor).collect();
            // g minimises max component weight; in particular removing g
            // must separate requesters or g is itself a requester node.
            if requesters.len() == 1 {
                prop_assert_eq!(nib.gravity, requesters[0]);
            } else {
                // g lies on some path between two requesters.
                let on_some_path = requesters.iter().enumerate().any(|(i, &a)| {
                    requesters[i + 1..]
                        .iter()
                        .any(|&b| net.path_nodes(a, b).contains(&nib.gravity))
                });
                prop_assert!(on_some_path, "gravity {} outside hull", nib.gravity);
            }
        }
    }

    /// The final extended-nibble placement is feasible and the accounting
    /// chain of Theorem 4.3 holds exactly.
    #[test]
    fn extended_nibble_accounting_chain((net, m) in arb_instance()) {
        let out = ExtendedNibble::checked().place(&net, &m).unwrap();
        out.placement.validate(&net, &m).unwrap();
        prop_assert!(out.placement.is_leaf_only(&net));
        let real = LoadMap::from_placement(&net, &m, &out.placement);
        let accounting = out.accounting_loads(&net, &m);
        prop_assert!(real.dominated_by(&accounting));
        let nib = LoadMap::from_placement(&net, &m, &out.nibble_placement);
        for e in net.edges() {
            prop_assert!(accounting.edge_load(e) <= 4 * nib.edge_load(e) + out.mapping.tau_max);
        }
    }

    /// Nibble dominance (Theorem 3.1) against owner placements per object.
    #[test]
    fn nibble_dominates_owner_per_object((net, m) in arb_instance()) {
        let mut ws = Workspace::new(net.n_nodes());
        for x in m.objects() {
            let entries = m.object_entries(x);
            if entries.is_empty() {
                continue;
            }
            let nib = nibble_object(&net, &m, x, &mut ws);
            let mut nib_pl = Placement::new(m.n_objects());
            hbn_core::nibble::apply_to_placement(&nib.copies, &mut nib_pl);
            let nib_loads = LoadMap::from_object(&net, &m, &nib_pl, x);
            let owner = entries.iter().max_by_key(|e| e.total()).unwrap().processor;
            let mut own_pl = Placement::new(m.n_objects());
            own_pl.add_copy(x, owner);
            own_pl.nearest_assignment_for(&net, &m, x);
            let own_loads = LoadMap::from_object(&net, &m, &own_pl, x);
            prop_assert!(nib_loads.dominated_by(&own_loads));
        }
    }
}
