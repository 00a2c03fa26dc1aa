//! Property tests for load accounting: congestion behaves monotonically,
//! nearest-copy maps are truly nearest, and the per-object nearest-copy
//! sweep equals the map. The accounting itself is pinned to the replay
//! kernel's per-edge crossings in `hbn-sim`'s differential suite.

use hbn_load::{nearest_copy_map, LoadMap, NearestCopies, Placement};
use hbn_topology::generators::{random_network, BandwidthProfile};
use hbn_topology::{Network, NodeId};
use hbn_workload::{AccessMatrix, ObjectId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_instance() -> impl Strategy<Value = (Network, AccessMatrix, Placement)> {
    (1usize..6, 3usize..12, any::<u64>()).prop_map(|(buses, procs, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = random_network(buses, procs.max(buses * 2), BandwidthProfile::Uniform, &mut rng);
        let mut m = AccessMatrix::new(2);
        for x in 0..2u32 {
            for &p in net.processors() {
                if rng.gen_bool(0.6) {
                    m.add(p, ObjectId(x), rng.gen_range(0..6), rng.gen_range(0..5));
                }
            }
        }
        let mut pl = Placement::new(2);
        for x in m.objects() {
            if m.total_weight(x) == 0 {
                continue;
            }
            let k = rng.gen_range(1..=3usize);
            for _ in 0..k {
                let leaf = net.processors()[rng.gen_range(0..net.n_processors())];
                pl.add_copy(x, leaf);
            }
            pl.nearest_assignment_for(&net, &m, x);
        }
        (net, m, pl)
    })
}

/// A random tree plus a few source slices drawn from *all* nodes:
/// unsorted, with buses, and often with a duplicate inserted at a random
/// position (the shapes the dynamic strategies hand to the migration
/// charger, whose replica lists are in insertion order).
fn arb_source_slices() -> impl Strategy<Value = (Network, Vec<Vec<NodeId>>)> {
    (1usize..10, 3usize..16, any::<u64>()).prop_map(|(buses, procs, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = random_network(buses, procs.max(buses * 2), BandwidthProfile::Uniform, &mut rng);
        let n = net.n_nodes() as u32;
        let slices = (0..4)
            .map(|_| {
                let k = rng.gen_range(1..=6usize);
                let mut sources: Vec<NodeId> =
                    (0..k).map(|_| NodeId(rng.gen_range(0..n))).collect();
                if rng.gen_bool(0.5) {
                    let dup = sources[rng.gen_range(0..sources.len())];
                    sources.insert(rng.gen_range(0..=sources.len()), dup);
                }
                sources
            })
            .collect();
        (net, slices)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The support-proportional sweep answers every node exactly as the
    /// full-network BFS map does, ties included. One sweep serves all
    /// slices, so a stale entry from the previous slice would show.
    #[test]
    fn nearest_copy_sweep_equals_the_bfs_map((net, slices) in arb_source_slices()) {
        let mut sweep = NearestCopies::new(net.n_nodes());
        for sources in &slices {
            let map = nearest_copy_map(&net, sources);
            sweep.load(&net, sources);
            for v in net.nodes() {
                prop_assert_eq!(sweep.nearest(&net, v), map[v.index()],
                    "node {} with sources {:?}", v, sources);
            }
        }
    }

    #[test]
    fn congestion_is_monotone_in_loads((net, m, pl) in arb_instance()) {
        let loads = LoadMap::from_placement(&net, &m, &pl);
        let mut doubled = loads.clone();
        doubled.add_assign(&loads);
        prop_assert!(loads.congestion(&net).congestion <= doubled.congestion(&net).congestion);
        prop_assert!(loads.dominated_by(&doubled));
    }

    #[test]
    fn nearest_copy_map_is_truly_nearest((net, m, pl) in arb_instance()) {
        for x in m.objects() {
            let copies = pl.copies(x);
            if copies.is_empty() {
                continue;
            }
            let map = nearest_copy_map(&net, copies);
            for v in net.nodes() {
                let chosen = map[v.index()];
                let d = net.distance(v, chosen);
                for &c in copies {
                    prop_assert!(d <= net.distance(v, c),
                        "node {} got copy {} at distance {}, but {} is at {}",
                        v, chosen, d, c, net.distance(v, c));
                }
            }
        }
    }

    #[test]
    fn bus_loads_are_half_incident_sums((net, m, pl) in arb_instance()) {
        let loads = LoadMap::from_placement(&net, &m, &pl);
        for v in net.nodes() {
            if !net.is_bus(v) {
                continue;
            }
            let mut sum = 0u64;
            for e in net.edges() {
                let (c, p) = net.edge_endpoints(e);
                if c == v || p == v {
                    sum += loads.edge_load(e);
                }
            }
            prop_assert_eq!(loads.bus_load_x2(&net, v), sum);
        }
    }

    #[test]
    fn single_reference_placements_round_trip_totals((net, m, pl) in arb_instance()) {
        // Total path traffic conservation: sum over assignments of
        // weight × distance equals the total edge load minus broadcasts.
        let loads = LoadMap::from_placement(&net, &m, &pl);
        let mut expected: u64 = 0;
        for x in m.objects() {
            for e in pl.assignment(x) {
                expected += (e.reads + e.writes) * u64::from(net.distance(e.processor, e.server));
            }
            let kappa = m.write_contention(x);
            expected += kappa
                * hbn_topology::steiner::steiner_edges(&net, pl.copies(x)).len() as u64;
        }
        prop_assert_eq!(loads.total(), expected);
    }
}

/// Deterministic regression: `NodeId` ordering of copies does not change
/// totals (assignment may differ on ties, loads may differ per edge, but
/// validation still holds).
#[test]
fn tie_breaking_is_stable() {
    let mut rng = StdRng::seed_from_u64(9);
    let net = random_network(3, 8, BandwidthProfile::Uniform, &mut rng);
    let mut m = AccessMatrix::new(1);
    for &p in net.processors() {
        m.add(p, ObjectId(0), 2, 1);
    }
    let mut pl = Placement::new(1);
    pl.set_copies(ObjectId(0), vec![net.processors()[0], net.processors()[3]]);
    pl.nearest_assignment(&net, &m);
    let a = LoadMap::from_placement(&net, &m, &pl);
    pl.nearest_assignment(&net, &m);
    let b = LoadMap::from_placement(&net, &m, &pl);
    assert_eq!(a, b);
    let _: Vec<NodeId> = pl.copies(ObjectId(0)).to_vec();
}
