//! Exact solvers for small instances: branch-and-bound over non-redundant
//! placements, restricted redundant search, and exhaustive per-edge minima
//! for validating Theorem 3.1.
//!
//! Non-redundant placement fixes one leaf per object (so the reference
//! copies are forced and no broadcast occurs beyond the write path), which
//! is exactly the regime of the NP-hardness proof — and, as the paper
//! notes, loses nothing when all requests are writes, since every optimal
//! placement is then non-redundant.

use hbn_load::{LoadMap, LoadRatio, Placement};
use hbn_topology::{Network, NodeId};
use hbn_workload::{AccessMatrix, ObjectId};

/// Result of an exact search.
#[derive(Debug, Clone)]
pub struct ExactSolution {
    /// An optimal placement.
    pub placement: Placement,
    /// Its congestion.
    pub congestion: LoadRatio,
    /// Number of search nodes explored (for the NP-hardness scaling
    /// experiment).
    pub nodes_explored: u64,
}

/// Exact optimal **non-redundant** placement via branch-and-bound over
/// `|P|^|X|` assignments. Objects are ordered by decreasing weight; a
/// branch is cut as soon as its partial congestion reaches the incumbent.
///
/// Practical up to roughly `|P|^|X| ≈ 10^8` thanks to pruning; intended
/// for experiment-scale instances only.
pub fn optimal_nonredundant(net: &Network, matrix: &AccessMatrix) -> ExactSolution {
    let mut order: Vec<ObjectId> = matrix.objects().collect();
    order.sort_by_key(|&x| std::cmp::Reverse(matrix.total_weight(x)));
    order.retain(|&x| matrix.total_weight(x) > 0);

    // Candidate leaves and, per object, the load delta each leaf choice
    // adds to every edge (precomputed once: object count × leaves × edges
    // stays tiny on experiment instances).
    let procs = net.processors().to_vec();
    let deltas: Vec<Vec<LoadMap>> = order
        .iter()
        .map(|&x| {
            procs
                .iter()
                .map(|&leaf| {
                    let pl = single_object_leaf_placement(net, matrix, x, leaf);
                    LoadMap::from_object(net, matrix, &pl, x)
                })
                .collect()
        })
        .collect();

    let (best_choice, explored) = branch_and_bound(net, &deltas);

    let mut placement = Placement::new(matrix.n_objects());
    for (i, &x) in order.iter().enumerate() {
        let leaf = procs[best_choice[i]];
        let single = single_object_leaf_placement(net, matrix, x, leaf);
        placement.set_copies(x, single.copies(x).to_vec());
        placement.set_assignment(x, single.assignment(x).to_vec());
    }
    let congestion = LoadMap::from_placement(net, matrix, &placement).congestion(net).congestion;
    ExactSolution { placement, congestion, nodes_explored: explored }
}

/// Exact decision variant of the static placement problem (Section 2): is
/// there a non-redundant placement with congestion at most `threshold`?
pub fn nonredundant_within(net: &Network, matrix: &AccessMatrix, threshold: LoadRatio) -> bool {
    optimal_nonredundant(net, matrix).congestion <= threshold
}

/// Optimal **redundant** placement restricted to nearest-copy assignments:
/// enumerates every non-empty leaf subset per object. This upper-bounds
/// the true optimum (which could route requests away from nearest copies);
/// combined with the certified lower bound it sandwiches `C_opt`.
///
/// Exponential in `|P|` — use only on tiny instances.
pub fn optimal_redundant_nearest(net: &Network, matrix: &AccessMatrix) -> ExactSolution {
    let procs = net.processors().to_vec();
    assert!(procs.len() <= 16, "2^|P| subsets; keep instances tiny");
    let mut order: Vec<ObjectId> = matrix.objects().collect();
    order.retain(|&x| matrix.total_weight(x) > 0);
    order.sort_by_key(|&x| std::cmp::Reverse(matrix.total_weight(x)));

    // Per object, per subset mask: the load delta.
    let deltas: Vec<Vec<LoadMap>> = order
        .iter()
        .map(|&x| {
            (1u32..(1 << procs.len()))
                .map(|mask| {
                    let copies: Vec<NodeId> = procs
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| mask >> i & 1 == 1)
                        .map(|(_, &p)| p)
                        .collect();
                    let mut pl = Placement::new(matrix.n_objects());
                    pl.set_copies(x, copies);
                    pl.nearest_assignment_for(net, matrix, x);
                    LoadMap::from_object(net, matrix, &pl, x)
                })
                .collect()
        })
        .collect();

    let (best_choice, explored) = branch_and_bound(net, &deltas);

    let mut placement = Placement::new(matrix.n_objects());
    for (i, &x) in order.iter().enumerate() {
        let mask = best_choice[i] as u32 + 1;
        let copies: Vec<NodeId> =
            procs.iter().enumerate().filter(|(j, _)| mask >> j & 1 == 1).map(|(_, &p)| p).collect();
        placement.set_copies(x, copies);
        placement.nearest_assignment_for(net, matrix, x);
    }
    let congestion = LoadMap::from_placement(net, matrix, &placement).congestion(net).congestion;
    ExactSolution { placement, congestion, nodes_explored: explored }
}

/// Branch-and-bound over one choice per object: `deltas[i][c]` is the
/// load that choice `c` adds for the `i`-th object. Returns the first
/// choice vector of least congestion and the number of search nodes
/// explored. A branch is cut as soon as its partial congestion reaches
/// the incumbent, since adding objects never lowers congestion.
fn branch_and_bound(net: &Network, deltas: &[Vec<LoadMap>]) -> (Vec<usize>, u64) {
    struct Search<'a> {
        net: &'a Network,
        deltas: &'a [Vec<LoadMap>],
        current: LoadMap,
        choice: Vec<usize>,
        best: LoadRatio,
        best_choice: Vec<usize>,
        explored: u64,
    }

    impl Search<'_> {
        fn recurse(&mut self, depth: usize) {
            self.explored += 1;
            let congestion = self.current.congestion(self.net).congestion;
            if congestion >= self.best {
                return;
            }
            if depth == self.deltas.len() {
                self.best = congestion;
                self.best_choice.clone_from(&self.choice);
                return;
            }
            let deltas = self.deltas;
            for (c, delta) in deltas[depth].iter().enumerate() {
                self.current.add_assign(delta);
                self.choice[depth] = c;
                self.recurse(depth + 1);
                self.current.sub_assign(delta);
            }
        }
    }

    let mut search = Search {
        net,
        deltas,
        current: LoadMap::zero(net),
        choice: vec![0; deltas.len()],
        best: LoadRatio::new(u64::MAX, 1),
        best_choice: vec![0; deltas.len()],
        explored: 0,
    };
    search.recurse(0);
    (search.best_choice, search.explored)
}

/// For a single object: the exact minimum achievable load on every edge,
/// over **all** copy sets (any nodes, buses included) and **all**
/// assignments — the quantity the nibble placement provably attains
/// simultaneously (Theorem 3.1). Exhaustive; tiny instances only.
pub fn min_edge_loads_exhaustive(net: &Network, matrix: &AccessMatrix, x: ObjectId) -> Vec<u64> {
    let n = net.n_nodes();
    assert!(n <= 12, "2^|V| subsets; keep instances tiny");
    let entries = matrix.object_entries(x).to_vec();
    let kappa = matrix.write_contention(x);
    let mut minima = vec![u64::MAX; n];
    for mask in 1u32..(1 << n) {
        let copies: Vec<NodeId> =
            (0..n as u32).filter(|i| mask >> i & 1 == 1).map(NodeId).collect();
        // For a fixed copy set, each requester independently picks the
        // server minimising... no single choice minimises all edges at
        // once, so enumerate assignments too (|copies|^|entries|).
        let combos = copies.len().pow(entries.len() as u32);
        if combos > 1 << 16 {
            continue; // unreachable at the asserted sizes, defensive
        }
        let steiner = hbn_topology::steiner::steiner_edges(net, &copies);
        for combo in 0..combos {
            let mut loads = vec![0u64; n];
            let mut c = combo;
            for e in &entries {
                let server = copies[c % copies.len()];
                c /= copies.len();
                for edge in net.path_edges_iter(e.processor, server) {
                    loads[edge.index()] += e.reads + e.writes;
                }
            }
            for &edge in &steiner {
                loads[edge.index()] += kappa;
            }
            for e in net.edges() {
                minima[e.index()] = minima[e.index()].min(loads[e.index()]);
            }
        }
    }
    minima
}

/// Single-object leaf placement helper.
fn single_object_leaf_placement(
    net: &Network,
    matrix: &AccessMatrix,
    x: ObjectId,
    leaf: NodeId,
) -> Placement {
    let mut pl = Placement::new(matrix.n_objects());
    pl.add_copy(x, leaf);
    let entries = matrix
        .object_entries(x)
        .iter()
        .map(|e| hbn_load::AssignmentEntry {
            processor: e.processor,
            server: leaf,
            reads: e.reads,
            writes: e.writes,
        })
        .collect();
    pl.set_assignment(x, entries);
    debug_assert!(net.is_processor(leaf));
    pl
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbn_core::{nibble_placement, ExtendedNibble};
    use hbn_topology::generators::star;
    use hbn_workload::generators as wgen;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn nonredundant_beats_every_explicit_choice() {
        let net = star(4, 10);
        let p = net.processors();
        let mut m = AccessMatrix::new(2);
        m.add(p[0], ObjectId(0), 3, 2);
        m.add(p[1], ObjectId(0), 1, 1);
        m.add(p[2], ObjectId(1), 4, 0);
        m.add(p[3], ObjectId(1), 0, 2);
        let sol = optimal_nonredundant(&net, &m);
        // Exhaustive cross-check over all 16 assignments.
        for l0 in p {
            for l1 in p {
                let pl = Placement::single_leaf(&net, &m, |x| if x.0 == 0 { *l0 } else { *l1 });
                let c = LoadMap::from_placement(&net, &m, &pl).congestion(&net).congestion;
                assert!(sol.congestion <= c);
            }
        }
    }

    #[test]
    fn redundant_never_worse_than_nonredundant() {
        let mut rng = StdRng::seed_from_u64(70);
        for _ in 0..10 {
            let net = star(4, 4);
            let mut m = AccessMatrix::new(2);
            for x in 0..2u32 {
                for &p in net.processors() {
                    if rng.gen_bool(0.8) {
                        m.add(p, ObjectId(x), rng.gen_range(0..5), rng.gen_range(0..3));
                    }
                }
            }
            let nr = optimal_nonredundant(&net, &m);
            let red = optimal_redundant_nearest(&net, &m);
            assert!(red.congestion <= nr.congestion);
        }
    }

    /// Theorem 3.1 verified against brute force: the nibble placement
    /// attains the exhaustive per-edge minimum on every edge.
    #[test]
    fn nibble_attains_min_edge_loads() {
        let mut rng = StdRng::seed_from_u64(71);
        let net = star(4, 10); // 5 nodes → 2^5 subsets
        for round in 0..10 {
            let mut m = AccessMatrix::new(1);
            for &p in net.processors() {
                if rng.gen_bool(0.8) {
                    m.add(p, ObjectId(0), rng.gen_range(0..4), rng.gen_range(0..3));
                }
            }
            if m.total_weight(ObjectId(0)) == 0 {
                continue;
            }
            let minima = min_edge_loads_exhaustive(&net, &m, ObjectId(0));
            let nib = nibble_placement(&net, &m);
            let loads = LoadMap::from_placement(&net, &m, &nib);
            for e in net.edges() {
                assert_eq!(
                    loads.edge_load(e),
                    minima[e.index()],
                    "round {round}: nibble must attain the minimum on {e}"
                );
            }
        }
    }

    /// The headline sandwich: certified LB ≤ C_opt ≤ redundant-nearest, and
    /// the extended-nibble congestion is within 7× of the exact optimum.
    #[test]
    fn extended_nibble_within_seven_of_exact() {
        let mut rng = StdRng::seed_from_u64(72);
        for round in 0..8 {
            let net = star(5, 3);
            let m = wgen::uniform(&net, 3, 4, 3, 0.8, &mut rng);
            let out = ExtendedNibble::new().place(&net, &m).unwrap();
            let ext = LoadMap::from_placement(&net, &m, &out.placement).congestion(&net).congestion;
            let opt = optimal_redundant_nearest(&net, &m).congestion;
            assert!(ext.le_scaled(7, opt), "round {round}: {ext} > 7 × {opt}");
        }
    }

    #[test]
    fn empty_matrix_is_trivially_optimal() {
        let net = star(3, 2);
        let m = AccessMatrix::new(2);
        let sol = optimal_nonredundant(&net, &m);
        assert_eq!(sol.congestion, LoadRatio::new(0, 1));
    }
}
