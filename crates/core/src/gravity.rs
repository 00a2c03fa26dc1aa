//! Per-object center of gravity `g(T)` (paper, Section 3.1).
//!
//! For a fixed object `x` with node weights `h(v) = h_r(v,x) + h_w(v,x)`,
//! the center of gravity is a node whose removal splits the tree into
//! components each carrying at most half of the total weight. The set of
//! such nodes is never empty; following the paper we take the one with the
//! smallest index.
//!
//! Only the object's *support* — the union of its requesters' root paths
//! — is ever examined. A node off the support has fixed-root subtree
//! weight 0, so removing it leaves a component of weight `h_x`, and it
//! fails the test whenever `h_x > 0`. The smallest-index center is
//! therefore the smallest-index support node that passes.

use hbn_topology::{Network, NodeId};
use hbn_workload::{AccessMatrix, ObjectId};

/// Reusable per-object scratch for the gravity and nibble computations,
/// and for the deletion step's node-to-copy lookup.
///
/// Slots are indexed by node, but loading an object writes and reads only
/// its support (the union of its requesters' root paths), in
/// `O(requesters · height(T))` and independent of `|V|`. A generation
/// bump invalidates the previous object's slots, so one workspace serves
/// any number of objects without clearing.
#[derive(Debug, Clone)]
pub struct Workspace {
    /// Fixed-root subtree weight of each support node.
    subtree: Vec<u64>,
    /// Heaviest child subtree of each support node (0 if no child is in
    /// the support).
    heaviest_child: Vec<u64>,
    /// `in_support[v] == generation` iff `v` is in the current support.
    in_support: Vec<u32>,
    /// `copy[v] == (generation, i)` iff `v` holds nibble copy `i` (its
    /// index among the copy nodes, ascending) of the current object.
    copy: Vec<(u32, u32)>,
    generation: u32,
    /// The current support, each node once, in discovery order.
    support: Vec<NodeId>,
}

impl Workspace {
    /// Scratch buffers for a network with `n` nodes.
    pub fn new(n: usize) -> Self {
        Workspace {
            subtree: vec![0; n],
            heaviest_child: vec![0; n],
            in_support: vec![0; n],
            copy: vec![(0, 0); n],
            generation: 0,
            support: Vec::new(),
        }
    }

    /// Load the weights of object `x`: walk every requester's root path,
    /// summing fixed-root subtree weights over the support. Starts a new
    /// generation (clearing the support and all copy slots in O(1)) and
    /// returns the total weight `h_x`.
    pub(crate) fn load_object(&mut self, net: &Network, matrix: &AccessMatrix, x: ObjectId) -> u64 {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: physically reset to keep stamps unambiguous.
            self.in_support.iter_mut().for_each(|s| *s = 0);
            self.copy.iter_mut().for_each(|c| *c = (0, 0));
            self.generation = 1;
        }
        self.support.clear();
        let mut total = 0u64;
        for e in matrix.object_entries(x) {
            let w = e.reads + e.writes;
            total += w;
            let mut a = e.processor;
            loop {
                let i = a.index();
                if self.in_support[i] != self.generation {
                    self.in_support[i] = self.generation;
                    self.subtree[i] = 0;
                    self.heaviest_child[i] = 0;
                    self.support.push(a);
                }
                self.subtree[i] += w;
                if a == net.root() {
                    break;
                }
                a = net.parent(a);
            }
        }
        // The support is closed under parents, so every non-root support
        // node reports its final subtree weight to a support parent.
        for &u in &self.support {
            if u != net.root() {
                let p = net.parent(u).index();
                self.heaviest_child[p] = self.heaviest_child[p].max(self.subtree[u.index()]);
            }
        }
        total
    }

    /// The current support (the loaded requesters' root-path union).
    pub(crate) fn support(&self) -> &[NodeId] {
        &self.support
    }

    /// Fixed-root subtree weight of `v` (0 off the support).
    pub(crate) fn subtree(&self, v: NodeId) -> u64 {
        if self.in_support[v.index()] == self.generation {
            self.subtree[v.index()]
        } else {
            0
        }
    }

    /// The smallest-index center of gravity of the loaded object, whose
    /// total weight is `total`; node 0 when `total` is 0 (every node
    /// qualifies).
    pub(crate) fn gravity(&self, net: &Network, total: u64) -> NodeId {
        if total == 0 {
            return NodeId(0);
        }
        self.support
            .iter()
            .copied()
            .filter(|&v| {
                // The heaviest component of T − v: a child subtree, or
                // everything outside v's own subtree.
                let mut heaviest = self.heaviest_child[v.index()];
                if v != net.root() {
                    heaviest = heaviest.max(total - self.subtree[v.index()]);
                }
                2 * heaviest <= total
            })
            .min()
            .expect("the set of gravity centers is never empty")
    }

    /// Record that `v` holds copy `i` of the current object.
    #[inline]
    pub(crate) fn mark(&mut self, v: NodeId, i: usize) {
        self.copy[v.index()] = (self.generation, i as u32);
    }

    /// The index of the current object's copy on `v`, if `v` holds one.
    #[inline]
    pub(crate) fn copy_index(&self, v: NodeId) -> Option<usize> {
        let (generation, i) = self.copy[v.index()];
        (generation == self.generation).then_some(i as usize)
    }
}

/// The center of gravity of object `x`: the smallest-index node `v` such
/// that every component of `T − v` has weight at most `h_x / 2`.
///
/// With zero total weight every node qualifies and node 0 is returned.
pub fn center_of_gravity(net: &Network, matrix: &AccessMatrix, x: ObjectId) -> NodeId {
    let mut ws = Workspace::new(net.n_nodes());
    center_of_gravity_with(net, matrix, x, &mut ws)
}

/// [`center_of_gravity`] with caller-provided scratch space.
pub fn center_of_gravity_with(
    net: &Network,
    matrix: &AccessMatrix,
    x: ObjectId,
    ws: &mut Workspace,
) -> NodeId {
    let total = ws.load_object(net, matrix, x);
    ws.gravity(net, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbn_topology::generators::{balanced, star, BandwidthProfile};
    use hbn_topology::NetworkBuilder;

    #[test]
    fn all_weight_on_one_leaf() {
        let net = star(4, 10);
        let p = net.processors();
        let mut m = AccessMatrix::new(1);
        m.add(p[2], ObjectId(0), 5, 5);
        // Removing p[2] leaves a component of weight 0; removing anything
        // else leaves p[2]'s full weight. So g = p[2].
        assert_eq!(center_of_gravity(&net, &m, ObjectId(0)), p[2]);
    }

    #[test]
    fn balanced_weights_pick_the_bus() {
        let net = star(4, 10);
        let p = net.processors();
        let mut m = AccessMatrix::new(1);
        m.add(p[0], ObjectId(0), 3, 0);
        m.add(p[1], ObjectId(0), 3, 0);
        // Total 6; removing the bus leaves components of ≤ 3 = 6/2. The bus
        // (node 0) has the smallest index among qualifying nodes — p[0] and
        // p[1] leave a component of 3 ≤ 3 as well, but the bus is node 0.
        assert_eq!(center_of_gravity(&net, &m, ObjectId(0)), net.root());
    }

    #[test]
    fn majority_leaf_wins() {
        let net = star(4, 10);
        let p = net.processors();
        let mut m = AccessMatrix::new(1);
        m.add(p[0], ObjectId(0), 7, 0);
        m.add(p[1], ObjectId(0), 3, 0);
        // Removing anything except p[0] leaves a component with weight 7 >
        // 10/2, so g = p[0].
        assert_eq!(center_of_gravity(&net, &m, ObjectId(0)), p[0]);
    }

    #[test]
    fn zero_weight_defaults_to_node_zero() {
        let net = star(3, 5);
        let m = AccessMatrix::new(1);
        assert_eq!(center_of_gravity(&net, &m, ObjectId(0)), NodeId(0));
    }

    #[test]
    fn deep_tree_gravity_is_weighted_median() {
        // Path: p0 - b - b - b - p1, heavy on p1's side.
        let mut b = NetworkBuilder::new();
        let p0 = b.add_processor();
        let b1 = b.add_bus(1);
        let b2 = b.add_bus(1);
        let b3 = b.add_bus(1);
        let p1 = b.add_processor();
        b.connect(p0, b1, 1).unwrap();
        b.connect(b1, b2, 1).unwrap();
        b.connect(b2, b3, 1).unwrap();
        b.connect(b3, p1, 1).unwrap();
        let net = b.build().unwrap();
        let mut m = AccessMatrix::new(1);
        m.add(p0, ObjectId(0), 1, 0);
        m.add(p1, ObjectId(0), 1, 0);
        // Equal weights: every node on the path qualifies; smallest index
        // wins, which is p0 (id 0).
        assert_eq!(center_of_gravity(&net, &m, ObjectId(0)), p0);
        let mut m = AccessMatrix::new(1);
        m.add(p0, ObjectId(0), 1, 0);
        m.add(p1, ObjectId(0), 3, 0);
        // Total 4: components around p1 must stay ≤ 2, so only nodes b3 or
        // p1 qualify (removing b3 leaves {p1}=3 > 2? No: removing b3 leaves
        // {p1} weight 3 > 2 — so only p1 qualifies).
        assert_eq!(center_of_gravity(&net, &m, ObjectId(0)), p1);
    }

    #[test]
    fn gravity_center_condition_is_verified_exhaustively() {
        use rand::{Rng, SeedableRng};
        let net = balanced(3, 2, BandwidthProfile::Uniform);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let mut m = AccessMatrix::new(1);
            for &p in net.processors() {
                if rng.gen_bool(0.7) {
                    m.add(p, ObjectId(0), rng.gen_range(0..6), rng.gen_range(0..4));
                }
            }
            let g = center_of_gravity(&net, &m, ObjectId(0));
            // Dense oracle over every node, from the definition: the
            // weight of each component of T − v, keyed by the neighbor of
            // v it hangs off.
            let entries = m.object_entries(ObjectId(0));
            let total: u64 = entries.iter().map(|e| e.total()).sum();
            let is_center = |v: NodeId| {
                let mut components = std::collections::BTreeMap::<NodeId, u64>::new();
                for e in entries.iter().filter(|e| e.processor != v) {
                    *components.entry(net.step_towards(v, e.processor)).or_default() += e.total();
                }
                2 * components.values().copied().max().unwrap_or(0) <= total
            };
            // The returned node satisfies the definition...
            assert!(is_center(g));
            // ...and no smaller-index node does.
            for v in net.nodes().take_while(|&v| v < g) {
                assert!(!is_center(v));
            }
        }
    }
}
