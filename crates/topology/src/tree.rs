//! The core network representation: a weighted tree with processors at the
//! leaves and buses at the inner nodes.
//!
//! The tree is stored rooted at a fixed bus near the tree center (so the
//! rooted height is within a factor of ~2 of any other choice, matching the
//! `height(T)` terms in the paper's bounds). Per-object logical re-rooting
//! — the nibble strategy roots at the per-object center of gravity — is done
//! by the algorithms in `hbn-core` without touching this structure.

use crate::error::TopologyError;
use crate::ids::{Bandwidth, EdgeId, NodeId};

/// Whether a node is a processor (leaf) or a bus (inner node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A processor: a leaf of the tree; the only kind of node that can hold
    /// copies of shared data objects and issue requests.
    Processor,
    /// A bus: an inner node; its load is half the sum of the loads of its
    /// incident switches.
    Bus,
}

/// An immutable hierarchical bus network.
///
/// Construct one through [`crate::NetworkBuilder`] or the generators in
/// [`crate::generators`]. All structural queries (parents, children, depths,
/// LCA, ancestor tests, pre/post orders) are O(1) or iterator-cheap after
/// construction.
#[derive(Debug, Clone)]
pub struct Network {
    kinds: Vec<NodeKind>,
    /// Bandwidth of each node; meaningful for buses only (processors get 1).
    node_bandwidth: Vec<Bandwidth>,
    /// Bandwidth of the switch from each node to its parent (root slot unused).
    edge_bandwidth: Vec<Bandwidth>,
    parent: Vec<NodeId>,
    children: Vec<Vec<NodeId>>,
    root: NodeId,
    depth: Vec<u32>,
    /// Preorder: parents before children.
    preorder: Vec<NodeId>,
    /// Entry/exit times of the preorder traversal, for ancestor tests.
    tin: Vec<u32>,
    tout: Vec<u32>,
    processors: Vec<NodeId>,
    /// Dense processor index per node (`u32::MAX` for buses).
    proc_index: Vec<u32>,
    height: u32,
    max_degree: u32,
    /// Binary lifting table: `up[k][v]` is the 2^k-th ancestor of `v`.
    up: Vec<Vec<NodeId>>,
}

impl Network {
    /// Build the rooted representation from a parent-validated edge list.
    ///
    /// `kinds`, `node_bw` are per node; `edges` are `(a, b, bandwidth)`
    /// triples. The caller (the builder) has already validated the model
    /// constraints; this function only roots and indexes the tree.
    pub(crate) fn from_validated(
        kinds: Vec<NodeKind>,
        node_bw: Vec<Bandwidth>,
        edges: &[(NodeId, NodeId, Bandwidth)],
        root: NodeId,
    ) -> Network {
        let n = kinds.len();
        let mut adj: Vec<Vec<(NodeId, Bandwidth)>> = vec![Vec::new(); n];
        for &(a, b, bw) in edges {
            adj[a.index()].push((b, bw));
            adj[b.index()].push((a, bw));
        }
        let max_degree = adj.iter().map(Vec::len).max().unwrap_or(0) as u32;

        let mut parent = vec![root; n];
        let mut edge_bandwidth = vec![0; n];
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut depth = vec![0u32; n];
        let mut preorder = Vec::with_capacity(n);
        let mut visited = vec![false; n];

        // Iterative DFS to avoid stack overflow on deep trees.
        let mut stack = vec![root];
        visited[root.index()] = true;
        while let Some(v) = stack.pop() {
            preorder.push(v);
            for &(u, bw) in &adj[v.index()] {
                if !visited[u.index()] {
                    visited[u.index()] = true;
                    parent[u.index()] = v;
                    edge_bandwidth[u.index()] = bw;
                    depth[u.index()] = depth[v.index()] + 1;
                    children[v.index()].push(u);
                    stack.push(u);
                }
            }
        }
        debug_assert_eq!(preorder.len(), n, "tree must be connected");
        // `stack.pop()` reverses child order; re-sort children for
        // deterministic, id-ordered traversal.
        for ch in &mut children {
            ch.sort_unstable();
        }
        // Recompute preorder deterministically (id-ordered children).
        preorder.clear();
        let mut tin = vec![0u32; n];
        let mut tout = vec![0u32; n];
        let mut timer = 0u32;
        // Stack entries: (node, entered?)
        let mut stack: Vec<(NodeId, bool)> = vec![(root, false)];
        while let Some((v, entered)) = stack.pop() {
            if entered {
                tout[v.index()] = timer;
                continue;
            }
            tin[v.index()] = timer;
            timer += 1;
            preorder.push(v);
            stack.push((v, true));
            // Push children in reverse so they pop in ascending id order.
            for &u in children[v.index()].iter().rev() {
                stack.push((u, false));
            }
        }

        let height = depth.iter().copied().max().unwrap_or(0);

        let processors: Vec<NodeId> =
            (0..n as u32).map(NodeId).filter(|v| kinds[v.index()] == NodeKind::Processor).collect();
        let mut proc_index = vec![u32::MAX; n];
        for (i, &p) in processors.iter().enumerate() {
            proc_index[p.index()] = i as u32;
        }

        // Binary lifting table for LCA queries.
        let levels = (usize::BITS - n.leading_zeros()).max(1) as usize;
        let mut up: Vec<Vec<NodeId>> = Vec::with_capacity(levels);
        up.push(parent.clone());
        for k in 1..levels {
            let prev = &up[k - 1];
            let next: Vec<NodeId> = (0..n).map(|v| prev[prev[v].index()]).collect();
            up.push(next);
        }

        Network {
            kinds,
            node_bandwidth: node_bw,
            edge_bandwidth,
            parent,
            children,
            root,
            depth,
            preorder,
            tin,
            tout,
            processors,
            proc_index,
            height,
            max_degree,
            up,
        }
    }

    /// Total number of nodes `|P ∪ B|`.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Number of processors `|P|` (the leaves).
    #[inline]
    pub fn n_processors(&self) -> usize {
        self.processors.len()
    }

    /// Number of buses `|B|` (the inner nodes).
    #[inline]
    pub fn n_buses(&self) -> usize {
        self.n_nodes() - self.n_processors()
    }

    /// Iterate over all node ids in increasing order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n_nodes() as u32).map(NodeId)
    }

    /// Iterate over all edges (identified by their child endpoint).
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        let root = self.root;
        (0..self.n_nodes() as u32).map(NodeId).filter(move |&v| v != root).map(EdgeId::from)
    }

    /// Number of edges (`n - 1`).
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.n_nodes() - 1
    }

    /// The fixed root of the stored representation (a bus whenever the
    /// network has one).
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The kind of `v`.
    #[inline]
    pub fn kind(&self, v: NodeId) -> NodeKind {
        self.kinds[v.index()]
    }

    /// Whether `v` is a processor (leaf). An id outside the network is
    /// not one, so untrusted ids need no separate bound check.
    #[inline]
    pub fn is_processor(&self, v: NodeId) -> bool {
        self.kinds.get(v.index()) == Some(&NodeKind::Processor)
    }

    /// Whether `v` is a bus (inner node).
    #[inline]
    pub fn is_bus(&self, v: NodeId) -> bool {
        self.kinds[v.index()] == NodeKind::Bus
    }

    /// The parent of `v` (the root is its own parent).
    #[inline]
    pub fn parent(&self, v: NodeId) -> NodeId {
        self.parent[v.index()]
    }

    /// The switch connecting `v` to its parent, or `None` for the root.
    #[inline]
    pub fn parent_edge(&self, v: NodeId) -> Option<EdgeId> {
        if v == self.root {
            None
        } else {
            Some(EdgeId::from(v))
        }
    }

    /// The children of `v` in ascending id order.
    #[inline]
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.children[v.index()]
    }

    /// Unrooted degree of `v` (number of incident switches).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.children[v.index()].len() + usize::from(v != self.root)
    }

    /// Maximum unrooted degree over all nodes, the paper's `degree(T)`.
    #[inline]
    pub fn max_degree(&self) -> u32 {
        self.max_degree
    }

    /// Depth of `v` below the root (root has depth 0).
    #[inline]
    pub fn depth(&self, v: NodeId) -> u32 {
        self.depth[v.index()]
    }

    /// Height of the rooted tree (max depth), the paper's `height(T)`.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Level of `v` in the paper's numbering: the root is on level
    /// `height(T)`, children of level `i + 1` nodes are on level `i`.
    #[inline]
    pub fn level(&self, v: NodeId) -> u32 {
        self.height - self.depth[v.index()]
    }

    /// Bandwidth of bus `v`. Processors report 1.
    #[inline]
    pub fn node_bandwidth(&self, v: NodeId) -> Bandwidth {
        self.node_bandwidth[v.index()]
    }

    /// Bandwidth of switch `e`.
    #[inline]
    pub fn edge_bandwidth(&self, e: EdgeId) -> Bandwidth {
        self.edge_bandwidth[e.index()]
    }

    /// Overwrite the bandwidth of bus `v`. This is the build-time hook
    /// for static heterogeneous capacity profiles
    /// ([`crate::capacity::CapacityProfile`]); fault-time changes go
    /// through [`crate::CapacityOverlay`] instead so they can be
    /// restored.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a bus or `bandwidth` is 0.
    pub fn set_bus_bandwidth(&mut self, v: NodeId, bandwidth: Bandwidth) {
        assert!(self.is_bus(v), "set_bus_bandwidth: {v} is not a bus");
        assert!(bandwidth >= 1, "set_bus_bandwidth: bandwidth must be >= 1");
        self.node_bandwidth[v.index()] = bandwidth;
    }

    /// Both endpoints of edge `e` as `(child, parent)`.
    #[inline]
    pub fn edge_endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let c = e.child();
        (c, self.parent(c))
    }

    /// All processors (leaves) in ascending id order.
    #[inline]
    pub fn processors(&self) -> &[NodeId] {
        &self.processors
    }

    /// Dense index of processor `p` in `0..n_processors()`.
    ///
    /// # Panics
    /// Panics if `p` is a bus.
    #[inline]
    pub fn processor_index(&self, p: NodeId) -> usize {
        let i = self.proc_index[p.index()];
        assert!(i != u32::MAX, "{p} is not a processor");
        i as usize
    }

    /// The processor with dense index `i`.
    #[inline]
    pub fn processor_at(&self, i: usize) -> NodeId {
        self.processors[i]
    }

    /// Preorder over all nodes (every parent precedes its children).
    #[inline]
    pub fn preorder(&self) -> &[NodeId] {
        &self.preorder
    }

    /// Postorder over all nodes (every child precedes its parent).
    pub fn postorder(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.preorder.iter().rev().copied()
    }

    /// Position of `v` in [`Network::preorder`]; ancestors sort before
    /// descendants and subtrees are contiguous ranges.
    #[inline]
    pub fn preorder_index(&self, v: NodeId) -> u32 {
        self.tin[v.index()]
    }

    /// Whether `a` is an ancestor of `b` (inclusive: every node is an
    /// ancestor of itself).
    #[inline]
    pub fn is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        self.tin[a.index()] <= self.tin[b.index()] && self.tout[b.index()] <= self.tout[a.index()]
    }

    /// Lowest common ancestor of `a` and `b` under the fixed root.
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        if self.is_ancestor(a, b) {
            return a;
        }
        if self.is_ancestor(b, a) {
            return b;
        }
        let mut a = a;
        for k in (0..self.up.len()).rev() {
            let anc = self.up[k][a.index()];
            if !self.is_ancestor(anc, b) {
                a = anc;
            }
        }
        self.up[0][a.index()]
    }

    /// Number of edges on the unique path between `a` and `b`.
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        let l = self.lca(a, b);
        self.depth(a) + self.depth(b) - 2 * self.depth(l)
    }

    /// The edges on the unique path between `a` and `b`, in order from `a`
    /// up to the LCA and then down to `b`.
    pub fn path_edges(&self, a: NodeId, b: NodeId) -> Vec<EdgeId> {
        self.path_edges_iter(a, b).collect()
    }

    /// Allocation-free iterator over the edges of the `a`–`b` path, in
    /// order from `a` up to the LCA and then down to `b`. One LCA query up
    /// front, then O(1) per upward step and O(log degree) per downward
    /// step ([`Network::child_towards`]).
    pub fn path_edges_iter(&self, a: NodeId, b: NodeId) -> PathEdges<'_> {
        let l = self.lca(a, b);
        let remaining = (self.depth(a) + self.depth(b) - 2 * self.depth(l)) as usize;
        PathEdges { net: self, up: a, lca: l, down: l, target: b, remaining }
    }

    /// The nodes on the unique path between `a` and `b`, inclusive.
    pub fn path_nodes(&self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        self.path_nodes_iter(a, b).collect()
    }

    /// Allocation-free iterator over the nodes of the `a`–`b` path,
    /// inclusive of both endpoints (a single node when `a == b`).
    pub fn path_nodes_iter(&self, a: NodeId, b: NodeId) -> PathNodes<'_> {
        let l = self.lca(a, b);
        let remaining = (self.depth(a) + self.depth(b) - 2 * self.depth(l)) as usize + 1;
        PathNodes { net: self, up: Some(a), lca: l, down: l, target: b, remaining }
    }

    /// Nodes of the subtree rooted at `v` (under the fixed root), in
    /// preorder. `v` itself comes first.
    pub fn subtree(&self, v: NodeId) -> &[NodeId] {
        // The preorder lays out each subtree contiguously.
        let start = self.tin[v.index()] as usize;
        let len = self.subtree_size(v);
        &self.preorder[start..start + len]
    }

    /// Number of nodes in the subtree rooted at `v`.
    #[inline]
    pub fn subtree_size(&self, v: NodeId) -> usize {
        // Preorder tin/tout: tout - tin equals the subtree size because the
        // timer only advances on entry.
        (self.tout[v.index()] - self.tin[v.index()]) as usize
    }

    /// The child of `v` whose subtree contains `target`.
    ///
    /// Children are stored in ascending id order, which is also ascending
    /// preorder-entry order, so the lookup is a binary search over the
    /// children's `tin` values: O(log degree), independent of tree height
    /// (the old binary-lifting descent was O(log |V|) per step). Callers
    /// walking a sorted destination group can additionally cache the
    /// returned child's preorder range ([`Network::preorder_index`] /
    /// [`Network::subtree_size`]) and skip the search while consecutive
    /// targets stay inside it, amortizing to O(1) per target — the packet
    /// simulator's hop grouping does exactly that.
    ///
    /// # Panics
    /// Panics if `target` is not a proper descendant of `v`.
    pub fn child_towards(&self, v: NodeId, target: NodeId) -> NodeId {
        let t = self.tin[target.index()];
        let kids = &self.children[v.index()];
        let idx = kids.partition_point(|&c| self.tin[c.index()] <= t);
        assert!(idx > 0, "{target} is not a proper descendant of {v}");
        let c = kids[idx - 1];
        assert!(t < self.tout[c.index()], "{target} is not a proper descendant of {v}");
        c
    }

    /// The neighbor of `v` on the path towards `target`.
    ///
    /// # Panics
    /// Panics if `v == target`.
    pub fn step_towards(&self, v: NodeId, target: NodeId) -> NodeId {
        assert_ne!(v, target, "no step from a node to itself");
        if self.is_ancestor(v, target) {
            self.child_towards(v, target)
        } else {
            self.parent(v)
        }
    }

    /// Validate internal invariants; used by tests and after deserialization.
    pub fn check_invariants(&self) -> Result<(), TopologyError> {
        let n = self.n_nodes();
        if n == 0 {
            return Err(TopologyError::Empty);
        }
        for v in self.nodes() {
            match self.kind(v) {
                NodeKind::Processor => {
                    if !self.children(v).is_empty() {
                        return Err(TopologyError::ProcessorNotLeaf(v));
                    }
                }
                NodeKind::Bus => {
                    if self.degree(v) < 2 {
                        return Err(TopologyError::BusIsLeaf(v));
                    }
                }
            }
        }
        if self.processors.is_empty() {
            return Err(TopologyError::NoProcessors);
        }
        Ok(())
    }
}

/// Iterator over the edges of a tree path; see
/// [`Network::path_edges_iter`].
#[derive(Debug, Clone)]
pub struct PathEdges<'a> {
    net: &'a Network,
    /// Next node on the upward leg (`up != lca` means the leg is live).
    up: NodeId,
    lca: NodeId,
    /// Current node on the downward leg, descending towards `target`.
    down: NodeId,
    target: NodeId,
    remaining: usize,
}

impl Iterator for PathEdges<'_> {
    type Item = EdgeId;

    fn next(&mut self) -> Option<EdgeId> {
        if self.up != self.lca {
            let e = EdgeId::from(self.up);
            self.up = self.net.parent(self.up);
            self.remaining -= 1;
            return Some(e);
        }
        if self.down != self.target {
            let c = self.net.child_towards(self.down, self.target);
            self.down = c;
            self.remaining -= 1;
            return Some(EdgeId::from(c));
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for PathEdges<'_> {}

/// Iterator over the nodes of a tree path (endpoints inclusive); see
/// [`Network::path_nodes_iter`].
#[derive(Debug, Clone)]
pub struct PathNodes<'a> {
    net: &'a Network,
    /// Next node to yield on the upward leg; `None` once the LCA is out.
    up: Option<NodeId>,
    lca: NodeId,
    down: NodeId,
    target: NodeId,
    remaining: usize,
}

impl Iterator for PathNodes<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if let Some(v) = self.up {
            self.up = if v == self.lca { None } else { Some(self.net.parent(v)) };
            self.remaining -= 1;
            return Some(v);
        }
        if self.down != self.target {
            let c = self.net.child_towards(self.down, self.target);
            self.down = c;
            self.remaining -= 1;
            return Some(c);
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for PathNodes<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;

    /// A two-level network:
    /// root bus 0 — buses 1, 2; bus 1 — procs 3, 4; bus 2 — procs 5, 6, 7.
    fn two_level() -> Network {
        let mut b = NetworkBuilder::new();
        let r = b.add_bus(4);
        let b1 = b.add_bus(2);
        let b2 = b.add_bus(2);
        let p: Vec<_> = (0..5).map(|_| b.add_processor()).collect();
        b.connect(r, b1, 2).unwrap();
        b.connect(r, b2, 3).unwrap();
        b.connect(b1, p[0], 1).unwrap();
        b.connect(b1, p[1], 1).unwrap();
        b.connect(b2, p[2], 1).unwrap();
        b.connect(b2, p[3], 1).unwrap();
        b.connect(b2, p[4], 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn counts_and_kinds() {
        let t = two_level();
        assert_eq!(t.n_nodes(), 8);
        assert_eq!(t.n_processors(), 5);
        assert_eq!(t.n_buses(), 3);
        assert_eq!(t.n_edges(), 7);
        assert!(t.is_bus(NodeId(0)));
        assert!(t.is_processor(NodeId(3)));
        assert!(!t.is_processor(NodeId(8)) && !t.is_processor(NodeId(10_000)));
        t.check_invariants().unwrap();
    }

    #[test]
    fn parents_and_children() {
        let t = two_level();
        // Root is the center bus 0.
        assert_eq!(t.root(), NodeId(0));
        assert_eq!(t.parent(NodeId(1)), NodeId(0));
        assert_eq!(t.children(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(t.children(NodeId(2)), &[NodeId(5), NodeId(6), NodeId(7)]);
        assert_eq!(t.parent_edge(t.root()), None);
        assert_eq!(t.parent_edge(NodeId(5)), Some(EdgeId(5)));
    }

    #[test]
    fn depth_height_level() {
        let t = two_level();
        assert_eq!(t.height(), 2);
        assert_eq!(t.depth(NodeId(0)), 0);
        assert_eq!(t.depth(NodeId(2)), 1);
        assert_eq!(t.depth(NodeId(6)), 2);
        assert_eq!(t.level(NodeId(0)), 2);
        assert_eq!(t.level(NodeId(6)), 0);
    }

    #[test]
    fn degrees() {
        let t = two_level();
        assert_eq!(t.degree(NodeId(0)), 2);
        assert_eq!(t.degree(NodeId(2)), 4);
        assert_eq!(t.degree(NodeId(5)), 1);
        assert_eq!(t.max_degree(), 4);
    }

    #[test]
    fn lca_and_distance() {
        let t = two_level();
        assert_eq!(t.lca(NodeId(3), NodeId(4)), NodeId(1));
        assert_eq!(t.lca(NodeId(3), NodeId(5)), NodeId(0));
        assert_eq!(t.lca(NodeId(5), NodeId(5)), NodeId(5));
        assert_eq!(t.lca(NodeId(0), NodeId(7)), NodeId(0));
        assert_eq!(t.distance(NodeId(3), NodeId(5)), 4);
        assert_eq!(t.distance(NodeId(3), NodeId(4)), 2);
        assert_eq!(t.distance(NodeId(3), NodeId(3)), 0);
    }

    #[test]
    fn paths() {
        let t = two_level();
        let edges = t.path_edges(NodeId(3), NodeId(5));
        assert_eq!(edges, vec![EdgeId(3), EdgeId(1), EdgeId(2), EdgeId(5)]);
        let nodes = t.path_nodes(NodeId(3), NodeId(5));
        assert_eq!(nodes, vec![NodeId(3), NodeId(1), NodeId(0), NodeId(2), NodeId(5)]);
        assert_eq!(t.path_edges(NodeId(4), NodeId(4)), vec![]);
    }

    #[test]
    fn ancestor_and_subtree() {
        let t = two_level();
        assert!(t.is_ancestor(NodeId(0), NodeId(7)));
        assert!(t.is_ancestor(NodeId(2), NodeId(6)));
        assert!(!t.is_ancestor(NodeId(1), NodeId(6)));
        assert!(t.is_ancestor(NodeId(4), NodeId(4)));
        assert_eq!(t.subtree_size(NodeId(2)), 4);
        assert_eq!(t.subtree(NodeId(2)), &[NodeId(2), NodeId(5), NodeId(6), NodeId(7)]);
        assert_eq!(t.subtree_size(t.root()), 8);
    }

    #[test]
    fn step_towards_descends_and_ascends() {
        let t = two_level();
        assert_eq!(t.step_towards(NodeId(0), NodeId(6)), NodeId(2));
        assert_eq!(t.step_towards(NodeId(2), NodeId(6)), NodeId(6));
        assert_eq!(t.step_towards(NodeId(6), NodeId(3)), NodeId(2));
        assert_eq!(t.step_towards(NodeId(1), NodeId(7)), NodeId(0));
    }

    #[test]
    fn child_towards_picks_the_covering_subtree() {
        let t = two_level();
        assert_eq!(t.child_towards(NodeId(0), NodeId(3)), NodeId(1));
        assert_eq!(t.child_towards(NodeId(0), NodeId(7)), NodeId(2));
        assert_eq!(t.child_towards(NodeId(2), NodeId(6)), NodeId(6));
        assert_eq!(t.child_towards(NodeId(0), NodeId(1)), NodeId(1));
    }

    #[test]
    #[should_panic(expected = "not a proper descendant")]
    fn child_towards_rejects_non_descendants() {
        let t = two_level();
        t.child_towards(NodeId(1), NodeId(7));
    }

    /// Independent oracle: climb both endpoints to the LCA with plain
    /// parent walks (no iterator code involved).
    fn naive_path_nodes(t: &Network, a: NodeId, b: NodeId) -> Vec<NodeId> {
        let l = t.lca(a, b);
        let mut nodes = Vec::new();
        let mut v = a;
        while v != l {
            nodes.push(v);
            v = t.parent(v);
        }
        nodes.push(l);
        let mut down = Vec::new();
        let mut v = b;
        while v != l {
            down.push(v);
            v = t.parent(v);
        }
        down.reverse();
        nodes.extend(down);
        nodes
    }

    #[test]
    fn path_iterators_match_naive_walks() {
        let t = two_level();
        for a in t.nodes() {
            for b in t.nodes() {
                let want_nodes = naive_path_nodes(&t, a, b);
                let want_edges: Vec<EdgeId> = want_nodes
                    .windows(2)
                    .map(|w| {
                        if t.parent(w[1]) == w[0] {
                            EdgeId::from(w[1])
                        } else {
                            EdgeId::from(w[0])
                        }
                    })
                    .collect();
                let edges: Vec<EdgeId> = t.path_edges_iter(a, b).collect();
                assert_eq!(edges, want_edges, "{a}->{b}");
                assert_eq!(t.path_edges_iter(a, b).len(), want_edges.len());
                let nodes: Vec<NodeId> = t.path_nodes_iter(a, b).collect();
                assert_eq!(nodes, want_nodes, "{a}->{b}");
                assert_eq!(t.path_nodes_iter(a, b).len(), want_nodes.len());
            }
        }
    }

    #[test]
    fn preorder_parents_first() {
        let t = two_level();
        let pos: Vec<usize> = {
            let mut pos = vec![0; t.n_nodes()];
            for (i, &v) in t.preorder().iter().enumerate() {
                pos[v.index()] = i;
            }
            pos
        };
        for v in t.nodes() {
            if v != t.root() {
                assert!(pos[t.parent(v).index()] < pos[v.index()]);
            }
        }
    }

    #[test]
    fn postorder_children_first() {
        let t = two_level();
        let mut seen = vec![false; t.n_nodes()];
        for v in t.postorder() {
            for &c in t.children(v) {
                assert!(seen[c.index()], "child {c} must appear before parent {v}");
            }
            seen[v.index()] = true;
        }
    }

    #[test]
    fn processor_indexing_roundtrip() {
        let t = two_level();
        for (i, &p) in t.processors().iter().enumerate() {
            assert_eq!(t.processor_index(p), i);
            assert_eq!(t.processor_at(i), p);
        }
    }
}
