//! Steiner trees of terminal sets in the network tree.
//!
//! A write to object `x` broadcasts an update along the Steiner tree
//! spanning the copy set `P_x` (paper, Section 1.1). In a tree the Steiner
//! tree of a terminal set `S` is unique: it consists of every edge `e`
//! whose removal separates two terminals, equivalently every edge whose
//! child-side subtree contains at least one but not all terminals.

use crate::ids::{EdgeId, NodeId};
use crate::tree::Network;

/// Reusable buffers for repeated Steiner-tree computations.
///
/// The virtual-tree construction sorts the terminal set and collects path
/// edges; callers on hot paths (the bulk load accounting runs one Steiner
/// computation per object of a placement) hand the same scratch to every
/// call so the buffers reach a high-water capacity once and no further
/// allocation happens. The dynamic strategy's write broadcast does not
/// need this machinery at all: its terminal set is connected, so the
/// Steiner tree degenerates to the induced edge set (see
/// `hbn-dynamic`).
#[derive(Debug, Default)]
pub struct SteinerScratch {
    terminals: Vec<NodeId>,
    edges: Vec<EdgeId>,
}

impl SteinerScratch {
    /// An empty scratch; buffers are sized lazily on first use.
    pub fn new() -> SteinerScratch {
        SteinerScratch::default()
    }
}

/// Edges of the Steiner tree spanning `terminals`, computed in
/// `O(k log k + output)` time via the virtual-tree technique (sort by
/// preorder time, walk consecutive LCAs).
///
/// Returns an empty set for fewer than two terminals. Duplicate terminals
/// are allowed.
pub fn steiner_edges(net: &Network, terminals: &[NodeId]) -> Vec<EdgeId> {
    let mut scratch = SteinerScratch::new();
    steiner_edges_with(net, terminals, &mut scratch);
    std::mem::take(&mut scratch.edges)
}

/// [`steiner_edges`] into caller-provided scratch: no allocation once the
/// scratch buffers have grown to the working-set size. The returned slice
/// (sorted, deduplicated — identical to [`steiner_edges`]) borrows the
/// scratch and is valid until its next use.
pub fn steiner_edges_with<'s>(
    net: &Network,
    terminals: &[NodeId],
    scratch: &'s mut SteinerScratch,
) -> &'s [EdgeId] {
    scratch.edges.clear();
    if terminals.len() < 2 {
        return &scratch.edges;
    }
    scratch.terminals.clear();
    scratch.terminals.extend_from_slice(terminals);
    scratch.terminals.sort_unstable_by_key(|&v| net.preorder_index(v));
    scratch.terminals.dedup();
    if scratch.terminals.len() == 1 {
        return &scratch.edges;
    }
    // The Steiner tree is the union of the paths between preorder-adjacent
    // terminals plus the path closing through the overall LCA; collecting
    // path edges of consecutive pairs covers every Steiner edge at least
    // once (classic virtual tree property).
    for w in scratch.terminals.windows(2) {
        scratch.edges.extend(net.path_edges_iter(w[0], w[1]));
    }
    scratch.edges.sort_unstable();
    scratch.edges.dedup();
    &scratch.edges
}

/// Marks each edge of the Steiner tree of `terminals` in a reusable
/// per-edge buffer (indexed by `EdgeId::index`), adding `weight` to marked
/// entries. Used by the load accounting, which processes many objects and
/// wants to avoid repeated allocation.
pub fn add_steiner_load(net: &Network, terminals: &[NodeId], weight: u64, out: &mut [u64]) {
    let mut scratch = SteinerScratch::new();
    add_steiner_load_with(net, terminals, weight, &mut scratch, out);
}

/// [`add_steiner_load`] with caller-provided scratch: fully allocation-free
/// once the scratch has reached its high-water capacity.
pub fn add_steiner_load_with(
    net: &Network,
    terminals: &[NodeId],
    weight: u64,
    scratch: &mut SteinerScratch,
    out: &mut [u64],
) {
    for &e in steiner_edges_with(net, terminals, scratch) {
        out[e.index()] += weight;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;

    /// bus0 — bus1(p3,p4), bus2(p5,p6,p7)
    fn two_level() -> Network {
        let mut b = NetworkBuilder::new();
        let r = b.add_bus(4);
        let b1 = b.add_bus(2);
        let b2 = b.add_bus(2);
        let ps: Vec<_> = (0..5).map(|_| b.add_processor()).collect();
        b.connect(r, b1, 2).unwrap();
        b.connect(r, b2, 3).unwrap();
        b.connect(b1, ps[0], 1).unwrap();
        b.connect(b1, ps[1], 1).unwrap();
        b.connect(b2, ps[2], 1).unwrap();
        b.connect(b2, ps[3], 1).unwrap();
        b.connect(b2, ps[4], 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn empty_and_singleton() {
        let t = two_level();
        assert!(steiner_edges(&t, &[]).is_empty());
        assert!(steiner_edges(&t, &[NodeId(3)]).is_empty());
        assert!(steiner_edges(&t, &[NodeId(3), NodeId(3)]).is_empty());
    }

    #[test]
    fn pair_is_path() {
        let t = two_level();
        let s = steiner_edges(&t, &[NodeId(3), NodeId(5)]);
        let mut p = t.path_edges(NodeId(3), NodeId(5));
        p.sort_unstable();
        assert_eq!(s, p);
    }

    #[test]
    fn three_terminals_in_one_subtree() {
        let t = two_level();
        let s = steiner_edges(&t, &[NodeId(5), NodeId(6), NodeId(7)]);
        // Spans bus2 and its three processors: edges e5, e6, e7 only.
        assert_eq!(s, vec![EdgeId(5), EdgeId(6), EdgeId(7)]);
    }

    #[test]
    fn spanning_terminals() {
        let t = two_level();
        let s = steiner_edges(&t, &[NodeId(3), NodeId(4), NodeId(7)]);
        // Paths 3-4 (via bus1) and up through the root to 7.
        assert_eq!(s, vec![EdgeId(1), EdgeId(2), EdgeId(3), EdgeId(4), EdgeId(7)]);
    }

    #[test]
    fn steiner_against_separation_definition() {
        // Cross-check the virtual-tree construction against the separation
        // definition on a brute-force enumeration of terminal subsets.
        let t = two_level();
        let procs = t.processors().to_vec();
        for mask in 0u32..(1 << procs.len()) {
            let terminals: Vec<NodeId> = procs
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &p)| p)
                .collect();
            let got = steiner_edges(&t, &terminals);
            let want: Vec<EdgeId> = t
                .edges()
                .filter(|&e| {
                    let inside = terminals.iter().filter(|&&p| t.is_ancestor(e.child(), p)).count();
                    inside > 0 && inside < terminals.len()
                })
                .collect();
            assert_eq!(got, want, "mask {mask:#b}");
        }
    }

    #[test]
    fn scratch_variant_matches_allocating_api_on_all_subsets() {
        let t = two_level();
        let procs = t.processors().to_vec();
        let mut scratch = SteinerScratch::new();
        for mask in 0u32..(1 << procs.len()) {
            let terminals: Vec<NodeId> = procs
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &p)| p)
                .collect();
            let want = steiner_edges(&t, &terminals);
            // The same scratch is reused across every subset.
            assert_eq!(steiner_edges_with(&t, &terminals, &mut scratch), want, "mask {mask:#b}");
        }
    }

    #[test]
    fn add_steiner_load_with_reuses_scratch() {
        let t = two_level();
        let mut buf = vec![0u64; t.n_nodes()];
        let mut scratch = SteinerScratch::new();
        add_steiner_load_with(&t, &[NodeId(3), NodeId(7)], 4, &mut scratch, &mut buf);
        add_steiner_load_with(&t, &[NodeId(3), NodeId(4)], 1, &mut scratch, &mut buf);
        assert_eq!(buf[3], 5);
        assert_eq!(buf[4], 1);
        assert_eq!(buf[7], 4);
    }

    #[test]
    fn add_steiner_load_accumulates() {
        let t = two_level();
        let mut buf = vec![0u64; t.n_nodes()];
        add_steiner_load(&t, &[NodeId(3), NodeId(4)], 5, &mut buf);
        add_steiner_load(&t, &[NodeId(3), NodeId(4)], 2, &mut buf);
        assert_eq!(buf[3], 7);
        assert_eq!(buf[4], 7);
        assert_eq!(buf[1], 0, "edge above bus1 is not in the Steiner tree");
    }
}
