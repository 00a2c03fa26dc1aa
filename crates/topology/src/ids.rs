//! Strongly typed identifiers for nodes and edges of a hierarchical bus
//! network.
//!
//! Nodes are numbered densely from `0..n`. Every non-root node owns exactly
//! one edge — the switch connecting it to its parent under the network's
//! fixed root — so edges are identified by their child endpoint
//! ([`EdgeId::child`]).

/// Index of a node (processor or bus) in a [`crate::Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node index as a `usize`, for slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    #[inline]
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Index of an undirected edge (switch). Edge `e` connects node
/// `e.child()` to its parent in the rooted representation, so valid edge
/// ids are exactly the non-root node ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The child endpoint of this edge.
    #[inline]
    pub fn child(self) -> NodeId {
        NodeId(self.0)
    }

    /// The edge index as a `usize`, for slice indexing. Per-edge arrays are
    /// indexed by the child node id, i.e. they have one (unused) slot for
    /// the root.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<NodeId> for EdgeId {
    #[inline]
    fn from(v: NodeId) -> Self {
        EdgeId(v.0)
    }
}

impl std::fmt::Display for EdgeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A directed view of an edge, used by the mapping algorithm of the paper
/// (Section 3.3), which replaces every tree edge by two directed edges.
///
/// `Up` points from the child towards the root, `Down` from the parent
/// towards the child.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Towards the root (the paper's "upward" edges).
    Up,
    /// Away from the root (the paper's "downward" edges).
    Down,
}

impl Direction {
    /// The opposite direction.
    #[inline]
    pub fn reverse(self) -> Direction {
        match self {
            Direction::Up => Direction::Down,
            Direction::Down => Direction::Up,
        }
    }
}

/// A directed edge: an [`EdgeId`] together with a [`Direction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirEdge {
    /// The underlying undirected edge.
    pub edge: EdgeId,
    /// Orientation relative to the root.
    pub dir: Direction,
}

impl DirEdge {
    /// The upward orientation of `edge`.
    #[inline]
    pub fn up(edge: EdgeId) -> Self {
        DirEdge { edge, dir: Direction::Up }
    }

    /// The downward orientation of `edge`.
    #[inline]
    pub fn down(edge: EdgeId) -> Self {
        DirEdge { edge, dir: Direction::Down }
    }

    /// The same edge in the opposite direction.
    #[inline]
    pub fn reverse(self) -> Self {
        DirEdge { edge: self.edge, dir: self.dir.reverse() }
    }
}

/// Bandwidth of a bus or switch, a positive integer as in the paper's model
/// (`b : E ∪ B → N`).
pub type Bandwidth = u64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let v = NodeId(7);
        assert_eq!(v.index(), 7);
        assert_eq!(NodeId::from(7u32), v);
        assert_eq!(v.to_string(), "v7");
    }

    #[test]
    fn edge_id_child() {
        let e = EdgeId(3);
        assert_eq!(e.child(), NodeId(3));
        assert_eq!(e.index(), 3);
        assert_eq!(EdgeId::from(NodeId(3)), e);
        assert_eq!(e.to_string(), "e3");
    }

    #[test]
    fn direction_reverse_is_involution() {
        assert_eq!(Direction::Up.reverse(), Direction::Down);
        assert_eq!(Direction::Down.reverse(), Direction::Up);
        let d = DirEdge::up(EdgeId(1));
        assert_eq!(d.reverse().reverse(), d);
        assert_eq!(d.reverse(), DirEdge::down(EdgeId(1)));
    }
}
