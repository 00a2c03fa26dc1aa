//! Working representation of copies and the request groups they serve.
//!
//! The three steps of the extended-nibble strategy hand copies to each
//! other: the nibble strategy creates one copy per chosen node with the
//! request groups routed to it, the deletion algorithm deletes/merges and
//! splits copies, and the mapping algorithm moves copies to leaves. A
//! [`CopyState`] tracks a copy's current node and its request groups, so
//! `s(c)` — the number of requests served by `c` — is always derivable.

use hbn_topology::NodeId;
use hbn_workload::ObjectId;

/// A weighted request group: `reads + writes` requests from one processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Group {
    /// The requesting processor.
    pub processor: NodeId,
    /// Read requests in this group.
    pub reads: u64,
    /// Write requests in this group.
    pub writes: u64,
}

impl Group {
    /// Total requests in the group.
    #[inline]
    pub fn weight(&self) -> u64 {
        self.reads + self.writes
    }

    /// Split off a sub-group of total weight `take ≤ weight()`, removing it
    /// from `self`. Reads are taken first, then writes.
    pub fn split_off(&mut self, take: u64) -> Group {
        debug_assert!(take <= self.weight());
        let take_reads = take.min(self.reads);
        let take_writes = take - take_reads;
        self.reads -= take_reads;
        self.writes -= take_writes;
        Group { processor: self.processor, reads: take_reads, writes: take_writes }
    }
}

/// A copy of an object together with the request groups it serves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CopyState {
    /// The object this is a copy of.
    pub object: ObjectId,
    /// The node currently holding the copy.
    pub node: NodeId,
    /// Request groups served by this copy.
    pub groups: Vec<Group>,
}

impl CopyState {
    /// A copy with no assigned requests.
    pub fn empty(object: ObjectId, node: NodeId) -> Self {
        CopyState { object, node, groups: Vec::new() }
    }

    /// `s(c)`: the number of read and write requests served by this copy.
    pub fn served(&self) -> u64 {
        self.groups.iter().map(Group::weight).sum()
    }

    /// Absorb all groups of another copy (used when a deleted copy's
    /// requests are reassigned).
    pub fn absorb(&mut self, other: &mut CopyState) {
        self.groups.append(&mut other.groups);
    }
}

/// All copies of one object at some pipeline stage, plus the object's write
/// contention `κ_x` (cached because every stage consults it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectCopies {
    /// The object.
    pub object: ObjectId,
    /// Write contention `κ_x = Σ_P h_w(P, x)`.
    pub kappa: u64,
    /// The copies. Several copies may share a node after splitting.
    pub copies: Vec<CopyState>,
}

impl ObjectCopies {
    /// Distinct nodes holding at least one copy.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.copies.iter().map(|c| c.node).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Total requests served across all copies (equals `h_x` when every
    /// request is assigned).
    pub fn total_served(&self) -> u64 {
        self.copies.iter().map(CopyState::served).sum()
    }

    /// `τ` contribution of this object: `max_c s(c) + κ_x` over its copies.
    pub fn max_tau(&self) -> u64 {
        self.copies.iter().map(|c| c.served() + self.kappa).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(p: u32, r: u64, w: u64) -> Group {
        Group { processor: NodeId(p), reads: r, writes: w }
    }

    #[test]
    fn group_weight_and_split() {
        let mut grp = g(1, 3, 4);
        assert_eq!(grp.weight(), 7);
        let taken = grp.split_off(5);
        assert_eq!(taken.weight(), 5);
        assert_eq!((taken.reads, taken.writes), (3, 2));
        assert_eq!((grp.reads, grp.writes), (0, 2));
        assert_eq!(grp.weight() + taken.weight(), 7);
    }

    #[test]
    fn split_off_zero_and_all() {
        let mut grp = g(1, 2, 2);
        let zero = grp.split_off(0);
        assert_eq!(zero.weight(), 0);
        let all = grp.split_off(4);
        assert_eq!(all.weight(), 4);
        assert_eq!(grp.weight(), 0);
    }

    #[test]
    fn copy_served_and_absorb() {
        let x = ObjectId(0);
        let mut a = CopyState { object: x, node: NodeId(2), groups: vec![g(1, 1, 1)] };
        let mut b = CopyState { object: x, node: NodeId(3), groups: vec![g(4, 2, 0), g(5, 0, 3)] };
        assert_eq!(a.served(), 2);
        assert_eq!(b.served(), 5);
        a.absorb(&mut b);
        assert_eq!(a.served(), 7);
        assert_eq!(b.served(), 0);
    }

    #[test]
    fn object_copies_aggregates() {
        let x = ObjectId(1);
        let oc = ObjectCopies {
            object: x,
            kappa: 3,
            copies: vec![
                CopyState { object: x, node: NodeId(5), groups: vec![g(5, 4, 0)] },
                CopyState { object: x, node: NodeId(5), groups: vec![g(6, 0, 2)] },
                CopyState { object: x, node: NodeId(7), groups: vec![] },
            ],
        };
        assert_eq!(oc.nodes(), vec![NodeId(5), NodeId(7)]);
        assert_eq!(oc.total_served(), 6);
        assert_eq!(oc.max_tau(), 4 + 3);
    }
}
