//! Read and write frequency matrices `h_r, h_w : P × X → N`.
//!
//! The matrices are stored sparsely per object: most realistic workloads
//! touch each object from a handful of processors, and the paper's
//! algorithms iterate per object anyway. A matrix also lists its
//! *support*, the objects with at least one entry, so per-epoch work can
//! run over the objects that carry traffic instead of every object id.

use crate::objects::ObjectId;
use hbn_topology::{Network, NodeId};

/// Read/write counts of one processor on one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEntry {
    /// The requesting processor (a leaf of the network).
    pub processor: NodeId,
    /// `h_r(P, x)` — number of read requests.
    pub reads: u64,
    /// `h_w(P, x)` — number of write requests.
    pub writes: u64,
}

impl AccessEntry {
    /// Total requests `h_r + h_w` of this entry.
    #[inline]
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

/// Sparse read/write frequency matrices for a set of shared objects.
///
/// Entries with `reads = writes = 0` are dropped; per object the entries
/// are kept sorted by processor id, so iteration order is deterministic.
///
/// The matrix records each object when it gets its first entry; that
/// list is the [`AccessMatrix::support`], and [`AccessMatrix::clear`]
/// empties only those objects. [`AccessMatrix::add_matrix`] folds a whole
/// matrix in (an epoch's into a running aggregate) with one add per entry.
/// The support's order is iteration order only: equality compares the
/// entries alone, so two matrices with the same entries are equal
/// whatever order their supports were filled or sorted in.
#[derive(Debug, Clone, Default)]
pub struct AccessMatrix {
    /// `per_object[x]` lists the processors accessing object `x`.
    per_object: Vec<Vec<AccessEntry>>,
    /// The objects with at least one entry, in the order each got its
    /// first, or ascending since the last [`AccessMatrix::sort_support`].
    support: Vec<ObjectId>,
}

impl PartialEq for AccessMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.per_object == other.per_object
    }
}

impl Eq for AccessMatrix {}

impl AccessMatrix {
    /// An all-zero matrix over `n_objects` objects.
    pub fn new(n_objects: usize) -> Self {
        AccessMatrix { per_object: vec![Vec::new(); n_objects], support: Vec::new() }
    }

    /// Number of objects `|X|`.
    #[inline]
    pub fn n_objects(&self) -> usize {
        self.per_object.len()
    }

    /// Iterate over all object ids.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        (0..self.n_objects() as u32).map(ObjectId)
    }

    /// Iterate over the support: every object with at least one entry,
    /// each once. An object joins the support's end when it gets its
    /// first entry, so the order is first-entry order until
    /// [`AccessMatrix::sort_support`] puts it in ascending id order.
    pub fn support(&self) -> impl ExactSizeIterator<Item = ObjectId> + Clone + '_ {
        self.support.iter().copied()
    }

    /// Put the support in ascending object-id order, in `O(k log k)` for
    /// `k` objects. Only the iteration order of
    /// [`AccessMatrix::support`] changes, and with it the order in which
    /// [`AccessMatrix::clear`] visits rows and
    /// [`AccessMatrix::add_matrix`] adds objects new to the receiving
    /// matrix: the entries, equality and every sum stay the same. A walk
    /// over a sorted support reads per-object arrays in address order.
    pub fn sort_support(&mut self) {
        self.support.sort_unstable();
    }

    /// Remove every entry, keeping the object count and each object's
    /// allocation. Costs `O(support)`, not `O(n_objects)`.
    pub fn clear(&mut self) {
        for x in self.support.drain(..) {
            self.per_object[x.index()].clear();
        }
    }

    /// Append a fresh all-zero object and return its id.
    pub fn push_object(&mut self) -> ObjectId {
        self.per_object.push(Vec::new());
        ObjectId(self.per_object.len() as u32 - 1)
    }

    /// Add `reads`/`writes` accesses from `processor` to `x` (saturating).
    pub fn add(&mut self, processor: NodeId, x: ObjectId, reads: u64, writes: u64) {
        if reads == 0 && writes == 0 {
            return;
        }
        let entries = &mut self.per_object[x.index()];
        match entries.binary_search_by_key(&processor, |e| e.processor) {
            Ok(i) => {
                entries[i].reads = entries[i].reads.saturating_add(reads);
                entries[i].writes = entries[i].writes.saturating_add(writes);
            }
            Err(i) => {
                if entries.is_empty() {
                    self.support.push(x);
                }
                entries.insert(i, AccessEntry { processor, reads, writes });
            }
        }
    }

    /// Add every entry of `other` (saturating), row by row in `other`'s
    /// support order, so objects new to this matrix join its support in
    /// that order. Costs one [`AccessMatrix::add`] per entry of `other`:
    /// an epoch's matrix folds into a running aggregate once per distinct
    /// `(object, processor)` pair, not once per request that filled it.
    ///
    /// # Panics
    ///
    /// Panics if `other` names an object at or beyond
    /// [`AccessMatrix::n_objects`].
    pub fn add_matrix(&mut self, other: &AccessMatrix) {
        for x in other.support() {
            for e in other.object_entries(x) {
                self.add(e.processor, x, e.reads, e.writes);
            }
        }
    }

    /// Overwrite the access counts of `(processor, x)`.
    pub fn set(&mut self, processor: NodeId, x: ObjectId, reads: u64, writes: u64) {
        let entries = &mut self.per_object[x.index()];
        match entries.binary_search_by_key(&processor, |e| e.processor) {
            Ok(i) => {
                if reads == 0 && writes == 0 {
                    entries.remove(i);
                    if entries.is_empty() {
                        let at = self.support.iter().position(|&y| y == x);
                        self.support.remove(at.expect("a non-empty object is in the support"));
                    }
                } else {
                    entries[i] = AccessEntry { processor, reads, writes };
                }
            }
            Err(i) => {
                if reads != 0 || writes != 0 {
                    if entries.is_empty() {
                        self.support.push(x);
                    }
                    entries.insert(i, AccessEntry { processor, reads, writes });
                }
            }
        }
    }

    /// `h_r(P, x)`.
    pub fn reads(&self, processor: NodeId, x: ObjectId) -> u64 {
        self.entry(processor, x).map_or(0, |e| e.reads)
    }

    /// `h_w(P, x)`.
    pub fn writes(&self, processor: NodeId, x: ObjectId) -> u64 {
        self.entry(processor, x).map_or(0, |e| e.writes)
    }

    /// `h(P, x) = h_r + h_w`.
    pub fn total(&self, processor: NodeId, x: ObjectId) -> u64 {
        self.entry(processor, x).map_or(0, |e| e.total())
    }

    fn entry(&self, processor: NodeId, x: ObjectId) -> Option<&AccessEntry> {
        let entries = &self.per_object[x.index()];
        entries.binary_search_by_key(&processor, |e| e.processor).ok().map(|i| &entries[i])
    }

    /// All non-zero entries of object `x`, sorted by processor id.
    #[inline]
    pub fn object_entries(&self, x: ObjectId) -> &[AccessEntry] {
        &self.per_object[x.index()]
    }

    /// Write contention `κ_x = Σ_P h_w(P, x)` (paper, Section 3, step 2).
    pub fn write_contention(&self, x: ObjectId) -> u64 {
        self.per_object[x.index()].iter().map(|e| e.writes).sum()
    }

    /// Total reads `Σ_P h_r(P, x)`.
    pub fn total_reads(&self, x: ObjectId) -> u64 {
        self.per_object[x.index()].iter().map(|e| e.reads).sum()
    }

    /// Total weight `h_x = Σ_P (h_r + h_w)(P, x)`.
    pub fn total_weight(&self, x: ObjectId) -> u64 {
        self.per_object[x.index()].iter().map(|e| e.total()).sum()
    }

    /// Number of non-zero entries across all objects.
    pub fn nnz(&self) -> usize {
        self.support().map(|x| self.per_object[x.index()].len()).sum()
    }

    /// Grand total of all requests in the workload.
    pub fn grand_total(&self) -> u64 {
        self.support().map(|x| self.total_weight(x)).sum()
    }

    /// Check that every entry names a processor of `net` (not a bus) and
    /// has non-zero weight.
    pub fn validate(&self, net: &Network) -> Result<(), WorkloadError> {
        for x in self.objects() {
            for e in self.object_entries(x) {
                if !net.is_processor(e.processor) {
                    return Err(WorkloadError::NotAProcessor { processor: e.processor, object: x });
                }
                if e.total() == 0 {
                    return Err(WorkloadError::EmptyEntry { processor: e.processor, object: x });
                }
            }
        }
        Ok(())
    }
}

/// Errors raised by workload validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// An access entry names a node that is not a processor of the network.
    NotAProcessor {
        /// The offending node.
        processor: NodeId,
        /// The object the entry belongs to.
        object: ObjectId,
    },
    /// An access entry has zero reads and writes (should have been dropped).
    EmptyEntry {
        /// The entry's processor.
        processor: NodeId,
        /// The entry's object.
        object: ObjectId,
    },
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::NotAProcessor { processor, object } => {
                write!(f, "access to {object} from {processor}, which is not a processor")
            }
            WorkloadError::EmptyEntry { processor, object } => {
                write!(f, "empty access entry ({processor}, {object})")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

#[cfg(test)]
mod tests {
    use super::*;
    use hbn_topology::generators::star;

    #[test]
    fn add_set_get() {
        let mut m = AccessMatrix::new(2);
        let p = NodeId(1);
        let x = ObjectId(0);
        m.add(p, x, 3, 2);
        m.add(p, x, 1, 0);
        assert_eq!(m.reads(p, x), 4);
        assert_eq!(m.writes(p, x), 2);
        assert_eq!(m.total(p, x), 6);
        m.set(p, x, 7, 0);
        assert_eq!(m.reads(p, x), 7);
        assert_eq!(m.writes(p, x), 0);
        m.set(p, x, 0, 0);
        assert_eq!(m.total(p, x), 0);
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn zero_adds_are_dropped() {
        let mut m = AccessMatrix::new(1);
        m.add(NodeId(1), ObjectId(0), 0, 0);
        assert_eq!(m.nnz(), 0);
        assert!(m.object_entries(ObjectId(0)).is_empty());
    }

    #[test]
    fn contention_and_weights() {
        let mut m = AccessMatrix::new(1);
        let x = ObjectId(0);
        m.add(NodeId(1), x, 5, 1);
        m.add(NodeId(2), x, 0, 4);
        assert_eq!(m.write_contention(x), 5);
        assert_eq!(m.total_reads(x), 5);
        assert_eq!(m.total_weight(x), 10);
        assert_eq!(m.grand_total(), 10);
    }

    #[test]
    fn entries_sorted_by_processor() {
        let mut m = AccessMatrix::new(1);
        let x = ObjectId(0);
        m.add(NodeId(9), x, 1, 0);
        m.add(NodeId(2), x, 1, 0);
        m.add(NodeId(5), x, 1, 0);
        let procs: Vec<u32> = m.object_entries(x).iter().map(|e| e.processor.0).collect();
        assert_eq!(procs, vec![2, 5, 9]);
    }

    #[test]
    fn validate_catches_bus_access() {
        let net = star(3, 1); // node 0 is the bus, 1..3 processors
        let mut m = AccessMatrix::new(1);
        m.add(NodeId(1), ObjectId(0), 1, 0);
        assert!(m.validate(&net).is_ok());
        m.add(NodeId(0), ObjectId(0), 1, 0);
        assert!(matches!(m.validate(&net), Err(WorkloadError::NotAProcessor { .. })));
    }

    #[test]
    fn support_lists_objects_with_entries_in_first_entry_order() {
        let mut m = AccessMatrix::new(5);
        m.add(NodeId(1), ObjectId(3), 1, 0);
        m.add(NodeId(2), ObjectId(0), 0, 1);
        m.add(NodeId(4), ObjectId(3), 2, 0);
        m.add(NodeId(1), ObjectId(4), 0, 0);
        assert_eq!(m.support().collect::<Vec<_>>(), vec![ObjectId(3), ObjectId(0)]);
        // Emptying an object by `set` drops it; refilling re-adds it.
        m.set(NodeId(2), ObjectId(0), 0, 0);
        assert_eq!(m.support().collect::<Vec<_>>(), vec![ObjectId(3)]);
        m.set(NodeId(2), ObjectId(0), 1, 0);
        assert_eq!(m.support().collect::<Vec<_>>(), vec![ObjectId(3), ObjectId(0)]);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.grand_total(), 4);
    }

    #[test]
    fn clear_empties_the_support_and_keeps_the_shape() {
        let mut m = AccessMatrix::new(4);
        m.add(NodeId(1), ObjectId(2), 3, 1);
        m.add(NodeId(2), ObjectId(1), 1, 0);
        m.clear();
        assert_eq!(m, AccessMatrix::new(4));
        assert_eq!(m.n_objects(), 4);
        assert_eq!(m.support().len(), 0);
        assert_eq!(m.nnz(), 0);
        m.add(NodeId(3), ObjectId(2), 0, 2);
        assert_eq!(m.support().collect::<Vec<_>>(), vec![ObjectId(2)]);
        assert_eq!(m.object_entries(ObjectId(2)).len(), 1);
    }

    #[test]
    fn equality_ignores_support_order() {
        let mut a = AccessMatrix::new(3);
        a.add(NodeId(1), ObjectId(0), 1, 0);
        a.add(NodeId(1), ObjectId(2), 1, 0);
        let mut b = AccessMatrix::new(3);
        b.add(NodeId(1), ObjectId(2), 1, 0);
        b.add(NodeId(1), ObjectId(0), 1, 0);
        assert_eq!(a, b);
        assert_eq!(a.clone(), a);
        b.add(NodeId(2), ObjectId(1), 0, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn add_matrix_sums_entries_and_orders_the_support() {
        let (x, y, z) = (ObjectId(0), ObjectId(1), ObjectId(2));
        let mut sum = AccessMatrix::new(3);
        sum.add(NodeId(3), y, u64::MAX - 1, 3);
        sum.add(NodeId(5), y, 1, 1);
        let mut epoch = AccessMatrix::new(3);
        epoch.add(NodeId(5), y, 5, u64::MAX);
        epoch.add(NodeId(1), y, 0, 2);
        epoch.add(NodeId(4), z, 1, 0);
        epoch.add(NodeId(3), y, 7, 0);
        epoch.add(NodeId(2), x, 0, 1);
        sum.add_matrix(&epoch);
        let entry = |p, reads, writes| AccessEntry { processor: NodeId(p), reads, writes };
        let row = [entry(1, 0, 2), entry(3, u64::MAX, 3), entry(5, 6, u64::MAX)];
        assert_eq!(sum.object_entries(y), &row);
        assert_eq!(sum.object_entries(z), &[entry(4, 1, 0)]);
        assert_eq!(sum.object_entries(x), &[entry(2, 0, 1)]);
        // New objects join in the epoch's support order.
        assert_eq!(sum.support().collect::<Vec<_>>(), vec![y, z, x]);

        // Folding an empty matrix changes nothing; folding into one copies.
        let before = sum.clone();
        sum.add_matrix(&AccessMatrix::new(3));
        assert_eq!(sum, before);
        let mut copy = AccessMatrix::new(3);
        copy.add_matrix(&sum);
        assert_eq!(copy, sum);
        assert_eq!(copy.support().collect::<Vec<_>>(), vec![y, z, x]);
    }

    /// Sorting the support changes iteration order alone: after it a
    /// fold adds new objects in id order and `clear` still empties every
    /// row, those appended since the sort included.
    #[test]
    fn sort_support_orders_iteration_only() {
        let ids = |m: &AccessMatrix| m.support().map(|x| x.0).collect::<Vec<_>>();
        let mut m = AccessMatrix::new(8);
        for (p, x, reads, writes) in
            [(1, 6, 2, 0), (3, 2, 0, 1), (2, 6, 1, 1), (1, 0, 4, 0), (2, 5, 0, 3)]
        {
            m.add(NodeId(p), ObjectId(x), reads, writes);
        }
        let before = m.clone();
        m.sort_support();
        assert_eq!(ids(&before), [6, 2, 0, 5]);
        assert_eq!(ids(&m), [0, 2, 5, 6]);
        assert_eq!(m, before);
        assert_eq!((m.nnz(), m.grand_total()), (before.nnz(), before.grand_total()));
        assert_eq!((m.nnz(), m.grand_total()), (5, 12));

        // Objects new to the aggregate join it in the sorted epoch's order,
        // after the ones it holds.
        let mut sum = AccessMatrix::new(8);
        sum.add(NodeId(4), ObjectId(7), 1, 0);
        sum.add(NodeId(4), ObjectId(5), 1, 0);
        sum.add_matrix(&m);
        assert_eq!(ids(&sum), [7, 5, 0, 2, 6]);
        assert_eq!(sum.object_entries(ObjectId(5)).len(), 2);

        m.add(NodeId(3), ObjectId(1), 1, 0);
        assert_eq!(ids(&m), [0, 2, 5, 6, 1]);
        m.clear();
        assert_eq!(m, AccessMatrix::new(8));
        assert_eq!(m.support().len(), 0);
    }

    #[test]
    fn push_object_grows() {
        let mut m = AccessMatrix::new(0);
        let x0 = m.push_object();
        let x1 = m.push_object();
        assert_eq!((x0, x1), (ObjectId(0), ObjectId(1)));
        assert_eq!(m.n_objects(), 2);
    }
}
