//! Placements: copy sets `P_x` and reference-copy assignments `c(P, x)`.
//!
//! The paper's model assigns every processor a single reference copy per
//! object. The deletion algorithm (Section 3.2) may split a heavy copy
//! into several chunks, which can split one processor's requests across
//! two copies; our [`Placement`] therefore stores *weighted* assignment
//! entries and exposes [`Placement::is_single_reference`] to check model
//! compliance, plus [`Placement::nearest_assignment`] to produce the
//! compliant nearest-copy assignment for any copy sets.

use crate::ratio::LoadRatio;
use hbn_topology::{Network, NodeId};
use hbn_workload::{AccessMatrix, ObjectId};

/// One weighted request group routed to a server: `reads + writes`
/// requests from `processor` are served by the copy on `server`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssignmentEntry {
    /// The requesting processor.
    pub processor: NodeId,
    /// The node holding the reference copy serving this group.
    pub server: NodeId,
    /// Read requests routed to `server`.
    pub reads: u64,
    /// Write requests routed to `server`.
    pub writes: u64,
}

/// A (possibly redundant) placement of all objects plus the routing of
/// every request group to a reference copy.
///
/// Intermediate placements (the nibble placement of step 1) may hold
/// copies on buses; [`Placement::is_leaf_only`] checks the hierarchical
/// bus constraint that final placements must satisfy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Placement {
    /// `copies[x]`: sorted, deduplicated nodes holding copies of `x`.
    copies: Vec<Vec<NodeId>>,
    /// `assignments[x]`: request groups of `x` routed to servers.
    assignments: Vec<Vec<AssignmentEntry>>,
}

/// Validation failures for placements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// An object with requests has no copies.
    NoCopies(ObjectId),
    /// An assignment routes to a node that holds no copy.
    ServerWithoutCopy {
        /// The object.
        object: ObjectId,
        /// The offending server node.
        server: NodeId,
    },
    /// The assignment totals do not match the access matrix.
    CoverageMismatch {
        /// The object.
        object: ObjectId,
        /// The requesting processor whose totals differ.
        processor: NodeId,
    },
    /// A copy is placed on a node outside the network.
    UnknownNode(NodeId),
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::NoCopies(x) => write!(f, "object {x} has requests but no copies"),
            PlacementError::ServerWithoutCopy { object, server } => {
                write!(f, "assignment of {object} routes to {server}, which holds no copy")
            }
            PlacementError::CoverageMismatch { object, processor } => {
                write!(f, "assignment of {object} does not cover the requests of {processor}")
            }
            PlacementError::UnknownNode(v) => write!(f, "placement names unknown node {v}"),
        }
    }
}

impl std::error::Error for PlacementError {}

impl Placement {
    /// An empty placement over `n_objects` objects.
    pub fn new(n_objects: usize) -> Self {
        Placement { copies: vec![Vec::new(); n_objects], assignments: vec![Vec::new(); n_objects] }
    }

    /// Number of objects.
    #[inline]
    pub fn n_objects(&self) -> usize {
        self.copies.len()
    }

    /// The copy set `P_x` (sorted, deduplicated).
    #[inline]
    pub fn copies(&self, x: ObjectId) -> &[NodeId] {
        &self.copies[x.index()]
    }

    /// The assignment entries of `x`.
    #[inline]
    pub fn assignment(&self, x: ObjectId) -> &[AssignmentEntry] {
        &self.assignments[x.index()]
    }

    /// Replace the copy set of `x` (sorts and deduplicates).
    pub fn set_copies(&mut self, x: ObjectId, mut nodes: Vec<NodeId>) {
        nodes.sort_unstable();
        nodes.dedup();
        self.copies[x.index()] = nodes;
    }

    /// [`Placement::set_copies`] from a borrowed slice, written into the
    /// copy set's own allocation.
    pub fn set_copies_from(&mut self, x: ObjectId, nodes: &[NodeId]) {
        let set = &mut self.copies[x.index()];
        set.clear();
        set.extend_from_slice(nodes);
        set.sort_unstable();
        set.dedup();
    }

    /// Empty the copy set and the assignment of `x`, keeping both
    /// allocations.
    pub fn clear_object(&mut self, x: ObjectId) {
        self.copies[x.index()].clear();
        self.assignments[x.index()].clear();
    }

    /// Add a copy of `x` on `node`.
    pub fn add_copy(&mut self, x: ObjectId, node: NodeId) {
        let set = &mut self.copies[x.index()];
        if let Err(i) = set.binary_search(&node) {
            set.insert(i, node);
        }
    }

    /// Whether `node` holds a copy of `x`.
    pub fn has_copy(&self, x: ObjectId, node: NodeId) -> bool {
        self.copies[x.index()].binary_search(&node).is_ok()
    }

    /// Append an assignment entry for `x`.
    pub fn push_assignment(&mut self, x: ObjectId, entry: AssignmentEntry) {
        if entry.reads == 0 && entry.writes == 0 {
            return;
        }
        self.assignments[x.index()].push(entry);
    }

    /// Replace the whole assignment of `x`.
    pub fn set_assignment(&mut self, x: ObjectId, entries: Vec<AssignmentEntry>) {
        self.assignments[x.index()] =
            entries.into_iter().filter(|e| e.reads + e.writes > 0).collect();
    }

    /// True when every copy lies on a processor — the hierarchical bus
    /// constraint for final placements.
    pub fn is_leaf_only(&self, net: &Network) -> bool {
        self.copies.iter().flatten().all(|&v| net.is_processor(v))
    }

    /// True when every `(processor, object)` pair routes to exactly one
    /// server, i.e. the placement defines a function `c(P, x)` as in the
    /// paper's model.
    pub fn is_single_reference(&self) -> bool {
        self.assignments.iter().all(|entries| {
            let mut procs: Vec<NodeId> = entries.iter().map(|e| e.processor).collect();
            procs.sort_unstable();
            let before = procs.len();
            procs.dedup();
            procs.len() == before
        })
    }

    /// Total copies across all objects.
    pub fn total_copies(&self) -> usize {
        self.copies.iter().map(Vec::len).sum()
    }

    /// Check structural consistency against the network and workload:
    /// every object with requests has ≥ 1 copy, every server holds a copy,
    /// and per `(processor, object)` the assignment totals equal the
    /// matrix entries.
    pub fn validate(&self, net: &Network, matrix: &AccessMatrix) -> Result<(), PlacementError> {
        assert_eq!(self.n_objects(), matrix.n_objects(), "object count mismatch");
        for x in matrix.objects() {
            for &c in self.copies(x) {
                if c.index() >= net.n_nodes() {
                    return Err(PlacementError::UnknownNode(c));
                }
            }
            if matrix.total_weight(x) > 0 && self.copies(x).is_empty() {
                return Err(PlacementError::NoCopies(x));
            }
            // Accumulate assignment totals per processor.
            let mut totals: std::collections::BTreeMap<NodeId, (u64, u64)> =
                std::collections::BTreeMap::new();
            for e in self.assignment(x) {
                if !self.has_copy(x, e.server) {
                    return Err(PlacementError::ServerWithoutCopy { object: x, server: e.server });
                }
                let t = totals.entry(e.processor).or_insert((0, 0));
                t.0 += e.reads;
                t.1 += e.writes;
            }
            for entry in matrix.object_entries(x) {
                let got = totals.remove(&entry.processor).unwrap_or((0, 0));
                if got != (entry.reads, entry.writes) {
                    return Err(PlacementError::CoverageMismatch {
                        object: x,
                        processor: entry.processor,
                    });
                }
            }
            if let Some((&processor, _)) = totals.iter().next() {
                // Assignment mentions a processor with no matrix entry.
                return Err(PlacementError::CoverageMismatch { object: x, processor });
            }
        }
        Ok(())
    }

    /// Build the model-compliant assignment that routes every request group
    /// to its *nearest* copy (ties to the smaller copy id), for the current
    /// copy sets. Requires every requested object to have ≥ 1 copy.
    ///
    /// One [`NearestCopies`] sweep serves every object, so each costs
    /// `O((requesters + copies) · height(T))`, independent of `|V|`.
    pub fn nearest_assignment(&mut self, net: &Network, matrix: &AccessMatrix) {
        let mut sweep = NearestCopies::new(net.n_nodes());
        for x in matrix.objects() {
            self.assign_nearest(net, matrix, x, &mut sweep);
        }
    }

    /// [`Placement::nearest_assignment`] over the objects of `matrix`'s
    /// [support](AccessMatrix::support) only, in `O(support)` instead of
    /// `O(n_objects)`. Unlike the full form it leaves the assignment of an
    /// object without requests as it is, instead of clearing it.
    pub fn nearest_assignment_support(&mut self, net: &Network, matrix: &AccessMatrix) {
        let mut sweep = NearestCopies::new(net.n_nodes());
        for x in matrix.support() {
            self.assign_nearest(net, matrix, x, &mut sweep);
        }
    }

    /// [`Placement::nearest_assignment`] for a single object.
    pub fn nearest_assignment_for(&mut self, net: &Network, matrix: &AccessMatrix, x: ObjectId) {
        self.assign_nearest(net, matrix, x, &mut NearestCopies::new(net.n_nodes()));
    }

    /// Route `x`'s request groups to their nearest copies, written into
    /// the assignment's own allocation. Matrix entries are never empty,
    /// so there is nothing for [`Placement::set_assignment`]'s filter to
    /// drop.
    fn assign_nearest(
        &mut self,
        net: &Network,
        matrix: &AccessMatrix,
        x: ObjectId,
        sweep: &mut NearestCopies,
    ) {
        let requests = matrix.object_entries(x);
        let assignment = &mut self.assignments[x.index()];
        assignment.clear();
        if requests.is_empty() {
            return;
        }
        sweep.load(net, &self.copies[x.index()]);
        assignment.extend(requests.iter().map(|e| AssignmentEntry {
            processor: e.processor,
            server: sweep.nearest(net, e.processor),
            reads: e.reads,
            writes: e.writes,
        }));
    }

    /// Convenience: the non-redundant placement that puts each object on a
    /// single given leaf and routes everything there.
    pub fn single_leaf(
        net: &Network,
        matrix: &AccessMatrix,
        leaf_of: impl Fn(ObjectId) -> NodeId,
    ) -> Placement {
        let mut p = Placement::new(matrix.n_objects());
        for x in matrix.objects() {
            let leaf = leaf_of(x);
            debug_assert!(net.is_processor(leaf), "{leaf} is not a processor");
            p.add_copy(x, leaf);
            for e in matrix.object_entries(x) {
                p.push_assignment(
                    x,
                    AssignmentEntry {
                        processor: e.processor,
                        server: leaf,
                        reads: e.reads,
                        writes: e.writes,
                    },
                );
            }
        }
        p
    }
}

/// For every node of the network, the nearest member of `copies`, via a
/// multi-source BFS over the tree in `O(|V|)`. Ties go to the
/// earliest-listed source, which is the smallest id only when `copies` is
/// sorted (as [`Placement`] copy sets are).
///
/// This is the full-network map; per-object callers use the
/// support-proportional [`NearestCopies`] sweep, which returns the same
/// node for every query.
///
/// # Panics
/// Panics if `copies` is empty.
pub fn nearest_copy_map(net: &Network, copies: &[NodeId]) -> Vec<NodeId> {
    assert!(!copies.is_empty(), "nearest_copy_map needs at least one copy");
    let n = net.n_nodes();
    let mut dist = vec![u32::MAX; n];
    let mut nearest = vec![NodeId(u32::MAX); n];
    let mut queue = std::collections::VecDeque::new();
    // Seed in slice order so ties resolve to the earliest-listed copy.
    for &c in copies {
        if dist[c.index()] == 0 && nearest[c.index()] != NodeId(u32::MAX) {
            continue; // duplicate seed
        }
        dist[c.index()] = 0;
        nearest[c.index()] = c;
        queue.push_back(c);
    }
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()];
        let parent = (v != net.root()).then(|| net.parent(v));
        for u in net.children(v).iter().copied().chain(parent) {
            if dist[u.index()] == u32::MAX {
                dist[u.index()] = d + 1;
                nearest[u.index()] = nearest[v.index()];
                queue.push_back(u);
            }
        }
    }
    nearest
}

/// The nearest-copy sweep: for one source slice at a time, the nearest
/// source of any node, in `O(|sources| · height(T))` to load and
/// `O(height(T))` per query. It is the per-object form of the
/// full-network BFS map and answers every query with the same node.
///
/// * *Load* walks each source's root path and records, at every ancestor
///   `a`, the best `(distance from a, position in the slice)` over the
///   sources below `a`.
/// * *Query* walks a node's root path and takes the minimum of
///   `(k + distance, position)` over its ancestors, where `k` is the
///   ancestor's distance from the node.
///
/// Through an ancestor `a` of both `v` and a source `s`, the walk
/// `v → a → s` is never shorter than the tree path, and equals it at
/// `a = lca(v, s)`; so the query's minimum is exactly
/// `min_s (dist(v, s), position(s))`. That is the BFS's answer too: its
/// FIFO queue holds each distance level in order of the owning source's
/// position, so a node is claimed through the nearest source listed
/// first. Duplicate sources resolve to their first position in both.
///
/// The scratch is one slot per node, invalidated by a generation bump,
/// so one sweep is reused across objects without clearing.
///
/// ```
/// use hbn_load::NearestCopies;
/// use hbn_topology::generators::{balanced, BandwidthProfile};
///
/// let net = balanced(2, 2, BandwidthProfile::Uniform);
/// let p = net.processors();
/// let mut sweep = NearestCopies::new(net.n_nodes());
/// // Unsorted sources: both are two hops from the root, and the tie goes
/// // to the one listed first.
/// sweep.load(&net, &[p[3], p[0]]);
/// assert_eq!(sweep.nearest(&net, net.root()), p[3]);
/// // p[1] shares a bus with p[0].
/// assert_eq!(sweep.nearest(&net, p[1]), p[0]);
/// ```
#[derive(Debug, Clone)]
pub struct NearestCopies {
    /// Per node: the best source below it, valid where `stamp` equals
    /// `generation`.
    best: Vec<SweepSlot>,
    generation: u32,
    /// The loaded source slice (positions index into it).
    sources: Vec<NodeId>,
}

#[derive(Debug, Clone, Copy, Default)]
struct SweepSlot {
    stamp: u32,
    dist: u32,
    pos: u32,
}

impl NearestCopies {
    /// Scratch for a network with `n_nodes` nodes.
    pub fn new(n_nodes: usize) -> Self {
        NearestCopies {
            best: vec![SweepSlot::default(); n_nodes],
            generation: 0,
            sources: Vec::new(),
        }
    }

    /// Load a source slice, replacing the previous one.
    ///
    /// # Panics
    /// Panics if `sources` is empty.
    pub fn load(&mut self, net: &Network, sources: &[NodeId]) {
        assert!(!sources.is_empty(), "nearest-copy sweep needs at least one source");
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: physically reset to keep stamps unambiguous.
            self.best.iter_mut().for_each(|slot| slot.stamp = 0);
            self.generation = 1;
        }
        self.sources.clear();
        self.sources.extend_from_slice(sources);
        for (pos, &s) in sources.iter().enumerate() {
            let mut a = s;
            let mut dist = 0u32;
            loop {
                let slot = &mut self.best[a.index()];
                if slot.stamp == self.generation && slot.dist <= dist {
                    // An earlier-listed source is at least as close to `a`,
                    // and so to every ancestor of `a`: the rest of the
                    // path already holds better entries.
                    break;
                }
                *slot = SweepSlot { stamp: self.generation, dist, pos: pos as u32 };
                if a == net.root() {
                    break;
                }
                a = net.parent(a);
                dist += 1;
            }
        }
    }

    /// The loaded source nearest to `v` (ties to the earliest-listed).
    pub fn nearest(&self, net: &Network, v: NodeId) -> NodeId {
        let mut best = (u32::MAX, u32::MAX);
        let mut a = v;
        let mut k = 0u32;
        // Past `k > best distance` no ancestor can tie, let alone win.
        while k <= best.0 {
            let slot = self.best[a.index()];
            if slot.stamp == self.generation {
                best = best.min((k + slot.dist, slot.pos));
            }
            if a == net.root() {
                break;
            }
            a = net.parent(a);
            k += 1;
        }
        self.sources[best.1 as usize]
    }
}

/// Summary of a placement for reports: copy counts and redundancy.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementStats {
    /// Total number of copies.
    pub total_copies: usize,
    /// Objects with more than one copy.
    pub redundant_objects: usize,
    /// Largest copy set.
    pub max_copies: usize,
    /// Mean copies per object.
    pub mean_copies: f64,
}

/// Compute [`PlacementStats`].
pub fn placement_stats(p: &Placement) -> PlacementStats {
    let sizes: Vec<usize> =
        (0..p.n_objects() as u32).map(|x| p.copies(ObjectId(x)).len()).collect();
    let total: usize = sizes.iter().sum();
    PlacementStats {
        total_copies: total,
        redundant_objects: sizes.iter().filter(|&&s| s > 1).count(),
        max_copies: sizes.iter().copied().max().unwrap_or(0),
        mean_copies: if sizes.is_empty() { 0.0 } else { total as f64 / sizes.len() as f64 },
    }
}

/// A congestion measurement together with its bottleneck resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// The maximum relative load is attained on a switch.
    Edge(hbn_topology::EdgeId),
    /// The maximum relative load is attained on a bus.
    Bus(NodeId),
    /// The network carries no load at all.
    None,
}

/// Congestion value with the resource attaining it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CongestionReport {
    /// The congestion (max relative load), exact.
    pub congestion: LoadRatio,
    /// Where the maximum is attained.
    pub bottleneck: Bottleneck,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbn_topology::generators::{balanced, star, BandwidthProfile};

    fn simple_matrix(net: &Network) -> AccessMatrix {
        let mut m = AccessMatrix::new(2);
        let procs = net.processors();
        m.add(procs[0], ObjectId(0), 3, 1);
        m.add(procs[1], ObjectId(0), 0, 2);
        m.add(procs[2], ObjectId(1), 5, 0);
        m
    }

    #[test]
    fn single_leaf_placement_validates() {
        let net = star(4, 10);
        let m = simple_matrix(&net);
        let p = Placement::single_leaf(&net, &m, |_| net.processors()[0]);
        p.validate(&net, &m).unwrap();
        assert!(p.is_leaf_only(&net));
        assert!(p.is_single_reference());
        assert_eq!(p.total_copies(), 2);
    }

    #[test]
    fn validate_rejects_missing_copy() {
        let net = star(4, 10);
        let m = simple_matrix(&net);
        let mut p = Placement::single_leaf(&net, &m, |_| net.processors()[0]);
        p.copies[0].clear();
        assert!(matches!(
            p.validate(&net, &m),
            Err(PlacementError::NoCopies(_) | PlacementError::ServerWithoutCopy { .. })
        ));
    }

    #[test]
    fn validate_rejects_coverage_mismatch() {
        let net = star(4, 10);
        let m = simple_matrix(&net);
        let mut p = Placement::single_leaf(&net, &m, |_| net.processors()[0]);
        p.assignments[0].pop();
        assert!(matches!(p.validate(&net, &m), Err(PlacementError::CoverageMismatch { .. })));
    }

    #[test]
    fn validate_rejects_phantom_assignment() {
        let net = star(4, 10);
        let m = simple_matrix(&net);
        let mut p = Placement::single_leaf(&net, &m, |_| net.processors()[0]);
        p.push_assignment(
            ObjectId(1),
            AssignmentEntry {
                processor: net.processors()[3],
                server: net.processors()[0],
                reads: 1,
                writes: 0,
            },
        );
        assert!(matches!(p.validate(&net, &m), Err(PlacementError::CoverageMismatch { .. })));
    }

    #[test]
    fn split_assignment_is_not_single_reference() {
        let net = star(4, 10);
        let mut m = AccessMatrix::new(1);
        m.add(net.processors()[0], ObjectId(0), 4, 0);
        let mut p = Placement::new(1);
        p.add_copy(ObjectId(0), net.processors()[1]);
        p.add_copy(ObjectId(0), net.processors()[2]);
        p.push_assignment(
            ObjectId(0),
            AssignmentEntry {
                processor: net.processors()[0],
                server: net.processors()[1],
                reads: 2,
                writes: 0,
            },
        );
        p.push_assignment(
            ObjectId(0),
            AssignmentEntry {
                processor: net.processors()[0],
                server: net.processors()[2],
                reads: 2,
                writes: 0,
            },
        );
        p.validate(&net, &m).unwrap();
        assert!(!p.is_single_reference());
    }

    #[test]
    fn nearest_copy_map_prefers_close_then_small_id() {
        let net = balanced(2, 2, BandwidthProfile::Uniform);
        let procs = net.processors();
        // Copies on the first and last processor.
        let copies = vec![procs[0], procs[3]];
        let map = nearest_copy_map(&net, &copies);
        assert_eq!(map[procs[0].index()], procs[0]);
        assert_eq!(map[procs[3].index()], procs[3]);
        // procs[1] shares a bus with procs[0].
        assert_eq!(map[procs[1].index()], procs[0]);
        assert_eq!(map[procs[2].index()], procs[3]);
    }

    /// Ties go to the earliest-listed source, not the smallest id: both
    /// sources are two hops from the root, and the BFS and the sweep both
    /// answer `p3`.
    #[test]
    fn sweep_breaks_ties_toward_the_earliest_listed_source() {
        let net = balanced(2, 2, BandwidthProfile::Uniform);
        let procs = net.processors();
        let sources = [procs[3], procs[0]];
        let map = nearest_copy_map(&net, &sources);
        assert_eq!(map[net.root().index()], procs[3]);
        let mut sweep = NearestCopies::new(net.n_nodes());
        sweep.load(&net, &sources);
        assert_eq!(sweep.nearest(&net, net.root()), procs[3]);
        // The sorted slice flips the tie to the smaller id.
        sweep.load(&net, &[procs[0], procs[3]]);
        assert_eq!(sweep.nearest(&net, net.root()), procs[0]);
    }

    #[test]
    fn nearest_assignment_builds_compliant_routing() {
        let net = balanced(2, 2, BandwidthProfile::Uniform);
        let mut m = AccessMatrix::new(1);
        for &p in net.processors() {
            m.add(p, ObjectId(0), 2, 1);
        }
        let mut p = Placement::new(1);
        p.add_copy(ObjectId(0), net.processors()[0]);
        p.add_copy(ObjectId(0), net.processors()[2]);
        p.nearest_assignment(&net, &m);
        p.validate(&net, &m).unwrap();
        assert!(p.is_single_reference());
    }

    /// The support-driven form assigns exactly what the full form does on
    /// the requested objects, in the copy sets' own allocations.
    #[test]
    fn support_assignment_matches_the_full_form() {
        let net = balanced(2, 3, BandwidthProfile::Uniform);
        let p = net.processors();
        let mut m = AccessMatrix::new(6);
        m.add(p[0], ObjectId(4), 2, 1);
        m.add(p[5], ObjectId(4), 1, 0);
        m.add(p[7], ObjectId(1), 0, 3);
        let mut full = Placement::new(6);
        let mut support = Placement::new(6);
        for (x, copies) in [(4, vec![p[6], p[1], p[6]]), (1, vec![p[2]])] {
            full.set_copies(ObjectId(x), copies.clone());
            support.set_copies_from(ObjectId(x), &copies);
        }
        full.nearest_assignment(&net, &m);
        support.nearest_assignment_support(&net, &m);
        assert_eq!(support, full);
        support.clear_object(ObjectId(4));
        assert!(support.copies(ObjectId(4)).is_empty());
        assert!(support.assignment(ObjectId(4)).is_empty());
    }

    #[test]
    fn stats() {
        let net = star(4, 10);
        let m = simple_matrix(&net);
        let mut p = Placement::single_leaf(&net, &m, |_| net.processors()[0]);
        p.add_copy(ObjectId(0), net.processors()[1]);
        let s = placement_stats(&p);
        assert_eq!(s.total_copies, 3);
        assert_eq!(s.redundant_objects, 1);
        assert_eq!(s.max_copies, 2);
        assert!((s.mean_copies - 1.5).abs() < 1e-12);
    }
}
