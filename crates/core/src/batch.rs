//! The production static-placement kernel: gravity → nibble → deletion →
//! mapping over *all* objects, building only the final copy sets.
//!
//! The scenario engine's re-placing policies re-run the static pipeline
//! every few epochs over the same network, and each keeps only the final
//! leaf-only copy sets. A [`PlacementKernel`] builds just those, on
//! buffers it owns and reuses across objects and calls:
//!
//! - steps 1–2 run per object on the generation-stamped [`Workspace`]
//!   (whose node slots also give deletion its node-to-copy lookup) and on
//!   flat per-copy vectors, so an object costs no allocation;
//! - each request group is folded straight into the mapping phase's basic
//!   loads, at the copy that ends up serving it, so no group list, no
//!   intermediate placement and no assignment entry is ever built;
//! - the mapping phase (step 3) runs on the kernel's reused mapping
//!   state.
//!
//! [`PlacementKernel::final_copies`] reads the final copy sets out of the
//! kernel's scratch, one sorted slice per object id, so a re-placing
//! policy writes them into the sets it holds, and once the buffers have
//! grown a call allocates nothing. [`PlacementKernel::place`] is that
//! readout collected into a [`Placement`], allocating only the copy sets
//! it returns. [`crate::ExtendedNibble::place`] is the full-outcome
//! reference, built from the public per-step functions; the kernel's copy
//! sets equal its `placement`'s object by object
//! (`crates/core/tests/batch_differential.rs`).
//!
//! The same workspace prices the hindsight comparison of the scenario
//! reports: [`PlacementKernel::add_nibble_loads`] adds the loads of the
//! nibble placement of a matrix to a [`LoadMap`] straight from step 1's
//! copy sets, with no placement built.

use crate::deletion::{rarely_used, split_sizes};
use crate::gravity::Workspace;
use crate::mapping::{Mapper, MappingError, MappingOptions};
use crate::nibble::{nearest_copy, nibble_copy_nodes};
use hbn_load::{LoadMap, Placement};
use hbn_topology::{EdgeId, Network, NodeId};
use hbn_workload::{AccessMatrix, ObjectId};

/// The production static-placement kernel: runs the extended-nibble
/// pipeline (gravity → nibble → deletion → mapping) over all objects of an
/// access matrix and reads out the final leaf-only copy sets, object by
/// object ([`PlacementKernel::final_copies`]) or collected into a
/// placement with no assignment entries ([`PlacementKernel::place`]).
/// Its scratch is owned by the kernel and reused across calls.
///
/// The copy sets are bit-for-bit those of the full-outcome reference,
/// [`crate::ExtendedNibble::place`].
///
/// ```
/// use hbn_core::{ExtendedNibble, PlacementKernel};
/// use hbn_topology::generators::{balanced, BandwidthProfile};
/// use hbn_workload::{AccessMatrix, ObjectId};
///
/// // A small balanced topology: 2 children per bus, height 2.
/// let net = balanced(2, 2, BandwidthProfile::Uniform);
/// let p = net.processors();
/// let mut m = AccessMatrix::new(2);
/// m.add(p[0], ObjectId(0), 6, 1);
/// m.add(p[3], ObjectId(0), 5, 1);
/// m.add(p[1], ObjectId(1), 2, 2);
///
/// // The kernel builds exactly the reference's final copy sets...
/// let mut kernel = PlacementKernel::new(&net);
/// let copies = kernel.place(&net, &m).unwrap();
/// let reference = ExtendedNibble::new().place(&net, &m).unwrap();
/// for x in m.objects() {
///     assert_eq!(copies.copies(x), reference.placement.copies(x));
///     assert!(copies.assignment(x).is_empty());
/// }
/// assert!(copies.is_leaf_only(&net));
///
/// // ...and its scratch is reused across batches: the second call on the
/// // same kernel (e.g. the next re-optimization epoch) is equally exact.
/// assert_eq!(kernel.place(&net, &m).unwrap(), copies);
///
/// // The readout yields the same sets in id order, straight from the
/// // kernel's scratch.
/// let readout = kernel.final_copies(&net, &m).unwrap();
/// assert!(readout.eq(m.objects().map(|x| copies.copies(x))));
///
/// // Step 1 alone yields the nibble copy sets (the hybrid policy's seeds).
/// assert_eq!(
///     kernel.nibble_copies(&net, &m, ObjectId(0)),
///     reference.nibble_placement.copies(ObjectId(0))
/// );
/// ```
#[derive(Debug)]
pub struct PlacementKernel {
    /// Generation-stamped per-node scratch for gravity, nibble and
    /// deletion's node-to-copy lookup.
    ws: Workspace,
    /// Node count of the network the kernel was built for (asserted on
    /// every call).
    n_nodes: usize,
    /// Buffers reused across objects and calls; empty until the first
    /// [`PlacementKernel::final_copies`].
    scratch: Scratch,
}

/// The kernel's reused buffers. The first group holds one object at a
/// time, its copies indexed as in its ascending nibble copy nodes.
#[derive(Debug, Default)]
struct Scratch {
    /// The object's nibble copy nodes, ascending.
    copy_nodes: Vec<NodeId>,
    /// `s(c)` of each copy, requests it absorbed in step 2 included.
    served: Vec<u64>,
    /// The surviving copy that ends up serving each copy's requests (the
    /// copy itself while it survives).
    server: Vec<u32>,
    /// Distance of each copy from the center of gravity.
    dist: Vec<u32>,
    /// Step 2's bottom-up order of the copies.
    order: Vec<u32>,
    /// The copy each request group is routed to by step 1, in entry order.
    group_copy: Vec<u32>,
    /// Every object's post-step-2 copy nodes, object after object; after
    /// the mapping phase each bus node is replaced by its mapped leaf, and
    /// then each object's nodes are sorted and deduplicated in place.
    nodes: Vec<NodeId>,
    /// `nodes[ends[i]..ends[i + 1]]` are object `i`'s copies; `ends[0]`
    /// is 0.
    ends: Vec<usize>,
    /// The mapping phase's loads and bus copies.
    mapper: Mapper,
}

impl Clone for PlacementKernel {
    /// Cloning copies the kernel's *configuration* (the network size) and
    /// gives the clone fresh, empty scratch. The scratch is an allocation
    /// cache, not state — a clone's [`PlacementKernel::place`] output is
    /// identical to the original's — so this is exactly what a strategy
    /// checkpoint needs.
    fn clone(&self) -> Self {
        PlacementKernel::with_nodes(self.n_nodes)
    }
}

impl PlacementKernel {
    /// A kernel for `net`.
    pub fn new(net: &Network) -> Self {
        Self::with_nodes(net.n_nodes())
    }

    fn with_nodes(n_nodes: usize) -> Self {
        PlacementKernel { ws: Workspace::new(n_nodes), n_nodes, scratch: Scratch::default() }
    }

    /// Run the full static pipeline over all objects of `matrix` and
    /// return the final copy sets, with no assignment entries: the
    /// [`PlacementKernel::final_copies`] readout collected into a
    /// [`Placement`].
    pub fn place(
        &mut self,
        net: &Network,
        matrix: &AccessMatrix,
    ) -> Result<Placement, MappingError> {
        let mut placement = Placement::new(matrix.n_objects());
        for (x, copies) in matrix.objects().zip(self.final_copies(net, matrix)?) {
            placement.set_copies_from(x, copies);
        }
        Ok(placement)
    }

    /// Run the full static pipeline over all objects of `matrix` — steps
    /// 1–2 per object in object-id order, then the global mapping phase
    /// (step 3) — and read out the final copy sets: one slice per object
    /// id, in id order, sorted and deduplicated, and empty for an object
    /// without requests. The slices are the kernel's scratch, so a caller
    /// that writes them into copy sets it holds allocates nothing per
    /// object; a warm call allocates nothing at all.
    pub fn final_copies(
        &mut self,
        net: &Network,
        matrix: &AccessMatrix,
    ) -> Result<impl ExactSizeIterator<Item = &[NodeId]> + '_, MappingError> {
        assert_eq!(net.n_nodes(), self.n_nodes, "network mismatch");
        let s = &mut self.scratch;
        s.nodes.clear();
        s.ends.clear();
        s.ends.push(0);
        s.mapper.reset(net);
        for x in matrix.objects() {
            object_steps(net, matrix, x, &mut self.ws, s);
            s.ends.push(s.nodes.len());
        }

        s.mapper.run(net, &MappingOptions::default())?;
        let bus_nodes = s.nodes.iter_mut().filter(|v| net.is_bus(**v));
        for (v, leaf) in bus_nodes.zip(s.mapper.mapped_nodes()) {
            *v = leaf;
        }

        // Sort and deduplicate each object's nodes, compacting them
        // towards the front: an object's chunks of one split copy share a
        // node, and mapped chunks may share a leaf.
        let mut kept = 0;
        for i in 1..s.ends.len() {
            let (start, end) = (s.ends[i - 1], s.ends[i]);
            let first = kept;
            s.ends[i - 1] = first;
            s.nodes[start..end].sort_unstable();
            for k in start..end {
                let v = s.nodes[k];
                if kept == first || s.nodes[kept - 1] != v {
                    s.nodes[kept] = v;
                    kept += 1;
                }
            }
        }
        *s.ends.last_mut().expect("ends starts with 0") = kept;
        s.nodes.truncate(kept);
        let (nodes, ends) = (&s.nodes, &s.ends);
        Ok(ends.windows(2).map(move |w| &nodes[w[0]..w[1]]))
    }

    /// Step 1 alone for object `x`: its nibble copy set, ascending — the
    /// set [`crate::ExtendedOutcome::nibble_placement`] holds for `x` —
    /// computed on the kernel's workspace. Empty when `x` has no requests.
    pub fn nibble_copies(
        &mut self,
        net: &Network,
        matrix: &AccessMatrix,
        x: ObjectId,
    ) -> &[NodeId] {
        assert_eq!(net.n_nodes(), self.n_nodes, "network mismatch");
        let kappa = matrix.write_contention(x);
        nibble_copy_nodes(net, matrix, x, kappa, &mut self.ws, &mut self.scratch.copy_nodes);
        &self.scratch.copy_nodes
    }

    /// Add the loads of the nibble placement of `matrix` (step 1 alone,
    /// [`crate::nibble_placement`]) to `out`, object by object over the
    /// matrix's support, without building the placement: the result is
    /// `LoadMap::from_placement(net, matrix, &nibble_placement(net,
    /// matrix))` added to `out`.
    ///
    /// An object's nibble copies form a connected set containing its
    /// center of gravity `g` (Theorem 3.1), and each request group is
    /// served by the first copy on its walk towards `g`. So a group's
    /// path is that walk, up to the first copy, and the Steiner tree of
    /// the copies (a write's broadcast) is the set of edges between a copy
    /// and its step towards `g`.
    pub fn add_nibble_loads(&mut self, net: &Network, matrix: &AccessMatrix, out: &mut LoadMap) {
        assert_eq!(net.n_nodes(), self.n_nodes, "network mismatch");
        let nodes = &mut self.scratch.copy_nodes;
        for x in matrix.support() {
            let kappa = matrix.write_contention(x);
            let Some(g) = nibble_copy_nodes(net, matrix, x, kappa, &mut self.ws, nodes) else {
                continue;
            };
            for e in matrix.object_entries(x) {
                let mut v = e.processor;
                while self.ws.copy_index(v).is_none() {
                    let next = net.step_towards(v, g);
                    out.add_edge(edge_between(net, v, next), e.total());
                    v = next;
                }
            }
            if kappa > 0 {
                for &v in nodes.iter().filter(|&&v| v != g) {
                    out.add_edge(edge_between(net, v, net.step_towards(v, g)), kappa);
                }
            }
        }
    }
}

/// The switch between the adjacent nodes `v` and `u`: the edge id of the
/// deeper one, the child.
fn edge_between(net: &Network, v: NodeId, u: NodeId) -> EdgeId {
    EdgeId::from(if net.depth(v) > net.depth(u) { v } else { u })
}

/// Steps 1–2 for object `x`: append its post-deletion copies to
/// `s.nodes`, register them and its request groups with the mapper.
///
/// The same rules as [`crate::nibble_object`] followed by
/// [`crate::delete_rarely_used`], on counts instead of group lists. Step 2
/// needs only each copy's `s(c)`; which copy ends up serving a group
/// matters only to the basic loads, and a split copy's chunks all sit on
/// its node, so the loads come out the same whichever chunk serves it.
fn object_steps(
    net: &Network,
    matrix: &AccessMatrix,
    x: ObjectId,
    ws: &mut Workspace,
    s: &mut Scratch,
) {
    let kappa = matrix.write_contention(x);
    let Some(g) = nibble_copy_nodes(net, matrix, x, kappa, ws, &mut s.copy_nodes) else {
        return;
    };
    let n = s.copy_nodes.len();
    let entries = matrix.object_entries(x);
    s.served.clear();
    s.served.resize(n, 0);
    s.group_copy.clear();
    for e in entries {
        let i = nearest_copy(net, ws, g, e.processor);
        s.served[i] += e.total();
        s.group_copy.push(i as u32);
    }
    s.server.clear();
    s.server.extend(0..n as u32);

    // An object whose nibble copies all sit on processors is left
    // untouched (Theorem 4.3's analysis): no deletion, no split, nothing
    // to map.
    let processed = s.copy_nodes.iter().any(|&v| net.is_bus(v));
    if processed {
        delete_rarely_used_copies(net, g, kappa, ws, s);
    }

    for (e, &i) in entries.iter().zip(&s.group_copy) {
        let server = s.copy_nodes[s.server[i as usize] as usize];
        s.mapper.add_group(net, server, e.processor, e.total());
    }
    for i in (0..n).filter(|&i| s.server[i] as usize == i) {
        let node = s.copy_nodes[i];
        let served = s.served[i];
        let (k, base, extra) = if processed { split_sizes(served, kappa) } else { (1, served, 0) };
        for chunk in 0..k {
            s.nodes.push(node);
            s.mapper.add_copy(net, node, base + u64::from(chunk < extra), kappa);
        }
    }
}

/// Step 2's deletion pass over the loaded object's copies (rooted at
/// `g`), on counts: bottom-up, every rarely used copy hands its requests
/// to the copy on its parent node; a rarely used root hands them to the
/// nearest surviving copy, if there is one. Leaves `s.server[i]` naming
/// the surviving copy that serves copy `i`'s requests.
fn delete_rarely_used_copies(
    net: &Network,
    g: NodeId,
    kappa: u64,
    ws: &Workspace,
    s: &mut Scratch,
) {
    let n = s.copy_nodes.len();
    s.dist.clear();
    s.dist.extend(s.copy_nodes.iter().map(|&v| net.distance(v, g)));
    // Decreasing distance from the root, ties by index: the reference's
    // stable sort, so every parent comes after its children.
    s.order.clear();
    s.order.extend(0..n as u32);
    let dist = &s.dist;
    s.order.sort_unstable_by_key(|&i| (std::cmp::Reverse(dist[i as usize]), i));

    for k in 0..n {
        let i = s.order[k] as usize;
        let served = s.served[i];
        if !rarely_used(served, kappa) {
            continue;
        }
        let node = s.copy_nodes[i];
        let j = if node != g {
            let parent = net.step_towards(node, g);
            ws.copy_index(parent).unwrap_or_else(|| panic!("copies must be connected towards {g}"))
        } else {
            // Root of T(x): the nearest surviving copy, if any; the last
            // copy stays regardless.
            let survivors = (0..n).filter(|&j| j != i && s.server[j] as usize == j);
            match survivors.min_by_key(|&j| s.dist[j]) {
                Some(j) => j,
                None => continue,
            }
        };
        debug_assert_eq!(s.server[j] as usize, j, "parents outlive children");
        s.served[j] += served;
        s.server[i] = j as u32;
    }

    // Resolve chains top-down: a copy's absorber comes later bottom-up, so
    // its own server is final by the time the copy is reached.
    for k in (0..n).rev() {
        let i = s.order[k] as usize;
        s.server[i] = s.server[s.server[i] as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbn_topology::generators::{balanced, star, BandwidthProfile};

    #[test]
    fn empty_matrix_yields_empty_placement() {
        let net = star(4, 4);
        let m = hbn_workload::AccessMatrix::new(0);
        let mut kernel = PlacementKernel::new(&net);
        let out = kernel.place(&net, &m).unwrap();
        assert_eq!(out.total_copies(), 0);
    }

    #[test]
    #[should_panic(expected = "network mismatch")]
    fn network_mismatch_is_rejected() {
        let net = star(4, 4);
        let other = balanced(3, 2, BandwidthProfile::Uniform);
        let m = hbn_workload::AccessMatrix::new(1);
        let mut kernel = PlacementKernel::new(&net);
        let _ = kernel.place(&other, &m);
    }
}
