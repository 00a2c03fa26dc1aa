//! The static-placement kernel: gravity → nibble → extended nibble over
//! *all* objects, with one reusable scratch [`Workspace`].
//!
//! The scenario engine's periodic re-optimization strategies re-run the
//! full static pipeline every few epochs over the same network. A
//! [`PlacementKernel`] owns the scratch those runs share: its slots are
//! generation-stamped, so reuse across batches costs no memsets, and
//! steps 1–2 are pure per-object functions of `(net, matrix, x)` — the
//! scratch is an allocation cache, not state — so a reused kernel places
//! exactly as a fresh one. [`crate::ExtendedNibble::place`] is one call
//! on a fresh kernel, so the static pipeline has one code path.

use crate::extended::{run_steps_for_object, ExtendedNibbleStats, ExtendedOutcome};
use crate::gravity::Workspace;
use crate::mapping::{map_to_leaves, MappingError, MappingOptions};
use crate::nibble::apply_to_placement;
use hbn_load::Placement;
use hbn_topology::Network;
use hbn_workload::AccessMatrix;

/// The static-placement kernel: runs the full extended-nibble pipeline
/// (gravity → nibble → deletion → mapping) over all objects of an access
/// matrix, with its scratch owned by the kernel and reused across calls.
///
/// Output is bit-for-bit identical to a fresh kernel's, which is what
/// [`crate::ExtendedNibble::place`] runs.
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
/// // The kernel places exactly as the one-shot strategy...
/// let mut kernel = PlacementKernel::new(&net);
/// let batch = kernel.place(&net, &m).unwrap();
/// let one_shot = ExtendedNibble::new().place(&net, &m).unwrap();
/// assert_eq!(batch.placement, one_shot.placement);
/// assert_eq!(batch.mapping.tau_max, one_shot.mapping.tau_max);
///
/// // ...and its scratch is reused across batches: the second call on the
/// // same kernel (e.g. the next re-optimization epoch) is equally exact.
/// assert_eq!(kernel.place(&net, &m).unwrap().placement, batch.placement);
/// assert!(batch.placement.is_leaf_only(&net));
/// ```
#[derive(Debug)]
pub struct PlacementKernel {
    /// Mapping-phase options (invariant checking and its form).
    mapping: MappingOptions,
    /// Generation-stamped scratch for the gravity/nibble walks.
    ws: Workspace,
    /// Node count of the network the kernel was built for (asserted on
    /// every batch).
    n_nodes: usize,
}

impl Clone for PlacementKernel {
    /// Cloning copies the kernel's *configuration* (mapping options,
    /// network size) and gives the clone fresh, empty scratch. The
    /// scratch is an allocation cache, not state — a clone's
    /// [`PlacementKernel::place`] output is identical to the original's —
    /// so this is exactly what a strategy checkpoint needs.
    fn clone(&self) -> Self {
        let n_nodes = self.n_nodes;
        PlacementKernel { mapping: self.mapping, ws: Workspace::new(n_nodes), n_nodes }
    }
}

impl PlacementKernel {
    /// A kernel for `net` with default mapping options.
    pub fn new(net: &Network) -> Self {
        Self::with_options(net, MappingOptions::default())
    }

    /// [`PlacementKernel::new`] with explicit mapping-phase options.
    pub fn with_options(net: &Network, mapping: MappingOptions) -> Self {
        let n_nodes = net.n_nodes();
        PlacementKernel { mapping, ws: Workspace::new(n_nodes), n_nodes }
    }

    /// Run the full static pipeline over all objects of `matrix`,
    /// reusing the kernel's scratch: steps 1–2 per object in object-id
    /// order, folded into the nibble and modified placements and the
    /// counters, then the global mapping phase (step 3).
    pub fn place(
        &mut self,
        net: &Network,
        matrix: &AccessMatrix,
    ) -> Result<ExtendedOutcome, MappingError> {
        assert_eq!(net.n_nodes(), self.n_nodes, "network mismatch");
        let n_objects = matrix.n_objects();
        let mut gravity = Vec::with_capacity(n_objects);
        let mut all_copies = Vec::with_capacity(n_objects);
        let mut stats = ExtendedNibbleStats::default();
        let mut nibble_placement = Placement::new(n_objects);
        let mut modified_placement = Placement::new(n_objects);

        for x in matrix.objects() {
            let (g, nib_copies, modified, processed) =
                run_steps_for_object(net, matrix, x, &mut self.ws);
            gravity.push(g);
            if processed {
                stats.objects_processed += 1;
            } else {
                stats.objects_untouched += 1;
            }
            apply_to_placement(&nib_copies, &mut nibble_placement);
            apply_to_placement(&modified, &mut modified_placement);
            // The deletion step either removed copies or split heavy
            // ones into more.
            let (nib_len, now) = (nibble_placement.copies(x).len(), modified.copies.len());
            if now > nib_len {
                stats.copies_split += now - nib_len;
            } else {
                stats.copies_deleted += nib_len - now;
            }
            all_copies.push(modified);
        }

        let mapping = map_to_leaves(net, &mut all_copies, &self.mapping)?;

        let mut placement = Placement::new(n_objects);
        for oc in &all_copies {
            apply_to_placement(oc, &mut placement);
        }

        Ok(ExtendedOutcome {
            placement,
            nibble_placement,
            modified_placement,
            gravity,
            mapping,
            stats,
        })
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
        assert_eq!(out.placement.total_copies(), 0);
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
