//! The batched static-placement kernel: gravity → nibble → extended
//! nibble over *all* objects with shared, reusable scratch.
//!
//! [`crate::ExtendedNibble::place`] is a sequential per-call routine: it
//! allocates a fresh [`Workspace`], walks every object, and drops
//! everything on return. That is the right shape for a one-shot
//! placement, but the scenario engine's periodic re-optimization
//! strategies re-run the full static pipeline every few epochs over the
//! same network — so the allocations repeat per epoch.
//!
//! A [`PlacementKernel`] amortizes them and is the one parallel path. It
//! owns one [`Workspace`] per object shard (its slots are
//! generation-stamped, so reuse across batches costs no memsets), fans
//! the per-object steps 1–2 out over the shards with rayon, and merges
//! the results in object-id order before running the global mapping
//! phase through the same assembly as the per-object path.
//!
//! # Determinism and the merge argument
//!
//! Steps 1–2 are pure per-object functions of `(net, matrix, x)` — the
//! scratch workspace is an allocation cache, not state. Shard `s` of `S`
//! processes the contiguous object range `[s·⌈n/S⌉, (s+1)·⌈n/S⌉)` into
//! its own output buffer, and the buffers are concatenated in shard
//! order, which *is* object-id order. The merged per-object vector is
//! therefore identical for every shard count, and identical to the
//! sequential per-object loop; the global steps (counter recomputation,
//! mapping) run on that vector through the shared
//! `extended::assemble_outcome`. Hence the kernel's output is bit-for-bit
//! equal to [`crate::ExtendedNibble::place`] for every shard count — the
//! differential suite (`crates/core/tests/batch_differential.rs`) pins
//! this.

use crate::extended::{assemble_outcome, run_steps_for_object, ExtendedOutcome, ObjectSteps};
use crate::gravity::Workspace;
use crate::mapping::{MappingError, MappingOptions};
use hbn_topology::Network;
use hbn_workload::{AccessMatrix, ObjectId};
use rayon::prelude::*;

/// One object shard of the batch kernel: a reusable workspace plus the
/// shard's per-object output buffer (reused across batches — both reach a
/// high-water capacity and stay).
#[derive(Debug)]
struct BatchShard {
    /// Shard index; shard `idx` owns the `idx`-th contiguous object range.
    idx: usize,
    /// Generation-stamped scratch for the gravity/nibble walks.
    ws: Workspace,
    /// Steps 1–2 output of the shard's objects, in object-id order.
    out: Vec<ObjectSteps>,
}

/// The batched static-placement kernel: runs the full extended-nibble
/// pipeline (gravity → nibble → deletion → mapping) over all objects of
/// an access matrix, sharded by object across rayon workers, with all
/// scratch owned by the kernel and reused across calls.
///
/// Output is bit-for-bit identical to [`crate::ExtendedNibble::place`]
/// and invariant in the shard count (see the module docs for the merge
/// argument).
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
/// // The batch kernel reproduces the per-object path exactly...
/// let mut kernel = PlacementKernel::new(&net, 2);
/// let batch = kernel.place(&net, &m).unwrap();
/// let per_object = ExtendedNibble::new().place(&net, &m).unwrap();
/// assert_eq!(batch.placement, per_object.placement);
/// assert_eq!(batch.mapping.tau_max, per_object.mapping.tau_max);
///
/// // ...and its scratch is reused across batches: the second call on the
/// // same kernel (e.g. the next re-optimization epoch) is equally exact.
/// assert_eq!(kernel.place(&net, &m).unwrap().placement, batch.placement);
/// assert!(batch.placement.is_leaf_only(&net));
/// ```
#[derive(Debug)]
pub struct PlacementKernel {
    /// Mapping-phase options (invariant checking, free-edge policy).
    mapping: MappingOptions,
    /// The object shards with their reusable scratch.
    shards: Vec<BatchShard>,
    /// Node count of the network the kernel was built for (asserted on
    /// every batch).
    n_nodes: usize,
}

impl Clone for PlacementKernel {
    /// Cloning copies the kernel's *configuration* (mapping options,
    /// shard count, network size) and gives the clone fresh, empty
    /// scratch. The scratch is an allocation cache, not state — a clone's
    /// [`PlacementKernel::place`] output is identical to the original's —
    /// so this is exactly what a strategy checkpoint needs.
    fn clone(&self) -> Self {
        PlacementKernel {
            mapping: self.mapping,
            shards: (0..self.shards.len())
                .map(|idx| BatchShard { idx, ws: Workspace::new(self.n_nodes), out: Vec::new() })
                .collect(),
            n_nodes: self.n_nodes,
        }
    }
}

impl PlacementKernel {
    /// A batch kernel for `net` with `n_shards` object shards (`0` picks
    /// the rayon worker count) and default mapping options.
    pub fn new(net: &Network, n_shards: usize) -> Self {
        Self::with_options(net, n_shards, MappingOptions::default())
    }

    /// [`PlacementKernel::new`] with explicit mapping-phase options.
    pub fn with_options(net: &Network, n_shards: usize, mapping: MappingOptions) -> Self {
        let n_shards = if n_shards == 0 { rayon::current_num_threads() } else { n_shards }.max(1);
        PlacementKernel {
            mapping,
            shards: (0..n_shards)
                .map(|idx| BatchShard { idx, ws: Workspace::new(net.n_nodes()), out: Vec::new() })
                .collect(),
            n_nodes: net.n_nodes(),
        }
    }

    /// Number of object shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Run the full static pipeline over all objects of `matrix`,
    /// reusing the kernel's scratch. Bit-for-bit equal to
    /// [`crate::ExtendedNibble::place`] with the same mapping options.
    pub fn place(
        &mut self,
        net: &Network,
        matrix: &AccessMatrix,
    ) -> Result<ExtendedOutcome, MappingError> {
        assert_eq!(net.n_nodes(), self.n_nodes, "network mismatch");
        let n_objects = matrix.n_objects();
        let per_shard = n_objects.div_ceil(self.shards.len()).max(1);
        self.shards.par_iter_mut().for_each(|shard| {
            shard.out.clear();
            let start = (shard.idx * per_shard).min(n_objects);
            let end = ((shard.idx + 1) * per_shard).min(n_objects);
            for i in start..end {
                let x = ObjectId(i as u32);
                shard.out.push(run_steps_for_object(net, matrix, x, &mut shard.ws));
            }
        });
        // Deterministic merge: shard ranges are contiguous and ascending,
        // so appending in shard order restores object-id order exactly.
        let mut per_object: Vec<ObjectSteps> = Vec::with_capacity(n_objects);
        for shard in &mut self.shards {
            per_object.append(&mut shard.out);
        }
        assemble_outcome(net, matrix, per_object, &self.mapping)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExtendedNibble;
    use hbn_topology::generators::{balanced, star, BandwidthProfile};
    use hbn_workload::generators as wgen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_shards_picks_worker_count_and_places() {
        let net = star(6, 4);
        let m = wgen::shared_write(&net, 3, 2, 3);
        let mut kernel = PlacementKernel::new(&net, 0);
        assert!(kernel.n_shards() >= 1);
        let out = kernel.place(&net, &m).unwrap();
        let seq = ExtendedNibble::new().place(&net, &m).unwrap();
        assert_eq!(out.placement, seq.placement);
    }

    #[test]
    fn more_shards_than_objects_is_fine() {
        let net = balanced(2, 2, BandwidthProfile::Uniform);
        let mut rng = StdRng::seed_from_u64(5);
        let m = wgen::uniform(&net, 2, 4, 3, 0.8, &mut rng);
        let mut kernel = PlacementKernel::new(&net, 16);
        let out = kernel.place(&net, &m).unwrap();
        out.placement.validate(&net, &m).unwrap();
    }

    #[test]
    fn empty_matrix_yields_empty_placement() {
        let net = star(4, 4);
        let m = hbn_workload::AccessMatrix::new(0);
        let mut kernel = PlacementKernel::new(&net, 3);
        let out = kernel.place(&net, &m).unwrap();
        assert_eq!(out.placement.total_copies(), 0);
    }

    #[test]
    #[should_panic(expected = "network mismatch")]
    fn network_mismatch_is_rejected() {
        let net = star(4, 4);
        let other = balanced(3, 2, BandwidthProfile::Uniform);
        let m = hbn_workload::AccessMatrix::new(1);
        let mut kernel = PlacementKernel::new(&net, 2);
        let _ = kernel.place(&other, &m);
    }
}
