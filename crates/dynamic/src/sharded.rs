//! Object-sharded serving: the parallel form of the serve loop.
//!
//! All strategy state is per-object and every traffic charge is a
//! per-object sum into the load map, so requests of different objects
//! never interact. Partitioning objects across independent
//! [`DynamicTree`]s (preserving per-object request order, which a trace
//! scan does) and merging per-shard outcomes — [`hbn_load::LoadMap`]
//! addition, [`DynamicStats::merge`], replicas read from the owning
//! shard — reproduces the unsharded run **bit for bit**. The scenario
//! engine serves its epochs through this type, and
//! `exp_dynamic_throughput` measures it directly against the unsharded
//! kernels. [`ShardedDynamic::reference`] puts the naive reference kernel
//! behind the same interface: one shard, served on the calling thread.
//!
//! Each shard scans the whole trace and serves only its own objects, so
//! a serve pass costs O(shards × trace) scanning on top of the actual
//! serve work; keep the shard count at or below the worker count.

use crate::strategy::{DynamicStats, DynamicTree, OnlineRequest};
use hbn_load::LoadMap;
use hbn_topology::{Network, NodeId};
use hbn_workload::ObjectId;
use rayon::prelude::*;

/// One object shard: an independent strategy. Shard `idx` owns every
/// object with `object.index() % n_shards == idx`.
#[derive(Debug, Clone)]
struct Shard {
    idx: usize,
    tree: DynamicTree,
}

/// The online strategy sharded by object across rayon workers, with
/// exact (bit-for-bit) merge semantics. Serves through the
/// zero-allocation kernel ([`DynamicTree::serve`]), or through the naive
/// one when built by [`ShardedDynamic::reference`]. `Clone` snapshots
/// every shard's full state (see [`DynamicTree`]), so clones resume
/// exactly.
#[derive(Debug, Clone)]
pub struct ShardedDynamic {
    shards: Vec<Shard>,
    /// Serve through [`DynamicTree::serve_reference`] (one shard).
    reference: bool,
}

impl ShardedDynamic {
    /// A fresh sharded strategy for `n_objects` objects on `net` with
    /// replication threshold `threshold`. `n_shards == 0` picks the rayon
    /// worker count; the count is clamped to `[1, n_objects]`.
    pub fn new(net: &Network, n_objects: usize, threshold: u64, n_shards: usize) -> Self {
        let n_shards = if n_shards == 0 { rayon::current_num_threads() } else { n_shards }
            .clamp(1, n_objects.max(1));
        ShardedDynamic {
            shards: (0..n_shards)
                .map(|idx| Shard { idx, tree: DynamicTree::new(net, n_objects, threshold) })
                .collect(),
            reference: false,
        }
    }

    /// The naive reference kernel behind the sharded interface: one shard,
    /// served request by request through [`DynamicTree::serve_reference`]
    /// on the calling thread — the timing and semantics baseline the
    /// differential suites pin the fast kernel against.
    pub fn reference(net: &Network, n_objects: usize, threshold: u64) -> Self {
        ShardedDynamic { reference: true, ..ShardedDynamic::new(net, n_objects, threshold, 1) }
    }

    /// Number of object shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Serve a request trace: every shard scans the trace and serves the
    /// requests of its own objects, in trace order. Per-object request
    /// order — the only order the strategy is sensitive to — is
    /// preserved, so the merged outcome equals the unsharded one.
    pub fn serve_trace(&mut self, net: &Network, trace: &[OnlineRequest]) {
        if self.reference {
            let tree = &mut self.shards[0].tree;
            for &req in trace {
                tree.serve_reference(net, req);
            }
            return;
        }
        let n_shards = self.shards.len();
        self.shards.par_iter_mut().for_each(|shard| {
            for &req in trace {
                if req.object.index() % n_shards == shard.idx {
                    shard.tree.serve(net, req);
                }
            }
        });
    }

    /// Current copy nodes of `x`, from the owning shard.
    pub fn replicas(&self, x: ObjectId) -> &[NodeId] {
        self.shards[x.index() % self.shards.len()].tree.replicas(x)
    }

    /// Replace the replica set of `x` on its owning shard — see
    /// [`DynamicTree::seed_replicas`]. Per-object state lives entirely in
    /// the owning shard, so seeding commutes with the shard merge: a
    /// seeded sharded strategy still reproduces the seeded unsharded one
    /// bit for bit.
    pub fn seed_replicas(&mut self, net: &Network, x: ObjectId, nodes: &[NodeId]) {
        let shard = x.index() % self.shards.len();
        self.shards[shard].tree.seed_replicas(net, x, nodes);
    }

    /// Number of objects the shards were constructed for.
    pub fn n_objects(&self) -> usize {
        self.shards.first().map_or(0, |s| s.tree.n_objects())
    }

    /// Export the live state of `x` from its owning shard — see
    /// [`DynamicTree::export_object`].
    pub fn export_object(&self, x: ObjectId) -> Option<crate::strategy::ObjectExport> {
        self.shards[x.index() % self.shards.len()].tree.export_object(x)
    }

    /// Rebuild the state of `x` in its owning shard — see
    /// [`DynamicTree::restore_object`].
    pub fn restore_object(
        &mut self,
        net: &Network,
        x: ObjectId,
        replicas: &[NodeId],
        counters: &[(hbn_topology::EdgeId, u64)],
    ) {
        let shard = x.index() % self.shards.len();
        self.shards[shard].tree.restore_object(net, x, replicas, counters);
    }

    /// Install restored accounting. Merged loads and stats go entirely
    /// into shard 0 — the merge over shards (load-map addition,
    /// [`DynamicStats::merge`]) is exact, so where the restored totals
    /// live does not affect any merged outcome.
    pub fn restore_accounting(&mut self, loads: LoadMap, stats: DynamicStats) {
        self.shards[0].tree.restore_accounting(loads, stats);
    }

    /// The merged cumulative loads and counters, as owned values — the
    /// export counterpart of [`ShardedDynamic::restore_accounting`].
    pub fn export_accounting(&self) -> (LoadMap, DynamicStats) {
        let mut loads = self.shards[0].tree.loads().clone();
        for shard in &self.shards[1..] {
            loads.add_assign(shard.tree.loads());
        }
        (loads, self.stats())
    }

    /// Sum the per-shard cumulative loads into `out` (on top of whatever
    /// `out` already holds).
    pub fn add_loads_to(&self, out: &mut LoadMap) {
        for shard in &self.shards {
            out.add_assign(shard.tree.loads());
        }
    }

    /// Merged event counters.
    pub fn stats(&self) -> DynamicStats {
        self.shards.iter().fold(DynamicStats::default(), |acc, s| acc.merge(s.tree.stats()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbn_topology::generators::{balanced, BandwidthProfile};
    use rand::{Rng, SeedableRng};

    #[test]
    fn sharded_serving_matches_unsharded_bit_for_bit() {
        let net = balanced(3, 2, BandwidthProfile::Uniform);
        let procs = net.processors();
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let trace: Vec<OnlineRequest> = (0..2_000)
            .map(|_| OnlineRequest {
                processor: procs[rng.gen_range(0..procs.len())],
                object: ObjectId(rng.gen_range(0..7)),
                is_write: rng.gen_bool(0.2),
            })
            .collect();

        let mut whole = DynamicTree::new(&net, 7, 2);
        for &req in &trace {
            whole.serve(&net, req);
        }

        for n_shards in [1usize, 3, 7, 16] {
            let mut sharded = ShardedDynamic::new(&net, 7, 2, n_shards);
            assert!(sharded.n_shards() <= 7);
            sharded.serve_trace(&net, &trace);
            let mut merged = LoadMap::zero(&net);
            sharded.add_loads_to(&mut merged);
            assert_eq!(&merged, whole.loads(), "{n_shards} shards");
            assert_eq!(sharded.stats(), whole.stats());
            for x in 0..7u32 {
                assert_eq!(sharded.replicas(ObjectId(x)), whole.replicas(ObjectId(x)));
            }
        }
    }

    #[test]
    fn export_restore_roundtrip_resumes_bit_for_bit() {
        let net = balanced(3, 2, BandwidthProfile::Uniform);
        let procs = net.processors();
        let mut rng = rand::rngs::StdRng::seed_from_u64(78);
        let mk_trace = |rng: &mut rand::rngs::StdRng, n: usize| -> Vec<OnlineRequest> {
            (0..n)
                .map(|_| OnlineRequest {
                    processor: procs[rng.gen_range(0..procs.len())],
                    object: ObjectId(rng.gen_range(0..5)),
                    is_write: rng.gen_bool(0.15),
                })
                .collect()
        };
        let first = mk_trace(&mut rng, 800);
        let second = mk_trace(&mut rng, 800);

        // The reference kernel exports its counters physically rather
        // than by stamp, so it takes the same roundtrip.
        for reference in [false, true] {
            let build = || {
                if reference {
                    ShardedDynamic::reference(&net, 5, 2)
                } else {
                    ShardedDynamic::new(&net, 5, 2, 3)
                }
            };
            let mut original = build();
            original.serve_trace(&net, &first);

            // Rebuild a fresh strategy from the export and drive both
            // through the same second half: every observable must match.
            let mut restored = build();
            for x in 0..5u32 {
                if let Some((replicas, counters)) = original.export_object(ObjectId(x)) {
                    restored.restore_object(&net, ObjectId(x), &replicas, &counters);
                }
            }
            let mut loads = LoadMap::zero(&net);
            original.add_loads_to(&mut loads);
            restored.restore_accounting(loads, original.stats());

            original.serve_trace(&net, &second);
            restored.serve_trace(&net, &second);
            let (mut a, mut b) = (LoadMap::zero(&net), LoadMap::zero(&net));
            original.add_loads_to(&mut a);
            restored.add_loads_to(&mut b);
            assert_eq!(a, b, "reference: {reference}");
            assert_eq!(original.stats(), restored.stats());
            for x in 0..5u32 {
                assert_eq!(original.replicas(ObjectId(x)), restored.replicas(ObjectId(x)));
            }
        }
    }
}
