//! The naive serve kernel: the oracle that [`crate::DynamicTree::serve`]
//! is pinned to.
//!
//! [`ReferenceTree`] implements the read-replicate / write-collapse
//! semantics in the plainest form: an O(|R|) `Vec::contains` scan per
//! hop, a fresh path `Vec` per request, one dense counter vector per
//! object that every write zeroes in O(n), and an allocating Steiner
//! computation per broadcast. It shares no state and no code path with
//! the production kernel, so the differential suites compare two
//! independent implementations: `tests/differential.rs` here, and the
//! frozen legacy engine of hbn-scenario's parity suite, which serves on
//! this type.

use crate::strategy::{DynamicStats, OnlineRequest};
use hbn_load::LoadMap;
use hbn_topology::{EdgeId, Network, NodeId};
use hbn_workload::ObjectId;

/// One object's state. `counts` holds one read counter per edge, indexed
/// by the edge's child node; it is empty until the object is first
/// touched.
#[derive(Debug, Clone, Default)]
struct Object {
    /// Copy nodes in insertion order; `replicas[0]` is the walk anchor.
    replicas: Vec<NodeId>,
    counts: Vec<u64>,
}

/// The naive read-replicate / write-collapse strategy over all objects
/// of a network: the same observable behaviour as
/// [`crate::DynamicTree`] (replica sets, loads, stats), computed the
/// slow, obvious way.
#[derive(Debug, Clone)]
pub struct ReferenceTree {
    threshold: u64,
    objects: Vec<Object>,
    loads: LoadMap,
    stats: DynamicStats,
    n_nodes: usize,
}

impl ReferenceTree {
    /// A fresh oracle for `n_objects` objects on `net`, replicating
    /// after `threshold ≥ 1` reads cross an edge.
    pub fn new(net: &Network, n_objects: usize, threshold: u64) -> Self {
        assert!(threshold >= 1, "the replication threshold must be positive");
        ReferenceTree {
            threshold,
            objects: vec![Object::default(); n_objects],
            loads: LoadMap::zero(net),
            stats: DynamicStats::default(),
            n_nodes: net.n_nodes(),
        }
    }

    /// Current copy nodes of `x` (empty before its first request).
    pub fn replicas(&self, x: ObjectId) -> &[NodeId] {
        &self.objects[x.index()].replicas
    }

    /// Accumulated per-edge loads (service + broadcast + replication).
    pub fn loads(&self) -> &LoadMap {
        &self.loads
    }

    /// Event counters.
    pub fn stats(&self) -> DynamicStats {
        self.stats
    }

    /// Replace the replica set of `x` with the non-empty connected set
    /// `nodes` and zero all its read counters, charging nothing: the
    /// semantics of [`crate::DynamicTree::seed_replicas`].
    pub fn seed_replicas(&mut self, net: &Network, x: ObjectId, nodes: &[NodeId]) {
        assert_eq!(net.n_nodes(), self.n_nodes, "network mismatch");
        assert!(!nodes.is_empty(), "a seeded replica set cannot be empty");
        let obj = &mut self.objects[x.index()];
        obj.replicas = nodes.to_vec();
        obj.counts = vec![0; self.n_nodes];
    }

    /// Process one request, charging its traffic to the load map.
    pub fn serve(&mut self, net: &Network, req: OnlineRequest) {
        assert_eq!(net.n_nodes(), self.n_nodes, "network mismatch");
        let obj = &mut self.objects[req.object.index()];
        if obj.replicas.is_empty() {
            // First touch: the object materializes at the requester.
            obj.replicas.push(req.processor);
            obj.counts = vec![0; self.n_nodes];
        }
        let target = obj.replicas[0];
        let mut path: Vec<EdgeId> = Vec::new();
        let mut v = req.processor;
        while !obj.replicas.contains(&v) {
            let next = net.step_towards(v, target);
            let hop_edge = if net.parent(next) == v { next } else { v };
            path.push(EdgeId::from(hop_edge));
            v = next;
        }
        for &e in &path {
            self.loads.add_edge(e, 1);
        }

        if req.is_write {
            self.stats.writes += 1;
            // Update broadcast over the replica subtree.
            for e in hbn_topology::steiner::steiner_edges(net, &obj.replicas) {
                self.loads.add_edge(e, 1);
            }
            // Collapse to the copy serving the writer (`v`).
            if obj.replicas.len() > 1 {
                self.stats.collapses += 1;
            }
            obj.replicas.clear();
            obj.replicas.push(v);
            obj.counts.fill(0);
        } else {
            self.stats.reads += 1;
            for &e in &path {
                obj.counts[e.index()] += 1;
            }
            // Grow across saturated edges, from the replica side out.
            let mut frontier = v;
            for &e in path.iter().rev() {
                if obj.counts[e.index()] < self.threshold {
                    break;
                }
                let (child, parent) = net.edge_endpoints(e);
                let next = if child == frontier { parent } else { child };
                self.loads.add_edge(e, self.threshold);
                obj.counts[e.index()] = 0;
                obj.replicas.push(next);
                self.stats.replications += 1;
                frontier = next;
            }
        }
    }
}
