//! Step 1 — the nibble strategy (paper, Section 3.1; originally from
//! Maggs, Meyer auf der Heide, Vöcking, Westermann, FOCS'97).
//!
//! Rooted at the per-object center of gravity `g(T)`, a node `v` receives
//! a copy of `x` iff `v = g(T)` or `h(T(v)) > w(T)`, where `h(T(v))` is the
//! total access weight in the subtree below `v` and `w(T) = κ_x` is the
//! total write weight. The resulting placement — which may use inner nodes
//! — minimises the load on **every** edge simultaneously (Theorem 3.1) and
//! is therefore a certified lower bound for the bus-constrained optimum.

use crate::copies::{CopyState, Group, ObjectCopies};
use crate::gravity::Workspace;
use hbn_load::{AssignmentEntry, Placement};
use hbn_topology::{Network, NodeId};
use hbn_workload::{AccessMatrix, ObjectId};

/// Nibble placement of a single object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NibbleOutcome {
    /// The center of gravity used as the logical root.
    pub gravity: NodeId,
    /// Copies with the request groups each serves (requests go to the
    /// nearest copy, i.e. the first copy node on the path towards `g`).
    pub copies: ObjectCopies,
    /// Whether any copy sits on a bus — if so, steps 2 and 3 must run;
    /// otherwise the extended-nibble strategy leaves the object untouched
    /// (Theorem 4.3's analysis relies on this).
    pub uses_bus: bool,
}

/// Run the nibble strategy for object `x`, reusing `ws` scratch space.
///
/// Objects without requests yield an empty copy set. Only the support
/// (the union of the requesters' root paths, at most
/// `requesters · (height(T) + 1)` nodes) is examined, so the cost does not
/// depend on `|V|`.
///
/// ```
/// use hbn_core::{nibble_object, Workspace};
/// use hbn_topology::generators::{balanced, BandwidthProfile};
/// use hbn_workload::{AccessMatrix, ObjectId};
///
/// // A small balanced topology (2 children per bus, height 2) with one
/// // object read from two distant leaves and occasionally written.
/// let net = balanced(2, 2, BandwidthProfile::Uniform);
/// let p = net.processors();
/// let mut m = AccessMatrix::new(1);
/// m.add(p[0], ObjectId(0), 8, 1);
/// m.add(p[3], ObjectId(0), 8, 1);
///
/// let mut ws = Workspace::new(net.n_nodes());
/// let out = nibble_object(&net, &m, ObjectId(0), &mut ws);
///
/// // κ_x = 2 writes; every node whose subtree weight exceeds κ gets a
/// // copy, so both heavy readers hold one and the copies form a
/// // connected subgraph through the gravity center.
/// let nodes = out.copies.nodes();
/// assert!(nodes.contains(&p[0]) && nodes.contains(&p[3]));
/// assert!(nodes.contains(&out.gravity));
/// // All 18 requests are served at some copy.
/// assert_eq!(out.copies.total_served(), 18);
/// // The connecting inner nodes are buses, so steps 2–3 must run.
/// assert!(out.uses_bus);
/// ```
pub fn nibble_object(
    net: &Network,
    matrix: &AccessMatrix,
    x: ObjectId,
    ws: &mut Workspace,
) -> NibbleOutcome {
    let kappa = matrix.write_contention(x);
    let mut copy_nodes = Vec::new();
    let Some(g) = nibble_copy_nodes(net, matrix, x, kappa, ws, &mut copy_nodes) else {
        return NibbleOutcome {
            gravity: NodeId(0),
            copies: ObjectCopies { object: x, kappa, copies: Vec::new() },
            uses_bus: false,
        };
    };
    let uses_bus = copy_nodes.iter().any(|&v| net.is_bus(v));
    let mut copies: Vec<CopyState> =
        copy_nodes.iter().map(|&node| CopyState { object: x, node, groups: Vec::new() }).collect();
    for e in matrix.object_entries(x) {
        let at = nearest_copy(net, ws, g, e.processor);
        copies[at].groups.push(Group { processor: e.processor, reads: e.reads, writes: e.writes });
    }

    NibbleOutcome { gravity: g, copies: ObjectCopies { object: x, kappa, copies }, uses_bus }
}

/// Step 1's copy rule for object `x` of write contention `kappa`: load
/// `x` into `ws`, write its copy nodes into `nodes` in ascending order and
/// mark each in `ws` with its index there. Returns the center of gravity,
/// or `None` (and no nodes) when `x` has no requests.
pub(crate) fn nibble_copy_nodes(
    net: &Network,
    matrix: &AccessMatrix,
    x: ObjectId,
    kappa: u64,
    ws: &mut Workspace,
    nodes: &mut Vec<NodeId>,
) -> Option<NodeId> {
    nodes.clear();
    let total = ws.load_object(net, matrix, x);
    if total == 0 {
        return None;
    }
    let g = ws.gravity(net, total);

    // Copy rule: v = g, or the g-rooted subtree weight of v exceeds κ_x.
    // Only support nodes can qualify: every ancestor of g is in the
    // support, and any other node's g-rooted subtree is its fixed-root
    // one, of weight 0 off the support — never above κ_x ≥ 0.
    nodes.extend(ws.support().iter().copied().filter(|&v| {
        v == g || {
            let h_sub = if net.is_ancestor(v, g) {
                total - ws.subtree(net.step_towards(v, g))
            } else {
                ws.subtree(v)
            };
            h_sub > kappa
        }
    }));
    nodes.sort_unstable();
    for (i, &v) in nodes.iter().enumerate() {
        ws.mark(v, i);
    }
    Some(g)
}

/// The index of the copy serving a request from `processor`: the first
/// marked node on its walk towards `g`. The copies form a connected
/// subgraph containing `g`, so this is exactly the closest copy.
pub(crate) fn nearest_copy(net: &Network, ws: &Workspace, g: NodeId, processor: NodeId) -> usize {
    let mut v = processor;
    loop {
        if let Some(i) = ws.copy_index(v) {
            return i;
        }
        v = net.step_towards(v, g);
    }
}

/// Nibble placement of every object, as a [`Placement`] (copies may sit on
/// buses; this is the step-1 intermediate and the certified lower bound).
pub fn nibble_placement(net: &Network, matrix: &AccessMatrix) -> Placement {
    let mut ws = Workspace::new(net.n_nodes());
    let mut placement = Placement::new(matrix.n_objects());
    for x in matrix.objects() {
        let outcome = nibble_object(net, matrix, x, &mut ws);
        apply_to_placement(&outcome.copies, &mut placement);
    }
    placement
}

/// Write an [`ObjectCopies`] stage into a [`Placement`] (copy set plus
/// weighted assignment entries).
pub fn apply_to_placement(oc: &ObjectCopies, placement: &mut Placement) {
    let x = oc.object;
    placement.set_copies(x, oc.copies.iter().map(|c| c.node).collect());
    let mut entries = Vec::new();
    for c in &oc.copies {
        for grp in &c.groups {
            entries.push(AssignmentEntry {
                processor: grp.processor,
                server: c.node,
                reads: grp.reads,
                writes: grp.writes,
            });
        }
    }
    placement.set_assignment(x, entries);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbn_load::LoadMap;
    use hbn_topology::generators::{balanced, random_network, star, BandwidthProfile};
    use hbn_topology::EdgeId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn run(net: &Network, matrix: &AccessMatrix, x: ObjectId) -> NibbleOutcome {
        let mut ws = Workspace::new(net.n_nodes());
        nibble_object(net, matrix, x, &mut ws)
    }

    #[test]
    fn empty_object_gets_no_copies() {
        let net = star(3, 2);
        let m = AccessMatrix::new(1);
        let out = run(&net, &m, ObjectId(0));
        assert!(out.copies.copies.is_empty());
        assert!(!out.uses_bus);
    }

    #[test]
    fn read_only_object_copies_every_requester() {
        let net = balanced(2, 2, BandwidthProfile::Uniform);
        let mut m = AccessMatrix::new(1);
        let p = net.processors();
        m.add(p[0], ObjectId(0), 5, 0);
        m.add(p[3], ObjectId(0), 2, 0);
        let out = run(&net, &m, ObjectId(0));
        // κ = 0: every node with positive subtree weight (towards g) gets a
        // copy; in particular both requesters hold copies and serve
        // themselves.
        for c in &out.copies.copies {
            if c.node == p[0] {
                assert_eq!(c.served(), 5);
            }
            if c.node == p[3] {
                assert_eq!(c.served(), 2);
            }
        }
        // Zero load anywhere: reads are all local.
        let mut placement = Placement::new(1);
        apply_to_placement(&out.copies, &mut placement);
        let loads = LoadMap::from_placement(&net, &m, &placement);
        assert_eq!(loads.total(), 0);
    }

    #[test]
    fn write_heavy_object_gets_single_copy_at_gravity() {
        let net = star(4, 10);
        let p = net.processors();
        let mut m = AccessMatrix::new(1);
        for &pp in p {
            m.add(pp, ObjectId(0), 0, 2);
        }
        let out = run(&net, &m, ObjectId(0));
        // κ = 8 = h_x: no subtree can exceed κ, so only g holds a copy.
        assert_eq!(out.copies.copies.len(), 1);
        assert_eq!(out.copies.copies[0].node, out.gravity);
        assert_eq!(out.copies.total_served(), 8);
        // g is the bus (balanced weights).
        assert!(net.is_bus(out.gravity));
        assert!(out.uses_bus);
    }

    /// Theorem 3.1: copies form a connected subgraph containing g.
    #[test]
    fn copies_form_connected_subgraph() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..30 {
            let net = random_network(6, 12, BandwidthProfile::Uniform, &mut rng);
            let mut m = AccessMatrix::new(1);
            for &p in net.processors() {
                if rng.gen_bool(0.7) {
                    m.add(p, ObjectId(0), rng.gen_range(0..8), rng.gen_range(0..4));
                }
            }
            if m.total_weight(ObjectId(0)) == 0 {
                continue;
            }
            let out = run(&net, &m, ObjectId(0));
            let nodes = out.copies.nodes();
            assert!(nodes.contains(&out.gravity));
            for &v in &nodes {
                if v != out.gravity {
                    let towards = net.step_towards(v, out.gravity);
                    assert!(
                        nodes.contains(&towards),
                        "copy at {v} disconnected from gravity {}",
                        out.gravity
                    );
                }
            }
        }
    }

    /// Theorem 3.1: per-object edge loads are ≤ κ_x everywhere and exactly
    /// κ_x on edges inside the copy subgraph T(x).
    #[test]
    fn edge_loads_bounded_by_write_contention() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..30 {
            let net = random_network(5, 10, BandwidthProfile::Uniform, &mut rng);
            let mut m = AccessMatrix::new(1);
            for &p in net.processors() {
                if rng.gen_bool(0.8) {
                    m.add(p, ObjectId(0), rng.gen_range(0..6), rng.gen_range(0..6));
                }
            }
            let x = ObjectId(0);
            if m.total_weight(x) == 0 {
                continue;
            }
            let kappa = m.write_contention(x);
            let out = run(&net, &m, x);
            let mut placement = Placement::new(1);
            apply_to_placement(&out.copies, &mut placement);
            placement.validate(&net, &m).unwrap();
            let loads = LoadMap::from_placement(&net, &m, &placement);
            let nodes = out.copies.nodes();
            for e in net.edges() {
                let l = loads.edge_load(e);
                assert!(l <= kappa, "edge {e} load {l} exceeds κ = {kappa}");
                let (c, p) = net.edge_endpoints(e);
                if nodes.contains(&c) && nodes.contains(&p) {
                    assert_eq!(l, kappa, "edge {e} inside T(x) must carry exactly κ");
                }
            }
        }
    }

    #[test]
    fn requests_route_to_nearest_copy() {
        let net = balanced(2, 3, BandwidthProfile::Uniform);
        let p = net.processors();
        let mut m = AccessMatrix::new(1);
        // Two heavy read clusters force copies near both, with writes
        // keeping the middle connected.
        m.add(p[0], ObjectId(0), 20, 1);
        m.add(p[7], ObjectId(0), 20, 1);
        let out = run(&net, &m, ObjectId(0));
        let mut placement = Placement::new(1);
        apply_to_placement(&out.copies, &mut placement);
        // Every requester is served by a copy at distance ≤ its distance to
        // any other copy.
        for e in placement.assignment(ObjectId(0)) {
            let d_srv = net.distance(e.processor, e.server);
            for &other in placement.copies(ObjectId(0)) {
                assert!(d_srv <= net.distance(e.processor, other));
            }
        }
    }

    #[test]
    fn total_served_matches_total_weight() {
        let mut rng = StdRng::seed_from_u64(9);
        let net = balanced(3, 2, BandwidthProfile::Uniform);
        for _ in 0..20 {
            let mut m = AccessMatrix::new(1);
            for &p in net.processors() {
                m.add(p, ObjectId(0), rng.gen_range(0..5), rng.gen_range(0..5));
            }
            let out = run(&net, &m, ObjectId(0));
            assert_eq!(out.copies.total_served(), m.total_weight(ObjectId(0)));
        }
    }

    #[test]
    fn nibble_placement_covers_all_objects() {
        let mut rng = StdRng::seed_from_u64(10);
        let net = balanced(3, 2, BandwidthProfile::Uniform);
        let m = hbn_workload::generators::uniform(&net, 6, 4, 3, 0.5, &mut rng);
        let placement = nibble_placement(&net, &m);
        placement.validate(&net, &m).unwrap();
    }

    /// The nibble strategy's dominance: on small instances its edge loads
    /// are ≤ those of a selection of alternative placements.
    #[test]
    fn dominates_alternative_placements() {
        let net = star(4, 10);
        let p = net.processors();
        let x = ObjectId(0);
        let mut m = AccessMatrix::new(1);
        m.add(p[0], x, 4, 2);
        m.add(p[1], x, 1, 1);
        m.add(p[2], x, 0, 3);
        let nib = nibble_placement(&net, &m);
        let nib_loads = LoadMap::from_placement(&net, &m, &nib);
        // Compare against every single-leaf placement.
        for &leaf in p {
            let alt = Placement::single_leaf(&net, &m, |_| leaf);
            let alt_loads = LoadMap::from_placement(&net, &m, &alt);
            for e in net.edges() {
                assert!(
                    nib_loads.edge_load(e) <= alt_loads.edge_load(e),
                    "nibble must minimise load on {e} (got {} vs {})",
                    nib_loads.edge_load(e),
                    alt_loads.edge_load(e)
                );
            }
        }
        let _ = EdgeId(0); // silence unused import on some cfgs
    }
}
