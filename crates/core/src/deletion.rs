//! Step 2 — the deletion algorithm: removing rarely used copies
//! (paper, Section 3.2, Figure 4).
//!
//! Working bottom-up over the copy subgraph `T(x)` (rooted at the center
//! of gravity), every copy serving fewer than `κ_x` requests is deleted
//! and its requests are reassigned to the copy on its parent node; a
//! deleted root reassigns to the nearest surviving copy. Afterwards any
//! copy serving more than `2κ_x` requests is split into co-located copies
//! each serving between `κ_x` and `2κ_x` (Observation 3.2).
//!
//! Deviations recorded in DESIGN.md: copies serving zero requests are also
//! deleted when `κ_x = 0` (read-only objects; the paper's `s(c) < κ_x`
//! test never fires for them), and splitting is skipped for `κ_x = 0`
//! where the `[κ_x, 2κ_x]` window is empty.

use crate::copies::{CopyState, ObjectCopies};
use hbn_topology::{Network, NodeId};

/// Result of the deletion algorithm on one object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeletionOutcome {
    /// The modified copies (deleted/merged, then split).
    pub copies: ObjectCopies,
    /// Number of copies removed.
    pub deleted: usize,
    /// Number of extra copies created by splitting.
    pub splits: usize,
}

/// Run the deletion algorithm for one object whose nibble copies are
/// rooted at `gravity`.
///
/// # Panics
/// Panics if the copies do not form a connected subgraph containing
/// `gravity` (the nibble strategy guarantees this).
pub fn delete_rarely_used(net: &Network, gravity: NodeId, oc: ObjectCopies) -> DeletionOutcome {
    let kappa = oc.kappa;
    if oc.copies.is_empty() {
        return DeletionOutcome { copies: oc, deleted: 0, splits: 0 };
    }

    // One copy per node at this stage; sort bottom-up (decreasing distance
    // from the T(x) root) so every parent is processed after its children.
    let mut copies: Vec<Option<CopyState>> = oc.copies.into_iter().map(Some).collect();
    let mut by_node: std::collections::BTreeMap<NodeId, usize> = std::collections::BTreeMap::new();
    for (i, c) in copies.iter().enumerate() {
        let node = c.as_ref().expect("present").node;
        let prev = by_node.insert(node, i);
        assert!(prev.is_none(), "deletion expects one copy per node");
    }
    let mut order: Vec<usize> = (0..copies.len()).collect();
    let dist_of = |i: usize, copies: &[Option<CopyState>]| {
        net.distance(copies[i].as_ref().expect("present").node, gravity)
    };
    order.sort_by_key(|&i| std::cmp::Reverse(dist_of(i, &copies)));

    let mut deleted = 0usize;
    for &i in &order {
        let (node, served) = {
            let c = copies[i].as_ref().expect("not yet removed");
            (c.node, c.served())
        };
        if !rarely_used(served, kappa) {
            continue;
        }
        if node != gravity {
            let parent = net.step_towards(node, gravity);
            let j = *by_node
                .get(&parent)
                .unwrap_or_else(|| panic!("copies must be connected towards {gravity}"));
            let mut removed = copies[i].take().expect("present");
            copies[j].as_mut().expect("parents outlive children").absorb(&mut removed);
        } else {
            // Root of T(x): reassign to the nearest surviving copy, if any.
            let nearest = copies
                .iter()
                .enumerate()
                .filter(|(j, c)| *j != i && c.is_some())
                .min_by_key(|(_, c)| net.distance(c.as_ref().expect("checked").node, gravity))
                .map(|(j, _)| j);
            match nearest {
                Some(j) => {
                    let mut removed = copies[i].take().expect("present");
                    copies[j].as_mut().expect("checked").absorb(&mut removed);
                }
                None => continue, // last copy stays regardless
            }
        }
        deleted += 1;
    }

    let mut survivors: Vec<CopyState> = copies.into_iter().flatten().collect();

    // Splitting: every copy must serve at most 2κ requests.
    let mut splits = 0usize;
    if kappa > 0 {
        let mut result = Vec::with_capacity(survivors.len());
        for copy in survivors {
            let (k, base, extra) = split_sizes(copy.served(), kappa);
            if k == 1 {
                result.push(copy);
                continue;
            }
            splits += (k - 1) as usize;
            let mut pending = copy.groups;
            pending.reverse(); // treat as a stack
            for chunk_idx in 0..k {
                let target = base + u64::from(chunk_idx < extra);
                let mut chunk = CopyState::empty(copy.object, copy.node);
                let mut need = target;
                while need > 0 {
                    let mut grp = pending.pop().expect("weights add up");
                    if grp.weight() <= need {
                        need -= grp.weight();
                        chunk.groups.push(grp);
                    } else {
                        let taken = grp.split_off(need);
                        need = 0;
                        chunk.groups.push(taken);
                        pending.push(grp);
                    }
                }
                debug_assert_eq!(chunk.served(), target);
                result.push(chunk);
            }
            debug_assert!(pending.iter().all(|g| g.weight() == 0) || pending.is_empty());
        }
        survivors = result;
    }

    DeletionOutcome {
        copies: ObjectCopies { object: oc.object, kappa, copies: survivors },
        deleted,
        splits,
    }
}

/// The deletion test: a copy serving `served` requests of an object with
/// write contention `kappa` is rarely used if it serves fewer than `κ_x`,
/// or nothing at all when `κ_x = 0`.
pub(crate) fn rarely_used(served: u64, kappa: u64) -> bool {
    if kappa > 0 {
        served < kappa
    } else {
        served == 0
    }
}

/// How a surviving copy serving `served` requests splits: into `k` chunks,
/// the first `extra` serving `base + 1` and the rest `base`, each within
/// `[κ_x, 2κ_x]` (Observation 3.2). `k = 1` (no split) when the copy
/// serves at most `2κ_x`, or when `κ_x = 0`.
pub(crate) fn split_sizes(served: u64, kappa: u64) -> (u64, u64, u64) {
    if kappa == 0 || served <= 2 * kappa {
        return (1, served, 0);
    }
    let k = served.div_ceil(2 * kappa);
    debug_assert!(k * kappa <= served && served <= 2 * k * kappa);
    (k, served / k, served % k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gravity::Workspace;
    use crate::nibble::nibble_object;
    use hbn_topology::generators::{balanced, random_network, star, BandwidthProfile};
    use hbn_topology::Network;
    use hbn_workload::{AccessMatrix, ObjectId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn nibble_then_delete(net: &Network, m: &AccessMatrix, x: ObjectId) -> DeletionOutcome {
        let mut ws = Workspace::new(net.n_nodes());
        let out = nibble_object(net, m, x, &mut ws);
        delete_rarely_used(net, out.gravity, out.copies)
    }

    /// Observation 3.2: every copy serves at least κ and at most 2κ.
    #[test]
    fn copies_serve_between_kappa_and_two_kappa() {
        let mut rng = StdRng::seed_from_u64(20);
        for round in 0..40 {
            let net = random_network(5, 10, BandwidthProfile::Uniform, &mut rng);
            let mut m = AccessMatrix::new(1);
            for &p in net.processors() {
                if rng.gen_bool(0.8) {
                    m.add(p, ObjectId(0), rng.gen_range(0..8), rng.gen_range(1..5));
                }
            }
            let x = ObjectId(0);
            if m.total_weight(x) == 0 {
                continue;
            }
            let kappa = m.write_contention(x);
            let out = nibble_then_delete(&net, &m, x);
            assert_eq!(out.copies.total_served(), m.total_weight(x), "round {round}");
            for c in &out.copies.copies {
                let s = c.served();
                assert!(s >= kappa, "copy serves {s} < κ = {kappa} (round {round})");
                assert!(s <= 2 * kappa, "copy serves {s} > 2κ = {kappa} (round {round})");
            }
        }
    }

    #[test]
    fn read_only_objects_keep_only_serving_copies() {
        let net = balanced(2, 2, BandwidthProfile::Uniform);
        let p = net.processors();
        let mut m = AccessMatrix::new(1);
        m.add(p[0], ObjectId(0), 5, 0);
        m.add(p[2], ObjectId(0), 3, 0);
        let out = nibble_then_delete(&net, &m, ObjectId(0));
        // κ = 0: all surviving copies serve > 0 requests, on the two
        // requesting leaves.
        let nodes = out.copies.nodes();
        assert_eq!(nodes, vec![p[0], p[2]]);
        for c in &out.copies.copies {
            assert!(c.served() > 0);
        }
    }

    #[test]
    fn heavy_copies_split_into_bounded_chunks() {
        let net = star(4, 10);
        let p = net.processors();
        let mut m = AccessMatrix::new(1);
        // κ = 2, total = 11. Nibble puts copies on the bus, p0 and p1; the
        // bus copy serves only p2's single read (< κ) and is deleted into
        // the nearest leaf copy; the leaf copies then split into chunks of
        // at most 2κ = 4.
        m.add(p[0], ObjectId(0), 4, 1);
        m.add(p[1], ObjectId(0), 4, 1);
        m.add(p[2], ObjectId(0), 1, 0);
        let out = nibble_then_delete(&net, &m, ObjectId(0));
        assert!(out.deleted >= 1, "the bus copy must be deleted");
        assert!(out.splits >= 1, "heavy leaf copies must split");
        let served: Vec<u64> = out.copies.copies.iter().map(|c| c.served()).collect();
        let total: u64 = served.iter().sum();
        assert_eq!(total, 11);
        for &s in &served {
            assert!((2..=4).contains(&s), "chunk {s} outside [κ, 2κ]");
        }
        // All copies ended on the two heavy leaves.
        assert_eq!(out.copies.nodes(), vec![p[0], p[1]]);
    }

    #[test]
    fn deletion_preserves_all_requests() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..30 {
            let net = random_network(6, 12, BandwidthProfile::Uniform, &mut rng);
            let mut m = AccessMatrix::new(1);
            for &p in net.processors() {
                if rng.gen_bool(0.6) {
                    m.add(p, ObjectId(0), rng.gen_range(0..10), rng.gen_range(0..10));
                }
            }
            let x = ObjectId(0);
            if m.total_weight(x) == 0 {
                continue;
            }
            let out = nibble_then_delete(&net, &m, x);
            assert_eq!(out.copies.total_served(), m.total_weight(x));
            // Reads and writes individually preserved.
            let reads: u64 =
                out.copies.copies.iter().flat_map(|c| &c.groups).map(|g| g.reads).sum();
            let writes: u64 =
                out.copies.copies.iter().flat_map(|c| &c.groups).map(|g| g.writes).sum();
            assert_eq!(reads, m.total_reads(x));
            assert_eq!(writes, m.write_contention(x));
        }
    }

    /// Observation 3.2: per-edge load of the modified placement is at most
    /// the nibble load plus κ on T(x) edges (and ≤ 2 × nibble everywhere).
    #[test]
    fn modified_load_at_most_twice_nibble() {
        use crate::nibble::apply_to_placement;
        use hbn_load::{LoadMap, Placement};
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..30 {
            let net = random_network(5, 10, BandwidthProfile::Uniform, &mut rng);
            let mut m = AccessMatrix::new(1);
            for &p in net.processors() {
                if rng.gen_bool(0.8) {
                    m.add(p, ObjectId(0), rng.gen_range(0..6), rng.gen_range(1..4));
                }
            }
            let x = ObjectId(0);
            let mut ws = Workspace::new(net.n_nodes());
            let nib = nibble_object(&net, &m, x, &mut ws);
            let mut nib_pl = Placement::new(1);
            apply_to_placement(&nib.copies, &mut nib_pl);
            let nib_loads = LoadMap::from_placement(&net, &m, &nib_pl);

            let del = delete_rarely_used(&net, nib.gravity, nib.copies.clone());
            let mut del_pl = Placement::new(1);
            apply_to_placement(&del.copies, &mut del_pl);
            del_pl.validate(&net, &m).unwrap();
            let del_loads = LoadMap::from_placement(&net, &m, &del_pl);

            for e in net.edges() {
                assert!(
                    del_loads.edge_load(e) <= 2 * nib_loads.edge_load(e),
                    "edge {e}: modified {} vs nibble {}",
                    del_loads.edge_load(e),
                    nib_loads.edge_load(e)
                );
            }
        }
    }

    #[test]
    fn empty_object_is_noop() {
        let net = star(3, 2);
        let oc = ObjectCopies { object: ObjectId(0), kappa: 0, copies: Vec::new() };
        let out = delete_rarely_used(&net, NodeId(0), oc);
        assert_eq!(out.deleted, 0);
        assert!(out.copies.copies.is_empty());
    }
}
