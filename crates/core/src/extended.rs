//! The extended-nibble strategy end to end (paper, Section 3):
//! nibble placement → deletion algorithm → mapping algorithm.
//!
//! Objects whose nibble placement already lives entirely on processors are
//! left untouched (the analysis of Theorem 4.3 depends on this); every
//! other object runs through deletion, and its remaining bus copies are
//! moved to processors by the global mapping phase. The result is a
//! leaf-only placement with congestion at most `7 · C_opt`.

use crate::batch::PlacementKernel;
use crate::copies::ObjectCopies;
use crate::deletion::delete_rarely_used;
use crate::gravity::Workspace;
use crate::mapping::{MappingError, MappingOptions, MappingReport};
use crate::nibble::nibble_object;
use hbn_load::{LoadMap, Placement};
use hbn_topology::{Network, NodeId};
use hbn_workload::AccessMatrix;

/// Options for [`ExtendedNibble`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExtendedNibbleOptions {
    /// Mapping-phase options (invariant checking, free-edge policy).
    pub mapping: MappingOptions,
}

/// Counters describing what the strategy did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExtendedNibbleStats {
    /// Objects whose nibble placement used at least one bus (processed by
    /// steps 2–3).
    pub objects_processed: usize,
    /// Objects left exactly as the nibble strategy placed them.
    pub objects_untouched: usize,
    /// Copies removed by the deletion algorithm.
    pub copies_deleted: usize,
    /// Extra copies created by splitting heavy copies.
    pub copies_split: usize,
}

/// Full output of the extended-nibble strategy.
#[derive(Debug, Clone)]
pub struct ExtendedOutcome {
    /// The final leaf-only placement (split assignments possible; see
    /// `Placement::is_single_reference`).
    pub placement: Placement,
    /// The step-1 nibble placement — the certified lower bound (may hold
    /// copies on buses).
    pub nibble_placement: Placement,
    /// The modified (post-deletion) placement fed into the mapping phase.
    pub modified_placement: Placement,
    /// Per-object gravity centers.
    pub gravity: Vec<NodeId>,
    /// The mapping phase report (`τ_max`, per-edge loads…).
    pub mapping: MappingReport,
    /// Counters.
    pub stats: ExtendedNibbleStats,
}

impl ExtendedOutcome {
    /// The proof's *accounting* upper bound on the final loads: modified
    /// placement loads plus mapping loads per edge. The real placement's
    /// loads are dominated by this map (tested), and Lemma 4.5 bounds it by
    /// `4·L_nib(e) + τ_max`.
    pub fn accounting_loads(&self, net: &Network, matrix: &AccessMatrix) -> LoadMap {
        let mut loads = LoadMap::from_placement(net, matrix, &self.modified_placement);
        for e in net.edges() {
            *loads.edge_load_mut(e) += self.mapping.map_load(e);
        }
        loads
    }
}

/// The extended-nibble strategy (Theorem 4.3): computes a leaf-only
/// placement with congestion at most `7 · C_opt`.
///
/// Steps 1–2 read and write only each object's support, the union of
/// its requesters' root paths (at most `r_x · (height(T) + 1)` nodes for
/// `r_x` requesting processors), so their cost follows each object's
/// requesters and copies, not `|V|`. Only the global mapping phase scans
/// the network, once per call. The whole run stays within the paper's
/// `O(|X| · |V| · height(T) · log(degree(T)))`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExtendedNibble {
    /// Strategy options.
    pub options: ExtendedNibbleOptions,
}

impl ExtendedNibble {
    /// Strategy with default options (unchecked mapping).
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable invariant checking during the mapping phase.
    pub fn checked() -> Self {
        ExtendedNibble {
            options: ExtendedNibbleOptions {
                mapping: MappingOptions { check_invariants: true, ..Default::default() },
            },
        }
    }

    /// Run steps 1–3 and return the full outcome: one call on a fresh
    /// [`PlacementKernel`].
    pub fn place(
        &self,
        net: &Network,
        matrix: &AccessMatrix,
    ) -> Result<ExtendedOutcome, MappingError> {
        PlacementKernel::with_options(net, self.options.mapping).place(net, matrix)
    }
}

/// Steps 1–2 for one object: nibble, then deletion iff the nibble
/// placement uses a bus. Returns `(gravity, nibble copies, modified
/// copies, processed?)`.
pub(crate) fn run_steps_for_object(
    net: &Network,
    matrix: &AccessMatrix,
    x: hbn_workload::ObjectId,
    ws: &mut Workspace,
) -> (NodeId, ObjectCopies, ObjectCopies, bool) {
    let out = nibble_object(net, matrix, x, ws);
    if out.uses_bus {
        let del = delete_rarely_used(net, out.gravity, out.copies.clone());
        (out.gravity, out.copies, del.copies, true)
    } else {
        (out.gravity, out.copies.clone(), out.copies, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbn_topology::generators::{balanced, random_network, star, BandwidthProfile};
    use hbn_workload::generators as wgen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn final_placement_is_leaf_only_and_valid() {
        let mut rng = StdRng::seed_from_u64(40);
        for round in 0..25 {
            let net = random_network(6, 12, BandwidthProfile::Uniform, &mut rng);
            let m = wgen::uniform(&net, 5, 6, 4, 0.6, &mut rng);
            let out = ExtendedNibble::checked().place(&net, &m).unwrap();
            out.placement.validate(&net, &m).unwrap();
            assert!(out.placement.is_leaf_only(&net), "round {round}");
            // Nibble copies minus modified copies is deletions minus splits.
            let mut ws = Workspace::new(net.n_nodes());
            let net_removed: i64 = m
                .objects()
                .map(|x| {
                    let (_, nibble, modified, _) = run_steps_for_object(&net, &m, x, &mut ws);
                    nibble.copies.len() as i64 - modified.copies.len() as i64
                })
                .sum();
            let (deleted, split) = (out.stats.copies_deleted, out.stats.copies_split);
            assert_eq!(net_removed, deleted as i64 - split as i64, "round {round}");
        }
    }

    #[test]
    fn untouched_objects_keep_their_nibble_placement() {
        let net = balanced(2, 2, BandwidthProfile::Uniform);
        let p = net.processors();
        let mut m = AccessMatrix::new(1);
        // Strong majority on one leaf: nibble places a single leaf copy.
        m.add(p[0], hbn_workload::ObjectId(0), 10, 5);
        let out = ExtendedNibble::checked().place(&net, &m).unwrap();
        assert_eq!(out.stats.objects_untouched, 1);
        assert_eq!(out.placement.copies(hbn_workload::ObjectId(0)), &[p[0]]);
        assert_eq!(
            out.placement.copies(hbn_workload::ObjectId(0)),
            out.nibble_placement.copies(hbn_workload::ObjectId(0))
        );
    }

    #[test]
    fn real_loads_dominated_by_accounting_loads() {
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..20 {
            let net = random_network(5, 10, BandwidthProfile::Uniform, &mut rng);
            let m = wgen::uniform(&net, 4, 5, 5, 0.7, &mut rng);
            let out = ExtendedNibble::checked().place(&net, &m).unwrap();
            let real = LoadMap::from_placement(&net, &m, &out.placement);
            let accounting = out.accounting_loads(&net, &m);
            assert!(
                real.dominated_by(&accounting),
                "real loads must never exceed the accounting bound"
            );
        }
    }

    /// Lemma 4.5: accounting load ≤ 4 · L_nib(e) + τ_max on every edge.
    #[test]
    fn lemma_4_5_edge_bound() {
        let mut rng = StdRng::seed_from_u64(42);
        for round in 0..25 {
            let net = random_network(6, 12, BandwidthProfile::Uniform, &mut rng);
            let m = wgen::uniform(&net, 5, 5, 5, 0.8, &mut rng);
            let out = ExtendedNibble::checked().place(&net, &m).unwrap();
            let nib = LoadMap::from_placement(&net, &m, &out.nibble_placement);
            let accounting = out.accounting_loads(&net, &m);
            for e in net.edges() {
                assert!(
                    accounting.edge_load(e) <= 4 * nib.edge_load(e) + out.mapping.tau_max,
                    "round {round}, edge {e}: {} > 4·{} + {}",
                    accounting.edge_load(e),
                    nib.edge_load(e),
                    out.mapping.tau_max
                );
            }
        }
    }

    /// Lemma 4.6: bus accounting load ≤ 4 · L_nib(v) + τ_max.
    #[test]
    fn lemma_4_6_bus_bound() {
        let mut rng = StdRng::seed_from_u64(43);
        for round in 0..25 {
            let net = random_network(6, 12, BandwidthProfile::Uniform, &mut rng);
            let m = wgen::zipf_read_mostly(&net, 6, 400, 0.9, 0.3, &mut rng);
            let out = ExtendedNibble::checked().place(&net, &m).unwrap();
            let nib = LoadMap::from_placement(&net, &m, &out.nibble_placement);
            let accounting = out.accounting_loads(&net, &m);
            for v in net.nodes().filter(|&v| net.is_bus(v)) {
                // Doubled bus loads: L(v)·2 ≤ 4·L_nib(v)·2 + 2·τ_max.
                assert!(
                    accounting.bus_load_x2(&net, v)
                        <= 4 * nib.bus_load_x2(&net, v) + 2 * out.mapping.tau_max,
                    "round {round}, bus {v}"
                );
            }
        }
    }

    #[test]
    fn shared_write_workload_end_to_end() {
        let net = star(8, 4);
        let m = wgen::shared_write(&net, 3, 2, 3);
        let out = ExtendedNibble::checked().place(&net, &m).unwrap();
        out.placement.validate(&net, &m).unwrap();
        assert!(out.placement.is_leaf_only(&net));
        assert_eq!(out.stats.objects_processed, 3, "gravity bus copies must be mapped");
        // κ = 24 per object; τ_max ≤ 3κ_max.
        assert!(out.mapping.tau_max <= 3 * 24);
    }

    #[test]
    fn empty_objects_are_tolerated() {
        let net = star(3, 2);
        let m = AccessMatrix::new(3);
        let out = ExtendedNibble::checked().place(&net, &m).unwrap();
        out.placement.validate(&net, &m).unwrap();
        assert_eq!(out.placement.total_copies(), 0);
    }
}
