//! Step 3 — the mapping algorithm: moving copies from buses to processors
//! (paper, Section 3.3, Figures 5 and 6).
//!
//! The tree is rooted (we use the network's fixed root; the paper allows
//! any root) and every edge is replaced by an upward and a downward
//! directed edge. For each directed edge the algorithm tracks
//!
//! * the **basic load** `L_b(~e)`: requests of the *modified* placement
//!   whose server-to-requester path uses `~e`;
//! * the **acceptable load** `L_acc(~e)`, initially `2·L_b(~e)`;
//! * the **mapping load** `L_map(~e)`: forwarding traffic added by moves.
//!
//! Moving a copy `c` along `~e` increases `L_map(~e)` by `s(c) + κ_x(c)`,
//! which is at most `τ_max = max_c (s(c) + κ_x(c))`.
//!
//! The **upwards phase** (Figure 5) processes nodes bottom-up; each moves
//! as many copies as possible to its parent while `L_map + τ_max ≤ L_acc`,
//! then the leftover budget `δ` is cancelled on both directions of its
//! parent edge (so `L_acc` of a downward edge may go negative). The
//! **downwards phase** (Figure 6) processes buses top-down; every copy is
//! pushed along a *free* child edge, i.e. one with
//! `L_map + s(c) + κ ≤ L_acc + τ_max`. Lemma 4.1 proves a free edge always
//! exists; this implementation verifies it and additionally can check
//! Invariant 4.2 after every step.
//!
//! Erratum handled (see DESIGN.md): Figure 6 starts at level
//! `height(T) − 1`, which never processes the root even though the
//! upwards phase moves copies onto it; we start at the root.
//!
//! Only copies sitting on buses participate — the extended-nibble strategy
//! leaves leaf-only objects untouched (Theorem 4.3's analysis), and fixed
//! leaf copies contribute to the basic loads only.

use crate::copies::ObjectCopies;
use hbn_topology::{EdgeId, Network, NodeId};
use std::collections::BinaryHeap;

/// Which form of Invariant 4.2 the checked mode verifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InvariantForm {
    /// The repaired form `… + Σ_{c∈M(v)} (s(c) + κ_x(c))` — exactly
    /// preserved by every movement and adjustment (see the erratum in
    /// DESIGN.md); the default.
    #[default]
    Repaired,
    /// The paper's printed form `… + 2 Σ_{c∈M(v)} s(c)` — holds initially
    /// but is *not* preserved when a copy with `s > κ` arrives at a node;
    /// kept selectable so experiment EXP-MAP can demonstrate the erratum.
    PaperOriginal,
}

/// Options for [`map_to_leaves`]; the default maps unchecked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MappingOptions {
    /// Verify Invariant 4.2 at every node after each movement/adjustment
    /// (slows mapping down; used by tests and experiment EXP-MAP).
    pub check_invariants: bool,
    /// Which invariant form the checked mode verifies.
    pub invariant_form: InvariantForm,
}

/// Mapping failures. `NoFreeEdge` contradicts Lemma 4.1 and indicates
/// corrupted input (e.g. copies that were never processed by the deletion
/// algorithm); `InvariantViolated` can only fire in checked mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingError {
    /// A copy on `node` found no free child edge (contradicts Lemma 4.1).
    NoFreeEdge {
        /// The node whose child edges are all saturated.
        node: NodeId,
    },
    /// Invariant 4.2 failed at `node` (checked mode only).
    InvariantViolated {
        /// The node where the invariant broke.
        node: NodeId,
    },
}

impl std::fmt::Display for MappingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MappingError::NoFreeEdge { node } => {
                write!(f, "no free child edge at {node} (Lemma 4.1 violated)")
            }
            MappingError::InvariantViolated { node } => {
                write!(f, "Invariant 4.2 violated at {node}")
            }
        }
    }
}

impl std::error::Error for MappingError {}

/// Directed per-edge quantities of a finished mapping run, for analysis
/// and the Lemma 4.4–4.6 checks. All vectors are indexed by [`EdgeId`]
/// (child node id; root slot unused).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingReport {
    /// `τ_max`: the largest `s(c) + κ_x(c)` over mapped copies.
    pub tau_max: u64,
    /// Number of upward copy moves.
    pub moves_up: u64,
    /// Number of downward copy moves.
    pub moves_down: u64,
    /// Number of copies that participated in mapping.
    pub mapped_copies: usize,
    /// Basic load on upward edges.
    pub up_basic: Vec<u64>,
    /// Basic load on downward edges.
    pub down_basic: Vec<u64>,
    /// Final mapping load on upward edges.
    pub up_map: Vec<u64>,
    /// Final mapping load on downward edges.
    pub down_map: Vec<u64>,
    /// Final acceptable load on upward edges.
    pub up_acc: Vec<i64>,
    /// Final acceptable load on downward edges.
    pub down_acc: Vec<i64>,
}

impl MappingReport {
    /// Total mapping load (both directions) crossing undirected edge `e`.
    pub fn map_load(&self, e: EdgeId) -> u64 {
        self.up_map[e.index()] + self.down_map[e.index()]
    }

    /// Total basic load (both directions) on undirected edge `e`.
    pub fn basic_load(&self, e: EdgeId) -> u64 {
        self.up_basic[e.index()] + self.down_basic[e.index()]
    }
}

struct Movable {
    oc_index: usize,
    copy_index: usize,
    /// `s(c) + κ_x(c)` — the mapping-load increment of moving this copy,
    /// also the copy's term in the repaired Invariant 4.2.
    increment: u64,
    /// `s(c)` — used by the paper-original invariant form.
    served: u64,
}

/// Run the mapping algorithm over the modified placement of *all* objects.
///
/// `all_copies` holds every object's post-deletion copies (and untouched
/// objects' nibble copies); copies on buses are moved to leaves **in
/// place**. Returns the per-edge report.
pub fn map_to_leaves(
    net: &Network,
    all_copies: &mut [ObjectCopies],
    options: &MappingOptions,
) -> Result<MappingReport, MappingError> {
    let n = net.n_nodes();

    // Basic loads: for every request group, the directed path from the
    // serving copy to the requester.
    let mut up_basic = vec![0u64; n];
    let mut down_basic = vec![0u64; n];
    for oc in all_copies.iter() {
        for copy in &oc.copies {
            for grp in &copy.groups {
                let w = grp.weight();
                if w == 0 || grp.processor == copy.node {
                    continue;
                }
                let l = net.lca(copy.node, grp.processor);
                // Server climbs to the LCA on upward edges...
                let mut v = copy.node;
                while v != l {
                    up_basic[v.index()] += w;
                    v = net.parent(v);
                }
                // ...then descends to the requester on downward edges.
                let mut v = grp.processor;
                while v != l {
                    down_basic[v.index()] += w;
                    v = net.parent(v);
                }
            }
        }
    }

    // Collect movable copies: those on buses.
    let mut movable: Vec<Movable> = Vec::new();
    let mut stationed: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, oc) in all_copies.iter().enumerate() {
        for (j, copy) in oc.copies.iter().enumerate() {
            if net.is_bus(copy.node) {
                let id = movable.len();
                let served = copy.served();
                movable.push(Movable {
                    oc_index: i,
                    copy_index: j,
                    increment: served + oc.kappa,
                    served,
                });
                stationed[copy.node.index()].push(id);
            }
        }
    }
    let tau_max = movable.iter().map(|m| m.increment).max().unwrap_or(0);

    let mut state = State {
        up_map: vec![0u64; n],
        down_map: vec![0u64; n],
        up_acc: up_basic.iter().map(|&b| 2 * b as i64).collect(),
        down_acc: down_basic.iter().map(|&b| 2 * b as i64).collect(),
        stationed,
        tau_max,
    };
    let mut moves_up = 0u64;
    let mut moves_down = 0u64;

    // Non-root nodes by decreasing depth (the paper's levels 0 .. height-1),
    // ids ascending within a depth for determinism.
    let mut bottom_up: Vec<NodeId> = net.nodes().filter(|&v| v != net.root()).collect();
    bottom_up.sort_unstable_by_key(|&v| (std::cmp::Reverse(net.depth(v)), v));

    // ---- Upwards phase (Figure 5) ----
    for &v in &bottom_up {
        let e = v.index();
        let parent = net.parent(v);
        while let Some(&ci) = state.stationed[e].last() {
            let fits = state.up_map[e] as i128 + tau_max as i128 <= state.up_acc[e] as i128;
            if !fits {
                break;
            }
            state.stationed[e].pop();
            let mv = &movable[ci];
            state.up_map[e] += mv.increment;
            all_copies[mv.oc_index].copies[mv.copy_index].node = parent;
            state.stationed[parent.index()].push(ci);
            moves_up += 1;
        }
        // Adjustment: cancel the unused upward budget on both directions.
        let delta = state.up_acc[e] - state.up_map[e] as i64;
        debug_assert!(delta >= 0, "upward moves never exceed the acceptable load");
        state.up_acc[e] -= delta;
        state.down_acc[e] -= delta;
        if options.check_invariants {
            for node in [v, parent] {
                if net.is_bus(node)
                    && !invariant_4_2_holds(net, &state, &movable, node, options.invariant_form)
                {
                    return Err(MappingError::InvariantViolated { node });
                }
            }
        }
    }

    // ---- Downwards phase (Figure 6, with the root included) ----
    // Buses by increasing depth; all copies cascade towards the leaves.
    let mut top_down: Vec<NodeId> = net.nodes().filter(|&v| net.is_bus(v)).collect();
    top_down.sort_unstable_by_key(|&v| (net.depth(v), v));
    for &v in &top_down {
        if state.stationed[v.index()].is_empty() {
            continue;
        }
        // Lazy max-heap over child-edge slacks: picking the max-slack free
        // edge costs O(log degree) per move, which Theorem 4.3's runtime
        // bound O(|X|·|V|·height(T)·log degree(T)) relies on.
        let mut heap: BinaryHeap<(i128, u32)> =
            net.children(v).iter().map(|&c| (state.down_slack(c), c.0)).collect();
        let pending = std::mem::take(&mut state.stationed[v.index()]);
        for ci in pending {
            let mv = &movable[ci];
            let need = mv.increment as i128;
            let child = loop {
                let Some(&(recorded, c)) = heap.peek() else {
                    return Err(MappingError::NoFreeEdge { node: v });
                };
                let current = state.down_slack(NodeId(c));
                if current != recorded {
                    // Stale entry: refresh (slacks only decrease).
                    heap.pop();
                    heap.push((current, c));
                    continue;
                }
                if current < need {
                    return Err(MappingError::NoFreeEdge { node: v });
                }
                break NodeId(c);
            };
            state.down_map[child.index()] += mv.increment;
            all_copies[mv.oc_index].copies[mv.copy_index].node = child;
            if net.is_bus(child) {
                state.stationed[child.index()].push(ci);
            }
            moves_down += 1;
            if options.check_invariants
                && !invariant_4_2_holds(net, &state, &movable, v, options.invariant_form)
            {
                return Err(MappingError::InvariantViolated { node: v });
            }
        }
    }

    debug_assert!(
        all_copies.iter().all(|oc| oc.copies.iter().all(|c| net.is_processor(c.node))),
        "all copies must end on processors"
    );

    Ok(MappingReport {
        tau_max,
        moves_up,
        moves_down,
        mapped_copies: movable.len(),
        up_basic,
        down_basic,
        up_map: state.up_map,
        down_map: state.down_map,
        up_acc: state.up_acc,
        down_acc: state.down_acc,
    })
}

struct State {
    up_map: Vec<u64>,
    down_map: Vec<u64>,
    up_acc: Vec<i64>,
    down_acc: Vec<i64>,
    /// Movable copy ids currently stationed at each node.
    stationed: Vec<Vec<usize>>,
    tau_max: u64,
}

impl State {
    /// Remaining capacity of the downward edge into `child`: a copy with
    /// increment `s + κ ≤ slack` may move along it (the paper's "free
    /// edge" condition `L_map + s + κ ≤ L_acc + τ_max`).
    fn down_slack(&self, child: NodeId) -> i128 {
        self.down_acc[child.index()] as i128 + self.tau_max as i128
            - self.down_map[child.index()] as i128
    }
}

/// The repaired Invariant 4.2 at bus `v`:
/// `Σ_out (L_acc − L_map) ≥ Σ_in (L_acc − L_map) + Σ_{c ∈ M(v)} (s(c) + κ_x(c))`.
///
/// The paper states the last term as `2 Σ s(c)`. That form holds initially
/// (every copy has `s ≥ κ` after deletion, so `Σ (s + κ) ≤ 2 Σ s`) and is
/// preserved when a copy *leaves* `v`, but a copy *arriving* at `v` changes
/// the right side by `2s − (s + κ) = s − κ ≥ 0`, which can break it. With
/// `Σ (s + κ)` both movements change each side by exactly `s + κ`, so the
/// invariant is preserved exactly — and it still implies Lemma 4.1: if no
/// child edge of `v` is free for copy `c*`, then every child edge has
/// `L_acc − L_map < (s* + κ*) − τ_max ≤ 0`, so the left sum is below
/// `(s* + κ*) − τ_max`, contradicting the invariant (whose right side is
/// at least `−τ_max + (s* + κ*)` in the paper's case 1). Recorded as an
/// erratum in DESIGN.md.
///
/// Outgoing edges of `v` are its upward parent edge and the downward child
/// edges; incoming are the reverse orientations.
fn invariant_4_2_holds(
    net: &Network,
    state: &State,
    movable: &[Movable],
    v: NodeId,
    form: InvariantForm,
) -> bool {
    let mut out_sum: i128 = 0;
    let mut in_sum: i128 = 0;
    if v != net.root() {
        let e = v.index();
        out_sum += state.up_acc[e] as i128 - state.up_map[e] as i128;
        in_sum += state.down_acc[e] as i128 - state.down_map[e] as i128;
    }
    for &c in net.children(v) {
        let e = c.index();
        out_sum += state.down_acc[e] as i128 - state.down_map[e] as i128;
        in_sum += state.up_acc[e] as i128 - state.up_map[e] as i128;
    }
    let term: i128 = state.stationed[v.index()]
        .iter()
        .map(|&ci| match form {
            InvariantForm::Repaired => movable[ci].increment as i128,
            InvariantForm::PaperOriginal => 2 * movable[ci].served as i128,
        })
        .sum();
    out_sum >= in_sum + term
}

/// Observation 3.3, checked after the algorithm: every downward child edge
/// `~e` of a node that moved copies satisfies `L_map(~e) ≤ L_acc(~e) +
/// τ_max`, or carried nothing and has `L_acc(~e) < −τ_max`.
pub fn observation_3_3_holds(net: &Network, report: &MappingReport) -> bool {
    net.edges().all(|e| {
        let i = e.index();
        let lmap = report.down_map[i] as i128;
        let lacc = report.down_acc[i] as i128;
        let tau = report.tau_max as i128;
        lmap <= lacc + tau || (lmap == 0 && lacc < -tau)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::copies::{CopyState, Group};
    use crate::deletion::delete_rarely_used;
    use crate::gravity::Workspace;
    use crate::nibble::nibble_object;
    use hbn_topology::generators::{random_network, star, BandwidthProfile};
    use hbn_workload::{AccessMatrix, ObjectId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Build the modified placement (nibble + deletion for bus-using
    /// objects) for all objects of a workload.
    fn modified_placement(net: &Network, m: &AccessMatrix) -> Vec<ObjectCopies> {
        let mut ws = Workspace::new(net.n_nodes());
        m.objects()
            .map(|x| {
                let out = nibble_object(net, m, x, &mut ws);
                if out.uses_bus {
                    delete_rarely_used(net, out.gravity, out.copies).copies
                } else {
                    out.copies
                }
            })
            .collect()
    }

    fn checked_options() -> MappingOptions {
        MappingOptions { check_invariants: true, ..Default::default() }
    }

    #[test]
    fn all_copies_end_on_leaves() {
        let mut rng = StdRng::seed_from_u64(30);
        for round in 0..40 {
            let net = random_network(6, 12, BandwidthProfile::Uniform, &mut rng);
            let m = hbn_workload::generators::uniform(&net, 4, 6, 4, 0.7, &mut rng);
            let mut copies = modified_placement(&net, &m);
            let report = map_to_leaves(&net, &mut copies, &checked_options())
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
            for oc in &copies {
                for c in &oc.copies {
                    assert!(net.is_processor(c.node), "round {round}: copy left on {}", c.node);
                }
            }
            assert!(observation_3_3_holds(&net, &report), "round {round}");
        }
    }

    #[test]
    fn no_bus_copies_is_a_noop() {
        let net = star(4, 10);
        let p = net.processors();
        let x = ObjectId(0);
        let mut copies = vec![ObjectCopies {
            object: x,
            kappa: 1,
            copies: vec![CopyState {
                object: x,
                node: p[0],
                groups: vec![Group { processor: p[1], reads: 2, writes: 1 }],
            }],
        }];
        let report = map_to_leaves(&net, &mut copies, &checked_options()).unwrap();
        assert_eq!(report.mapped_copies, 0);
        assert_eq!(report.moves_up + report.moves_down, 0);
        assert_eq!(report.tau_max, 0);
        assert_eq!(copies[0].copies[0].node, p[0]);
    }

    #[test]
    fn basic_loads_are_directional() {
        // Copy at the bus of a star serving p1: the path bus -> p1 uses the
        // downward edge of e(p1) only.
        let net = star(3, 10);
        let p = net.processors();
        let x = ObjectId(0);
        let mut copies = vec![ObjectCopies {
            object: x,
            kappa: 2,
            copies: vec![CopyState {
                object: x,
                node: net.root(),
                groups: vec![Group { processor: p[0], reads: 1, writes: 2 }],
            }],
        }];
        let report = map_to_leaves(&net, &mut copies, &checked_options()).unwrap();
        let e = EdgeId::from(p[0]);
        assert_eq!(report.down_basic[e.index()], 3);
        assert_eq!(report.up_basic[e.index()], 0);
        // The copy (s = 3, κ = 2) must have landed on some leaf.
        assert!(net.is_processor(copies[0].copies[0].node));
        assert_eq!(report.tau_max, 5);
    }

    /// Lemma 4.4: L_acc(~e+) + L_acc(~e−) ≤ 2 L_nib(e) — the acceptable
    /// loads never exceed twice the modified placement's edge load, which
    /// itself is ≤ 2 × nibble; here we check the direct 2·L_b form.
    #[test]
    fn acceptable_loads_bounded_by_basic() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..20 {
            let net = random_network(5, 10, BandwidthProfile::Uniform, &mut rng);
            let m = hbn_workload::generators::uniform(&net, 3, 5, 5, 0.8, &mut rng);
            let mut copies = modified_placement(&net, &m);
            let report = map_to_leaves(&net, &mut copies, &checked_options()).unwrap();
            for e in net.edges() {
                let i = e.index();
                // Acceptable loads only decrease from 2·L_b.
                assert!(report.up_acc[i] <= 2 * report.up_basic[i] as i64);
                assert!(report.down_acc[i] <= 2 * report.down_basic[i] as i64);
            }
        }
    }

    #[test]
    fn shared_write_object_maps_from_gravity_bus() {
        // All processors write: nibble puts a single copy on the bus; the
        // mapping must bring it to a leaf.
        let net = star(4, 10);
        let m = hbn_workload::generators::shared_write(&net, 1, 0, 3);
        let mut copies = modified_placement(&net, &m);
        assert!(copies[0].copies.iter().any(|c| net.is_bus(c.node)), "precondition");
        let report = map_to_leaves(&net, &mut copies, &checked_options()).unwrap();
        assert!(report.mapped_copies >= 1);
        assert!(report.moves_down >= 1);
        for c in &copies[0].copies {
            assert!(net.is_processor(c.node));
        }
    }

    #[test]
    fn deep_tree_mapping_with_invariants() {
        let mut rng = StdRng::seed_from_u64(33);
        let net = hbn_topology::generators::bus_path(8, BandwidthProfile::Uniform);
        let m = hbn_workload::generators::uniform(&net, 5, 4, 4, 1.0, &mut rng);
        let mut copies = modified_placement(&net, &m);
        let report = map_to_leaves(&net, &mut copies, &checked_options()).unwrap();
        assert!(observation_3_3_holds(&net, &report));
        for oc in &copies {
            for c in &oc.copies {
                assert!(net.is_processor(c.node));
            }
        }
    }
}
