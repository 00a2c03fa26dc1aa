//! Congestion-bound makespan estimation — replay without the slot loop.
//!
//! [`estimate_makespan`] prices an epoch in `O(|V| + nnz)` instead of
//! `O(makespan · active packets)`: per-pool crossing totals come from the
//! exact load accounting ([`LoadMap::from_placement`]), the injection
//! tail from the access matrix, and both turn into inclusive
//! [`MakespanBounds`] in `O(|V|)`. The scenario engine's
//! `ReplayKernel::Estimate` uses this for every epoch and cross-checks a
//! sampled subset against the exact kernel.
//!
//! The replayed traffic reproduces the load model exactly (every request
//! path edge is crossed once, every update broadcast crosses its Steiner
//! tree once), so both bounds are statements about the *actual* per-pool
//! crossing totals of the exact replay:
//!
//! * **Lower bound.** Every token pool `q` with crossing total `L_q` and
//!   per-slot capacity `cap_q` needs at least `⌈L_q / cap_q⌉` slots, and
//!   the last delivery cannot precede those slots: `makespan ≥
//!   max_q ⌈L_q / cap_q⌉` — the classical congestion bound the paper's
//!   strategies optimize. A *down* bus additionally moves all of its
//!   crossings past the outage window (`+ outage_slots`). Independently,
//!   injection is rate-limited: a processor with `n_p` queued requests
//!   injects its last one at slot `⌈n_p / rate⌉ − 1`, and no request
//!   completes before its injection slot, so the largest last-injection
//!   slot is also a lower bound (this is what makes all-local traffic,
//!   whose congestion is zero, bound correctly).
//!
//! * **Upper bound** (delay attribution). A packet blocked in some slot
//!   saw one of its next-switch pools empty, i.e. `cap_q` of that pool's
//!   `L_q` lifetime crossings were consumed that very slot — each pool
//!   can *saturate* in at most `⌊L_q / cap_q⌋` distinct slots. Every pool
//!   a packet can ever wait on lies on the root paths of its two
//!   endpoint leaves, so its total delay is at most `2·maxS`, where
//!   `S(leaf)` sums `⌊L_q / cap_q⌋` over the leaf's root path and `maxS`
//!   is the per-leaf maximum. With dilation `D = 2·height` and last
//!   injection slot `I`: a request completes by `I + D + 2·maxS`; when
//!   writes exist, its update broadcast spawns then and completes another
//!   `D + 2·maxS` later. Down buses grant no tokens during the outage
//!   window, where blocking is not attributable to load — all such slots
//!   lie inside the window, adding at most `outage_slots` once.
//!
//! Both bounds are exact-replay-safe (`lower ≤ makespan ≤ upper`, pinned
//! by the bracket suite in `hbn-scenario`), and the upper bound is
//! deliberately conservative: its observed gap is recorded per epoch and
//! regression-tested, not assumed.

use crate::engine::SimConfig;
use hbn_load::{LoadMap, Placement};
use hbn_topology::{CapacityOverlay, EdgeId, Network};
use hbn_workload::AccessMatrix;

/// Inclusive lower/upper bounds on the exact replay's makespan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MakespanBounds {
    /// No schedule of this traffic finishes earlier.
    pub lower: u64,
    /// The slot kernel's arbitration finishes no later.
    pub upper: u64,
}

impl MakespanBounds {
    /// Upper-to-lower gap ratio (`1.0` = tight); `1.0` when the lower
    /// bound is zero (then the upper bound is zero too).
    pub fn gap_ratio(&self) -> f64 {
        if self.lower == 0 {
            1.0
        } else {
            self.upper as f64 / self.lower as f64
        }
    }

    /// True when `lower ≤ makespan ≤ upper`.
    pub fn brackets(&self, makespan: u64) -> bool {
        self.lower <= makespan && makespan <= self.upper
    }
}

/// Injection-side facts the load map cannot see, extracted from the
/// epoch's access matrix by [`injection_profile`].
#[derive(Debug, Clone, Copy, Default)]
struct InjectionProfile {
    /// Total queued requests across all processors.
    total_requests: u64,
    /// Slot of the last injection: `max_p ⌈n_p / rate⌉ − 1`.
    last_injection_slot: u64,
    /// Whether any write exists (writes spawn update broadcasts).
    has_writes: bool,
}

/// Compute makespan bounds for replaying `loads` on `net` in `O(|V|)`.
///
/// `overlay` carries per-bus degradation and outage windows exactly as
/// the slot kernels consume it; `None` is the pristine network. A
/// zero-request profile yields `{0, 0}`.
fn makespan_bounds(
    net: &Network,
    loads: &LoadMap,
    profile: InjectionProfile,
    overlay: Option<&CapacityOverlay>,
) -> MakespanBounds {
    if profile.total_requests == 0 {
        return MakespanBounds::default();
    }
    let outage_slots = overlay.map_or(0, |o| o.outage_slots());
    let mut any_down = false;

    // --- Lower bound: per-pool slot demand, plus the injection tail ---
    let mut lower = profile.last_injection_slot;
    for e in net.edges() {
        let bw = net.edge_bandwidth(e);
        let need = loads.edge_load(e).div_ceil(bw);
        lower = lower.max(need);
    }
    for v in net.nodes().filter(|&v| net.is_bus(v)) {
        let x2 = loads.bus_load_x2(net, v);
        let cap = 2 * overlay
            .map_or_else(|| net.node_bandwidth(v), |o| o.effective_node_bandwidth(net, v));
        let mut need = x2.div_ceil(cap);
        if let Some(o) = overlay {
            if o.is_down(v) {
                any_down = true;
                if x2 > 0 {
                    // No tokens during the outage: every crossing at this
                    // bus lands in a slot ≥ outage_slots.
                    need += outage_slots;
                }
            }
        }
        lower = lower.max(need);
    }

    // --- Upper bound: saturation-slot sums over root paths ---
    // S(v) = S(parent) + ⌊edge load / edge bw⌋ + bus term, computed in
    // one pass over the preorder (parents precede children).
    let n = net.n_nodes();
    let mut sat = vec![0u64; n];
    let mut max_s = 0u64;
    for &v in net.preorder() {
        let mut s = if v == net.root() { 0 } else { sat[net.parent(v).index()] };
        if v != net.root() {
            let e = EdgeId::from(v);
            s += loads.edge_load(e) / net.edge_bandwidth(e);
        }
        if net.is_bus(v) {
            let cap = 2 * overlay
                .map_or_else(|| net.node_bandwidth(v), |o| o.effective_node_bandwidth(net, v));
            s += loads.bus_load_x2(net, v) / cap;
        } else {
            max_s = max_s.max(s);
        }
        sat[v.index()] = s;
    }
    let dilation = 2 * net.height() as u64;
    let leg = dilation + 2 * max_s;
    let mut upper = profile
        .last_injection_slot
        .saturating_add(leg)
        .saturating_add(if profile.has_writes { leg } else { 0 });
    if any_down {
        upper = upper.saturating_add(outage_slots);
    }
    MakespanBounds { lower, upper: upper.max(lower) }
}

/// Extract the injection-side profile of replaying the full `matrix` at
/// `config.injection_rate` requests per processor per slot. Only the
/// matrix's support has entries, so only it is walked.
fn injection_profile(net: &Network, matrix: &AccessMatrix, config: SimConfig) -> InjectionProfile {
    let n_procs = net.n_processors();
    let mut per_proc = vec![0u64; n_procs];
    let mut total = 0u64;
    let mut has_writes = false;
    for x in matrix.support() {
        for e in matrix.object_entries(x) {
            let w = e.reads + e.writes;
            if w == 0 || !net.is_processor(e.processor) {
                continue;
            }
            per_proc[net.processor_index(e.processor)] += w;
            total += w;
            has_writes |= e.writes > 0;
        }
    }
    let rate = config.injection_rate.max(1) as u64;
    let last_injection_slot =
        per_proc.iter().map(|&n| n.div_ceil(rate).saturating_sub(1)).max().unwrap_or(0);
    InjectionProfile { total_requests: total, last_injection_slot, has_writes }
}

/// Bound the makespan of replaying the full `matrix` under `placement`,
/// computing the load map internally. See
/// [`estimate_makespan_from_loads`] when the caller already has it.
pub fn estimate_makespan(
    net: &Network,
    matrix: &AccessMatrix,
    placement: &Placement,
    config: SimConfig,
    overlay: Option<&CapacityOverlay>,
) -> MakespanBounds {
    let loads = LoadMap::from_placement(net, matrix, placement);
    estimate_makespan_from_loads(net, matrix, &loads, config, overlay)
}

/// Bound the makespan of replaying the full `matrix` given its placement
/// load map (`LoadMap::from_placement` of the same matrix + placement —
/// exactly what the scenario engine already computes per epoch).
pub fn estimate_makespan_from_loads(
    net: &Network,
    matrix: &AccessMatrix,
    loads: &LoadMap,
    config: SimConfig,
    overlay: Option<&CapacityOverlay>,
) -> MakespanBounds {
    let profile = injection_profile(net, matrix, config);
    makespan_bounds(net, loads, profile, overlay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::expand;
    use crate::{simulate, SimConfig};
    use hbn_topology::generators::star;
    use hbn_workload::ObjectId;

    #[test]
    fn bounds_bracket_exact_replay() {
        let net = star(6, 2);
        let p = net.processors();
        let mut m = AccessMatrix::new(2);
        m.add(p[0], ObjectId(0), 4, 1);
        m.add(p[1], ObjectId(0), 2, 0);
        m.add(p[2], ObjectId(1), 0, 3);
        let mut pl = Placement::new(2);
        pl.add_copy(ObjectId(0), p[3]);
        pl.add_copy(ObjectId(1), p[4]);
        pl.add_copy(ObjectId(1), p[5]);
        pl.nearest_assignment(&net, &m);
        let config = SimConfig::default();
        let exact = simulate(&net, &m, &pl, &expand(&m), config).unwrap();
        let bounds = estimate_makespan(&net, &m, &pl, config, None);
        assert!(
            bounds.brackets(exact.makespan),
            "{bounds:?} must bracket exact makespan {}",
            exact.makespan
        );
    }

    #[test]
    fn zero_request_epoch_is_zero_not_nan() {
        let net = star(4, 2);
        let m = AccessMatrix::new(1);
        let pl = Placement::new(1);
        let bounds = estimate_makespan(&net, &m, &pl, SimConfig::default(), None);
        assert_eq!(bounds.lower, 0);
        assert_eq!(bounds.upper, 0);
        assert!(bounds.gap_ratio().is_finite());
        assert_eq!(bounds.gap_ratio(), 1.0);
    }

    #[test]
    fn zero_requests_zero_bounds() {
        let net = star(4, 2);
        let loads = LoadMap::zero(&net);
        let b = makespan_bounds(&net, &loads, InjectionProfile::default(), None);
        assert_eq!(b, MakespanBounds { lower: 0, upper: 0 });
        assert_eq!(b.gap_ratio(), 1.0);
        assert!(b.brackets(0));
    }

    #[test]
    fn single_remote_read_brackets_two_slots() {
        let net = star(4, 100);
        let p = net.processors();
        let mut m = AccessMatrix::new(1);
        m.add(p[0], ObjectId(0), 1, 0);
        let pl = Placement::single_leaf(&net, &m, |_| p[1]);
        let loads = LoadMap::from_placement(&net, &m, &pl);
        let profile =
            InjectionProfile { total_requests: 1, last_injection_slot: 0, has_writes: false };
        let b = makespan_bounds(&net, &loads, profile, None);
        // Exact makespan is 2 (two switch crossings, no contention).
        assert!(b.brackets(2), "bounds {b:?} must bracket 2");
    }

    #[test]
    fn all_local_traffic_bounds_by_injection_tail() {
        let net = star(4, 100);
        let p = net.processors();
        let mut m = AccessMatrix::new(1);
        m.add(p[0], ObjectId(0), 7, 0);
        let pl = Placement::single_leaf(&net, &m, |_| p[0]);
        let loads = LoadMap::from_placement(&net, &m, &pl);
        assert_eq!(loads.total(), 0);
        // rate 1: the 7th request injects (and completes) at slot 6.
        let profile =
            InjectionProfile { total_requests: 7, last_injection_slot: 6, has_writes: false };
        let b = makespan_bounds(&net, &loads, profile, None);
        assert_eq!(b.lower, 6);
        assert!(b.brackets(6));
    }

    #[test]
    fn down_bus_pushes_both_bounds_past_outage() {
        let net = star(4, 1);
        let p = net.processors();
        let mut m = AccessMatrix::new(1);
        m.add(p[0], ObjectId(0), 3, 0);
        let pl = Placement::single_leaf(&net, &m, |_| p[1]);
        let loads = LoadMap::from_placement(&net, &m, &pl);
        let mut overlay = CapacityOverlay::pristine(net.n_nodes()).with_outage_slots(50);
        overlay.set_down(net.root());
        let profile =
            InjectionProfile { total_requests: 3, last_injection_slot: 2, has_writes: false };
        let b = makespan_bounds(&net, &loads, profile, Some(&overlay));
        assert!(b.lower > 50, "crossings cannot start before the outage ends: {b:?}");
        assert!(b.upper >= b.lower);
    }
}
