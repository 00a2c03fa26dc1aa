//! Per-bus capacity overlays: degraded and dead buses.
//!
//! A [`CapacityOverlay`] records, per node, a *divisor* applied to the
//! bus bandwidth `b(B)` and a *down* flag. It is the shared currency of
//! the fault subsystem: the load model normalizes congestion by the
//! effective bandwidth (`hbn-load`'s `congestion_with`), and the
//! simulator slot kernels grant a down bus zero tokens during the
//! outage window of an epoch replay — packets are deferred and retried
//! in later slots, never dropped.
//!
//! A pristine overlay (all divisors 1, nothing down) is mathematically
//! identical to no overlay at all; every overlay-aware entry point
//! treats `None` and a pristine overlay bit-for-bit the same.
//!
//! A [`CapacityProfile`], by contrast, is *static* heterogeneity: it
//! rewrites the bus bandwidths of a freshly built [`Network`] once, at
//! build time. Because the profile mutates `b(v)` itself, every
//! consumer — the replay kernel and its oracle, the congestion
//! estimator, load normalization — sees the profiled
//! capacities with no per-kernel plumbing, and an overlay composes on
//! top naturally: degradation divides the *profiled* bandwidth and
//! restore returns to the *profile* capacity, not some pristine
//! uniform one.

use crate::ids::{Bandwidth, NodeId};
use crate::tree::Network;

/// A static per-bus heterogeneous capacity profile, applied once when a
/// scenario's network is built.
///
/// Profiles express the two directions the paper's hierarchy argument
/// cares about: *fat* links near the root (bandwidth grows geometrically
/// with the level, the regime where the tree behaves like a fat-tree)
/// and *degraded* leaf-adjacent buses (the commodity-edge regime where
/// the last hop is the bottleneck).
///
/// ```
/// use hbn_topology::capacity::CapacityProfile;
/// use hbn_topology::generators::{balanced, BandwidthProfile};
///
/// let mut net = balanced(2, 3, BandwidthProfile::Uniform);
/// let root_before = net.node_bandwidth(net.root());
/// CapacityProfile::FatRoot { boost: 2 }.apply(&mut net);
/// // The root is `height - 1` doublings above a leaf-adjacent bus.
/// assert_eq!(net.node_bandwidth(net.root()), root_before << (net.height() - 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CapacityProfile {
    /// Leave the generator's bandwidths untouched.
    #[default]
    Uniform,
    /// Multiply the bandwidth of every bus on level `ℓ` by
    /// `boost^(ℓ - 1)`: leaf-adjacent buses (level 1) keep their base
    /// bandwidth and each level toward the root is `boost`× fatter.
    /// `boost ≤ 1` is the identity.
    FatRoot {
        /// Per-level multiplier (2 doubles bandwidth each level up).
        boost: u64,
    },
    /// Divide the bandwidth of every bus with at least one processor
    /// child by `divisor`, floored at 1 token per slot — the degraded
    /// commodity edge of the tree. `divisor ≤ 1` is the identity.
    DegradedLeaves {
        /// Divisor applied to leaf-adjacent bus bandwidths.
        divisor: u64,
    },
}

impl CapacityProfile {
    /// `true` when applying the profile changes nothing.
    pub fn is_uniform(&self) -> bool {
        match *self {
            CapacityProfile::Uniform => true,
            CapacityProfile::FatRoot { boost } => boost <= 1,
            CapacityProfile::DegradedLeaves { divisor } => divisor <= 1,
        }
    }

    /// Rewrite the bus bandwidths of `net` in place per the profile.
    /// Idempotent only for [`CapacityProfile::Uniform`]; apply exactly
    /// once, right after the generator builds the network.
    pub fn apply(&self, net: &mut Network) {
        match *self {
            CapacityProfile::Uniform => {}
            CapacityProfile::FatRoot { boost } => {
                if boost <= 1 {
                    return;
                }
                let buses: Vec<NodeId> = net.nodes().filter(|&v| net.is_bus(v)).collect();
                for v in buses {
                    let factor = boost.saturating_pow(net.level(v).saturating_sub(1));
                    let b = net.node_bandwidth(v).saturating_mul(factor).max(1);
                    net.set_bus_bandwidth(v, b);
                }
            }
            CapacityProfile::DegradedLeaves { divisor } => {
                if divisor <= 1 {
                    return;
                }
                let leaf_buses: Vec<NodeId> = net
                    .nodes()
                    .filter(|&v| net.is_bus(v) && net.children(v).iter().any(|&c| !net.is_bus(c)))
                    .collect();
                for v in leaf_buses {
                    let b = (net.node_bandwidth(v) / divisor).max(1);
                    net.set_bus_bandwidth(v, b);
                }
            }
        }
    }
}

impl std::fmt::Display for CapacityProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CapacityProfile::Uniform => write!(f, "uniform"),
            CapacityProfile::FatRoot { boost } => write!(f, "fat-root({boost})"),
            CapacityProfile::DegradedLeaves { divisor } => {
                write!(f, "degraded-leaves({divisor})")
            }
        }
    }
}

/// Per-node capacity modification: bandwidth divisors and down flags.
///
/// Only bus nodes are ever degraded or taken down (processors have no
/// bus bandwidth to modify); the vectors are indexed by `NodeId` over
/// *all* nodes so lookups stay O(1) without an id translation.
///
/// ```
/// use hbn_topology::generators::{balanced, BandwidthProfile};
/// use hbn_topology::{CapacityOverlay, NodeId};
///
/// let net = balanced(2, 2, BandwidthProfile::Uniform);
/// let mut overlay = CapacityOverlay::pristine(net.n_nodes());
/// assert!(overlay.is_pristine());
///
/// let bus = net.children(net.root())[0];
/// overlay.degrade(bus, 4);
/// assert_eq!(overlay.effective_node_bandwidth(&net, bus), 1.max(net.node_bandwidth(bus) / 4));
/// overlay.set_down(bus);
/// assert!(overlay.is_down(bus));
/// overlay.restore(bus);
/// assert!(overlay.is_pristine());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapacityOverlay {
    /// `divisor[v]` divides the bus bandwidth of `v` (1 = unmodified).
    divisor: Vec<u64>,
    /// `down[v]` — the bus is out: zero capacity during the outage
    /// window of an epoch replay.
    down: Vec<bool>,
    /// Length of the outage window in simulator slots: a down bus has
    /// zero capacity while `slot < outage_slots`, then reverts to its
    /// (possibly degraded) capacity so the replay always drains.
    outage_slots: u64,
}

impl CapacityOverlay {
    /// The identity overlay over `n_nodes` nodes: every divisor 1,
    /// nothing down.
    pub fn pristine(n_nodes: usize) -> Self {
        CapacityOverlay { divisor: vec![1; n_nodes], down: vec![false; n_nodes], outage_slots: 0 }
    }

    /// Set the outage window: a down bus has zero capacity for the
    /// first `slots` slots of each epoch replay.
    pub fn with_outage_slots(mut self, slots: u64) -> Self {
        self.outage_slots = slots;
        self
    }

    /// The outage window length, in simulator slots.
    #[inline]
    pub fn outage_slots(&self) -> u64 {
        self.outage_slots
    }

    /// Number of nodes the overlay covers.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.divisor.len()
    }

    /// `true` when the overlay modifies nothing — equivalent to passing
    /// no overlay at all.
    pub fn is_pristine(&self) -> bool {
        self.divisor.iter().all(|&d| d == 1) && !self.down.iter().any(|&d| d)
    }

    /// Degrade node `v`: its bus bandwidth is divided by `factor`
    /// (clamped below at 1 by [`CapacityOverlay::effective_node_bandwidth`]).
    /// A factor of 0 or 1 restores full capacity.
    pub fn degrade(&mut self, v: NodeId, factor: u64) {
        self.divisor[v.index()] = factor.max(1);
    }

    /// Take node `v` fully down.
    pub fn set_down(&mut self, v: NodeId) {
        self.down[v.index()] = true;
    }

    /// Clear both the down flag and the divisor of `v`.
    pub fn restore(&mut self, v: NodeId) {
        self.down[v.index()] = false;
        self.divisor[v.index()] = 1;
    }

    /// Is node `v` fully down?
    #[inline]
    pub fn is_down(&self, v: NodeId) -> bool {
        self.down[v.index()]
    }

    /// Is node `v` degraded (divisor > 1) without being down?
    #[inline]
    pub fn is_degraded(&self, v: NodeId) -> bool {
        self.divisor[v.index()] > 1 && !self.down[v.index()]
    }

    /// Effective bus bandwidth of `v` under the overlay:
    /// `max(1, b(v) / divisor)`. A *degraded* bus never drops below
    /// bandwidth 1 — only an outage ([`CapacityOverlay::is_down`])
    /// removes capacity entirely, and only for the bounded outage
    /// window of a replay.
    #[inline]
    pub fn effective_node_bandwidth(&self, net: &Network, v: NodeId) -> Bandwidth {
        (net.node_bandwidth(v) / self.divisor[v.index()]).max(1)
    }

    /// All down nodes, ascending.
    pub fn down_nodes(&self) -> Vec<NodeId> {
        (0..self.down.len() as u32).map(NodeId).filter(|&v| self.down[v.index()]).collect()
    }

    /// Per-node strandedness: a node is stranded when it or any strict
    /// ancestor is down — no path to the root avoids a dead bus.
    /// Stranded sets are downward-closed, so the non-stranded part of a
    /// connected tree set stays connected.
    pub fn stranded(&self, net: &Network) -> Vec<bool> {
        let mut stranded = vec![false; net.n_nodes()];
        for &v in net.preorder() {
            let own = self.down[v.index()];
            stranded[v.index()] = own || (v != net.root() && stranded[net.parent(v).index()]);
        }
        stranded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{balanced, BandwidthProfile};

    #[test]
    fn pristine_is_identity() {
        let net = balanced(3, 2, BandwidthProfile::Uniform);
        let overlay = CapacityOverlay::pristine(net.n_nodes());
        assert!(overlay.is_pristine());
        for v in net.nodes() {
            assert_eq!(overlay.effective_node_bandwidth(&net, v), net.node_bandwidth(v));
            assert!(!overlay.is_down(v));
        }
        assert!(overlay.down_nodes().is_empty());
        assert!(overlay.stranded(&net).iter().all(|&s| !s));
    }

    #[test]
    fn degrade_clamps_at_one() {
        let net = balanced(2, 2, BandwidthProfile::FatTree { base: 2, cap: 32 });
        let mut overlay = CapacityOverlay::pristine(net.n_nodes());
        let bus = net.children(net.root())[0];
        let b = net.node_bandwidth(bus);
        overlay.degrade(bus, 2);
        assert_eq!(overlay.effective_node_bandwidth(&net, bus), (b / 2).max(1));
        overlay.degrade(bus, 10 * b.max(1));
        assert_eq!(overlay.effective_node_bandwidth(&net, bus), 1);
        assert!(overlay.is_degraded(bus));
        overlay.restore(bus);
        assert!(overlay.is_pristine());
    }

    #[test]
    fn stranded_is_downward_closed() {
        let net = balanced(2, 3, BandwidthProfile::Uniform);
        let mut overlay = CapacityOverlay::pristine(net.n_nodes());
        let bus = net.children(net.root())[1];
        overlay.set_down(bus);
        let stranded = overlay.stranded(&net);
        for v in net.nodes() {
            let expect = net.is_ancestor(bus, v);
            assert_eq!(stranded[v.index()], expect, "{v}");
        }
        assert_eq!(overlay.down_nodes(), vec![bus]);
    }

    #[test]
    fn fat_root_boosts_geometrically_toward_the_root() {
        let net0 = balanced(2, 3, BandwidthProfile::Uniform);
        let mut net = balanced(2, 3, BandwidthProfile::Uniform);
        CapacityProfile::FatRoot { boost: 3 }.apply(&mut net);
        for v in net.nodes().filter(|&v| net.is_bus(v)) {
            let expect = net0.node_bandwidth(v) * 3u64.pow(net.level(v) - 1);
            assert_eq!(net.node_bandwidth(v), expect, "bus {v} level {}", net.level(v));
        }
        // Processors untouched.
        for &p in net.processors() {
            assert_eq!(net.node_bandwidth(p), net0.node_bandwidth(p));
        }
    }

    #[test]
    fn degraded_leaves_only_touch_leaf_adjacent_buses() {
        let net0 = balanced(2, 3, BandwidthProfile::FatTree { base: 2, cap: 64 });
        let mut net = balanced(2, 3, BandwidthProfile::FatTree { base: 2, cap: 64 });
        CapacityProfile::DegradedLeaves { divisor: 4 }.apply(&mut net);
        for v in net.nodes().filter(|&v| net.is_bus(v)) {
            let leaf_adjacent = net.children(v).iter().any(|&c| !net.is_bus(c));
            let expect = if leaf_adjacent {
                (net0.node_bandwidth(v) / 4).max(1)
            } else {
                net0.node_bandwidth(v)
            };
            assert_eq!(net.node_bandwidth(v), expect, "bus {v}");
        }
    }

    #[test]
    fn identity_profiles_change_nothing() {
        for profile in [
            CapacityProfile::Uniform,
            CapacityProfile::FatRoot { boost: 1 },
            CapacityProfile::DegradedLeaves { divisor: 0 },
        ] {
            assert!(profile.is_uniform(), "{profile}");
            let net0 = balanced(2, 2, BandwidthProfile::Uniform);
            let mut net = balanced(2, 2, BandwidthProfile::Uniform);
            profile.apply(&mut net);
            for v in net.nodes() {
                assert_eq!(net.node_bandwidth(v), net0.node_bandwidth(v));
            }
        }
        assert!(!CapacityProfile::FatRoot { boost: 2 }.is_uniform());
        assert!(!CapacityProfile::DegradedLeaves { divisor: 2 }.is_uniform());
    }

    #[test]
    fn profile_labels_are_stable() {
        assert_eq!(CapacityProfile::Uniform.to_string(), "uniform");
        assert_eq!(CapacityProfile::FatRoot { boost: 2 }.to_string(), "fat-root(2)");
        assert_eq!(
            CapacityProfile::DegradedLeaves { divisor: 4 }.to_string(),
            "degraded-leaves(4)"
        );
    }

    /// Satellite S4: overlay degradation on a profile-slowed bus floors
    /// at 1 token and never underflows.
    #[test]
    fn overlay_on_profiled_bus_floors_at_one() {
        let mut net = balanced(2, 2, BandwidthProfile::Uniform);
        CapacityProfile::DegradedLeaves { divisor: 8 }.apply(&mut net);
        let bus = *net
            .nodes()
            .filter(|&v| net.is_bus(v) && net.children(v).iter().any(|&c| !net.is_bus(c)))
            .collect::<Vec<_>>()
            .first()
            .unwrap();
        // The profile already floored this bus near 1.
        let profiled = net.node_bandwidth(bus);
        assert!(profiled >= 1);
        let mut overlay = CapacityOverlay::pristine(net.n_nodes());
        overlay.degrade(bus, 16);
        assert_eq!(overlay.effective_node_bandwidth(&net, bus), (profiled / 16).max(1));
        assert_eq!(overlay.effective_node_bandwidth(&net, bus), 1);
    }

    /// Satellite S4: restoring an overlay returns the bus to its
    /// *profile* capacity, not the pristine generator capacity.
    #[test]
    fn overlay_restore_returns_to_profile_capacity() {
        let pristine = balanced(2, 2, BandwidthProfile::FatTree { base: 4, cap: 256 });
        let mut net = balanced(2, 2, BandwidthProfile::FatTree { base: 4, cap: 256 });
        CapacityProfile::DegradedLeaves { divisor: 2 }.apply(&mut net);
        let bus = *net
            .nodes()
            .filter(|&v| net.is_bus(v) && net.children(v).iter().any(|&c| !net.is_bus(c)))
            .collect::<Vec<_>>()
            .first()
            .unwrap();
        let profiled = net.node_bandwidth(bus);
        assert_ne!(profiled, pristine.node_bandwidth(bus), "profile must actually slow the bus");

        let mut overlay = CapacityOverlay::pristine(net.n_nodes());
        overlay.degrade(bus, 4);
        assert_eq!(overlay.effective_node_bandwidth(&net, bus), (profiled / 4).max(1));
        overlay.restore(bus);
        assert!(overlay.is_pristine());
        assert_eq!(overlay.effective_node_bandwidth(&net, bus), profiled);
        assert_ne!(overlay.effective_node_bandwidth(&net, bus), pristine.node_bandwidth(bus));
    }

    #[test]
    fn degrade_one_restores() {
        let net = balanced(2, 2, BandwidthProfile::Uniform);
        let mut overlay = CapacityOverlay::pristine(net.n_nodes());
        let bus = net.children(net.root())[0];
        overlay.degrade(bus, 0);
        overlay.degrade(bus, 1);
        assert!(overlay.is_pristine());
        assert!(!overlay.is_degraded(bus));
    }
}
