//! Deterministic fault injection: seeded bus-outage / degradation
//! schedules and the per-epoch fault view the session hands to every
//! [`crate::Strategy`].
//!
//! A [`FaultPlan`] is a list of [`FaultEvent`]s keyed by *global epoch*
//! index: degrade a bus's capacity by an integral factor, take a bus
//! fully down, or restore it. The plan is pure data on the
//! [`crate::ScenarioSpec`] — the same spec (same seed, same plan) always
//! produces the same fault trace, the same per-epoch
//! [`hbn_topology::CapacityOverlay`] and therefore the same
//! [`crate::ScenarioReport`], which is what makes degraded-mode runs
//! benchmarkable and crash-recovery runs comparable bit for bit.
//!
//! Semantics per epoch `e`: every event with `event.epoch <= e` has been
//! applied, in epoch order (declaration order within an epoch), so a
//! `Down` persists until a later `Restore`. During the epoch's replay a
//! down bus grants **zero** bus tokens for the first
//! [`FaultPlan::outage_slots`] slots and then reverts to its (possibly
//! degraded) capacity — packets that need the bus are deterministically
//! deferred and retried, so the epoch always drains and no traffic is
//! lost; the outage shows up as bounded makespan inflation instead.
//!
//! ```
//! use hbn_scenario::FaultPlan;
//! use hbn_topology::generators::{balanced, BandwidthProfile};
//!
//! let net = balanced(2, 2, BandwidthProfile::Uniform);
//! let bus = net.children(net.root())[0]; // a root-adjacent bus
//! let plan = FaultPlan::single_outage(bus, 2, 4); // down in epochs 2..4
//! plan.validate(&net).unwrap();
//! assert!(plan.fault_view(&net, 1).is_pristine());
//! assert_eq!(plan.fault_view(&net, 2).buses_down, 1);
//! assert_eq!(plan.fault_view(&net, 3).buses_down, 1);
//! assert!(plan.fault_view(&net, 4).is_pristine());
//! ```

use hbn_topology::{CapacityOverlay, Network, NodeId};
use rand::{Rng, SeedableRng};

/// What a [`FaultEvent`] does to its bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Divide the bus's bandwidth by `factor` (floored, min 1) from this
    /// epoch on.
    Degrade {
        /// The degraded bus.
        bus: NodeId,
        /// Integral capacity divisor; must be at least 2.
        factor: u64,
    },
    /// Take the bus fully down from this epoch on: zero bus tokens for
    /// the outage window of every subsequent epoch replay, until a
    /// [`FaultKind::Restore`].
    Down {
        /// The bus taken down.
        bus: NodeId,
    },
    /// Clear both degradation and outage of the bus from this epoch on.
    Restore {
        /// The restored bus.
        bus: NodeId,
    },
}

impl FaultKind {
    /// The bus this event acts on.
    pub fn bus(&self) -> NodeId {
        match *self {
            FaultKind::Degrade { bus, .. }
            | FaultKind::Down { bus }
            | FaultKind::Restore { bus } => bus,
        }
    }
}

/// One scheduled fault event: `kind` takes effect at the start of global
/// epoch `epoch` and persists until overridden by a later event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Global epoch index (across phases) the event takes effect at.
    pub epoch: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// Why a [`FaultPlan`] is rejected by [`FaultPlan::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlanError {
    /// An event targets a node that is not a bus.
    NotABus(NodeId),
    /// A `Down` event targets the root bus — that would strand the whole
    /// network, with no harbor left for self-healing.
    RootOutage(NodeId),
    /// A `Degrade` factor below 2 (1 is a no-op, 0 is meaningless).
    BadFactor {
        /// The targeted bus.
        bus: NodeId,
        /// The rejected factor.
        factor: u64,
    },
    /// Two events target the same bus in the same epoch (e.g. `Down`
    /// then `Degrade`). Within an epoch the overlay would apply them
    /// last-writer-wins by declaration order — silently, which is how a
    /// plan author ends up with a half-applied fault. Rejected instead:
    /// put the second event in a later epoch.
    ConflictingEvents {
        /// The doubly-targeted bus.
        bus: NodeId,
        /// The epoch carrying both events.
        epoch: usize,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FaultPlanError::NotABus(v) => write!(f, "fault event targets non-bus node {v}"),
            FaultPlanError::RootOutage(v) => {
                write!(f, "outage of root bus {v} would strand the whole network")
            }
            FaultPlanError::BadFactor { bus, factor } => {
                write!(f, "degrade factor {factor} on bus {bus} must be at least 2")
            }
            FaultPlanError::ConflictingEvents { bus, epoch } => {
                write!(f, "conflicting fault events on bus {bus} in epoch {epoch}")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// Default length (in simulator slots) of the outage window a down bus
/// imposes on each epoch replay.
pub const DEFAULT_OUTAGE_SLOTS: u64 = 64;

/// A deterministic fault-injection schedule — see the module docs for
/// semantics. The empty plan (the [`Default`]) is a guaranteed no-op:
/// every fault view it produces is pristine and the run is bit-for-bit
/// identical to one without any fault machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled events, in declaration order (ties within an epoch
    /// apply in this order).
    pub events: Vec<FaultEvent>,
    /// Outage window per epoch replay: a down bus grants zero tokens
    /// while `slot < outage_slots`, then reverts to its (possibly
    /// degraded) capacity so the epoch always drains.
    pub outage_slots: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan { events: Vec::new(), outage_slots: DEFAULT_OUTAGE_SLOTS }
    }
}

impl FaultPlan {
    /// The empty plan: no faults, ever.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether the plan schedules no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Replace the per-replay outage window length.
    pub fn with_outage_slots(mut self, outage_slots: u64) -> Self {
        self.outage_slots = outage_slots;
        self
    }

    /// Append a capacity degradation of `bus` by `factor` from `epoch` on.
    pub fn degrade(mut self, epoch: usize, bus: NodeId, factor: u64) -> Self {
        self.events.push(FaultEvent { epoch, kind: FaultKind::Degrade { bus, factor } });
        self
    }

    /// Append a full outage of `bus` from `epoch` on.
    pub fn down(mut self, epoch: usize, bus: NodeId) -> Self {
        self.events.push(FaultEvent { epoch, kind: FaultKind::Down { bus } });
        self
    }

    /// Append a restoration of `bus` (clearing outage and degradation)
    /// from `epoch` on.
    pub fn restore(mut self, epoch: usize, bus: NodeId) -> Self {
        self.events.push(FaultEvent { epoch, kind: FaultKind::Restore { bus } });
        self
    }

    /// The canonical one-outage plan: `bus` is down for the half-open
    /// epoch range `from..to`.
    pub fn single_outage(bus: NodeId, from: usize, to: usize) -> FaultPlan {
        FaultPlan::default().down(from, bus).restore(to, bus)
    }

    /// A seeded random plan for a run of `n_epochs` epochs: up to two
    /// distinct non-root buses each get either a short full outage or a
    /// degradation window, never starting at epoch 0 (so a pre-fault
    /// congestion baseline always exists). Deterministic in `(net, seed)`.
    pub fn seeded(net: &Network, seed: u64, n_epochs: usize) -> FaultPlan {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x8f1e_9a44_c3d7_25b1);
        let buses: Vec<NodeId> =
            net.nodes().filter(|&v| net.is_bus(v) && v != net.root()).collect();
        let mut plan = FaultPlan::default();
        if buses.is_empty() || n_epochs < 2 {
            return plan;
        }
        let n_faults = if buses.len() > 1 && rng.gen_bool(0.5) { 2 } else { 1 };
        let mut picked: Vec<NodeId> = Vec::new();
        while picked.len() < n_faults {
            let bus = buses[rng.gen_range(0..buses.len())];
            if !picked.contains(&bus) {
                picked.push(bus);
            }
        }
        for bus in picked {
            let from = rng.gen_range(1..n_epochs);
            let to = (from + rng.gen_range(1..=2)).min(n_epochs);
            plan = if rng.gen_bool(0.5) {
                plan.down(from, bus).restore(to, bus)
            } else {
                plan.degrade(from, bus, rng.gen_range(2..=6)).restore(to, bus)
            };
        }
        plan
    }

    /// Check the plan against `net`: every event must target a bus,
    /// `Down` must not target the root, degrade factors must be at
    /// least 2, and no two events may target the same bus in the same
    /// epoch (within-epoch order would otherwise resolve them
    /// last-writer-wins, silently).
    ///
    /// # Errors
    ///
    /// The first violated [`FaultPlanError`], in declaration order.
    pub fn validate(&self, net: &Network) -> Result<(), FaultPlanError> {
        for (i, event) in self.events.iter().enumerate() {
            let bus = event.kind.bus();
            if !net.is_bus(bus) {
                return Err(FaultPlanError::NotABus(bus));
            }
            match event.kind {
                FaultKind::Down { bus } if bus == net.root() => {
                    return Err(FaultPlanError::RootOutage(bus));
                }
                FaultKind::Degrade { bus, factor } if factor < 2 => {
                    return Err(FaultPlanError::BadFactor { bus, factor });
                }
                _ => {}
            }
            if self.events[..i]
                .iter()
                .any(|prev| prev.epoch == event.epoch && prev.kind.bus() == bus)
            {
                return Err(FaultPlanError::ConflictingEvents { bus, epoch: event.epoch });
            }
        }
        Ok(())
    }

    /// The capacity overlay in force for epoch `epoch`: every event with
    /// `event.epoch <= epoch`, applied in epoch order (stable within an
    /// epoch).
    pub fn overlay_at(&self, net: &Network, epoch: usize) -> CapacityOverlay {
        let mut overlay =
            CapacityOverlay::pristine(net.n_nodes()).with_outage_slots(self.outage_slots);
        let mut idx: Vec<usize> =
            (0..self.events.len()).filter(|&i| self.events[i].epoch <= epoch).collect();
        idx.sort_by_key(|&i| self.events[i].epoch);
        for i in idx {
            match self.events[i].kind {
                FaultKind::Degrade { bus, factor } => overlay.degrade(bus, factor),
                FaultKind::Down { bus } => overlay.set_down(bus),
                FaultKind::Restore { bus } => overlay.restore(bus),
            }
        }
        overlay
    }

    /// The full per-epoch fault view: the overlay, the stranded set, the
    /// down/degraded counts and whether the down-set changed relative to
    /// the previous epoch (epoch 0 counts as changed iff something is
    /// already down — strategies use `changed` to trigger one-shot repair
    /// work).
    pub fn fault_view(&self, net: &Network, epoch: usize) -> FaultView {
        if self.is_empty() {
            return FaultView::pristine(net);
        }
        let overlay = self.overlay_at(net, epoch);
        let down = overlay.down_nodes();
        let changed = if epoch == 0 {
            !down.is_empty()
        } else {
            down != self.overlay_at(net, epoch - 1).down_nodes()
        };
        let stranded = overlay.stranded(net);
        let buses_degraded = net.nodes().filter(|&v| overlay.is_degraded(v)).count();
        FaultView { stranded, buses_down: down.len(), buses_degraded, changed, overlay }
    }
}

/// The fault state of one epoch, handed to every
/// [`crate::Strategy::begin_epoch`]: what capacity each bus has, which
/// subtrees are unreachable, and whether the outage set just changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultView {
    /// The per-bus capacity overlay the epoch replays under.
    pub overlay: CapacityOverlay,
    /// `stranded[v.index()]`: node `v` is down or lies strictly below a
    /// down bus — its copies cannot serve traffic from outside during the
    /// outage window. Downward-closed by construction, so the non-stranded
    /// part of any connected copy set stays connected.
    pub stranded: Vec<bool>,
    /// Buses fully down this epoch.
    pub buses_down: usize,
    /// Buses degraded (capacity divided) but not down.
    pub buses_degraded: usize,
    /// Whether the set of down buses differs from the previous epoch's —
    /// the one-shot trigger for outage-driven re-placement.
    pub changed: bool,
}

impl FaultView {
    /// The no-fault view of `net`: pristine overlay, nothing stranded.
    pub fn pristine(net: &Network) -> FaultView {
        FaultView {
            overlay: CapacityOverlay::pristine(net.n_nodes()),
            stranded: vec![false; net.n_nodes()],
            buses_down: 0,
            buses_degraded: 0,
            changed: false,
        }
    }

    /// Whether the view carries no fault at all (the legacy fast path:
    /// pristine views replay and normalize exactly like pre-fault code).
    pub fn is_pristine(&self) -> bool {
        self.buses_down == 0 && self.buses_degraded == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbn_topology::generators::{balanced, BandwidthProfile};

    #[test]
    fn outage_window_and_restore_are_half_open() {
        let net = balanced(2, 2, BandwidthProfile::Uniform);
        let bus = net.children(net.root())[0];
        let plan = FaultPlan::single_outage(bus, 1, 3).with_outage_slots(10);
        plan.validate(&net).unwrap();
        assert!(plan.fault_view(&net, 0).is_pristine());
        let v1 = plan.fault_view(&net, 1);
        assert_eq!(v1.buses_down, 1);
        assert!(v1.changed);
        assert!(v1.overlay.is_down(bus));
        assert_eq!(v1.overlay.outage_slots(), 10);
        // Children of the down bus are stranded, the sibling subtree is not.
        for &c in net.children(bus) {
            assert!(v1.stranded[c.index()]);
        }
        assert!(!v1.stranded[net.root().index()]);
        let v2 = plan.fault_view(&net, 2);
        assert_eq!(v2.buses_down, 1);
        assert!(!v2.changed, "outage persists without a change flag");
        let v3 = plan.fault_view(&net, 3);
        assert!(v3.is_pristine());
        assert!(v3.changed, "restoration changes the down-set");
    }

    #[test]
    fn validate_rejects_root_outage_and_bad_targets() {
        let net = balanced(2, 2, BandwidthProfile::Uniform);
        let root = net.root();
        let leaf = net.processors()[0];
        assert_eq!(
            FaultPlan::default().down(0, root).validate(&net),
            Err(FaultPlanError::RootOutage(root))
        );
        assert_eq!(
            FaultPlan::default().down(0, leaf).validate(&net),
            Err(FaultPlanError::NotABus(leaf))
        );
        let bus = net.children(root)[0];
        assert_eq!(
            FaultPlan::default().degrade(0, bus, 1).validate(&net),
            Err(FaultPlanError::BadFactor { bus, factor: 1 })
        );
        // Degrading the root is legal — capacity shrinks but stays positive.
        FaultPlan::default().degrade(0, root, 4).validate(&net).unwrap();
    }

    /// Satellite S1: duplicate/conflicting events on one bus+epoch are
    /// rejected instead of resolving last-writer-wins.
    #[test]
    fn validate_rejects_conflicting_events_on_one_bus_and_epoch() {
        let net = balanced(2, 2, BandwidthProfile::Uniform);
        let bus = net.children(net.root())[0];
        let other = net.children(net.root())[1];
        // Down then Degrade in the same epoch.
        assert_eq!(
            FaultPlan::default().down(2, bus).degrade(2, bus, 4).validate(&net),
            Err(FaultPlanError::ConflictingEvents { bus, epoch: 2 })
        );
        // Degrade then Down.
        assert_eq!(
            FaultPlan::default().degrade(1, bus, 2).down(1, bus).validate(&net),
            Err(FaultPlanError::ConflictingEvents { bus, epoch: 1 })
        );
        // Down then immediate Restore (a zero-length outage).
        assert_eq!(
            FaultPlan::default().down(3, bus).restore(3, bus).validate(&net),
            Err(FaultPlanError::ConflictingEvents { bus, epoch: 3 })
        );
        // Literal duplicates of the same event.
        assert_eq!(
            FaultPlan::default().degrade(0, bus, 2).degrade(0, bus, 2).validate(&net),
            Err(FaultPlanError::ConflictingEvents { bus, epoch: 0 })
        );
        // Same epoch, different buses: fine.
        FaultPlan::default().down(2, bus).degrade(2, other, 4).validate(&net).unwrap();
        // Same bus, different epochs: fine.
        FaultPlan::default()
            .down(2, bus)
            .degrade(3, bus, 4)
            .restore(5, bus)
            .validate(&net)
            .unwrap();
    }

    #[test]
    fn seeded_plans_are_deterministic_and_valid() {
        let net = balanced(3, 2, BandwidthProfile::Uniform);
        for seed in 0..20 {
            let a = FaultPlan::seeded(&net, seed, 12);
            let b = FaultPlan::seeded(&net, seed, 12);
            assert_eq!(a, b);
            a.validate(&net).unwrap();
            assert!(!a.is_empty());
            assert!(a.events.iter().all(|e| e.epoch >= 1), "baseline epoch must exist");
        }
        assert_ne!(FaultPlan::seeded(&net, 1, 12), FaultPlan::seeded(&net, 2, 12));
    }

    #[test]
    fn empty_plan_views_are_pristine_every_epoch() {
        let net = balanced(2, 2, BandwidthProfile::Uniform);
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        for e in 0..8 {
            let view = plan.fault_view(&net, e);
            assert!(view.is_pristine());
            assert!(!view.changed);
            assert!(view.overlay.is_pristine());
        }
    }
}
