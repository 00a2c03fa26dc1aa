//! Declarative scenario specifications.

use std::fmt;

use crate::faults::FaultPlan;
use hbn_sim::SimConfig;
use hbn_topology::generators::{balanced, caterpillar, star, BandwidthProfile};
use hbn_topology::sci::ring_of_rings;
use hbn_topology::{Bandwidth, CapacityProfile, Network};
use hbn_workload::PhaseSchedule;

/// A topology family a scenario instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyFamily {
    /// Uniform-bandwidth balanced tree of the given branching and height.
    Balanced {
        /// Children per bus.
        branching: usize,
        /// Tree height (processors at the leaves).
        height: u32,
    },
    /// Balanced tree with fat-tree bandwidths (doubling towards the root,
    /// capped).
    FatBalanced {
        /// Children per bus.
        branching: usize,
        /// Tree height.
        height: u32,
    },
    /// A single bus with all processors attached.
    Star {
        /// Number of processors.
        processors: usize,
        /// Bandwidth of the single bus.
        bus_bandwidth: Bandwidth,
    },
    /// A caterpillar: a spine of buses, each carrying `legs` processors.
    Caterpillar {
        /// Buses along the spine.
        spine: usize,
        /// Processors per spine bus.
        legs: usize,
    },
    /// An SCI cluster: a ring of rings ([`hbn_topology::sci`]) reduced
    /// to its bus-tree form via the paper's Figure 1 → Figure 2
    /// construction — the second real substrate beyond synthetic trees.
    SciCluster {
        /// Child ringlets hanging off the top-level ring (≥ 2).
        rings: usize,
        /// Processors per child ringlet (≥ 1).
        procs_per_ring: usize,
        /// Bandwidth of each ringlet (becomes the child bus bandwidth).
        ring_bandwidth: Bandwidth,
        /// Bandwidth of the ring switches (becomes the switch-edge
        /// bandwidth of the reduction).
        switch_bandwidth: Bandwidth,
    },
}

impl TopologyFamily {
    /// Instantiate the network.
    pub fn build(&self) -> Network {
        match *self {
            TopologyFamily::Balanced { branching, height } => {
                balanced(branching, height, BandwidthProfile::Uniform)
            }
            TopologyFamily::FatBalanced { branching, height } => {
                balanced(branching, height, BandwidthProfile::FatTree { base: 2, cap: 32 })
            }
            TopologyFamily::Star { processors, bus_bandwidth } => star(processors, bus_bandwidth),
            TopologyFamily::Caterpillar { spine, legs } => {
                caterpillar(spine, legs, BandwidthProfile::Uniform)
            }
            TopologyFamily::SciCluster {
                rings,
                procs_per_ring,
                ring_bandwidth,
                switch_bandwidth,
            } => {
                ring_of_rings(rings, procs_per_ring, ring_bandwidth, switch_bandwidth)
                    .to_bus_network()
                    .expect("ring_of_rings always reduces to a valid bus network")
                    .network
            }
        }
    }
}

/// The compact label of a family, e.g. `balanced(3,2)`. Reports,
/// benchmark cells and spec fingerprints are all labelled through this
/// one impl, so they cannot drift from the spec.
impl fmt::Display for TopologyFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TopologyFamily::Balanced { branching, height } => {
                write!(f, "balanced({branching},{height})")
            }
            TopologyFamily::FatBalanced { branching, height } => {
                write!(f, "fat-balanced({branching},{height})")
            }
            TopologyFamily::Star { processors, bus_bandwidth } => {
                write!(f, "star({processors},b={bus_bandwidth})")
            }
            TopologyFamily::Caterpillar { spine, legs } => {
                write!(f, "caterpillar({spine},{legs})")
            }
            TopologyFamily::SciCluster {
                rings,
                procs_per_ring,
                ring_bandwidth,
                switch_bandwidth,
            } => {
                write!(f, "sci({rings}x{procs_per_ring},r={ring_bandwidth},s={switch_bandwidth})")
            }
        }
    }
}

/// Which simulator kernel replays the epochs.
///
/// The two slot kernels replay every epoch exactly; the *estimator*
/// prices epochs from their congestion in `O(|V|)` instead, recording
/// inclusive lower/upper makespan bounds
/// ([`crate::EpochSummary::estimate`]) and replaying a sampled subset
/// exactly to validate that the bounds bracket the true makespan:
///
/// ```
/// use hbn_scenario::{run_scenario, ReplayKernel, ScenarioSpec, TopologyFamily};
/// use hbn_workload::phases::full_tour;
///
/// let topology = TopologyFamily::Balanced { branching: 3, height: 2 };
/// let mut spec = ScenarioSpec::new("estimated", topology, full_tour(6, 80), 1, 3);
/// // Bound every epoch; replay every 2nd epoch exactly as a cross-check.
/// spec.exec.replay = ReplayKernel::Estimate { sample_every: 2 };
/// let report = run_scenario(&spec);
/// assert_eq!(report.estimated_epochs, report.epochs.len());
/// // Every sampled epoch's exact makespan fell inside its bounds.
/// assert_eq!(report.estimate_violations, 0);
/// for epoch in &report.epochs {
///     let est = epoch.estimate.expect("estimator prices every epoch");
///     assert!(est.lower <= est.upper);
///     if est.sampled_exact {
///         assert!(est.lower <= epoch.makespan && epoch.makespan <= est.upper);
///     }
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplayKernel {
    /// The exact event-driven kernel on a reused
    /// [`hbn_sim::SimWorkspace`] (default).
    #[default]
    Workspace,
    /// The naive [`hbn_sim::simulate_reference`] oracle — used by the
    /// differential suites to pin the engine's replay summaries.
    Reference,
    /// The congestion-bound estimator ([`hbn_sim::estimate_makespan`]):
    /// every epoch gets lower/upper makespan bounds in `O(|V|)`, and
    /// epochs with `epoch_idx % sample_every == 0` are *also* replayed
    /// exactly on the workspace kernel so the bracket property is
    /// validated in-run ([`crate::ScenarioReport::estimate_violations`]).
    Estimate {
        /// Exact-replay sampling period; `0` disables sampling (bounds
        /// only — the unsampled epochs report a zero makespan).
        sample_every: usize,
    },
}

/// The kernel's label, recorded in benchmark cells and hashed into every
/// spec fingerprint: rewording one is a durable-format change.
impl fmt::Display for ReplayKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ReplayKernel::Workspace => f.write_str("workspace"),
            ReplayKernel::Reference => f.write_str("reference"),
            ReplayKernel::Estimate { sample_every: 0 } => f.write_str("estimate(unsampled)"),
            ReplayKernel::Estimate { sample_every } => write!(f, "estimate({sample_every})"),
        }
    }
}

/// How a scenario *executes* — the replay kernel, the replication
/// charge unit and the simulator, as opposed to *what* runs (topology,
/// schedule, strategy). One `ExecutionConfig` is threaded by reference
/// through the session driver and into strategy constructors.
///
/// There is no serve-kernel choice: every dynamic tree serves on the one
/// production kernel, [`hbn_dynamic::DynamicTree::serve`]. Its naive
/// oracle, [`hbn_dynamic::ReferenceTree`], is driven by the test suites
/// directly.
///
/// ```
/// use hbn_scenario::{ExecutionConfig, ReplayKernel};
///
/// let exec = ExecutionConfig { threshold: 3, ..ExecutionConfig::default() };
/// assert_eq!(exec.replay, ReplayKernel::Workspace);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ExecutionConfig {
    /// Replication threshold `D` of the online strategy (object size in
    /// requests). Static-model strategies charge migrated copies at the
    /// same `D` per edge crossed.
    pub threshold: u64,
    /// Which simulator kernel replays the epochs.
    pub replay: ReplayKernel,
    /// Simulator configuration for the replays.
    pub sim: SimConfig,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        ExecutionConfig { threshold: 1, replay: ReplayKernel::default(), sim: SimConfig::default() }
    }
}

/// Which *built-in* data-management strategy serves the scenario's
/// request stream: the paper's *static* extended-nibble pipeline
/// (re-placed periodically, or placed once and frozen), the *dynamic*
/// read-replicate / write-collapse strategy, and two compositions of the
/// two (a hybrid and a threshold switch).
///
/// [`StrategyKind::build`] turns a kind into its policy behind the open
/// [`crate::Strategy`] trait; a policy of your own implements the trait
/// and runs through [`crate::Session::with_strategy`] or
/// [`crate::run_scenario_with`]. The one built-in form that is not a kind
/// is a periodic policy whose first firing is pinned, built by
/// [`crate::periodic_static_from`] for mid-run swaps.
///
/// All strategies charge traffic to the same per-edge load model, so
/// their online congestion, migration cost and competitive ratio
/// (against the hindsight nibble placement) are directly comparable.
/// Epoch indices below are global across the schedule's phases.
///
/// ```
/// use hbn_scenario::{run_scenario, ScenarioSpec, StrategyKind, TopologyFamily};
/// use hbn_workload::phases::full_tour;
///
/// // The same scenario (a small balanced topology, six phases of 60
/// // requests) served under three of the built-in strategy kinds.
/// let topology = TopologyFamily::Balanced { branching: 2, height: 2 };
/// let mut spec = ScenarioSpec::new("strategies", topology, full_tour(6, 60), 2, 11);
/// spec.epoch_requests = 30; // two replay epochs per phase
///
/// for strategy in [
///     StrategyKind::Dynamic,
///     StrategyKind::PeriodicStatic { replace_every_epochs: 3 },
///     StrategyKind::Hybrid { reseed_every_epochs: 3 },
/// ] {
///     spec.strategy = strategy;
///     let report = run_scenario(&spec);
///     // Every strategy serves the full stream and is replayed epoch by
///     // epoch on the simulator.
///     assert_eq!(report.traffic.requests, 360);
///     assert_eq!(report.strategy, strategy.to_string());
///     assert!(report.competitive_ratio.is_some());
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum StrategyKind {
    /// The online read-replicate / write-collapse strategy (default):
    /// every request is served by [`hbn_dynamic::DynamicTree`], migration
    /// cost is the `D`-sized replications the strategy performs.
    #[default]
    Dynamic,
    /// Periodic static re-optimization: the batched extended-nibble
    /// kernel ([`hbn_core::PlacementKernel`]) recomputes the placement
    /// from the *observed* (cumulative) access matrix at epoch
    /// boundaries, and the placement serves each epoch's traffic under
    /// the static load model.
    PeriodicStatic {
        /// Re-optimize at the start of every epoch `e > 0` with
        /// `e % replace_every_epochs == 0`; each re-optimization routes
        /// the copy-set delta (new copies not already held) from the
        /// nearest old copy, charging `D` per edge crossed — the same
        /// unit as a dynamic replication, which moves a copy one hop for
        /// `D`. `0` means ∞ — no scheduled re-optimization: on a
        /// fault-free run the bootstrap placement computed on the first
        /// epoch is kept for the whole run (a single up-front static
        /// placement). Whatever the period, an epoch whose set of down
        /// buses changed while a bus is down re-places around the outage.
        replace_every_epochs: usize,
    },
    /// The dynamic strategy, periodically re-seeded by the static
    /// pipeline: at re-seed boundaries its step 1, the nibble strategy,
    /// runs on the observed matrix and each object's *nibble* copy set
    /// (connected by Theorem 3.1) replaces the dynamic tree's replica set
    /// ([`hbn_dynamic::DynamicTree::seed_replicas`]), charged like a
    /// static migration; between boundaries requests are served online as
    /// in [`StrategyKind::Dynamic`].
    Hybrid {
        /// Re-seed at the start of every epoch `e > 0` with
        /// `e % reseed_every_epochs == 0`; `0` means seed exactly once,
        /// at the start of epoch 1 (after one epoch of observation).
        reseed_every_epochs: usize,
    },
    /// The paper's pure static model: place once (the extended-nibble
    /// placement of the first epoch's traffic) and never re-optimize.
    /// Migration traffic is identically zero, so any congestion it saves
    /// over [`StrategyKind::PeriodicStatic`] is placement quality and any
    /// it loses is staleness. On fault-free runs it equals
    /// `periodic-static(inf)`; under an outage it only heals, where a
    /// changed outage set makes a periodic policy re-place.
    FrozenStatic,
    /// Serve as [`StrategyKind::Dynamic`] while the workload is
    /// read-dominated, and switch once to a static placement when the
    /// *observed* write fraction crosses a bound: writes are what make
    /// replication expensive. The switch fires at the start of the first
    /// epoch `e ≥ min_epochs` (`e > 0`) whose write fraction over
    /// everything served so far is at least `write_bound`: the batch
    /// kernel re-places from the observed aggregate, clamped to the live
    /// network, and the copy-set delta is charged from the tree's
    /// replica sets at `D` per edge crossed. Afterwards the policy is a
    /// frozen static placement. `write_bound = 0.0` with `min_epochs = k`
    /// forces the switch at exactly epoch `k`.
    ThresholdSwitch {
        /// The observed write fraction that triggers the switch.
        write_bound: f64,
        /// The earliest epoch the switch may fire at.
        min_epochs: usize,
    },
}

/// The compact label of a kind, e.g. `dynamic`, `periodic-static(4)`,
/// `periodic-static(inf)`, `hybrid(once)`, `frozen-static` or
/// `threshold-switch(w>=0.30,after=2)`, recorded in benchmark cells and
/// reports.
impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            StrategyKind::Dynamic => f.write_str("dynamic"),
            StrategyKind::PeriodicStatic { replace_every_epochs: 0 } => {
                f.write_str("periodic-static(inf)")
            }
            StrategyKind::PeriodicStatic { replace_every_epochs } => {
                write!(f, "periodic-static({replace_every_epochs})")
            }
            StrategyKind::Hybrid { reseed_every_epochs: 0 } => f.write_str("hybrid(once)"),
            StrategyKind::Hybrid { reseed_every_epochs } => {
                write!(f, "hybrid({reseed_every_epochs})")
            }
            StrategyKind::FrozenStatic => f.write_str("frozen-static"),
            StrategyKind::ThresholdSwitch { write_bound, min_epochs } => {
                write!(f, "threshold-switch(w>={write_bound:.2},after={min_epochs})")
            }
        }
    }
}

/// A complete scenario: topology, phase-scheduled workload, strategy
/// selection and execution configuration.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name (reported in summaries and benchmark documents).
    pub name: String,
    /// The topology family to instantiate.
    pub topology: TopologyFamily,
    /// Static heterogeneous per-bus capacities, applied once when the
    /// network is built ([`ScenarioSpec::build_network`]). Composes
    /// with — does not replace — the fault-time
    /// [`hbn_topology::CapacityOverlay`]: overlays divide the
    /// *profiled* bandwidth and restore back to it.
    pub capacity: CapacityProfile,
    /// The phase schedule driving the request stream.
    pub schedule: PhaseSchedule,
    /// Which built-in data-management strategy serves the stream (the
    /// open-ended alternative is [`crate::Session::with_strategy`]).
    pub strategy: StrategyKind,
    /// Seed of the request stream; a multi-seed experiment runs one copy
    /// of the spec per seed, with this field replaced.
    pub seed: u64,
    /// Requests per replay epoch; `0` replays each phase as one epoch.
    pub epoch_requests: usize,
    /// How the scenario executes: kernels, the `D` threshold and the
    /// simulator configuration.
    pub exec: ExecutionConfig,
    /// Deterministic bus-outage / degradation schedule (empty = no
    /// faults, bit-for-bit the pre-fault engine).
    pub faults: FaultPlan,
}

impl ScenarioSpec {
    /// A scenario with every other field at its default: the dynamic
    /// strategy, uniform capacities, one replay epoch per phase, the
    /// workspace replay kernel, the default simulator configuration and no
    /// faults. Set any other field directly, or with struct update:
    ///
    /// ```
    /// use hbn_scenario::{ReplayKernel, ScenarioSpec, StrategyKind, TopologyFamily};
    /// use hbn_workload::phases::full_tour;
    ///
    /// let topology = TopologyFamily::Balanced { branching: 3, height: 2 };
    /// let mut spec = ScenarioSpec {
    ///     strategy: StrategyKind::Hybrid { reseed_every_epochs: 4 },
    ///     epoch_requests: 50,
    ///     ..ScenarioSpec::new("tour", topology, full_tour(8, 100), 2, 7)
    /// };
    /// spec.exec.replay = ReplayKernel::Estimate { sample_every: 2 };
    /// assert_eq!(spec.exec.threshold, 2);
    /// assert_eq!(spec.exec.replay.to_string(), "estimate(2)");
    /// ```
    pub fn new(
        name: impl Into<String>,
        topology: TopologyFamily,
        schedule: PhaseSchedule,
        threshold: u64,
        seed: u64,
    ) -> Self {
        ScenarioSpec {
            name: name.into(),
            topology,
            capacity: CapacityProfile::Uniform,
            schedule,
            strategy: StrategyKind::default(),
            seed,
            epoch_requests: 0,
            exec: ExecutionConfig { threshold, ..ExecutionConfig::default() },
            faults: FaultPlan::none(),
        }
    }

    /// Instantiate the network this spec runs on: the topology family's
    /// generator output with the [`CapacityProfile`] applied. Every
    /// consumer of the spec (session, engine, checkpoint restore) must
    /// build through this single path so profiled capacities cannot be
    /// silently dropped.
    pub fn build_network(&self) -> Network {
        let mut net = self.topology.build();
        self.capacity.apply(&mut net);
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbn_workload::phases::full_tour;

    #[test]
    fn families_build_and_label() {
        for family in [
            TopologyFamily::Balanced { branching: 3, height: 2 },
            TopologyFamily::FatBalanced { branching: 3, height: 2 },
            TopologyFamily::Star { processors: 6, bus_bandwidth: 4 },
            TopologyFamily::Caterpillar { spine: 3, legs: 2 },
            TopologyFamily::SciCluster {
                rings: 3,
                procs_per_ring: 2,
                ring_bandwidth: 16,
                switch_bandwidth: 4,
            },
        ] {
            let net = family.build();
            net.check_invariants().unwrap();
            assert!(net.n_processors() >= 2, "{family}");
        }
        let sci = TopologyFamily::SciCluster {
            rings: 3,
            procs_per_ring: 2,
            ring_bandwidth: 16,
            switch_bandwidth: 4,
        };
        assert_eq!(sci.to_string(), "sci(3x2,r=16,s=4)");
        assert_eq!(sci.build().n_processors(), 6);
    }

    #[test]
    fn build_network_applies_the_capacity_profile() {
        let topology = TopologyFamily::Balanced { branching: 2, height: 3 };
        let base = ScenarioSpec::new("p", topology, full_tour(4, 40), 1, 0);
        assert_eq!(base.capacity, CapacityProfile::Uniform);
        let fat = ScenarioSpec { capacity: CapacityProfile::FatRoot { boost: 2 }, ..base.clone() };
        let uniform_net = base.build_network();
        let fat_net = fat.build_network();
        let root = fat_net.root();
        assert!(fat_net.node_bandwidth(root) > uniform_net.node_bandwidth(root));
        // Same structure, different capacities.
        assert_eq!(fat_net.n_nodes(), uniform_net.n_nodes());
        fat_net.check_invariants().unwrap();
    }

    #[test]
    fn new_fills_every_default() {
        let spec = ScenarioSpec::new(
            "x",
            TopologyFamily::Star { processors: 4, bus_bandwidth: 2 },
            full_tour(4, 40),
            3,
            9,
        );
        assert_eq!((spec.name.as_str(), spec.seed, spec.epoch_requests), ("x", 9, 0));
        assert_eq!(spec.strategy, StrategyKind::Dynamic);
        assert_eq!(spec.capacity, CapacityProfile::Uniform);
        assert!(spec.faults.is_empty());
        let exec = ExecutionConfig { threshold: 3, ..ExecutionConfig::default() };
        assert_eq!(format!("{:?}", spec.exec), format!("{exec:?}"));
        assert_eq!(format!("{}@{}", spec.topology, spec.strategy), "star(4,b=2)@dynamic");
    }

    /// The replay kernels' labels, which spec fingerprints hash: a change
    /// here moves the fingerprint of every spec that runs that kernel.
    #[test]
    fn replay_kernel_display_is_pinned() {
        for (replay, label) in [
            (ReplayKernel::Workspace, "workspace"),
            (ReplayKernel::Reference, "reference"),
            (ReplayKernel::Estimate { sample_every: 4 }, "estimate(4)"),
            (ReplayKernel::Estimate { sample_every: 0 }, "estimate(unsampled)"),
        ] {
            assert_eq!(replay.to_string(), label);
        }
    }
}
