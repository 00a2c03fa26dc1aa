//! Report types and batch entry points of the scenario engine.
//!
//! One scenario run drives the phase-scheduled request stream through a
//! data-management [`crate::Strategy`] (built-ins via
//! [`crate::StrategyKind`], arbitrary policies via
//! [`crate::Session::with_strategy`]). At every *epoch* boundary (a
//! phase, or a fixed request budget within a phase) the driver
//!
//! 1. snapshots the strategy's copy sets as a placement with
//!    nearest-copy assignment,
//! 2. replays the epoch's own requests through the packet simulator under
//!    that placement (the event-driven workspace kernel by default, the
//!    naive reference oracle for differential pinning), and
//! 3. records an [`EpochSummary`]: the epoch's [`TrafficCounters`]
//!    (requests and migration, with `migration_traffic =
//!    replications × D` for every strategy), congestion of the online
//!    traffic the epoch added, and the replay's makespan/latency.
//!
//! Per-phase aggregation and the hindsight (static nibble) comparison
//! give the [`ScenarioReport`]. The batch functions here are thin
//! wrappers over [`crate::Session`] — `run_scenario` is `Session::new`
//! stepped to exhaustion, pinned bit-for-bit to the pre-session engine
//! by the differential suite. A run executes on the calling thread and
//! starts none; callers that want several seeds at once run one scenario
//! per thread. All per-epoch bookkeeping runs through preallocated delta
//! accumulators instead of cloning the strategy's cumulative load map
//! every epoch.

use crate::session::Session;
use crate::spec::{ExecutionConfig, ScenarioSpec};
use crate::strategy::Strategy;
use hbn_dynamic::DynamicStats;
use hbn_load::LoadRatio;
use hbn_sim::SimError;
use hbn_topology::Network;

/// The request/migration counters every reporting granularity shares —
/// epoch, phase and whole run carry one `TrafficCounters` instead of
/// eight duplicated fields, and aggregation is `+=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficCounters {
    /// Requests served.
    pub requests: u64,
    /// Reads among them.
    pub reads: u64,
    /// Writes among them.
    pub writes: u64,
    /// `D`-sized data movements: dynamic replication events, or (static
    /// / hybrid boundaries) migration edge transfers — one copy moved
    /// one hop either way.
    pub replications: u64,
    /// Write-collapse events (dynamic), or copies dropped by a
    /// re-optimization / re-seed (static, hybrid).
    pub collapses: u64,
    /// Migration traffic charged to the strategy's loads
    /// (`replications × D`, exactly — same unit for every strategy).
    pub migration_traffic: u64,
    /// The subset of `replications` performed to heal copy sets around a
    /// bus outage (strategy self-healing at fault boundaries).
    pub repairs: u64,
    /// Repair traffic charged to the strategy's loads (`repairs × D` —
    /// repair fetches are charged exactly like migration).
    pub repair_traffic: u64,
}

impl std::ops::AddAssign for TrafficCounters {
    fn add_assign(&mut self, rhs: TrafficCounters) {
        self.requests += rhs.requests;
        self.reads += rhs.reads;
        self.writes += rhs.writes;
        self.replications += rhs.replications;
        self.collapses += rhs.collapses;
        self.migration_traffic += rhs.migration_traffic;
        self.repairs += rhs.repairs;
        self.repair_traffic += rhs.repair_traffic;
    }
}

/// Estimator output attached to an epoch under
/// [`crate::ReplayKernel::Estimate`]: inclusive makespan bounds from the
/// epoch's congestion ([`hbn_sim::estimate`]), computed without
/// running the slot loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochEstimate {
    /// Congestion lower bound: no schedule of the epoch's traffic
    /// finishes earlier.
    pub lower: u64,
    /// Delay-attribution upper bound: the slot kernel finishes no later.
    pub upper: u64,
    /// Whether this epoch was *also* replayed exactly for validation —
    /// then [`EpochSummary::makespan`] carries the exact value and the
    /// report checks `lower ≤ makespan ≤ upper`.
    pub sampled_exact: bool,
}

impl EpochEstimate {
    /// Upper-to-lower gap ratio (`1.0` = tight, and when `lower` is 0).
    pub fn gap_ratio(&self) -> f64 {
        if self.lower == 0 {
            1.0
        } else {
            self.upper as f64 / self.lower as f64
        }
    }
}

/// Metrics of one replay epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochSummary {
    /// Index of the phase this epoch belongs to
    /// (`schedule.phases.len()` for epochs pushed via
    /// [`crate::Session::push_epoch`]).
    pub phase: usize,
    /// Requests served and migration performed in the epoch.
    pub traffic: TrafficCounters,
    /// Congestion of the online traffic added during this epoch alone.
    pub online_congestion: LoadRatio,
    /// Congestion of the epoch snapshot placement serving the epoch's
    /// frequency matrix.
    pub placement_congestion: LoadRatio,
    /// Simulated makespan of the epoch replay, in slots (`0` on
    /// estimator epochs that were not sampled for exact replay — see
    /// [`EpochSummary::estimate`]).
    pub makespan: u64,
    /// Mean request latency of the replay, in slots.
    pub mean_latency: f64,
    /// 99th-percentile request latency of the replay.
    pub p99_latency: u64,
    /// Makespan bounds from the congestion-bound estimator — `Some` on
    /// every epoch run under [`crate::ReplayKernel::Estimate`], `None`
    /// under the exact kernels.
    pub estimate: Option<EpochEstimate>,
    /// Live objects at the epoch boundary.
    pub live_objects: usize,
    /// Buses fully down during this epoch (from the spec's
    /// [`crate::FaultPlan`]).
    pub buses_down: usize,
    /// Buses degraded (capacity divided) but not down during this epoch.
    pub buses_degraded: usize,
}

/// Per-phase aggregation of the phase's epochs.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSummary {
    /// Phase label from the schedule.
    pub label: String,
    /// Replay epochs the phase was split into.
    pub epochs: usize,
    /// Requests served and migration performed across the phase.
    pub traffic: TrafficCounters,
    /// Congestion of the online traffic added during the phase.
    pub online_congestion: LoadRatio,
    /// Summed epoch makespans (total simulated slots for the phase).
    pub makespan: u64,
    /// Request-weighted mean replay latency.
    pub mean_latency: f64,
    /// Worst epoch p99 latency.
    pub p99_latency: u64,
}

/// Per-tenant share of a multi-tenant run, attributed by the object
/// partition `object_id % tenants` — the same key the
/// [`hbn_workload::PhaseKind::Interference`] generator uses to assign
/// objects to tenants. Because [`hbn_load::LoadMap`] aggregation is
/// linear across disjoint object sets, the per-tenant placement loads
/// sum exactly to the run's total placement loads, so attribution
/// neither loses nor double-counts congestion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSummary {
    /// Tenant index in `0..schedule.tenants()`.
    pub tenant: usize,
    /// Requests whose object fell in this tenant's partition.
    pub requests: u64,
    /// Congestion of this tenant's share of the cumulative placement
    /// loads — what the tenant alone would induce on the shared buses.
    pub placement_congestion: LoadRatio,
}

/// The outcome of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Topology label (the [`crate::TopologyFamily`] `Display` form).
    pub topology: String,
    /// Label of the data-management strategy that served the run
    /// ([`Strategy::label`]).
    pub strategy: String,
    /// Stream seed of this run.
    pub seed: u64,
    /// Per-phase summaries, in schedule order.
    pub phases: Vec<PhaseSummary>,
    /// All epoch summaries, in replay order.
    pub epochs: Vec<EpochSummary>,
    /// Whole-run request and migration totals.
    pub traffic: TrafficCounters,
    /// Total simulated slots across all epoch replays.
    pub total_makespan: u64,
    /// Congestion of the full online run (service + broadcast +
    /// replication traffic).
    pub online_congestion: LoadRatio,
    /// Congestion of the hindsight static nibble placement on the
    /// aggregated frequency matrix.
    pub hindsight_congestion: LoadRatio,
    /// `online / hindsight` congestion ratio (`None` when hindsight is 0).
    pub competitive_ratio: Option<f64>,
    /// Epochs from the end of the last faulty epoch until the per-epoch
    /// online congestion first returns to its pre-fault peak — the
    /// recovery time of the run. `None` when the run had no faults, the
    /// first fault hit at epoch 0 (no baseline), or congestion never
    /// returned to baseline before the run ended.
    pub recovery_epochs: Option<u64>,
    /// Epochs priced by the congestion-bound estimator
    /// ([`crate::ReplayKernel::Estimate`]); `0` under the exact kernels.
    pub estimated_epochs: usize,
    /// Mean upper-to-lower bound gap ratio over the estimated epochs
    /// (`None` when none were estimated). `1.0` means the bounds pinch
    /// the makespan exactly; the tightness-regression suite keeps this
    /// from drifting upward.
    pub estimate_gap: Option<f64>,
    /// Exact-sampled estimator epochs whose replayed makespan fell
    /// *outside* the bounds — always `0` unless the estimator is broken
    /// (the bracket suite and the in-run validation both pin this).
    pub estimate_violations: usize,
    /// Per-tenant congestion attribution, indexed by tenant. Empty for
    /// single-tenant schedules ([`hbn_workload::PhaseSchedule::tenants`]
    /// = 1); populated when the schedule declares an interference phase.
    pub tenants: Vec<TenantSummary>,
    /// Strategy event counters over the whole run (merged across
    /// [`crate::Session::swap_strategy`] retirements).
    pub stats: DynamicStats,
}

/// Recovery time from the epoch record: the distance (in epochs) from
/// the last faulty epoch to the first later epoch whose online
/// congestion is back at or below the pre-fault peak.
pub(crate) fn recovery_epochs(epochs: &[EpochSummary]) -> Option<u64> {
    let faulty = |e: &EpochSummary| e.buses_down + e.buses_degraded > 0;
    let first = epochs.iter().position(faulty)?;
    if first == 0 {
        return None; // no pre-fault epochs to take a baseline from
    }
    let baseline = epochs[..first].iter().map(|e| e.online_congestion).max()?;
    let last = epochs.iter().rposition(faulty)?;
    epochs[last + 1..]
        .iter()
        .position(|e| e.online_congestion <= baseline)
        .map(|offset| offset as u64 + 1)
}

/// Aggregate a phase's epochs, in run order, into its summary.
pub(crate) fn summarise_phase(
    label: String,
    epochs: &[&EpochSummary],
    online_congestion: LoadRatio,
) -> PhaseSummary {
    let mut traffic = TrafficCounters::default();
    for e in epochs {
        traffic += e.traffic;
    }
    let latency_weighted: f64 =
        epochs.iter().map(|e| e.mean_latency * e.traffic.requests as f64).sum::<f64>();
    PhaseSummary {
        label,
        epochs: epochs.len(),
        online_congestion,
        makespan: epochs.iter().map(|e| e.makespan).sum(),
        mean_latency: if traffic.requests > 0 {
            latency_weighted / traffic.requests as f64
        } else {
            0.0
        },
        p99_latency: epochs.iter().map(|e| e.p99_latency).max().unwrap_or(0),
        traffic,
    }
}

/// Run one scenario to completion. [`Session`] is the fallible form:
/// step it to surface replay errors instead of panicking.
///
/// # Panics
///
/// Panics if an epoch replay fails — with a valid spec this can only be
/// [`SimError::SlotBudgetExceeded`] from an undersized
/// [`hbn_sim::SimConfig::max_slots`].
pub fn run_scenario(spec: &ScenarioSpec) -> ScenarioReport {
    run_scenario_with(spec, |net, exec, max_objects| spec.strategy.build(net, exec, max_objects))
}

/// Run one scenario to completion under a caller-built [`Strategy`] —
/// the open-ended form of [`run_scenario`]. The factory receives the
/// instantiated network, the execution config and the object-count
/// bound; `spec.strategy` is ignored.
///
/// # Panics
///
/// As [`run_scenario`].
pub fn run_scenario_with(
    spec: &ScenarioSpec,
    factory: impl FnOnce(&Network, &ExecutionConfig, usize) -> Box<dyn Strategy>,
) -> ScenarioReport {
    let mut session = Session::with_strategy(spec, factory);
    let failed = |e: SimError| panic!("scenario {:?} failed: {e}", spec.name);
    while session.step_epoch().unwrap_or_else(failed).is_some() {}
    session.into_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TopologyFamily;
    use hbn_workload::phases::full_tour;

    #[test]
    fn phase_summaries_partition_the_run() {
        let topology = TopologyFamily::Balanced { branching: 3, height: 2 };
        let mut spec = ScenarioSpec::new("partition", topology, full_tour(6, 90), 1, 5);
        spec.epoch_requests = 40; // 90 → epochs of 40/40/10 per phase
        let report = run_scenario(&spec);
        assert_eq!(report.phases.len(), spec.schedule.phases.len());
        for (phase, summary) in spec.schedule.phases.iter().zip(&report.phases) {
            assert_eq!(summary.label, phase.label);
            assert_eq!(summary.traffic.requests as usize, phase.requests);
            assert_eq!(summary.epochs, 3);
            assert_eq!(summary.traffic.reads + summary.traffic.writes, summary.traffic.requests);
        }
        assert_eq!(report.traffic.requests as usize, spec.schedule.total_requests());
        let epoch_total: u64 = report.epochs.iter().map(|e| e.traffic.requests).sum();
        assert_eq!(epoch_total, report.traffic.requests);
        // Migration cost is replications × D (here D = 1), and the
        // report-level counters are the phase-level sums.
        let migration: u64 = report.phases.iter().map(|p| p.traffic.migration_traffic).sum();
        assert_eq!(migration, report.stats.replications);
        assert_eq!(report.traffic.replications, report.stats.replications);
    }
}
