//! # hbn-scenario
//!
//! The end-to-end scenario engine: a declarative [`ScenarioSpec`] —
//! topology family, phase-scheduled access pattern, data-management
//! strategy — is turned into an online request stream, served by the
//! chosen strategy, and every resulting placement epoch is replayed
//! through the zero-allocation packet simulator, yielding per-phase
//! congestion, migration-cost and latency summaries.
//!
//! The strategy boundary is **open**: the [`Strategy`] trait carries any
//! policy (each of the five built-in policies is a [`StrategyKind`], and
//! [`StrategyKind::build`] makes it; [`periodic_static_from`] builds the
//! periodic policy with a pinned first firing that a mid-run swap uses),
//! and the [`Session`] driver runs scenarios *incrementally*: epoch by
//! epoch ([`Session::step_epoch`]), with externally pushed traffic
//! ([`Session::push_epoch`]), mid-run policy swaps
//! ([`Session::swap_strategy`]) and exact checkpoint/restore
//! ([`Session::checkpoint`]). The batch entry points
//! ([`run_scenario`], [`run_scenario_with`]) are thin wrappers over a
//! session, run on the calling thread.
//!
//! This is the paper's actual pipeline: *online* access patterns
//! (parallel-program globals, shared-memory pages, WWW pages) served on a
//! hierarchical bus network, with the simulator checking that completion
//! time tracks the congestion of the data management strategy.
//!
//! Two robustness layers ride on the session: a deterministic, seeded
//! **fault plan** ([`FaultPlan`] on the spec) degrades or downs buses
//! for epoch windows — strategies self-heal their copy sets around the
//! outage (repair traffic charged exactly like migration, surfaced as
//! [`TrafficCounters::repairs`]) while the replay defers (never drops)
//! packets of a downed bus — and **durable checkpoints**
//! ([`SessionCheckpoint::save`] / [`Session::restore_from_file`]):
//! versioned, checksummed, atomically written files from which a killed
//! run resumes bit for bit.
//!
//! ```
//! use hbn_scenario::{run_scenario, ScenarioSpec, TopologyFamily};
//! use hbn_workload::phases::full_tour;
//!
//! // Six phases (one per access-pattern family), 100 requests each, on a
//! // three-level balanced tree, replication threshold D = 2, seed 7.
//! let topology = TopologyFamily::Balanced { branching: 3, height: 2 };
//! let spec = ScenarioSpec::new("tour", topology, full_tour(8, 100), 2, 7);
//! let report = run_scenario(&spec);
//! assert_eq!(report.traffic.requests, 600);
//! assert_eq!(report.phases.len(), 6);
//! // Every phase was replayed on the simulator: the makespan of a
//! // non-empty epoch is positive unless all its traffic was leaf-local.
//! assert!(report.total_makespan > 0);
//! // Every request went through the online strategy, and the hindsight
//! // comparison yields an empirical competitive ratio.
//! assert_eq!(report.stats.reads + report.stats.writes, 600);
//! assert!(report.competitive_ratio.is_some());
//! ```

#![warn(missing_docs)]

pub mod durable;
pub mod engine;
pub mod faults;
mod history;
pub mod session;
pub mod spec;
pub mod strategy;

pub use durable::{JournalRecord, RestoreError};
pub use engine::{
    run_scenario, run_scenario_with, EpochEstimate, EpochSummary, PhaseSummary, ScenarioReport,
    TenantSummary, TrafficCounters,
};
pub use faults::{
    FaultEvent, FaultKind, FaultPlan, FaultPlanError, FaultView, DEFAULT_OUTAGE_SLOTS,
};
pub use session::{Session, SessionCheckpoint};
pub use spec::{ExecutionConfig, ReplayKernel, ScenarioSpec, StrategyKind, TopologyFamily};
pub use strategy::{charged_migration, periodic_static_from, Strategy, StrategySnapshot};
