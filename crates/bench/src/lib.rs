//! # hbn-bench
//!
//! Experiment binaries (one per EXP-* row of DESIGN.md) and criterion
//! benchmarks. Shared table-formatting helpers live here.

#![warn(missing_docs)]

pub mod bench_json;
pub mod table;

pub use bench_json::{
    emit_crash_recovery_json, emit_dynamic_json, emit_faults_json, emit_replay_json,
    emit_scenarios_json, emit_server_json, emit_session_resume_json, emit_strategies_json,
    render_crash_recovery_json, render_dynamic_json, render_faults_json, render_replay_json,
    render_scenarios_json, render_server_json, render_session_resume_json, render_strategies_json,
    CrashRecoveryRecord, DynamicBenchRecord, FaultBenchRecord, ReplayBenchRecord,
    ReplayEstimateRecord, ScenarioBenchRecord, ServerLoadRecord, ServerRecoveryRecord,
    SessionResumeRecord, StrategyBenchRecord,
};
pub use table::Table;

/// Whether the experiment binaries should run in quick mode
/// (`HBN_EXP_QUICK=1`): same matrix shape, drastically reduced request
/// volumes, so CI can exercise the full pipeline without paying for the
/// production-scale instances. Benchmark documents emitted in quick mode
/// still carry their per-cell volumes, so trajectories remain
/// interpretable.
pub fn exp_quick() -> bool {
    std::env::var("HBN_EXP_QUICK").is_ok_and(|v| v == "1")
}

/// Fail the process hard when estimator bounds failed to bracket
/// sampled epochs. Bracket-asserting experiment binaries call this
/// after their sweep instead of a library `assert!`: a violated bound
/// is a correctness failure of the congestion-bound estimator and must
/// fail the job with a non-zero exit code — not unwind into whatever
/// output buffering is in flight, and never scroll past in JSON.
pub fn exit_on_estimate_violations(violations: usize, label: &str) {
    if violations > 0 {
        eprintln!(
            "FATAL: estimator bounds failed to bracket {violations} sampled epoch(s) on {label}"
        );
        std::process::exit(1);
    }
}
