//! Machine-readable benchmark emission.
//!
//! Experiment drivers append one JSON document per run (e.g.
//! `BENCH_replay.json`) so the throughput trajectory can be tracked
//! across PRs by CI without parsing human-oriented tables. The encoder is
//! hand-rolled — the workspace intentionally has no serde_json — and
//! emits a flat, diff-friendly layout.

use hbn_server::percentile;
use std::io::Write as _;
use std::time::{SystemTime, UNIX_EPOCH};

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

fn json_f64_array(vs: &[f64]) -> String {
    let mut out = String::from("[");
    for (i, &v) in vs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&json_f64(v));
    }
    out.push(']');
    out
}

/// One cell of the scenario matrix: a (family, topology) pair aggregated
/// over its seed shards. Each cell is self-describing: it carries the
/// strategy threshold, epoch granularity and kernel pair it was produced
/// under, so trajectories stay comparable when the matrix defaults move.
#[derive(Debug, Clone)]
pub struct ScenarioBenchRecord {
    /// Access-pattern family label, e.g. `object-churn`.
    pub family: String,
    /// Topology label, e.g. `balanced(3,2)`.
    pub topology: String,
    /// Static capacity-profile label the cell ran under, e.g.
    /// `uniform`, `fat-root(2)`, `degraded-leaves(4)`.
    pub capacity: String,
    /// Number of processors (leaves).
    pub processors: usize,
    /// Seed shards aggregated into this record.
    pub seeds: usize,
    /// Requests served per shard.
    pub requests_per_seed: usize,
    /// Replay epochs per shard.
    pub epochs: usize,
    /// Replication threshold `D` of the online strategy.
    pub threshold_d: u64,
    /// Requests per replay epoch (`0` = one epoch per phase).
    pub epoch_requests: usize,
    /// Kernel pair that produced the cell (serve/replay), e.g.
    /// `workspace`.
    pub kernel: String,
    /// Mean total simulated makespan (slots) over the shards.
    pub mean_makespan_slots: f64,
    /// Mean online congestion over the shards.
    pub mean_online_congestion: f64,
    /// Mean empirical competitive ratio (online vs hindsight nibble) over
    /// the shards that had non-zero hindsight congestion.
    pub mean_competitive_ratio: Option<f64>,
    /// Mean replication events per shard.
    pub mean_replications: f64,
    /// Mean collapse events per shard.
    pub mean_collapses: f64,
    /// Request-weighted mean replay latency (slots) over the shards.
    pub mean_latency_slots: f64,
    /// Mean requests attributed to each tenant over the shards, indexed
    /// by tenant — empty for single-tenant cells, populated when the
    /// family declares an interference phase.
    pub tenant_requests: Vec<f64>,
    /// Mean per-tenant placement congestion over the shards, indexed by
    /// tenant (same length as `tenant_requests`).
    pub tenant_congestion: Vec<f64>,
    /// Wall-clock seconds for all shards of this cell (sharded run).
    pub wall_seconds: f64,
}

impl ScenarioBenchRecord {
    /// Served requests per wall-clock second, across all shards.
    pub fn requests_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            (self.requests_per_seed * self.seeds) as f64 / self.wall_seconds
        } else {
            f64::INFINITY
        }
    }
}

/// Render the scenario-matrix benchmark document.
pub fn render_scenarios_json(records: &[ScenarioBenchRecord]) -> String {
    let emitted_at = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"scenario_matrix\",\n");
    out.push_str(&format!("  \"emitted_at_unix\": {emitted_at},\n"));
    out.push_str(&format!("  \"families\": {},\n", count_distinct(records, |r| &r.family)));
    out.push_str(&format!("  \"topologies\": {},\n", count_distinct(records, |r| &r.topology)));
    out.push_str("  \"cells\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"family\": \"{}\", \"topology\": \"{}\", \"capacity\": \"{}\", \
             \"processors\": {}, \
             \"seeds\": {}, \"requests_per_seed\": {}, \"epochs\": {}, \
             \"threshold_d\": {}, \"epoch_requests\": {}, \"kernel\": \"{}\", \
             \"mean_makespan_slots\": {}, \"mean_online_congestion\": {}, \
             \"mean_competitive_ratio\": {}, \"mean_replications\": {}, \
             \"mean_collapses\": {}, \"mean_latency_slots\": {}, \
             \"tenant_requests\": {}, \"tenant_congestion\": {}, \
             \"wall_seconds\": {}, \"requests_per_sec\": {}}}{}\n",
            json_escape(&r.family),
            json_escape(&r.topology),
            json_escape(&r.capacity),
            r.processors,
            r.seeds,
            r.requests_per_seed,
            r.epochs,
            r.threshold_d,
            r.epoch_requests,
            json_escape(&r.kernel),
            json_f64(r.mean_makespan_slots),
            json_f64(r.mean_online_congestion),
            r.mean_competitive_ratio.map(json_f64).unwrap_or_else(|| "null".to_string()),
            json_f64(r.mean_replications),
            json_f64(r.mean_collapses),
            json_f64(r.mean_latency_slots),
            json_f64_array(&r.tenant_requests),
            json_f64_array(&r.tenant_congestion),
            json_f64(r.wall_seconds),
            json_f64(r.requests_per_sec()),
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn count_distinct<'a>(
    records: &'a [ScenarioBenchRecord],
    key: impl Fn(&'a ScenarioBenchRecord) -> &'a String,
) -> usize {
    let mut keys: Vec<&String> = records.iter().map(key).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.len()
}

/// Render and write the scenario document to `path`.
pub fn emit_scenarios_json(path: &str, records: &[ScenarioBenchRecord]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(render_scenarios_json(records).as_bytes())
}

/// One cell of the strategy matrix: a (family, topology, strategy)
/// triple aggregated over its seed shards — the EXP-STRAT comparison of
/// the static, dynamic and hybrid data-management strategies under the
/// same workloads.
#[derive(Debug, Clone)]
pub struct StrategyBenchRecord {
    /// Access-pattern family label, e.g. `hotspot-migration`.
    pub family: String,
    /// Topology label, e.g. `balanced(3,2)`.
    pub topology: String,
    /// Strategy label, e.g. `dynamic`, `periodic-static(4)`,
    /// `hybrid(4)`.
    pub strategy: String,
    /// Number of processors (leaves).
    pub processors: usize,
    /// Seed shards aggregated into this record.
    pub seeds: usize,
    /// Requests served per shard.
    pub requests_per_seed: usize,
    /// Replay epochs per shard.
    pub epochs: usize,
    /// Replication / migration charge `D` per edge a copy crosses.
    pub threshold_d: u64,
    /// Requests per replay epoch (`0` = one epoch per phase).
    pub epoch_requests: usize,
    /// Mean online congestion (service + migration traffic) over the
    /// shards.
    pub mean_online_congestion: f64,
    /// Mean migration traffic per shard: `D` per edge crossed while
    /// moving copies — the same unit for all strategies.
    pub mean_migration_traffic: f64,
    /// Mean empirical competitive ratio (online vs hindsight nibble)
    /// over the shards with non-zero hindsight congestion.
    pub mean_competitive_ratio: Option<f64>,
    /// Mean replication / migrated-copy events per shard.
    pub mean_replications: f64,
    /// Mean collapse / dropped-copy events per shard.
    pub mean_collapses: f64,
    /// Mean total simulated makespan (slots) over the shards.
    pub mean_makespan_slots: f64,
    /// Wall-clock seconds for all shards of this cell.
    pub wall_seconds: f64,
}

impl StrategyBenchRecord {
    /// Served requests per wall-clock second, across all shards.
    pub fn requests_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            (self.requests_per_seed * self.seeds) as f64 / self.wall_seconds
        } else {
            f64::INFINITY
        }
    }
}

/// Render the strategy-matrix benchmark document.
pub fn render_strategies_json(records: &[StrategyBenchRecord]) -> String {
    let emitted_at = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0);
    let mut strategies: Vec<&String> = records.iter().map(|r| &r.strategy).collect();
    strategies.sort_unstable();
    strategies.dedup();
    let mut families: Vec<&String> = records.iter().map(|r| &r.family).collect();
    families.sort_unstable();
    families.dedup();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"strategy_matrix\",\n");
    out.push_str(&format!("  \"emitted_at_unix\": {emitted_at},\n"));
    out.push_str(&format!("  \"strategies\": {},\n", strategies.len()));
    out.push_str(&format!("  \"families\": {},\n", families.len()));
    out.push_str("  \"cells\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"family\": \"{}\", \"topology\": \"{}\", \"strategy\": \"{}\", \
             \"processors\": {}, \"seeds\": {}, \"requests_per_seed\": {}, \
             \"epochs\": {}, \"threshold_d\": {}, \"epoch_requests\": {}, \
             \"mean_online_congestion\": {}, \"mean_migration_traffic\": {}, \
             \"mean_competitive_ratio\": {}, \"mean_replications\": {}, \
             \"mean_collapses\": {}, \"mean_makespan_slots\": {}, \
             \"wall_seconds\": {}, \"requests_per_sec\": {}}}{}\n",
            json_escape(&r.family),
            json_escape(&r.topology),
            json_escape(&r.strategy),
            r.processors,
            r.seeds,
            r.requests_per_seed,
            r.epochs,
            r.threshold_d,
            r.epoch_requests,
            json_f64(r.mean_online_congestion),
            json_f64(r.mean_migration_traffic),
            r.mean_competitive_ratio.map(json_f64).unwrap_or_else(|| "null".to_string()),
            json_f64(r.mean_replications),
            json_f64(r.mean_collapses),
            json_f64(r.mean_makespan_slots),
            json_f64(r.wall_seconds),
            json_f64(r.requests_per_sec()),
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Render and write the strategy document to `path`.
pub fn emit_strategies_json(path: &str, records: &[StrategyBenchRecord]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(render_strategies_json(records).as_bytes())
}

/// One checkpoint/restore determinism cell of EXP-RESUME: a scenario run
/// unbroken versus checkpointed mid-run and resumed, with the resumed
/// report compared bit-for-bit against the unbroken one.
#[derive(Debug, Clone)]
pub struct SessionResumeRecord {
    /// Scenario label, e.g. `hotspot-migration@balanced(3,2)`.
    pub scenario: String,
    /// Strategy label the run was served under.
    pub strategy: String,
    /// Stream seed.
    pub seed: u64,
    /// Total replay epochs of the run.
    pub epochs_total: usize,
    /// Global epoch index the checkpoint was taken at.
    pub checkpoint_epoch: usize,
    /// Whether the resumed run's report equalled the unbroken run's
    /// bit for bit (the acceptance gate — always `true` in an emitted
    /// document, since a mismatch aborts the experiment).
    pub resumed_equal: bool,
    /// Wall-clock seconds of the unbroken run.
    pub unbroken_wall_seconds: f64,
    /// Wall-clock seconds of the resumed suffix (restore + remaining
    /// epochs) — what a crash recovery actually pays.
    pub resume_wall_seconds: f64,
}

/// Render the session-resume determinism document.
pub fn render_session_resume_json(records: &[SessionResumeRecord]) -> String {
    let emitted_at = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0);
    let all_equal = records.iter().all(|r| r.resumed_equal);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"session_resume\",\n");
    out.push_str(&format!("  \"emitted_at_unix\": {emitted_at},\n"));
    out.push_str(&format!("  \"all_resumes_exact\": {all_equal},\n"));
    out.push_str("  \"cells\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"strategy\": \"{}\", \"seed\": {}, \
             \"epochs_total\": {}, \"checkpoint_epoch\": {}, \"resumed_equal\": {}, \
             \"unbroken_wall_seconds\": {}, \"resume_wall_seconds\": {}}}{}\n",
            json_escape(&r.scenario),
            json_escape(&r.strategy),
            r.seed,
            r.epochs_total,
            r.checkpoint_epoch,
            r.resumed_equal,
            json_f64(r.unbroken_wall_seconds),
            json_f64(r.resume_wall_seconds),
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Render and write the session-resume document to `path`.
pub fn emit_session_resume_json(
    path: &str,
    records: &[SessionResumeRecord],
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(render_session_resume_json(records).as_bytes())
}

/// One cell of the fault matrix (EXP-FAULT): a scenario run under a
/// deterministic fault plan, compared against its fault-free twin —
/// degraded-mode competitive ratio, repair traffic and recovery time.
#[derive(Debug, Clone)]
pub struct FaultBenchRecord {
    /// Scenario label, e.g. `hotspot-migration@balanced(3,2)`.
    pub scenario: String,
    /// Strategy label the run was served under.
    pub strategy: String,
    /// Fault-plan label, e.g. `outage(e3..5)` or `seeded(99)`.
    pub fault_plan: String,
    /// Stream seed.
    pub seed: u64,
    /// Requests served (none may be lost to the faults).
    pub requests: u64,
    /// Replay epochs of the run.
    pub epochs: usize,
    /// Epochs that had at least one bus down or degraded.
    pub faulty_epochs: usize,
    /// Repair events (stranded copy-set evacuations) charged by
    /// self-healing.
    pub repairs: u64,
    /// Repair traffic: `repairs × D`, the same unit as migration.
    pub repair_traffic: u64,
    /// Total migration traffic (replications × D; includes repairs).
    pub migration_traffic: u64,
    /// Empirical competitive ratio of the degraded run.
    pub competitive_ratio: Option<f64>,
    /// Competitive ratio of the fault-free twin (same spec, no plan).
    pub clean_competitive_ratio: Option<f64>,
    /// Total simulated makespan (slots) of the degraded run.
    pub makespan_slots: u64,
    /// Makespan of the fault-free twin.
    pub clean_makespan_slots: u64,
    /// Epochs from the last faulty epoch until online congestion was
    /// back at the pre-fault baseline (`None`: not recovered in-run).
    pub recovery_epochs: Option<u64>,
    /// Wall-clock seconds for the degraded run.
    pub wall_seconds: f64,
}

/// Render the fault-matrix benchmark document.
pub fn render_faults_json(records: &[FaultBenchRecord]) -> String {
    let emitted_at = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0);
    let recovered = records.iter().filter(|r| r.recovery_epochs.is_some()).count();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"fault_matrix\",\n");
    out.push_str(&format!("  \"emitted_at_unix\": {emitted_at},\n"));
    out.push_str(&format!("  \"cells_recovered_in_run\": {recovered},\n"));
    out.push_str("  \"cells\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"strategy\": \"{}\", \"fault_plan\": \"{}\", \
             \"seed\": {}, \"requests\": {}, \"epochs\": {}, \"faulty_epochs\": {}, \
             \"repairs\": {}, \"repair_traffic\": {}, \"migration_traffic\": {}, \
             \"competitive_ratio\": {}, \"clean_competitive_ratio\": {}, \
             \"makespan_slots\": {}, \"clean_makespan_slots\": {}, \
             \"recovery_epochs\": {}, \"wall_seconds\": {}}}{}\n",
            json_escape(&r.scenario),
            json_escape(&r.strategy),
            json_escape(&r.fault_plan),
            r.seed,
            r.requests,
            r.epochs,
            r.faulty_epochs,
            r.repairs,
            r.repair_traffic,
            r.migration_traffic,
            r.competitive_ratio.map(json_f64).unwrap_or_else(|| "null".to_string()),
            r.clean_competitive_ratio.map(json_f64).unwrap_or_else(|| "null".to_string()),
            r.makespan_slots,
            r.clean_makespan_slots,
            r.recovery_epochs.map(|k| k.to_string()).unwrap_or_else(|| "null".to_string()),
            json_f64(r.wall_seconds),
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Render and write the fault-matrix document to `path`.
pub fn emit_faults_json(path: &str, records: &[FaultBenchRecord]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(render_faults_json(records).as_bytes())
}

/// One kill-and-restore cell of the crash-recovery harness: a child
/// process saves durable checkpoints every epoch and is killed mid-run;
/// the parent restores the last on-disk checkpoint and finishes.
#[derive(Debug, Clone)]
pub struct CrashRecoveryRecord {
    /// Scenario label.
    pub scenario: String,
    /// Strategy label.
    pub strategy: String,
    /// Stream seed.
    pub seed: u64,
    /// Global epoch index the child process died at.
    pub kill_epoch: usize,
    /// Total replay epochs of the run.
    pub epochs_total: usize,
    /// Whether the restored run's report equalled the unbroken run's
    /// bit for bit (a mismatch aborts the harness).
    pub restored_equal: bool,
    /// Size of the durable checkpoint frame restored from, in bytes.
    pub checkpoint_bytes: u64,
    /// Wall-clock seconds of the unbroken in-process run.
    pub unbroken_wall_seconds: f64,
    /// Wall-clock seconds of restore-from-disk + remaining epochs.
    pub recovery_wall_seconds: f64,
}

/// Render the crash-recovery document.
pub fn render_crash_recovery_json(records: &[CrashRecoveryRecord]) -> String {
    let emitted_at = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0);
    let all_equal = records.iter().all(|r| r.restored_equal);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"crash_recovery\",\n");
    out.push_str(&format!("  \"emitted_at_unix\": {emitted_at},\n"));
    out.push_str(&format!("  \"all_restores_exact\": {all_equal},\n"));
    out.push_str("  \"cells\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"strategy\": \"{}\", \"seed\": {}, \
             \"kill_epoch\": {}, \"epochs_total\": {}, \"restored_equal\": {}, \
             \"checkpoint_bytes\": {}, \"unbroken_wall_seconds\": {}, \
             \"recovery_wall_seconds\": {}}}{}\n",
            json_escape(&r.scenario),
            json_escape(&r.strategy),
            r.seed,
            r.kill_epoch,
            r.epochs_total,
            r.restored_equal,
            r.checkpoint_bytes,
            json_f64(r.unbroken_wall_seconds),
            json_f64(r.recovery_wall_seconds),
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Render and write the crash-recovery document to `path`.
pub fn emit_crash_recovery_json(
    path: &str,
    records: &[CrashRecoveryRecord],
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(render_crash_recovery_json(records).as_bytes())
}

/// One timed replay of EXP-REPLAY: the same traffic replayed by the
/// workspace kernel or by the reference oracle.
#[derive(Debug, Clone)]
pub struct ReplayBenchRecord {
    /// Network label, e.g. `balanced(5,4)`.
    pub network: String,
    /// Number of processors (leaves).
    pub processors: usize,
    /// Requests replayed.
    pub requests: usize,
    /// Which implementation ran (`workspace` / `reference`).
    pub kernel: String,
    /// Batch makespan in slots (identical for both by the differential
    /// guarantee).
    pub makespan_slots: u64,
    /// Wall-clock seconds for the replay.
    pub wall_seconds: f64,
    /// Throughput ratio against the reference oracle on the same
    /// instance (`None` on the reference rows themselves).
    pub speedup_vs_reference: Option<f64>,
}

impl ReplayBenchRecord {
    /// Replayed requests per wall-clock second.
    pub fn requests_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.requests as f64 / self.wall_seconds
        } else {
            f64::INFINITY
        }
    }
}

/// One estimator cell of EXP-REPLAY: an epoch stream priced by the
/// congestion-bound estimator, with a sampled subset replayed exactly to
/// validate the bracket property.
#[derive(Debug, Clone)]
pub struct ReplayEstimateRecord {
    /// Network label.
    pub network: String,
    /// Number of processors (leaves).
    pub processors: usize,
    /// Requests across the estimated epoch stream.
    pub requests: usize,
    /// Epochs priced by the estimator.
    pub epochs: usize,
    /// Epochs also replayed exactly (the validation sample).
    pub sampled_epochs: usize,
    /// Sampled epochs whose exact makespan fell outside the bounds
    /// (always 0 — a violation aborts the experiment).
    pub violations: usize,
    /// Mean upper/lower bound gap ratio across the epochs.
    pub mean_gap_ratio: f64,
    /// Wall-clock seconds for the estimator pass (bounds for every
    /// epoch + the sampled exact replays).
    pub wall_seconds: f64,
    /// Wall-clock seconds for replaying the same stream fully exactly.
    pub exact_wall_seconds: f64,
}

impl ReplayEstimateRecord {
    /// How many times longer exact replay of the stream takes than the
    /// estimator pass (`exact_wall_seconds / wall_seconds`).
    pub fn exact_over_estimate(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.exact_wall_seconds / self.wall_seconds
        } else {
            f64::INFINITY
        }
    }
}

/// Render the replay-scaling benchmark document (`BENCH_replay.json`).
pub fn render_replay_json(
    records: &[ReplayBenchRecord],
    estimates: &[ReplayEstimateRecord],
    speedup: Option<f64>,
) -> String {
    let emitted_at = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0);
    let all_bracket = estimates.iter().all(|e| e.violations == 0);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"replay_scaling\",\n");
    out.push_str(&format!("  \"emitted_at_unix\": {emitted_at},\n"));
    out.push_str(&format!(
        "  \"speedup_vs_reference\": {},\n",
        speedup.map(json_f64).unwrap_or_else(|| "null".to_string())
    ));
    out.push_str(&format!("  \"estimator_brackets_validated\": {all_bracket},\n"));
    out.push_str("  \"instances\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"network\": \"{}\", \"processors\": {}, \"requests\": {}, \
             \"kernel\": \"{}\", \"makespan_slots\": {}, \
             \"wall_seconds\": {}, \"requests_per_sec\": {}, \
             \"speedup_vs_reference\": {}}}{}\n",
            json_escape(&r.network),
            r.processors,
            r.requests,
            json_escape(&r.kernel),
            r.makespan_slots,
            json_f64(r.wall_seconds),
            json_f64(r.requests_per_sec()),
            r.speedup_vs_reference.map(json_f64).unwrap_or_else(|| "null".to_string()),
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"estimator\": [\n");
    for (i, r) in estimates.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"network\": \"{}\", \"processors\": {}, \"requests\": {}, \
             \"epochs\": {}, \"sampled_epochs\": {}, \"violations\": {}, \
             \"mean_gap_ratio\": {}, \"wall_seconds\": {}, \
             \"exact_wall_seconds\": {}, \"exact_over_estimate\": {}}}{}\n",
            json_escape(&r.network),
            r.processors,
            r.requests,
            r.epochs,
            r.sampled_epochs,
            r.violations,
            json_f64(r.mean_gap_ratio),
            json_f64(r.wall_seconds),
            json_f64(r.exact_wall_seconds),
            json_f64(r.exact_over_estimate()),
            if i + 1 == estimates.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Render and write the replay-scaling document to `path`.
pub fn emit_replay_json(
    path: &str,
    records: &[ReplayBenchRecord],
    estimates: &[ReplayEstimateRecord],
    speedup: Option<f64>,
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(render_replay_json(records, estimates, speedup).as_bytes())
}

/// One timed serve-loop run of the online strategy.
#[derive(Debug, Clone)]
pub struct DynamicBenchRecord {
    /// Network label, e.g. `balanced(4,3)`.
    pub network: String,
    /// Number of processors (leaves).
    pub processors: usize,
    /// Live objects at schedule start.
    pub objects: usize,
    /// Requests served.
    pub requests: usize,
    /// Replication threshold `D`.
    pub threshold_d: u64,
    /// Which kernel ran (`workspace` or `reference`).
    pub kernel: String,
    /// Wall-clock seconds for the serve loop.
    pub wall_seconds: f64,
    /// Replication events performed.
    pub replications: u64,
    /// Write-collapse events performed.
    pub collapses: u64,
}

impl DynamicBenchRecord {
    /// Served requests per wall-clock second.
    pub fn requests_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.requests as f64 / self.wall_seconds
        } else {
            f64::INFINITY
        }
    }
}

/// Render the dynamic serve-loop benchmark document.
pub fn render_dynamic_json(records: &[DynamicBenchRecord], speedup: Option<f64>) -> String {
    let emitted_at = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"dynamic_serve_throughput\",\n");
    out.push_str(&format!("  \"emitted_at_unix\": {emitted_at},\n"));
    out.push_str(&format!(
        "  \"speedup_workspace_vs_reference\": {},\n",
        speedup.map(json_f64).unwrap_or_else(|| "null".to_string())
    ));
    out.push_str("  \"instances\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"network\": \"{}\", \"processors\": {}, \"objects\": {}, \
             \"requests\": {}, \"threshold_d\": {}, \"kernel\": \"{}\", \
             \"wall_seconds\": {}, \"requests_per_sec\": {}, \
             \"replications\": {}, \"collapses\": {}}}{}\n",
            json_escape(&r.network),
            r.processors,
            r.objects,
            r.requests,
            r.threshold_d,
            json_escape(&r.kernel),
            json_f64(r.wall_seconds),
            json_f64(r.requests_per_sec()),
            r.replications,
            r.collapses,
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Render and write the dynamic serve-loop document to `path`.
pub fn emit_dynamic_json(
    path: &str,
    records: &[DynamicBenchRecord],
    speedup: Option<f64>,
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(render_dynamic_json(records, speedup).as_bytes())
}

/// One offered-load window of EXP-SERVER: client threads holding
/// `outstanding` submissions open against every tenant of a live
/// [`hbn-server`](../hbn_server/index.html) instance, retrying
/// `QueueFull` rejections with capped exponential backoff + jitter.
#[derive(Debug, Clone)]
pub struct ServerLoadRecord {
    /// Window label relative to the admission marks, e.g.
    /// `0.5x-high-water`, `2x-high-water`, `beyond-capacity`.
    pub window: String,
    /// Tenants served concurrently.
    pub tenants: usize,
    /// Submissions each client holds open per tenant.
    pub outstanding: usize,
    /// Submit attempts across all tenants (accepted + rejected).
    pub offered: usize,
    /// Epochs actually served across all tenants.
    pub served: usize,
    /// Admission rejections ([`hbn_server::Rejected::QueueFull`]).
    pub rejected_full: usize,
    /// Requests shed server-side for an expired deadline.
    pub deadline_shed: usize,
    /// Epochs served under the degraded estimator kernel.
    pub degraded_epochs: usize,
    /// Client-side retries after a rejection.
    pub retries: usize,
    /// Wall-clock seconds of the window.
    pub wall_seconds: f64,
    /// Ingest latency p50 (admission to served), microseconds.
    pub ingest_p50_micros: u64,
    /// Ingest latency p99, microseconds.
    pub ingest_p99_micros: u64,
}

impl ServerLoadRecord {
    /// Goodput: served epochs (session steps) per wall-clock second.
    pub fn sessions_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.served as f64 / self.wall_seconds
        } else {
            f64::INFINITY
        }
    }

    /// Fraction of offered submissions shed instead of served
    /// (admission rejections + expired deadlines).
    pub fn shed_fraction(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            (self.rejected_full + self.deadline_shed) as f64 / self.offered as f64
        }
    }
}

/// One supervised recovery drill of EXP-SERVER: a tenant worker killed
/// under live traffic (and, where the spec says so, an active
/// fault-plan outage), restored by the supervisor from the last durable
/// checkpoint plus a journal-tail replay.
#[derive(Debug, Clone)]
pub struct ServerRecoveryRecord {
    /// Scenario label.
    pub scenario: String,
    /// Strategy label.
    pub strategy: String,
    /// Epoch the worker was killed at.
    pub kill_epoch: usize,
    /// Epochs of the full run.
    pub epochs_total: usize,
    /// Whether the recovered tenant's final report equalled an unbroken
    /// twin bit for bit (a mismatch aborts the harness).
    pub restored_equal: bool,
    /// Journal epochs replayed on top of the restored checkpoint.
    pub recovery_epochs: u64,
    /// Wall-clock microseconds from crash detection to a respawned,
    /// caught-up worker.
    pub recovery_micros: u64,
}

/// Render the server service-level document (EXP-SERVER).
pub fn render_server_json(load: &[ServerLoadRecord], recovery: &[ServerRecoveryRecord]) -> String {
    let emitted_at = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0);
    let all_equal = recovery.iter().all(|r| r.restored_equal);
    let rec_micros: Vec<u64> = recovery.iter().map(|r| r.recovery_micros).collect();
    let peak = load.iter().map(ServerLoadRecord::sessions_per_sec).fold(0.0f64, f64::max);
    // Graceful degradation gate: the heaviest window (last) must keep at
    // least half the peak goodput — overload sheds, it must not collapse.
    let overload = load.last().map(ServerLoadRecord::sessions_per_sec).unwrap_or(0.0);
    let graceful = load.is_empty() || overload >= 0.5 * peak;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"server\",\n");
    out.push_str(&format!("  \"emitted_at_unix\": {emitted_at},\n"));
    out.push_str(&format!("  \"all_restores_exact\": {all_equal},\n"));
    out.push_str(&format!("  \"graceful_under_overload\": {graceful},\n"));
    out.push_str(&format!("  \"recovery_p50_micros\": {},\n", percentile(&rec_micros, 50.0)));
    out.push_str(&format!("  \"recovery_p99_micros\": {},\n", percentile(&rec_micros, 99.0)));
    out.push_str("  \"load_windows\": [\n");
    for (i, r) in load.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"window\": \"{}\", \"tenants\": {}, \"outstanding\": {}, \
             \"offered\": {}, \"served\": {}, \"rejected_full\": {}, \
             \"deadline_shed\": {}, \"degraded_epochs\": {}, \"retries\": {}, \
             \"wall_seconds\": {}, \"sessions_per_sec\": {}, \"shed_fraction\": {}, \
             \"ingest_p50_micros\": {}, \"ingest_p99_micros\": {}}}{}\n",
            json_escape(&r.window),
            r.tenants,
            r.outstanding,
            r.offered,
            r.served,
            r.rejected_full,
            r.deadline_shed,
            r.degraded_epochs,
            r.retries,
            json_f64(r.wall_seconds),
            json_f64(r.sessions_per_sec()),
            json_f64(r.shed_fraction()),
            r.ingest_p50_micros,
            r.ingest_p99_micros,
            if i + 1 == load.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"recovery_drills\": [\n");
    for (i, r) in recovery.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"strategy\": \"{}\", \"kill_epoch\": {}, \
             \"epochs_total\": {}, \"restored_equal\": {}, \"recovery_epochs\": {}, \
             \"recovery_micros\": {}}}{}\n",
            json_escape(&r.scenario),
            json_escape(&r.strategy),
            r.kill_epoch,
            r.epochs_total,
            r.restored_equal,
            r.recovery_epochs,
            r.recovery_micros,
            if i + 1 == recovery.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Render and write the server service-level document to `path`.
pub fn emit_server_json(
    path: &str,
    load: &[ServerLoadRecord],
    recovery: &[ServerRecoveryRecord],
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(render_server_json(load, recovery).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(kernel: &str) -> ReplayBenchRecord {
        ReplayBenchRecord {
            network: "balanced(4,3)".into(),
            processors: 64,
            requests: 15000,
            kernel: kernel.into(),
            makespan_slots: 4000,
            wall_seconds: 0.05,
            speedup_vs_reference: None,
        }
    }

    fn estimate(violations: usize, exact_wall_seconds: f64) -> ReplayEstimateRecord {
        ReplayEstimateRecord {
            network: "star(8,b=2)".into(),
            processors: 8,
            requests: 100,
            epochs: 4,
            sampled_epochs: 4,
            violations,
            mean_gap_ratio: 2.0,
            wall_seconds: 0.01,
            exact_wall_seconds,
        }
    }

    #[test]
    fn rates_derive_from_wall_clock() {
        assert!((record("workspace").requests_per_sec() - 300_000.0).abs() < 1e-6);
        assert!((estimate(0, 0.05).exact_over_estimate() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn document_shape_is_stable() {
        let kernel = ReplayBenchRecord { speedup_vs_reference: Some(3.7), ..record("workspace") };
        let doc = render_replay_json(&[kernel, record("reference")], &[], Some(3.7));
        assert!(doc.contains("\"speedup_vs_reference\": 3.700000"));
        assert!(doc.contains("\"speedup_vs_reference\": null"));
        assert!(doc.contains("\"requests_per_sec\": 300000.000000"));
        assert_eq!(doc.matches("\"kernel\"").count(), 2);
        // Exactly one comma between the two instance rows.
        assert_eq!(doc.matches("},\n").count(), 1);
    }

    #[test]
    fn strings_are_escaped() {
        let mut r = record("workspace");
        r.network = "a\"b\\c".into();
        let doc = render_replay_json(&[r], &[], None);
        assert!(doc.contains("a\\\"b\\\\c"));
        assert!(doc.contains("\"speedup_vs_reference\": null"));
    }

    fn scenario_record(family: &str, topology: &str) -> ScenarioBenchRecord {
        ScenarioBenchRecord {
            family: family.into(),
            topology: topology.into(),
            capacity: "uniform".into(),
            processors: 9,
            seeds: 4,
            requests_per_seed: 2500,
            epochs: 3,
            threshold_d: 3,
            epoch_requests: 0,
            kernel: "workspace".into(),
            mean_makespan_slots: 1200.0,
            mean_online_congestion: 310.5,
            mean_competitive_ratio: Some(2.4),
            mean_replications: 42.0,
            mean_collapses: 7.5,
            mean_latency_slots: 3.25,
            tenant_requests: Vec::new(),
            tenant_congestion: Vec::new(),
            wall_seconds: 0.05,
        }
    }

    #[test]
    fn scenario_document_counts_families_and_topologies() {
        let doc = render_scenarios_json(&[
            scenario_record("static-zipf", "balanced(3,2)"),
            scenario_record("static-zipf", "star(12,b=4)"),
            scenario_record("object-churn", "balanced(3,2)"),
        ]);
        assert!(doc.contains("\"bench\": \"scenario_matrix\""));
        assert!(doc.contains("\"families\": 2"));
        assert!(doc.contains("\"topologies\": 2"));
        assert_eq!(doc.matches("\"family\"").count(), 3);
        // 4 seeds × 2500 requests in 0.05 s → 200k requests/sec.
        assert!(doc.contains("\"requests_per_sec\": 200000.000000"));
        assert_eq!(doc.matches("},\n").count(), 2);
    }

    #[test]
    fn scenario_null_ratio_renders_as_null() {
        let mut r = scenario_record("bursty", "caterpillar(4,2)");
        r.mean_competitive_ratio = None;
        let doc = render_scenarios_json(&[r]);
        assert!(doc.contains("\"mean_competitive_ratio\": null"));
    }

    #[test]
    fn scenario_cells_are_self_describing() {
        let doc = render_scenarios_json(&[scenario_record("static-zipf", "balanced(4,3)")]);
        assert!(doc.contains("\"threshold_d\": 3"));
        assert!(doc.contains("\"epoch_requests\": 0"));
        assert!(doc.contains("\"kernel\": \"workspace\""));
        assert!(doc.contains("\"capacity\": \"uniform\""));
        // Single-tenant cells carry empty attribution arrays.
        assert!(doc.contains("\"tenant_requests\": []"));
        assert!(doc.contains("\"tenant_congestion\": []"));
    }

    #[test]
    fn scenario_tenant_columns_render_as_arrays() {
        let mut r = scenario_record("interference", "balanced(3,2)");
        r.capacity = "degraded-leaves(2)".into();
        r.tenant_requests = vec![40.0, 41.5, 38.5];
        r.tenant_congestion = vec![12.0, 9.25, 10.5];
        let doc = render_scenarios_json(&[r]);
        assert!(doc.contains("\"capacity\": \"degraded-leaves(2)\""));
        assert!(doc.contains("\"tenant_requests\": [40.000000, 41.500000, 38.500000]"));
        assert!(doc.contains("\"tenant_congestion\": [12.000000, 9.250000, 10.500000]"));
    }

    fn dynamic_record(kernel: &str) -> DynamicBenchRecord {
        DynamicBenchRecord {
            network: "balanced(4,3)".into(),
            processors: 64,
            objects: 64,
            requests: 100_000,
            threshold_d: 3,
            kernel: kernel.into(),
            wall_seconds: 0.05,
            replications: 900,
            collapses: 120,
        }
    }

    #[test]
    fn dynamic_document_shape_is_stable() {
        let doc = render_dynamic_json(
            &[dynamic_record("workspace"), dynamic_record("reference")],
            Some(4.2),
        );
        assert!(doc.contains("\"bench\": \"dynamic_serve_throughput\""));
        assert!(doc.contains("\"speedup_workspace_vs_reference\": 4.200000"));
        // 100k requests in 0.05 s → 2M requests/sec.
        assert!(doc.contains("\"requests_per_sec\": 2000000.000000"));
        assert!(doc.contains("\"threshold_d\": 3"));
        assert_eq!(doc.matches("\"kernel\"").count(), 2);
        assert_eq!(doc.matches("},\n").count(), 1);
    }

    #[test]
    fn dynamic_null_speedup_renders_as_null() {
        let doc = render_dynamic_json(&[dynamic_record("workspace")], None);
        assert!(doc.contains("\"speedup_workspace_vs_reference\": null"));
    }

    fn strategy_record(family: &str, strategy: &str) -> StrategyBenchRecord {
        StrategyBenchRecord {
            family: family.into(),
            topology: "balanced(3,2)".into(),
            strategy: strategy.into(),
            processors: 9,
            seeds: 2,
            requests_per_seed: 5000,
            epochs: 4,
            threshold_d: 3,
            epoch_requests: 1250,
            mean_online_congestion: 250.0,
            mean_migration_traffic: 36.0,
            mean_competitive_ratio: Some(1.8),
            mean_replications: 12.0,
            mean_collapses: 4.0,
            mean_makespan_slots: 900.0,
            wall_seconds: 0.1,
        }
    }

    #[test]
    fn strategy_document_counts_strategies_and_families() {
        let doc = render_strategies_json(&[
            strategy_record("static-zipf", "dynamic"),
            strategy_record("static-zipf", "periodic-static(4)"),
            strategy_record("bursty", "hybrid(4)"),
            strategy_record("bursty", "dynamic"),
        ]);
        assert!(doc.contains("\"bench\": \"strategy_matrix\""));
        assert!(doc.contains("\"strategies\": 3"));
        assert!(doc.contains("\"families\": 2"));
        assert_eq!(doc.matches("\"strategy\"").count(), 4);
        // 2 seeds × 5000 requests in 0.1 s → 100k requests/sec.
        assert!(doc.contains("\"requests_per_sec\": 100000.000000"));
        assert!(doc.contains("\"mean_migration_traffic\": 36.000000"));
        assert_eq!(doc.matches("},\n").count(), 3);
    }

    #[test]
    fn strategy_null_ratio_renders_as_null() {
        let mut r = strategy_record("mix-flip", "periodic-static(inf)");
        r.mean_competitive_ratio = None;
        let doc = render_strategies_json(&[r]);
        assert!(doc.contains("\"mean_competitive_ratio\": null"));
        assert!(doc.contains("\"strategy\": \"periodic-static(inf)\""));
    }

    fn fault_record(strategy: &str, recovery: Option<u64>) -> FaultBenchRecord {
        FaultBenchRecord {
            scenario: "hotspot-migration@balanced(3,2)".into(),
            strategy: strategy.into(),
            fault_plan: "outage(e3..5)".into(),
            seed: 7,
            requests: 2400,
            epochs: 8,
            faulty_epochs: 2,
            repairs: 5,
            repair_traffic: 15,
            migration_traffic: 120,
            competitive_ratio: Some(2.1),
            clean_competitive_ratio: Some(1.9),
            makespan_slots: 900,
            clean_makespan_slots: 700,
            recovery_epochs: recovery,
            wall_seconds: 0.05,
        }
    }

    #[test]
    fn fault_document_shape_is_stable() {
        let doc = render_faults_json(&[
            fault_record("dynamic", Some(1)),
            fault_record("hybrid(4)", None),
        ]);
        assert!(doc.contains("\"bench\": \"fault_matrix\""));
        assert!(doc.contains("\"cells_recovered_in_run\": 1"));
        assert!(doc.contains("\"repair_traffic\": 15"));
        assert!(doc.contains("\"recovery_epochs\": 1"));
        assert!(doc.contains("\"recovery_epochs\": null"));
        assert!(doc.contains("\"clean_competitive_ratio\": 1.900000"));
        assert_eq!(doc.matches("\"fault_plan\"").count(), 2);
        assert_eq!(doc.matches("},\n").count(), 1);
    }

    #[test]
    fn crash_recovery_document_shape_is_stable() {
        let r = CrashRecoveryRecord {
            scenario: "hotspot-migration@balanced(3,2)".into(),
            strategy: "dynamic".into(),
            seed: 7,
            kill_epoch: 4,
            epochs_total: 8,
            restored_equal: true,
            checkpoint_bytes: 4096,
            unbroken_wall_seconds: 0.2,
            recovery_wall_seconds: 0.08,
        };
        let doc = render_crash_recovery_json(&[r.clone(), r]);
        assert!(doc.contains("\"bench\": \"crash_recovery\""));
        assert!(doc.contains("\"all_restores_exact\": true"));
        assert!(doc.contains("\"kill_epoch\": 4"));
        assert!(doc.contains("\"checkpoint_bytes\": 4096"));
        assert_eq!(doc.matches("\"restored_equal\": true").count(), 2);
        assert_eq!(doc.matches("},\n").count(), 1);
    }

    #[test]
    fn replay_document_shape_is_stable() {
        let oracle = ReplayBenchRecord {
            network: "balanced(5,4)".into(),
            processors: 625,
            requests: 60_000,
            kernel: "reference".into(),
            makespan_slots: 41_446,
            wall_seconds: 0.4,
            speedup_vs_reference: None,
        };
        let kernel = ReplayBenchRecord {
            kernel: "workspace".into(),
            wall_seconds: 0.1,
            speedup_vs_reference: Some(4.0),
            ..oracle.clone()
        };
        let est = ReplayEstimateRecord {
            network: "balanced(5,4)".into(),
            processors: 625,
            requests: 6_000_000,
            epochs: 100,
            sampled_epochs: 10,
            violations: 0,
            mean_gap_ratio: 9.5,
            wall_seconds: 1.5,
            exact_wall_seconds: 12.0,
        };
        let doc = render_replay_json(&[kernel, oracle], &[est], Some(4.0));
        assert!(doc.contains("\"bench\": \"replay_scaling\""));
        assert!(doc.contains("\"speedup_vs_reference\": 4.000000,\n"));
        assert!(doc.contains("\"estimator_brackets_validated\": true"));
        // 60k requests in 0.4 s → 150k requests/sec on the reference row.
        assert!(doc.contains("\"requests_per_sec\": 150000.000000"));
        assert!(doc.contains("\"exact_wall_seconds\": 12.000000"));
        assert!(doc.contains("\"exact_over_estimate\": 8.000000"));
        assert!(!doc.contains("\"threads\""));
        assert_eq!(doc.matches("\"sampled_epochs\"").count(), 1);
    }

    #[test]
    fn replay_violations_flip_the_headline() {
        let doc = render_replay_json(&[], &[estimate(1, 0.02)], None);
        assert!(doc.contains("\"estimator_brackets_validated\": false"));
        assert!(doc.contains("\"exact_wall_seconds\": 0.020000"));
    }

    #[test]
    fn session_resume_document_shape_is_stable() {
        let r = SessionResumeRecord {
            scenario: "static-zipf@balanced(3,2)".into(),
            strategy: "hybrid(4)".into(),
            seed: 7,
            epochs_total: 12,
            checkpoint_epoch: 6,
            resumed_equal: true,
            unbroken_wall_seconds: 0.2,
            resume_wall_seconds: 0.09,
        };
        let doc = render_session_resume_json(&[r.clone(), r]);
        assert!(doc.contains("\"bench\": \"session_resume\""));
        assert!(doc.contains("\"all_resumes_exact\": true"));
        assert!(doc.contains("\"checkpoint_epoch\": 6"));
        assert_eq!(doc.matches("\"resumed_equal\": true").count(), 2);
        assert_eq!(doc.matches("},\n").count(), 1);
    }

    fn load_window(window: &str, served: usize, wall: f64) -> ServerLoadRecord {
        ServerLoadRecord {
            window: window.into(),
            tenants: 2,
            outstanding: 8,
            offered: 120,
            served,
            rejected_full: 15,
            deadline_shed: 5,
            degraded_epochs: 40,
            retries: 15,
            wall_seconds: wall,
            ingest_p50_micros: 800,
            ingest_p99_micros: 9_500,
        }
    }

    #[test]
    fn server_rates_and_shed_fraction_derive() {
        let r = load_window("2x-high-water", 100, 0.5);
        assert!((r.sessions_per_sec() - 200.0).abs() < 1e-9);
        assert!((r.shed_fraction() - 20.0 / 120.0).abs() < 1e-9);
        let empty = ServerLoadRecord { offered: 0, ..load_window("idle", 0, 0.0) };
        assert_eq!(empty.shed_fraction(), 0.0);
        assert!(empty.sessions_per_sec().is_infinite());
    }

    #[test]
    fn server_document_carries_headline_gates_and_percentiles() {
        let drill = ServerRecoveryRecord {
            scenario: "pushed@balanced(3,2)".into(),
            strategy: "dynamic".into(),
            kill_epoch: 3,
            epochs_total: 8,
            restored_equal: true,
            recovery_epochs: 1,
            recovery_micros: 4_000,
        };
        let drills = vec![
            ServerRecoveryRecord { recovery_micros: 1_000, ..drill.clone() },
            ServerRecoveryRecord { recovery_micros: 2_000, ..drill.clone() },
            ServerRecoveryRecord { recovery_micros: 9_000, ..drill },
        ];
        let load = vec![load_window("1x-high-water", 100, 1.0), load_window("2x", 90, 1.0)];
        let doc = render_server_json(&load, &drills);
        assert!(doc.contains("\"bench\": \"server\""));
        assert!(doc.contains("\"all_restores_exact\": true"));
        assert!(doc.contains("\"graceful_under_overload\": true"));
        assert!(doc.contains("\"recovery_p50_micros\": 2000"));
        assert!(doc.contains("\"recovery_p99_micros\": 9000"));
        assert_eq!(doc.matches("\"restored_equal\": true").count(), 3);
    }

    #[test]
    fn server_goodput_collapse_flips_the_overload_gate() {
        let load = vec![load_window("1x-high-water", 100, 1.0), load_window("2x", 10, 1.0)];
        let doc = render_server_json(&load, &[]);
        assert!(doc.contains("\"graceful_under_overload\": false"));
        // No drills: restores vacuously exact, percentiles zero.
        assert!(doc.contains("\"all_restores_exact\": true"));
        assert!(doc.contains("\"recovery_p50_micros\": 0"));
    }
}
