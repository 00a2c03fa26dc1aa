//! The repository benchmark. One invocation runs one workload:
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <replay-hotspot|static-churn|server-open-loop> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It prints diagnostic lines, then, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer split with `--trace 1`. A
//! failed correctness gate exits with code 1 after that line; bad
//! arguments exit with code 2 and print no result. See `README.md` for
//! the workloads, the metrics and which layer should move which number.

mod host;
mod mirror;
mod server_wl;
mod session_wl;
mod trace;

use hbn_dynamic::DynamicStats;
pub use hbn_server::percentile;
use mirror::Counters;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use trace::{Stage, Tracer};

/// End-to-end metrics, printed by every untraced run of every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("requests_per_cpu_s", "1/s"),
    ("setup_s", "s"),
    ("congestion", "load/bw"),
    ("competitive_ratio", "ratio"),
];

/// Per-layer metrics, printed by every traced run of every workload
/// (zero where a workload bypasses the layer).
const PER_LAYER: &[(&str, &str)] = &[
    ("workload.draw_share", "share"),
    ("workload.draw_ns_per_request", "ns"),
    ("core.replace_share", "share"),
    ("core.replace_ms_p50", "ms"),
    ("core.replacements", "count"),
    ("core.serve_share", "share"),
    ("dynamic.serve_share", "share"),
    ("dynamic.replications", "count"),
    ("dynamic.collapses", "count"),
    ("load.snapshot_share", "share"),
    ("load.accounting_share", "share"),
    ("load.touched_ratio", "ratio"),
    ("sim.replay_share", "share"),
    ("sim.ns_per_slot", "ns"),
    ("sim.ns_per_packet", "ns"),
    ("sim.estimate_share", "share"),
    ("sim.exact_epochs", "count"),
    ("sim.bracket_violations", "count"),
    ("sim.makespan_slots", "slots"),
    ("sim.estimate_gap", "ratio"),
    ("scenario.self_share", "share"),
    ("scenario.report_s", "s"),
    ("scenario.epoch_p50_ms", "ms"),
    ("scenario.epoch_p90_ms", "ms"),
    ("durable.checkpoint_ms", "ms"),
    ("durable.checkpoint_bytes", "bytes"),
    ("server.admit_us_p50", "us"),
    ("server.ingest_p50_ms", "ms"),
    ("server.latency_p50_ms", "ms"),
    ("server.latency_p90_ms", "ms"),
    ("server.queue_depth_p90", "count"),
    ("server.degraded_share", "share"),
    ("server.rejected", "count"),
    ("server.deadline_shed", "count"),
    ("gen.lag_p90_ms", "ms"),
    ("host.calib_ms", "ms"),
    ("host.stall_ms", "ms"),
    ("trace.overhead_share", "share"),
    ("trace.span_coverage", "share"),
    ("process.peak_rss_mb", "MiB"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <replay-hotspot|static-churn|server-open-loop> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 30, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// What a run reports: the gates' verdict, operation counts and metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record a correctness gate.
    pub fn check(&mut self, ok: bool, violation: String) {
        if !ok {
            self.violations.push(violation);
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record per-layer metrics of a layer the workload bypasses.
    pub fn zero(&mut self, names: &[&'static str]) {
        for &name in names {
            self.metric(name, 0.0);
        }
    }

    /// The result line; any missing or non-finite metric is a violation.
    fn json(&mut self, table: &[(&'static str, &str)]) -> String {
        let mut fields = Vec::new();
        for &(name, unit) in table {
            match self.metrics.get(name) {
                Some(v) if v.is_finite() => {
                    fields.push(format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
                }
                other => self.violations.push(format!("metric {name} is {other:?}")),
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.violations.is_empty(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Record `setup_s`, the median of the fresh set-ups' thread CPU times, and
/// print their spread as a diagnostic.
pub fn setup_metric(out: &mut Outcome, samples_ns: &[u64]) {
    let us = |p| percentile(samples_ns, p) as f64 / 1e3;
    println!(
        "diag: set-up cpu p10 {:.1} us, p50 {:.1} us, p90 {:.1} us over {} samples",
        us(10.0),
        us(50.0),
        us(90.0),
        samples_ns.len()
    );
    out.metric("setup_s", percentile(samples_ns, 50.0) as f64 / 1e9);
}

/// `Session::checkpoint` + `SessionCheckpoint::save` to `path`: returns
/// the wall milliseconds and the file's size.
pub fn checkpoint_session(
    session: &hbn_scenario::Session,
    path: &Path,
) -> Result<(f64, u64), String> {
    let t = std::time::Instant::now();
    session.checkpoint().save(path).map_err(|e| format!("checkpoint save failed: {e}"))?;
    let elapsed = t.elapsed().as_secs_f64() * 1e3;
    let bytes = std::fs::metadata(path).map_err(|e| format!("checkpoint stat failed: {e}"))?.len();
    Ok((elapsed, bytes))
}

/// The per-layer split of traced mirror passes. `counters` and the spans
/// cover `passes` passes; `dynamic` holds the dynamic strategy's counters
/// of one pass (`None` when the workload serves through a static one).
pub fn layer_metrics(
    out: &mut Outcome,
    tr: &Tracer,
    counters: &Counters,
    passes: u64,
    dynamic: Option<DynamicStats>,
) {
    let epoch_ns = tr.total_ns(Stage::Epoch).max(1) as f64;
    let share = |stage| tr.total_ns(stage) as f64 / epoch_ns;
    let per = |ns: u64, count: u64| if count == 0 { 0.0 } else { ns as f64 / count as f64 };
    let passes = passes.max(1) as f64;
    let c = counters;
    out.metric("workload.draw_share", share(Stage::Draw));
    out.metric("workload.draw_ns_per_request", per(tr.total_ns(Stage::Draw), c.requests));
    out.metric("core.replace_share", share(Stage::Replace));
    out.metric("core.replace_ms_p50", ms(percentile(&tr.durations_ns(Stage::Replace), 50.0)));
    out.metric("core.replacements", c.replacements as f64 / passes);
    out.metric("core.serve_share", share(Stage::StaticServe));
    out.metric("dynamic.serve_share", share(Stage::Serve));
    let stats = dynamic.unwrap_or_default();
    out.metric("dynamic.replications", stats.replications as f64);
    out.metric("dynamic.collapses", stats.collapses as f64);
    out.metric("load.snapshot_share", share(Stage::Snapshot));
    out.metric("load.accounting_share", share(Stage::Accounting));
    out.metric("load.touched_ratio", c.touched as f64 / c.scanned.max(1) as f64);
    out.metric("sim.replay_share", share(Stage::Replay));
    out.metric("sim.ns_per_slot", per(tr.total_ns(Stage::Replay), c.slots));
    out.metric("sim.ns_per_packet", per(tr.total_ns(Stage::Replay), c.packets));
    out.metric("sim.estimate_share", share(Stage::Estimate));
    out.metric("sim.exact_epochs", c.exact_epochs as f64 / passes);
    out.metric("sim.bracket_violations", c.bracket_violations as f64);
    out.metric("sim.makespan_slots", c.slots as f64 / passes);
    let gap = if c.estimated_epochs == 0 { 0.0 } else { c.gap_sum / c.estimated_epochs as f64 };
    out.metric("sim.estimate_gap", gap);
    let glue = tr.root_self_ns() + tr.total_ns(Stage::FaultView);
    out.metric("scenario.self_share", glue as f64 / epoch_ns);
    out.metric("trace.span_coverage", 1.0 - tr.root_self_ns() as f64 / epoch_ns);
    out.check(
        c.bracket_violations == 0,
        format!("{} mirrored epochs outside their estimator bracket", c.bracket_violations),
    );
}

/// Write the run's spans to `.bench_trace/<workload>-seed<seed>.tsv`
/// under the working directory.
pub fn write_spans(tr: &Tracer, workload: &str, seed: u64) {
    let path = PathBuf::from(".bench_trace").join(format!("{workload}-seed{seed}.tsv"));
    match tr.write_tsv(&path) {
        Ok(()) => println!("spans: {} written to {}", tr.spans.len(), path.display()),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
}

/// A directory unique to this run, for its checkpoint files; removed
/// when dropped.
struct RunDir(PathBuf);

impl RunDir {
    fn create(workload: &str) -> std::io::Result<RunDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir =
            PathBuf::from(".bench_tmp").join(format!("{workload}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using the parent.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) if !args.workload.is_empty() => args,
        Ok(_) => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run_dir = match RunDir::create(&args.workload) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("cannot create the run directory: {e}");
            std::process::exit(2);
        }
    };
    let shards = rayon::current_num_threads();
    println!(
        "host: available_parallelism {} serve_shards {shards} (library default 0 resolves to it) \
         profile {} git_rev {} workload {} seed {} seconds {} trace {}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        std::env::var("GIT_REV").unwrap_or_else(|_| "unknown".into()),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut out = match args.workload.as_str() {
        "replay-hotspot" => session_wl::run(session_wl::Kind::ReplayHotspot, &args, &run_dir.0),
        "static-churn" => session_wl::run(session_wl::Kind::StaticChurn, &args, &run_dir.0),
        "server-open-loop" => server_wl::run(&args, &run_dir.0),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            drop(run_dir);
            std::process::exit(2);
        }
    };
    drop(run_dir);
    let rss = host::peak_rss_mb();
    println!("diag: peak rss {rss:.3} MiB");
    if args.trace {
        out.metric("process.peak_rss_mb", rss);
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let line = out.json(table);
    for v in &out.violations {
        eprintln!("VIOLATION: {v}");
    }
    println!("{line}");
    if !out.violations.is_empty() {
        std::process::exit(1);
    }
}
