//! The two `Session` workloads: `replay-hotspot` (replay-bound) and
//! `static-churn` (placement-bound).
//!
//! A run repeats one fixed-size schedule for the given seed until the
//! time is up, with a fresh `Session` per repetition (the first is a
//! warm-up and is not timed). The schedule's size never depends on the
//! host's speed, so every simulated output is exact for the seed, and
//! every repetition must report the same thing.

use crate::host::{cpu_ns, thread_cpu_ns, HostProbe};
use crate::mirror::{Counters, EpochOut, Mirror};
use crate::trace::Tracer;
use crate::{ms, percentile, Args, Outcome};
use hbn_scenario::{
    ReplayKernel, ScenarioReport, ScenarioSpec, Session, StrategyKind, TopologyFamily,
};
use hbn_workload::{PhaseKind, PhaseSchedule, PhaseSpec};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ReplayHotspot,
    StaticChurn,
}

/// Replication threshold `D` of both workloads.
const THRESHOLD: u64 = 2;
const EPOCH_REQUESTS: usize = 2000;
/// `replay-hotspot`: requests of the zipf phase and of the hotspot phase.
/// Hotspot epochs are mostly leaf-local and several times cheaper than
/// zipf epochs; at 3:1 both epoch percentiles land inside the zipf
/// population instead of on the edge between the two.
const HOTSPOT_PHASES: [usize; 2] = [240_000, 80_000];
/// `static-churn`: requests of the zipf phase and of the churn phase.
/// With one re-placement every 8 of its 100 epochs, the 11 slowest
/// epochs are all re-placements, so the epoch p90 lands on one.
const CHURN_PHASES: [usize; 2] = [100_000, 100_000];
/// `static-churn`: exact-replay sampling period of the estimator, sparse
/// so that replay stays a small share and sampled epochs stay below the
/// p90 rank.
const CHURN_SAMPLE_EVERY: usize = 50;
/// Fresh set-ups timed back to back before each repetition; `setup_s`
/// is the median of all of them. One batch sees one moment of the host
/// and of the allocator, and both come in spells (50 or 80 µs per
/// set-up on `replay-hotspot`): batches spread over the run pool the
/// spells, so the median stays in the common one.
const SETUPS_PER_REP: usize = 10;

pub fn spec(kind: Kind, seed: u64) -> ScenarioSpec {
    let (name, topology, schedule, strategy, replay) = match kind {
        Kind::ReplayHotspot => (
            "replay-hotspot",
            TopologyFamily::Balanced { branching: 4, height: 3 },
            PhaseSchedule::new(
                256,
                vec![
                    PhaseSpec::new(
                        "zipf",
                        PhaseKind::StaticZipf { skew: 1.0, write_fraction: 0.1 },
                        HOTSPOT_PHASES[0],
                    ),
                    PhaseSpec::new(
                        "hotspot",
                        PhaseKind::HotspotMigration {
                            hot_objects: 8,
                            hot_fraction: 0.8,
                            migrate_every: 16_000,
                            write_fraction: 0.1,
                        },
                        HOTSPOT_PHASES[1],
                    ),
                ],
            ),
            StrategyKind::Dynamic,
            ReplayKernel::Workspace,
        ),
        Kind::StaticChurn => (
            "static-churn",
            TopologyFamily::Balanced { branching: 5, height: 3 },
            PhaseSchedule::new(
                20_000,
                vec![
                    PhaseSpec::new(
                        "zipf",
                        PhaseKind::StaticZipf { skew: 0.6, write_fraction: 0.3 },
                        CHURN_PHASES[0],
                    ),
                    PhaseSpec::new(
                        "churn",
                        PhaseKind::ObjectChurn { churn_every: 20, skew: 0.6, write_fraction: 0.3 },
                        CHURN_PHASES[1],
                    ),
                ],
            ),
            StrategyKind::PeriodicStatic { replace_every_epochs: 8 },
            ReplayKernel::Estimate { sample_every: CHURN_SAMPLE_EVERY },
        ),
    };
    let mut spec = ScenarioSpec::new(name, topology, schedule, THRESHOLD, seed);
    spec.strategy = strategy;
    spec.exec.replay = replay;
    spec.epoch_requests = EPOCH_REQUESTS;
    spec
}

/// One untraced pass over the schedule.
struct Rep {
    /// Wall time of each `step_epoch`.
    epoch_ns: Vec<u64>,
    /// Wall time of all epochs.
    loop_ns: u64,
    /// Wall time of `into_report`.
    report_ns: u64,
    /// Process CPU time of all epochs plus `into_report`.
    cpu_ns: u64,
    report: ScenarioReport,
    /// `(ms, bytes)` of `Session::checkpoint` + `SessionCheckpoint::save`
    /// of the end-of-run state, when asked for (not part of any wall).
    checkpoint: Option<(f64, u64)>,
}

fn run_rep(spec: &ScenarioSpec, checkpoint_to: Option<&Path>) -> Result<Rep, String> {
    let mut session = Session::new(spec);
    let mut epoch_ns = Vec::with_capacity(spec.schedule.total_requests() / EPOCH_REQUESTS + 1);
    let cpu0 = cpu_ns();
    let start = Instant::now();
    loop {
        let e0 = Instant::now();
        match session.step_epoch() {
            Ok(Some(_)) => epoch_ns.push(e0.elapsed().as_nanos() as u64),
            Ok(None) => break,
            Err(e) => return Err(format!("SimError at epoch {}: {e}", session.epoch_index())),
        }
    }
    let loop_ns = start.elapsed().as_nanos() as u64;
    let loop_cpu_ns = cpu_ns() - cpu0;
    let checkpoint = match checkpoint_to {
        Some(path) => Some(crate::checkpoint_session(&session, path)?),
        None => None,
    };
    let (r0, r0_cpu) = (Instant::now(), cpu_ns());
    let report = session.into_report();
    let report_ns = r0.elapsed().as_nanos() as u64;
    let busy_ns = loop_cpu_ns + cpu_ns() - r0_cpu;
    Ok(Rep { epoch_ns, loop_ns, report_ns, cpu_ns: busy_ns, report, checkpoint })
}

/// The correctness gates every report of a `Session` workload must pass.
fn check_report(spec: &ScenarioSpec, report: &ScenarioReport, out: &mut Outcome) {
    let d = spec.exec.threshold;
    let scheduled = spec.schedule.total_requests() as u64;
    out.check(
        report.traffic.requests == scheduled,
        format!("served {} requests of {scheduled} scheduled", report.traffic.requests),
    );
    out.check(
        report.traffic.reads + report.traffic.writes == report.traffic.requests,
        "reads + writes != requests".into(),
    );
    out.check(
        report.traffic.migration_traffic == report.traffic.replications * d,
        format!(
            "migration traffic {} != replications {} x D",
            report.traffic.migration_traffic, report.traffic.replications
        ),
    );
    let bad = report
        .epochs
        .iter()
        .position(|e| e.traffic.migration_traffic != e.traffic.replications * d);
    out.check(bad.is_none(), format!("epoch {bad:?}: migration traffic != replications x D"));
    out.check(
        report.estimate_violations == 0,
        format!("{} sampled epochs outside their estimator bracket", report.estimate_violations),
    );
    out.check(report.competitive_ratio.is_some(), "no competitive ratio".into());
}

/// CPU time of `SETUPS_PER_REP` fresh `Session::new` (network build
/// included), which runs on the calling thread.
fn time_setups(spec: &ScenarioSpec, samples: &mut Vec<u64>) {
    for _ in 0..SETUPS_PER_REP {
        let t = thread_cpu_ns();
        let session = Session::new(spec);
        samples.push(thread_cpu_ns() - t);
        black_box(session);
    }
}

pub fn run(kind: Kind, args: &Args, run_dir: &Path) -> Outcome {
    let spec = spec(kind, args.seed);
    let mut out = Outcome::default();
    println!(
        "workload: {} on {} with {}, replay {}, D={}, {} objects, {} requests in epochs of {}",
        spec.name,
        spec.topology,
        spec.strategy,
        spec.exec.replay,
        spec.exec.threshold,
        spec.schedule.max_objects(),
        spec.schedule.total_requests(),
        spec.epoch_requests
    );
    let probe = HostProbe::start();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    if args.trace {
        traced(&spec, deadline, run_dir, &mut out);
    } else {
        untraced(&spec, deadline, &mut out);
    }
    let (calib, stall) = probe.finish();
    if args.trace {
        out.metric("host.calib_ms", calib);
        out.metric("host.stall_ms", stall);
    }
    out
}

/// Repeat until the deadline: always a warm-up and one timed repetition,
/// then more while the next one is expected to finish in time.
fn keep_going(deadline: Instant, done: usize, last: Duration) -> bool {
    done < 2 || Instant::now() + last < deadline
}

fn untraced(spec: &ScenarioSpec, deadline: Instant, out: &mut Outcome) {
    let mut setup_ns = Vec::new();
    let mut reference: Option<ScenarioReport> = None;
    let (mut requests, mut wall_ns, mut busy_ns) = (0, 0, 0);
    let mut epoch_ns = Vec::new();
    let mut rep_ms = Vec::new();
    let mut done = 0;
    let mut last = Duration::ZERO;
    while keep_going(deadline, done, last) {
        let t = Instant::now();
        time_setups(spec, &mut setup_ns);
        let rep = match run_rep(spec, None) {
            Ok(rep) => rep,
            Err(e) => {
                out.check(false, e);
                return;
            }
        };
        last = t.elapsed();
        out.attempted += spec.schedule.total_requests() as u64;
        match &reference {
            None => {
                check_report(spec, &rep.report, out);
                reference = Some(rep.report);
            }
            Some(first) => {
                out.check(rep.report == *first, format!("repetition {done} reported differently"));
                requests += rep.report.traffic.requests;
                wall_ns += rep.loop_ns + rep.report_ns;
                busy_ns += rep.cpu_ns;
                rep_ms.push(format!(
                    "{:.1}/{:.1}",
                    ms(rep.cpu_ns),
                    ms(rep.loop_ns + rep.report_ns)
                ));
                epoch_ns.extend_from_slice(&rep.epoch_ns);
            }
        }
        done += 1;
    }
    let report = reference.expect("at least one repetition ran");
    println!("diag: repetition ms (cpu/wall) {}", rep_ms.join(" "));
    println!(
        "diag: {} timed repetitions, {} epochs; epoch p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms; \
         wall {:.0} requests/s; total makespan {} slots; estimate gap {:?}; stats {:?}",
        rep_ms.len(),
        epoch_ns.len(),
        ms(percentile(&epoch_ns, 50.0)),
        ms(percentile(&epoch_ns, 90.0)),
        ms(percentile(&epoch_ns, 99.0)),
        requests as f64 / (wall_ns as f64 / 1e9),
        report.total_makespan,
        report.estimate_gap,
        report.stats
    );
    // Requests over the CPU time of every timed repetition: CPU time
    // leaves out the spells in which the hypervisor runs another guest,
    // and a total averages over the host's slower spells where a median
    // of repetitions picks one.
    out.metric("requests_per_cpu_s", requests as f64 / (busy_ns as f64 / 1e9));
    crate::setup_metric(out, &setup_ns);
    out.metric("congestion", report.online_congestion.as_f64());
    out.metric("competitive_ratio", report.competitive_ratio.unwrap_or(0.0));
}

fn traced(spec: &ScenarioSpec, deadline: Instant, run_dir: &Path, out: &mut Outcome) {
    let mut tracer = Tracer::new();
    let mut counters = Counters::default();
    let mut untraced_ns = Vec::new();
    let mut traced_ns = Vec::new();
    let mut report_ns = Vec::new();
    let mut epoch_ns = Vec::new();
    let mut checkpoint = None;
    let mut last_report = None;
    let mut done = 0;
    let mut last = Duration::ZERO;
    while keep_going(deadline, done, last) {
        let t = Instant::now();
        let cp_path = run_dir.join(format!("{}.hbnc", spec.name));
        let rep = match run_rep(spec, checkpoint.is_none().then_some(cp_path.as_path())) {
            Ok(rep) => rep,
            Err(e) => {
                out.check(false, e);
                return;
            }
        };
        if done == 0 {
            check_report(spec, &rep.report, out);
        }
        checkpoint = checkpoint.or(rep.checkpoint);
        let mut mirror = Mirror::new(spec);
        // Counters accumulate over every pass, as the spans do.
        mirror.counters = std::mem::take(&mut counters);
        let m0 = Instant::now();
        let epochs = match mirror.run_schedule(&mut tracer) {
            Ok(epochs) => epochs,
            Err(e) => {
                out.check(false, format!("mirror SimError: {e}"));
                return;
            }
        };
        let mirror_ns = m0.elapsed().as_nanos() as u64;
        counters = mirror.counters;
        let expected: Vec<EpochOut> = rep.report.epochs.iter().map(EpochOut::of).collect();
        let first_diff = epochs.iter().zip(&expected).position(|(a, b)| a != b);
        out.check(
            epochs.len() == expected.len() && first_diff.is_none(),
            format!(
                "traced mirror diverges from Session: {} vs {} epochs, first difference at {:?}",
                epochs.len(),
                expected.len(),
                first_diff
            ),
        );
        out.attempted += spec.schedule.total_requests() as u64;
        if done > 0 {
            untraced_ns.push(rep.loop_ns);
            traced_ns.push(mirror_ns);
            report_ns.push(rep.report_ns);
            epoch_ns.extend_from_slice(&rep.epoch_ns);
        }
        last_report = Some(rep.report);
        last = t.elapsed();
        done += 1;
    }
    let report = last_report.expect("at least one repetition ran");
    let dynamic = (spec.strategy == StrategyKind::Dynamic).then_some(report.stats);
    crate::layer_metrics(out, &tracer, &counters, done as u64, dynamic);
    let (checkpoint_ms, checkpoint_bytes) = checkpoint.unwrap_or((0.0, 0));
    let overhead = percentile(&traced_ns, 50.0) as f64 / percentile(&untraced_ns, 50.0) as f64;
    out.metric("trace.overhead_share", overhead - 1.0);
    out.metric("scenario.report_s", percentile(&report_ns, 50.0) as f64 / 1e9);
    out.metric("scenario.epoch_p50_ms", ms(percentile(&epoch_ns, 50.0)));
    out.metric("scenario.epoch_p90_ms", ms(percentile(&epoch_ns, 90.0)));
    out.metric("durable.checkpoint_ms", checkpoint_ms);
    out.metric("durable.checkpoint_bytes", checkpoint_bytes as f64);
    out.zero(&[
        "server.admit_us_p50",
        "server.ingest_p50_ms",
        "server.latency_p50_ms",
        "server.latency_p90_ms",
        "server.queue_depth_p90",
        "server.degraded_share",
        "server.rejected",
        "server.deadline_shed",
        "gen.lag_p90_ms",
    ]);
    crate::write_spans(&tracer, &spec.name, spec.seed);
}
