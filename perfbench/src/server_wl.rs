//! `server-open-loop`: one `hbn-server` tenant under a seeded open loop.
//!
//! The whole schedule (Poisson arrivals at one fixed rate, Poisson batch
//! sizes) is generated from the seed before timing starts. One sender
//! thread sleeps until each batch is due and submits it; the calling
//! thread collects tickets in FIFO order, so completions are stamped as
//! they happen. Latency runs from a batch's *due* time to its response:
//! a stall counts against every batch it delays.
//!
//! No simulated output whose value depends on the degrade hysteresis is
//! reported end to end: congestion and the competitive ratio come from
//! the strategy's charged loads and the aggregate matrix, which depend
//! only on the served requests, never on the replay mode.

use crate::host::{cpu_ns, splitmix, thread_cpu_ns, unit, HostProbe};
use crate::mirror::{EpochOut, Mirror};
use crate::trace::Tracer;
use crate::{ms, percentile, Args, Outcome};
use hbn_scenario::{ReplayKernel, ScenarioReport, ScenarioSpec, Session, TopologyFamily};
use hbn_server::{EpochOutcome, OnlineRequest, Rejected, ServeMode, Server, ServerConfig, Ticket};
use hbn_topology::NodeId;
use hbn_workload::{ObjectId, PhaseSchedule};
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const TENANT: &str = "tenant";
/// Offered load: about a quarter of the tenant's capacity on a 2-vCPU
/// host. Fixed, never searched: a stepped rate search lands on
/// different steps from run to run.
const BATCHES_PER_S: f64 = 100.0;
const MEAN_BATCH: f64 = 400.0;
const OBJECTS: usize = 64;
const WRITE_FRACTION: f64 = 0.4;
/// Fresh `Server::new` + `add_tenant` set-ups timed back to back when
/// the run starts; `setup_s` is their median. Split before and after the
/// open loop instead, the median moved more between runs.
const SETUP_SAMPLES: usize = 100;
/// Gap between the end of set-up and the first due time.
const LEAD: Duration = Duration::from_millis(50);

fn spec() -> ScenarioSpec {
    let topology = TopologyFamily::Balanced { branching: 4, height: 3 };
    ScenarioSpec::new(TENANT, topology, PhaseSchedule::new(OBJECTS, vec![]), 2, 0)
}

/// Exponential draw of the given rate.
fn exp(state: &mut u64, rate: f64) -> f64 {
    -(1.0 - unit(state)).ln() / rate
}

/// The seeded schedule: `(due offset, batch)` for `BATCHES_PER_S x
/// seconds` batches. The count is fixed, not the span, so the offered
/// volume (and with it the congestion) does not swing with the seed.
fn plan(seed: u64, seconds: u64, procs: &[NodeId]) -> Vec<(Duration, Vec<OnlineRequest>)> {
    let mut state = seed ^ 0x5eed_f00d_b0b5;
    let count = (BATCHES_PER_S * seconds as f64) as usize;
    let mut out = Vec::with_capacity(count);
    let mut t = exp(&mut state, BATCHES_PER_S);
    while out.len() < count {
        // Poisson(MEAN_BATCH): unit-time arrivals of a rate-MEAN_BATCH process.
        let mut n = 0usize;
        let mut clock = exp(&mut state, MEAN_BATCH);
        while clock < 1.0 {
            n += 1;
            clock += exp(&mut state, MEAN_BATCH);
        }
        let batch = (0..n.max(1))
            .map(|_| OnlineRequest {
                processor: procs[(splitmix(&mut state) % procs.len() as u64) as usize],
                object: ObjectId((splitmix(&mut state) % OBJECTS as u64) as u32),
                is_write: unit(&mut state) < WRITE_FRACTION,
            })
            .collect();
        out.push((Duration::from_secs_f64(t), batch));
        t += exp(&mut state, BATCHES_PER_S);
    }
    out
}

/// What happened to one planned batch.
struct Record {
    due: Instant,
    /// When the sender called `submit`, and when it returned.
    submit: Instant,
    admitted: Instant,
    /// When the collector saw the ticket resolve (or the refusal), and
    /// the process CPU time then.
    done: Instant,
    done_cpu: u64,
    result: Result<EpochOutcome, Rejected>,
    /// Whether `submit` accepted the batch.
    was_admitted: bool,
}

fn open_loop(
    server: &Server,
    plan: Vec<(Duration, Vec<OnlineRequest>)>,
    origin: Instant,
) -> Vec<Record> {
    struct Sent {
        due: Instant,
        submit: Instant,
        admitted: Instant,
        ticket: Result<Ticket, Rejected>,
    }
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut records = Vec::with_capacity(plan.len());
    std::thread::scope(|s| {
        s.spawn(move || {
            for (offset, batch) in plan {
                let due = origin + offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let submit = Instant::now();
                let ticket = server.submit(TENANT, batch, None);
                let admitted = Instant::now();
                if tx.send(Sent { due, submit, admitted, ticket }).is_err() {
                    return;
                }
            }
        });
        for sent in rx {
            let (result, was_admitted) = match sent.ticket {
                Ok(ticket) => (ticket.wait(), true),
                Err(refused) => (Err(refused), false),
            };
            records.push(Record {
                due: sent.due,
                submit: sent.submit,
                admitted: sent.admitted,
                done: Instant::now(),
                done_cpu: cpu_ns(),
                result,
                was_admitted,
            });
        }
    });
    records
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// The replay override a served epoch ran under: the server's own
/// mode-to-kernel mapping is private to its crate.
fn replay_of(mode: ServeMode, cfg: &ServerConfig) -> Option<ReplayKernel> {
    match mode {
        ServeMode::Exact => None,
        ServeMode::Degraded => {
            Some(ReplayKernel::Estimate { sample_every: cfg.degraded_sample_every })
        }
    }
}

/// CPU time of the calling thread over `SETUP_SAMPLES` fresh `Server::new`
/// + `add_tenant`: the worker and watchdog threads they spawn are left
/// out, as their start-up overlaps the measurement only some of the time.
fn time_setups(spec: &ScenarioSpec, run_dir: &Path) -> Result<Vec<u64>, String> {
    let mut samples = Vec::with_capacity(SETUP_SAMPLES);
    for _ in 0..SETUP_SAMPLES {
        let cfg = ServerConfig::new(run_dir.join(format!("setup-{}", samples.len())));
        let t = thread_cpu_ns();
        let server = Server::new(cfg).map_err(|e| format!("Server::new failed: {e}"))?;
        server.add_tenant(spec.clone());
        samples.push(thread_cpu_ns() - t);
        server.shutdown();
    }
    Ok(samples)
}

pub fn run(args: &Args, run_dir: &Path) -> Outcome {
    let spec = spec();
    let mut out = Outcome::default();
    let probe = HostProbe::start();
    let setup_ns = match time_setups(&spec, run_dir) {
        Ok(samples) => samples,
        Err(e) => {
            out.check(false, e);
            return out;
        }
    };

    let procs = spec.build_network().processors().to_vec();
    let plan = plan(args.seed, args.seconds, &procs);
    let batches: Vec<Vec<OnlineRequest>> = plan.iter().map(|(_, b)| b.clone()).collect();
    let offered: usize = batches.iter().map(Vec::len).sum();
    println!(
        "workload: {} batches, {offered} requests over {} s ({BATCHES_PER_S} batches/s, mean \
         batch {MEAN_BATCH}, {OBJECTS} objects, {WRITE_FRACTION} writes) to one tenant on {} \
         with {}",
        batches.len(),
        args.seconds,
        spec.topology,
        spec.strategy
    );

    let cfg = ServerConfig::new(run_dir.join("server"));
    let server = match Server::new(cfg.clone()) {
        Ok(server) => server,
        Err(e) => {
            out.check(false, format!("Server::new failed: {e}"));
            return out;
        }
    };
    server.add_tenant(spec.clone());
    let loop_cpu = cpu_ns();
    let origin = Instant::now() + LEAD;
    let records = open_loop(&server, plan, origin);
    let metrics = server.metrics(TENANT).expect("the tenant exists");
    let reports = server.shutdown();

    // Gates: every admitted batch resolves; served epochs are numbered in
    // submission order.
    out.attempted = batches.len() as u64;
    let mut served: Vec<(usize, &EpochOutcome)> = Vec::new();
    let mut admitted = 0u64;
    for (idx, r) in records.iter().enumerate() {
        admitted += u64::from(r.was_admitted);
        match &r.result {
            Ok(outcome) => served.push((idx, outcome)),
            Err(Rejected::DeadlineExpired) => out.failed += 1,
            Err(e) if r.was_admitted => {
                out.failed += 1;
                out.check(false, format!("admitted batch {idx} did not resolve: {e}"));
            }
            Err(_) => out.failed += 1,
        }
    }
    out.check(
        records.len() == batches.len(),
        format!("{} of {} batches were answered", records.len(), batches.len()),
    );
    let misnumbered = served.iter().enumerate().position(|(k, (_, o))| o.epoch != k);
    out.check(misnumbered.is_none(), format!("served epoch {misnumbered:?} out of order"));
    out.check(
        metrics.accepted == admitted && metrics.served == served.len() as u64,
        format!(
            "server counted {} admitted / {} served, client saw {admitted} / {}",
            metrics.accepted,
            metrics.served,
            served.len()
        ),
    );
    let report = match reports.as_slice() {
        [(_, report)] => report.clone(),
        _ => {
            out.check(false, format!("shutdown returned {} reports", reports.len()));
            return out;
        }
    };

    // The twin: a plain Session fed the served batches in epoch order,
    // each under its recorded mode, must reproduce the tenant exactly.
    let mut twin = Session::new(&spec);
    let t0 = Instant::now();
    for &(idx, outcome) in &served {
        twin.set_replay_override(replay_of(outcome.mode, &cfg));
        match twin.push_epoch(&batches[idx]) {
            Ok(summary) => out.check(
                summary == outcome.summary,
                format!("twin epoch {} differs from the served one", outcome.epoch),
            ),
            Err(e) => out.check(false, format!("twin SimError at epoch {}: {e}", outcome.epoch)),
        }
    }
    let twin_ns = ns(t0.elapsed());

    let latency: Vec<u64> =
        served.iter().map(|&(i, _)| ns(records[i].done - records[i].due)).collect();
    let lag: Vec<u64> =
        records.iter().map(|r| ns(r.submit.saturating_duration_since(r.due))).collect();
    let depth: Vec<u64> = served.iter().map(|(_, o)| o.queue_depth as u64).collect();
    println!(
        "diag: {} served, {} failed; latency p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms over {} \
         samples; sender lag p90 {:.3} ms; queue depth p90 {}; degraded epochs {}",
        served.len(),
        out.failed,
        ms(percentile(&latency, 50.0)),
        ms(percentile(&latency, 90.0)),
        ms(percentile(&latency, 99.0)),
        latency.len(),
        ms(percentile(&lag, 90.0)),
        percentile(&depth, 90.0),
        metrics.degraded_epochs
    );

    if args.trace {
        let cp_path = run_dir.join("tenant-end.hbnc");
        let (checkpoint_ms, checkpoint_bytes) = match crate::checkpoint_session(&twin, &cp_path) {
            Ok(cp) => cp,
            Err(e) => {
                out.check(false, e);
                (0.0, 0)
            }
        };
        let r0 = Instant::now();
        let twin_report = twin.into_report();
        let report_s = r0.elapsed().as_secs_f64();
        out.check(twin_report == report, "tenant report differs from its twin's".into());
        if let Some((tracer, mirror_ns)) = traced(&mut out, &spec, &cfg, &report, &served, &batches)
        {
            out.metric("trace.overhead_share", mirror_ns as f64 / twin_ns.max(1) as f64 - 1.0);
            crate::write_spans(&tracer, "server-open-loop", args.seed);
        }
        let admit: Vec<u64> = records.iter().map(|r| ns(r.admitted - r.submit)).collect();
        out.metric("server.admit_us_p50", percentile(&admit, 50.0) as f64 / 1e3);
        out.metric("server.ingest_p50_ms", percentile(&metrics.ingest_micros, 50.0) as f64 / 1e3);
        out.metric("server.latency_p50_ms", ms(percentile(&latency, 50.0)));
        out.metric("server.latency_p90_ms", ms(percentile(&latency, 90.0)));
        out.zero(&["scenario.epoch_p50_ms", "scenario.epoch_p90_ms"]);
        out.metric("server.queue_depth_p90", percentile(&depth, 90.0) as f64);
        let degraded = metrics.degraded_epochs as f64 / metrics.served.max(1) as f64;
        out.metric("server.degraded_share", degraded);
        out.metric("server.rejected", metrics.rejected_full as f64);
        out.metric("server.deadline_shed", metrics.deadline_shed as f64);
        out.metric("gen.lag_p90_ms", ms(percentile(&lag, 90.0)));
        out.metric("scenario.report_s", report_s);
        out.metric("durable.checkpoint_ms", checkpoint_ms);
        out.metric("durable.checkpoint_bytes", checkpoint_bytes as f64);
    } else {
        out.check(twin.into_report() == report, "tenant report differs from its twin's".into());
        // Requests over the process CPU time the run spent on them: the
        // CPU used between two responses is charged to the later one, and
        // only epochs replayed exactly count, so an epoch the queue-depth
        // hysteresis degraded to the estimator (cheaper, and timing-
        // dependent) moves neither side. CPU time leaves out the spells in
        // which the hypervisor runs another guest.
        let (mut busy_ns, mut requests, mut prev) = (0, 0, loop_cpu);
        for r in &records {
            if let Ok(outcome) = &r.result {
                if outcome.mode == ServeMode::Exact {
                    busy_ns += r.done_cpu - prev;
                    requests += outcome.summary.traffic.requests;
                }
            }
            prev = r.done_cpu;
        }
        println!(
            "diag: {requests} requests in exact epochs over {:.1} ms of process CPU",
            ms(busy_ns)
        );
        out.metric("requests_per_cpu_s", requests as f64 / (busy_ns.max(1) as f64 / 1e9));
        crate::setup_metric(&mut out, &setup_ns);
        out.metric("congestion", report.online_congestion.as_f64());
        out.metric("competitive_ratio", report.competitive_ratio.unwrap_or(0.0));
    }
    let (calib, stall) = probe.finish();
    if args.trace {
        out.metric("host.calib_ms", calib);
        out.metric("host.stall_ms", stall);
    }
    out
}

/// The service-time split: push the served batches through the traced
/// mirror, each under its recorded mode, and check it against the
/// served summaries. Returns the spans and the mirror's wall time.
fn traced(
    out: &mut Outcome,
    spec: &ScenarioSpec,
    cfg: &ServerConfig,
    report: &ScenarioReport,
    served: &[(usize, &EpochOutcome)],
    batches: &[Vec<OnlineRequest>],
) -> Option<(Tracer, u64)> {
    let mut tracer = Tracer::new();
    let mut mirror = Mirror::new(spec);
    let t0 = Instant::now();
    for &(idx, outcome) in served {
        let replay = replay_of(outcome.mode, cfg).unwrap_or(spec.exec.replay);
        match mirror.push(&mut tracer, &batches[idx], replay) {
            Ok(epoch) => out.check(
                epoch == EpochOut::of(&outcome.summary),
                format!("traced mirror diverges from the server at epoch {}", outcome.epoch),
            ),
            Err(e) => {
                out.check(false, format!("mirror SimError at epoch {}: {e}", outcome.epoch));
                return None;
            }
        }
    }
    let mirror_ns = ns(t0.elapsed());
    crate::layer_metrics(out, &tracer, &mirror.counters, 1, Some(report.stats));
    Some((tracer, mirror_ns))
}
