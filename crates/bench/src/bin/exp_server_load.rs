//! EXP-SERVER — service-level goodput, shedding, and recovery of the
//! supervised multi-tenant front end (`hbn-server`).
//!
//! **Phase 1 — offered-load sweep.** One client thread per tenant holds
//! a window of `W` submissions open, with batch sizes drawn from the
//! open-loop Poisson arrival process ([`hbn_workload::OpenLoopArrivals`]).
//! The windows sweep from below the admission high-water mark to past
//! the queue capacity, so one run shows the whole admission story:
//! exact replay when lightly loaded, estimator degradation past the
//! high-water mark, `QueueFull` rejections past capacity — which the
//! clients absorb with capped exponential backoff + jitter. The
//! headline gate is *graceful degradation*: the heaviest window must
//! keep at least half of the peak goodput.
//!
//! **Phase 2 — supervised recovery drills.** A single tenant with a
//! live fault-plan outage is served batch by batch; mid-outage the
//! worker is killed and the supervisor restores it from the last
//! durable checkpoint, replaying the journal tail. Every drill asserts
//! the final report equals an unbroken twin session bit for bit, and
//! records crash-to-recovered wall time (p50/p99 in the document).
//!
//! Emits `BENCH_server.json`; `HBN_EXP_QUICK=1` runs the same windows
//! and drills at CI-sized volumes.

#![warn(missing_docs)]

use hbn_bench::{exp_quick, fatal, per_sec, root_adjacent_bus, write_bench, Obj, Table};
use hbn_dynamic::OnlineRequest;
use hbn_scenario::{FaultPlan, ScenarioSpec, Session, TopologyFamily};
use hbn_server::{percentile, Rejected, Server, ServerConfig, TenantMetrics, Ticket};
use hbn_topology::NodeId;
use hbn_workload::{ObjectId, OpenLoopArrivals, PhaseSchedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The tenants served concurrently in every load window.
const TENANTS: [&str; 2] = ["tenant-balanced", "tenant-star"];
/// Live objects per tenant.
const OBJECTS: usize = 16;
/// Replication / migration charge `D`.
const THRESHOLD: u64 = 2;
/// Server-side deadline given to every submission.
const DEADLINE: Duration = Duration::from_secs(2);
/// First backoff after a `QueueFull` rejection, microseconds.
const BACKOFF_BASE_MICROS: u64 = 100;
/// Backoff doublings cap: 100µs · 2⁶ = 6.4ms ceiling before jitter.
const BACKOFF_CAP_DOUBLINGS: u32 = 6;

/// (batches per tenant per window, mean requests per batch).
fn volumes() -> (usize, f64) {
    if exp_quick() {
        (48, 60.0)
    } else {
        (240, 240.0)
    }
}

/// (recovery drills, epochs per drill, requests per epoch).
fn drill_volumes() -> (usize, usize, usize) {
    if exp_quick() {
        (3, 8, 120)
    } else {
        (8, 16, 600)
    }
}

/// The sweep: window label → submissions each client holds open,
/// relative to high-water 8 / capacity 32.
fn windows() -> Vec<(&'static str, usize)> {
    vec![
        ("0.5x-high-water", 4),
        ("1x-high-water", 8),
        ("2x-high-water", 16),
        ("beyond-capacity", 40),
    ]
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hbn-server-load-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn load_cfg(tag: &str) -> ServerConfig {
    let mut cfg = ServerConfig::new(scratch(tag));
    cfg.queue_capacity = 32;
    cfg.high_water = 8;
    cfg.low_water = 2;
    cfg.watchdog_poll = Duration::from_millis(50);
    cfg
}

fn tenant_spec(name: &str, seed: u64) -> ScenarioSpec {
    let family = if seed.is_multiple_of(2) {
        TopologyFamily::Balanced { branching: 3, height: 2 }
    } else {
        TopologyFamily::Star { processors: 6, bus_bandwidth: 2 }
    };
    ScenarioSpec::new(name, family, PhaseSchedule::new(OBJECTS, vec![]), THRESHOLD, seed)
}

fn random_batch(rng: &mut StdRng, procs: &[NodeId], len: usize) -> Vec<OnlineRequest> {
    (0..len)
        .map(|_| OnlineRequest {
            processor: procs[rng.gen_range(0..procs.len())],
            object: ObjectId(rng.gen_range(0..OBJECTS as u32)),
            is_write: rng.gen_bool(0.25),
        })
        .collect()
}

/// Resolve the oldest ticket; deadline sheds are an expected outcome
/// under overload, anything else rejected here is a harness bug.
fn settle(ticket: Ticket) {
    match ticket.wait() {
        Ok(_) | Err(Rejected::DeadlineExpired) => {}
        Err(e) => panic!("unexpected rejection while settling: {e}"),
    }
}

/// Drive one tenant for a window: `batches` submissions with at most
/// `outstanding` open, Poisson batch sizes, and capped exponential
/// backoff + jitter on `QueueFull`. Returns client-side retries.
fn drive_tenant(server: &Server, tenant: &str, outstanding: usize, seed: u64) -> usize {
    let (batches, rate) = volumes();
    let procs = server.processors(tenant).expect("tenant exists");
    let mut arrivals = OpenLoopArrivals::new(seed, rate);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut pending: VecDeque<Ticket> = VecDeque::new();
    let mut retries = 0usize;
    let mut tick = 0.0f64;
    for _ in 0..batches {
        tick += 1.0;
        let len = arrivals.arrivals_until(tick).max(1);
        let batch = random_batch(&mut rng, &procs, len);
        let mut attempt = 0u32;
        loop {
            match server.submit(tenant, batch.clone(), Some(DEADLINE)) {
                Ok(ticket) => {
                    pending.push_back(ticket);
                    break;
                }
                Err(Rejected::QueueFull { .. }) => {
                    retries += 1;
                    let base = BACKOFF_BASE_MICROS << attempt.min(BACKOFF_CAP_DOUBLINGS);
                    let jitter = rng.gen_range(0..=base / 2);
                    std::thread::sleep(Duration::from_micros(base + jitter));
                    attempt += 1;
                }
                Err(e) => panic!("unexpected rejection at admission: {e}"),
            }
        }
        while pending.len() >= outstanding {
            settle(pending.pop_front().expect("window not empty"));
        }
    }
    for ticket in pending {
        settle(ticket);
    }
    retries
}

/// Phase 1, one offered-load window: the tenants' metrics summed into
/// one, the client-side retries, and the window's wall-clock seconds.
fn load_window(window: &str, outstanding: usize) -> (TenantMetrics, usize, f64) {
    let server = Server::new(load_cfg(window)).expect("scratch checkpoint dir");
    for (i, name) in TENANTS.iter().enumerate() {
        server.add_tenant(tenant_spec(name, 9000 + i as u64));
    }
    let start = Instant::now();
    let retries: usize = std::thread::scope(|s| {
        let handles: Vec<_> = TENANTS
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let server = &server;
                s.spawn(move || drive_tenant(server, name, outstanding, 77 + i as u64))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).sum()
    });
    let wall = start.elapsed().as_secs_f64();

    let mut total = TenantMetrics::default();
    for name in TENANTS {
        let m = server.metrics(name).expect("tenant exists");
        total.accepted += m.accepted;
        total.rejected_full += m.rejected_full;
        total.deadline_shed += m.deadline_shed;
        total.served += m.served;
        total.degraded_epochs += m.degraded_epochs;
        total.ingest_micros.extend(m.ingest_micros);
    }
    server.shutdown();
    (total, retries, wall)
}

/// Phase 2: supervised crash-recovery drills under a live outage, each
/// asserted bit-for-bit against an unbroken twin session. Adds one row
/// per drill to `t`; returns the drills' cells and recovery microseconds.
fn recovery_drills(t: &mut Table) -> (Vec<Obj>, Vec<u64>) {
    let (drills, epochs, requests) = drill_volumes();
    let mut cells = Vec::new();
    let mut micros = Vec::new();
    for drill in 0..drills {
        let topology = TopologyFamily::Balanced { branching: 3, height: 2 };
        let bus = root_adjacent_bus(&topology.build());
        // The worker dies while this outage is active, so the restored
        // checkpoint carries healed copy sets and overlay state.
        let outage_from = 2;
        let outage_to = epochs - 1;
        let kill_epoch = outage_from + 1 + drill % (outage_to - outage_from - 1);
        let schedule = PhaseSchedule::new(OBJECTS, vec![]);
        let seed = 8100 + drill as u64;
        let spec = ScenarioSpec {
            faults: FaultPlan::single_outage(bus, outage_from, outage_to),
            ..ScenarioSpec::new(format!("drill-{drill}"), topology, schedule, THRESHOLD, seed)
        };

        // Deterministic supervision: the watchdog cadence is disabled
        // and checkpoint/recover are driven explicitly.
        let mut cfg = load_cfg(&format!("drill{drill}"));
        cfg.watchdog_poll = Duration::from_secs(3600);
        let server = Server::new(cfg).expect("scratch checkpoint dir");
        server.add_tenant(spec.clone());
        let procs = server.processors(&spec.name).expect("tenant exists");
        let mut rng = StdRng::seed_from_u64(4242 + drill as u64);
        let mut batches: Vec<Vec<OnlineRequest>> = Vec::new();
        for epoch in 0..epochs {
            if epoch == kill_epoch {
                server.inject_crash(&spec.name).expect("tenant exists");
                let dead_by = Instant::now() + Duration::from_secs(30);
                while server.worker_alive(&spec.name).expect("tenant exists") {
                    assert!(Instant::now() < dead_by, "worker outlived an injected crash");
                    std::thread::sleep(Duration::from_millis(1));
                }
                server.recover_now(&spec.name).expect("supervised recovery");
            } else if epoch > 0 && epoch.is_multiple_of(2) {
                server.checkpoint_now(&spec.name).expect("durable checkpoint");
            }
            let batch = random_batch(&mut rng, &procs, requests);
            batches.push(batch.clone());
            let outcome =
                server.submit(&spec.name, batch, None).expect("admission").wait().expect("served");
            assert_eq!(outcome.epoch, epoch, "epochs must stay contiguous across recovery");
        }
        let m = server.metrics(&spec.name).expect("tenant exists");
        assert_eq!(m.restarts, 1, "exactly one supervised restart per drill");
        let report = server.report(&spec.name).expect("tenant healthy");
        server.shutdown();

        // The unbroken twin: same spec, same batches, no crash.
        let mut twin = Session::new(&spec);
        for batch in &batches {
            twin.push_epoch(batch).expect("twin replay");
        }
        let expected = twin.into_report();
        let restored_equal = report == expected;
        assert!(restored_equal, "drill {drill}: recovered report diverged from unbroken twin");

        let scenario = format!("{}@{}", spec.name, "balanced(3,2)");
        let recovery_epochs = *m.recovery_epochs.last().expect("one recovery recorded");
        let recovery_micros = *m.recovery_micros.last().expect("one recovery recorded");
        t.row([
            scenario.clone(),
            expected.strategy.clone(),
            kill_epoch.to_string(),
            epochs.to_string(),
            recovery_epochs.to_string(),
            recovery_micros.to_string(),
        ]);
        cells.push(
            Obj::new()
                .str("scenario", &scenario)
                .str("strategy", &expected.strategy)
                .raw("kill_epoch", kill_epoch)
                .raw("epochs_total", epochs)
                .raw("restored_equal", restored_equal)
                .raw("recovery_epochs", recovery_epochs)
                .raw("recovery_micros", recovery_micros),
        );
        micros.push(recovery_micros);
    }
    (cells, micros)
}

fn main() {
    let (batches, rate) = volumes();
    println!(
        "EXP-SERVER — multi-tenant service under offered-load sweep + supervised\n\
         recovery drills: {} batches/tenant/window at mean {rate:.0} req/batch{}\n\
         (panic backtraces in the drill phase are the injected crashes)\n",
        batches,
        if exp_quick() { " (HBN_EXP_QUICK)" } else { "" }
    );

    let mut t = Table::new([
        "window",
        "outstanding",
        "offered",
        "served",
        "rejected",
        "shed%",
        "degraded",
        "retries",
        "sessions/s",
        "p50 (µs)",
        "p99 (µs)",
    ]);
    let mut windows_json = Vec::new();
    let mut goodput = Vec::new();
    for (window, outstanding) in windows() {
        let (m, retries, wall) = load_window(window, outstanding);
        let offered = m.accepted + m.rejected_full;
        let sessions_per_sec = per_sec(m.served as usize, wall);
        let p50 = percentile(&m.ingest_micros, 50.0);
        let p99 = percentile(&m.ingest_micros, 99.0);
        t.row([
            window.to_string(),
            outstanding.to_string(),
            offered.to_string(),
            m.served.to_string(),
            m.rejected_full.to_string(),
            format!("{:.1}", m.shed_fraction() * 100.0),
            m.degraded_epochs.to_string(),
            retries.to_string(),
            format!("{sessions_per_sec:.0}"),
            p50.to_string(),
            p99.to_string(),
        ]);
        windows_json.push(
            Obj::new()
                .str("window", window)
                .raw("tenants", TENANTS.len())
                .raw("outstanding", outstanding)
                .raw("offered", offered)
                .raw("served", m.served)
                .raw("rejected_full", m.rejected_full)
                .raw("deadline_shed", m.deadline_shed)
                .raw("degraded_epochs", m.degraded_epochs)
                .raw("retries", retries)
                .f64("wall_seconds", wall)
                .f64("sessions_per_sec", sessions_per_sec)
                .f64("shed_fraction", m.shed_fraction())
                .raw("ingest_p50_micros", p50)
                .raw("ingest_p99_micros", p99),
        );
        goodput.push(sessions_per_sec);
    }
    println!("{}", t.render());

    let peak = goodput.iter().copied().fold(0.0f64, f64::max);
    let overload = goodput.last().copied().unwrap_or(0.0);
    println!(
        "goodput at heaviest window: {overload:.0}/s vs peak {peak:.0}/s — \
         overload sheds at admission, it must not collapse\n"
    );
    if overload < 0.5 * peak {
        fatal("goodput collapsed under overload (>50% below peak)");
    }

    let mut t = Table::new(["drill", "strategy", "kill@", "epochs", "replayed", "recovery (µs)"]);
    let (drills, micros) = recovery_drills(&mut t);
    println!("{}", t.render());
    let (p50, p99) = (percentile(&micros, 50.0), percentile(&micros, 99.0));
    println!(
        "every drill recovered bit-for-bit from the last durable checkpoint; \
         crash-to-recovered p50 {p50}µs, p99 {p99}µs\n"
    );

    // Every drill asserted its restore exact, and a collapsed overload
    // window exited above.
    let head = Obj::new()
        .raw("all_restores_exact", true)
        .raw("graceful_under_overload", true)
        .raw("recovery_p50_micros", p50)
        .raw("recovery_p99_micros", p99);
    let counts = (windows_json.len(), drills.len());
    let sections = [("load_windows", windows_json), ("recovery_drills", drills)];
    write_bench("BENCH_server.json", "server", &head, &sections).expect("write BENCH_server.json");
    println!("wrote BENCH_server.json ({} windows, {} drills)", counts.0, counts.1);
}
