//! Service-layer robustness: admission control, deadlines, graceful
//! degradation with hysteresis, and supervised crash recovery that is
//! bit-for-bit indistinguishable from an unbroken run.
//!
//! The deterministic tests disable the watchdog cadence (a very long
//! poll) and drive every supervision step explicitly through
//! `checkpoint_now` / `recover_now`, so nothing here depends on timing.

use std::path::PathBuf;
use std::time::Duration;

use proptest::prelude::*;

use hbn_dynamic::OnlineRequest;
use hbn_scenario::{FaultPlan, ScenarioSpec, Session, TopologyFamily};
use hbn_server::{Rejected, ServeMode, Server, ServerConfig};
use hbn_topology::NodeId;
use hbn_workload::{ObjectId, PhaseSchedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An empty directory of this test process's own: the target's temp dir
/// is shared by every `cargo test` run of the target dir (debug and
/// release alike), so the process id keeps concurrent runs apart.
fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("server-{}", std::process::id()))
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const OBJECTS: usize = 8;

fn tenant_spec(name: &str) -> ScenarioSpec {
    let topology = TopologyFamily::Balanced { branching: 3, height: 2 };
    ScenarioSpec::new(name, topology, PhaseSchedule::new(OBJECTS, vec![]), 2, 7)
}

/// A spec whose fault plan takes a bus down across epochs 2..4.
fn faulty_spec(name: &str) -> ScenarioSpec {
    let net = TopologyFamily::Balanced { branching: 3, height: 2 }.build();
    let bus = *net.children(net.root()).iter().find(|&&v| net.is_bus(v)).unwrap();
    ScenarioSpec { faults: FaultPlan::single_outage(bus, 2, 4), ..tenant_spec(name) }
}

fn batch(procs: &[NodeId], seed: u64, len: usize) -> Vec<OnlineRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| OnlineRequest {
            processor: procs[rng.gen_range(0..procs.len())],
            object: ObjectId(rng.gen_range(0..OBJECTS as u32)),
            is_write: rng.gen_bool(0.25),
        })
        .collect()
}

/// A config whose watchdog never fires on its own.
fn manual_cfg(dir: &str) -> ServerConfig {
    let mut cfg = ServerConfig::new(tmp(dir));
    cfg.watchdog_poll = Duration::from_secs(3600);
    cfg
}

/// Inject a crash and wait until the worker thread is observably dead,
/// so a following `recover_now` cannot race the panic unwind.
fn crash_worker(server: &Server, tenant: &str) {
    server.inject_crash(tenant).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while server.worker_alive(tenant).unwrap() {
        assert!(
            std::time::Instant::now() < deadline,
            "worker '{tenant}' still alive 30s after an injected crash \
             (metrics: {:?})",
            server.metrics(tenant)
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// `Ticket::wait` with a generous timeout that fails loudly (with the
/// tenant's state) instead of deadlocking the suite on a bug.
fn wait_on(server: &Server, tenant: &str, ticket: hbn_server::Ticket) -> hbn_server::EpochOutcome {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let mut t = ticket;
    loop {
        match t.try_wait() {
            Ok(r) => return r.unwrap(),
            Err(back) => {
                if std::time::Instant::now() > deadline {
                    panic!(
                        "ticket unresolved after 30s: tenant {tenant}, depth {:?}, alive {:?}, metrics {:?}",
                        server.queue_depth(tenant),
                        server.worker_alive(tenant),
                        server.metrics(tenant)
                    );
                }
                std::thread::sleep(Duration::from_millis(1));
                t = back;
            }
        }
    }
}

#[test]
fn admission_rejects_past_capacity_and_recovery_serves_the_backlog() {
    let mut cfg = manual_cfg("admission");
    cfg.queue_capacity = 4;
    cfg.high_water = 100; // stay exact; this test is about admission only
    let server = Server::new(cfg).unwrap();
    server.add_tenant(tenant_spec("t"));
    let procs = server.processors("t").unwrap();

    // Kill the worker so the queue can only fill.
    crash_worker(&server, "t");

    let mut tickets = Vec::new();
    for i in 0..4 {
        tickets.push(server.submit("t", batch(&procs, i, 10), None).unwrap());
    }
    let rejected = server.submit("t", batch(&procs, 99, 10), None).unwrap_err();
    match rejected {
        Rejected::QueueFull { depth, .. } => assert_eq!(depth, 4),
        other => panic!("expected QueueFull, got {other}"),
    }

    // Supervisor heals the tenant; the whole backlog is then served.
    server.recover_now("t").unwrap();
    for t in tickets {
        t.wait().unwrap();
    }
    let m = server.metrics("t").unwrap();
    assert_eq!(m.accepted, 4);
    assert_eq!(m.rejected_full, 1);
    assert_eq!(m.served, 4);
    assert_eq!(m.restarts, 1);
    assert!(m.shed_fraction() > 0.0);

    let reports = server.shutdown();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].1.epochs.len(), 4);
}

#[test]
fn expired_deadlines_are_shed_not_served() {
    let server = Server::new(manual_cfg("deadline")).unwrap();
    server.add_tenant(tenant_spec("t"));
    let procs = server.processors("t").unwrap();

    crash_worker(&server, "t");

    let doomed = server.submit("t", batch(&procs, 1, 10), Some(Duration::from_millis(1))).unwrap();
    let healthy =
        server.submit("t", batch(&procs, 2, 10), Some(Duration::from_secs(3600))).unwrap();
    std::thread::sleep(Duration::from_millis(10)); // let the first deadline lapse
    server.recover_now("t").unwrap();

    match doomed.wait() {
        Err(Rejected::DeadlineExpired) => {}
        other => panic!("expected DeadlineExpired, got {other:?}"),
    }
    healthy.wait().unwrap();
    let m = server.metrics("t").unwrap();
    assert_eq!(m.deadline_shed, 1);
    assert_eq!(m.served, 1);
    drop(server.shutdown());
}

#[test]
fn overload_degrades_to_estimator_and_hysteresis_restores_exact() {
    let mut cfg = manual_cfg("degrade");
    cfg.high_water = 4;
    cfg.low_water = 1;
    let server = Server::new(cfg).unwrap();
    server.add_tenant(tenant_spec("t"));
    let procs = server.processors("t").unwrap();

    // Build a backlog of 6 against a dead worker, then heal: the worker
    // pops at depths 5,4,3,2,1,0 → degraded for the first four epochs
    // (hysteresis holds Degraded between the marks), exact again once
    // drained to the low-water mark.
    crash_worker(&server, "t");
    let tickets: Vec<_> =
        (0..6).map(|i| server.submit("t", batch(&procs, i, 10), None).unwrap()).collect();
    server.recover_now("t").unwrap();

    let outcomes: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    let modes: Vec<ServeMode> = outcomes.iter().map(|o| o.mode).collect();
    assert_eq!(
        modes,
        vec![
            ServeMode::Degraded,
            ServeMode::Degraded,
            ServeMode::Degraded,
            ServeMode::Degraded,
            ServeMode::Exact,
            ServeMode::Exact,
        ]
    );
    // Degradation is announced per epoch: estimator-priced summaries
    // carry bounds, exact ones do not.
    for o in &outcomes {
        assert_eq!(
            o.summary.estimate.is_some(),
            o.mode == ServeMode::Degraded,
            "epoch {}",
            o.epoch
        );
    }
    assert_eq!(server.mode("t").unwrap(), ServeMode::Exact);
    let m = server.metrics("t").unwrap();
    assert_eq!(m.degraded_epochs, 4);
    assert_eq!(m.served, 6);

    let reports = server.shutdown();
    assert_eq!(reports[0].1.estimated_epochs, 4);
}

/// The acceptance drill: kill the worker mid-run while the tenant's
/// fault plan has a bus down, recover from the last durable checkpoint
/// plus journal tail, and the final report matches an unbroken twin
/// session bit for bit.
#[test]
fn supervised_crash_mid_outage_matches_unbroken_twin_bit_for_bit() {
    let spec = faulty_spec("t");
    let server = Server::new(manual_cfg("crash_parity")).unwrap();
    server.add_tenant(spec.clone());
    let procs = server.processors("t").unwrap();
    let batches: Vec<_> = (0..8).map(|i| batch(&procs, 1000 + i, 12)).collect();

    // Serve 2 epochs, checkpoint, serve 1 more (journal tail), then
    // crash inside the outage window (epochs 2..4) and recover.
    for b in &batches[..2] {
        server.submit("t", b.clone(), None).unwrap().wait().unwrap();
    }
    server.checkpoint_now("t").unwrap();
    server.submit("t", batches[2].clone(), None).unwrap().wait().unwrap();
    crash_worker(&server, "t");
    server.recover_now("t").unwrap();
    for b in &batches[3..] {
        server.submit("t", b.clone(), None).unwrap().wait().unwrap();
    }
    let m = server.metrics("t").unwrap();
    assert_eq!(m.restarts, 1);
    assert_eq!(m.recovery_epochs, vec![1], "one journaled epoch past the checkpoint");
    let reports = server.shutdown();
    let served = &reports[0].1;

    let mut twin = Session::new(&spec);
    for b in &batches {
        twin.push_epoch(b).unwrap();
    }
    let expected = twin.into_report();
    assert_eq!(*served, expected);
    assert!(expected.epochs.iter().any(|e| e.buses_down > 0), "outage must be live in the run");
}

#[test]
fn crash_that_raced_shutdown_reports_worker_lost_but_keeps_served_state() {
    let spec = tenant_spec("t");
    let server = Server::new(manual_cfg("lost")).unwrap();
    server.add_tenant(spec.clone());
    let procs = server.processors("t").unwrap();

    let first = batch(&procs, 5, 10);
    server.submit("t", first.clone(), None).unwrap().wait().unwrap();
    crash_worker(&server, "t");
    // Accepted after the crash, never served: shutdown does not respawn.
    let orphan = server.submit("t", batch(&procs, 6, 10), None).unwrap();
    let reports = server.shutdown();
    match orphan.wait() {
        Err(Rejected::WorkerLost) => {}
        other => panic!("expected WorkerLost, got {other:?}"),
    }
    // The served epoch survives via journal rebuild even though no
    // checkpoint was ever taken.
    let mut twin = Session::new(&spec);
    twin.push_epoch(&first).unwrap();
    assert_eq!(reports[0].1, twin.into_report());
}

#[test]
fn invalid_batches_are_rejected_at_admission_not_served() {
    let server = Server::new(manual_cfg("invalid")).unwrap();
    server.add_tenant(tenant_spec("t"));
    let procs = server.processors("t").unwrap();

    let bad_object = vec![OnlineRequest {
        processor: procs[0],
        object: ObjectId(OBJECTS as u32),
        is_write: false,
    }];
    assert!(matches!(server.submit("t", bad_object, None), Err(Rejected::InvalidRequest(_))));

    let net = TopologyFamily::Balanced { branching: 3, height: 2 }.build();
    let bad_node =
        vec![OnlineRequest { processor: net.root(), object: ObjectId(0), is_write: false }];
    assert!(matches!(server.submit("t", bad_node, None), Err(Rejected::InvalidRequest(_))));

    assert!(matches!(
        server.submit("nope", batch(&procs, 0, 4), None),
        Err(Rejected::UnknownTenant(_))
    ));

    // Nothing was admitted; the report is empty.
    let reports = server.shutdown();
    assert_eq!(reports[0].1.epochs.len(), 0);
}

#[test]
fn tenants_are_isolated_and_all_accepted_requests_are_served() {
    let server = Server::new(manual_cfg("multi")).unwrap();
    server.add_tenant(tenant_spec("a"));
    server.add_tenant(faulty_spec("b"));
    let pa = server.processors("a").unwrap();
    let pb = server.processors("b").unwrap();

    let mut tickets = Vec::new();
    for i in 0..5u64 {
        tickets.push(server.submit("a", batch(&pa, i, 8), None).unwrap());
        tickets.push(server.submit("b", batch(&pb, 100 + i, 8), None).unwrap());
    }
    // Crash one tenant mid-stream; the other must be untouched.
    crash_worker(&server, "b");
    server.recover_now("b").unwrap();
    for (i, t) in tickets.into_iter().enumerate() {
        let tenant = if i % 2 == 0 { "a" } else { "b" };
        wait_on(&server, tenant, t);
    }
    assert_eq!(server.metrics("a").unwrap().restarts, 0);
    assert_eq!(server.metrics("b").unwrap().restarts, 1);

    let reports = server.shutdown();
    assert_eq!(reports.len(), 2);
    assert_eq!(reports[0].0, "a");
    assert_eq!(reports[1].0, "b");
    assert_eq!(reports[0].1.epochs.len(), 5);
    assert_eq!(reports[1].1.epochs.len(), 5);
}

/// The background watchdog on a fast cadence does the whole loop by
/// itself: snapshots appear, a crashed worker is detected and healed
/// with no explicit `recover_now`.
#[test]
fn background_watchdog_checkpoints_and_heals_on_its_own() {
    let mut cfg = ServerConfig::new(tmp("auto"));
    cfg.watchdog_poll = Duration::from_millis(5);
    let server = Server::new(cfg).unwrap();
    server.add_tenant(tenant_spec("t"));
    let procs = server.processors("t").unwrap();

    for i in 0..3 {
        server.submit("t", batch(&procs, i, 10), None).unwrap().wait().unwrap();
    }
    server.inject_crash("t").unwrap();
    // The watchdog must notice and respawn within a few polls.
    let healed = server.submit("t", batch(&procs, 9, 10), None).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut t = healed;
    let outcome = loop {
        match t.try_wait() {
            Ok(r) => break r,
            Err(back) => {
                assert!(std::time::Instant::now() < deadline, "watchdog never healed the tenant");
                std::thread::sleep(Duration::from_millis(5));
                t = back;
            }
        }
    };
    outcome.unwrap();
    assert!(server.metrics("t").unwrap().restarts >= 1);
    drop(server.shutdown());
}

/// Epochs per frozen history chunk of a session checkpoint (private to
/// hbn-scenario, pinned by its durable suite).
const HISTORY_CHUNK: usize = 256;

/// A tenant serves across two history-chunk boundaries between its two
/// retained checkpoints, so both frames reference chunk files in the
/// checkpoint directory, the older one a prefix of the newer one's.
/// Corrupting the newest frame makes recovery fall back to the older
/// frame, which reads the shared chunk files, and the final report
/// matches the unbroken twin bit for bit.
#[test]
fn fallback_across_history_chunks_shares_chunk_files_bit_for_bit() {
    let spec = tenant_spec("t");
    let cfg = manual_cfg("chunks");
    let dir = cfg.checkpoint_dir.clone();
    let server = Server::new(cfg).unwrap();
    server.add_tenant(spec.clone());
    let procs = server.processors("t").unwrap();
    let batches: Vec<_> =
        (0..3 * HISTORY_CHUNK + 30).map(|i| batch(&procs, 5000 + i as u64, 3)).collect();
    let serve = |range: std::ops::Range<usize>| {
        for b in &batches[range] {
            server.submit("t", b.clone(), None).unwrap().wait().unwrap();
        }
    };
    let chunk_files = || {
        std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().path().extension().is_some_and(|x| x == "hbnh"))
            .count()
    };

    let older_at = HISTORY_CHUNK + 10;
    let newest_at = 3 * HISTORY_CHUNK + 10;
    serve(0..older_at);
    server.checkpoint_now("t").unwrap();
    assert_eq!(chunk_files(), 1);
    serve(older_at..newest_at);
    let newest = server.checkpoint_now("t").unwrap();
    assert_eq!(chunk_files(), 3, "the newest save wrote only the two new chunks");
    serve(newest_at..newest_at + 5);

    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&newest, &bytes).unwrap();
    crash_worker(&server, "t");
    server.recover_now("t").unwrap();
    serve(newest_at + 5..batches.len());
    let m = server.metrics("t").unwrap();
    assert_eq!(m.recovery_epochs, vec![(newest_at + 5 - older_at) as u64]);
    let reports = server.shutdown();

    let mut twin = Session::new(&spec);
    for b in &batches {
        twin.push_epoch(b).unwrap();
    }
    assert_eq!(reports[0].1, twin.into_report());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Single-byte corruption of the *newest* durable checkpoint is
    /// detected by the frame checksum and recovery falls back to the
    /// previous checkpoint — the final report still matches the
    /// unbroken twin bit for bit.
    #[test]
    fn corrupt_newest_checkpoint_falls_back_bit_for_bit(pos in 0usize..4096, flip in 1u8..=255) {
        let spec = tenant_spec("t");
        let server = Server::new(manual_cfg("flip")).unwrap();
        server.add_tenant(spec.clone());
        let procs = server.processors("t").unwrap();
        let batches: Vec<_> = (0..6).map(|i| batch(&procs, 2000 + i, 10)).collect();

        server.submit("t", batches[0].clone(), None).unwrap().wait().unwrap();
        server.checkpoint_now("t").unwrap();
        server.submit("t", batches[1].clone(), None).unwrap().wait().unwrap();
        let newest = server.checkpoint_now("t").unwrap();
        server.submit("t", batches[2].clone(), None).unwrap().wait().unwrap();

        // Flip one byte somewhere in the newest checkpoint.
        let mut bytes = std::fs::read(&newest).unwrap();
        let idx = pos % bytes.len();
        bytes[idx] ^= flip;
        std::fs::write(&newest, &bytes).unwrap();

        crash_worker(&server, "t");
        server.recover_now("t").unwrap();
        for b in &batches[3..] {
            server.submit("t", b.clone(), None).unwrap().wait().unwrap();
        }
        // Fallback replayed from the older checkpoint: both journaled
        // epochs past it were reapplied.
        let m = server.metrics("t").unwrap();
        prop_assert_eq!(m.recovery_epochs.clone(), vec![2]);
        let reports = server.shutdown();

        let mut twin = Session::new(&spec);
        for b in &batches {
            twin.push_epoch(b).unwrap();
        }
        prop_assert_eq!(&reports[0].1, &twin.into_report());
    }
}
