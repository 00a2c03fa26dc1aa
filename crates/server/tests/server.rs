//! Service-layer robustness: admission control, deadlines, graceful
//! degradation with hysteresis, and supervised crash recovery that is
//! bit-for-bit indistinguishable from an unbroken run.
//!
//! The deterministic tests disable the watchdog cadence (a very long
//! poll) and drive every supervision step explicitly through
//! `checkpoint_now` / `recover_now`, so nothing here depends on timing.

use std::path::{Path, PathBuf};
use std::time::Duration;

use proptest::prelude::*;

use hbn_dynamic::OnlineRequest;
use hbn_scenario::{FaultPlan, ScenarioSpec, Session, StrategyKind, TopologyFamily};
use hbn_server::{Rejected, ServeMode, Server, ServerConfig, ServerError};
use hbn_testutil::TestDir;
use hbn_topology::NodeId;
use hbn_workload::{ObjectId, PhaseSchedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An empty directory of the calling test's own under the target's temp
/// dir, removed when the guard drops (after the server the test built in
/// it, which is declared later and so dropped first).
fn tmp(name: &str) -> TestDir {
    TestDir::new(env!("CARGO_TARGET_TMPDIR"), &format!("server-{name}"))
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
fn manual_cfg(dir: &Path) -> ServerConfig {
    let mut cfg = ServerConfig::new(dir);
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
    let dir = tmp("admission");
    let mut cfg = manual_cfg(&dir);
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
    let dir = tmp("deadline");
    let server = Server::new(manual_cfg(&dir)).unwrap();
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

/// A deadline or a watchdog cadence too far ahead for the clock to
/// represent means none: a batch submitted with `Duration::MAX` is
/// admitted and served, and a watchdog on a `Duration::MAX` cadence
/// parks until shutdown.
#[test]
fn unrepresentable_deadline_and_cadence_mean_none() {
    let dir = tmp("far_deadline");
    let mut cfg = manual_cfg(&dir);
    cfg.watchdog_poll = Duration::MAX;
    let server = Server::new(cfg).unwrap();
    server.add_tenant(tenant_spec("t"));
    let procs = server.processors("t").unwrap();

    let ticket = server.submit("t", batch(&procs, 3, 10), Some(Duration::MAX)).unwrap();
    assert_eq!(wait_on(&server, "t", ticket).mode, ServeMode::Exact);
    let m = server.metrics("t").unwrap();
    assert_eq!((m.accepted, m.served, m.deadline_shed), (1, 1, 0));

    let reports = server.shutdown();
    assert_eq!(reports[0].1.epochs.len(), 1);
}

#[test]
fn overload_degrades_to_estimator_and_hysteresis_restores_exact() {
    let dir = tmp("degrade");
    let mut cfg = manual_cfg(&dir);
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
/// session bit for bit, for every kind of policy. The threshold switch
/// is forced at epoch 2, so its frame is from before the switch and the
/// journal replays the switch.
#[test]
fn supervised_crash_mid_outage_matches_unbroken_twin_bit_for_bit() {
    for (i, strategy) in [
        StrategyKind::Dynamic,
        StrategyKind::PeriodicStatic { replace_every_epochs: 2 },
        StrategyKind::Hybrid { reseed_every_epochs: 2 },
        StrategyKind::FrozenStatic,
        StrategyKind::ThresholdSwitch { write_bound: 0.0, min_epochs: 2 },
    ]
    .into_iter()
    .enumerate()
    {
        let spec = ScenarioSpec { strategy, ..faulty_spec("t") };
        let dir = tmp(&format!("crash_parity_{i}"));
        let server = Server::new(manual_cfg(&dir)).unwrap();
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
        assert_eq!(m.restarts, 1, "{strategy}");
        assert_eq!(
            m.recovery_epochs,
            vec![1],
            "{strategy}: one journaled epoch past the checkpoint"
        );
        let reports = server.shutdown();
        let served = &reports[0].1;

        let mut twin = Session::new(&spec);
        for b in &batches {
            twin.push_epoch(b).unwrap();
        }
        let expected = twin.into_report();
        assert_eq!(*served, expected, "{strategy}");
        assert_eq!(served.strategy, strategy.to_string());
        assert!(expected.epochs.iter().any(|e| e.buses_down > 0), "outage must be live in the run");
    }
}

#[test]
fn crash_that_raced_shutdown_reports_worker_lost_but_keeps_served_state() {
    let spec = tenant_spec("t");
    let dir = tmp("lost");
    let server = Server::new(manual_cfg(&dir)).unwrap();
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
    let dir = tmp("invalid");
    let server = Server::new(manual_cfg(&dir)).unwrap();
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

    let beyond =
        vec![OnlineRequest { processor: NodeId(10_000), object: ObjectId(0), is_write: false }];
    assert!(matches!(server.submit("t", beyond, None), Err(Rejected::InvalidRequest(_))));

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
    let dir = tmp("multi");
    let server = Server::new(manual_cfg(&dir)).unwrap();
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
    let dir = tmp("auto");
    let mut cfg = ServerConfig::new(dir.as_ref());
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
    let dir = tmp("chunks");
    let cfg = manual_cfg(&dir);
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

/// The checkpoint frames in `dir`, oldest first: `(epoch, path)`.
fn frames_on_disk(dir: &Path) -> Vec<(usize, PathBuf)> {
    let mut frames: Vec<(usize, PathBuf)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "hbnc"))
        .map(|p| {
            let stem = p.file_stem().unwrap().to_str().unwrap();
            (stem.rsplit_once("_e").unwrap().1.parse().unwrap(), p)
        })
        .collect();
    frames.sort();
    frames
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).unwrap().len()
}

/// Poll the tenant's metrics until `done` holds, failing after 30 s.
fn wait_for(server: &Server, what: &str, done: impl Fn(&hbn_server::TenantMetrics) -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let m = server.metrics("t").unwrap();
        if done(&m) {
            return;
        }
        assert!(std::time::Instant::now() < deadline, "{what} never happened: {m:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The watchdog journals served epochs between frames. Once
/// `durable_epochs` reaches the served count, every epoch is on disk: with
/// the newest frame corrupted, the watchdog's recovery falls back one
/// frame, replays both journal segments from disk, and the final report
/// matches the unbroken twin bit for bit.
#[test]
fn watchdog_journal_recovers_across_two_segments_bit_for_bit() {
    let spec = tenant_spec("t");
    let dir = tmp("journal_fallback");
    let mut cfg = ServerConfig::new(dir.as_ref());
    cfg.watchdog_poll = Duration::from_millis(5);
    let server = Server::new(cfg).unwrap();
    server.add_tenant(spec.clone());
    let procs = server.processors("t").unwrap();
    let mut batches = Vec::new();
    let serve = |batches: &mut Vec<Vec<OnlineRequest>>| {
        let b = batch(&procs, 7000 + batches.len() as u64, 10);
        server.submit("t", b.clone(), None).unwrap().wait().unwrap();
        batches.push(b);
    };
    // Serve until the watchdog has written two frames and synced every
    // served epoch, with records in the newest segment and that segment
    // still smaller than its frame, so idle ticks write nothing more.
    let (older, newest) = loop {
        serve(&mut batches);
        let served = batches.len() as u64;
        wait_for(&server, "durability", |m| m.durable_epochs == served);
        if let [.., older, newest] = frames_on_disk(&dir).as_slice() {
            let segment = file_len(&newest.1.with_extension("hbnj"));
            if segment > 0 && segment < file_len(&newest.1) {
                break (older.clone(), newest.clone());
            }
        }
        assert!(batches.len() < 2000, "the watchdog never rotated twice");
    };
    assert!(file_len(&older.1.with_extension("hbnj")) > 0);
    assert_eq!(server.metrics("t").unwrap().checkpoint_failures, 0);

    let mut bytes = std::fs::read(&newest.1).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&newest.1, &bytes).unwrap();
    let crashed_at = batches.len();
    server.inject_crash("t").unwrap();
    wait_for(&server, "the watchdog's recovery", |m| m.restarts == 1);
    for _ in 0..5 {
        serve(&mut batches);
    }
    let m = server.metrics("t").unwrap();
    assert_eq!(m.recovery_epochs, vec![(crashed_at - older.0) as u64], "fell back to {older:?}");
    let reports = server.shutdown();

    let mut twin = Session::new(&spec);
    for b in &batches {
        twin.push_epoch(b).unwrap();
    }
    assert_eq!(reports[0].1, twin.into_report());
}

/// A tenant with frames written by `checkpoint_now` at epochs 2 and 5 and
/// one epoch served since, so the older frame's journal segment holds
/// epochs 2..5; then the newest frame is corrupted. Recovery has to fall
/// back and read that segment from disk. Returns the server, the segment
/// and the served batches.
fn journal_drill(dir: &Path) -> (Server, PathBuf, Vec<Vec<OnlineRequest>>) {
    let server = Server::new(manual_cfg(dir)).unwrap();
    server.add_tenant(tenant_spec("t"));
    let procs = server.processors("t").unwrap();
    let batches: Vec<_> = (0..6).map(|i| batch(&procs, 3000 + i, 10)).collect();
    let serve = |range: std::ops::Range<usize>| {
        for b in &batches[range] {
            server.submit("t", b.clone(), None).unwrap().wait().unwrap();
        }
    };
    serve(0..2);
    let older = server.checkpoint_now("t").unwrap();
    serve(2..5);
    let newest = server.checkpoint_now("t").unwrap();
    serve(5..6);
    assert_eq!(server.metrics("t").unwrap().durable_epochs, 5);
    let mut bytes = std::fs::read(&newest).unwrap();
    bytes[16] ^= 0x01;
    std::fs::write(&newest, &bytes).unwrap();
    (server, older.with_extension("hbnj"), batches)
}

#[test]
fn intact_journal_segment_recovers_bit_for_bit() {
    let dir = tmp("journal_intact");
    let (server, _, batches) = journal_drill(&dir);
    crash_worker(&server, "t");
    server.recover_now("t").unwrap();
    assert_eq!(server.metrics("t").unwrap().recovery_epochs, vec![4]);
    let reports = server.shutdown();
    let mut twin = Session::new(&tenant_spec("t"));
    for b in &batches {
        twin.push_epoch(b).unwrap();
    }
    assert_eq!(reports[0].1, twin.into_report());
}

/// A directory the checkpoint directory's path now names as a plain
/// file: every watchdog step fails, each failure is counted, and the
/// tenant keeps serving from memory.
#[test]
fn failed_supervision_steps_are_counted_and_the_tenant_keeps_serving() {
    let dir = tmp("unwritable");
    let ckpt = dir.join("checkpoints");
    let mut cfg = ServerConfig::new(&ckpt);
    cfg.watchdog_poll = Duration::from_millis(5);
    let server = Server::new(cfg).unwrap();
    std::fs::remove_dir(&ckpt).unwrap();
    std::fs::write(&ckpt, b"not a directory").unwrap();
    server.add_tenant(tenant_spec("t"));
    let procs = server.processors("t").unwrap();
    wait_for(&server, "three failed steps", |m| m.checkpoint_failures >= 3);
    server.submit("t", batch(&procs, 1, 10), None).unwrap().wait().unwrap();
    assert!(server.checkpoint_now("t").is_err());
    let m = server.metrics("t").unwrap();
    assert_eq!((m.served, m.durable_epochs), (1, 0));
    assert_eq!(server.shutdown()[0].1.epochs.len(), 1);
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
        let dir = tmp("flip");
        let server = Server::new(manual_cfg(&dir)).unwrap();
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

    /// Every single-byte flip of a journal segment that recovery has to
    /// read makes recovery fail with a clean error: never a panic, never a
    /// report that silently differs from the twin's.
    #[test]
    fn any_single_byte_corruption_of_a_journal_segment_fails_recovery(pos in 0usize..4096, flip in 1u8..=255) {
        let dir = tmp("journal_flip");
        let (server, segment, _) = journal_drill(&dir);
        let mut bytes = std::fs::read(&segment).unwrap();
        let idx = pos % bytes.len();
        bytes[idx] ^= flip;
        std::fs::write(&segment, &bytes).unwrap();
        crash_worker(&server, "t");
        let recovered = server.recover_now("t");
        prop_assert!(matches!(recovered, Err(ServerError::TenantLost { .. })), "{recovered:?}");
        prop_assert!(!server.worker_alive("t").unwrap());
    }

    /// Every truncation of that segment fails recovery the same way.
    #[test]
    fn any_truncation_of_a_journal_segment_fails_recovery(cut in 0usize..4096) {
        let dir = tmp("journal_cut");
        let (server, segment, _) = journal_drill(&dir);
        let bytes = std::fs::read(&segment).unwrap();
        std::fs::write(&segment, &bytes[..cut % bytes.len()]).unwrap();
        crash_worker(&server, "t");
        let recovered = server.recover_now("t");
        prop_assert!(matches!(recovered, Err(ServerError::TenantLost { .. })), "{recovered:?}");
    }
}
