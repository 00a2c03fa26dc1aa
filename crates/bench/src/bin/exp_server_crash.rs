//! EXP-SERVER-CRASH — watchdog-supervised kill-and-restore parity of
//! the service layer, across strategy kinds.
//!
//! Where `exp_server_load` drives its recovery drills deterministically
//! (cadence disabled, `checkpoint_now`/`recover_now` explicit), this
//! harness leaves the real supervisor in charge: a fast watchdog
//! cadence snapshots the tenant in the background while a client keeps
//! the ingest queue non-empty, the worker is killed mid-run under an
//! active fault-plan outage with jobs still queued behind the crash,
//! and the watchdog alone detects the dead worker, restores the last
//! durable checkpoint, replays the journal tail, reconciles the
//! in-flight job, and respawns the worker.
//!
//! For every built-in strategy kind the final tenant report must equal
//! an unbroken twin session bit for bit — a mismatch exits non-zero.
//! No JSON document: the service-level numbers live in
//! `BENCH_server.json` (EXP-SERVER); this harness is a parity gate.

#![warn(missing_docs)]

use hbn_bench::{exp_quick, fatal, root_adjacent_bus, strategy_kinds, Table};
use hbn_dynamic::OnlineRequest;
use hbn_scenario::{FaultPlan, ScenarioSpec, Session, TopologyFamily};
use hbn_server::{Server, ServerConfig, Ticket};
use hbn_topology::NodeId;
use hbn_workload::{ObjectId, PhaseSchedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Live objects.
const OBJECTS: usize = 16;
/// Replication / migration charge `D`.
const THRESHOLD: u64 = 2;

/// (epochs per cell, requests per epoch).
fn volumes() -> (usize, usize) {
    if exp_quick() {
        (10, 150)
    } else {
        (20, 800)
    }
}

fn cell_spec(idx: usize, epochs: usize) -> ScenarioSpec {
    let topology = TopologyFamily::Balanced { branching: 3, height: 2 };
    let bus = root_adjacent_bus(&topology.build());
    let schedule = PhaseSchedule::new(OBJECTS, vec![]);
    ScenarioSpec {
        strategy: strategy_kinds()[idx],
        faults: FaultPlan::single_outage(bus, 3, epochs.saturating_sub(2)),
        ..ScenarioSpec::new(format!("cell-{idx}"), topology, schedule, THRESHOLD, 8400 + idx as u64)
    }
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

fn main() {
    let (epochs, requests) = volumes();
    let kill_target = epochs / 2;
    println!(
        "EXP-SERVER-CRASH — watchdog-healed kill mid-outage, {} strategies,\n\
         {epochs} epochs/cell at {requests} req/epoch, kill after epoch {kill_target}{}\n\
         (the panic backtraces below are the injected crashes — that is the point)\n",
        strategy_kinds().len(),
        if exp_quick() { " (HBN_EXP_QUICK)" } else { "" }
    );

    let mut t =
        Table::new(["scenario", "strategy", "kill@", "epochs", "replayed", "resume (ms)", "exact"]);
    let mut all_equal = true;

    for idx in 0..strategy_kinds().len() {
        let spec = cell_spec(idx, epochs);

        let dir =
            std::env::temp_dir().join(format!("hbn-server-crash-{}-{idx}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ServerConfig::new(&dir);
        // Exact replay throughout: parity against the twin is the gate,
        // so the deep queue must not trip estimator degradation.
        cfg.high_water = usize::MAX;
        cfg.watchdog_poll = Duration::from_millis(5);
        let server = Server::new(cfg).expect("scratch checkpoint dir");
        server.add_tenant(spec.clone());
        let procs = server.processors(&spec.name).expect("tenant exists");

        // Serve the first half, then kill the worker mid-outage. The
        // crash command jumps to the head of the ingest queue, so the
        // tail submitted after it is guaranteed to be queued behind the
        // crash — recovery must lose none of it, and the watchdog is
        // the only thing allowed to notice and heal.
        let mut rng = StdRng::seed_from_u64(5151 + idx as u64);
        let batches: Vec<Vec<OnlineRequest>> =
            (0..epochs).map(|_| random_batch(&mut rng, &procs, requests)).collect();
        let head: Vec<Ticket> = batches[..kill_target]
            .iter()
            .map(|b| server.submit(&spec.name, b.clone(), None).expect("admission"))
            .collect();
        for ticket in head {
            ticket.wait().expect("served");
        }
        let kill_epoch = server.metrics(&spec.name).expect("tenant exists").served as usize;
        server.inject_crash(&spec.name).expect("tenant exists");
        let healed_at = Instant::now();
        let tail: Vec<Ticket> = batches[kill_target..]
            .iter()
            .map(|b| server.submit(&spec.name, b.clone(), None).expect("admission"))
            .collect();
        for ticket in tail {
            ticket.wait().expect("served after supervised recovery");
        }
        let heal_wall = healed_at.elapsed().as_secs_f64();

        let m = server.metrics(&spec.name).expect("tenant exists");
        assert_eq!(m.restarts, 1, "exactly one watchdog restart per cell");
        assert_eq!(m.served as usize, epochs, "every admitted epoch served");
        let report = server.report(&spec.name).expect("tenant healthy");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);

        let mut twin = Session::new(&spec);
        for batch in &batches {
            twin.push_epoch(batch).expect("twin replay");
        }
        let expected = twin.into_report();
        assert!(
            expected.epochs.iter().any(|e| e.buses_down > 0),
            "the outage must be live during the run"
        );
        let equal = report == expected;
        all_equal &= equal;

        t.row([
            spec.name.clone(),
            expected.strategy.clone(),
            kill_epoch.to_string(),
            epochs.to_string(),
            m.recovery_epochs.last().map(u64::to_string).unwrap_or_default(),
            format!("{:.1}", heal_wall * 1e3),
            if equal { "yes".into() } else { "NO".to_string() },
        ]);
    }

    println!("{}", t.render());
    if !all_equal {
        fatal("a watchdog-recovered tenant diverged from its unbroken twin");
    }
    println!(
        "every watchdog-healed tenant reproduced its unbroken twin bit for bit,\n\
         with the kill landing inside a live bus outage and queued jobs surviving\n\
         the restart"
    );
}
