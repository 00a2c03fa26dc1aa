//! EXP-CRASH — kill-and-restore parity of durable session checkpoints.
//!
//! The harness re-spawns itself as a child process (`HBN_CRASH_CHILD`)
//! that runs the scenario saving a durable checkpoint after **every**
//! epoch, then dies abruptly mid-run — `std::process::exit`, no
//! unwinding, no flushing beyond what the atomic tmp+rename write
//! already guaranteed. The parent restores the last on-disk checkpoint
//! with [`hbn_scenario::Session::restore_from_file`], drives the run to
//! completion and asserts the report equals the unbroken in-process
//! run **bit for bit**. A mismatch aborts the harness.
//!
//! The matrix covers every built-in strategy kind, with an active bus
//! outage straddling the kill epoch so the restore also carries healed
//! copy sets and mid-outage overlay state.
//!
//! Emits `BENCH_crash_recovery.json`; `HBN_EXP_QUICK=1` runs the same
//! cells at CI-sized volumes.

#![warn(missing_docs)]

use hbn_bench::{exp_quick, root_adjacent_bus, strategy_kinds, write_bench, Obj, Table};
use hbn_scenario::{FaultPlan, ScenarioSpec, Session, TopologyFamily};
use hbn_testutil::family_schedules;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Live objects at schedule start.
const OBJECTS: usize = 24;
/// Replication / migration charge `D`.
const THRESHOLD: u64 = 3;
/// The child's exit code: distinguishable from a panic (101) and from
/// clean termination, so the parent knows the crash was the scripted one.
const CRASH_EXIT: i32 = 42;

/// (warm-up requests, measured-phase requests, requests per replay
/// epoch) per schedule.
fn volumes() -> (usize, usize, usize) {
    if exp_quick() {
        (400, 2_000, 400)
    } else {
        (2_000, 20_000, 2_000)
    }
}

/// The spec of cell `idx` — a pure function of the index, so the child
/// process reconstructs exactly the spec the parent used.
fn cell_spec(idx: usize) -> (ScenarioSpec, usize) {
    let (warmup, volume, epoch_requests) = volumes();
    let (family, schedule) = family_schedules(OBJECTS, warmup, volume).swap_remove(1);
    let topology = TopologyFamily::Balanced { branching: 3, height: 2 };
    let net = topology.build();
    let n_epochs: usize = schedule.phases.iter().map(|p| p.requests.div_ceil(epoch_requests)).sum();
    let kill_epoch = (n_epochs / 2).max(1);
    // An outage straddling the kill epoch: the checkpoint restored from
    // disk carries healed copy sets and mid-outage overlay state.
    let plan = FaultPlan::single_outage(
        root_adjacent_bus(&net),
        kill_epoch.saturating_sub(1).max(1),
        (kill_epoch + 2).min(n_epochs),
    );
    let name = format!("{family}@{topology}");
    let spec = ScenarioSpec {
        strategy: strategy_kinds()[idx],
        epoch_requests,
        faults: plan,
        ..ScenarioSpec::new(name, topology, schedule, THRESHOLD, 4700 + idx as u64)
    };
    (spec, kill_epoch)
}

fn checkpoint_path(dir: &Path, idx: usize, epoch: usize) -> PathBuf {
    dir.join(format!("cell{idx}_e{epoch}.hbnc"))
}

/// Child mode: run cell `idx`, saving a durable checkpoint after every
/// epoch, and die abruptly at the kill epoch.
fn run_child(idx: usize, dir: &Path) -> ! {
    let (spec, kill_epoch) = cell_spec(idx);
    let mut session = Session::new(&spec);
    while session.step_epoch().expect("replay failed").is_some() {
        let epoch = session.epoch_index();
        session
            .checkpoint()
            .save(&checkpoint_path(dir, idx, epoch))
            .expect("durable checkpoint write failed");
        if epoch == kill_epoch {
            // The crash: no unwinding, no Drop, no cleanup.
            std::process::exit(CRASH_EXIT);
        }
    }
    unreachable!("the kill epoch lies inside the run");
}

fn main() {
    if let Ok(idx) = std::env::var("HBN_CRASH_CHILD") {
        let idx: usize = idx.parse().expect("HBN_CRASH_CHILD is a cell index");
        let dir = PathBuf::from(std::env::var("HBN_CRASH_DIR").expect("HBN_CRASH_DIR set"));
        run_child(idx, &dir);
    }

    let exe = std::env::current_exe().expect("own executable path");
    let dir = std::env::temp_dir().join(format!("hbn-crash-recovery-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");

    println!(
        "EXP-CRASH — kill-and-restore parity: {} strategies, child killed mid-outage,\n\
         restore from the last durable checkpoint on disk{}\n",
        strategy_kinds().len(),
        if exp_quick() { " (HBN_EXP_QUICK)" } else { "" }
    );

    let mut cells = Vec::new();
    let mut t = Table::new([
        "scenario",
        "strategy",
        "kill@",
        "epochs",
        "ckpt bytes",
        "exact",
        "full (ms)",
        "recovery (ms)",
    ]);

    for idx in 0..strategy_kinds().len() {
        let (spec, kill_epoch) = cell_spec(idx);

        // The unbroken in-process run: the ground truth.
        let start = Instant::now();
        let mut unbroken = Session::new(&spec);
        while unbroken.step_epoch().expect("replay failed").is_some() {}
        let unbroken_wall = start.elapsed().as_secs_f64();
        let epochs_total = unbroken.epoch_index();
        let expected = unbroken.into_report();

        // The crash: a child process that dies at the kill epoch.
        let status = Command::new(&exe)
            .env("HBN_CRASH_CHILD", idx.to_string())
            .env("HBN_CRASH_DIR", &dir)
            .status()
            .expect("spawn child");
        assert_eq!(status.code(), Some(CRASH_EXIT), "child must die the scripted death");

        // The recovery: restore the last on-disk checkpoint, finish.
        let path = checkpoint_path(&dir, idx, kill_epoch);
        let checkpoint_bytes = std::fs::metadata(&path).expect("checkpoint exists").len();
        let start = Instant::now();
        let mut restored =
            Session::restore_from_file(&spec, &path).expect("durable restore failed");
        assert_eq!(restored.epoch_index(), kill_epoch);
        while restored.step_epoch().expect("restored replay failed").is_some() {}
        let recovery_wall = start.elapsed().as_secs_f64();
        let report = restored.into_report();

        let restored_equal = report == expected;
        assert!(restored_equal, "kill-and-restore mismatch for {}", expected.strategy);

        t.row([
            spec.name.clone(),
            expected.strategy.clone(),
            kill_epoch.to_string(),
            epochs_total.to_string(),
            checkpoint_bytes.to_string(),
            "yes".into(),
            format!("{:.1}", unbroken_wall * 1e3),
            format!("{:.1}", recovery_wall * 1e3),
        ]);
        cells.push(
            Obj::new()
                .str("scenario", &spec.name)
                .str("strategy", &expected.strategy)
                .raw("seed", spec.seed)
                .raw("kill_epoch", kill_epoch)
                .raw("epochs_total", epochs_total)
                .raw("restored_equal", restored_equal)
                .raw("checkpoint_bytes", checkpoint_bytes)
                .f64("unbroken_wall_seconds", unbroken_wall)
                .f64("recovery_wall_seconds", recovery_wall),
        );
    }

    let _ = std::fs::remove_dir_all(&dir);

    println!("{}", t.render());
    println!(
        "Every restored run reproduced its unbroken counterpart bit for bit —\n\
         including the runs whose checkpoint was taken mid-outage, with healed\n\
         copy sets and a non-pristine capacity overlay in the frame.\n"
    );

    // Every cell asserted its restore exact above.
    let head = Obj::new().raw("all_restores_exact", true);
    write_bench("BENCH_crash_recovery.json", "crash_recovery", &head, &[("cells", cells)])
        .expect("write BENCH_crash_recovery.json");
    println!("wrote BENCH_crash_recovery.json");
}
