//! EXP-RESUME — checkpoint/restore determinism of the scenario
//! `Session` driver at benchmark scale.
//!
//! For every cell (access-pattern family × topology × strategy,
//! including a threshold switch) the experiment runs
//! the scenario once unbroken, taking a [`hbn_scenario::Session`]
//! checkpoint halfway through, then restores the checkpoint and drives
//! the suffix to completion. The resumed report must equal the unbroken
//! one **bit for bit** — a mismatch aborts the experiment — and the
//! document records what a crash recovery actually pays: the wall-clock
//! cost of restore + suffix versus the full run.
//!
//! The `checkpoint_cost` section measures what a checkpoint costs as the
//! history grows, on the server tenant of the repository benchmark:
//! the frame and chunk-file bytes, and the thread CPU of
//! `Session::checkpoint` and of `SessionCheckpoint::save` after 1k, 5k
//! and 20k pushed epochs. The run exits 1 if the frame at the largest
//! size is more than 1.25x the frame at the smallest: the frame must
//! not carry the history.
//!
//! Emits `BENCH_session_resume.json`; `HBN_EXP_QUICK=1` runs the same
//! cells at CI-sized volumes (256, 1k and 4k pushed epochs for the
//! checkpoint cost).

#![warn(missing_docs)]

use hbn_bench::{exp_quick, fatal, strategy_axis, thread_cpu_ns, write_bench, Obj, Table};
use hbn_dynamic::OnlineRequest;
use hbn_scenario::{ScenarioSpec, Session, TopologyFamily};
use hbn_server::percentile;
use hbn_testutil::{cell_seeds, family_schedules, seeded_rng};
use hbn_workload::{ObjectId, PhaseSchedule};
use rand::Rng;
use std::path::Path;
use std::time::Instant;

/// Live objects at schedule start.
const OBJECTS: usize = 24;
/// Replication / migration charge `D`.
const THRESHOLD: u64 = 3;

/// Objects of the checkpoint-cost tenant.
const COST_OBJECTS: u32 = 64;
/// Timed checkpoints and saves per history size.
const COST_SAVES: usize = 100;
/// Largest allowed frame growth from the smallest to the largest
/// history size.
const FRAME_GROWTH_BOUND: f64 = 1.25;

/// Pushed epochs at which the checkpoint cost is measured.
fn cost_sizes() -> [usize; 3] {
    if exp_quick() {
        [256, 1_024, 4_096]
    } else {
        [1_000, 5_000, 20_000]
    }
}

/// The total size of the history chunk files in `dir`.
fn chunk_file_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("read the checkpoint directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "hbnh"))
        .map(|p| std::fs::metadata(p).expect("chunk file metadata").len())
        .sum()
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// One session of the repository benchmark's server tenant — balanced(4,3),
/// 64 objects, the dynamic strategy, D = 2 — fed pushed batches of 350 to
/// 450 requests, 40% writes, and snapshotted at each history size. At
/// each size one cold save into a directory of its own writes every
/// frozen chunk, and its frame must restore the snapshot exactly. Then
/// the snapshots are timed in `COST_SAVES` interleaved rounds, so host
/// drift hits every size alike: `Session::checkpoint`, and a save to a
/// fresh frame path in one shared directory that already holds the
/// chunks, as a server's watchdog does between chunk freezes. Returns
/// the cells and the frame's growth from the smallest size to the
/// largest.
fn checkpoint_cost(t: &mut Table) -> (Vec<Obj>, f64) {
    let spec = ScenarioSpec::new(
        "checkpoint-cost",
        TopologyFamily::Balanced { branching: 4, height: 3 },
        PhaseSchedule::new(COST_OBJECTS as usize, vec![]),
        2,
        0,
    );
    let mut session = Session::new(&spec);
    let procs = session.network().processors().to_vec();
    let mut rng = seeded_rng(43);
    let root = std::env::temp_dir().join(format!("hbn-checkpoint-cost-{}", std::process::id()));
    let mut sizes = Vec::new();
    for epochs in cost_sizes() {
        while session.epoch_index() < epochs {
            let batch: Vec<OnlineRequest> = (0..rng.gen_range(350..=450))
                .map(|_| OnlineRequest {
                    processor: procs[rng.gen_range(0..procs.len())],
                    object: ObjectId(rng.gen_range(0..COST_OBJECTS)),
                    is_write: rng.gen_bool(0.4),
                })
                .collect();
            session.push_epoch(&batch).expect("pushed replay failed");
        }
        let snapshot = Session::restore(session.checkpoint()).expect("in-memory restore");
        let dir = root.join(format!("e{epochs}"));
        std::fs::create_dir_all(&dir).expect("checkpoint directory");
        let first = dir.join("first.hbnc");
        let t0 = thread_cpu_ns();
        snapshot.checkpoint().save(&first).expect("checkpoint save failed");
        let first_save_ns = thread_cpu_ns() - t0;
        let restored = Session::restore_from_file(&spec, &first).expect("durable restore failed");
        assert!(restored.report() == snapshot.report(), "restore mismatch at {epochs} epochs");
        let frame_bytes = std::fs::metadata(&first).expect("frame metadata").len();
        sizes.push((epochs, snapshot, frame_bytes, chunk_file_bytes(&dir), first_save_ns));
    }

    let shared = root.join("shared");
    std::fs::create_dir_all(&shared).expect("checkpoint directory");
    for (epochs, snapshot, ..) in &sizes {
        let warm = shared.join(format!("e{epochs}-warm.hbnc"));
        snapshot.checkpoint().save(&warm).expect("checkpoint save failed");
    }
    let mut timed = vec![(Vec::new(), Vec::new()); sizes.len()];
    for i in 0..COST_SAVES {
        for ((epochs, snapshot, ..), (checkpoint_ns, save_ns)) in sizes.iter().zip(&mut timed) {
            let t0 = thread_cpu_ns();
            let cp = snapshot.checkpoint();
            let t1 = thread_cpu_ns();
            cp.save(&shared.join(format!("e{epochs}-{i}.hbnc"))).expect("checkpoint save failed");
            save_ns.push(thread_cpu_ns() - t1);
            checkpoint_ns.push(t1 - t0);
        }
    }
    let _ = std::fs::remove_dir_all(&root);

    let min = |v: &[u64]| v.iter().copied().min().unwrap_or(0);
    let mut cells = Vec::new();
    for ((epochs, _, frame_bytes, chunk_bytes, first_save_ns), (checkpoint_ns, save_ns)) in
        sizes.iter().zip(&timed)
    {
        t.row([
            epochs.to_string(),
            frame_bytes.to_string(),
            chunk_bytes.to_string(),
            format!("{:.3}", ms(percentile(checkpoint_ns, 50.0))),
            format!("{:.3}", ms(percentile(save_ns, 50.0))),
            format!("{:.3}", ms(min(save_ns))),
            format!("{:.3}", ms(*first_save_ns)),
        ]);
        cells.push(
            Obj::new()
                .raw("epochs", epochs)
                .raw("frame_bytes", frame_bytes)
                .raw("chunk_file_bytes", chunk_bytes)
                .raw("saves", COST_SAVES)
                .f64("checkpoint_cpu_ms_median", ms(percentile(checkpoint_ns, 50.0)))
                .f64("checkpoint_cpu_ms_min", ms(min(checkpoint_ns)))
                .f64("save_cpu_ms_median", ms(percentile(save_ns, 50.0)))
                .f64("save_cpu_ms_min", ms(min(save_ns)))
                .f64("first_save_cpu_ms", ms(*first_save_ns)),
        );
    }
    let growth = sizes[sizes.len() - 1].2 as f64 / sizes[0].2 as f64;
    (cells, growth)
}

/// (warm-up requests, measured-phase requests, requests per replay
/// epoch) per schedule.
fn volumes() -> (usize, usize, usize) {
    if exp_quick() {
        (400, 2_000, 400)
    } else {
        (4_000, 40_000, 4_000)
    }
}

fn main() {
    let (warmup, volume, epoch_requests) = volumes();
    let families: Vec<_> = {
        let mut f = family_schedules(OBJECTS, warmup, volume);
        // Three representative families: stationary, moving hotspot,
        // churning object space (the hardest state to resume — retired
        // ids, minted ids, live-set cursor).
        vec![f.swap_remove(4), f.swap_remove(1), f.swap_remove(0)]
    };
    let topologies = [
        TopologyFamily::Balanced { branching: 3, height: 2 },
        TopologyFamily::Caterpillar { spine: 4, legs: 3 },
    ];

    println!(
        "EXP-RESUME — session checkpoint/restore determinism: {} families x {} topologies \
         x {} strategies, {} requests per run{}\n",
        families.len(),
        topologies.len(),
        strategy_axis().len(),
        warmup + volume,
        if exp_quick() { " (HBN_EXP_QUICK)" } else { "" }
    );

    let mut seed_source = seeded_rng(41);
    let mut cells = Vec::new();
    let mut t = Table::new([
        "scenario",
        "strategy",
        "epochs",
        "ckpt@",
        "exact",
        "full (ms)",
        "resume (ms)",
    ]);

    for (family, schedule) in &families {
        for topology in topologies {
            let seed = cell_seeds(seed_source.gen(), 1)[0];
            for strategy in strategy_axis() {
                let name = format!("{family}@{topology}");
                let spec = ScenarioSpec {
                    strategy,
                    epoch_requests,
                    ..ScenarioSpec::new(name, topology, schedule.clone(), THRESHOLD, seed)
                };

                // Unbroken run, checkpointing halfway.
                let start = Instant::now();
                let mut session = Session::new(&spec);
                let total_epochs = {
                    // Epoch count is derivable from the schedule split.
                    spec.schedule
                        .phases
                        .iter()
                        .map(|p| p.requests.div_ceil(spec.epoch_requests.max(1)))
                        .sum::<usize>()
                };
                let checkpoint_epoch = (total_epochs / 2).max(1);
                let mut checkpoint = None;
                while let Some(_epoch) = session.step_epoch().expect("replay failed") {
                    if session.epoch_index() == checkpoint_epoch && checkpoint.is_none() {
                        checkpoint = Some(session.checkpoint());
                    }
                }
                let unbroken_wall = start.elapsed().as_secs_f64();
                let epochs_total = session.epoch_index();
                let unbroken = session.into_report();

                // Resume from the checkpoint and finish. Both timing
                // windows cover restore/stepping only — report assembly
                // (the hindsight placement) is excluded on both sides so
                // the columns compare like with like.
                let checkpoint = checkpoint.expect("checkpoint epoch inside the run");
                let start = Instant::now();
                let mut resumed =
                    Session::restore(checkpoint).expect("in-memory checkpoint restores");
                while resumed.step_epoch().expect("resumed replay failed").is_some() {}
                let resume_wall = start.elapsed().as_secs_f64();
                let resumed_report = resumed.into_report();

                let resumed_equal = resumed_report == unbroken;
                assert!(
                    resumed_equal,
                    "resume mismatch: {family}@{topology} under {} (seed {seed})",
                    unbroken.strategy
                );

                t.row([
                    format!("{family}@{topology}"),
                    unbroken.strategy.clone(),
                    epochs_total.to_string(),
                    checkpoint_epoch.to_string(),
                    "yes".into(),
                    format!("{:.1}", unbroken_wall * 1e3),
                    format!("{:.1}", resume_wall * 1e3),
                ]);
                cells.push(
                    Obj::new()
                        .str("scenario", &format!("{family}@{topology}"))
                        .str("strategy", &unbroken.strategy)
                        .raw("seed", seed)
                        .raw("epochs_total", epochs_total)
                        .raw("checkpoint_epoch", checkpoint_epoch)
                        .raw("resumed_equal", resumed_equal)
                        .f64("unbroken_wall_seconds", unbroken_wall)
                        .f64("resume_wall_seconds", resume_wall),
                );
            }
        }
    }

    println!("{}", t.render());
    println!(
        "Every resumed run reproduced its unbroken counterpart bit for bit; the\n\
         resume column is what a crash recovery pays (restore + remaining\n\
         epochs), roughly the unbroken cost scaled by the un-run fraction.\n"
    );

    let mut t = Table::new([
        "epochs",
        "frame (B)",
        "chunk files (B)",
        "checkpoint() p50 (ms)",
        "save p50 (ms)",
        "save min (ms)",
        "first save (ms)",
    ]);
    let (cost, growth) = checkpoint_cost(&mut t);
    println!("Checkpoint cost on the server tenant (thread CPU, {COST_SAVES} saves per size):");
    println!("{}", t.render());

    // Every cell asserted its resume exact above.
    let head = Obj::new()
        .raw("all_resumes_exact", true)
        .f64("checkpoint_frame_growth", growth)
        .f64("checkpoint_frame_growth_bound", FRAME_GROWTH_BOUND);
    write_bench(
        "BENCH_session_resume.json",
        "session_resume",
        &head,
        &[("cells", cells), ("checkpoint_cost", cost)],
    )
    .expect("write BENCH_session_resume.json");
    println!("wrote BENCH_session_resume.json");
    if growth > FRAME_GROWTH_BOUND {
        fatal(format!(
            "the checkpoint frame grew {growth:.3}x with the history, bound {FRAME_GROWTH_BOUND}x"
        ));
    }
}
