//! EXP-RESUME — checkpoint/restore determinism of the scenario
//! `Session` driver at benchmark scale.
//!
//! For every cell (access-pattern family × topology × strategy,
//! including a trait-only `ThresholdSwitch` policy) the experiment runs
//! the scenario once unbroken, taking a [`hbn_scenario::Session`]
//! checkpoint halfway through, then restores the checkpoint and drives
//! the suffix to completion. The resumed report must equal the unbroken
//! one **bit for bit** — a mismatch aborts the experiment — and the
//! document records what a crash recovery actually pays: the wall-clock
//! cost of restore + suffix versus the full run.
//!
//! Emits `BENCH_session_resume.json`; `HBN_EXP_QUICK=1` runs the same
//! cells at CI-sized volumes.

#![warn(missing_docs)]

use hbn_bench::{build_strategy, exp_quick, strategy_axis, write_bench, Obj, Table};
use hbn_scenario::{ScenarioSpec, Session, TopologyFamily};
use hbn_testutil::{cell_seeds, family_schedules, seeded_rng};
use rand::Rng;
use std::time::Instant;

/// Live objects at schedule start.
const OBJECTS: usize = 24;
/// Replication / migration charge `D`.
const THRESHOLD: u64 = 3;

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
            for kind in strategy_axis() {
                let spec = ScenarioSpec::builder(
                    format!("{family}@{topology}"),
                    topology,
                    schedule.clone(),
                )
                .threshold(THRESHOLD)
                .seed(seed)
                .epoch_requests(epoch_requests)
                .build();
                let factory = build_strategy(kind);

                // Unbroken run, checkpointing halfway.
                let start = Instant::now();
                let mut session = Session::with_strategy(&spec, &factory);
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
                let epochs_total = session.epochs().len();
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

    // Every cell asserted its resume exact above.
    let head = Obj::new().raw("all_resumes_exact", true);
    write_bench("BENCH_session_resume.json", "session_resume", &head, &[("cells", cells)])
        .expect("write BENCH_session_resume.json");
    println!("wrote BENCH_session_resume.json");
}
