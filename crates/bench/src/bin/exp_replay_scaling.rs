//! EXP-REPLAY: the exact replay kernel against its oracle, and the
//! congestion-bound estimator against exact replay.
//!
//! Part 1 replays identical traffic through the event-driven workspace
//! kernel ([`hbn_sim::simulate_with`]) and the naive reference oracle
//! ([`hbn_sim::simulate_reference`]) across the topology matrix,
//! asserting bit-for-bit agreement (the differential suite pins it; here
//! the agreement doubles as a release-mode check) and recording the
//! throughput ratio. The kernel rows are timed together, in rotating
//! rounds after one warm-up replay each: every round times each instance
//! as the best of `BEST_OF` replays on its reused workspace, and a row
//! reports the median and the minimum over its rounds. An oracle row is
//! a single timed run.
//!
//! Part 2 runs the estimator up to 100x the exact-replay bench scale: a
//! 100-epoch stream over `balanced(5,4)` — 6M requests — bounded in
//! `O(|V| + nnz)` per epoch, with every k-th epoch replayed exactly to
//! validate that `lower ≤ makespan ≤ upper` on each sample. A violation
//! aborts the experiment. Every cell also replays its whole stream
//! exactly (the "exact twin"), so the document records what the
//! estimator saves: `exact_wall / wall`.
//!
//! Emits `BENCH_replay.json` (quick mode: `HBN_EXP_QUICK=1` shrinks the
//! volumes, same shape).

#![warn(missing_docs)]

use hbn_baselines::{ExtendedNibbleStrategy, Strategy};
use hbn_bench::{exp_quick, fatal, measure, per_sec, write_bench, Obj, Table, Timing};
use hbn_load::Placement;
use hbn_sim::{
    estimate_makespan, expand_shuffled, simulate_reference, simulate_with, Request, SimConfig,
    SimResult, SimWorkspace,
};
use hbn_topology::generators::{balanced, BandwidthProfile};
use hbn_topology::Network;
use hbn_workload::generators as wgen;
use hbn_workload::AccessMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Timing rounds of the kernel rows (3 in quick mode).
const ROUNDS: usize = 9;

/// Replays per instance in each timing round; the round keeps the best.
const BEST_OF: usize = 3;

/// One kernel-vs-oracle instance, with the workspace its kernel replays
/// reuse.
struct Instance {
    label: &'static str,
    net: Network,
    m: AccessMatrix,
    trace: Vec<Request>,
    placement: Placement,
    ws: SimWorkspace,
}

impl Instance {
    fn replay(&mut self) -> SimResult {
        let config = SimConfig::default();
        simulate_with(&mut self.ws, &self.net, &self.m, &self.placement, &self.trace, config)
            .expect("routable")
    }
}

/// Time every instance's kernel replay in `rounds` rotating rounds: round
/// `r` starts at instance `r mod n` and times each instance as the best
/// of [`BEST_OF`] replays, so a slow spell of the host costs one round of
/// a few instances rather than every replay of one. Each instance's
/// [`Timing`] is the median (nearest rank; `rounds` is odd) and the
/// minimum over its rounds.
fn kernel_rounds(instances: &mut [Instance], rounds: usize) -> Vec<Timing> {
    let n = instances.len();
    let mut best: Vec<Vec<Timing>> = (0..n).map(|_| Vec::with_capacity(rounds)).collect();
    for r in 0..rounds {
        for k in 0..n {
            let i = (r + k) % n;
            best[i].push(measure(0, BEST_OF, || instances[i].replay()).1);
        }
    }
    best.iter()
        .map(|bests| {
            // (median, minimum) of one field of the rounds' bests.
            let over = |field: fn(&Timing) -> f64| {
                let mut v: Vec<f64> = bests.iter().map(field).collect();
                v.sort_by(f64::total_cmp);
                (v[(v.len() - 1) / 2], v[0])
            };
            let ((cpu_median, cpu_min), (wall_median, wall_min)) =
                (over(|t| t.cpu_min), over(|t| t.wall_min));
            Timing { cpu_median, cpu_min, wall_median, wall_min }
        })
        .collect()
}

fn kernel_vs_reference(cells: &mut Vec<Obj>) -> Option<f64> {
    println!("EXP-REPLAY — event-driven workspace kernel vs reference oracle\n");
    let specs: Vec<(&str, usize, u32, usize, usize)> = if exp_quick() {
        vec![("balanced(4,3)", 4, 3, 512, 6_000)]
    } else {
        vec![
            ("balanced(4,3)", 4, 3, 512, 15_000),
            ("balanced(5,3)", 5, 3, 512, 30_000),
            ("balanced(5,4)", 5, 4, 512, 60_000),
        ]
    };
    let rounds = if exp_quick() { 3 } else { ROUNDS };
    let mut instances: Vec<Instance> = specs
        .into_iter()
        .map(|(label, branching, height, objects, requests)| {
            let net = balanced(branching, height, BandwidthProfile::Uniform);
            let mut rng = StdRng::seed_from_u64(11);
            let m = wgen::zipf_read_mostly(&net, objects, requests, 0.9, 0.2, &mut rng);
            let trace = expand_shuffled(&m, &mut rng);
            let placement = ExtendedNibbleStrategy.place(&net, &m);
            Instance { label, net, m, trace, placement, ws: SimWorkspace::new() }
        })
        .collect();
    // One untimed replay each: the result the oracle must match, and the
    // warm-up that grows each workspace to its high-water size.
    let sims: Vec<SimResult> = instances.iter_mut().map(Instance::replay).collect();
    let kernel_timings = kernel_rounds(&mut instances, rounds);
    let mut t = Table::new([
        "network",
        "procs",
        "requests",
        "kernel",
        "makespan",
        "wall (ms)",
        "requests/sec",
        "speedup",
    ]);
    let mut headline = None;

    for ((inst, sim), kernel) in instances.iter().zip(sims).zip(kernel_timings) {
        let Instance { label, net, m, trace, placement, .. } = inst;
        // One oracle run at `balanced(5,4)` takes about a minute and a
        // half: it is timed once.
        let (oracle, reference) = measure(0, 1, || {
            simulate_reference(net, m, placement, trace, SimConfig::default()).expect("routable")
        });
        assert_eq!(sim, oracle, "kernel and oracle must agree on {label}");

        let speedup = reference.wall_median / kernel.wall_median.max(1e-12);
        for (kernel, timing, rounds, repeats, speedup) in [
            ("workspace", kernel, rounds, rounds * BEST_OF, Some(speedup)),
            ("reference", reference, 1, 1, None),
        ] {
            let wall = timing.wall_median;
            let rate = per_sec(trace.len(), wall);
            t.row([
                label.to_string(),
                net.n_processors().to_string(),
                trace.len().to_string(),
                kernel.into(),
                sim.makespan.to_string(),
                format!("{:.2}", wall * 1e3),
                format!("{rate:.0}"),
                speedup.map_or("-".into(), |s| format!("{s:.2}x")),
            ]);
            cells.push(
                Obj::new()
                    .str("network", label)
                    .raw("processors", net.n_processors())
                    .raw("requests", trace.len())
                    .str("kernel", kernel)
                    .raw("makespan_slots", sim.makespan)
                    .raw("rounds", rounds)
                    .raw("timed_runs", repeats)
                    .f64("wall_seconds", wall)
                    .f64("wall_min_seconds", timing.wall_min)
                    .f64("cpu_seconds", timing.cpu_median)
                    .f64("cpu_min_seconds", timing.cpu_min)
                    .f64("requests_per_sec", rate)
                    .opt_f64("speedup_vs_reference", speedup),
            );
        }
        headline = Some(speedup); // the largest instance's ratio wins
    }
    println!("{}", t.render());
    if let Some(s) = headline {
        println!("workspace kernel vs reference oracle (largest instance): {s:.2}x\n");
    }
    headline
}

/// One estimator cell: an `epochs`-long stream of fresh zipf matrices,
/// each priced by the bounds in `O(|V| + nnz)`; every `sample_every`-th
/// epoch is replayed exactly and must fall inside its bounds. The whole
/// stream is then replayed exactly as well, to show what the estimator
/// saves. Adds the cell's row to `t`.
fn estimator_cell(
    t: &mut Table,
    label: &str,
    (branching, height): (usize, u32),
    objects: usize,
    requests_per_epoch: usize,
    epochs: usize,
    sample_every: usize,
) -> Obj {
    let net = balanced(branching, height, BandwidthProfile::Uniform);
    let config = SimConfig::default();
    let mut ws = SimWorkspace::new();
    let epoch = |epoch: usize| {
        let mut rng = StdRng::seed_from_u64(11 + epoch as u64);
        let m = wgen::zipf_read_mostly(&net, objects, requests_per_epoch, 0.9, 0.2, &mut rng);
        let placement = ExtendedNibbleStrategy.place(&net, &m);
        (m, placement, rng)
    };
    let mut sampled = 0usize;
    let mut violations = 0usize;
    let mut gap_sum = 0.0f64;
    let start = Instant::now();
    for e in 0..epochs {
        let (m, placement, mut rng) = epoch(e);
        let bounds = estimate_makespan(&net, &m, &placement, config, None);
        gap_sum += bounds.gap_ratio();
        if e % sample_every == 0 {
            let trace = expand_shuffled(&m, &mut rng);
            let exact =
                simulate_with(&mut ws, &net, &m, &placement, &trace, config).expect("routable");
            sampled += 1;
            if !bounds.brackets(exact.makespan) {
                violations += 1;
                eprintln!(
                    "VIOLATION: {label} epoch {e}: bounds [{}, {}] miss makespan {}",
                    bounds.lower, bounds.upper, exact.makespan
                );
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    if violations > 0 {
        fatal(format!(
            "estimator bounds failed to bracket {violations} sampled epoch(s) on {label}"
        ));
    }

    let start = Instant::now();
    for e in 0..epochs {
        let (m, placement, mut rng) = epoch(e);
        let trace = expand_shuffled(&m, &mut rng);
        simulate_with(&mut ws, &net, &m, &placement, &trace, config).expect("routable");
    }
    let exact_wall = start.elapsed().as_secs_f64();

    let mean_gap = gap_sum / epochs as f64;
    let exact_over_estimate = exact_wall / wall;
    t.row([
        label.to_string(),
        net.n_processors().to_string(),
        (requests_per_epoch * epochs).to_string(),
        epochs.to_string(),
        sampled.to_string(),
        violations.to_string(),
        format!("{mean_gap:.2}"),
        format!("{wall:.2}"),
        format!("{exact_wall:.2}"),
        format!("{exact_over_estimate:.2}x"),
    ]);
    Obj::new()
        .str("network", label)
        .raw("processors", net.n_processors())
        .raw("requests", requests_per_epoch * epochs)
        .raw("epochs", epochs)
        .raw("sampled_epochs", sampled)
        .raw("violations", violations)
        .f64("mean_gap_ratio", mean_gap)
        .f64("wall_seconds", wall)
        .f64("exact_wall_seconds", exact_wall)
        .f64("exact_over_estimate", exact_over_estimate)
}

fn estimator_scaling() -> Vec<Obj> {
    println!("Estimator mode — congestion bounds with sampled exact validation\n");
    let mut t = Table::new([
        "network",
        "procs",
        "requests",
        "epochs",
        "sampled",
        "violations",
        "mean gap",
        "wall (s)",
        "exact twin (s)",
        "exact/estimate",
    ]);
    let cells = if exp_quick() {
        vec![estimator_cell(&mut t, "balanced(4,3)", (4, 3), 512, 6_000, 10, 5)]
    } else {
        vec![
            estimator_cell(&mut t, "balanced(4,3)", (4, 3), 512, 15_000, 10, 2),
            // 100x the exact-replay bench cell (100 epochs x 60k =
            // 6M requests on 625 processors), validated through 5 exact
            // samples.
            estimator_cell(&mut t, "balanced(5,4)", (5, 4), 512, 60_000, 100, 20),
        ]
    };
    println!("{}", t.render());
    println!(
        "Every sampled epoch's exact makespan fell inside its bounds; the\n\
         upper bound is conservative by design (mean gap above), and the\n\
         estimator prices epochs without running the slot loop.\n"
    );
    cells
}

fn main() {
    let mut instances = Vec::new();
    let speedup = kernel_vs_reference(&mut instances);
    let estimates = estimator_scaling();
    // A bracket violation exited inside `estimator_cell`.
    let head = Obj::new()
        .opt_f64("speedup_vs_reference", speedup)
        .raw("estimator_brackets_validated", true);
    let sections = [("instances", instances), ("estimator", estimates)];
    write_bench("BENCH_replay.json", "replay_scaling", &head, &sections)
        .expect("write BENCH_replay.json");
    println!("wrote BENCH_replay.json");
}
