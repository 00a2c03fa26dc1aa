//! EXP-DYNT — serve-loop throughput of the online read-replicate /
//! write-collapse strategy: the zero-allocation `DynamicTree::serve`
//! kernel against the naive oracle `ReferenceTree::serve`, at
//! `balanced(4,3)` (64 processors) scale and above. The two are asserted
//! to agree (loads, stats) on every instance — the differential suite,
//! run in anger at full volume.
//!
//! Two workload regimes are measured:
//!
//! * **serving** — the ROADMAP's read-dominated serving regime: uniform
//!   readers over a hot object set, 1% writes, `D = 1`. Replica sets fill
//!   the tree, so the naive kernel pays O(|R|) membership scans per read
//!   and an O(n) memset plus an allocating Steiner computation per write;
//!   this is the headline speedup instance.
//! * **tour** — the six-family phase tour at `D = 3`, the scenario
//!   matrix's mixed trajectory, where the shared path-walk cost bounds the
//!   achievable ratio.
//!
//! Emits `BENCH_dynamic.json` so the serve-loop trajectory is tracked
//! across PRs alongside `BENCH_replay.json` and
//! `BENCH_scenarios.json`. `HBN_EXP_QUICK=1` shrinks the request volumes
//! for CI.

#![warn(missing_docs)]

use hbn_bench::{exp_quick, per_sec, write_bench, Obj, Table};
use hbn_dynamic::{online_trace, DynamicTree, OnlineRequest, ReferenceTree};
use hbn_topology::generators::{balanced, star, BandwidthProfile};
use hbn_topology::Network;
use hbn_workload::phases::{full_tour, PhaseKind, PhaseSchedule, PhaseSpec};
use std::time::Instant;

/// Requests per instance: ≥ 100k at production scale.
fn volume() -> usize {
    if exp_quick() {
        12_000
    } else {
        120_000
    }
}

/// One measured instance: a workload trace on a network with a strategy
/// configuration.
struct Instance {
    label: String,
    net: Network,
    reqs: Vec<OnlineRequest>,
    max_objects: usize,
    threshold: u64,
    /// Whether this instance contributes the headline speedup.
    headline: bool,
}

fn instances() -> Vec<Instance> {
    let requests = volume();
    // The serving regime: 8 hot objects, uniform readers, 1% writes.
    let serving = PhaseSchedule::new(
        8,
        vec![PhaseSpec::new(
            "serving",
            PhaseKind::StaticZipf { skew: 0.0, write_fraction: 0.01 },
            requests,
        )],
    );
    // The scenario matrix's mixed trajectory.
    let tour = full_tour(64, requests / 6);

    let mut out = Vec::new();
    for (topo, net) in [
        ("balanced(4,3)", balanced(4, 3, BandwidthProfile::Uniform)),
        ("balanced(5,3)", balanced(5, 3, BandwidthProfile::Uniform)),
        ("star(64,b=8)", star(64, 8)),
    ] {
        let reqs = online_trace(&net, &serving, 29);
        out.push(Instance {
            label: format!("serving@{topo}"),
            net,
            reqs,
            max_objects: serving.max_objects(),
            threshold: 1,
            headline: topo == "balanced(4,3)",
        });
    }
    let net = balanced(4, 3, BandwidthProfile::Uniform);
    let reqs = online_trace(&net, &tour, 29);
    out.push(Instance {
        label: "tour@balanced(4,3)".into(),
        net,
        reqs,
        max_objects: tour.max_objects(),
        threshold: 3,
        headline: false,
    });
    out
}

/// Serve the whole trace on a fresh strategy built by `new`, one request
/// at a time through `serve`, and return the strategy and the wall-clock
/// seconds of the serve loop. A discarded warm-up pass first brings
/// caches and branch predictors up, like `exp_replay_scaling`'s
/// `time_kernel`.
fn run_kernel<T>(
    inst: &Instance,
    new: fn(&Network, usize, u64) -> T,
    serve: fn(&mut T, &Network, OnlineRequest),
) -> (T, f64) {
    let pass = || {
        let mut strategy = new(&inst.net, inst.max_objects, inst.threshold);
        let start = Instant::now();
        for &req in &inst.reqs {
            serve(&mut strategy, &inst.net, req);
        }
        (strategy, start.elapsed().as_secs_f64())
    };
    pass();
    pass()
}

fn main() {
    println!(
        "EXP-DYNT — dynamic serve-loop throughput ({} requests per instance{})\n",
        volume(),
        if exp_quick() { ", HBN_EXP_QUICK" } else { "" }
    );

    // Lazy construction: strategy state for millions of objects costs one
    // slot per untouched object.
    let big_net = balanced(4, 3, BandwidthProfile::Uniform);
    let start = Instant::now();
    let big = DynamicTree::new(&big_net, 5_000_000, 3);
    println!(
        "constructed a strategy for 5,000,000 objects in {:.2} ms (lazy per-object state)\n",
        start.elapsed().as_secs_f64() * 1e3
    );
    drop(big);

    let mut cells = Vec::new();
    let mut t = Table::new([
        "instance",
        "procs",
        "requests",
        "D",
        "kernel",
        "wall (ms)",
        "req/s",
        "repl",
        "coll",
    ]);
    let mut speedup = None;

    for inst in instances() {
        let (reference, ref_secs) = run_kernel(&inst, ReferenceTree::new, ReferenceTree::serve);
        let (fast, fast_secs) = run_kernel(&inst, DynamicTree::new, DynamicTree::serve);
        // The differential suite, at full volume: the kernel must agree
        // with the oracle bit for bit.
        assert_eq!(fast.loads(), reference.loads(), "kernels diverged on {}", inst.label);
        assert_eq!(fast.stats(), reference.stats(), "stats diverged on {}", inst.label);
        let stats = fast.stats();

        for (kernel, secs) in [("reference", ref_secs), ("workspace", fast_secs)] {
            let rate = per_sec(inst.reqs.len(), secs);
            t.row([
                inst.label.clone(),
                inst.net.n_processors().to_string(),
                inst.reqs.len().to_string(),
                inst.threshold.to_string(),
                kernel.to_string(),
                format!("{:.2}", secs * 1e3),
                format!("{rate:.0}"),
                stats.replications.to_string(),
                stats.collapses.to_string(),
            ]);
            cells.push(
                Obj::new()
                    .str("network", &inst.label)
                    .raw("processors", inst.net.n_processors())
                    .raw("objects", inst.max_objects)
                    .raw("requests", inst.reqs.len())
                    .raw("threshold_d", inst.threshold)
                    .str("kernel", kernel)
                    .f64("wall_seconds", secs)
                    .f64("requests_per_sec", rate)
                    .raw("replications", stats.replications)
                    .raw("collapses", stats.collapses),
            );
        }
        if inst.headline {
            speedup = Some(ref_secs / fast_secs.max(1e-12));
        }
    }

    println!("{}", t.render());
    if let Some(s) = speedup {
        println!("workspace vs reference serve speedup at serving@balanced(4,3): {s:.1}x");
    }
    println!(
        "\nExpected shape: in the serving regime the workspace kernel wins by\n\
         ≥ 3x — replica sets fill the tree, so naive membership scans cost\n\
         O(|R|) per read while the generation stamps answer in O(1), and each\n\
         write's O(n) counter memset + allocating Steiner broadcast collapses\n\
         to a generation bump + O(|R|) induced-edge walk. The mixed tour is\n\
         bounded by the shared path-walk cost and shows a smaller ratio.\n"
    );

    let head = Obj::new().opt_f64("speedup_workspace_vs_reference", speedup);
    write_bench("BENCH_dynamic.json", "dynamic_serve_throughput", &head, &[("instances", cells)])
        .expect("write BENCH_dynamic.json");
    println!("wrote BENCH_dynamic.json");
}
