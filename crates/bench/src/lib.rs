//! # hbn-bench
//!
//! Experiment binaries (the EXP-* rows of DESIGN.md §8: `exp_paper` for
//! the paper's claims, one binary per systems experiment). The table
//! printer, the BENCH JSON writer and the helpers the binaries share
//! live here.

#![warn(missing_docs)]

pub mod bench_json;
pub mod measure;
pub mod table;

pub use bench_json::{write_bench, Obj};
pub use measure::{measure, thread_cpu_ns, Timing};
pub use table::Table;

use hbn_scenario::{ExecutionConfig, FrozenStatic, Strategy, StrategyKind, ThresholdSwitch};
use hbn_topology::{Network, NodeId};

/// Whether the experiment binaries should run in quick mode
/// (`HBN_EXP_QUICK=1`): same matrix shape, drastically reduced request
/// volumes, so CI can exercise the full pipeline without paying for the
/// production-scale instances. Benchmark documents emitted in quick mode
/// still carry their per-cell volumes, so trajectories remain
/// interpretable.
pub fn exp_quick() -> bool {
    std::env::var("HBN_EXP_QUICK").is_ok_and(|v| v == "1")
}

/// Fail a gate: print `FATAL: <message>` on stderr and exit 1. A violated
/// gate must fail the job with a non-zero exit code — not unwind into
/// whatever output buffering is in flight, and never scroll past in JSON.
pub fn fatal(message: impl std::fmt::Display) -> ! {
    eprintln!("FATAL: {message}");
    std::process::exit(1)
}

/// `count` per wall-clock second; infinite at zero wall time (written as
/// `null`).
pub fn per_sec(count: usize, secs: f64) -> f64 {
    if secs > 0.0 {
        count as f64 / secs
    } else {
        f64::INFINITY
    }
}

/// The number of distinct values among `items`.
pub fn distinct<T: Ord>(items: impl IntoIterator<Item = T>) -> usize {
    let mut items: Vec<T> = items.into_iter().collect();
    items.sort_unstable();
    items.dedup();
    items.len()
}

/// The arithmetic mean of `values`; `0` when there are none.
pub fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// A root-adjacent bus of `net` — the outage target that hurts most
/// without stranding the whole tree.
pub fn root_adjacent_bus(net: &Network) -> NodeId {
    *net.children(net.root()).iter().find(|&&v| net.is_bus(v)).expect("root has a bus child")
}

/// The built-in strategy kinds the crash harnesses cover: dynamic trees,
/// static placements and hybrid seeds.
pub fn strategy_kinds() -> Vec<StrategyKind> {
    vec![
        StrategyKind::Dynamic,
        StrategyKind::PeriodicStatic { replace_every_epochs: 4 },
        StrategyKind::Hybrid { reseed_every_epochs: 4 },
    ]
}

/// One policy of a strategy axis: a built-in [`StrategyKind`], or one of
/// the policies that exist only through the [`Strategy`] trait. A cell's
/// label is the built policy's own ([`Strategy::label`], which the
/// report carries as `ScenarioReport::strategy`).
#[derive(Debug, Clone, Copy)]
pub enum StrategyAxis {
    /// A built-in kind.
    Kind(StrategyKind),
    /// [`FrozenStatic`]: place once, never re-optimize.
    FrozenStatic,
    /// [`ThresholdSwitch`]: serve dynamically until the observed write
    /// fraction reaches `write_bound`, then switch to a static placement.
    ThresholdSwitch {
        /// Observed write fraction that triggers the switch.
        write_bound: f64,
        /// Earliest epoch the switch may fire.
        min_epochs: usize,
    },
}

impl StrategyAxis {
    /// The policy for one run: a [`hbn_scenario::run_scenario_with`] or
    /// [`hbn_scenario::Session::with_strategy`] factory.
    pub fn build(&self, net: &Network, exec: &ExecutionConfig, n: usize) -> Box<dyn Strategy> {
        match *self {
            StrategyAxis::Kind(kind) => kind.build(net, exec, n),
            StrategyAxis::FrozenStatic => Box::new(FrozenStatic::new(net, exec, n)),
            StrategyAxis::ThresholdSwitch { write_bound, min_epochs } => {
                Box::new(ThresholdSwitch::new(net, exec, n, write_bound, min_epochs))
            }
        }
    }
}

/// The strategy axis of the resume and fault matrices: [`strategy_kinds`]
/// plus a trait-only [`StrategyAxis::ThresholdSwitch`], so every state
/// shape is covered, switch composites included.
pub fn strategy_axis() -> Vec<StrategyAxis> {
    strategy_kinds()
        .into_iter()
        .map(StrategyAxis::Kind)
        .chain([StrategyAxis::ThresholdSwitch { write_bound: 0.1, min_epochs: 3 }])
        .collect()
}

/// Run `run` once per seed, each on its own scoped thread, and return the
/// results in seed order. The experiment matrices run a cell's 2–4 seed
/// shards this way; a panic in any shard propagates to the caller.
pub fn shards<T: Send>(seeds: &[u64], run: impl Fn(u64) -> T + Sync) -> Vec<T> {
    let run = &run;
    std::thread::scope(|s| {
        let handles: Vec<_> = seeds.iter().map(|&seed| s.spawn(move || run(seed))).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbn_scenario::{run_scenario, ScenarioSpec, TopologyFamily};
    use hbn_workload::phases::full_tour;

    /// One seed runs on a single worker, four on four; either way each
    /// slot holds its own seed's `run_scenario` report.
    #[test]
    fn shards_return_each_seeds_report_in_seed_order() {
        let spec = ScenarioSpec::new(
            "shards",
            TopologyFamily::Caterpillar { spine: 3, legs: 2 },
            full_tour(5, 80),
            2,
            0,
        );
        let run = |seed| run_scenario(&ScenarioSpec { seed, ..spec.clone() });
        for seeds in [&[5u64][..], &[3, 1, 7, 2]] {
            let reports = shards(seeds, run);
            assert_eq!(reports.len(), seeds.len());
            for (&seed, report) in seeds.iter().zip(&reports) {
                assert_eq!(report.seed, seed);
                assert_eq!(report, &run(seed), "shard for seed {seed}");
            }
        }
    }
}
