//! A traced re-drive of `Session`'s epoch loop through the same public
//! calls `Session` makes, each wrapped in a span. Only `Session`'s
//! private glue is copied here: the epoch matrix and the snapshot loop.
//! Its per-epoch outputs must equal the untraced `Session`'s
//! `EpochSummary` (checked by the caller), which is what licenses the
//! per-layer split it yields.

use crate::trace::{Stage, Tracer};
use hbn_dynamic::{DynamicStats, OnlineRequest};
use hbn_load::{LoadMap, LoadRatio, Placement};
use hbn_scenario::{
    EpochEstimate, EpochSummary, ReplayKernel, ScenarioSpec, Strategy, StrategyKind,
    TrafficCounters,
};
use hbn_sim::{estimate_makespan_from_loads, simulate_with, Request, SimError, SimWorkspace};
use hbn_topology::Network;
use hbn_workload::{AccessMatrix, PhaseStreamState};

/// The outputs of one mirrored epoch that must match `Session`'s.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochOut {
    pub traffic: TrafficCounters,
    pub online_congestion: LoadRatio,
    pub placement_congestion: LoadRatio,
    pub makespan: u64,
    pub estimate: Option<EpochEstimate>,
}

impl EpochOut {
    pub fn of(summary: &EpochSummary) -> EpochOut {
        EpochOut {
            traffic: summary.traffic,
            online_congestion: summary.online_congestion,
            placement_congestion: summary.placement_congestion,
            makespan: summary.makespan,
            estimate: summary.estimate,
        }
    }
}

/// Work counts taken at the traced call sites.
#[derive(Debug, Default)]
pub struct Counters {
    pub requests: u64,
    /// Objects with traffic in an epoch, summed over epochs.
    pub touched: u64,
    /// Object slots the epoch matrix and the snapshot scan, summed.
    pub scanned: u64,
    pub exact_epochs: u64,
    pub slots: u64,
    pub packets: u64,
    pub estimated_epochs: u64,
    pub gap_sum: f64,
    pub bracket_violations: u64,
    pub replacements: u64,
}

/// Where an epoch's requests come from.
enum Source<'a> {
    Stream(&'a mut PhaseStreamState, usize),
    Batch(&'a [OnlineRequest]),
}

pub struct Mirror {
    spec: ScenarioSpec,
    net: Network,
    max_objects: usize,
    strategy: Box<dyn Strategy>,
    /// `replace_every_epochs` of a periodic-static strategy, else `None`.
    replace_every: Option<usize>,
    ws: SimWorkspace,
    aggregate: AccessMatrix,
    cum: LoadMap,
    epoch_delta: LoadMap,
    stats_mark: DynamicStats,
    epoch_idx: usize,
    trace: Vec<Request>,
    online: Vec<OnlineRequest>,
    pub counters: Counters,
}

impl Mirror {
    pub fn new(spec: &ScenarioSpec) -> Mirror {
        let net = spec.build_network();
        let max_objects = spec.schedule.max_objects();
        let strategy = spec.strategy.build(&net, &spec.exec, max_objects);
        let replace_every = match spec.strategy {
            StrategyKind::PeriodicStatic { replace_every_epochs } => Some(replace_every_epochs),
            _ => None,
        };
        Mirror {
            spec: spec.clone(),
            max_objects,
            strategy,
            replace_every,
            ws: SimWorkspace::new(),
            aggregate: AccessMatrix::new(max_objects),
            cum: LoadMap::zero(&net),
            epoch_delta: LoadMap::zero(&net),
            stats_mark: DynamicStats::default(),
            epoch_idx: 0,
            trace: Vec::new(),
            online: Vec::new(),
            counters: Counters::default(),
            net,
        }
    }

    /// Drive the spec's whole schedule, epoch by epoch, as
    /// `Session::step_epoch` does.
    pub fn run_schedule(&mut self, tr: &mut Tracer) -> Result<Vec<EpochOut>, SimError> {
        let mut stream = self.spec.schedule.stream_state(&self.net, self.spec.seed);
        let phases: Vec<usize> = self.spec.schedule.phases.iter().map(|p| p.requests).collect();
        let mut out = Vec::new();
        for mut remaining in phases {
            while remaining > 0 {
                let len = match self.spec.epoch_requests {
                    0 => remaining,
                    n => n.min(remaining),
                };
                remaining -= len;
                let replay = self.spec.exec.replay;
                out.push(self.epoch(tr, Source::Stream(&mut stream, len), replay)?);
            }
        }
        Ok(out)
    }

    /// Serve a pushed batch as one epoch, as `Session::push_epoch` does,
    /// under `replay` (the spec's kernel or a server's degraded mode).
    pub fn push(
        &mut self,
        tr: &mut Tracer,
        batch: &[OnlineRequest],
        replay: ReplayKernel,
    ) -> Result<EpochOut, SimError> {
        self.epoch(tr, Source::Batch(batch), replay)
    }

    fn epoch(
        &mut self,
        tr: &mut Tracer,
        source: Source<'_>,
        replay: ReplayKernel,
    ) -> Result<EpochOut, SimError> {
        let e = self.epoch_idx;
        let root = tr.open(Stage::Epoch, e, None);
        let view = tr.time(Stage::FaultView, e, root, || self.spec.faults.fault_view(&self.net, e));
        assert!(view.is_pristine(), "the benchmark workloads schedule no faults");

        let fires = self.replace_every.is_some_and(|k| k > 0 && e > 0 && e.is_multiple_of(k));
        let begin = match (fires, self.replace_every) {
            (true, _) => Stage::Replace,
            (false, Some(_)) => Stage::StaticBeginEpoch,
            (false, None) => Stage::BeginEpoch,
        };
        self.counters.replacements += u64::from(fires);
        tr.time(begin, e, root, || self.strategy.begin_epoch(&self.net, e, &self.aggregate, &view));

        let matrix = tr.time(Stage::Draw, e, root, || {
            self.trace.clear();
            self.online.clear();
            let mut matrix = AccessMatrix::new(self.max_objects);
            let mut record = |processor, object, is_write: bool| {
                self.trace.push(Request { processor, object, is_write });
                self.online.push(OnlineRequest { processor, object, is_write });
                let (r, w) = if is_write { (0, 1) } else { (1, 0) };
                matrix.add(processor, object, r, w);
                self.aggregate.add(processor, object, r, w);
            };
            match source {
                Source::Stream(stream, len) => {
                    for _ in 0..len {
                        let Some(req) = stream.next_request(&self.spec.schedule, &self.net) else {
                            break;
                        };
                        record(req.processor, req.object, req.is_write);
                    }
                }
                Source::Batch(batch) => {
                    for req in batch {
                        record(req.processor, req.object, req.is_write);
                    }
                }
            }
            matrix
        });
        let reads = self.online.iter().filter(|r| !r.is_write).count() as u64;
        let writes = self.online.len() as u64 - reads;

        let serve = if self.replace_every.is_some() { Stage::StaticServe } else { Stage::Serve };
        tr.time(serve, e, root, || self.strategy.serve_batch(&self.net, &self.online, &matrix));

        let (placement, touched) = tr.time(Stage::Snapshot, e, root, || {
            let mut placement = Placement::new(matrix.n_objects());
            let mut touched = 0u64;
            for x in matrix.objects() {
                if !matrix.object_entries(x).is_empty() {
                    placement.set_copies(x, self.strategy.copy_set(x).to_vec());
                    touched += 1;
                }
            }
            placement.nearest_assignment(&self.net, &matrix);
            (placement, touched)
        });
        self.counters.touched += touched;
        self.counters.scanned += matrix.n_objects() as u64;

        let placement_loads = tr.time(Stage::Accounting, e, root, || {
            let loads = LoadMap::from_placement(&self.net, &matrix, &placement);
            self.strategy.charge_service(&loads);
            loads
        });

        let sim = self.spec.exec.sim;
        let (result, estimate) = match replay {
            ReplayKernel::Workspace => {
                let r = tr.time(Stage::Replay, e, root, || {
                    simulate_with(&mut self.ws, &self.net, &matrix, &placement, &self.trace, sim)
                })?;
                (Some(r), None)
            }
            ReplayKernel::Estimate { sample_every } => {
                let bounds = tr.time(Stage::Estimate, e, root, || {
                    estimate_makespan_from_loads(&self.net, &matrix, &placement_loads, sim, None)
                });
                let sampled = sample_every > 0 && e.is_multiple_of(sample_every);
                let r = if sampled {
                    Some(tr.time(Stage::Replay, e, root, || {
                        simulate_with(
                            &mut self.ws,
                            &self.net,
                            &matrix,
                            &placement,
                            &self.trace,
                            sim,
                        )
                    })?)
                } else {
                    None
                };
                let est = EpochEstimate {
                    lower: bounds.lower,
                    upper: bounds.upper,
                    sampled_exact: sampled,
                };
                (r, Some(est))
            }
            other => panic!("the mirror replays only the kernels the workloads use, not {other}"),
        };

        let (online_congestion, placement_congestion, delta) =
            tr.time(Stage::Accounting, e, root, || {
                self.epoch_delta.reset();
                self.strategy.add_loads_to(&mut self.epoch_delta);
                self.epoch_delta.sub_assign(&self.cum);
                self.cum.add_assign(&self.epoch_delta);
                let now = self.strategy.stats();
                let delta = DynamicStats {
                    reads: now.reads - self.stats_mark.reads,
                    writes: now.writes - self.stats_mark.writes,
                    replications: now.replications - self.stats_mark.replications,
                    collapses: now.collapses - self.stats_mark.collapses,
                    repairs: now.repairs - self.stats_mark.repairs,
                };
                self.stats_mark = now;
                (
                    self.epoch_delta.congestion_with(&self.net, &view.overlay).congestion,
                    placement_loads.congestion_with(&self.net, &view.overlay).congestion,
                    delta,
                )
            });

        let c = &mut self.counters;
        c.requests += reads + writes;
        if let Some(r) = &result {
            c.exact_epochs += 1;
            c.slots += r.makespan;
            c.packets += r.delivered_requests + r.delivered_updates;
        }
        let makespan = result.as_ref().map_or(0, |r| r.makespan);
        if let Some(est) = estimate {
            c.estimated_epochs += 1;
            c.gap_sum += est.gap_ratio();
            if est.sampled_exact && !(est.lower <= makespan && makespan <= est.upper) {
                c.bracket_violations += 1;
            }
        }
        let d = self.spec.exec.threshold;
        let traffic = TrafficCounters {
            requests: reads + writes,
            reads,
            writes,
            replications: delta.replications,
            collapses: delta.collapses,
            migration_traffic: delta.replications * d,
            repairs: delta.repairs,
            repair_traffic: delta.repairs * d,
        };
        self.epoch_idx += 1;
        tr.close(root);
        Ok(EpochOut { traffic, online_congestion, placement_congestion, makespan, estimate })
    }
}
