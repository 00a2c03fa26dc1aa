//! In-memory spans around the benchmark's calls into each layer. Spans
//! are kept in memory while the run measures and written out once, when
//! it ends ([`Tracer::write_tsv`]).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One traced call site, and the crate (layer) whose code it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// One whole epoch of the mirrored `Session` loop (the parent span).
    Epoch,
    /// `FaultPlan::fault_view`.
    FaultView,
    /// `Strategy::begin_epoch` of a re-placing static strategy on a
    /// firing epoch (`PlacementKernel::place` + refit).
    Replace,
    /// `Strategy::begin_epoch` of the dynamic strategy.
    BeginEpoch,
    /// `Strategy::begin_epoch` of a static strategy on an epoch where it
    /// does not re-place.
    StaticBeginEpoch,
    /// `PhaseStreamState::next_request` (or copying a pushed batch) plus
    /// the epoch `AccessMatrix::new`/`add`.
    Draw,
    /// `Strategy::serve_batch` of the dynamic strategy.
    Serve,
    /// `Strategy::serve_batch` of a static strategy.
    StaticServe,
    /// The snapshot: `Placement::set_copies` from `copy_set` plus
    /// `nearest_assignment`.
    Snapshot,
    /// `LoadMap::from_placement`, `charge_service`, `add_loads_to`, the
    /// epoch delta and `congestion_with`.
    Accounting,
    /// `simulate_with`.
    Replay,
    /// `estimate_makespan_from_loads`.
    Estimate,
}

impl Stage {
    pub fn name(self) -> &'static str {
        match self {
            Stage::Epoch => "epoch",
            Stage::FaultView => "fault_view",
            Stage::Replace => "replace",
            Stage::BeginEpoch => "begin_epoch",
            Stage::StaticBeginEpoch => "static_begin_epoch",
            Stage::Draw => "draw",
            Stage::Serve => "serve",
            Stage::StaticServe => "static_serve",
            Stage::Snapshot => "snapshot",
            Stage::Accounting => "accounting",
            Stage::Replay => "replay",
            Stage::Estimate => "estimate",
        }
    }

    pub fn layer(self) -> &'static str {
        match self {
            Stage::Epoch | Stage::FaultView => "hbn-scenario",
            Stage::Replace | Stage::StaticBeginEpoch | Stage::StaticServe => "hbn-core",
            Stage::BeginEpoch | Stage::Serve => "hbn-dynamic",
            Stage::Draw => "hbn-workload",
            Stage::Snapshot | Stage::Accounting => "hbn-load",
            Stage::Replay | Stage::Estimate => "hbn-sim",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub stage: Stage,
    pub epoch: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span, `None` for a root.
    pub parent: Option<u32>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::with_capacity(1 << 16) }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, stage: Stage, epoch: usize, parent: Option<u32>) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span { stage, epoch: epoch as u32, start_ns, end_ns: start_ns, parent });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        let end = self.now();
        self.spans[id as usize].end_ns = end;
    }

    /// Run `f` inside a child span of `parent`.
    pub fn time<R>(&mut self, stage: Stage, epoch: usize, parent: u32, f: impl FnOnce() -> R) -> R {
        let id = self.open(stage, epoch, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// Total nanoseconds spent in spans of `stage`.
    pub fn total_ns(&self, stage: Stage) -> u64 {
        self.spans.iter().filter(|s| s.stage == stage).map(Span::ns).sum()
    }

    /// Durations of every span of `stage`, in nanoseconds.
    pub fn durations_ns(&self, stage: Stage) -> Vec<u64> {
        self.spans.iter().filter(|s| s.stage == stage).map(Span::ns).collect()
    }

    /// Nanoseconds of root spans not covered by their children: the
    /// self time of the `Session` glue the mirror reproduces.
    pub fn root_self_ns(&self) -> u64 {
        let children: u64 = self.spans.iter().filter(|s| s.parent.is_some()).map(Span::ns).sum();
        self.total_ns(Stage::Epoch).saturating_sub(children)
    }

    /// Write every span as one tab-separated line (`layer stage epoch
    /// start_ns end_ns parent`).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "layer\tstage\tepoch\tstart_ns\tend_ns\tparent")?;
        for s in &self.spans {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.stage.layer(),
                s.stage.name(),
                s.epoch,
                s.start_ns,
                s.end_ns,
                parent
            )?;
        }
        out.flush()
    }
}
