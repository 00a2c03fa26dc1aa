//! The incremental scenario driver: a [`Session`] owns the clock, the
//! request stream, the observed aggregate and the replay machinery, and
//! drives any [`Strategy`] one epoch at a time.
//!
//! [`crate::run_scenario`] is a thin wrapper — `Session::new` plus
//! [`Session::step_epoch`] to exhaustion — pinned bit-for-bit to the
//! pre-session engine by the differential suite. The incremental form
//! adds what batch running cannot do:
//!
//! * **streaming**: [`Session::step_epoch`] returns each
//!   [`EpochSummary`] as it happens, so a long run is observable (and
//!   abortable) while in flight;
//! * **pushed traffic**: [`Session::push_epoch`] serves an
//!   externally-supplied request batch — the long-running-service mode,
//!   where the schedule is not known up front;
//! * **strategy swaps**: [`Session::swap_strategy`] replaces the policy
//!   at an epoch boundary, the successor adopting the predecessor's copy
//!   sets ([`Strategy::adopt`]) while the session keeps cumulative
//!   accounting unbroken;
//! * **checkpoint/restore**: [`Session::checkpoint`] snapshots the full
//!   driver + policy state (copy sets, aggregate matrix, RNG cursor,
//!   accumulated summaries); [`Session::restore`] resumes it, and the
//!   resumed run reproduces an unbroken one exactly
//!   (`exp_session_resume` proves it at benchmark scale).

use crate::durable::{
    parent_dir, put_f64, put_loads, put_ratio, put_stats, put_str, put_u32, put_u64, put_u8,
    read_frame, spec_fingerprint, write_frame, Dec, RestoreError, MAGIC,
};
use crate::engine::{
    recovery_epochs, summarise_phase, EpochEstimate, EpochSummary, PhaseSummary, ScenarioReport,
    TenantSummary, TrafficCounters,
};
use crate::faults::FaultView;
use crate::history::History;
use crate::spec::{ExecutionConfig, ReplayKernel, ScenarioSpec};
use crate::strategy::{strategy_from_durable, Strategy};
use hbn_core::PlacementKernel;
use hbn_dynamic::{DynamicStats, OnlineRequest};
use hbn_load::{add_object_loads, LoadMap, Placement};
use hbn_sim::{
    estimate_makespan_from_loads, simulate_reference, simulate_reference_overlay, simulate_with,
    simulate_with_overlay, SimError, SimResult, SimWorkspace,
};
use hbn_topology::steiner::SteinerScratch;
use hbn_topology::{Network, NodeId};
use hbn_workload::{AccessMatrix, ObjectId, PhaseStreamState, Request};
use std::path::Path;

fn stats_delta(cur: DynamicStats, prev: DynamicStats) -> DynamicStats {
    DynamicStats {
        reads: cur.reads - prev.reads,
        writes: cur.writes - prev.writes,
        replications: cur.replications - prev.replications,
        collapses: cur.collapses - prev.collapses,
        repairs: cur.repairs - prev.repairs,
    }
}

/// The buffers a [`Session`] reuses from epoch to epoch: the epoch's
/// access matrix, the strategy's snapshot placement serving it, the
/// snapshot's loads and the accounting's Steiner scratch. Each epoch
/// clears the matrix and the snapshot over the previous epoch's support,
/// so an epoch costs what its traffic touches, not `max_objects`. The
/// filled matrix is folded into the observed aggregate
/// ([`AccessMatrix::add_matrix`]) with one add per distinct
/// `(object, processor)` entry instead of one per request.
///
/// Once filled, the matrix's support is sorted
/// ([`AccessMatrix::sort_support`]), so the fold, the snapshot, the
/// nearest-copy assignment, the accounting and the next epoch's clear
/// visit object ids in ascending order and read the per-object arrays
/// (the matrices, the snapshot, the strategy's copy sets) in address
/// order. Every one of those walks sums or writes per object, so the
/// order changes no result.
struct EpochBuffers {
    matrix: AccessMatrix,
    snapshot: Placement,
    loads: LoadMap,
    steiner: SteinerScratch,
}

/// The run state of a [`Session`]: everything a checkpoint captures and
/// a restore resumes. Every other `Session` field is the spec or a cache
/// rebuilt from it (see [`Session::with_state`]), so new run state goes
/// here and into the durable codec, and nowhere else.
#[derive(Clone)]
struct State {
    /// The serving policy; cloning it is [`crate::StrategySnapshot::snapshot`].
    strategy: Box<dyn Strategy>,
    stream: PhaseStreamState,
    /// Requests drawn from the stream so far — the durable form of the
    /// stream cursor (a disk restore replays this many draws from a
    /// fresh seed instead of serializing RNG internals).
    requests_drawn: u64,
    /// Cumulative observed access matrix (what re-optimizing strategies
    /// see at epoch boundaries).
    aggregate: AccessMatrix,
    /// Merged cumulative loads at the last epoch boundary.
    cum: LoadMap,
    /// Running load delta of the current phase.
    phase_delta: LoadMap,
    /// Loads and counters of strategies retired by
    /// [`Session::swap_strategy`]; reporting always merges them with the
    /// live strategy's so swaps never lose traffic.
    retired_loads: LoadMap,
    retired_stats: DynamicStats,
    /// Merged counters at the last epoch boundary.
    stats_mark: DynamicStats,
    /// Per-tenant cumulative placement loads, attributing the epoch
    /// snapshot loads by the object partition `id % tenants`: each
    /// object's loads go to its tenant, so these sum exactly to the total
    /// placement loads. Empty for single-tenant schedules.
    tenant_loads: Vec<LoadMap>,
    /// Per-tenant request counts under the same partition.
    tenant_requests: Vec<u64>,
    /// Global epoch counter across phases — the strategy boundary clock.
    epoch_idx: usize,
    phase_idx: usize,
    remaining_in_phase: usize,
    /// Index into `history` where the current phase began.
    phase_start: usize,
    /// Every epoch summary so far; cloning it shares the frozen chunks.
    history: History,
    /// Completed phase summaries, bounded by the schedule.
    phases: Vec<PhaseSummary>,
}

/// A resumable snapshot of a [`Session`]: the policy state (copy sets,
/// loads, counters via [`crate::StrategySnapshot::snapshot`]), the
/// stream's RNG cursor, the observed aggregate matrix and every summary
/// accumulated so far.
/// Opaque by design — produce with [`Session::checkpoint`], consume with
/// [`Session::restore`].
pub struct SessionCheckpoint {
    spec: ScenarioSpec,
    state: State,
}

impl SessionCheckpoint {
    /// Global epoch index the restored session will continue from.
    pub fn epoch_index(&self) -> usize {
        self.state.epoch_idx
    }

    /// Write the checkpoint to `path` as a durable file: a versioned,
    /// checksummed frame written atomically (tmp sibling + fsync +
    /// rename), so a crash mid-write leaves any previous checkpoint
    /// intact. Restore with [`Session::restore_from_file`].
    ///
    /// The frame holds the run state and the unfrozen tail of the epoch
    /// history. Each frozen chunk of the history is a checksummed file of
    /// its own in `path`'s directory, named by the spec fingerprint, the
    /// chunk index and its digest, and written — atomically, before the
    /// frame that references it — only if this run has not yet written it
    /// to that directory. A save therefore costs what changed since the
    /// last save there, not the run's whole history.
    ///
    /// This relies on one condition: the chunk files in a directory are
    /// shared by every frame the run saves there, so they must outlive all
    /// of those frames. Delete frames freely; delete chunk files only with
    /// the last frame that references them.
    ///
    /// # Errors
    ///
    /// [`RestoreError::UnsupportedStrategy`] when the policy does not
    /// implement [`Strategy::durable`] (external policies by default);
    /// [`RestoreError::Io`] on filesystem failures.
    pub fn save(&self, path: &Path) -> Result<(), RestoreError> {
        let st = &self.state;
        let strategy_bytes = st
            .strategy
            .durable()
            .ok_or_else(|| RestoreError::UnsupportedStrategy(st.strategy.label()))?;
        let fingerprint = spec_fingerprint(&self.spec);
        let mut p = Vec::new();
        put_u64(&mut p, fingerprint);
        put_u64(&mut p, st.requests_drawn);
        put_u64(&mut p, strategy_bytes.len() as u64);
        p.extend_from_slice(&strategy_bytes);
        put_matrix(&mut p, &st.aggregate);
        put_loads(&mut p, &st.cum);
        put_loads(&mut p, &st.phase_delta);
        put_loads(&mut p, &st.retired_loads);
        put_stats(&mut p, st.retired_stats);
        put_stats(&mut p, st.stats_mark);
        put_u64(&mut p, st.tenant_loads.len() as u64);
        for loads in &st.tenant_loads {
            put_loads(&mut p, loads);
        }
        for &requests in &st.tenant_requests {
            put_u64(&mut p, requests);
        }
        put_u64(&mut p, st.epoch_idx as u64);
        put_u64(&mut p, st.phase_idx as u64);
        put_u64(&mut p, st.remaining_in_phase as u64);
        put_u64(&mut p, st.phase_start as u64);
        st.history.put_durable(&mut p);
        put_u64(&mut p, st.phases.len() as u64);
        for ph in &st.phases {
            put_phase(&mut p, ph);
        }
        st.history.save_chunks(parent_dir(path), fingerprint)?;
        write_frame(path, MAGIC, &p)
    }
}

// --- durable session codec --------------------------------------------

fn put_matrix(out: &mut Vec<u8>, matrix: &AccessMatrix) {
    put_u64(out, matrix.n_objects() as u64);
    for x in matrix.objects() {
        let entries = matrix.object_entries(x);
        put_u64(out, entries.len() as u64);
        for e in entries {
            put_u32(out, e.processor.0);
            put_u64(out, e.reads);
            put_u64(out, e.writes);
        }
    }
}

fn read_matrix(
    dec: &mut Dec<'_>,
    net: &Network,
    max_objects: usize,
) -> Result<AccessMatrix, String> {
    let n = dec.u64()? as usize;
    if n != max_objects {
        return Err(format!("matrix of {n} objects, expected {max_objects}"));
    }
    let mut matrix = AccessMatrix::new(n);
    for i in 0..n {
        let n_entries = dec.len(20)?;
        for _ in 0..n_entries {
            let p = NodeId(dec.u32()?);
            if !net.is_processor(p) {
                return Err(format!("matrix entry at non-processor node {}", p.0));
            }
            let reads = dec.u64()?;
            let writes = dec.u64()?;
            if reads == 0 && writes == 0 {
                return Err("empty matrix entry".into());
            }
            matrix.add(p, ObjectId(i as u32), reads, writes);
        }
    }
    Ok(matrix)
}

fn put_traffic(out: &mut Vec<u8>, t: TrafficCounters) {
    put_u64(out, t.requests);
    put_u64(out, t.reads);
    put_u64(out, t.writes);
    put_u64(out, t.replications);
    put_u64(out, t.collapses);
    put_u64(out, t.migration_traffic);
    put_u64(out, t.repairs);
    put_u64(out, t.repair_traffic);
}

fn read_traffic(dec: &mut Dec<'_>) -> Result<TrafficCounters, String> {
    Ok(TrafficCounters {
        requests: dec.u64()?,
        reads: dec.u64()?,
        writes: dec.u64()?,
        replications: dec.u64()?,
        collapses: dec.u64()?,
        migration_traffic: dec.u64()?,
        repairs: dec.u64()?,
        repair_traffic: dec.u64()?,
    })
}

pub(crate) fn put_epoch(out: &mut Vec<u8>, e: &EpochSummary) {
    put_u64(out, e.phase as u64);
    put_traffic(out, e.traffic);
    put_ratio(out, e.online_congestion);
    put_ratio(out, e.placement_congestion);
    put_u64(out, e.makespan);
    put_f64(out, e.mean_latency);
    put_u64(out, e.p99_latency);
    match e.estimate {
        None => put_u8(out, 0),
        Some(est) => {
            put_u8(out, if est.sampled_exact { 2 } else { 1 });
            put_u64(out, est.lower);
            put_u64(out, est.upper);
        }
    }
    put_u64(out, e.live_objects as u64);
    put_u64(out, e.buses_down as u64);
    put_u64(out, e.buses_degraded as u64);
}

pub(crate) fn read_epoch(dec: &mut Dec<'_>) -> Result<EpochSummary, String> {
    Ok(EpochSummary {
        phase: dec.u64()? as usize,
        traffic: read_traffic(dec)?,
        online_congestion: dec.ratio()?,
        placement_congestion: dec.ratio()?,
        makespan: dec.u64()?,
        mean_latency: dec.f64()?,
        p99_latency: dec.u64()?,
        estimate: match dec.u8()? {
            0 => None,
            tag @ (1 | 2) => {
                let lower = dec.u64()?;
                let upper = dec.u64()?;
                if lower > upper {
                    return Err(format!("inverted epoch bounds {lower} > {upper}"));
                }
                Some(EpochEstimate { lower, upper, sampled_exact: tag == 2 })
            }
            tag => return Err(format!("unknown epoch estimate tag {tag}")),
        },
        live_objects: dec.u64()? as usize,
        buses_down: dec.u64()? as usize,
        buses_degraded: dec.u64()? as usize,
    })
}

fn put_phase(out: &mut Vec<u8>, ph: &PhaseSummary) {
    put_str(out, &ph.label);
    put_u64(out, ph.epochs as u64);
    put_traffic(out, ph.traffic);
    put_ratio(out, ph.online_congestion);
    put_u64(out, ph.makespan);
    put_f64(out, ph.mean_latency);
    put_u64(out, ph.p99_latency);
}

fn read_phase(dec: &mut Dec<'_>) -> Result<PhaseSummary, String> {
    Ok(PhaseSummary {
        label: dec.string()?,
        epochs: dec.u64()? as usize,
        traffic: read_traffic(dec)?,
        online_congestion: dec.ratio()?,
        makespan: dec.u64()?,
        mean_latency: dec.f64()?,
        p99_latency: dec.u64()?,
    })
}

/// Decode a durable payload back into a checkpoint under `spec`,
/// validating the spec fingerprint, every length and every index,
/// reading the frozen history chunks from `dir` and rebuilding the
/// stream cursor by replaying the recorded number of draws from the
/// spec's seed.
fn decode_checkpoint(
    spec: &ScenarioSpec,
    payload: &[u8],
    dir: &Path,
) -> Result<SessionCheckpoint, RestoreError> {
    let net = spec.build_network();
    let max_objects = spec.schedule.max_objects();
    let mut dec = Dec::new(payload);
    let found = dec.u64().map_err(RestoreError::Malformed)?;
    let expected = spec_fingerprint(spec);
    if found != expected {
        return Err(RestoreError::SpecMismatch { expected, found });
    }
    let (mut state, digests, tail) =
        decode_state(spec, &net, max_objects, &mut dec).map_err(RestoreError::Malformed)?;
    dec.finish().map_err(RestoreError::Malformed)?;
    state.history = History::restore(dir, expected, &digests, tail)?;
    Ok(SessionCheckpoint { spec: spec.clone(), state })
}

/// The run state of a payload, with an empty history, plus the
/// history's chunk digests and tail.
fn decode_state(
    spec: &ScenarioSpec,
    net: &Network,
    max_objects: usize,
    dec: &mut Dec<'_>,
) -> Result<(State, Vec<u64>, Vec<EpochSummary>), String> {
    let requests_drawn = dec.u64()?;
    let strategy_bytes = dec.bytes()?;
    let strategy = strategy_from_durable(net, &spec.exec, max_objects, strategy_bytes)?;
    let aggregate = read_matrix(dec, net, max_objects)?;
    let cum = dec.loads(net)?;
    let phase_delta = dec.loads(net)?;
    let retired_loads = dec.loads(net)?;
    let retired_stats = dec.stats()?;
    let stats_mark = dec.stats()?;
    let n_tenants = dec.u64()? as usize;
    let expected_tenants = if spec.schedule.tenants() > 1 { spec.schedule.tenants() } else { 0 };
    if n_tenants != expected_tenants {
        return Err(format!("{n_tenants} tenant accumulators, expected {expected_tenants}"));
    }
    let tenant_loads = (0..n_tenants).map(|_| dec.loads(net)).collect::<Result<Vec<_>, _>>()?;
    let tenant_requests = (0..n_tenants).map(|_| dec.u64()).collect::<Result<Vec<_>, _>>()?;
    let epoch_idx = dec.u64()? as usize;
    let phase_idx = dec.u64()? as usize;
    let remaining_in_phase = dec.u64()? as usize;
    let phase_start = dec.u64()? as usize;
    let (digests, tail) = History::read_durable(dec)?;
    let n_phases = dec.len(1)?;
    let phases = (0..n_phases).map(|_| read_phase(dec)).collect::<Result<Vec<_>, _>>()?;
    let mut stream = spec.schedule.stream_state(net, spec.seed);
    for drawn in 0..requests_drawn {
        if stream.next_request(&spec.schedule, net).is_none() {
            return Err(format!(
                "stream cursor {requests_drawn} beyond the schedule (exhausted after {drawn})"
            ));
        }
    }
    let state = State {
        strategy,
        stream,
        requests_drawn,
        aggregate,
        cum,
        phase_delta,
        retired_loads,
        retired_stats,
        stats_mark,
        tenant_loads,
        tenant_requests,
        epoch_idx,
        phase_idx,
        remaining_in_phase,
        phase_start,
        history: History::default(),
        phases,
    };
    Ok((state, digests, tail))
}

/// The internal-consistency checks of [`Session::restore`]: the fault
/// plan must be valid on the instantiated network and every schedule
/// cursor in range and mutually consistent.
fn validate_cursors(spec: &ScenarioSpec, cp: &State, net: &Network) -> Result<(), RestoreError> {
    let bad = |msg: String| Err(RestoreError::InvalidState(msg));
    if let Err(e) = spec.faults.validate(net) {
        return bad(format!("invalid fault plan: {e}"));
    }
    let n_phases = spec.schedule.phases.len();
    if cp.phase_idx > n_phases {
        return bad(format!("phase cursor {} beyond {n_phases} phases", cp.phase_idx));
    }
    if cp.phases.len() != cp.phase_idx {
        return bad(format!(
            "{} completed phases disagree with phase cursor {}",
            cp.phases.len(),
            cp.phase_idx
        ));
    }
    if cp.epoch_idx != cp.history.len() {
        return bad(format!(
            "epoch cursor {} disagrees with {} recorded epochs",
            cp.epoch_idx,
            cp.history.len()
        ));
    }
    if cp.phase_start > cp.history.len() {
        return bad(format!("phase start {} beyond {} epochs", cp.phase_start, cp.history.len()));
    }
    if let Some(phase) = spec.schedule.phases.get(cp.phase_idx) {
        if cp.remaining_in_phase > phase.requests {
            return bad(format!(
                "{} requests remaining in a {}-request phase",
                cp.remaining_in_phase, phase.requests
            ));
        }
    }
    Ok(())
}

/// One scenario run as a stateful, incremental driver — see the module
/// docs for the lifecycle and `DESIGN.md` §6.4 for state ownership.
///
/// ```
/// use hbn_scenario::{run_scenario, ScenarioSpec, Session, TopologyFamily};
/// use hbn_workload::phases::full_tour;
///
/// let topology = TopologyFamily::Balanced { branching: 2, height: 2 };
/// let mut spec = ScenarioSpec::new("incremental", topology, full_tour(5, 60), 2, 3);
/// spec.epoch_requests = 40;
///
/// // Drive epoch by epoch; summaries stream out as they happen.
/// let mut session = Session::new(&spec);
/// let mut epochs = 0;
/// while let Some(epoch) = session.step_epoch().unwrap() {
///     assert!(epoch.traffic.requests > 0);
///     epochs += 1;
/// }
/// assert_eq!(epochs, 12); // 6 phases x 60 requests in epochs of 40 + 20
///
/// // The batch entry point is this exact loop.
/// assert_eq!(session.into_report(), run_scenario(&spec));
/// ```
pub struct Session {
    spec: ScenarioSpec,
    /// The run state — what [`Session::checkpoint`] clones.
    state: State,
    // Caches rebuilt from `spec` by `Session::with_state`: the network,
    // the object bound, the simulator scratch, the epoch-delta scratch
    // map, the epoch's request buffer, which the strategy serves and the
    // simulator replays, and the epoch buffers, which the first epoch
    // builds so that building a session allocates nothing for them.
    net: Network,
    max_objects: usize,
    ws: SimWorkspace,
    epoch_delta: LoadMap,
    epoch_trace: Vec<Request>,
    epoch: Option<EpochBuffers>,
    /// Serving-mode override of the spec's replay kernel — the graceful-
    /// degradation hook of service layers ([`Session::set_replay_override`]).
    /// Not part of checkpoints: a restored session starts unthrottled and
    /// the caller re-applies its current mode.
    replay_override: Option<ReplayKernel>,
}

impl Session {
    /// A session for `spec`, serving through the built-in strategy named
    /// by `spec.strategy`.
    pub fn new(spec: &ScenarioSpec) -> Session {
        Session::with_strategy(spec, |net, exec, max_objects| {
            spec.strategy.build(net, exec, max_objects)
        })
    }

    /// A session serving through a caller-built [`Strategy`] — the open
    /// end of the engine. The factory receives the instantiated network,
    /// the execution config and the object-count bound, which is
    /// everything a policy constructor needs; `spec.strategy` is ignored.
    ///
    /// # Panics
    ///
    /// Panics if `spec.faults` is invalid on the instantiated network
    /// ([`crate::FaultPlan::validate`]).
    pub fn with_strategy(
        spec: &ScenarioSpec,
        factory: impl FnOnce(&Network, &ExecutionConfig, usize) -> Box<dyn Strategy>,
    ) -> Session {
        let net = spec.build_network();
        if let Err(e) = spec.faults.validate(&net) {
            panic!("scenario {:?} has an invalid fault plan: {e}", spec.name);
        }
        let max_objects = spec.schedule.max_objects();
        let n_tenants = spec.schedule.tenants();
        let tenant_slots = if n_tenants > 1 { n_tenants } else { 0 };
        let state = State {
            strategy: factory(&net, &spec.exec, max_objects),
            stream: spec.schedule.stream_state(&net, spec.seed),
            requests_drawn: 0,
            aggregate: AccessMatrix::new(max_objects),
            cum: LoadMap::zero(&net),
            phase_delta: LoadMap::zero(&net),
            retired_loads: LoadMap::zero(&net),
            retired_stats: DynamicStats::default(),
            stats_mark: DynamicStats::default(),
            tenant_loads: (0..tenant_slots).map(|_| LoadMap::zero(&net)).collect(),
            tenant_requests: vec![0; tenant_slots],
            epoch_idx: 0,
            phase_idx: 0,
            remaining_in_phase: spec.schedule.phases.first().map_or(0, |p| p.requests),
            phase_start: 0,
            history: History::default(),
            phases: Vec::new(),
        };
        Session::with_state(spec.clone(), net, state)
    }

    /// The one constructor behind [`Session::with_strategy`] and
    /// [`Session::restore`]: `state` plus fresh caches — simulator and
    /// epoch scratch, an empty request buffer and no replay override.
    fn with_state(spec: ScenarioSpec, net: Network, state: State) -> Session {
        Session {
            max_objects: spec.schedule.max_objects(),
            ws: SimWorkspace::new(),
            epoch_delta: LoadMap::zero(&net),
            epoch_trace: Vec::new(),
            epoch: None,
            replay_override: None,
            spec,
            state,
            net,
        }
    }

    /// The instantiated network of this run.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The execution configuration of this run.
    pub fn execution(&self) -> &ExecutionConfig {
        &self.spec.exec
    }

    /// Upper bound on distinct object ids in this run (what strategy
    /// constructors size their state with).
    pub fn max_objects(&self) -> usize {
        self.max_objects
    }

    /// Global index of the next epoch to run.
    pub fn epoch_index(&self) -> usize {
        self.state.epoch_idx
    }

    /// The strategy currently serving the session.
    pub fn strategy(&self) -> &dyn Strategy {
        self.state.strategy.as_ref()
    }

    /// Override which replay kernel prices the *following* epochs,
    /// without touching the spec (and therefore without changing the
    /// spec fingerprint durable checkpoints are keyed by). `None`
    /// restores the spec's own kernel.
    ///
    /// This is the graceful-degradation hook of service layers: an
    /// overloaded server can drop a session from exact slot replay to
    /// [`ReplayKernel::Estimate`] while a backlog drains, then lift the
    /// override once recovered. Each epoch's summary records which mode
    /// priced it ([`EpochSummary::estimate`] is `Some` exactly for
    /// estimated epochs), so degraded windows stay visible in reports.
    ///
    /// The override is serving state, not run identity: it is *not*
    /// captured by [`Session::checkpoint`], and a restored session
    /// starts with no override — callers that degrade re-apply their
    /// current mode after a restore.
    ///
    /// ```
    /// use hbn_scenario::{ReplayKernel, ScenarioSpec, Session, TopologyFamily};
    /// use hbn_workload::phases::full_tour;
    ///
    /// let spec = ScenarioSpec::new(
    ///     "degrade", TopologyFamily::Star { processors: 4, bus_bandwidth: 2 },
    ///     full_tour(4, 40), 2, 5);
    /// let mut session = Session::new(&spec);
    /// let exact = session.step_epoch().unwrap().unwrap();
    /// assert!(exact.estimate.is_none());
    ///
    /// session.set_replay_override(Some(ReplayKernel::Estimate { sample_every: 0 }));
    /// let degraded = session.step_epoch().unwrap().unwrap();
    /// assert!(degraded.estimate.is_some());
    ///
    /// session.set_replay_override(None);
    /// let restored = session.step_epoch().unwrap().unwrap();
    /// assert!(restored.estimate.is_none());
    /// ```
    pub fn set_replay_override(&mut self, replay: Option<ReplayKernel>) {
        self.replay_override = replay;
    }

    /// Per-tenant cumulative placement loads (object partition
    /// `id % tenants`); empty for single-tenant schedules. Indexed by
    /// tenant, in step with [`Session::tenant_requests`].
    pub fn tenant_loads(&self) -> &[LoadMap] {
        &self.state.tenant_loads
    }

    /// Per-tenant cumulative request counts under the same partition;
    /// empty for single-tenant schedules.
    pub fn tenant_requests(&self) -> &[u64] {
        &self.state.tenant_requests
    }

    /// The summary of epoch `i` (global index, in execution order), if
    /// it has run.
    pub fn epoch(&self, i: usize) -> Option<&EpochSummary> {
        self.state.history.get(i)
    }

    /// Summaries of the *completed* schedule phases so far.
    pub fn phases(&self) -> &[PhaseSummary] {
        &self.state.phases
    }

    /// Run the next scheduled epoch: strategy boundary work, drawing the
    /// epoch's requests from the stream, serving them, replaying them on
    /// the simulator under the strategy's snapshot placement, and
    /// summarising. Returns `None` once the schedule is exhausted.
    ///
    /// # Errors
    ///
    /// [`SimError::SlotBudgetExceeded`] if the replay outruns
    /// `exec.sim.max_slots`; the session is left unusable for further
    /// stepping in that case.
    pub fn step_epoch(&mut self) -> Result<Option<EpochSummary>, SimError> {
        // Zero-request phases (legal in a schedule) complete immediately,
        // with an empty summary, exactly like the batch engine's
        // per-phase loop.
        let n_phases = self.spec.schedule.phases.len();
        while self.state.phase_idx < n_phases && self.state.remaining_in_phase == 0 {
            self.finish_phase();
        }
        if self.state.phase_idx >= n_phases {
            return Ok(None);
        }

        let epoch_len = if self.spec.epoch_requests == 0 {
            self.state.remaining_in_phase
        } else {
            self.spec.epoch_requests.min(self.state.remaining_in_phase)
        };
        self.state.remaining_in_phase -= epoch_len;

        let view = self.begin_epoch();
        self.epoch_trace.clear();
        for _ in 0..epoch_len {
            let Some(req) = self.state.stream.next_request(&self.spec.schedule, &self.net) else {
                break;
            };
            self.state.requests_drawn += 1;
            self.epoch_trace.push(req);
        }

        let summary = self.run_epoch_body(self.state.phase_idx, true, &view)?;
        if self.state.remaining_in_phase == 0 {
            self.finish_phase();
        }
        Ok(Some(summary))
    }

    /// Serve an externally-supplied request batch as one epoch — the
    /// long-running-service entry point, for traffic that is not known
    /// up front. The batch goes through the full epoch pipeline
    /// (boundary work, serving, replay, summary) and advances the global
    /// epoch clock, but does not consume the schedule's stream; pushed
    /// epochs are reported with `phase == schedule.phases.len()` and
    /// count into the report totals without a per-phase summary.
    ///
    /// ```
    /// use hbn_dynamic::OnlineRequest;
    /// use hbn_scenario::{ScenarioSpec, Session, TopologyFamily};
    /// use hbn_workload::{phases::full_tour, ObjectId};
    ///
    /// let spec = ScenarioSpec::new(
    ///     "pushed", TopologyFamily::Star { processors: 4, bus_bandwidth: 2 },
    ///     full_tour(4, 30), 2, 5);
    /// let mut session = Session::new(&spec);
    /// let p = session.network().processors().to_vec();
    /// let batch: Vec<OnlineRequest> = (0..20)
    ///     .map(|i| OnlineRequest {
    ///         processor: p[i % p.len()],
    ///         object: ObjectId((i % 3) as u32),
    ///         is_write: i % 5 == 0,
    ///     })
    ///     .collect();
    /// let epoch = session.push_epoch(&batch).unwrap();
    /// assert_eq!(epoch.traffic.requests, 20);
    /// assert_eq!(epoch.phase, spec.schedule.phases.len());
    /// ```
    ///
    /// # Errors
    ///
    /// As [`Session::step_epoch`].
    ///
    /// # Panics
    ///
    /// Panics — before touching any session state — if a pushed request
    /// references an object id at or beyond [`Session::max_objects`] or
    /// a node that is not one of the network's processors (external
    /// traffic is untrusted; scheduled traffic is valid by
    /// construction).
    pub fn push_epoch(&mut self, batch: &[OnlineRequest]) -> Result<EpochSummary, SimError> {
        // Validate the whole batch up front so a bad request cannot
        // leave the session partially mutated.
        for (i, req) in batch.iter().enumerate() {
            assert!(
                req.object.index() < self.max_objects,
                "pushed request {i} references object {} >= max_objects {}",
                req.object.index(),
                self.max_objects
            );
            assert!(
                self.net.is_processor(req.processor),
                "pushed request {i} is issued from a non-processor node"
            );
        }
        let view = self.begin_epoch();
        self.epoch_trace.clear();
        self.epoch_trace.extend_from_slice(batch);
        self.run_epoch_body(self.spec.schedule.phases.len(), false, &view)
    }

    /// Strategy boundary work, before the epoch's requests are buffered:
    /// re-optimization / re-seeding / fault self-healing sees only the
    /// traffic observed *before* this epoch, plus the epoch's fault view,
    /// which is returned.
    fn begin_epoch(&mut self) -> FaultView {
        let st = &mut self.state;
        let view = self.spec.faults.fault_view(&self.net, st.epoch_idx);
        st.strategy.begin_epoch(&self.net, st.epoch_idx, &st.aggregate, &view);
        view
    }

    /// The shared body of an epoch, run on the buffered trace after the
    /// strategy's boundary work: fold the trace into the epoch matrix and
    /// that into the observed aggregate, serve, snapshot, replay, account deltas,
    /// summarise. `in_phase` controls whether the epoch's traffic also
    /// rolls into the running phase delta.
    ///
    /// The epoch matrix, the snapshot and the accounting are touched only
    /// over the epoch's support ([`EpochBuffers`]).
    fn run_epoch_body(
        &mut self,
        phase: usize,
        in_phase: bool,
        view: &FaultView,
    ) -> Result<EpochSummary, SimError> {
        let st = &mut self.state;
        let (net, max_objects) = (&self.net, self.max_objects);
        let buf = self.epoch.get_or_insert_with(|| EpochBuffers {
            matrix: AccessMatrix::new(max_objects),
            snapshot: Placement::new(max_objects),
            loads: LoadMap::zero(net),
            steiner: SteinerScratch::new(),
        });
        for x in buf.matrix.support() {
            buf.snapshot.clear_object(x);
        }
        buf.matrix.clear();
        let mut reads = 0;
        for req in &self.epoch_trace {
            let (r, w) = if req.is_write { (0, 1) } else { (1, 0) };
            reads += r;
            buf.matrix.add(req.processor, req.object, r, w);
        }
        buf.matrix.sort_support();
        st.aggregate.add_matrix(&buf.matrix);
        let writes = self.epoch_trace.len() as u64 - reads;
        let epoch_matrix = &buf.matrix;
        st.strategy.serve_batch(net, &self.epoch_trace, epoch_matrix);

        // Epoch boundary: snapshot the strategy's copy sets of the
        // requested objects, with nearest-copy assignment.
        for x in epoch_matrix.support() {
            buf.snapshot.set_copies_from(x, st.strategy.copy_set(x));
        }
        buf.snapshot.nearest_assignment(net, epoch_matrix);
        let placement = &buf.snapshot;
        // The snapshot's loads, object by object; on a multi-tenant
        // schedule each object's loads also go to its tenant's map, so
        // the tenants' maps sum exactly to the placement loads.
        buf.loads.reset();
        let n_tenants = st.tenant_loads.len(); // 0 for single-tenant schedules
        for x in epoch_matrix.support() {
            add_object_loads(net, epoch_matrix, placement, x, &mut buf.steiner, &mut buf.loads);
            if n_tenants > 0 {
                let tenant = &mut st.tenant_loads[x.index() % n_tenants];
                add_object_loads(net, epoch_matrix, placement, x, &mut buf.steiner, tenant);
            }
        }
        let placement_loads = &buf.loads;
        // A static-model strategy's service traffic *is* the snapshot
        // placement serving the epoch matrix; charge it before the epoch
        // delta is taken. (No-op for per-request-charging strategies.)
        st.strategy.charge_service(placement_loads);
        if n_tenants > 0 {
            for r in &self.epoch_trace {
                st.tenant_requests[r.object.index() % n_tenants] += 1;
            }
        }
        // A pristine fault view takes the exact legacy replay path; under
        // faults the same kernels run with the epoch's capacity overlay
        // (down buses forward nothing for the outage window, degraded
        // buses at reduced capacity — traffic defers, it is never lost).
        // The estimator prices the epoch from `placement_loads` instead
        // and replays only its sampling subset exactly.
        let replay = self.replay_override.unwrap_or(self.spec.exec.replay);
        let overlay = (!view.is_pristine()).then_some(&view.overlay);
        let (net, trace, cfg) = (&self.net, &self.epoch_trace, self.spec.exec.sim);
        let ws = &mut self.ws;
        let mut exact = || match overlay {
            None => simulate_with(ws, net, epoch_matrix, placement, trace, cfg),
            Some(o) => simulate_with_overlay(ws, net, epoch_matrix, placement, trace, cfg, o),
        };
        let (sim, estimate): (Option<SimResult>, Option<EpochEstimate>) = match replay {
            ReplayKernel::Workspace => (Some(exact()?), None),
            ReplayKernel::Reference => {
                let oracle = match overlay {
                    None => simulate_reference(net, epoch_matrix, placement, trace, cfg),
                    Some(o) => {
                        simulate_reference_overlay(net, epoch_matrix, placement, trace, cfg, o)
                    }
                };
                (Some(oracle?), None)
            }
            ReplayKernel::Estimate { sample_every } => {
                let bounds =
                    estimate_makespan_from_loads(net, epoch_matrix, placement_loads, cfg, overlay);
                let sampled = sample_every > 0 && st.epoch_idx.is_multiple_of(sample_every);
                let estimate = EpochEstimate {
                    lower: bounds.lower,
                    upper: bounds.upper,
                    sampled_exact: sampled,
                };
                (if sampled { Some(exact()?) } else { None }, Some(estimate))
            }
        };

        // epoch_delta := (retired + live cumulative) − cum; then roll the
        // marks forward by pure additions.
        self.epoch_delta.reset();
        self.epoch_delta.add_assign(&st.retired_loads);
        st.strategy.add_loads_to(&mut self.epoch_delta);
        self.epoch_delta.sub_assign(&st.cum);
        st.cum.add_assign(&self.epoch_delta);
        if in_phase {
            st.phase_delta.add_assign(&self.epoch_delta);
        }
        let stats_now = st.retired_stats.merge(st.strategy.stats());
        let delta = stats_delta(stats_now, st.stats_mark);
        st.stats_mark = stats_now;

        // Per-epoch congestion is normalized by the epoch's *effective*
        // capacities (identical to the pristine normalization when no
        // fault is scheduled), so degraded epochs report degraded-mode
        // ratios; the aggregate report stays pristine-normalized.
        let summary = EpochSummary {
            phase,
            traffic: TrafficCounters {
                requests: reads + writes,
                reads,
                writes,
                replications: delta.replications,
                collapses: delta.collapses,
                migration_traffic: delta.replications * self.spec.exec.threshold,
                repairs: delta.repairs,
                repair_traffic: delta.repairs * self.spec.exec.threshold,
            },
            online_congestion: self
                .epoch_delta
                .congestion_with(&self.net, &view.overlay)
                .congestion,
            placement_congestion: placement_loads
                .congestion_with(&self.net, &view.overlay)
                .congestion,
            makespan: sim.as_ref().map_or(0, |s| s.makespan),
            mean_latency: sim.as_ref().map_or(0.0, |s| s.mean_latency),
            p99_latency: sim.as_ref().map_or(0, |s| s.p99_latency),
            estimate,
            live_objects: st.stream.live_objects().len(),
            buses_down: view.buses_down,
            buses_degraded: view.buses_degraded,
        };
        st.history.push(summary.clone());
        st.epoch_idx += 1;
        Ok(summary)
    }

    /// Close out the current schedule phase: summarise its epochs and
    /// advance to the next phase.
    fn finish_phase(&mut self) {
        let st = &mut self.state;
        let phase = &self.spec.schedule.phases[st.phase_idx];
        // Epochs pushed mid-phase carry the out-of-schedule phase index;
        // the phase summary covers only the schedule's own epochs.
        let phase_epochs: Vec<EpochSummary> = st
            .history
            .iter_from(st.phase_start)
            .filter(|e| e.phase == st.phase_idx)
            .cloned()
            .collect();
        st.phases.push(summarise_phase(
            phase.label.clone(),
            &phase_epochs,
            st.phase_delta.congestion(&self.net).congestion,
        ));
        st.phase_delta.reset();
        st.phase_start = st.history.len();
        st.phase_idx += 1;
        st.remaining_in_phase =
            self.spec.schedule.phases.get(st.phase_idx).map_or(0, |p| p.requests);
    }

    /// Replace the serving policy at the current epoch boundary (between
    /// `step_epoch`/`push_epoch` calls — the only times `&mut self` is
    /// free). The successor adopts the predecessor's copy sets
    /// ([`Strategy::adopt`]), free of charge; its own
    /// [`Strategy::begin_epoch`] decides whether — and at what migration
    /// cost — to move away from them. The predecessor's cumulative loads
    /// and counters are retired into the session so reporting stays
    /// unbroken; the predecessor itself is returned.
    pub fn swap_strategy(&mut self, next: Box<dyn Strategy>) -> Box<dyn Strategy> {
        let st = &mut self.state;
        let mut next = next;
        next.adopt(&self.net, st.strategy.as_ref(), self.max_objects);
        st.strategy.add_loads_to(&mut st.retired_loads);
        st.retired_stats = st.retired_stats.merge(st.strategy.stats());
        std::mem::replace(&mut st.strategy, next)
    }

    /// Snapshot the full session state — strategy (copy sets, loads,
    /// counters), stream RNG cursor, aggregate matrix, delta marks and
    /// accumulated summaries. The checkpoint is independent of the
    /// session: both can be driven on afterwards. The frozen chunks of
    /// the epoch history are immutable and shared, so the history costs
    /// one reference count plus a copy of the unfrozen tail.
    pub fn checkpoint(&self) -> SessionCheckpoint {
        SessionCheckpoint { spec: self.spec.clone(), state: self.state.clone() }
    }

    /// Rebuild a session from a checkpoint. The restored session
    /// continues exactly where the checkpointed one stood: driving it
    /// forward reproduces an unbroken run bit for bit (network and
    /// simulator scratch are rebuilt fresh — they are caches, not
    /// state).
    ///
    /// # Errors
    ///
    /// [`RestoreError::InvalidState`] when the checkpoint is internally
    /// inconsistent — an invalid fault plan on the instantiated network,
    /// or schedule cursors out of range. (In-memory checkpoints from
    /// [`Session::checkpoint`] always pass; the checks guard state that
    /// crossed a serialization boundary.)
    pub fn restore(checkpoint: SessionCheckpoint) -> Result<Session, RestoreError> {
        let SessionCheckpoint { spec, state } = checkpoint;
        let net = spec.build_network();
        validate_cursors(&spec, &state, &net)?;
        Ok(Session::with_state(spec, net, state))
    }

    /// Rebuild a session from a durable checkpoint file written by
    /// [`SessionCheckpoint::save`]. `spec` must be the spec of the saved
    /// run — the file carries a structural fingerprint and restoring
    /// under a different spec fails with [`RestoreError::SpecMismatch`].
    /// The stream cursor is restored by replaying the recorded number of
    /// draws from the spec's seed, so the resumed run is bit-for-bit the
    /// unbroken one. The frozen history chunks the frame lists are read
    /// from `path`'s directory, each checked against its digest.
    ///
    /// # Errors
    ///
    /// Every corruption is a clean error, never a panic: i/o failures
    /// ([`RestoreError::Io`], a missing chunk file among them), bad
    /// magic/version/checksum of the frame or of a chunk file (a chunk
    /// whose checksum is not the digest the frame lists is
    /// [`RestoreError::BadChecksum`]), malformed payloads, spec
    /// mismatches and inconsistent cursors.
    pub fn restore_from_file(spec: &ScenarioSpec, path: &Path) -> Result<Session, RestoreError> {
        let (payload, _) = read_frame(path, MAGIC)?;
        let checkpoint = decode_checkpoint(spec, &payload, parent_dir(path))?;
        Session::restore(checkpoint)
    }

    /// The report of everything run so far (a complete run's report once
    /// [`Session::step_epoch`] has returned `None`): per-phase and
    /// per-epoch summaries, cumulative online congestion, and the
    /// hindsight (static nibble on the aggregate matrix) comparison.
    pub fn report(&self) -> ScenarioReport {
        self.assemble_report(
            self.spec.name.clone(),
            self.state.phases.clone(),
            self.state.history.iter_from(0).cloned().collect(),
        )
    }

    /// [`Session::report`], consuming the session — the summaries and
    /// name move instead of being cloned, so finishing a long streaming
    /// run copies only the history chunks a checkpoint still shares.
    pub fn into_report(mut self) -> ScenarioReport {
        let name = std::mem::take(&mut self.spec.name);
        let phases = std::mem::take(&mut self.state.phases);
        let epochs = std::mem::take(&mut self.state.history).into_vec();
        self.assemble_report(name, phases, epochs)
    }

    /// The shared report assembly behind [`Session::report`] (cloned
    /// summaries) and [`Session::into_report`] (moved summaries).
    fn assemble_report(
        &self,
        name: String,
        phases: Vec<PhaseSummary>,
        epochs: Vec<EpochSummary>,
    ) -> ScenarioReport {
        let st = &self.state;
        let online_congestion = st.cum.congestion(&self.net).congestion;
        let mut hindsight = LoadMap::zero(&self.net);
        PlacementKernel::new(&self.net).add_nibble_loads(&self.net, &st.aggregate, &mut hindsight);
        let hindsight_congestion = hindsight.congestion(&self.net).congestion;
        let mut traffic = TrafficCounters::default();
        for e in &epochs {
            traffic += e.traffic;
        }
        let mut estimated_epochs = 0usize;
        let mut gap_sum = 0.0f64;
        let mut estimate_violations = 0usize;
        for e in &epochs {
            if let Some(est) = e.estimate {
                estimated_epochs += 1;
                gap_sum += est.gap_ratio();
                if est.sampled_exact && !(est.lower <= e.makespan && e.makespan <= est.upper) {
                    estimate_violations += 1;
                }
            }
        }
        let estimate_gap = (estimated_epochs > 0).then(|| gap_sum / estimated_epochs as f64);
        let tenants = st
            .tenant_loads
            .iter()
            .zip(&st.tenant_requests)
            .enumerate()
            .map(|(tenant, (loads, &requests))| TenantSummary {
                tenant,
                requests,
                placement_congestion: loads.congestion(&self.net).congestion,
            })
            .collect();
        ScenarioReport {
            name,
            topology: self.spec.topology.to_string(),
            strategy: st.strategy.label(),
            seed: self.spec.seed,
            traffic,
            total_makespan: epochs.iter().map(|e| e.makespan).sum(),
            online_congestion,
            hindsight_congestion,
            competitive_ratio: online_congestion.ratio_to(hindsight_congestion),
            recovery_epochs: recovery_epochs(&epochs),
            estimated_epochs,
            estimate_gap,
            estimate_violations,
            tenants,
            phases,
            epochs,
            stats: st.retired_stats.merge(st.strategy.stats()),
        }
    }
}
