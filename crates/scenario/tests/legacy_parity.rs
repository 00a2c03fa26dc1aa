//! Differential pinning of the `Session`-backed engine against a frozen
//! copy of the pre-session batch engine.
//!
//! The `Strategy`-trait / `Session` redesign replaced the closed
//! `ServeEngine` enum dispatch and the monolithic run loop. This suite
//! keeps the *old* engine alive, verbatim (modulo the new summary field
//! layout), as a test-only reference, and asserts that
//! `run_scenario` — now `Session::new` stepped to exhaustion — produces
//! **bit-for-bit identical reports** for every cell of the full matrix:
//! all six canonical access-pattern families × three topologies × all
//! four built-in strategy parameterizations × both serve kernels.

use hbn_core::{nibble_placement, ExtendedNibble};
use hbn_dynamic::{DynamicStats, DynamicTree, OnlineRequest};
use hbn_load::{nearest_copy_map, LoadMap, LoadRatio, Placement};
use hbn_scenario::{
    run_scenario, EpochSummary, PhaseSummary, ScenarioReport, ScenarioSpec, ServeKernel,
    StrategyKind, TopologyFamily, TrafficCounters,
};
use hbn_sim::{simulate_reference, simulate_with, Request, SimResult, SimWorkspace};
use hbn_testutil::family_schedules;
use hbn_topology::{Network, NodeId};
use hbn_workload::{AccessMatrix, Request as PhaseRequest};

// ---------------------------------------------------------------------
// The pre-refactor engine, frozen. Everything below reproduces the old
// `engine.rs` private machinery (DynKernel / StaticState / HybridState /
// ServeEngine and the run-to-completion loop) on top of today's public
// APIs. Do not "improve" it — its whole value is being the unchanged
// semantics the new driver is pinned to.
// ---------------------------------------------------------------------

fn stats_delta(cur: DynamicStats, prev: DynamicStats) -> DynamicStats {
    DynamicStats {
        reads: cur.reads - prev.reads,
        writes: cur.writes - prev.writes,
        replications: cur.replications - prev.replications,
        collapses: cur.collapses - prev.collapses,
        repairs: cur.repairs - prev.repairs,
    }
}

/// The old `StrategyKind::is_boundary` (was `pub(crate)`).
fn is_boundary(strategy: StrategyKind, epoch_idx: usize) -> bool {
    match strategy {
        StrategyKind::Dynamic => false,
        StrategyKind::PeriodicStatic { replace_every_epochs: k } => {
            epoch_idx > 0 && k > 0 && epoch_idx.is_multiple_of(k)
        }
        StrategyKind::Hybrid { reseed_every_epochs: k } => {
            if k == 0 {
                epoch_idx == 1
            } else {
                epoch_idx > 0 && epoch_idx.is_multiple_of(k)
            }
        }
    }
}

enum DynKernel {
    Fast(DynamicTree),
    Reference(DynamicTree),
}

impl DynKernel {
    fn new(net: &Network, spec: &ScenarioSpec, max_objects: usize) -> DynKernel {
        match spec.exec.serve {
            ServeKernel::Workspace => {
                DynKernel::Fast(DynamicTree::new(net, max_objects, spec.exec.threshold))
            }
            ServeKernel::Reference => {
                DynKernel::Reference(DynamicTree::new(net, max_objects, spec.exec.threshold))
            }
        }
    }

    fn serve_trace(&mut self, net: &Network, trace: &[OnlineRequest]) {
        match self {
            DynKernel::Fast(tree) => {
                for &req in trace {
                    tree.serve(net, req);
                }
            }
            DynKernel::Reference(tree) => {
                for &req in trace {
                    tree.serve_reference(net, req);
                }
            }
        }
    }

    fn replicas(&self, x: hbn_workload::ObjectId) -> &[NodeId] {
        match self {
            DynKernel::Fast(tree) => tree.replicas(x),
            DynKernel::Reference(tree) => tree.replicas(x),
        }
    }

    fn seed_replicas(&mut self, net: &Network, x: hbn_workload::ObjectId, nodes: &[NodeId]) {
        match self {
            DynKernel::Fast(tree) => tree.seed_replicas(net, x, nodes),
            DynKernel::Reference(tree) => tree.seed_replicas(net, x, nodes),
        }
    }

    fn add_loads_to(&self, out: &mut LoadMap) {
        match self {
            DynKernel::Fast(tree) => out.add_assign(tree.loads()),
            DynKernel::Reference(tree) => out.add_assign(tree.loads()),
        }
    }

    fn stats(&self) -> DynamicStats {
        match self {
            DynKernel::Fast(tree) => tree.stats(),
            DynKernel::Reference(tree) => tree.stats(),
        }
    }
}

fn charge_copy_migration(
    net: &Network,
    old: &[NodeId],
    new: &[NodeId],
    d: u64,
    loads: &mut LoadMap,
) -> u64 {
    if new.is_empty() || new.iter().all(|v| old.contains(v)) {
        return 0;
    }
    let free_seed = [new[0]];
    let sources: &[NodeId] = if old.is_empty() { &free_seed } else { old };
    let nearest = nearest_copy_map(net, sources);
    let mut transfers = 0;
    for &v in new {
        if old.contains(&v) || (old.is_empty() && v == new[0]) {
            continue;
        }
        for e in net.path_edges_iter(v, nearest[v.index()]) {
            loads.add_edge(e, d);
            transfers += 1;
        }
    }
    transfers
}

struct StaticState {
    copies: Placement,
    loads: LoadMap,
    stats: DynamicStats,
    placed: bool,
}

struct HybridState {
    dynamic: DynKernel,
    migration_loads: LoadMap,
    seed_stats: DynamicStats,
}

enum ServeEngine {
    Dynamic(DynKernel),
    Static(StaticState),
    Hybrid(HybridState),
}

impl ServeEngine {
    fn new(net: &Network, spec: &ScenarioSpec, max_objects: usize) -> ServeEngine {
        match spec.strategy {
            StrategyKind::Dynamic => ServeEngine::Dynamic(DynKernel::new(net, spec, max_objects)),
            StrategyKind::PeriodicStatic { .. } => ServeEngine::Static(StaticState {
                copies: Placement::new(max_objects),
                loads: LoadMap::zero(net),
                stats: DynamicStats::default(),
                placed: false,
            }),
            StrategyKind::Hybrid { .. } => ServeEngine::Hybrid(HybridState {
                dynamic: DynKernel::new(net, spec, max_objects),
                migration_loads: LoadMap::zero(net),
                seed_stats: DynamicStats::default(),
            }),
        }
    }

    fn begin_epoch(
        &mut self,
        net: &Network,
        strategy: StrategyKind,
        epoch_idx: usize,
        observed: &AccessMatrix,
        d: u64,
    ) {
        if !is_boundary(strategy, epoch_idx) {
            return;
        }
        match self {
            ServeEngine::Dynamic(_) => {}
            ServeEngine::Static(st) => {
                let outcome = ExtendedNibble::new()
                    .place(net, observed)
                    .expect("static re-optimization failed");
                for x in observed.objects() {
                    if observed.total_weight(x) == 0 {
                        continue;
                    }
                    let new = outcome.placement.copies(x);
                    let old = st.copies.copies(x);
                    st.stats.replications += charge_copy_migration(net, old, new, d, &mut st.loads);
                    st.stats.collapses += old.iter().filter(|v| !new.contains(v)).count() as u64;
                }
                st.copies = outcome.placement;
                st.placed = true;
            }
            ServeEngine::Hybrid(hy) => {
                let outcome =
                    ExtendedNibble::new().place(net, observed).expect("hybrid re-seed failed");
                for x in observed.objects() {
                    let seed = outcome.nibble_placement.copies(x);
                    if seed.is_empty() {
                        continue;
                    }
                    hy.seed_stats.replications += charge_copy_migration(
                        net,
                        hy.dynamic.replicas(x),
                        seed,
                        d,
                        &mut hy.migration_loads,
                    );
                    hy.seed_stats.collapses +=
                        hy.dynamic.replicas(x).iter().filter(|v| !seed.contains(v)).count() as u64;
                    hy.dynamic.seed_replicas(net, x, seed);
                }
            }
        }
    }

    fn serve_epoch(
        &mut self,
        net: &Network,
        trace: &[OnlineRequest],
        epoch_matrix: &AccessMatrix,
        reads: u64,
        writes: u64,
    ) {
        match self {
            ServeEngine::Dynamic(dynamic) => dynamic.serve_trace(net, trace),
            ServeEngine::Hybrid(hy) => hy.dynamic.serve_trace(net, trace),
            ServeEngine::Static(st) => {
                if !st.placed {
                    let outcome = ExtendedNibble::new()
                        .place(net, epoch_matrix)
                        .expect("static bootstrap failed");
                    st.copies = outcome.placement;
                    st.placed = true;
                }
                for req in trace {
                    if st.copies.copies(req.object).is_empty() {
                        st.copies.add_copy(req.object, req.processor);
                    }
                }
                st.stats.reads += reads;
                st.stats.writes += writes;
            }
        }
    }

    fn charge_service(&mut self, placement_loads: &LoadMap) {
        if let ServeEngine::Static(st) = self {
            st.loads.add_assign(placement_loads);
        }
    }

    fn replicas(&self, x: hbn_workload::ObjectId) -> &[NodeId] {
        match self {
            ServeEngine::Dynamic(dynamic) => dynamic.replicas(x),
            ServeEngine::Hybrid(hy) => hy.dynamic.replicas(x),
            ServeEngine::Static(st) => st.copies.copies(x),
        }
    }

    fn add_loads_to(&self, out: &mut LoadMap) {
        match self {
            ServeEngine::Dynamic(dynamic) => dynamic.add_loads_to(out),
            ServeEngine::Hybrid(hy) => {
                hy.dynamic.add_loads_to(out);
                out.add_assign(&hy.migration_loads);
            }
            ServeEngine::Static(st) => out.add_assign(&st.loads),
        }
    }

    fn stats(&self) -> DynamicStats {
        match self {
            ServeEngine::Dynamic(dynamic) => dynamic.stats(),
            ServeEngine::Hybrid(hy) => hy.dynamic.stats().merge(hy.seed_stats),
            ServeEngine::Static(st) => st.stats,
        }
    }
}

fn snapshot_placement(net: &Network, online: &ServeEngine, matrix: &AccessMatrix) -> Placement {
    let mut placement = Placement::new(matrix.n_objects());
    for x in matrix.objects() {
        if !matrix.object_entries(x).is_empty() {
            placement.set_copies(x, online.replicas(x).to_vec());
        }
    }
    placement.nearest_assignment(net, matrix);
    placement
}

fn summarise_phase(
    label: String,
    epochs: &[EpochSummary],
    online_congestion: LoadRatio,
) -> PhaseSummary {
    let mut traffic = TrafficCounters::default();
    for e in epochs {
        traffic += e.traffic;
    }
    let latency_weighted: f64 =
        epochs.iter().map(|e| e.mean_latency * e.traffic.requests as f64).sum::<f64>();
    PhaseSummary {
        label,
        epochs: epochs.len(),
        online_congestion,
        makespan: epochs.iter().map(|e| e.makespan).sum(),
        mean_latency: if traffic.requests > 0 {
            latency_weighted / traffic.requests as f64
        } else {
            0.0
        },
        p99_latency: epochs.iter().map(|e| e.p99_latency).max().unwrap_or(0),
        traffic,
    }
}

/// The old `try_run_scenario` loop, verbatim.
fn legacy_run_scenario(spec: &ScenarioSpec) -> ScenarioReport {
    let net = spec.topology.build();
    let max_objects = spec.schedule.max_objects();
    let mut online = ServeEngine::new(&net, spec, max_objects);
    let mut ws = SimWorkspace::new();
    let mut stream = spec.schedule.stream(&net, spec.seed);

    let mut epochs: Vec<EpochSummary> = Vec::new();
    let mut phases: Vec<PhaseSummary> = Vec::new();
    let mut aggregate = AccessMatrix::new(max_objects);

    let mut cum = LoadMap::zero(&net);
    let mut epoch_delta = LoadMap::zero(&net);
    let mut phase_delta = LoadMap::zero(&net);
    let mut stats_mark = DynamicStats::default();

    let mut epoch_trace: Vec<Request> = Vec::new();
    let mut epoch_online: Vec<OnlineRequest> = Vec::new();

    let mut epoch_idx = 0usize;

    for (phase_idx, phase) in spec.schedule.phases.iter().enumerate() {
        let mut phase_epochs: Vec<EpochSummary> = Vec::new();
        let mut remaining = phase.requests;
        while remaining > 0 {
            let epoch_len = if spec.epoch_requests == 0 {
                remaining
            } else {
                spec.epoch_requests.min(remaining)
            };
            remaining -= epoch_len;

            online.begin_epoch(&net, spec.strategy, epoch_idx, &aggregate, spec.exec.threshold);

            epoch_trace.clear();
            epoch_online.clear();
            let mut epoch_matrix = AccessMatrix::new(max_objects);
            let mut reads = 0u64;
            let mut writes = 0u64;
            for PhaseRequest { processor, object, is_write } in stream.by_ref().take(epoch_len) {
                epoch_trace.push(Request { processor, object, is_write });
                epoch_online.push(OnlineRequest { processor, object, is_write });
                if is_write {
                    writes += 1;
                    epoch_matrix.add(processor, object, 0, 1);
                    aggregate.add(processor, object, 0, 1);
                } else {
                    reads += 1;
                    epoch_matrix.add(processor, object, 1, 0);
                    aggregate.add(processor, object, 1, 0);
                }
            }
            online.serve_epoch(&net, &epoch_online, &epoch_matrix, reads, writes);

            let placement = snapshot_placement(&net, &online, &epoch_matrix);
            let placement_loads = LoadMap::from_placement(&net, &epoch_matrix, &placement);
            online.charge_service(&placement_loads);
            let sim: SimResult = match spec.exec.replay {
                hbn_scenario::ReplayKernel::Workspace => simulate_with(
                    &mut ws,
                    &net,
                    &epoch_matrix,
                    &placement,
                    &epoch_trace,
                    spec.exec.sim,
                )
                .unwrap(),
                hbn_scenario::ReplayKernel::Reference => {
                    simulate_reference(&net, &epoch_matrix, &placement, &epoch_trace, spec.exec.sim)
                        .unwrap()
                }
                hbn_scenario::ReplayKernel::Estimate { .. } => {
                    unreachable!("the frozen legacy engine predates this kernel")
                }
            };

            epoch_delta.reset();
            online.add_loads_to(&mut epoch_delta);
            epoch_delta.sub_assign(&cum);
            cum.add_assign(&epoch_delta);
            phase_delta.add_assign(&epoch_delta);
            let stats_now = online.stats();
            let delta = stats_delta(stats_now, stats_mark);
            stats_mark = stats_now;

            phase_epochs.push(EpochSummary {
                phase: phase_idx,
                traffic: TrafficCounters {
                    requests: reads + writes,
                    reads,
                    writes,
                    replications: delta.replications,
                    collapses: delta.collapses,
                    migration_traffic: delta.replications * spec.exec.threshold,
                    repairs: delta.repairs,
                    repair_traffic: delta.repairs * spec.exec.threshold,
                },
                online_congestion: epoch_delta.congestion(&net).congestion,
                placement_congestion: placement_loads.congestion(&net).congestion,
                makespan: sim.makespan,
                mean_latency: sim.mean_latency,
                p99_latency: sim.p99_latency,
                estimate: None,
                live_objects: stream.live_objects().len(),
                buses_down: 0,
                buses_degraded: 0,
            });
            epoch_idx += 1;
        }

        phases.push(summarise_phase(
            phase.label.clone(),
            &phase_epochs,
            phase_delta.congestion(&net).congestion,
        ));
        phase_delta.reset();
        epochs.extend(phase_epochs);
    }

    let online_congestion = cum.congestion(&net).congestion;
    let hindsight_placement = nibble_placement(&net, &aggregate);
    let hindsight_congestion =
        LoadMap::from_placement(&net, &aggregate, &hindsight_placement).congestion(&net).congestion;

    let mut traffic = TrafficCounters::default();
    for e in &epochs {
        traffic += e.traffic;
    }
    ScenarioReport {
        name: spec.name.clone(),
        topology: spec.topology.to_string(),
        strategy: spec.strategy.to_string(),
        seed: spec.seed,
        traffic,
        total_makespan: epochs.iter().map(|e| e.makespan).sum(),
        phases,
        epochs,
        online_congestion,
        hindsight_congestion,
        competitive_ratio: online_congestion.ratio_to(hindsight_congestion),
        recovery_epochs: None,
        estimated_epochs: 0,
        estimate_gap: None,
        estimate_violations: 0,
        tenants: Vec::new(),
        stats: online.stats(),
    }
}

// ---------------------------------------------------------------------
// The matrix.
// ---------------------------------------------------------------------

fn topologies() -> Vec<TopologyFamily> {
    vec![
        TopologyFamily::Balanced { branching: 3, height: 2 },
        TopologyFamily::Star { processors: 9, bus_bandwidth: 3 },
        TopologyFamily::Caterpillar { spine: 3, legs: 2 },
    ]
}

fn strategies() -> Vec<StrategyKind> {
    vec![
        StrategyKind::Dynamic,
        StrategyKind::PeriodicStatic { replace_every_epochs: 0 },
        StrategyKind::PeriodicStatic { replace_every_epochs: 2 },
        StrategyKind::Hybrid { reseed_every_epochs: 2 },
    ]
}

/// Every (family × topology × strategy × serve kernel) cell:
/// `run_scenario` (Session-backed) must equal the frozen legacy engine
/// bit for bit — full report equality, epochs included.
#[test]
fn session_backed_engine_matches_legacy_engine_everywhere() {
    for (family, schedule) in family_schedules(10, 40, 160) {
        for topology in topologies() {
            for strategy in strategies() {
                for serve in [ServeKernel::Workspace, ServeKernel::Reference] {
                    let name = format!("parity-{family}");
                    let mut spec = ScenarioSpec {
                        strategy,
                        epoch_requests: 40,
                        ..ScenarioSpec::new(name, topology, schedule.clone(), 2, 97)
                    };
                    spec.exec.serve = serve;
                    // The frozen legacy engine predates per-tenant
                    // attribution; attribution is additive bookkeeping
                    // that touches no other report field (the
                    // conformance harness pins it), so parity compares
                    // everything else bit for bit.
                    let mut live = run_scenario(&spec);
                    live.tenants.clear();
                    assert_eq!(
                        live,
                        legacy_run_scenario(&spec),
                        "cell {family} × {topology} × {strategy} × serve={serve}"
                    );
                }
            }
        }
    }
}

/// The replay-kernel axis, on a representative cell: both engines under
/// the reference simulator kernel.
#[test]
fn session_backed_engine_matches_legacy_under_reference_replay() {
    let (family, schedule) = family_schedules(10, 40, 160).swap_remove(1);
    let name = format!("parity-{family}");
    let mut spec = ScenarioSpec {
        strategy: StrategyKind::Hybrid { reseed_every_epochs: 2 },
        epoch_requests: 40,
        ..ScenarioSpec::new(name, topologies()[0], schedule, 2, 13)
    };
    spec.exec.replay = hbn_scenario::ReplayKernel::Reference;
    assert_eq!(run_scenario(&spec), legacy_run_scenario(&spec));
}
