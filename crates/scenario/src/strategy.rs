//! The open strategy boundary of the scenario engine: the [`Strategy`]
//! trait, and the one type behind every built-in policy that a
//! [`crate::StrategyKind`] names.
//!
//! A strategy owns three things and nothing else: its **copy sets** (one
//! per object), its **cumulative load map** (every unit of traffic it
//! ever charged), and its **event counters** ([`DynamicStats`]). The
//! [`crate::Session`] driver owns the clock, the request stream, the
//! observed aggregate matrix and the replay machinery, and talks to the
//! strategy only through this trait — see `DESIGN.md` §6.4 for the full
//! state-ownership picture.
//!
//! The migration charge unit is shared by every policy:
//! [`charged_migration`] routes new copies from their nearest old copy at
//! `D` per edge crossed, the exact cost of a dynamic replication (which
//! moves one copy one hop for `D`), so `migration_traffic =
//! replications × D` holds identically across policies and the reported
//! congestion numbers stay directly comparable.

use crate::durable::{put_f64, put_loads, put_nodes, put_stats, put_u32, put_u64, put_u8, Dec};
use crate::faults::FaultView;
use crate::spec::{ExecutionConfig, StrategyKind};
use hbn_core::PlacementKernel;
use hbn_dynamic::{DynamicStats, DynamicTree, OnlineRequest};
use hbn_load::{LoadMap, NearestCopies, Placement};
use hbn_topology::{EdgeId, Network, NodeId};
use hbn_workload::{AccessMatrix, ObjectId};

/// A data-management policy the scenario [`crate::Session`] can drive.
///
/// The driver calls, per epoch: [`Strategy::begin_epoch`] (boundary
/// decisions — re-optimization, re-seeding — from the traffic observed
/// *before* the epoch), then [`Strategy::serve_batch`] with the epoch's
/// requests, then [`Strategy::charge_service`] once the epoch's snapshot
/// placement exists (static-model policies charge their service traffic
/// there; online policies already charged per request). Between epochs it
/// may read [`Strategy::copy_set`], [`Strategy::add_loads_to`] and
/// [`Strategy::stats`], snapshot the whole policy with
/// [`StrategySnapshot::snapshot`], or hand the copy sets to a successor
/// via [`Strategy::adopt`] ([`crate::Session::swap_strategy`]).
///
/// The trait is object-safe; the session holds a `Box<dyn Strategy>`. A
/// policy that derives `Clone` gets its snapshot from
/// [`StrategySnapshot`]'s blanket impl.
///
/// # Write your own
///
/// A complete policy is small. Here is "one fixed home copy per object,
/// all requests served along the tree path to it" — a lower baseline
/// than anything the paper considers, in ~15 lines of logic:
///
/// ```
/// use hbn_dynamic::{DynamicStats, OnlineRequest};
/// use hbn_load::LoadMap;
/// use hbn_scenario::{run_scenario_with, ScenarioSpec, Strategy, TopologyFamily};
/// use hbn_topology::{Network, NodeId};
/// use hbn_workload::phases::full_tour;
///
/// #[derive(Clone)]
/// struct SingleHome { home: [NodeId; 1], loads: LoadMap, stats: DynamicStats }
///
/// impl Strategy for SingleHome {
///     fn label(&self) -> String { "single-home".into() }
///     fn begin_epoch(&mut self, _: &Network, _: usize, _: &hbn_workload::AccessMatrix,
///                    _: &hbn_scenario::FaultView) {}
///     fn serve_batch(&mut self, net: &Network, trace: &[OnlineRequest],
///                    _: &hbn_workload::AccessMatrix) {
///         for req in trace {
///             if req.is_write { self.stats.writes += 1 } else { self.stats.reads += 1 }
///             for e in net.path_edges_iter(req.processor, self.home[0]) {
///                 self.loads.add_edge(e, 1);
///             }
///         }
///     }
///     fn copy_set(&self, _: hbn_workload::ObjectId) -> &[NodeId] { &self.home }
///     fn add_loads_to(&self, out: &mut LoadMap) { out.add_assign(&self.loads) }
///     fn stats(&self) -> DynamicStats { self.stats }
/// }
///
/// let spec = ScenarioSpec::new(
///     "home", TopologyFamily::Balanced { branching: 2, height: 2 }, full_tour(4, 40), 1, 3);
/// let report = run_scenario_with(&spec, |net, _exec, _n| {
///     Box::new(SingleHome {
///         home: [net.processors()[0]],
///         loads: LoadMap::zero(net),
///         stats: DynamicStats::default(),
///     })
/// });
/// assert_eq!(report.strategy, "single-home");
/// assert_eq!(report.traffic.requests, 240);
/// ```
pub trait Strategy: Send + StrategySnapshot {
    /// The label recorded in reports and benchmark cells.
    fn label(&self) -> String;

    /// Boundary work at the *start* of global epoch `epoch_idx`, before
    /// the epoch's requests are drawn. `observed` is the cumulative
    /// access matrix of everything served so far — re-optimizing
    /// policies recompute placements from it; purely online policies
    /// ignore it. `faults` is the epoch's fault view (pristine when the
    /// spec schedules no faults): self-healing policies evict or re-home
    /// copies stranded in dead subtrees here, charging repair fetches
    /// exactly like migration.
    fn begin_epoch(
        &mut self,
        net: &Network,
        epoch_idx: usize,
        observed: &AccessMatrix,
        faults: &FaultView,
    );

    /// Serve one epoch's requests, in trace order. `epoch_matrix` is the
    /// frequency view of exactly `trace` (what a static policy serves
    /// under the static load model).
    fn serve_batch(&mut self, net: &Network, trace: &[OnlineRequest], epoch_matrix: &AccessMatrix);

    /// Charge the epoch's service loads (the strategy's snapshot
    /// placement serving the epoch matrix). Static-model policies
    /// accumulate this; online policies, which charged per request in
    /// [`Strategy::serve_batch`], keep the default no-op.
    fn charge_service(&mut self, placement_loads: &LoadMap) {
        let _ = placement_loads;
    }

    /// Current copy nodes of `x` (empty if the object has never been
    /// placed or touched). The driver snapshots these per epoch into the
    /// replay placement.
    fn copy_set(&self, x: ObjectId) -> &[NodeId];

    /// Sum the strategy's cumulative charged loads into `out` (on top of
    /// what `out` already holds). The loads are cumulative over the run
    /// and never shrink on any edge: the session takes an epoch's loads
    /// as their growth since the previous epoch, and panics if they shrank.
    fn add_loads_to(&self, out: &mut LoadMap);

    /// Event counters: requests served, `D`-sized data movements
    /// (`replications`), copies dropped (`collapses`). Cumulative over the
    /// run like the loads: no counter ever decreases.
    fn stats(&self) -> DynamicStats;

    /// Take over from `prior` at a strategy swap
    /// ([`crate::Session::swap_strategy`]): inherit its copy sets as the
    /// starting configuration, free of charge (the successor's own
    /// [`Strategy::begin_epoch`] decides whether — and at what migration
    /// cost — to move away from them). The default inherits nothing.
    fn adopt(&mut self, net: &Network, prior: &dyn Strategy, max_objects: usize) {
        let _ = (net, prior, max_objects);
    }

    /// Serialize the full policy state for *durable* (on-disk)
    /// checkpoints — [`crate::SessionCheckpoint::save`]. The five
    /// built-in policies implement this; external policies keep the
    /// default `None`, making [`crate::SessionCheckpoint::save`] fail
    /// with [`crate::RestoreError::UnsupportedStrategy`] instead of
    /// writing an unrestorable file. A restored strategy must reproduce
    /// the serialized one bit for bit.
    fn durable(&self) -> Option<Vec<u8>> {
        None
    }
}

/// A deep copy of a policy, for [`crate::Session::checkpoint`]: driving
/// the copy forward must reproduce the original bit for bit. Every
/// `Clone` policy has it through the blanket impl; only a policy that
/// cannot derive `Clone` writes it by hand.
pub trait StrategySnapshot {
    /// A boxed deep copy of the full policy state.
    fn snapshot(&self) -> Box<dyn Strategy>;
}

impl<T: Strategy + Clone + 'static> StrategySnapshot for T {
    fn snapshot(&self) -> Box<dyn Strategy> {
        Box::new(self.clone())
    }
}

/// Cloning a boxed policy is [`StrategySnapshot::snapshot`], so state
/// that holds the policy (a session checkpoint) derives `Clone`.
impl Clone for Box<dyn Strategy> {
    fn clone(&self) -> Self {
        self.snapshot()
    }
}

/// Charge the migration of one object's copy set from `old` to `new`:
/// every copy in `new ∖ old` fetches a `D`-sized replica along the tree
/// path from its nearest source copy, paying `D` on each edge crossed —
/// the same unit as a dynamic replication, which moves one copy one hop
/// for `D`. Sources are the old set when it is non-empty; otherwise the
/// first new copy is the free materialization (mirroring the dynamic
/// strategy's free first touch) and sources the rest. Returns the number
/// of `D`-sized edge transfers charged, so the caller's
/// `replications × D` accounting identity matches the load actually
/// added here.
///
/// This is *the* migration charge unit of the engine — every
/// re-optimizing [`Strategy`] routes its copy-set deltas through it so
/// migration traffic stays comparable across policies.
///
/// `sweep` is the caller's nearest-copy scratch, reused across the
/// objects of one pass. Sources tie towards the earliest-listed copy, so
/// an insertion-ordered replica list routes exactly as it did through
/// the full-network BFS map.
///
/// ```
/// use hbn_load::{LoadMap, NearestCopies};
/// use hbn_scenario::charged_migration;
/// use hbn_topology::generators::{balanced, BandwidthProfile};
///
/// let net = balanced(2, 2, BandwidthProfile::Uniform);
/// let p = net.processors();
/// let mut loads = LoadMap::zero(&net);
/// let mut sweep = NearestCopies::new(net.n_nodes());
/// // Moving a copy from p[0] to sibling p[1] crosses their shared bus:
/// // two edges, at D = 3 each.
/// let transfers = charged_migration(&net, &[p[0]], &[p[1]], 3, &mut loads, &mut sweep);
/// assert_eq!(transfers, 2);
/// assert_eq!(loads.total(), 6);
/// ```
pub fn charged_migration(
    net: &Network,
    old: &[NodeId],
    new: &[NodeId],
    d: u64,
    loads: &mut LoadMap,
    sweep: &mut NearestCopies,
) -> u64 {
    if new.is_empty() || new.iter().all(|v| old.contains(v)) {
        return 0;
    }
    // Once per migrated object per re-placement: the sweep costs
    // O((|old| + |new|) · height) on the caller's reused scratch. Measured
    // on perfbench's static-churn (balanced(5,3), |V| = 156, about 23k
    // objects per re-placement, 2-vCPU KVM guest), the refit pass of a
    // re-placement took 9–58 ms with an O(|V|) BFS map per object and
    // takes 1–16 ms with the sweep.
    let free_seed = [new[0]];
    let sources: &[NodeId] = if old.is_empty() { &free_seed } else { old };
    sweep.load(net, sources);
    let mut transfers = 0;
    for &v in new {
        if old.contains(&v) || (old.is_empty() && v == new[0]) {
            continue;
        }
        for e in net.path_edges_iter(v, sweep.nearest(net, v)) {
            loads.add_edge(e, d);
            transfers += 1;
        }
    }
    transfers
}

/// The connected closure of a copy set: the union of the tree paths from
/// every node to the first one. Seeding a dynamic tree requires a
/// connected replica subtree (its structural invariant), but an adopted
/// static placement is leaf-only — the closure is the smallest connected
/// superset anchored at `nodes[0]`.
fn connected_closure(net: &Network, nodes: &[NodeId]) -> Vec<NodeId> {
    let anchor = nodes[0];
    let mut out: Vec<NodeId> = Vec::new();
    for &v in nodes {
        for u in net.path_nodes_iter(v, anchor) {
            if !out.contains(&u) {
                out.push(u);
            }
        }
    }
    // `path_nodes_iter(anchor, anchor)` emitted the anchor first, so
    // `out[0] == anchor` and the set is connected through it.
    out
}

/// Charge moving one object's copy set from `old` to `new` into `loads`
/// and `stats`: the [`charged_migration`] transfers count as
/// replications, and every copy of `old` that `new` drops as a collapse.
/// Returns the transfers. Re-placement, re-seeding and outage repair all
/// charge through here.
fn charge_move(
    net: &Network,
    old: &[NodeId],
    new: &[NodeId],
    d: u64,
    loads: &mut LoadMap,
    stats: &mut DynamicStats,
    sweep: &mut NearestCopies,
) -> u64 {
    let transfers = charged_migration(net, old, new, d, loads, sweep);
    stats.replications += transfers;
    stats.collapses += old.iter().filter(|v| !new.contains(v)).count() as u64;
    transfers
}

/// The outage rule, which copies survive: the live part of `copies`
/// under `view`, or `None` when no copy is stranded. Stranded copies are
/// dropped, not moved: they are unreachable. Strandedness is
/// downward-closed, so the live part of a connected set stays connected.
fn live_copies(view: &FaultView, copies: &[NodeId]) -> Option<Vec<NodeId>> {
    copies
        .iter()
        .any(|v| view.stranded[v.index()])
        .then(|| copies.iter().copied().filter(|v| !view.stranded[v.index()]).collect())
}

/// Where the outage rule re-homes a copy set stranded wholly.
#[derive(Clone, Copy)]
enum Harbor {
    /// The first live ancestor of the set's first copy, so a dynamic
    /// tree's replica set stays connected. The root is never stranded
    /// ([`crate::FaultPlan::validate`] rejects root outages), so one
    /// always exists.
    Ancestor,
    /// The live processor nearest the set's first copy (ties by node
    /// id), for static placements. `None` when every processor is
    /// stranded.
    Processor,
}

/// The outage rule for a held copy set: its live part, or its harbor when
/// it is stranded wholly. `None` when the set stands, either because no
/// copy is stranded or because nothing reachable is left to move to;
/// the outage window is bounded, so its traffic drains when the bus
/// returns.
fn outage_copies(
    net: &Network,
    view: &FaultView,
    copies: &[NodeId],
    harbor: Harbor,
) -> Option<Vec<NodeId>> {
    let live = live_copies(view, copies)?;
    if !live.is_empty() {
        return Some(live);
    }
    let anchor = copies[0];
    let home = match harbor {
        Harbor::Ancestor => {
            let mut v = anchor;
            while view.stranded[v.index()] {
                v = net.parent(v);
            }
            v
        }
        Harbor::Processor => net
            .processors()
            .iter()
            .copied()
            .filter(|p| !view.stranded[p.index()])
            .min_by_key(|&p| (net.distance(anchor, p), p.0))?,
    };
    Some(vec![home])
}

/// The copy sets a serving [`Core`] holds.
#[derive(Debug, Clone)]
enum Sets {
    /// A dynamic tree's replica sets: the tree serves every request
    /// online and charges its own loads and counters.
    Dynamic(DynamicTree),
    /// A placement under the static load model (assignments are rebuilt
    /// per epoch from the epoch's frequency matrix), whether it exists
    /// yet (bootstrap or adopted), and the kernel that places it.
    Static { copies: Placement, placed: bool, kernel: Box<PlacementKernel> },
}

impl Sets {
    /// A placement of `max_objects` objects that the first served epoch
    /// bootstraps.
    fn unplaced(net: &Network, max_objects: usize) -> Sets {
        Sets::Static {
            copies: Placement::new(max_objects),
            placed: false,
            kernel: Box::new(PlacementKernel::new(net)),
        }
    }

    fn n_objects(&self) -> usize {
        match self {
            Sets::Dynamic(tree) => tree.n_objects(),
            Sets::Static { copies, .. } => copies.n_objects(),
        }
    }

    fn copies(&self, x: ObjectId) -> &[NodeId] {
        match self {
            Sets::Dynamic(tree) => tree.replicas(x),
            Sets::Static { copies, .. } => copies.copies(x),
        }
    }
}

/// The serving state of every built-in policy: its copy sets and one
/// ledger of the traffic charged outside the serve kernel (re-placement,
/// re-seeding, outage repair, and a placement's service). The ledger's
/// `replications` count `D`-sized edge transfers, the dynamic kernel's
/// unit, and its `collapses` dropped copies. A built-in policy is a core
/// plus its boundary rule.
#[derive(Debug, Clone)]
struct Core {
    sets: Sets,
    loads: LoadMap,
    stats: DynamicStats,
    /// The migration charge unit `D`.
    d: u64,
}

impl Core {
    fn new(net: &Network, exec: &ExecutionConfig, sets: Sets) -> Core {
        Core { sets, loads: LoadMap::zero(net), stats: DynamicStats::default(), d: exec.threshold }
    }

    /// Serve one epoch. A tree serves and charges each request. A
    /// placement is bootstrapped from the first epoch's traffic (free —
    /// the policy's starting configuration), materializes unseen objects
    /// at their first requester (free, like the dynamic first touch) and
    /// counts the requests; its service loads arrive through
    /// [`Core::charge_service`] once the epoch's snapshot placement
    /// exists.
    fn serve_batch(&mut self, net: &Network, trace: &[OnlineRequest], epoch_matrix: &AccessMatrix) {
        match &mut self.sets {
            Sets::Dynamic(tree) => tree.serve_trace(net, trace),
            Sets::Static { copies, placed, kernel } => {
                if !*placed {
                    *copies = kernel.place(net, epoch_matrix).expect("static bootstrap failed");
                    *placed = true;
                }
                for req in trace {
                    if copies.copies(req.object).is_empty() {
                        copies.add_copy(req.object, req.processor);
                    }
                    if req.is_write {
                        self.stats.writes += 1;
                    } else {
                        self.stats.reads += 1;
                    }
                }
            }
        }
    }

    /// Charge a placement's epoch service; a tree charged per request.
    fn charge_service(&mut self, placement_loads: &LoadMap) {
        if matches!(self.sets, Sets::Static { .. }) {
            self.loads.add_assign(placement_loads);
        }
    }

    fn add_loads_to(&self, out: &mut LoadMap) {
        if let Sets::Dynamic(tree) = &self.sets {
            out.add_assign(tree.loads());
        }
        out.add_assign(&self.loads);
    }

    fn stats(&self) -> DynamicStats {
        let Sets::Dynamic(tree) = &self.sets else { return self.stats };
        tree.stats().merge(self.stats)
    }

    /// Inherit the non-empty copy sets `held(x)` of objects `0..n`, free
    /// of charge: a predecessor's at a strategy swap, or the core's own
    /// tree's when it turns static. A tree seeds each as its connected
    /// closure (its structural invariant); a placement takes them
    /// verbatim and counts as placed.
    fn adopt<'a>(&mut self, net: &Network, n: usize, held: impl Fn(ObjectId) -> &'a [NodeId]) {
        for i in 0..n {
            let x = ObjectId(i as u32);
            let inherited = held(x);
            if inherited.is_empty() {
                continue;
            }
            match &mut self.sets {
                Sets::Dynamic(tree) => {
                    tree.seed_replicas(net, x, &connected_closure(net, inherited))
                }
                Sets::Static { copies, .. } => copies.set_copies(x, inherited.to_vec()),
            }
        }
        if let Sets::Static { placed, .. } = &mut self.sets {
            *placed = true;
        }
    }

    /// Move `x`'s copy set to `new`, charged by [`charge_move`]. Returns
    /// the transfers.
    fn move_to(
        &mut self,
        net: &Network,
        x: ObjectId,
        new: &[NodeId],
        sweep: &mut NearestCopies,
    ) -> u64 {
        let old = self.sets.copies(x);
        let transfers = charge_move(net, old, new, self.d, &mut self.loads, &mut self.stats, sweep);
        match &mut self.sets {
            Sets::Dynamic(tree) => tree.seed_replicas(net, x, new),
            Sets::Static { copies, .. } => copies.set_copies_from(x, new),
        }
        transfers
    }

    /// Self-heal the held copy sets around a bus outage by
    /// [`outage_copies`]; a no-op while no bus is down or no placement
    /// exists yet. The variant picks the harbor of a set stranded wholly:
    /// a tree's first live ancestor, a placement's nearest live
    /// processor. Dropped copies count as collapses, and a re-homed set
    /// pays a repair fetch charged exactly like a migration
    /// ([`charged_migration`] at `D` per edge). `repairs` counts the
    /// `D`-sized repair transfers — always a subset of `replications`, so
    /// `migration_traffic = replications × D` keeps holding.
    fn heal(&mut self, net: &Network, view: &FaultView) {
        let harbor = match self.sets {
            Sets::Dynamic(_) => Harbor::Ancestor,
            Sets::Static { placed: true, .. } => Harbor::Processor,
            Sets::Static { placed: false, .. } => return,
        };
        if view.buses_down == 0 {
            return;
        }
        let mut sweep = NearestCopies::new(net.n_nodes());
        for i in 0..self.sets.n_objects() {
            let x = ObjectId(i as u32);
            let Some(new) = outage_copies(net, view, self.sets.copies(x), harbor) else { continue };
            self.stats.repairs += self.move_to(net, x, &new, &mut sweep);
        }
    }

    /// Re-place a placement from the observed aggregate, in one pass over
    /// object ids that reads the kernel's final copy sets
    /// ([`PlacementKernel::final_copies`]): each set is clamped to the
    /// live network by [`outage_copies`], the move from the held set is
    /// charged ([`charge_move`]), and the set is written into the held
    /// set's own allocation. An object without observed traffic gets no
    /// set from the kernel, so it ends empty and uncharged.
    fn replace(&mut self, net: &Network, observed: &AccessMatrix, faults: &FaultView) {
        let Core { sets, loads, stats, d } = self;
        let Sets::Static { copies, placed, kernel } = sets else {
            unreachable!("only a placement re-places");
        };
        let readout = kernel.final_copies(net, observed).expect("static re-optimization failed");
        let mut sweep = NearestCopies::new(net.n_nodes());
        for (i, fresh) in readout.enumerate() {
            let x = ObjectId(i as u32);
            let clamped = outage_copies(net, faults, fresh, Harbor::Processor);
            let new = clamped.as_deref().unwrap_or(fresh);
            if !new.is_empty() {
                charge_move(net, copies.copies(x), new, *d, loads, stats, &mut sweep);
            }
            copies.set_copies_from(x, new);
        }
        *placed = true;
    }

    /// Turn a tree core static: a placement that holds the tree's replica
    /// sets, inherited free of charge as at a strategy swap. The tree's
    /// loads and counters fold into the ledger (plain sums, so the
    /// policy's totals stay exact), and the tree is dropped.
    fn turn_static(&mut self, net: &Network) {
        let n = self.sets.n_objects();
        let Sets::Dynamic(tree) = std::mem::replace(&mut self.sets, Sets::unplaced(net, n)) else {
            unreachable!("only a tree turns static");
        };
        self.loads.add_assign(tree.loads());
        self.stats = self.stats.merge(tree.stats());
        self.adopt(net, n, |x| tree.replicas(x));
    }
}

/// The boundary rule of a built-in policy, with the state only that rule
/// keeps. Every rule first heals the core around an outage
/// ([`Core::heal`]).
#[derive(Debug, Clone)]
enum Rule {
    /// [`StrategyKind::Dynamic`]: the tree serves online; nothing else.
    Dynamic,
    /// [`StrategyKind::PeriodicStatic`]: re-place at the firing epochs,
    /// and around every changed outage once a placement exists. With
    /// `first_fire = Some(k)` the first firing is pinned to epoch `k`
    /// ([`periodic_static_from`]).
    Periodic { every: usize, first_fire: Option<usize> },
    /// [`StrategyKind::Hybrid`]: re-seed the tree from the nibble copy
    /// sets `kernel` computes at the firing epochs.
    Hybrid { every: usize, kernel: Box<PlacementKernel> },
    /// [`StrategyKind::FrozenStatic`]: frozen means no re-optimization,
    /// not no survival, so the heal still runs.
    Frozen,
    /// [`StrategyKind::ThresholdSwitch`]: turn the tree static once
    /// ([`Core::turn_static`]).
    Switch { write_bound: f64, min_epochs: usize },
}

impl Rule {
    /// The kind this rule belongs to, whose `Display` is the label.
    fn kind(&self) -> StrategyKind {
        match *self {
            Rule::Dynamic => StrategyKind::Dynamic,
            Rule::Periodic { every, .. } => {
                StrategyKind::PeriodicStatic { replace_every_epochs: every }
            }
            Rule::Hybrid { every, .. } => StrategyKind::Hybrid { reseed_every_epochs: every },
            Rule::Frozen => StrategyKind::FrozenStatic,
            Rule::Switch { write_bound, min_epochs } => {
                StrategyKind::ThresholdSwitch { write_bound, min_epochs }
            }
        }
    }

    /// The durable tag of the rule's kind.
    fn tag(&self) -> u8 {
        match self {
            Rule::Dynamic => TAG_DYNAMIC,
            Rule::Periodic { .. } => TAG_PERIODIC_STATIC,
            Rule::Hybrid { .. } => TAG_HYBRID,
            Rule::Frozen => TAG_FROZEN_STATIC,
            Rule::Switch { .. } => TAG_THRESHOLD_SWITCH,
        }
    }

    /// Whether a scheduled re-placement or re-seed fires at the start of
    /// global epoch `epoch_idx`: at the first firing, then every `every`
    /// epochs after it (`every = 0`: once). A periodic rule first fires
    /// at its pinned epoch, else at `every` (never when `every = 0`); a
    /// hybrid at `max(every, 1)`.
    fn fires(&self, epoch_idx: usize) -> bool {
        let (first, every) = match *self {
            Rule::Periodic { every, first_fire } => {
                (first_fire.or((every > 0).then_some(every)), every)
            }
            Rule::Hybrid { every, .. } => (Some(every.max(1)), every),
            _ => return false,
        };
        first.is_some_and(|first| {
            epoch_idx == first
                || (every > 0 && epoch_idx > first && (epoch_idx - first).is_multiple_of(every))
        })
    }
}

/// Every built-in policy: the serving core plus the boundary rule its
/// [`StrategyKind`] names. The core holds a tree for the dynamic, hybrid
/// and (until it switches) threshold-switch rules, a placement for the
/// others.
#[derive(Debug, Clone)]
struct BuiltIn {
    core: Core,
    rule: Rule,
}

impl BuiltIn {
    fn new(net: &Network, exec: &ExecutionConfig, max_objects: usize, rule: Rule) -> BuiltIn {
        let sets = match rule {
            Rule::Periodic { .. } | Rule::Frozen => Sets::unplaced(net, max_objects),
            _ => Sets::Dynamic(DynamicTree::new(net, max_objects, exec.threshold)),
        };
        BuiltIn { core: Core::new(net, exec, sets), rule }
    }
}

impl Strategy for BuiltIn {
    fn label(&self) -> String {
        match self.rule {
            Rule::Periodic { every: 0, first_fire: Some(first) } => {
                format!("periodic-static(first={first},once)")
            }
            Rule::Periodic { every, first_fire: Some(first) } => {
                format!("periodic-static(first={first},every={every})")
            }
            _ => self.rule.kind().to_string(),
        }
    }

    fn begin_epoch(
        &mut self,
        net: &Network,
        epoch_idx: usize,
        observed: &AccessMatrix,
        faults: &FaultView,
    ) {
        self.core.heal(net, faults);
        let fires = self.rule.fires(epoch_idx);
        match &mut self.rule {
            Rule::Dynamic | Rule::Frozen => {}
            Rule::Periodic { .. } => {
                // A changed outage set re-places around the dead subtree
                // (once a placement exists to migrate from), whatever the
                // period.
                let placed = matches!(self.core.sets, Sets::Static { placed: true, .. });
                if fires || (faults.buses_down > 0 && faults.changed && epoch_idx > 0 && placed) {
                    self.core.replace(net, observed, faults);
                }
            }
            Rule::Hybrid { kernel, .. } => {
                if !fires {
                    return;
                }
                let mut sweep = NearestCopies::new(net.n_nodes());
                for x in observed.support() {
                    // Seed with the *nibble* copy set, step 1 of the static
                    // pipeline alone: connected by Theorem 3.1, which is the
                    // dynamic strategy's structural invariant (the extended
                    // placement's leaf-only sets are not connected).
                    let seed = kernel.nibble_copies(net, observed, x);
                    if seed.is_empty() {
                        continue;
                    }
                    // Under an outage, seed only the live part of the nibble
                    // set (still connected); a set stranded wholly leaves
                    // the object as it was.
                    let live = live_copies(faults, seed);
                    let seed = match &live {
                        Some(live) if live.is_empty() => continue,
                        Some(live) => live,
                        None => seed,
                    };
                    self.core.move_to(net, x, seed, &mut sweep);
                }
            }
            Rule::Switch { write_bound, min_epochs } => {
                let Sets::Dynamic(tree) = &self.core.sets else { return };
                let s = tree.stats();
                let total = s.reads + s.writes;
                if epoch_idx == 0 || epoch_idx < *min_epochs || total == 0 {
                    return;
                }
                if (s.writes as f64 / total as f64) < *write_bound {
                    return;
                }
                // Switch: hold the tree's replica sets as the placement,
                // then re-place from the observed aggregate, charging the
                // delta from those sets: the same sequence a mid-run
                // `swap_strategy` into `periodic_static_from` performs.
                self.core.turn_static(net);
                self.core.replace(net, observed, faults);
            }
        }
    }

    fn serve_batch(&mut self, net: &Network, trace: &[OnlineRequest], epoch_matrix: &AccessMatrix) {
        self.core.serve_batch(net, trace, epoch_matrix);
    }

    fn charge_service(&mut self, placement_loads: &LoadMap) {
        self.core.charge_service(placement_loads);
    }

    fn copy_set(&self, x: ObjectId) -> &[NodeId] {
        self.core.sets.copies(x)
    }

    fn add_loads_to(&self, out: &mut LoadMap) {
        self.core.add_loads_to(out);
    }

    fn stats(&self) -> DynamicStats {
        self.core.stats()
    }

    fn adopt(&mut self, net: &Network, prior: &dyn Strategy, max_objects: usize) {
        self.core.adopt(net, max_objects, |x| prior.copy_set(x));
    }

    fn durable(&self) -> Option<Vec<u8>> {
        let core = &self.core;
        let mut out = vec![self.rule.tag()];
        if matches!(self.rule, Rule::Switch { .. }) {
            // Whether it switched, so whether its core is a tree or a
            // placement.
            put_u8(&mut out, matches!(core.sets, Sets::Static { .. }) as u8);
        }
        put_core(&mut out, core);
        if !matches!(self.rule, Rule::Dynamic) {
            put_u64(&mut out, core.d);
        }
        match self.rule {
            Rule::Dynamic | Rule::Frozen => {}
            Rule::Periodic { every, first_fire } => {
                put_u64(&mut out, every as u64);
                put_u8(&mut out, first_fire.is_some() as u8);
                if let Some(first) = first_fire {
                    put_u64(&mut out, first as u64);
                }
            }
            Rule::Hybrid { every, .. } => put_u64(&mut out, every as u64),
            Rule::Switch { write_bound, min_epochs } => {
                put_f64(&mut out, write_bound);
                put_u64(&mut out, min_epochs as u64);
            }
        }
        Some(out)
    }
}

impl StrategyKind {
    /// Build the policy this kind names: one serving core under the kind's
    /// boundary rule, behind the open [`Strategy`] trait. Its label is the
    /// kind's `Display`.
    ///
    /// ```
    /// use hbn_scenario::{ExecutionConfig, Strategy, StrategyKind};
    /// use hbn_topology::generators::star;
    ///
    /// let net = star(4, 2);
    /// let exec = ExecutionConfig::default();
    /// let kind = StrategyKind::PeriodicStatic { replace_every_epochs: 4 };
    /// assert_eq!(kind.build(&net, &exec, 8).label(), kind.to_string());
    /// ```
    pub fn build(
        &self,
        net: &Network,
        exec: &ExecutionConfig,
        max_objects: usize,
    ) -> Box<dyn Strategy> {
        let rule = match *self {
            StrategyKind::Dynamic => Rule::Dynamic,
            StrategyKind::PeriodicStatic { replace_every_epochs } => {
                Rule::Periodic { every: replace_every_epochs, first_fire: None }
            }
            StrategyKind::Hybrid { reseed_every_epochs } => Rule::Hybrid {
                every: reseed_every_epochs,
                kernel: Box::new(PlacementKernel::new(net)),
            },
            StrategyKind::FrozenStatic => Rule::Frozen,
            StrategyKind::ThresholdSwitch { write_bound, min_epochs } => {
                Rule::Switch { write_bound, min_epochs }
            }
        };
        Box::new(BuiltIn::new(net, exec, max_objects, rule))
    }
}

/// A periodic-static policy whose *first* firing is pinned to global
/// epoch `first_fire > 0`, then every `replace_every_epochs` after it
/// (`0` = fire exactly once). Built for [`crate::Session::swap_strategy`]:
/// swapped in after `k` epochs with `first_fire = k`, it re-optimizes
/// immediately from the traffic its predecessor observed, charging the
/// copy-set delta from the predecessor's (adopted) copies. Its label is
/// `periodic-static(first=k,once)` or `periodic-static(first=k,every=n)`.
///
/// # Panics
///
/// Panics if `first_fire` is 0: the first firing must come after an
/// observation epoch.
pub fn periodic_static_from(
    net: &Network,
    exec: &ExecutionConfig,
    max_objects: usize,
    first_fire: usize,
    replace_every_epochs: usize,
) -> Box<dyn Strategy> {
    assert!(first_fire > 0, "the first firing must come after an observation epoch");
    let rule = Rule::Periodic { every: replace_every_epochs, first_fire: Some(first_fire) };
    Box::new(BuiltIn::new(net, exec, max_objects, rule))
}

// --- durable strategy codec -------------------------------------------
//
// Tag byte + policy state. A dynamic policy's tree is written as its
// replica sets and live read counters (`DynamicTree::export_object`);
// the threshold `D` comes from `exec`, which the spec fingerprint pins
// to the saved run.

const TAG_DYNAMIC: u8 = 1;
const TAG_PERIODIC_STATIC: u8 = 2;
const TAG_HYBRID: u8 = 3;
const TAG_FROZEN_STATIC: u8 = 4;
const TAG_THRESHOLD_SWITCH: u8 = 5;

fn put_tree(out: &mut Vec<u8>, tree: &DynamicTree) {
    let n = tree.n_objects();
    put_u64(out, n as u64);
    for i in 0..n {
        let x = ObjectId(i as u32);
        match tree.export_object(x) {
            None => put_u8(out, 0),
            Some((replicas, counters)) => {
                put_u8(out, 1);
                put_nodes(out, &replicas);
                put_u64(out, counters.len() as u64);
                for (e, c) in counters {
                    put_u32(out, e.0);
                    put_u64(out, c);
                }
            }
        }
    }
    put_loads(out, tree.loads());
    put_stats(out, tree.stats());
}

/// A core's section as [`read_core`] reads it back: a tree and then its
/// ledger, or a placement's static section (the `placed` flag, the
/// ledger, then every object's copy set).
fn put_core(out: &mut Vec<u8>, core: &Core) {
    match &core.sets {
        Sets::Dynamic(tree) => {
            put_tree(out, tree);
            put_loads(out, &core.loads);
            put_stats(out, core.stats);
        }
        Sets::Static { copies, placed, .. } => {
            put_u8(out, *placed as u8);
            put_stats(out, core.stats);
            put_loads(out, &core.loads);
            put_u64(out, copies.n_objects() as u64);
            for i in 0..copies.n_objects() {
                put_nodes(out, copies.copies(ObjectId(i as u32)));
            }
        }
    }
}

fn check_nodes(nodes: &[NodeId], net: &Network) -> Result<(), String> {
    match nodes.iter().find(|v| v.index() >= net.n_nodes()) {
        Some(v) => Err(format!("node id {} out of range", v.0)),
        None => Ok(()),
    }
}

/// A replica set read from disk must be one the dynamic kernel could
/// have built: distinct nodes forming one connected subtree. In a rooted
/// tree a set is connected exactly when one member is the root or has a
/// parent outside the set.
fn check_replica_set(replicas: &[NodeId], net: &Network) -> Result<(), String> {
    let mut sorted = replicas.to_vec();
    sorted.sort_unstable();
    if sorted.windows(2).any(|w| w[0] == w[1]) {
        return Err("duplicate replica".into());
    }
    let is_member = |v: NodeId| sorted.binary_search(&v).is_ok();
    let tops = replicas.iter().filter(|&&v| v == net.root() || !is_member(net.parent(v))).count();
    if tops != 1 {
        return Err(format!("replica set in {tops} disconnected parts"));
    }
    Ok(())
}

fn read_tree(
    dec: &mut Dec<'_>,
    net: &Network,
    exec: &ExecutionConfig,
    max_objects: usize,
) -> Result<DynamicTree, String> {
    let n = dec.u64()? as usize;
    if n != max_objects {
        return Err(format!("kernel of {n} objects, expected {max_objects}"));
    }
    let mut tree = DynamicTree::new(net, max_objects, exec.threshold);
    for i in 0..n {
        if dec.u8()? == 0 {
            continue;
        }
        let x = ObjectId(i as u32);
        let replicas = dec.nodes()?;
        check_nodes(&replicas, net)?;
        if replicas.is_empty() {
            return Err(format!("live object {i} with empty replica set"));
        }
        check_replica_set(&replicas, net).map_err(|e| format!("object {i}: {e}"))?;
        let n_counters = dec.len(12)?;
        let mut counters = Vec::with_capacity(n_counters);
        for _ in 0..n_counters {
            let e = dec.u32()?;
            if e as usize >= net.n_nodes() {
                return Err(format!("edge id {e} out of range"));
            }
            counters.push((EdgeId(e), dec.u64()?));
        }
        tree.restore_object(net, x, &replicas, &counters);
    }
    let loads = dec.loads(net)?;
    let stats = dec.stats()?;
    tree.restore_accounting(loads, stats);
    Ok(tree)
}

/// Read a core section written by [`put_core`]: a tree's when `dynamic`,
/// else a static section. `D` starts as `exec.threshold`; a policy that
/// writes its own reads it next.
fn read_core(
    dec: &mut Dec<'_>,
    net: &Network,
    exec: &ExecutionConfig,
    max_objects: usize,
    dynamic: bool,
) -> Result<Core, String> {
    if dynamic {
        let tree = read_tree(dec, net, exec, max_objects)?;
        let loads = dec.loads(net)?;
        let stats = dec.stats()?;
        return Ok(Core { sets: Sets::Dynamic(tree), loads, stats, d: exec.threshold });
    }
    let placed = dec.flag()?;
    let stats = dec.stats()?;
    let loads = dec.loads(net)?;
    let n = dec.u64()? as usize;
    if n != max_objects {
        return Err(format!("placement of {n} objects, expected {max_objects}"));
    }
    let mut copies = Placement::new(max_objects);
    for i in 0..n {
        let nodes = dec.nodes()?;
        check_nodes(&nodes, net)?;
        if !nodes.is_empty() {
            copies.set_copies(ObjectId(i as u32), nodes);
        }
    }
    let kernel = Box::new(PlacementKernel::new(net));
    Ok(Core { sets: Sets::Static { copies, placed, kernel }, loads, stats, d: exec.threshold })
}

/// Rebuild a built-in strategy from its [`Strategy::durable`] bytes: the
/// tag (a threshold switch then writes whether it switched), the core
/// section, `D` unless the policy is dynamic, then the rule's
/// parameters. `exec` must be the execution config of the saved run (the
/// spec fingerprint guarantees this for disk restores).
pub(crate) fn strategy_from_durable(
    net: &Network,
    exec: &ExecutionConfig,
    max_objects: usize,
    bytes: &[u8],
) -> Result<Box<dyn Strategy>, String> {
    let mut dec = Dec::new(bytes);
    let tag = dec.u8()?;
    if !(TAG_DYNAMIC..=TAG_THRESHOLD_SWITCH).contains(&tag) {
        return Err(format!("unknown strategy tag {tag}"));
    }
    // A threshold switch's core is its tree until it switches.
    let dynamic = match tag {
        TAG_DYNAMIC | TAG_HYBRID => true,
        TAG_THRESHOLD_SWITCH => !dec.flag()?,
        _ => false,
    };
    let mut core = read_core(&mut dec, net, exec, max_objects, dynamic)?;
    if tag != TAG_DYNAMIC {
        core.d = dec.u64()?;
    }
    let rule = match tag {
        TAG_DYNAMIC => Rule::Dynamic,
        TAG_PERIODIC_STATIC => {
            let every = dec.u64()? as usize;
            let first_fire = if dec.flag()? { Some(dec.u64()? as usize) } else { None };
            Rule::Periodic { every, first_fire }
        }
        TAG_HYBRID => {
            let every = dec.u64()? as usize;
            Rule::Hybrid { every, kernel: Box::new(PlacementKernel::new(net)) }
        }
        TAG_FROZEN_STATIC => Rule::Frozen,
        _ => Rule::Switch { write_bound: dec.f64()?, min_epochs: dec.u64()? as usize },
    };
    dec.finish()?;
    Ok(Box::new(BuiltIn { core, rule }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TopologyFamily;

    /// The durable bytes of a one-object dynamic strategy whose object
    /// holds `replicas`.
    fn dynamic_bytes(net: &Network, replicas: &[NodeId]) -> Vec<u8> {
        let mut out = vec![TAG_DYNAMIC];
        put_u64(&mut out, 1);
        put_u8(&mut out, 1);
        put_nodes(&mut out, replicas);
        put_u64(&mut out, 0);
        for _ in 0..2 {
            put_loads(&mut out, &LoadMap::zero(net));
            put_stats(&mut out, DynamicStats::default());
        }
        out
    }

    /// An external policy that holds one fixed copy set per object.
    #[derive(Clone)]
    struct Fixed(Vec<Vec<NodeId>>);

    impl Strategy for Fixed {
        fn label(&self) -> String {
            "fixed".into()
        }
        fn begin_epoch(&mut self, _: &Network, _: usize, _: &AccessMatrix, _: &FaultView) {}
        fn serve_batch(&mut self, _: &Network, _: &[OnlineRequest], _: &AccessMatrix) {}
        fn copy_set(&self, x: ObjectId) -> &[NodeId] {
            &self.0[x.index()]
        }
        fn add_loads_to(&self, _: &mut LoadMap) {}
        fn stats(&self) -> DynamicStats {
            DynamicStats::default()
        }
    }

    /// A re-placement writes the kernel's sets over the held ones, clamped
    /// under an outage, and charges the objects with observed traffic
    /// only: the adopted sets of the others end empty and uncharged.
    #[test]
    fn replace_writes_the_kernel_sets_and_charges_observed_objects_only() {
        let net = TopologyFamily::Balanced { branching: 3, height: 2 }.build();
        let d = 2;
        let exec = ExecutionConfig { threshold: d, ..ExecutionConfig::default() };
        let p = net.processors();
        let n = 8;
        // Sorted, as a placement holds them (sources tie towards the
        // earliest-listed copy, so the order moves the charge).
        let held: Vec<Vec<NodeId>> = (0..n)
            .map(|i| {
                let mut set = vec![p[i % 3 + 3], p[(i + 7) % 9]];
                set.sort_unstable();
                set
            })
            .collect();
        let mut observed = AccessMatrix::new(n);
        for (x, proc, reads, writes) in [
            (1, 0, 40, 1),
            (1, 5, 30, 1),
            (2, 3, 9, 4),
            (2, 4, 2, 4),
            (5, 1, 6, 0),
            (6, 7, 12, 2),
            (6, 8, 1, 2),
        ] {
            observed.add(p[proc], ObjectId(x), reads, writes);
        }
        let placed = PlacementKernel::new(&net).place(&net, &observed).unwrap();
        // The first bus down strands p[0..3].
        let mut outage = FaultView::pristine(&net);
        for v in [net.parent(p[0]), p[0], p[1], p[2]] {
            outage.stranded[v.index()] = true;
        }
        outage.buses_down = 1;
        let mut clamped = 0;
        for view in [FaultView::pristine(&net), outage] {
            let mut policy =
                BuiltIn::new(&net, &exec, n, Rule::Periodic { every: 1, first_fire: None });
            policy.adopt(&net, &Fixed(held.clone()), n);
            policy.core.replace(&net, &observed, &view);

            let (mut loads, mut stats) = (LoadMap::zero(&net), DynamicStats::default());
            let mut sweep = NearestCopies::new(net.n_nodes());
            for (x, old) in observed.objects().zip(&held) {
                if observed.object_entries(x).is_empty() {
                    assert!(policy.copy_set(x).is_empty(), "{x} without traffic");
                    continue;
                }
                let live = outage_copies(&net, &view, placed.copies(x), Harbor::Processor);
                clamped += usize::from(live.is_some());
                let new = live.as_deref().unwrap_or(placed.copies(x));
                assert_ne!(old, new, "{x} must move");
                assert_eq!(policy.copy_set(x), new, "{x}");
                charge_move(&net, old, new, d, &mut loads, &mut stats, &mut sweep);
            }
            assert_eq!(policy.core.loads, loads);
            assert_eq!(policy.core.stats, stats);
            assert!(stats.replications > 0 && stats.collapses > 0, "{stats:?}");
        }
        assert!(clamped >= 2, "the outage must clamp a stranded set and re-home one");
    }

    /// The one firing cadence as each re-placing rule reads it: the
    /// epochs below 10 at which it fires.
    #[test]
    fn firing_cadences() {
        let net = TopologyFamily::Star { processors: 4, bus_bandwidth: 2 }.build();
        let periodic = |every, first_fire| Rule::Periodic { every, first_fire };
        let hybrid = |every| Rule::Hybrid { every, kernel: Box::new(PlacementKernel::new(&net)) };
        let firing = |rule: Rule| (0..10).filter(|&e| rule.fires(e)).collect::<Vec<_>>();
        assert_eq!(firing(periodic(3, None)), [3, 6, 9]);
        assert_eq!(firing(periodic(0, None)), []);
        assert_eq!(firing(periodic(3, Some(4))), [4, 7]);
        assert_eq!(firing(periodic(0, Some(4))), [4]);
        assert_eq!(firing(hybrid(3)), [3, 6, 9]);
        assert_eq!(firing(hybrid(0)), [1]);
        assert_eq!(firing(Rule::Switch { write_bound: 0.0, min_epochs: 1 }), []);
    }

    /// Every kind builds a policy labelled with the kind's `Display`, and
    /// the pinned periodic form has its own two labels.
    #[test]
    fn every_kind_builds_its_own_label() {
        let net = TopologyFamily::Star { processors: 4, bus_bandwidth: 2 }.build();
        let exec = ExecutionConfig { threshold: 2, ..ExecutionConfig::default() };
        let kinds = [
            (StrategyKind::Dynamic, "dynamic"),
            (StrategyKind::PeriodicStatic { replace_every_epochs: 4 }, "periodic-static(4)"),
            (StrategyKind::PeriodicStatic { replace_every_epochs: 0 }, "periodic-static(inf)"),
            (StrategyKind::Hybrid { reseed_every_epochs: 3 }, "hybrid(3)"),
            (StrategyKind::Hybrid { reseed_every_epochs: 0 }, "hybrid(once)"),
            (StrategyKind::FrozenStatic, "frozen-static"),
            (
                StrategyKind::ThresholdSwitch { write_bound: 0.3, min_epochs: 2 },
                "threshold-switch(w>=0.30,after=2)",
            ),
        ];
        for (kind, label) in kinds {
            assert_eq!(kind.to_string(), label);
            assert_eq!(kind.build(&net, &exec, 8).label(), label);
        }
        let pinned = |every| periodic_static_from(&net, &exec, 8, 4, every).label();
        assert_eq!(pinned(0), "periodic-static(first=4,once)");
        assert_eq!(pinned(3), "periodic-static(first=4,every=3)");
    }

    /// The decoder is the gate for replica sets read from disk: a
    /// disconnected set or a duplicate replica is malformed, never a
    /// panic or a corrupt tree.
    #[test]
    fn disconnected_or_duplicate_replica_sets_are_rejected() {
        let net = TopologyFamily::Star { processors: 4, bus_bandwidth: 2 }.build();
        let exec = ExecutionConfig::default();
        let (p0, p1) = (net.processors()[0], net.processors()[1]);
        let bus = net.parent(p0);
        assert!(strategy_from_durable(&net, &exec, 1, &dynamic_bytes(&net, &[bus, p0, p1])).is_ok());

        let disconnected = strategy_from_durable(&net, &exec, 1, &dynamic_bytes(&net, &[p0, p1]));
        assert!(disconnected.is_err_and(|e| e.contains("disconnected")));
        let duplicate = strategy_from_durable(&net, &exec, 1, &dynamic_bytes(&net, &[p0, p0]));
        assert!(duplicate.is_err_and(|e| e.contains("duplicate")));
    }

    /// A threshold switch writes whether it switched right after its tag,
    /// then one core section: its tree before the switch, its placement
    /// after. Both forms restore to the same bytes, and a switched byte
    /// other than 0 or 1 is malformed.
    #[test]
    fn switch_restores_on_both_sides_of_its_switch() {
        let net = TopologyFamily::Balanced { branching: 2, height: 2 }.build();
        let exec = ExecutionConfig { threshold: 2, ..ExecutionConfig::default() };
        let p = net.processors();
        let n = 4;
        let trace: Vec<OnlineRequest> = (0..24)
            .map(|i| OnlineRequest {
                processor: p[i * 5 % p.len()],
                object: ObjectId((i % n) as u32),
                is_write: i % 3 == 0,
            })
            .collect();
        let mut observed = AccessMatrix::new(n);
        for r in &trace {
            observed.add(r.processor, r.object, u64::from(!r.is_write), u64::from(r.is_write));
        }
        let pristine = FaultView::pristine(&net);
        let kind = StrategyKind::ThresholdSwitch { write_bound: 0.0, min_epochs: 1 };
        let mut policy = kind.build(&net, &exec, n);
        policy.begin_epoch(&net, 0, &AccessMatrix::new(n), &pristine);
        policy.serve_batch(&net, &trace, &observed);
        let before = policy.durable().unwrap();
        policy.begin_epoch(&net, 1, &observed, &pristine);
        let after = policy.durable().unwrap();
        // The tree's counters survive the switch in the policy's totals.
        assert_eq!(policy.stats().reads + policy.stats().writes, trace.len() as u64);

        for (switched, bytes) in [(0, before), (1, after)] {
            assert_eq!(bytes[1], switched);
            let restored = strategy_from_durable(&net, &exec, n, &bytes).unwrap();
            assert_eq!(restored.durable().unwrap(), bytes, "switched {switched}");
            let mut flagged = bytes;
            flagged[1] = 2;
            let malformed = strategy_from_durable(&net, &exec, n, &flagged);
            assert!(malformed.is_err_and(|e| e == "flag byte 2"), "switched {switched}");
        }
    }
}
