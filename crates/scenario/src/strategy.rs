//! The open strategy boundary of the scenario engine: the [`Strategy`]
//! trait, the three built-in policies behind [`crate::StrategyKind`], and
//! two policies only expressible through the trait.
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
use crate::spec::{ExecutionConfig, ServeKernel, StrategyKind};
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
    /// what `out` already holds).
    fn add_loads_to(&self, out: &mut LoadMap);

    /// Event counters: requests served, `D`-sized data movements
    /// (`replications`), copies dropped (`collapses`).
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
    // objects per re-placement, 2-vCPU KVM guest), a `StaticCore::refit`
    // pass took 9–58 ms with an O(|V|) BFS map per object and takes
    // 1–16 ms with the sweep.
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

/// The per-object copy sets a policy holds, a dynamic tree's replica
/// sets or a static placement, as [`heal`] reads and rewrites them.
trait CopySets {
    fn n_objects(&self) -> usize;
    fn copies(&self, x: ObjectId) -> &[NodeId];
    fn set_copies(&mut self, net: &Network, x: ObjectId, copies: &[NodeId]);
}

impl CopySets for DynamicTree {
    fn n_objects(&self) -> usize {
        DynamicTree::n_objects(self)
    }
    fn copies(&self, x: ObjectId) -> &[NodeId] {
        self.replicas(x)
    }
    fn set_copies(&mut self, net: &Network, x: ObjectId, copies: &[NodeId]) {
        self.seed_replicas(net, x, copies);
    }
}

impl CopySets for Placement {
    fn n_objects(&self) -> usize {
        Placement::n_objects(self)
    }
    fn copies(&self, x: ObjectId) -> &[NodeId] {
        Placement::copies(self, x)
    }
    fn set_copies(&mut self, _: &Network, x: ObjectId, copies: &[NodeId]) {
        self.set_copies_from(x, copies);
    }
}

/// Self-heal held copy sets around a bus outage by [`outage_copies`]; a
/// no-op while no bus is down. Dropped copies count as collapses, and a
/// set re-homed at its harbor pays a repair fetch charged exactly like a
/// migration ([`charged_migration`] at `D` per edge). `repairs` counts
/// the `D`-sized repair transfers — always a subset of `replications`, so
/// `migration_traffic = replications × D` keeps holding.
fn heal(
    sets: &mut impl CopySets,
    net: &Network,
    view: &FaultView,
    harbor: Harbor,
    d: u64,
    loads: &mut LoadMap,
    stats: &mut DynamicStats,
) {
    if view.buses_down == 0 {
        return;
    }
    let mut sweep = NearestCopies::new(net.n_nodes());
    for i in 0..sets.n_objects() {
        let x = ObjectId(i as u32);
        let old = sets.copies(x);
        let Some(new) = outage_copies(net, view, old, harbor) else { continue };
        let transfers = charge_move(net, old, &new, d, loads, stats, &mut sweep);
        stats.repairs += transfers;
        sets.set_copies(net, x, &new);
    }
}

/// Clamp a freshly optimized placement to the live part of the network
/// by [`outage_copies`], free of charge: the refit that follows charges
/// the move from the held sets. A no-op while no bus is down.
fn sanitize_placement(net: &Network, view: &FaultView, placement: &mut Placement) {
    if view.buses_down == 0 {
        return;
    }
    for i in 0..placement.n_objects() {
        let x = ObjectId(i as u32);
        if let Some(new) = outage_copies(net, view, placement.copies(x), Harbor::Processor) {
            placement.set_copies(x, new);
        }
    }
}

/// The firing cadence of the re-placing policies: fire at global epoch
/// `first`, then every `every` epochs after it (`every = 0`: once).
/// `first = None` never fires.
fn fires(epoch_idx: usize, first: Option<usize>, every: usize) -> bool {
    first.is_some_and(|first| {
        epoch_idx == first
            || (every > 0 && epoch_idx > first && (epoch_idx - first).is_multiple_of(every))
    })
}

/// The dynamic-strategy serve kernel `exec.serve` names: a tree on the
/// fast kernel, or one pinned to the naive reference kernel.
fn dyn_kernel(net: &Network, exec: &ExecutionConfig, max_objects: usize) -> DynamicTree {
    match exec.serve {
        ServeKernel::Workspace => DynamicTree::new(net, max_objects, exec.threshold),
        ServeKernel::Reference => DynamicTree::reference(net, max_objects, exec.threshold),
    }
}

/// Adopt a predecessor's copy sets into a dynamic kernel: each non-empty
/// set is seeded as its connected closure (the dynamic tree's structural
/// invariant).
fn adopt_dynamic(
    kernel: &mut DynamicTree,
    net: &Network,
    prior: &dyn Strategy,
    max_objects: usize,
) {
    for i in 0..max_objects {
        let x = ObjectId(i as u32);
        let copies = prior.copy_set(x);
        if !copies.is_empty() {
            kernel.seed_replicas(net, x, &connected_closure(net, copies));
        }
    }
}

/// The static-model serving core shared by every placement-holding
/// policy: the current copy sets, the cumulative loads and the event
/// counters. `replications` counts `D`-sized migration edge transfers
/// (the dynamic kernel's unit) and `collapses` dropped copies.
#[derive(Debug, Clone)]
struct StaticCore {
    /// Current copy sets (assignments are rebuilt per epoch from the
    /// epoch's frequency matrix).
    copies: Placement,
    loads: LoadMap,
    stats: DynamicStats,
    /// Whether a placement exists (bootstrap or adopted).
    placed: bool,
}

impl StaticCore {
    fn new(net: &Network, max_objects: usize) -> StaticCore {
        StaticCore {
            copies: Placement::new(max_objects),
            loads: LoadMap::zero(net),
            stats: DynamicStats::default(),
            placed: false,
        }
    }

    /// Serve one epoch under the static model: compute the bootstrap
    /// placement on the first epoch (free — the strategy's starting
    /// configuration), materialize unseen objects at their first
    /// requester (free, like the dynamic first touch) and count the
    /// requests. Service loads are charged later via `charge_service`,
    /// once the epoch's snapshot placement exists.
    fn serve_batch(
        &mut self,
        net: &Network,
        kernel: &mut PlacementKernel,
        trace: &[OnlineRequest],
        epoch_matrix: &AccessMatrix,
    ) {
        if !self.placed {
            self.copies = kernel.place(net, epoch_matrix).expect("static bootstrap failed");
            self.placed = true;
        }
        for req in trace {
            if self.copies.copies(req.object).is_empty() {
                self.copies.add_copy(req.object, req.processor);
            }
            if req.is_write {
                self.stats.writes += 1;
            } else {
                self.stats.reads += 1;
            }
        }
    }

    /// Replace the copy sets with a freshly optimized placement, charging
    /// the copy-set delta of every observed object from its nearest old
    /// copy at `D` per edge crossed ([`charged_migration`]) and counting
    /// dropped copies as collapses.
    fn refit(&mut self, net: &Network, observed: &AccessMatrix, new_placement: Placement, d: u64) {
        let mut sweep = NearestCopies::new(net.n_nodes());
        for x in observed.objects() {
            if observed.total_weight(x) == 0 {
                continue;
            }
            let (old, new) = (self.copies.copies(x), new_placement.copies(x));
            charge_move(net, old, new, d, &mut self.loads, &mut self.stats, &mut sweep);
        }
        self.copies = new_placement;
        self.placed = true;
    }

    /// Self-heal the held placement around a bus outage ([`heal`]): a
    /// copy set stranded wholly moves to the nearest live processor.
    fn heal(&mut self, net: &Network, view: &FaultView, d: u64) {
        if self.placed {
            let (loads, stats) = (&mut self.loads, &mut self.stats);
            heal(&mut self.copies, net, view, Harbor::Processor, d, loads, stats);
        }
    }

    /// Inherit copy sets verbatim, free of charge: the non-empty sets
    /// `copies(x)` of objects `0..n` — a predecessor's at a strategy
    /// swap, or a policy's own dynamic replica sets when it turns static.
    fn adopt<'a>(&mut self, n: usize, copies: impl Fn(ObjectId) -> &'a [NodeId]) {
        for i in 0..n {
            let x = ObjectId(i as u32);
            let inherited = copies(x);
            if !inherited.is_empty() {
                self.copies.set_copies(x, inherited.to_vec());
            }
        }
        self.placed = true;
    }
}

/// The online read-replicate / write-collapse strategy
/// ([`StrategyKind::Dynamic`] as a public struct): every request is
/// served by the dynamic tree kernel, migration cost is the `D`-sized
/// replications the kernel performs.
#[derive(Debug, Clone)]
pub struct DynamicStrategy {
    kernel: DynamicTree,
    /// Migration charge unit `D` (for outage repair fetches).
    threshold: u64,
    /// Loads charged by outage self-healing (the kernel owns its own
    /// serve loads).
    heal_loads: LoadMap,
    /// Healing counters, merged into [`Strategy::stats`].
    heal_stats: DynamicStats,
}

impl DynamicStrategy {
    /// A fresh dynamic strategy on `net` for `max_objects` objects,
    /// using the serve kernel of `exec`.
    ///
    /// ```
    /// use hbn_scenario::{DynamicStrategy, ExecutionConfig, Strategy};
    /// use hbn_topology::generators::star;
    ///
    /// let net = star(4, 2);
    /// let strategy = DynamicStrategy::new(&net, &ExecutionConfig::default(), 8);
    /// assert_eq!(strategy.label(), "dynamic");
    /// ```
    pub fn new(net: &Network, exec: &ExecutionConfig, max_objects: usize) -> DynamicStrategy {
        DynamicStrategy {
            kernel: dyn_kernel(net, exec, max_objects),
            threshold: exec.threshold,
            heal_loads: LoadMap::zero(net),
            heal_stats: DynamicStats::default(),
        }
    }
}

impl Strategy for DynamicStrategy {
    fn label(&self) -> String {
        StrategyKind::Dynamic.to_string()
    }

    fn begin_epoch(
        &mut self,
        net: &Network,
        _epoch_idx: usize,
        _observed: &AccessMatrix,
        faults: &FaultView,
    ) {
        let (loads, stats) = (&mut self.heal_loads, &mut self.heal_stats);
        heal(&mut self.kernel, net, faults, Harbor::Ancestor, self.threshold, loads, stats);
    }

    fn serve_batch(&mut self, net: &Network, trace: &[OnlineRequest], _matrix: &AccessMatrix) {
        self.kernel.serve_trace(net, trace);
    }

    fn copy_set(&self, x: ObjectId) -> &[NodeId] {
        self.kernel.replicas(x)
    }

    fn add_loads_to(&self, out: &mut LoadMap) {
        out.add_assign(self.kernel.loads());
        out.add_assign(&self.heal_loads);
    }

    fn stats(&self) -> DynamicStats {
        self.kernel.stats().merge(self.heal_stats)
    }

    fn adopt(&mut self, net: &Network, prior: &dyn Strategy, max_objects: usize) {
        adopt_dynamic(&mut self.kernel, net, prior, max_objects);
    }

    fn durable(&self) -> Option<Vec<u8>> {
        let mut out = vec![TAG_DYNAMIC];
        put_dyn_kernel(&mut out, &self.kernel);
        put_loads(&mut out, &self.heal_loads);
        put_stats(&mut out, self.heal_stats);
        Some(out)
    }
}

/// Periodic static re-optimization
/// ([`StrategyKind::PeriodicStatic`] as a public struct): the batched
/// extended-nibble kernel recomputes the placement from the observed
/// aggregate matrix at firing epochs, and the placement serves each
/// epoch's traffic under the static load model.
#[derive(Debug, Clone)]
pub struct PeriodicStatic {
    core: StaticCore,
    kernel: PlacementKernel,
    threshold: u64,
    /// Re-optimize every this many epochs (`0` = never on schedule;
    /// outage re-placements still fire).
    replace_every_epochs: usize,
    /// With `Some(k)`, the first firing is pinned to global epoch `k`
    /// (then every `replace_every_epochs` after, if non-zero) — the form
    /// a mid-run [`crate::Session::swap_strategy`] uses so the incoming
    /// policy fires immediately on the traffic observed by its
    /// predecessor.
    first_fire: Option<usize>,
}

impl PeriodicStatic {
    /// The standard periodic rule: re-optimize at the start of every
    /// epoch `e > 0` with `e % replace_every_epochs == 0` (`0` = never on
    /// schedule — a single up-front bootstrap placement on fault-free
    /// runs). Independently of the period, an epoch whose set of down
    /// buses changed while a bus is down re-places around the outage.
    ///
    /// ```
    /// use hbn_scenario::{ExecutionConfig, PeriodicStatic, Strategy};
    /// use hbn_topology::generators::star;
    ///
    /// let net = star(4, 2);
    /// let exec = ExecutionConfig { threshold: 2, ..ExecutionConfig::default() };
    /// assert_eq!(PeriodicStatic::new(&net, &exec, 8, 4).label(), "periodic-static(4)");
    /// assert_eq!(PeriodicStatic::new(&net, &exec, 8, 0).label(), "periodic-static(inf)");
    /// ```
    pub fn new(
        net: &Network,
        exec: &ExecutionConfig,
        max_objects: usize,
        replace_every_epochs: usize,
    ) -> PeriodicStatic {
        PeriodicStatic {
            core: StaticCore::new(net, max_objects),
            kernel: PlacementKernel::new(net),
            threshold: exec.threshold,
            replace_every_epochs,
            first_fire: None,
        }
    }

    /// A periodic-static strategy whose *first* firing is pinned to
    /// global epoch `first_fire > 0`, then every `replace_every_epochs`
    /// after it (`0` = fire exactly once). Built for
    /// [`crate::Session::swap_strategy`]: swapped in after `k` epochs
    /// with `first_fire = k`, it re-optimizes immediately from the
    /// traffic its predecessor observed, charging the copy-set delta
    /// from the predecessor's (adopted) copies.
    pub fn with_first_fire(
        net: &Network,
        exec: &ExecutionConfig,
        max_objects: usize,
        first_fire: usize,
        replace_every_epochs: usize,
    ) -> PeriodicStatic {
        assert!(first_fire > 0, "the first firing must come after an observation epoch");
        PeriodicStatic {
            first_fire: Some(first_fire),
            ..Self::new(net, exec, max_objects, replace_every_epochs)
        }
    }

    /// Whether a re-optimization fires at the start of `epoch_idx`.
    fn fires(&self, epoch_idx: usize) -> bool {
        let k = self.replace_every_epochs;
        fires(epoch_idx, self.first_fire.or((k > 0).then_some(k)), k)
    }
}

impl Strategy for PeriodicStatic {
    fn label(&self) -> String {
        match self.first_fire {
            None => {
                StrategyKind::PeriodicStatic { replace_every_epochs: self.replace_every_epochs }
                    .to_string()
            }
            Some(first) if self.replace_every_epochs == 0 => {
                format!("periodic-static(first={first},once)")
            }
            Some(first) => {
                format!("periodic-static(first={first},every={})", self.replace_every_epochs)
            }
        }
    }

    fn begin_epoch(
        &mut self,
        net: &Network,
        epoch_idx: usize,
        observed: &AccessMatrix,
        faults: &FaultView,
    ) {
        self.core.heal(net, faults, self.threshold);
        // A changed outage set triggers an immediate re-placement around
        // the dead subtree (once a placement exists to migrate from), on
        // top of the periodic rule.
        let outage_refit =
            faults.buses_down > 0 && faults.changed && epoch_idx > 0 && self.core.placed;
        if !self.fires(epoch_idx) && !outage_refit {
            return;
        }
        let mut placement =
            self.kernel.place(net, observed).expect("static re-optimization failed");
        sanitize_placement(net, faults, &mut placement);
        self.core.refit(net, observed, placement, self.threshold);
    }

    fn serve_batch(&mut self, net: &Network, trace: &[OnlineRequest], epoch_matrix: &AccessMatrix) {
        self.core.serve_batch(net, &mut self.kernel, trace, epoch_matrix);
    }

    fn charge_service(&mut self, placement_loads: &LoadMap) {
        self.core.loads.add_assign(placement_loads);
    }

    fn copy_set(&self, x: ObjectId) -> &[NodeId] {
        self.core.copies.copies(x)
    }

    fn add_loads_to(&self, out: &mut LoadMap) {
        out.add_assign(&self.core.loads);
    }

    fn stats(&self) -> DynamicStats {
        self.core.stats
    }

    fn adopt(&mut self, _net: &Network, prior: &dyn Strategy, max_objects: usize) {
        self.core.adopt(max_objects, |x| prior.copy_set(x));
    }

    fn durable(&self) -> Option<Vec<u8>> {
        let mut out = vec![TAG_PERIODIC_STATIC];
        put_static_core(&mut out, &self.core);
        put_u64(&mut out, self.threshold);
        put_u64(&mut out, self.replace_every_epochs as u64);
        match self.first_fire {
            None => put_u8(&mut out, 0),
            Some(first) => {
                put_u8(&mut out, 1);
                put_u64(&mut out, first as u64);
            }
        }
        Some(out)
    }
}

/// The dynamic strategy periodically re-seeded by the static pipeline
/// ([`StrategyKind::Hybrid`] as a public struct): at re-seed boundaries
/// the kernel's step-1 pass ([`PlacementKernel::nibble_copies`]) runs on
/// the observed matrix and each object's *nibble* copy set (connected by
/// Theorem 3.1) replaces the dynamic tree's replica set, charged like a
/// static migration; between boundaries requests are served online.
#[derive(Debug, Clone)]
pub struct HybridReseed {
    dynamic: DynamicTree,
    kernel: PlacementKernel,
    /// Migration charges of the re-seeds (the dynamic kernel owns its
    /// own loads).
    migration_loads: LoadMap,
    /// Seeding counters: `replications` counts `D`-sized seeding edge
    /// transfers, `collapses` copies dropped by a re-seed.
    seed_stats: DynamicStats,
    threshold: u64,
    /// Re-seed every this many epochs (`0` = exactly once, at epoch 1).
    reseed_every_epochs: usize,
}

impl HybridReseed {
    /// A hybrid strategy re-seeding at the start of every epoch `e > 0`
    /// with `e % reseed_every_epochs == 0` (`0` = seed exactly once, at
    /// the start of epoch 1, after one epoch of observation).
    ///
    /// ```
    /// use hbn_scenario::{ExecutionConfig, HybridReseed, Strategy};
    /// use hbn_topology::generators::star;
    ///
    /// let net = star(4, 2);
    /// let exec = ExecutionConfig::default();
    /// assert_eq!(HybridReseed::new(&net, &exec, 8, 3).label(), "hybrid(3)");
    /// ```
    pub fn new(
        net: &Network,
        exec: &ExecutionConfig,
        max_objects: usize,
        reseed_every_epochs: usize,
    ) -> HybridReseed {
        HybridReseed {
            dynamic: dyn_kernel(net, exec, max_objects),
            kernel: PlacementKernel::new(net),
            migration_loads: LoadMap::zero(net),
            seed_stats: DynamicStats::default(),
            threshold: exec.threshold,
            reseed_every_epochs,
        }
    }

    /// Whether a re-seed fires at the start of `epoch_idx`.
    fn fires(&self, epoch_idx: usize) -> bool {
        let k = self.reseed_every_epochs;
        fires(epoch_idx, Some(k.max(1)), k)
    }
}

impl Strategy for HybridReseed {
    fn label(&self) -> String {
        StrategyKind::Hybrid { reseed_every_epochs: self.reseed_every_epochs }.to_string()
    }

    fn begin_epoch(
        &mut self,
        net: &Network,
        epoch_idx: usize,
        observed: &AccessMatrix,
        faults: &FaultView,
    ) {
        let (loads, stats) = (&mut self.migration_loads, &mut self.seed_stats);
        heal(&mut self.dynamic, net, faults, Harbor::Ancestor, self.threshold, loads, stats);
        if !self.fires(epoch_idx) {
            return;
        }
        let mut sweep = NearestCopies::new(net.n_nodes());
        for x in observed.objects() {
            // Seed with the *nibble* copy set, step 1 of the static
            // pipeline alone: connected by Theorem 3.1, which is the
            // dynamic strategy's structural invariant (the extended
            // placement's leaf-only sets are not connected).
            let seed = self.kernel.nibble_copies(net, observed, x);
            if seed.is_empty() {
                continue;
            }
            // Under an outage, seed only the live part of the nibble set
            // (still connected); a set stranded wholly leaves the object
            // as it was.
            let live = live_copies(faults, seed);
            let seed = match &live {
                Some(live) if live.is_empty() => continue,
                Some(live) => live,
                None => seed,
            };
            let (loads, stats) = (&mut self.migration_loads, &mut self.seed_stats);
            charge_move(
                net,
                self.dynamic.replicas(x),
                seed,
                self.threshold,
                loads,
                stats,
                &mut sweep,
            );
            self.dynamic.seed_replicas(net, x, seed);
        }
    }

    fn serve_batch(&mut self, net: &Network, trace: &[OnlineRequest], _matrix: &AccessMatrix) {
        self.dynamic.serve_trace(net, trace);
    }

    fn copy_set(&self, x: ObjectId) -> &[NodeId] {
        self.dynamic.replicas(x)
    }

    fn add_loads_to(&self, out: &mut LoadMap) {
        out.add_assign(self.dynamic.loads());
        out.add_assign(&self.migration_loads);
    }

    fn stats(&self) -> DynamicStats {
        self.dynamic.stats().merge(self.seed_stats)
    }

    fn adopt(&mut self, net: &Network, prior: &dyn Strategy, max_objects: usize) {
        adopt_dynamic(&mut self.dynamic, net, prior, max_objects);
    }

    fn durable(&self) -> Option<Vec<u8>> {
        let mut out = vec![TAG_HYBRID];
        put_dyn_kernel(&mut out, &self.dynamic);
        put_loads(&mut out, &self.migration_loads);
        put_stats(&mut out, self.seed_stats);
        put_u64(&mut out, self.threshold);
        put_u64(&mut out, self.reseed_every_epochs as u64);
        Some(out)
    }
}

/// The paper's pure static model as its own policy, only expressible
/// through the [`Strategy`] trait: place once — the extended-nibble
/// placement of the first epoch's traffic — and never re-optimize. No
/// boundary machinery at all: migration traffic is identically zero, so
/// any congestion it saves over [`PeriodicStatic`] is pure placement
/// quality and any congestion it loses is staleness.
///
/// On fault-free runs it is behaviourally equal to
/// `periodic-static(inf)` (pinned by the test suite), but implemented
/// directly against the trait in ~40 lines — the proof that the boundary
/// carries a whole policy. Under an outage the two differ: a changed
/// outage set makes [`PeriodicStatic`] re-place whatever its period,
/// while this policy only heals.
#[derive(Debug, Clone)]
pub struct FrozenStatic {
    core: StaticCore,
    kernel: PlacementKernel,
    /// Migration charge unit `D` (for outage repair fetches — the only
    /// migration this policy ever performs).
    threshold: u64,
}

impl FrozenStatic {
    /// A frozen-static strategy on `net` for `max_objects` objects.
    ///
    /// ```
    /// use hbn_scenario::{ExecutionConfig, FrozenStatic, Strategy};
    /// use hbn_topology::generators::star;
    ///
    /// let net = star(4, 2);
    /// let strategy = FrozenStatic::new(&net, &ExecutionConfig::default(), 8);
    /// assert_eq!(strategy.label(), "frozen-static");
    /// ```
    pub fn new(net: &Network, exec: &ExecutionConfig, max_objects: usize) -> FrozenStatic {
        FrozenStatic {
            core: StaticCore::new(net, max_objects),
            kernel: PlacementKernel::new(net),
            threshold: exec.threshold,
        }
    }
}

impl Strategy for FrozenStatic {
    fn label(&self) -> String {
        "frozen-static".into()
    }

    fn begin_epoch(
        &mut self,
        net: &Network,
        _epoch_idx: usize,
        _observed: &AccessMatrix,
        faults: &FaultView,
    ) {
        // Frozen means no re-optimization, not no survival: a bus outage
        // still evicts stranded copies and re-homes dead sets.
        self.core.heal(net, faults, self.threshold);
    }

    fn serve_batch(&mut self, net: &Network, trace: &[OnlineRequest], epoch_matrix: &AccessMatrix) {
        self.core.serve_batch(net, &mut self.kernel, trace, epoch_matrix);
    }

    fn charge_service(&mut self, placement_loads: &LoadMap) {
        self.core.loads.add_assign(placement_loads);
    }

    fn copy_set(&self, x: ObjectId) -> &[NodeId] {
        self.core.copies.copies(x)
    }

    fn add_loads_to(&self, out: &mut LoadMap) {
        out.add_assign(&self.core.loads);
    }

    fn stats(&self) -> DynamicStats {
        self.core.stats
    }

    fn adopt(&mut self, _net: &Network, prior: &dyn Strategy, max_objects: usize) {
        self.core.adopt(max_objects, |x| prior.copy_set(x));
    }

    fn durable(&self) -> Option<Vec<u8>> {
        let mut out = vec![TAG_FROZEN_STATIC];
        put_static_core(&mut out, &self.core);
        put_u64(&mut out, self.threshold);
        Some(out)
    }
}

/// A regime-switching policy only expressible through the [`Strategy`]
/// trait: serve online (dynamic read-replicate / write-collapse) while
/// the workload is read-dominated, and swap to a static placement the
/// moment the *observed* write fraction crosses a bound — writes are
/// what make replication expensive, so a write-heavy regime is exactly
/// where the collapse-free static model wins.
///
/// The switch happens at most once, at the start of the first epoch
/// `e ≥ min_epochs` (`e > 0`) whose observed write fraction
/// (`writes / (reads + writes)` over everything served so far) is at
/// least `write_bound`: the batch kernel re-places from the observed
/// aggregate and the copy-set delta is charged from the dynamic replica
/// sets at `D` per edge crossed ([`charged_migration`]); afterwards the
/// policy is a frozen static placement.
#[derive(Debug, Clone)]
pub struct ThresholdSwitch {
    dynamic: DynamicTree,
    core: StaticCore,
    kernel: PlacementKernel,
    threshold: u64,
    write_bound: f64,
    min_epochs: usize,
    switched: bool,
}

impl ThresholdSwitch {
    /// A threshold-switch strategy: dynamic until the observed write
    /// fraction reaches `write_bound` at an epoch boundary
    /// `e ≥ min_epochs`, static from then on. `write_bound = 0.0` with
    /// `min_epochs = k` forces the switch at exactly epoch `k` (useful
    /// as a deterministic regime change; the swap-identity tests pin it
    /// against [`crate::Session::swap_strategy`]).
    ///
    /// ```
    /// use hbn_scenario::{ExecutionConfig, Strategy, ThresholdSwitch};
    /// use hbn_topology::generators::star;
    ///
    /// let net = star(4, 2);
    /// let strategy = ThresholdSwitch::new(&net, &ExecutionConfig::default(), 8, 0.3, 2);
    /// assert_eq!(strategy.label(), "threshold-switch(w>=0.30,after=2)");
    /// ```
    pub fn new(
        net: &Network,
        exec: &ExecutionConfig,
        max_objects: usize,
        write_bound: f64,
        min_epochs: usize,
    ) -> ThresholdSwitch {
        ThresholdSwitch {
            dynamic: dyn_kernel(net, exec, max_objects),
            core: StaticCore::new(net, max_objects),
            kernel: PlacementKernel::new(net),
            threshold: exec.threshold,
            write_bound,
            min_epochs,
            switched: false,
        }
    }
}

impl Strategy for ThresholdSwitch {
    fn label(&self) -> String {
        format!("threshold-switch(w>={:.2},after={})", self.write_bound, self.min_epochs)
    }

    fn begin_epoch(
        &mut self,
        net: &Network,
        epoch_idx: usize,
        observed: &AccessMatrix,
        faults: &FaultView,
    ) {
        if self.switched {
            self.core.heal(net, faults, self.threshold);
        } else {
            // Pre-switch healing charges into the static core's
            // accumulators — both are unconditionally merged into the
            // reported loads and stats.
            let (loads, stats) = (&mut self.core.loads, &mut self.core.stats);
            heal(&mut self.dynamic, net, faults, Harbor::Ancestor, self.threshold, loads, stats);
        }
        if self.switched || epoch_idx == 0 || epoch_idx < self.min_epochs {
            return;
        }
        let s = self.dynamic.stats();
        let total = s.reads + s.writes;
        if total == 0 || (s.writes as f64 / total as f64) < self.write_bound {
            return;
        }
        // Switch: inherit the dynamic replica sets, then refit to the
        // optimized placement of the observed aggregate, charging the
        // delta from those sets — the same sequence a mid-run
        // `swap_strategy` into a `PeriodicStatic` performs.
        let dynamic = &self.dynamic;
        self.core.adopt(self.core.copies.n_objects(), |x| dynamic.replicas(x));
        let placement = self.kernel.place(net, observed).expect("threshold switch refit failed");
        self.core.refit(net, observed, placement, self.threshold);
        self.switched = true;
    }

    fn serve_batch(&mut self, net: &Network, trace: &[OnlineRequest], epoch_matrix: &AccessMatrix) {
        if self.switched {
            self.core.serve_batch(net, &mut self.kernel, trace, epoch_matrix);
        } else {
            self.dynamic.serve_trace(net, trace);
        }
    }

    fn charge_service(&mut self, placement_loads: &LoadMap) {
        if self.switched {
            self.core.loads.add_assign(placement_loads);
        }
    }

    fn copy_set(&self, x: ObjectId) -> &[NodeId] {
        if self.switched {
            self.core.copies.copies(x)
        } else {
            self.dynamic.replicas(x)
        }
    }

    fn add_loads_to(&self, out: &mut LoadMap) {
        out.add_assign(self.dynamic.loads());
        out.add_assign(&self.core.loads);
    }

    fn stats(&self) -> DynamicStats {
        self.dynamic.stats().merge(self.core.stats)
    }

    fn adopt(&mut self, net: &Network, prior: &dyn Strategy, max_objects: usize) {
        adopt_dynamic(&mut self.dynamic, net, prior, max_objects);
    }

    fn durable(&self) -> Option<Vec<u8>> {
        let mut out = vec![TAG_THRESHOLD_SWITCH];
        put_dyn_kernel(&mut out, &self.dynamic);
        put_static_core(&mut out, &self.core);
        put_u64(&mut out, self.threshold);
        put_f64(&mut out, self.write_bound);
        put_u64(&mut out, self.min_epochs as u64);
        put_u8(&mut out, self.switched as u8);
        Some(out)
    }
}

impl StrategyKind {
    /// Build the public strategy struct this kind names — the thin
    /// constructor layer that keeps the matrix-friendly enum working on
    /// top of the open [`Strategy`] trait.
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
        match *self {
            StrategyKind::Dynamic => Box::new(DynamicStrategy::new(net, exec, max_objects)),
            StrategyKind::PeriodicStatic { replace_every_epochs } => {
                Box::new(PeriodicStatic::new(net, exec, max_objects, replace_every_epochs))
            }
            StrategyKind::Hybrid { reseed_every_epochs } => {
                Box::new(HybridReseed::new(net, exec, max_objects, reseed_every_epochs))
            }
        }
    }
}

// --- durable strategy codec -------------------------------------------
//
// Tag byte + policy state. Which serve kernel backs a dynamic policy is
// *not* encoded — it is an execution detail reconstructed from
// `exec.serve`, which the spec fingerprint pins to the saved run.

const TAG_DYNAMIC: u8 = 1;
const TAG_PERIODIC_STATIC: u8 = 2;
const TAG_HYBRID: u8 = 3;
const TAG_FROZEN_STATIC: u8 = 4;
const TAG_THRESHOLD_SWITCH: u8 = 5;

fn put_dyn_kernel(out: &mut Vec<u8>, kernel: &DynamicTree) {
    let n = kernel.n_objects();
    put_u64(out, n as u64);
    for i in 0..n {
        let x = ObjectId(i as u32);
        match kernel.export_object(x) {
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
    put_loads(out, kernel.loads());
    put_stats(out, kernel.stats());
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

fn read_dyn_kernel(
    dec: &mut Dec<'_>,
    net: &Network,
    exec: &ExecutionConfig,
    max_objects: usize,
) -> Result<DynamicTree, String> {
    let n = dec.u64()? as usize;
    if n != max_objects {
        return Err(format!("kernel of {n} objects, expected {max_objects}"));
    }
    let mut kernel = dyn_kernel(net, exec, max_objects);
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
        kernel.restore_object(net, x, &replicas, &counters);
    }
    let loads = dec.loads(net)?;
    let stats = dec.stats()?;
    kernel.restore_accounting(loads, stats);
    Ok(kernel)
}

fn put_static_core(out: &mut Vec<u8>, core: &StaticCore) {
    put_u8(out, core.placed as u8);
    put_stats(out, core.stats);
    put_loads(out, &core.loads);
    let n = core.copies.n_objects();
    put_u64(out, n as u64);
    for i in 0..n {
        put_nodes(out, core.copies.copies(ObjectId(i as u32)));
    }
}

fn read_static_core(
    dec: &mut Dec<'_>,
    net: &Network,
    max_objects: usize,
) -> Result<StaticCore, String> {
    let placed = match dec.u8()? {
        0 => false,
        1 => true,
        b => return Err(format!("bad placed flag {b}")),
    };
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
    Ok(StaticCore { copies, loads, stats, placed })
}

/// Rebuild a built-in strategy from its [`Strategy::durable`] bytes.
/// `exec` must be the execution config of the saved run (the spec
/// fingerprint guarantees this for disk restores).
pub(crate) fn strategy_from_durable(
    net: &Network,
    exec: &ExecutionConfig,
    max_objects: usize,
    bytes: &[u8],
) -> Result<Box<dyn Strategy>, String> {
    let mut dec = Dec::new(bytes);
    let strategy: Box<dyn Strategy> = match dec.u8()? {
        TAG_DYNAMIC => {
            let kernel = read_dyn_kernel(&mut dec, net, exec, max_objects)?;
            let heal_loads = dec.loads(net)?;
            let heal_stats = dec.stats()?;
            Box::new(DynamicStrategy { kernel, threshold: exec.threshold, heal_loads, heal_stats })
        }
        TAG_PERIODIC_STATIC => {
            let core = read_static_core(&mut dec, net, max_objects)?;
            let threshold = dec.u64()?;
            let replace_every_epochs = dec.u64()? as usize;
            let first_fire = match dec.u8()? {
                0 => None,
                1 => Some(dec.u64()? as usize),
                b => return Err(format!("bad first-fire flag {b}")),
            };
            Box::new(PeriodicStatic {
                core,
                kernel: PlacementKernel::new(net),
                threshold,
                replace_every_epochs,
                first_fire,
            })
        }
        TAG_HYBRID => {
            let dynamic = read_dyn_kernel(&mut dec, net, exec, max_objects)?;
            let migration_loads = dec.loads(net)?;
            let seed_stats = dec.stats()?;
            let threshold = dec.u64()?;
            let reseed_every_epochs = dec.u64()? as usize;
            Box::new(HybridReseed {
                dynamic,
                kernel: PlacementKernel::new(net),
                migration_loads,
                seed_stats,
                threshold,
                reseed_every_epochs,
            })
        }
        TAG_FROZEN_STATIC => {
            let core = read_static_core(&mut dec, net, max_objects)?;
            let threshold = dec.u64()?;
            Box::new(FrozenStatic { core, kernel: PlacementKernel::new(net), threshold })
        }
        TAG_THRESHOLD_SWITCH => {
            let dynamic = read_dyn_kernel(&mut dec, net, exec, max_objects)?;
            let core = read_static_core(&mut dec, net, max_objects)?;
            let threshold = dec.u64()?;
            let write_bound = dec.f64()?;
            let min_epochs = dec.u64()? as usize;
            let switched = match dec.u8()? {
                0 => false,
                1 => true,
                b => return Err(format!("bad switched flag {b}")),
            };
            Box::new(ThresholdSwitch {
                dynamic,
                core,
                kernel: PlacementKernel::new(net),
                threshold,
                write_bound,
                min_epochs,
                switched,
            })
        }
        tag => return Err(format!("unknown strategy tag {tag}")),
    };
    dec.finish()?;
    Ok(strategy)
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

    /// The one firing cadence as each re-placing policy reads it: the
    /// epochs below 10 at which it fires.
    #[test]
    fn firing_cadences() {
        let net = TopologyFamily::Star { processors: 4, bus_bandwidth: 2 }.build();
        let exec = ExecutionConfig::default();
        let periodic = |every| PeriodicStatic::new(&net, &exec, 1, every);
        let first_fire =
            |first, every| PeriodicStatic::with_first_fire(&net, &exec, 1, first, every);
        let hybrid = |every| HybridReseed::new(&net, &exec, 1, every);
        let firing =
            |fires: &dyn Fn(usize) -> bool| (0..10).filter(|&e| fires(e)).collect::<Vec<_>>();
        assert_eq!(firing(&|e| periodic(3).fires(e)), [3, 6, 9]);
        assert_eq!(firing(&|e| periodic(0).fires(e)), []);
        assert_eq!(firing(&|e| first_fire(4, 3).fires(e)), [4, 7]);
        assert_eq!(firing(&|e| first_fire(4, 0).fires(e)), [4]);
        assert_eq!(firing(&|e| hybrid(3).fires(e)), [3, 6, 9]);
        assert_eq!(firing(&|e| hybrid(0).fires(e)), [1]);
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
}
