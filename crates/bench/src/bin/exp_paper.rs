//! The paper's claims as numbers: EXP-NIB … EXP-SIM of DESIGN.md §8, one
//! function per experiment.
//!
//! Each experiment yields rows of `(experiment, claim, instance,
//! measured, bound, holds)`. A *gated* row carries a bound that the paper
//! states, or that an `hbn-*` test already asserts, and whether the
//! measured value keeps it; the `claim` text states the relation. A
//! *reported* row is a measurement with no stated bound, or one that holds
//! by construction: its `bound` and `holds` are `null`.
//!
//! Prints one table per experiment and writes every row to
//! `BENCH_paper.json`. Then, if any gated row fails, prints every failing
//! row on stderr and exits 1. The whole run takes well under a second.

#![warn(missing_docs)]

use hbn_baselines::{
    ExtendedNibbleStrategy, GreedyCongestion, LocalSearch, OwnerLeaf, RandomLeaf, Strategy,
    UnrestrictedNibble,
};
use hbn_bench::{fatal, measure, write_bench, Obj, Table};
use hbn_core::{
    approximation_certificate, delete_rarely_used, nibble_object, nibble_placement,
    observation_3_3_holds, ExtendedNibble, InvariantForm, MappingOptions, PlacementKernel,
    Workspace,
};
use hbn_distributed::{distributed_nibble, distributed_schedule};
use hbn_dynamic::{run_competitive, OnlineRequest};
use hbn_exact::{
    encode_partition, min_edge_loads_exhaustive, no_instance, optimal_nonredundant,
    optimal_redundant_nearest, yes_instance, PartitionInstance,
};
use hbn_load::{LoadMap, Placement};
use hbn_sim::{expand_shuffled, simulate_with, SimConfig, SimWorkspace};
use hbn_testutil::seeded_rng;
use hbn_topology::generators::{balanced, bus_path, random_network, star, BandwidthProfile};
use hbn_topology::sci::{ring_of_rings, RingId};
use hbn_topology::{Network, NodeId};
use hbn_workload::generators as wgen;
use hbn_workload::{AccessMatrix, ObjectId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Theorem 4.3: extended-nibble congestion is at most this factor times
/// the optimum.
const APPROX_FACTOR: f64 = 7.0;
/// Observation 3.2: deletion at most doubles any edge's nibble load.
const DELETION_FACTOR: f64 = 2.0;
/// The competitive ratio cited for the online strategy on trees (\[10\]).
const ONLINE_FACTOR: f64 = 3.0;
/// EXP-SEQ: timed runs per figure, after one warm-up run.
const SEQ_REPEATS: usize = 9;

/// One claim checked on one instance.
#[derive(Debug)]
struct Row {
    experiment: &'static str,
    claim: String,
    instance: String,
    measured: f64,
    /// `None` on a reported row.
    bound: Option<f64>,
    /// Whether `measured` keeps the claim's relation to `bound`; `None`
    /// on a reported row.
    holds: Option<bool>,
}

impl Row {
    fn violated(&self) -> bool {
        self.holds == Some(false)
    }
}

/// The rows of one experiment.
struct Rows {
    experiment: &'static str,
    rows: Vec<Row>,
}

impl Rows {
    fn new(experiment: &'static str) -> Self {
        Rows { experiment, rows: Vec::new() }
    }

    fn push(&mut self, claim: &str, instance: &str, measured: f64, gate: Option<(f64, bool)>) {
        self.rows.push(Row {
            experiment: self.experiment,
            claim: claim.to_string(),
            instance: instance.to_string(),
            measured,
            bound: gate.map(|(bound, _)| bound),
            holds: gate.map(|(_, holds)| holds),
        });
    }

    /// A gated row whose `holds` the caller decides.
    fn gate(&mut self, claim: &str, instance: &str, measured: f64, bound: f64, holds: bool) {
        self.push(claim, instance, measured, Some((bound, holds)));
    }

    /// A gated row: `measured <= bound`.
    fn at_most(&mut self, claim: &str, instance: &str, measured: f64, bound: f64) {
        self.gate(claim, instance, measured, bound, measured <= bound);
    }

    /// A gated row: `measured >= bound`.
    fn at_least(&mut self, claim: &str, instance: &str, measured: f64, bound: f64) {
        self.gate(claim, instance, measured, bound, measured >= bound);
    }

    /// A gated row: `property` held on `holding` of `evaluated` instances,
    /// and must hold on every one.
    fn on_every(&mut self, property: &str, instance: &str, holding: usize, evaluated: usize) {
        let claim = format!("{property} on every instance");
        self.at_least(&claim, instance, holding as f64, evaluated as f64);
    }

    /// A reported row: no bound.
    fn report(&mut self, claim: &str, instance: &str, measured: f64) {
        self.push(claim, instance, measured, None);
    }
}

/// EXP-NIB (Theorem 3.1): the nibble placement attains the exhaustive
/// per-edge minimum on every edge at once, its copies form a connected
/// subgraph, and per-object edge loads never exceed κ_x.
fn nibble_optimality(rows: &mut Rows) {
    let mut rng = StdRng::seed_from_u64(2);
    let net = star(4, 10);
    let (mut evaluated, mut matches) = (0, 0);
    for _ in 0..50 {
        let mut m = AccessMatrix::new(1);
        for &p in net.processors() {
            if rng.gen_bool(0.8) {
                m.add(p, ObjectId(0), rng.gen_range(0..5), rng.gen_range(0..4));
            }
        }
        if m.total_weight(ObjectId(0)) == 0 {
            continue;
        }
        evaluated += 1;
        let minima = min_edge_loads_exhaustive(&net, &m, ObjectId(0));
        let loads = LoadMap::from_placement(&net, &m, &nibble_placement(&net, &m));
        matches += usize::from(net.edges().all(|e| loads.edge_load(e) == minima[e.index()]));
    }
    let property = "every per-edge minimum attained";
    rows.on_every(property, "50 random draws on star(4,10)", matches, evaluated);

    for size in [20usize, 50, 100] {
        let net = random_network(size / 3, size, BandwidthProfile::Uniform, &mut rng);
        let (mut evaluated, mut connected, mut bounded, mut interior) = (0, 0, 0, 0);
        for _ in 0..20 {
            let mut m = AccessMatrix::new(1);
            for &p in net.processors() {
                if rng.gen_bool(0.5) {
                    m.add(p, ObjectId(0), rng.gen_range(0..9), rng.gen_range(0..6));
                }
            }
            let x = ObjectId(0);
            if m.total_weight(x) == 0 {
                continue;
            }
            evaluated += 1;
            let kappa = m.write_contention(x);
            let mut ws = Workspace::new(net.n_nodes());
            let out = nibble_object(&net, &m, x, &mut ws);
            let nodes = out.copies.nodes();
            connected +=
                usize::from(nodes.iter().all(|&v| {
                    v == out.gravity || nodes.contains(&net.step_towards(v, out.gravity))
                }));
            let mut pl = Placement::new(1);
            hbn_core::nibble::apply_to_placement(&out.copies, &mut pl);
            let loads = LoadMap::from_placement(&net, &m, &pl);
            bounded += usize::from(net.edges().all(|e| loads.edge_load(e) <= kappa));
            interior += usize::from(net.edges().all(|e| {
                let (c, p) = net.edge_endpoints(e);
                !(nodes.contains(&c) && nodes.contains(&p)) || loads.edge_load(e) == kappa
            }));
        }
        let instance = format!("random network, {} nodes", net.n_nodes());
        rows.on_every("T(x) connected", &instance, connected, evaluated);
        rows.on_every("every edge load <= κ_x", &instance, bounded, evaluated);
        rows.on_every("every T(x) edge load == κ_x", &instance, interior, evaluated);
    }
}

/// EXP-DEL (Observation 3.2): after the deletion algorithm every copy
/// serves between κ_x and 2κ_x requests, and per-edge loads grow by at
/// most a factor of two over the nibble optimum.
fn deletion_bounds(rows: &mut Rows) {
    let mut rng = StdRng::seed_from_u64(3);
    for size in [15usize, 40, 80, 160] {
        let net = random_network(size / 3, size, BandwidthProfile::Uniform, &mut rng);
        let (mut evaluated, mut in_window) = (0, 0);
        let mut max_ratio: f64 = 0.0;
        let (mut deleted, mut splits) = (0, 0);
        for trial in 0..25 {
            let mut m = AccessMatrix::new(1);
            // Alternate dense write-heavy and sparse read-heavy workloads;
            // the sparse ones produce rarely-used copies that the deletion
            // algorithm must remove.
            for &p in net.processors() {
                if trial % 2 == 0 {
                    m.add(p, ObjectId(0), rng.gen_range(0..8), rng.gen_range(1..5));
                } else if rng.gen_bool(0.5) {
                    m.add(p, ObjectId(0), rng.gen_range(0..30), rng.gen_range(0..2));
                }
            }
            if m.total_weight(ObjectId(0)) == 0 {
                continue;
            }
            evaluated += 1;
            let x = ObjectId(0);
            let kappa = m.write_contention(x);
            let mut ws = Workspace::new(net.n_nodes());
            let nib = nibble_object(&net, &m, x, &mut ws);
            let mut nib_pl = Placement::new(1);
            hbn_core::nibble::apply_to_placement(&nib.copies, &mut nib_pl);
            let nib_loads = LoadMap::from_placement(&net, &m, &nib_pl);

            let del = delete_rarely_used(&net, nib.gravity, nib.copies);
            deleted += del.deleted;
            splits += del.splits;
            // Read-only objects (κ = 0) have an empty window; the
            // algorithm keeps exactly the serving copies.
            in_window += usize::from(del.copies.copies.iter().all(|c| {
                if kappa > 0 {
                    c.served() >= kappa && c.served() <= 2 * kappa
                } else {
                    c.served() > 0
                }
            }));
            let mut del_pl = Placement::new(1);
            hbn_core::nibble::apply_to_placement(&del.copies, &mut del_pl);
            let del_loads = LoadMap::from_placement(&net, &m, &del_pl);
            for e in net.edges() {
                // An edge the nibble leaves unloaded but deletion loads
                // counts as an infinite ratio; 0/0 is NaN, which `max`
                // ignores.
                let ratio = del_loads.edge_load(e) as f64 / nib_loads.edge_load(e) as f64;
                max_ratio = max_ratio.max(ratio);
            }
        }
        let instance = format!("random network, {} nodes", net.n_nodes());
        rows.on_every("every copy serves [κ_x, 2κ_x]", &instance, in_window, evaluated);
        rows.at_most(
            &format!("max edge load / nibble edge load <= {DELETION_FACTOR}"),
            &instance,
            max_ratio,
            DELETION_FACTOR,
        );
        rows.report("copies deleted", &instance, deleted as f64);
        rows.report("copies split", &instance, splits as f64);
    }
}

/// EXP-MAP (Lemma 4.1, Invariant 4.2, Observation 3.3): the mapping
/// algorithm always finds a free edge under the *repaired* invariant
/// (DESIGN.md §2.2), and the paper's printed `2Σs(c)` form breaks on real
/// runs — the erratum, demonstrated.
fn mapping_invariants(rows: &mut Rows) {
    let mut rng = StdRng::seed_from_u64(4);
    let mut families: Vec<(&str, Vec<(Network, AccessMatrix)>)> = Vec::new();
    let random = (0..20)
        .map(|_| {
            let net = random_network(10, 24, BandwidthProfile::Uniform, &mut rng);
            let m = wgen::uniform(&net, 6, 5, 4, 0.7, &mut rng);
            (net, m)
        })
        .collect();
    families.push(("random", random));
    let shared = (0..10)
        .map(|_| {
            let net = balanced(3, 3, BandwidthProfile::Uniform);
            let m = wgen::shared_write(&net, 5, 1, 3);
            (net, m)
        })
        .collect();
    families.push(("shared-write", shared));
    let deep = (0..10)
        .map(|_| {
            let net = bus_path(12, BandwidthProfile::Uniform);
            let m = wgen::uniform(&net, 8, 5, 5, 1.0, &mut rng);
            (net, m)
        })
        .collect();
    families.push(("deep-path", deep));
    let split = (0..10)
        .map(|_| {
            let net = balanced(4, 2, BandwidthProfile::Uniform);
            let m = wgen::balanced_split(&net, 12, 6, &mut rng);
            (net, m)
        })
        .collect();
    families.push(("balanced-split", split));

    let strategy = |invariant_form| ExtendedNibble {
        mapping: MappingOptions { check_invariants: true, invariant_form },
    };
    let mut runs = 0;
    let mut violations = 0;
    for (name, instances) in &families {
        let (mut found, mut obs) = (0, 0);
        let (mut up, mut down, mut tau) = (0u64, 0u64, 0u64);
        for (net, m) in instances {
            if let Ok(out) = strategy(InvariantForm::Repaired).place(net, m) {
                found += 1;
                obs += usize::from(observation_3_3_holds(net, &out.mapping));
                up += out.mapping.moves_up;
                down += out.mapping.moves_down;
                tau = tau.max(out.mapping.tau_max);
            }
            runs += 1;
            violations +=
                usize::from(strategy(InvariantForm::PaperOriginal).place(net, m).is_err());
        }
        let (instance, n) = (format!("{name}, {} runs", instances.len()), instances.len());
        rows.on_every("free edge found (Lemma 4.1)", &instance, found, n);
        rows.on_every("Obs 3.3 holds after mapping", &instance, obs, n);
        rows.report("moves up", &instance, up as f64);
        rows.report("moves down", &instance, down as f64);
        rows.report("max τ", &instance, tau as f64);
    }
    rows.report(
        "runs violating the paper's printed Inv 4.2 (2·Σ s(c)): the erratum",
        &format!("all 4 families, {runs} runs"),
        violations as f64,
    );
}

/// EXP-APPROX (Theorem 4.3, Lemmas 4.4–4.6): congestion against the exact
/// optimum on tiny instances and against the certified lower bound
/// `max(C_nib, max_x min(κ_x, h_x/2))` on larger ones; Lemma 4.5
/// (`L(e) ≤ 4·L_nib(e) + τ_max`) and Lemma 4.6 (its bus analogue) on
/// every edge and bus.
fn approx_ratio(rows: &mut Rows) {
    let mut rng = StdRng::seed_from_u64(5);
    for i in 0..8 {
        let net = star(5, 4);
        let m = wgen::uniform(&net, 3, 5, 3, 0.8, &mut rng);
        let out = ExtendedNibble::new().place(&net, &m).expect("valid instance");
        let ext = LoadMap::from_placement(&net, &m, &out.placement).congestion(&net).congestion;
        let opt = optimal_redundant_nearest(&net, &m).congestion;
        let ratio = if opt.load == 0 { 1.0 } else { ext.as_f64() / opt.as_f64() };
        let instance = format!("star(5,4) #{i}");
        rows.at_most(
            &format!("C / C_opt (exact) <= {APPROX_FACTOR}"),
            &instance,
            ratio,
            APPROX_FACTOR,
        );
        rows.report("C (extended nibble)", &instance, ext.as_f64());
        rows.report("C_opt (exact)", &instance, opt.as_f64());
    }

    type Maker = Box<dyn FnMut(&Network, &mut StdRng) -> AccessMatrix>;
    let families: Vec<(&str, Maker)> = vec![
        ("uniform", Box::new(|n, r| wgen::uniform(n, 10, 6, 4, 0.6, r))),
        ("zipf-read", Box::new(|n, r| wgen::zipf_read_mostly(n, 16, 2000, 1.0, 0.1, r))),
        ("zipf-mixed", Box::new(|n, r| wgen::zipf_read_mostly(n, 16, 2000, 1.0, 0.5, r))),
        ("shared-write", Box::new(|n, _| wgen::shared_write(n, 6, 1, 2))),
        ("prod-cons", Box::new(|n, r| wgen::producer_consumer(n, 12, 4, 10, 6, r))),
        ("balanced-split", Box::new(|n, r| wgen::balanced_split(n, 12, 8, r))),
    ];
    let runs = 12;
    for (name, mut maker) in families {
        let mut ratios = Vec::new();
        let (mut l45, mut l46) = (0, 0);
        for _ in 0..runs {
            let net = random_network(12, 30, BandwidthProfile::Uniform, &mut rng);
            let m = maker(&net, &mut rng);
            let out = ExtendedNibble::new().place(&net, &m).expect("valid instance");
            let cert = approximation_certificate(&net, &m, &out);
            l45 += usize::from(cert.lemma_4_5_ok);
            l46 += usize::from(cert.lemma_4_6_ok);
            ratios.extend(cert.ratio);
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
        let max = ratios.iter().copied().fold(0.0f64, f64::max);
        let instance = format!("{name} on random(12,30), {} certified runs", ratios.len());
        rows.at_most(
            &format!("max C / lower bound <= {APPROX_FACTOR}"),
            &instance,
            max,
            APPROX_FACTOR,
        );
        rows.report("mean C / lower bound", &instance, mean);
        rows.on_every("Lemma 4.5 holds", &instance, l45, runs);
        rows.on_every("Lemma 4.6 holds", &instance, l46, runs);
    }
}

/// EXP-BASE (Section 1.2 context): congestion of the extended-nibble
/// strategy and the baselines, normalised by the unrestricted-nibble
/// lower bound.
fn baseline_comparison(rows: &mut Rows) {
    let net = balanced(3, 3, BandwidthProfile::Uniform);
    let mut rng = StdRng::seed_from_u64(10);
    type Maker = Box<dyn FnMut(&Network, &mut StdRng) -> AccessMatrix>;
    let families: Vec<(&str, Maker)> = vec![
        ("zipf-read", Box::new(|n, r| wgen::zipf_read_mostly(n, 24, 3000, 1.0, 0.05, r))),
        ("zipf-mixed", Box::new(|n, r| wgen::zipf_read_mostly(n, 24, 3000, 1.0, 0.4, r))),
        ("shared-write", Box::new(|n, _| wgen::shared_write(n, 8, 1, 2))),
        ("prod-cons", Box::new(|n, r| wgen::producer_consumer(n, 16, 5, 12, 6, r))),
        ("hotspot", Box::new(|n, r| wgen::hotspot(n, 16, 0.2, 8, 2, 1, r))),
    ];
    let strategies: Vec<Box<dyn Strategy>> = vec![
        Box::new(RandomLeaf::new(7)),
        Box::new(OwnerLeaf),
        Box::new(GreedyCongestion),
        Box::new(LocalSearch::around(OwnerLeaf, 400)),
        Box::new(ExtendedNibbleStrategy),
    ];
    for (name, mut maker) in families {
        let m = maker(&net, &mut rng);
        let lb = LoadMap::from_placement(&net, &m, &UnrestrictedNibble.place(&net, &m))
            .congestion(&net)
            .congestion;
        let instance = format!("{name} on balanced(3,3)");
        rows.report("LB: unrestricted-nibble congestion", &instance, lb.as_f64());
        for s in &strategies {
            let c =
                LoadMap::from_placement(&net, &m, &s.place(&net, &m)).congestion(&net).congestion;
            rows.report(&format!("C({}) / LB", s.name()), &instance, c.as_f64() / lb.as_f64());
        }
    }
}

/// EXP-NP (Theorem 2.1, Figure 3): the PARTITION reduction decides
/// correctly in both directions; the exact solver's search cost grows
/// exponentially with the instance size.
fn np_hardness(rows: &mut Rows) {
    let mut rng = StdRng::seed_from_u64(1);
    let trials = 40;
    let mut agree = 0;
    for _ in 0..trials {
        let n = rng.gen_range(2..7);
        let mut items: Vec<u64> = (0..n).map(|_| rng.gen_range(1..12)).collect();
        if items.iter().sum::<u64>() % 2 == 1 {
            items.push(1);
        }
        let inst = PartitionInstance::new(items).expect("even");
        let red = encode_partition(&inst);
        agree += usize::from(inst.is_yes() == red.decide_exactly());
    }
    rows.on_every("decision agrees with PARTITION", "random instances", agree, trials);

    for n in 2..=9 {
        let half: Vec<u64> = (1..=n as u64 / 2 + 1).collect();
        for (kind, inst) in [("yes", yes_instance(&half)), ("no", no_instance(n))] {
            let red = encode_partition(&inst);
            let sol = optimal_nonredundant(&red.net, &red.matrix);
            let correct = (sol.congestion <= red.threshold) == (kind == "yes");
            let instance = format!("{kind}-instance, {} items, k={}", inst.items().len(), red.k);
            let claim = format!("decides {kind} (1 = correct) >= 1");
            rows.at_least(&claim, &instance, f64::from(u8::from(correct)), 1.0);
            rows.report("branch-and-bound nodes", &instance, sol.nodes_explored as f64);
        }
    }
}

/// EXP-SEQ (Theorem 4.3, runtime): CPU time of the extended-nibble
/// strategy against `O(|X| · |V| · height(T) · log(degree(T)))` —
/// linear in `|X|`, far below linear in `|V|` (steps 1–2 touch only each
/// object's support; only the mapping phase scans the network), growing
/// with height.
///
/// Each instance gets two rows: the production [`PlacementKernel`], one
/// kernel reused across the repeats as the re-placing policies reuse it,
/// and the full-outcome `ExtendedNibble::place` reference. Each is the
/// median thread CPU of [`SEQ_REPEATS`] runs after one warm-up run
/// ([`measure()`]).
fn runtime_scaling(rows: &mut Rows) {
    let mut time = |instance: String, net: &Network, m: &AccessMatrix| {
        let mut kernel = PlacementKernel::new(net);
        let (_, production) =
            measure(1, SEQ_REPEATS, || kernel.place(net, m).expect("valid instance"));
        let (_, reference) = measure(1, SEQ_REPEATS, || {
            ExtendedNibble::new().place(net, m).expect("valid instance")
        });
        rows.report("kernel placement CPU (ms, median)", &instance, production.cpu_median * 1e3);
        rows.report("reference placement CPU (ms, median)", &instance, reference.cpu_median * 1e3);
    };
    let mut rng = StdRng::seed_from_u64(6);
    let net = balanced(4, 3, BandwidthProfile::Uniform);
    for objects in [50usize, 100, 200, 400, 800] {
        let m = wgen::zipf_read_mostly(&net, objects, objects * 40, 0.9, 0.3, &mut rng);
        time(format!("balanced(4,3), |X| {objects}"), &net, &m);
    }
    for branching in [2usize, 3, 4, 5, 6] {
        let net = balanced(branching, 3, BandwidthProfile::Uniform);
        let m = wgen::zipf_read_mostly(&net, 100, 4000, 0.9, 0.3, &mut rng);
        let instance =
            format!("balanced({branching},3), |V| {}, height {}", net.n_nodes(), net.height());
        time(instance, &net, &m);
    }
    for buses in [8usize, 16, 32, 64] {
        let net = bus_path(buses, BandwidthProfile::Uniform);
        let m = wgen::uniform(&net, 200, 6, 4, 1.0, &mut rng);
        let instance = format!("bus path, height {}, |V| {}", net.height(), net.n_nodes());
        time(instance, &net, &m);
    }
}

/// EXP-DIST (Section 5): the distributed nibble protocol completes in
/// `O(|X| + height)` pipelined rounds — at most `active |X| +
/// 4·(height+1) + 4`, the bound `hbn_distributed`'s tests assert — and
/// the full distributed schedule's per-phase accounting.
fn distributed_rounds(rows: &mut Rows) {
    let claim = "nibble rounds <= active |X| + 4·(height+1) + 4";
    let round_bound = |net: &Network, m: &AccessMatrix| {
        let active = m.objects().filter(|&x| m.total_weight(x) > 0).count() as u64;
        (active, (active + 4 * (u64::from(net.height()) + 1) + 4) as f64)
    };
    let mut rng = StdRng::seed_from_u64(7);
    let net = balanced(3, 3, BandwidthProfile::Uniform);
    for objects in [1usize, 8, 32, 128] {
        let m = wgen::uniform(&net, objects, 4, 3, 0.8, &mut rng);
        let (active, bound) = round_bound(&net, &m);
        let d = distributed_nibble(&net, &m);
        let instance = format!("balanced(3,3), active |X| {active}");
        rows.at_most(claim, &instance, d.stats.rounds as f64, bound);
        rows.report("nibble messages", &instance, d.stats.messages as f64);
    }
    for buses in [4usize, 8, 16, 32] {
        let net = bus_path(buses, BandwidthProfile::Uniform);
        let m = wgen::uniform(&net, 16, 4, 3, 1.0, &mut rng);
        let (active, bound) = round_bound(&net, &m);
        let d = distributed_nibble(&net, &m);
        let instance = format!(
            "bus path, height {}, |V| {}, active |X| {active}",
            net.height(),
            net.n_nodes()
        );
        rows.at_most(claim, &instance, d.stats.rounds as f64, bound);
    }
    for (name, net) in [
        ("balanced(3,3)", balanced(3, 3, BandwidthProfile::Uniform)),
        ("balanced(4,2)", balanced(4, 2, BandwidthProfile::Uniform)),
        ("bus path 16", bus_path(16, BandwidthProfile::Uniform)),
    ] {
        let m = wgen::shared_write(&net, 12, 1, 2);
        let (active, bound) = round_bound(&net, &m);
        let (_, cost) = distributed_schedule(&net, &m);
        let instance = format!("{name}, shared-write, active |X| {active}");
        rows.at_most(claim, &instance, cost.nibble_rounds as f64, bound);
        rows.report("deletion rounds", &instance, cost.deletion_rounds as f64);
        rows.report(
            "mapping rounds (2·height when any copy maps)",
            &instance,
            cost.mapping_rounds as f64,
        );
        rows.report("mapping work", &instance, cost.mapping_work as f64);
    }
}

/// EXP-DYN (Section 1.3, related work \[10\]): the online read-replicate /
/// write-collapse strategy against the hindsight nibble optimum. The
/// cited ratio of 3 on trees is for unit-size objects, `D = 1`; at larger
/// `D` the online player pays `D` per edge for copies the hindsight
/// placement gets free, so those rows overstate the true ratio and are
/// reported only.
fn dynamic_competitive(rows: &mut Rows) {
    fn sequence(
        procs: &[NodeId],
        n_objects: usize,
        len: usize,
        write_frac: f64,
        locality: f64,
        rng: &mut StdRng,
    ) -> Vec<OnlineRequest> {
        // Each object gets a "home" processor; with probability
        // `locality` a request comes from the home, otherwise from a
        // uniform processor.
        let homes: Vec<usize> = (0..n_objects).map(|_| rng.gen_range(0..procs.len())).collect();
        (0..len)
            .map(|_| {
                let x = rng.gen_range(0..n_objects);
                let p = if rng.gen_bool(locality) {
                    procs[homes[x]]
                } else {
                    procs[rng.gen_range(0..procs.len())]
                };
                OnlineRequest {
                    processor: p,
                    object: ObjectId(x as u32),
                    is_write: rng.gen_bool(write_frac),
                }
            })
            .collect()
    }
    let net = balanced(3, 2, BandwidthProfile::Uniform);
    let mut rng = seeded_rng(11);
    for (mix, write_frac, locality) in [
        ("read-heavy", 0.02, 0.0),
        ("mixed", 0.30, 0.0),
        ("write-heavy", 0.80, 0.0),
        ("local mixed", 0.30, 0.8),
        ("ping-pong-ish", 0.50, 0.0),
    ] {
        for d in [1u64, 3, 8] {
            let reqs = sequence(net.processors(), 8, 4000, write_frac, locality, &mut rng);
            let rep = run_competitive(&net, 8, &reqs, d);
            let instance = format!("{mix}, D={d}");
            let ratio = rep.ratio.unwrap_or(f64::NAN);
            if d == 1 {
                let claim = format!("online / hindsight congestion <= {ONLINE_FACTOR}");
                rows.at_most(&claim, &instance, ratio, ONLINE_FACTOR);
            } else {
                rows.report("online / hindsight congestion", &instance, ratio);
            }
            rows.report("online congestion", &instance, rep.online.as_f64());
            rows.report("hindsight congestion", &instance, rep.hindsight.as_f64());
            rows.report("replications", &instance, rep.stats.replications as f64);
            rows.report("collapses", &instance, rep.stats.collapses as f64);
        }
    }
}

/// EXP-SCI (Figures 1–2): a request-response transaction loads every
/// segment of a unidirectional ringlet once — exactly the bus load of the
/// converted network, so the reduction to bus trees preserves congestion.
fn sci_conversion(rows: &mut Rows) {
    let rings = ring_of_rings(4, 5, 16, 4);
    let conv = rings.to_bus_network().expect("valid ring network");
    let net = &conv.network;
    rows.report(
        "buses after conversion",
        &format!(
            "ring_of_rings(4,5,16,4): {} ringlets, {} processors, height {}",
            rings.n_rings(),
            net.n_processors(),
            net.height()
        ),
        net.n_buses() as f64,
    );
    let mut rng = StdRng::seed_from_u64(8);
    let m = wgen::producer_consumer(net, 24, 4, 12, 6, &mut rng);
    let out = ExtendedNibble::new().place(net, &m).expect("valid instance");
    let loads = LoadMap::from_placement(net, &m, &out.placement);
    for (ri, ring) in rings.rings().iter().enumerate() {
        // The bus load (half the sum of incident switch loads) is the
        // number of transactions traversing the ring.
        let transactions = loads.bus_load_x2(net, conv.bus_of_ring[ri]) / 2;
        let seg = rings.segment_loads(RingId(ri as u32), transactions);
        rows.gate(
            "every segment load == transactions",
            &format!("ring {ri}, {} segments", ring.slots.len()),
            seg.first().copied().unwrap_or(0) as f64,
            transactions as f64,
            seg.iter().all(|&s| s == transactions),
        );
    }
}

/// EXP-SIM (Section 1, ref \[8\]): identical traffic replayed under
/// placements of different congestion — execution time tracks the
/// congestion of the data management strategy. (The replay kernel's own
/// throughput is EXP-REPLAY, `exp_replay_scaling`.)
fn makespan_vs_congestion(rows: &mut Rows) {
    let net = balanced(3, 3, BandwidthProfile::Uniform);
    let mut rng = StdRng::seed_from_u64(9);
    let m = wgen::zipf_read_mostly(&net, 32, 4000, 0.9, 0.25, &mut rng);
    let trace = expand_shuffled(&m, &mut rng);
    let placements: Vec<(&str, Placement)> = vec![
        ("single-leaf", Placement::single_leaf(&net, &m, |_| net.processors()[0])),
        ("random-leaf", RandomLeaf::new(3).place(&net, &m)),
        ("owner-leaf", OwnerLeaf.place(&net, &m)),
        ("greedy", GreedyCongestion.place(&net, &m)),
        ("extended-nibble", ExtendedNibbleStrategy.place(&net, &m)),
    ];
    let mut ws = SimWorkspace::new();
    let mut points = Vec::new();
    for (name, placement) in &placements {
        let sim = simulate_with(&mut ws, &net, &m, placement, &trace, SimConfig::default())
            .expect("full replay is always routable");
        let congestion = LoadMap::from_placement(&net, &m, placement).congestion(&net).congestion;
        let instance = format!("{name} on balanced(3,3)");
        rows.at_least(
            "makespan >= congestion",
            &instance,
            sim.makespan as f64,
            congestion.as_f64(),
        );
        rows.report("mean latency (slots)", &instance, sim.mean_latency);
        rows.report("p99 latency (slots)", &instance, sim.p99_latency as f64);
        points.push((congestion.as_f64(), sim.makespan as f64));
    }
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let cov = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>();
    let sx = points.iter().map(|p| (p.0 - mx).powi(2)).sum::<f64>().sqrt();
    let sy = points.iter().map(|p| (p.1 - my).powi(2)).sum::<f64>().sqrt();
    rows.report(
        "Pearson correlation of congestion and makespan",
        &format!("{} placements", points.len()),
        cov / (sx * sy),
    );
}

fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

fn main() {
    type Experiment = fn(&mut Rows);
    let experiments: [(&str, &str, Experiment); 11] = [
        ("EXP-NIB", "Theorem 3.1: per-edge optimality of the nibble placement", nibble_optimality),
        ("EXP-DEL", "Observation 3.2: the deletion algorithm's bounds", deletion_bounds),
        ("EXP-MAP", "Lemma 4.1 / Invariant 4.2 / Observation 3.3", mapping_invariants),
        ("EXP-APPROX", "Theorem 4.3: congestion within 7x of optimal", approx_ratio),
        ("EXP-BASE", "strategies against the unrestricted-nibble lower bound", baseline_comparison),
        ("EXP-NP", "Theorem 2.1: PARTITION <=p placement on the 4-ary star", np_hardness),
        ("EXP-SEQ", "sequential runtime of the extended-nibble strategy", runtime_scaling),
        ("EXP-DIST", "Section 5: distributed execution rounds", distributed_rounds),
        ("EXP-DYN", "online strategy vs hindsight nibble (cited ratio: 3)", dynamic_competitive),
        ("EXP-SCI", "Figure 1 (ring of rings) -> Figure 2 (bus network)", sci_conversion),
        ("EXP-SIM", "makespan vs congestion (ref [8])", makespan_vs_congestion),
    ];
    let mut all = Vec::new();
    for (id, title, run) in experiments {
        let mut rows = Rows::new(id);
        run(&mut rows);
        let mut t = Table::new(["claim", "instance", "measured", "bound", "holds"]);
        for r in &rows.rows {
            t.row([
                r.claim.clone(),
                r.instance.clone(),
                fmt_value(r.measured),
                r.bound.map_or("-".into(), fmt_value),
                r.holds.map_or("-", |h| if h { "yes" } else { "NO" }).to_string(),
            ]);
        }
        println!("{id} — {title}\n\n{}", t.render());
        all.extend(rows.rows);
    }

    let gated = all.iter().filter(|r| r.holds.is_some()).count();
    let violated: Vec<&Row> = all.iter().filter(|r| r.violated()).collect();
    let head = Obj::new()
        .raw("experiments", experiments.len())
        .raw("gated_rows", gated)
        .raw("violations", violated.len());
    let cells = all
        .iter()
        .map(|r| {
            Obj::new()
                .str("experiment", r.experiment)
                .str("claim", &r.claim)
                .str("instance", &r.instance)
                .f64("measured", r.measured)
                .opt_f64("bound", r.bound)
                .opt("holds", r.holds)
        })
        .collect();
    write_bench("BENCH_paper.json", "paper", &head, &[("rows", cells)])
        .expect("write BENCH_paper.json");
    println!("wrote BENCH_paper.json ({} rows, {gated} gated)", all.len());

    for r in &violated {
        eprintln!(
            "VIOLATION: {} {} on {}: measured {}, bound {}",
            r.experiment,
            r.claim,
            r.instance,
            fmt_value(r.measured),
            r.bound.map_or("-".into(), fmt_value)
        );
    }
    if !violated.is_empty() {
        fatal(format!("{} of {gated} gated rows violate their bound", violated.len()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_failing_gated_rows_are_violations() {
        let mut rows = Rows::new("EXP-TEST");
        rows.at_most("ratio <= 7", "within", 2.5, 7.0);
        rows.at_most("ratio <= 7", "over", 7.5, 7.0);
        rows.at_most("ratio <= 7", "unmeasured", f64::NAN, 7.0);
        rows.at_least("makespan >= congestion", "under", 9.0, 10.0);
        rows.gate("segment == transactions", "differs", 4.0, 4.0, false);
        rows.report("no bound", "huge", 1e12);
        rows.report("no bound", "nan", f64::NAN);
        let violated: Vec<&str> =
            rows.rows.iter().filter(|r| r.violated()).map(|r| r.instance.as_str()).collect();
        assert_eq!(violated, ["over", "unmeasured", "under", "differs"]);
        assert!(rows.rows.iter().filter(|r| r.bound.is_none()).all(|r| r.holds.is_none()));
    }
}
