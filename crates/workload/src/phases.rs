//! Phase schedules: online access patterns that *shift over time*.
//!
//! The static generators in [`crate::generators`] describe one frequency
//! matrix; real traffic (parallel-program globals, VSM pages, WWW pages —
//! the paper's motivating workloads) moves through regimes: popularity is
//! skewed, hotspots migrate between processors, load arrives in bursts,
//! read/write mixes flip, objects are created and deleted. A
//! [`PhaseSchedule`] strings such regimes together and a [`PhaseStream`]
//! turns it into an *online* request sequence, one request at a time, so
//! arbitrarily long scenarios never materialize a full trace.
//!
//! Every stream is deterministic given the schedule, the network and a
//! `u64` seed, and emits exactly [`PhaseSpec::requests`] requests per
//! phase; churn phases retire live objects and mint fresh ids, and a
//! retired object is never referenced again (asserted by the test suite
//! and relied on by the scenario engine).
//!
//! ```
//! use hbn_topology::generators::{balanced, BandwidthProfile};
//! use hbn_workload::phases::{PhaseKind, PhaseSchedule, PhaseSpec};
//!
//! let net = balanced(3, 2, BandwidthProfile::Uniform);
//! let schedule = PhaseSchedule::new(
//!     8,
//!     vec![
//!         PhaseSpec::new("warm", PhaseKind::StaticZipf { skew: 0.9, write_fraction: 0.1 }, 100),
//!         PhaseSpec::new("churn", PhaseKind::ObjectChurn { churn_every: 25, skew: 0.9, write_fraction: 0.3 }, 100),
//!     ],
//! );
//! let requests: Vec<_> = schedule.stream(&net, 7).collect();
//! assert_eq!(requests.len(), schedule.total_requests());
//! // `max_objects()` budgets one churn insertion per `churn_every`
//! // requests (100/25 = 4 on top of the 8 initial objects), an upper
//! // bound on the ids the stream can mint — the phase itself fires three
//! // events, at requests 25, 50 and 75 (the i = 0 boundary never churns).
//! assert_eq!(schedule.max_objects(), 12);
//! ```

use crate::arrivals::OpenLoopArrivals;
use crate::freq::AccessMatrix;
use crate::generators::Zipf;
use crate::objects::ObjectId;
use hbn_topology::{Network, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One request: a processor reads or writes an object.
///
/// The one request type of every crate, from a phase stream to a replay:
/// the simulator replays it (as `hbn_sim::Request`) and the dynamic
/// strategy serves it (as `hbn_dynamic::OnlineRequest`), so the scenario
/// engine routes one buffer through both without converting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// The issuing processor (a leaf of the network).
    pub processor: NodeId,
    /// The accessed object.
    pub object: ObjectId,
    /// `true` for writes.
    pub is_write: bool,
}

/// An access-pattern family governing one phase of a schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhaseKind {
    /// Stationary WWW-style traffic: object popularity is Zipf(`skew`)
    /// over the live objects, requesting processors are uniform, and a
    /// `write_fraction` of requests are writes.
    StaticZipf {
        /// Zipf exponent of the popularity ranking (`0` = uniform).
        skew: f64,
        /// Probability that a request is a write.
        write_fraction: f64,
    },
    /// A hot working set pinned to a *home* processor that migrates
    /// through the machine — the VSM page-migration regime.
    HotspotMigration {
        /// Size of the hot object set (clamped to the live set).
        hot_objects: usize,
        /// Probability that a request targets the hot set from the home.
        hot_fraction: f64,
        /// Requests between home migrations (`0` disables migration).
        migrate_every: usize,
        /// Probability that a request is a write.
        write_fraction: f64,
    },
    /// Bursty traffic: each burst picks a small object subset and one
    /// requesting processor, hammers them, then moves on.
    Bursty {
        /// Requests per burst (≥ 1).
        burst_len: usize,
        /// Objects touched per burst (clamped to the live set).
        burst_objects: usize,
        /// Probability that a request is a write.
        write_fraction: f64,
    },
    /// Read-heavy / write-heavy flips: the write fraction alternates
    /// between two levels every `flip_every` requests (starting with
    /// `read_writes`), while popularity stays Zipf(`skew`).
    MixFlip {
        /// Requests between flips (≥ 1).
        flip_every: usize,
        /// Write fraction of the read-heavy half-cycles.
        read_writes: f64,
        /// Write fraction of the write-heavy half-cycles.
        write_writes: f64,
        /// Zipf exponent of the popularity ranking.
        skew: f64,
    },
    /// Object churn: every `churn_every` requests one uniformly random
    /// live object is retired (never referenced again) and a fresh object
    /// id is minted in its place.
    ObjectChurn {
        /// Requests between churn events (≥ 1).
        churn_every: usize,
        /// Zipf exponent of the popularity ranking over live objects.
        skew: f64,
        /// Probability that a request is a write.
        write_fraction: f64,
    },
    /// Adversarial single-bus saturation: requesters alternate between
    /// two processor groups on opposite sides of one bus, over a small
    /// object set, so every replication and write broadcast crosses that
    /// bus.
    SingleBusSaturation {
        /// Probability that a request is a write (high values force the
        /// read-replicate / write-collapse ping-pong).
        write_fraction: f64,
        /// Objects in the contended set (clamped to the live set).
        contended_objects: usize,
    },
    /// Multi-tenant interference: `tenants` independent workloads share
    /// the tree. Tenant `t` owns the live objects with `id % tenants ==
    /// t` and a contiguous processor range, issues requests round-robin
    /// (request `i` belongs to tenant `i % tenants`), samples its own
    /// objects Zipf(`skew`), and writes with probability
    /// `write_fraction · (t+1)/tenants` — asymmetric on purpose, so
    /// per-tenant congestion attribution has something to attribute.
    /// `tenants` is clamped to `[2, min(live objects, processors)]`.
    Interference {
        /// Number of co-located workloads (≥ 2 after clamping).
        tenants: usize,
        /// Zipf exponent of each tenant's popularity ranking.
        skew: f64,
        /// Base write probability; tenant `t` uses `(t+1)/tenants` of it.
        write_fraction: f64,
    },
    /// Diurnal traffic: arrival times come from an [`OpenLoopArrivals`]
    /// process thinned by a sinusoidal day curve (intensity
    /// `0.25 + 0.75·sin²(π·t mod 1)` — quiet nights, busy middays), and
    /// the *active* processor region follows the sun: the fractional
    /// position within the day picks one of `regions` contiguous
    /// processor ranges. Object popularity stays Zipf(`skew`).
    Diurnal {
        /// Follow-the-sun processor regions (clamped to `[1, processors]`).
        regions: usize,
        /// Offered arrival rate per unit of virtual time (non-positive
        /// or non-finite rates fall back to 1.0).
        rate: f64,
        /// Zipf exponent of the popularity ranking.
        skew: f64,
        /// Probability that a request is a write.
        write_fraction: f64,
    },
    /// Flash crowds: a background Zipf(`skew`) workload at `rate`
    /// arrivals per unit time, with a periodic crowd window (the
    /// `[0.4, 0.6)` fraction of each unit of virtual time) during which
    /// the offered rate jumps by `boost`× and *every* processor
    /// read-storms one hot object. Implemented by Poisson thinning: the
    /// arrival process runs at `rate·boost` and off-window arrivals are
    /// accepted with probability `1/boost`.
    FlashCrowd {
        /// Offered background rate (non-positive or non-finite rates
        /// fall back to 1.0).
        rate: f64,
        /// Rate multiplier inside the crowd window (clamped to ≥ 1).
        boost: u64,
        /// Zipf exponent of the background popularity ranking.
        skew: f64,
        /// Background write probability (crowd requests are all reads).
        write_fraction: f64,
    },
}

/// One phase: a labelled access-pattern family and a request volume.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Human-readable phase label (reported in scenario summaries).
    pub label: String,
    /// The access-pattern family.
    pub kind: PhaseKind,
    /// Exact number of requests this phase emits.
    pub requests: usize,
}

impl PhaseSpec {
    /// A phase emitting `requests` requests of pattern `kind`.
    pub fn new(label: impl Into<String>, kind: PhaseKind, requests: usize) -> Self {
        PhaseSpec { label: label.into(), kind, requests }
    }

    /// Number of churn events (object deletions/insertions) this phase
    /// performs.
    pub fn churn_events(&self) -> usize {
        match self.kind {
            PhaseKind::ObjectChurn { churn_every, .. } if churn_every > 0 => {
                self.requests / churn_every
            }
            _ => 0,
        }
    }
}

/// A declarative multi-phase access pattern over a growing object space.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSchedule {
    /// Objects live at the start of the schedule (ids `0..initial_objects`).
    pub initial_objects: usize,
    /// The phases, executed in order.
    pub phases: Vec<PhaseSpec>,
}

impl PhaseSchedule {
    /// A schedule starting from `initial_objects ≥ 1` live objects.
    pub fn new(initial_objects: usize, phases: Vec<PhaseSpec>) -> Self {
        assert!(initial_objects >= 1, "a schedule needs at least one live object");
        PhaseSchedule { initial_objects, phases }
    }

    /// Total requests the schedule emits.
    pub fn total_requests(&self) -> usize {
        self.phases.iter().map(|p| p.requests).sum()
    }

    /// Upper bound on the number of distinct object ids the stream can
    /// reference: the initial set plus every churn insertion. Size
    /// strategy/placement state (`DynamicTree::new`, `AccessMatrix::new`)
    /// with this.
    pub fn max_objects(&self) -> usize {
        self.initial_objects + self.phases.iter().map(PhaseSpec::churn_events).sum::<usize>()
    }

    /// The widest tenant count any [`PhaseKind::Interference`] phase of
    /// this schedule declares, or 1 for single-tenant schedules. The
    /// scenario engine partitions objects by `id % tenants()` when
    /// attributing per-tenant load; the partition key is the *declared*
    /// count (attribution is a partition of accounting, valid for any
    /// key), even where emission clamps the effective tenant count.
    pub fn tenants(&self) -> usize {
        self.phases
            .iter()
            .map(|p| match p.kind {
                PhaseKind::Interference { tenants, .. } => tenants.max(2),
                _ => 1,
            })
            .max()
            .unwrap_or(1)
    }

    /// The streaming request source for this schedule on `net`,
    /// deterministic in `seed`.
    pub fn stream<'a>(&'a self, net: &'a Network, seed: u64) -> PhaseStream<'a> {
        PhaseStream::new(self, net, seed)
    }

    /// The owned cursor form of [`PhaseSchedule::stream`]: a cloneable
    /// [`PhaseStreamState`] that borrows nothing, for callers that own the
    /// schedule and network themselves (e.g. a resumable scenario
    /// session). Draw requests with [`PhaseStreamState::next_request`].
    pub fn stream_state(&self, net: &Network, seed: u64) -> PhaseStreamState {
        PhaseStreamState::new(self, net, seed)
    }

    /// Aggregate the whole stream into the read/write frequency matrix
    /// `h_r, h_w` — the hindsight view a static placement would be
    /// computed from. Materializes counts, not the trace.
    pub fn matrix(&self, net: &Network, seed: u64) -> AccessMatrix {
        let mut m = AccessMatrix::new(self.max_objects());
        for r in self.stream(net, seed) {
            if r.is_write {
                m.add(r.processor, r.object, 0, 1);
            } else {
                m.add(r.processor, r.object, 1, 0);
            }
        }
        m
    }
}

/// Per-phase sampling state, rebuilt when the stream enters a phase.
#[derive(Debug, Clone)]
enum PhaseState {
    Zipf {
        zipf: Zipf,
        write_fraction: f64,
    },
    Hotspot {
        zipf: Zipf,
        hot: usize,
        hot_fraction: f64,
        migrate_every: usize,
        write_fraction: f64,
        home: usize,
    },
    Bursty {
        burst_len: usize,
        burst_objects: usize,
        write_fraction: f64,
        // Current burst: live-set indices and the requesting processor.
        objects: Vec<usize>,
        processor: usize,
        emitted: usize,
    },
    MixFlip {
        zipf: Zipf,
        flip_every: usize,
        read_writes: f64,
        write_writes: f64,
    },
    Churn {
        zipf: Zipf,
        churn_every: usize,
        write_fraction: f64,
    },
    SingleBus {
        write_fraction: f64,
        contended: Vec<usize>,
        // Processor groups on opposite sides of the saturated bus.
        side_a: Vec<NodeId>,
        side_b: Vec<NodeId>,
        emitted: usize,
    },
    Interference {
        tenants: usize,
        write_fraction: f64,
        // Per-tenant popularity rankings over the tenant's own objects.
        zipfs: Vec<Zipf>,
        // Per-tenant live-set slot indices.
        object_groups: Vec<Vec<usize>>,
        // Per-tenant contiguous processor ranges.
        proc_groups: Vec<Vec<NodeId>>,
    },
    Diurnal {
        zipf: Zipf,
        write_fraction: f64,
        regions: usize,
        arrivals: OpenLoopArrivals,
    },
    FlashCrowd {
        zipf: Zipf,
        write_fraction: f64,
        // Off-window thinning probability, 1/boost.
        accept: f64,
        arrivals: OpenLoopArrivals,
    },
}

/// Streaming request source of a [`PhaseSchedule`]: an iterator over
/// [`Request`]s that holds only O(live objects) state.
///
/// A thin borrowing wrapper around [`PhaseStreamState`] — the owned,
/// cloneable cursor — so the ergonomic `schedule.stream(net, seed)`
/// iterator and the resumable cursor share one implementation.
#[derive(Debug)]
pub struct PhaseStream<'a> {
    schedule: &'a PhaseSchedule,
    net: &'a Network,
    state: PhaseStreamState,
}

impl<'a> PhaseStream<'a> {
    fn new(schedule: &'a PhaseSchedule, net: &'a Network, seed: u64) -> Self {
        PhaseStream { schedule, net, state: PhaseStreamState::new(schedule, net, seed) }
    }

    /// Index of the current phase (advances as the stream crosses a
    /// phase boundary while emitting).
    pub fn phase_index(&self) -> usize {
        self.state.phase_index()
    }

    /// Object ids currently live (churn mutates this set).
    pub fn live_objects(&self) -> &[ObjectId] {
        self.state.live_objects()
    }

    /// Object ids retired by churn so far, in retirement order.
    pub fn retired_objects(&self) -> &[ObjectId] {
        self.state.retired_objects()
    }

    /// The underlying owned cursor (e.g. to snapshot mid-iteration).
    pub fn state(&self) -> &PhaseStreamState {
        &self.state
    }
}

/// The owned cursor of a phase stream: the RNG position, the live/retired
/// object sets and the per-phase sampling state, with no borrow of the
/// schedule or network. Cloning it snapshots the stream position exactly
/// — two clones driven forward with the same `(schedule, net)` emit
/// identical suffixes, which is what makes scenario sessions resumable.
///
/// Every method that advances the cursor takes the schedule and network
/// explicitly; callers must pass the same pair the cursor was created
/// with (the cursor indexes into both).
#[derive(Debug, Clone)]
pub struct PhaseStreamState {
    rng: StdRng,
    /// Live object ids; churn replaces entries in place.
    live: Vec<ObjectId>,
    /// Retired object ids, in retirement order.
    retired: Vec<ObjectId>,
    next_object: u32,
    phase_idx: usize,
    emitted_in_phase: usize,
    state: Option<PhaseState>,
}

impl PhaseStreamState {
    /// A cursor at the start of `schedule`, deterministic in `seed` —
    /// the owned form of [`PhaseSchedule::stream`].
    pub fn new(schedule: &PhaseSchedule, net: &Network, seed: u64) -> Self {
        assert!(net.n_processors() >= 2, "phase streams need at least two processors");
        let mut s = PhaseStreamState {
            rng: StdRng::seed_from_u64(seed),
            live: (0..schedule.initial_objects as u32).map(ObjectId).collect(),
            retired: Vec::new(),
            next_object: schedule.initial_objects as u32,
            phase_idx: 0,
            emitted_in_phase: 0,
            state: None,
        };
        s.enter_phase(schedule, net);
        s
    }

    /// Emit the next request, or `None` once the schedule is exhausted.
    /// `schedule` and `net` must be the pair the cursor was created with.
    pub fn next_request(&mut self, schedule: &PhaseSchedule, net: &Network) -> Option<Request> {
        loop {
            let phase = schedule.phases.get(self.phase_idx)?;
            if self.emitted_in_phase >= phase.requests {
                self.phase_idx += 1;
                self.emitted_in_phase = 0;
                self.enter_phase(schedule, net);
                continue;
            }
            let req = self.emit(net);
            self.emitted_in_phase += 1;
            return Some(req);
        }
    }

    /// Requests left before the schedule is exhausted.
    pub fn remaining(&self, schedule: &PhaseSchedule) -> usize {
        schedule
            .phases
            .iter()
            .skip(self.phase_idx)
            .map(|p| p.requests)
            .sum::<usize>()
            .saturating_sub(self.emitted_in_phase)
    }

    /// Index of the current phase (advances as the cursor crosses a
    /// phase boundary while emitting).
    pub fn phase_index(&self) -> usize {
        self.phase_idx
    }

    /// Object ids currently live (churn mutates this set).
    pub fn live_objects(&self) -> &[ObjectId] {
        &self.live
    }

    /// Object ids retired by churn so far, in retirement order.
    pub fn retired_objects(&self) -> &[ObjectId] {
        &self.retired
    }

    /// Build the sampling state for the phase at `phase_idx` (no-op past
    /// the last phase).
    fn enter_phase(&mut self, schedule: &PhaseSchedule, net: &Network) {
        let Some(phase) = schedule.phases.get(self.phase_idx) else {
            self.state = None;
            return;
        };
        let n_live = self.live.len();
        let procs = net.processors();
        self.state = Some(match phase.kind {
            PhaseKind::StaticZipf { skew, write_fraction } => {
                PhaseState::Zipf { zipf: Zipf::new(n_live, skew), write_fraction }
            }
            PhaseKind::HotspotMigration {
                hot_objects,
                hot_fraction,
                migrate_every,
                write_fraction,
            } => PhaseState::Hotspot {
                zipf: Zipf::new(n_live, 1.0),
                hot: hot_objects.clamp(1, n_live),
                hot_fraction,
                migrate_every,
                write_fraction,
                home: self.rng.gen_range(0..procs.len()),
            },
            PhaseKind::Bursty { burst_len, burst_objects, write_fraction } => PhaseState::Bursty {
                burst_len: burst_len.max(1),
                burst_objects: burst_objects.clamp(1, n_live),
                write_fraction,
                objects: Vec::new(),
                processor: 0,
                emitted: 0,
            },
            PhaseKind::MixFlip { flip_every, read_writes, write_writes, skew } => {
                PhaseState::MixFlip {
                    zipf: Zipf::new(n_live, skew),
                    flip_every: flip_every.max(1),
                    read_writes,
                    write_writes,
                }
            }
            PhaseKind::ObjectChurn { churn_every, skew, write_fraction } => PhaseState::Churn {
                zipf: Zipf::new(n_live, skew),
                churn_every: churn_every.max(1),
                write_fraction,
            },
            PhaseKind::SingleBusSaturation { write_fraction, contended_objects } => {
                let (side_a, side_b) = split_bus_sides(net);
                let k = contended_objects.clamp(1, n_live);
                PhaseState::SingleBus {
                    write_fraction,
                    contended: (0..k).collect(),
                    side_a,
                    side_b,
                    emitted: 0,
                }
            }
            PhaseKind::Interference { tenants, skew, write_fraction } => {
                let t_eff = tenants.clamp(2, n_live.min(procs.len()));
                // Partition the live set by object id so the emission
                // bias matches the engine's `id % tenants` attribution
                // key; fall back to a slot round-robin if churn left
                // some id class empty.
                let mut groups: Vec<Vec<usize>> = vec![Vec::new(); t_eff];
                for (slot, &obj) in self.live.iter().enumerate() {
                    groups[obj.index() % t_eff].push(slot);
                }
                if groups.iter().any(Vec::is_empty) {
                    groups.iter_mut().for_each(Vec::clear);
                    for slot in 0..n_live {
                        groups[slot % t_eff].push(slot);
                    }
                }
                let zipfs = groups.iter().map(|g| Zipf::new(g.len(), skew)).collect();
                let proc_groups = (0..t_eff)
                    .map(|t| procs[t * procs.len() / t_eff..(t + 1) * procs.len() / t_eff].to_vec())
                    .collect();
                PhaseState::Interference {
                    tenants: t_eff,
                    write_fraction,
                    zipfs,
                    object_groups: groups,
                    proc_groups,
                }
            }
            PhaseKind::Diurnal { regions, rate, skew, write_fraction } => PhaseState::Diurnal {
                zipf: Zipf::new(n_live, skew),
                write_fraction,
                regions: regions.clamp(1, procs.len()),
                arrivals: OpenLoopArrivals::new(self.rng.gen(), sane_rate(rate)),
            },
            PhaseKind::FlashCrowd { rate, boost, skew, write_fraction } => {
                let boost = boost.max(1);
                PhaseState::FlashCrowd {
                    zipf: Zipf::new(n_live, skew),
                    write_fraction,
                    accept: 1.0 / boost as f64,
                    arrivals: OpenLoopArrivals::new(self.rng.gen(), sane_rate(rate) * boost as f64),
                }
            }
        });
    }

    /// Emit the next request of the current phase. `self.state` is the
    /// matching variant for the schedule phase at `self.phase_idx`.
    fn emit(&mut self, net: &Network) -> Request {
        let procs = net.processors();
        let i = self.emitted_in_phase;
        let state = self.state.as_mut().expect("emit called with an active phase");
        match state {
            PhaseState::Zipf { zipf, write_fraction } => {
                let object = self.live[zipf.sample(&mut self.rng)];
                Request {
                    processor: procs[self.rng.gen_range(0..procs.len())],
                    object,
                    is_write: self.rng.gen_bool(write_fraction.clamp(0.0, 1.0)),
                }
            }
            PhaseState::Hotspot {
                zipf,
                hot,
                hot_fraction,
                migrate_every,
                write_fraction,
                home,
            } => {
                if *migrate_every > 0 && i > 0 && i.is_multiple_of(*migrate_every) {
                    // The working set moves: pick a fresh home processor.
                    let next = self.rng.gen_range(0..procs.len() - 1);
                    *home = if next >= *home { next + 1 } else { next };
                }
                let is_write = self.rng.gen_bool(write_fraction.clamp(0.0, 1.0));
                if self.rng.gen_bool(hot_fraction.clamp(0.0, 1.0)) {
                    let object = self.live[self.rng.gen_range(0..*hot)];
                    Request { processor: procs[*home], object, is_write }
                } else {
                    let object = self.live[zipf.sample(&mut self.rng)];
                    Request {
                        processor: procs[self.rng.gen_range(0..procs.len())],
                        object,
                        is_write,
                    }
                }
            }
            PhaseState::Bursty {
                burst_len,
                burst_objects,
                write_fraction,
                objects,
                processor,
                emitted,
            } => {
                if *emitted % *burst_len == 0 {
                    // Start a new burst: fresh object subset, fresh source.
                    objects.clear();
                    for _ in 0..*burst_objects {
                        objects.push(self.rng.gen_range(0..self.live.len()));
                    }
                    *processor = self.rng.gen_range(0..procs.len());
                }
                let object = self.live[objects[*emitted % objects.len()]];
                *emitted += 1;
                Request {
                    processor: procs[*processor],
                    object,
                    is_write: self.rng.gen_bool(write_fraction.clamp(0.0, 1.0)),
                }
            }
            PhaseState::MixFlip { zipf, flip_every, read_writes, write_writes } => {
                let write_fraction =
                    if (i / *flip_every).is_multiple_of(2) { *read_writes } else { *write_writes };
                Request {
                    processor: procs[self.rng.gen_range(0..procs.len())],
                    object: self.live[zipf.sample(&mut self.rng)],
                    is_write: self.rng.gen_bool(write_fraction.clamp(0.0, 1.0)),
                }
            }
            PhaseState::Churn { zipf, churn_every, write_fraction } => {
                if i > 0 && i.is_multiple_of(*churn_every) {
                    // Retire one uniformly random live object and mint a
                    // fresh id in its slot; the retired id never recurs.
                    let slot = self.rng.gen_range(0..self.live.len());
                    self.retired.push(self.live[slot]);
                    self.live[slot] = ObjectId(self.next_object);
                    self.next_object += 1;
                }
                Request {
                    processor: procs[self.rng.gen_range(0..procs.len())],
                    object: self.live[zipf.sample(&mut self.rng)],
                    is_write: self.rng.gen_bool(write_fraction.clamp(0.0, 1.0)),
                }
            }
            PhaseState::SingleBus { write_fraction, contended, side_a, side_b, emitted } => {
                // Alternate sides so every consecutive pair of requests on
                // an object straddles the bus.
                let side = if *emitted % 2 == 0 { &*side_a } else { &*side_b };
                let object = self.live[contended[(*emitted / 2) % contended.len()]];
                *emitted += 1;
                Request {
                    processor: side[self.rng.gen_range(0..side.len())],
                    object,
                    is_write: self.rng.gen_bool(write_fraction.clamp(0.0, 1.0)),
                }
            }
            PhaseState::Interference {
                tenants,
                write_fraction,
                zipfs,
                object_groups,
                proc_groups,
            } => {
                let t = i % *tenants;
                let wf = (*write_fraction * (t + 1) as f64 / *tenants as f64).clamp(0.0, 1.0);
                let object = self.live[object_groups[t][zipfs[t].sample(&mut self.rng)]];
                let group = &proc_groups[t];
                Request {
                    processor: group[self.rng.gen_range(0..group.len())],
                    object,
                    is_write: self.rng.gen_bool(wf),
                }
            }
            PhaseState::Diurnal { zipf, write_fraction, regions, arrivals } => {
                // Thin the max-rate Poisson stream by the day curve:
                // accept an arrival at day position `d` with probability
                // 0.25 + 0.75·sin²(π·d). Intensity ≥ 0.25 bounds the
                // expected rejections per request at 3.
                let day = loop {
                    let d = arrivals.next_arrival().fract();
                    let intensity = 0.25 + 0.75 * (std::f64::consts::PI * d).sin().powi(2);
                    if self.rng.gen_bool(intensity) {
                        break d;
                    }
                };
                // Follow the sun: the day position picks the active
                // contiguous processor region.
                let region = ((day * *regions as f64) as usize).min(*regions - 1);
                let lo = region * procs.len() / *regions;
                let hi = (region + 1) * procs.len() / *regions;
                Request {
                    processor: procs[self.rng.gen_range(lo..hi)],
                    object: self.live[zipf.sample(&mut self.rng)],
                    is_write: self.rng.gen_bool(write_fraction.clamp(0.0, 1.0)),
                }
            }
            PhaseState::FlashCrowd { zipf, write_fraction, accept, arrivals } => {
                // The process runs at rate·boost; inside the crowd window
                // every arrival lands, outside only 1/boost of them do —
                // so the accepted rate is `rate` off-window and
                // `rate·boost` inside it.
                let in_crowd = loop {
                    let d = arrivals.next_arrival().fract();
                    let in_crowd = (0.4..0.6).contains(&d);
                    if in_crowd || self.rng.gen_bool(*accept) {
                        break in_crowd;
                    }
                };
                if in_crowd {
                    // Read storm on one hot object from everywhere.
                    Request {
                        processor: procs[self.rng.gen_range(0..procs.len())],
                        object: self.live[0],
                        is_write: false,
                    }
                } else {
                    Request {
                        processor: procs[self.rng.gen_range(0..procs.len())],
                        object: self.live[zipf.sample(&mut self.rng)],
                        is_write: self.rng.gen_bool(write_fraction.clamp(0.0, 1.0)),
                    }
                }
            }
        }
    }
}

/// Arrival rates must be finite and positive ([`OpenLoopArrivals::new`]
/// panics otherwise); degenerate spec values fall back to 1.0 so phase
/// schedules stay total.
fn sane_rate(rate: f64) -> f64 {
    if rate.is_finite() && rate > 0.0 {
        rate
    } else {
        1.0
    }
}

/// Split the processors across the most balanced bus: the two child
/// subtrees with the most processors on each side. Falls back to an
/// even split of the processor list on degenerate trees.
fn split_bus_sides(net: &Network) -> (Vec<NodeId>, Vec<NodeId>) {
    let procs = net.processors();
    let mut best: Option<(usize, Vec<NodeId>, Vec<NodeId>)> = None;
    for bus in net.nodes().filter(|&v| net.is_bus(v)) {
        // Group the processors by their first hop away from `bus`.
        let mut groups: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
        for &p in procs {
            if p == bus {
                continue;
            }
            let hop = net.step_towards(bus, p);
            match groups.iter_mut().find(|(h, _)| *h == hop) {
                Some((_, g)) => g.push(p),
                None => groups.push((hop, vec![p])),
            }
        }
        if groups.len() < 2 {
            continue;
        }
        groups.sort_by_key(|(_, g)| std::cmp::Reverse(g.len()));
        let score = groups[0].1.len().min(groups[1].1.len());
        if best.as_ref().is_none_or(|(s, _, _)| score > *s) {
            let b = groups.swap_remove(1).1;
            let a = groups.swap_remove(0).1;
            best = Some((score, a, b));
        }
    }
    match best {
        Some((_, a, b)) => (a, b),
        None => {
            let mid = procs.len() / 2;
            (procs[..mid].to_vec(), procs[mid..].to_vec())
        }
    }
}

impl Iterator for PhaseStream<'_> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        self.state.next_request(self.schedule, self.net)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.state.remaining(self.schedule);
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for PhaseStream<'_> {}

/// A ready-made six-phase schedule touring the original [`PhaseKind`]
/// families — the "as many scenarios as you can imagine" smoke test.
/// `volume` is the per-phase request count. The interference, diurnal
/// and flash-crowd families added later are covered by
/// `hbn_testutil::family_schedules`, which is the exhaustive registry.
pub fn full_tour(initial_objects: usize, volume: usize) -> PhaseSchedule {
    PhaseSchedule::new(
        initial_objects,
        vec![
            PhaseSpec::new(
                "static-zipf",
                PhaseKind::StaticZipf { skew: 0.9, write_fraction: 0.1 },
                volume,
            ),
            PhaseSpec::new(
                "hotspot-migration",
                PhaseKind::HotspotMigration {
                    hot_objects: 4,
                    hot_fraction: 0.8,
                    migrate_every: volume.div_ceil(5).max(1),
                    write_fraction: 0.2,
                },
                volume,
            ),
            PhaseSpec::new(
                "bursty",
                PhaseKind::Bursty { burst_len: 50, burst_objects: 3, write_fraction: 0.15 },
                volume,
            ),
            PhaseSpec::new(
                "mix-flip",
                PhaseKind::MixFlip {
                    flip_every: volume.div_ceil(4).max(1),
                    read_writes: 0.02,
                    write_writes: 0.8,
                    skew: 0.7,
                },
                volume,
            ),
            PhaseSpec::new(
                "object-churn",
                PhaseKind::ObjectChurn {
                    churn_every: volume.div_ceil(8).max(1),
                    skew: 0.9,
                    write_fraction: 0.25,
                },
                volume,
            ),
            PhaseSpec::new(
                "single-bus-saturation",
                PhaseKind::SingleBusSaturation { write_fraction: 0.5, contended_objects: 2 },
                volume,
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbn_topology::generators::{balanced, star, BandwidthProfile};
    use std::collections::HashSet;

    fn net() -> Network {
        balanced(3, 2, BandwidthProfile::Uniform)
    }

    #[test]
    fn streams_are_seed_deterministic() {
        let t = net();
        let schedule = full_tour(8, 200);
        let a: Vec<Request> = schedule.stream(&t, 42).collect();
        let b: Vec<Request> = schedule.stream(&t, 42).collect();
        assert_eq!(a, b);
        let c: Vec<Request> = schedule.stream(&t, 43).collect();
        assert_ne!(a, c, "different seeds should differ somewhere");
    }

    #[test]
    fn cloned_stream_state_resumes_identically() {
        let t = net();
        let schedule = full_tour(8, 120);
        let mut cursor = schedule.stream_state(&t, 31);
        for _ in 0..250 {
            cursor.next_request(&schedule, &t).unwrap();
        }
        // A clone taken mid-stream emits the exact same suffix as the
        // original — the checkpoint/restore contract of scenario sessions.
        let mut fork = cursor.clone();
        let rest: Vec<Request> =
            std::iter::from_fn(|| cursor.next_request(&schedule, &t)).collect();
        let forked: Vec<Request> =
            std::iter::from_fn(|| fork.next_request(&schedule, &t)).collect();
        assert_eq!(rest.len(), schedule.total_requests() - 250);
        assert_eq!(rest, forked);
        assert_eq!(cursor.live_objects(), fork.live_objects());
        assert_eq!(cursor.retired_objects(), fork.retired_objects());
    }

    #[test]
    fn stream_and_owned_cursor_agree() {
        let t = net();
        let schedule = full_tour(5, 80);
        let via_iter: Vec<Request> = schedule.stream(&t, 9).collect();
        let mut cursor = schedule.stream_state(&t, 9);
        let via_cursor: Vec<Request> =
            std::iter::from_fn(|| cursor.next_request(&schedule, &t)).collect();
        assert_eq!(via_iter, via_cursor);
        assert_eq!(cursor.remaining(&schedule), 0);
    }

    #[test]
    fn matrix_totals_match_requested_volume() {
        let t = net();
        let schedule = full_tour(8, 150);
        let m = schedule.matrix(&t, 5);
        assert_eq!(m.grand_total() as usize, schedule.total_requests());
        assert_eq!(m.n_objects(), schedule.max_objects());
        m.validate(&t).unwrap();
    }

    #[test]
    fn every_phase_emits_exactly_its_volume() {
        let t = net();
        let schedule = full_tour(6, 97);
        let mut stream = schedule.stream(&t, 1);
        for i in 0..schedule.phases.len() {
            for j in 0..schedule.phases[i].requests {
                assert!(stream.next().is_some());
                if j == 0 {
                    assert_eq!(stream.phase_index(), i);
                }
            }
        }
        assert!(stream.next().is_none());
        assert_eq!(stream.len(), 0);
    }

    #[test]
    fn churn_never_references_retired_objects() {
        let t = net();
        let schedule = PhaseSchedule::new(
            6,
            vec![
                PhaseSpec::new(
                    "churn",
                    PhaseKind::ObjectChurn { churn_every: 10, skew: 1.0, write_fraction: 0.3 },
                    400,
                ),
                PhaseSpec::new(
                    "after",
                    PhaseKind::StaticZipf { skew: 0.5, write_fraction: 0.1 },
                    200,
                ),
            ],
        );
        let mut stream = schedule.stream(&t, 9);
        let mut dead: HashSet<ObjectId> = HashSet::new();
        let mut retired_seen = 0;
        while let Some(req) = stream.next() {
            for &r in &stream.retired_objects()[retired_seen..] {
                dead.insert(r);
            }
            retired_seen = stream.retired_objects().len();
            assert!(!dead.contains(&req.object), "request to retired object {:?}", req.object);
            assert!((req.object.index()) < schedule.max_objects());
        }
        assert_eq!(stream.retired_objects().len(), 39, "400 requests / churn_every 10, minus i=0");
        // The follow-up phase keeps honouring earlier retirements: its
        // live set is the churned one.
        assert_eq!(stream.live_objects().len(), 6);
    }

    #[test]
    fn churn_mints_fresh_ids_up_to_max_objects() {
        let t = net();
        let schedule = PhaseSchedule::new(
            4,
            vec![PhaseSpec::new(
                "churn",
                PhaseKind::ObjectChurn { churn_every: 5, skew: 0.0, write_fraction: 0.0 },
                100,
            )],
        );
        assert_eq!(schedule.max_objects(), 4 + 20);
        let mut stream = schedule.stream(&t, 3);
        for _ in stream.by_ref() {}
        // 100/5 = 20 events, but the i=0 boundary does not churn.
        assert_eq!(stream.retired_objects().len(), 19);
        let live: HashSet<u32> = stream.live_objects().iter().map(|o| o.0).collect();
        assert_eq!(live.len(), 4);
        assert!(live.iter().all(|&o| (o as usize) < schedule.max_objects()));
    }

    #[test]
    fn single_bus_phase_alternates_sides() {
        let t = net();
        let schedule = PhaseSchedule::new(
            4,
            vec![PhaseSpec::new(
                "sat",
                PhaseKind::SingleBusSaturation { write_fraction: 0.5, contended_objects: 2 },
                200,
            )],
        );
        let reqs: Vec<Request> = schedule.stream(&t, 11).collect();
        // Consecutive requests to the same object come from processors
        // whose pairwise path crosses the split bus: they are never equal.
        for pair in reqs.chunks(2) {
            if let [a, b] = pair {
                assert_eq!(a.object, b.object);
                assert_ne!(a.processor, b.processor, "sides must differ");
            }
        }
        let touched: HashSet<u32> = reqs.iter().map(|r| r.object.0).collect();
        assert_eq!(touched.len(), 2, "contended set has two objects");
    }

    #[test]
    fn hotspot_migration_moves_the_home() {
        let t = net();
        let schedule = PhaseSchedule::new(
            8,
            vec![PhaseSpec::new(
                "hot",
                PhaseKind::HotspotMigration {
                    hot_objects: 2,
                    hot_fraction: 1.0,
                    migrate_every: 50,
                    write_fraction: 0.0,
                },
                300,
            )],
        );
        let reqs: Vec<Request> = schedule.stream(&t, 13).collect();
        // With hot_fraction 1.0 all requests come from the per-window
        // home; at least two distinct homes must appear across windows.
        let homes: HashSet<NodeId> = reqs.iter().map(|r| r.processor).collect();
        assert!(homes.len() >= 2, "home never migrated: {homes:?}");
        for window in reqs.chunks(50) {
            let w: HashSet<NodeId> = window.iter().map(|r| r.processor).collect();
            assert_eq!(w.len(), 1, "one home per window");
        }
    }

    #[test]
    fn mix_flip_alternates_write_rates() {
        let t = net();
        let schedule = PhaseSchedule::new(
            4,
            vec![PhaseSpec::new(
                "flip",
                PhaseKind::MixFlip {
                    flip_every: 250,
                    read_writes: 0.0,
                    write_writes: 1.0,
                    skew: 0.5,
                },
                1000,
            )],
        );
        let reqs: Vec<Request> = schedule.stream(&t, 17).collect();
        for (i, chunk) in reqs.chunks(250).enumerate() {
            let writes = chunk.iter().filter(|r| r.is_write).count();
            if i % 2 == 0 {
                assert_eq!(writes, 0, "read-heavy half-cycle {i}");
            } else {
                assert_eq!(writes, 250, "write-heavy half-cycle {i}");
            }
        }
    }

    #[test]
    fn bursty_bursts_share_source_and_objects() {
        let t = star(6, 4);
        let schedule = PhaseSchedule::new(
            12,
            vec![PhaseSpec::new(
                "bursty",
                PhaseKind::Bursty { burst_len: 25, burst_objects: 2, write_fraction: 0.0 },
                100,
            )],
        );
        let reqs: Vec<Request> = schedule.stream(&t, 19).collect();
        for burst in reqs.chunks(25) {
            let procs: HashSet<NodeId> = burst.iter().map(|r| r.processor).collect();
            assert_eq!(procs.len(), 1, "one source per burst");
            let objs: HashSet<u32> = burst.iter().map(|r| r.object.0).collect();
            assert!(objs.len() <= 2, "at most burst_objects objects");
        }
    }

    fn one_phase(kind: PhaseKind, requests: usize) -> PhaseSchedule {
        PhaseSchedule::new(8, vec![PhaseSpec::new("solo", kind, requests)])
    }

    #[test]
    fn new_families_are_deterministic_and_emit_exact_volumes() {
        let t = net();
        for kind in [
            PhaseKind::Interference { tenants: 2, skew: 0.8, write_fraction: 0.3 },
            PhaseKind::Diurnal { regions: 3, rate: 40.0, skew: 0.8, write_fraction: 0.1 },
            PhaseKind::FlashCrowd { rate: 25.0, boost: 8, skew: 0.8, write_fraction: 0.1 },
        ] {
            let schedule = one_phase(kind, 300);
            let a: Vec<Request> = schedule.stream(&t, 77).collect();
            let b: Vec<Request> = schedule.stream(&t, 77).collect();
            assert_eq!(a, b, "{kind:?} must be seed-deterministic");
            assert_eq!(a.len(), 300, "{kind:?} must emit exactly its volume");
            let c: Vec<Request> = schedule.stream(&t, 78).collect();
            assert_ne!(a, c, "{kind:?} must vary with the seed");
        }
    }

    #[test]
    fn new_families_clone_resume_bit_for_bit() {
        let t = net();
        let schedule = PhaseSchedule::new(
            8,
            vec![
                PhaseSpec::new(
                    "interference",
                    PhaseKind::Interference { tenants: 3, skew: 0.9, write_fraction: 0.4 },
                    120,
                ),
                PhaseSpec::new(
                    "diurnal",
                    PhaseKind::Diurnal { regions: 2, rate: 30.0, skew: 0.7, write_fraction: 0.2 },
                    120,
                ),
                PhaseSpec::new(
                    "flash-crowd",
                    PhaseKind::FlashCrowd { rate: 20.0, boost: 6, skew: 0.7, write_fraction: 0.1 },
                    120,
                ),
            ],
        );
        let mut cursor = schedule.stream_state(&t, 55);
        // Stop mid-diurnal so the fork carries a live arrival process.
        for _ in 0..180 {
            cursor.next_request(&schedule, &t).unwrap();
        }
        let mut fork = cursor.clone();
        let rest: Vec<Request> =
            std::iter::from_fn(|| cursor.next_request(&schedule, &t)).collect();
        let forked: Vec<Request> =
            std::iter::from_fn(|| fork.next_request(&schedule, &t)).collect();
        assert_eq!(rest.len(), 180);
        assert_eq!(rest, forked);
    }

    #[test]
    fn interference_partitions_objects_and_processors_by_tenant() {
        let t = star(8, 4);
        let schedule =
            one_phase(PhaseKind::Interference { tenants: 2, skew: 0.6, write_fraction: 1.0 }, 400);
        let reqs: Vec<Request> = schedule.stream(&t, 21).collect();
        // Request i belongs to tenant i % 2; each tenant touches only its
        // own object class and processor half.
        let procs = t.processors();
        for (i, r) in reqs.iter().enumerate() {
            let tenant = i % 2;
            assert_eq!(r.object.index() % 2, tenant, "request {i} crossed tenants");
            let pos = procs.iter().position(|&p| p == r.processor).unwrap();
            assert_eq!(
                if pos < procs.len() / 2 { 0 } else { 1 },
                tenant,
                "request {i} issued from the wrong processor half"
            );
        }
        // Asymmetric write mix: tenant 0 writes at wf/2, tenant 1 at wf.
        let writes =
            |t: usize| reqs.iter().enumerate().filter(|(i, r)| i % 2 == t && r.is_write).count();
        assert!(writes(0) < writes(1), "tenant write mixes must differ");
        assert_eq!(writes(1), 200, "tenant 1 writes every request at wf=1.0");
    }

    #[test]
    fn interference_clamps_wide_tenant_counts() {
        let t = net(); // 9 processors, 8 initial objects
        let schedule = one_phase(
            PhaseKind::Interference { tenants: 1000, skew: 0.5, write_fraction: 0.2 },
            200,
        );
        let reqs: Vec<Request> = schedule.stream(&t, 3).collect();
        assert_eq!(reqs.len(), 200);
        assert_eq!(schedule.tenants(), 1000, "declared count is not clamped");
    }

    #[test]
    fn schedule_tenants_reports_widest_interference_phase() {
        assert_eq!(full_tour(6, 10).tenants(), 1);
        let mixed = PhaseSchedule::new(
            4,
            vec![
                PhaseSpec::new(
                    "warm",
                    PhaseKind::StaticZipf { skew: 0.5, write_fraction: 0.1 },
                    10,
                ),
                PhaseSpec::new(
                    "i2",
                    PhaseKind::Interference { tenants: 2, skew: 0.5, write_fraction: 0.1 },
                    10,
                ),
                PhaseSpec::new(
                    "i4",
                    PhaseKind::Interference { tenants: 4, skew: 0.5, write_fraction: 0.1 },
                    10,
                ),
            ],
        );
        assert_eq!(mixed.tenants(), 4);
    }

    #[test]
    fn diurnal_concentrates_requests_by_region() {
        let t = star(12, 4);
        let schedule = one_phase(
            PhaseKind::Diurnal { regions: 3, rate: 50.0, skew: 0.5, write_fraction: 0.0 },
            600,
        );
        let reqs: Vec<Request> = schedule.stream(&t, 41).collect();
        assert_eq!(reqs.len(), 600);
        // All three follow-the-sun regions must be visited, and
        // requests from one instant stay within one region (weak check:
        // every processor gets traffic across a long run).
        let procs = t.processors();
        let mut region_hits = [0usize; 3];
        for r in &reqs {
            let pos = procs.iter().position(|&p| p == r.processor).unwrap();
            region_hits[pos * 3 / procs.len()] += 1;
        }
        assert!(region_hits.iter().all(|&n| n > 0), "all regions visited: {region_hits:?}");
    }

    #[test]
    fn flash_crowd_read_storms_one_hot_object() {
        let t = net();
        let schedule = one_phase(
            PhaseKind::FlashCrowd { rate: 30.0, boost: 10, skew: 0.5, write_fraction: 0.5 },
            800,
        );
        let reqs: Vec<Request> = schedule.stream(&t, 29).collect();
        assert_eq!(reqs.len(), 800);
        let hot = reqs.iter().filter(|r| r.object == ObjectId(0) && !r.is_write).count();
        // With boost 10 and a 20% window, crowd arrivals are
        // 2/(2+0.8) ≈ 71% of accepted traffic — the hot object must
        // dominate.
        assert!(hot > reqs.len() / 2, "hot object got only {hot}/{}", reqs.len());
        // Background traffic still exists and can write.
        assert!(reqs.iter().any(|r| r.is_write), "background writes missing");
    }

    #[test]
    fn degenerate_rates_fall_back_instead_of_panicking() {
        let t = net();
        for rate in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            let schedule = one_phase(
                PhaseKind::Diurnal { regions: 2, rate, skew: 0.5, write_fraction: 0.1 },
                50,
            );
            assert_eq!(schedule.stream(&t, 1).count(), 50);
        }
    }

    #[test]
    fn size_hint_tracks_remaining_requests() {
        let t = net();
        let schedule = full_tour(6, 40);
        let mut stream = schedule.stream(&t, 23);
        assert_eq!(stream.len(), 240);
        stream.next();
        assert_eq!(stream.len(), 239);
    }
}
