//! # hbn-testutil
//!
//! Shared proptest strategies and fixtures for the hierbus test suites:
//! random hierarchical bus networks, random workloads, and combined
//! instances, all shrinkable through their generating parameters; plus
//! the per-thread allocation counter of the zero-allocation suites.

#![warn(missing_docs)]

use hbn_topology::generators::{random_network, BandwidthProfile};
use hbn_topology::Network;
use hbn_workload::phases::{PhaseKind, PhaseSchedule, PhaseSpec};
use hbn_workload::{AccessMatrix, ObjectId, Request};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The canonical seeded RNG of the experiment binaries and test suites:
/// one construction point so every `exp_*` driver draws from the same
/// generator family and seeding convention.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// An independent RNG for shard `stream` of a sharded experiment, derived
/// from `base` with a splitmix64-style mix so neighbouring stream ids do
/// not produce correlated draws.
pub fn seeded_rng_stream(base: u64, stream: u64) -> StdRng {
    let mut z = base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// The canonical per-cell seed set of a sharded experiment: one
/// independent stream seed per shard, all derived from the cell's base
/// seed via [`seeded_rng_stream`]. One construction point shared by the
/// matrix experiment binaries (`exp_scenario_matrix`,
/// `exp_strategy_matrix`, `exp_session_resume`), so "the same seeds"
/// means the same derivation everywhere.
pub fn cell_seeds(cell_base: u64, shards: usize) -> Vec<u64> {
    (0..shards as u64).map(|s| seeded_rng_stream(cell_base, s).gen()).collect()
}

/// The access-pattern family registry of the scenario matrix, each
/// family as a warm-up + measured-phase schedule: a light stationary
/// warm-up (so strategies start from a populated replica state)
/// followed by the family phase itself. One construction point shared
/// by `exp_scenario_matrix`, the dynamic-kernel differential suites and
/// the per-family conformance harness, so "all families" means the same
/// schedules everywhere.
///
/// The list is append-only — several callers index families
/// positionally — and [`family_label`] matches [`PhaseKind`]
/// exhaustively, so adding a `PhaseKind` variant without registering a
/// schedule here is a compile error, not a silent coverage gap.
pub fn family_schedules(
    initial_objects: usize,
    warmup: usize,
    volume: usize,
) -> Vec<(&'static str, PhaseSchedule)> {
    let warm =
        PhaseSpec::new("warmup", PhaseKind::StaticZipf { skew: 0.8, write_fraction: 0.1 }, warmup);
    let phase = |label: &'static str, kind: PhaseKind| {
        (
            label,
            PhaseSchedule::new(
                initial_objects,
                vec![warm.clone(), PhaseSpec::new(label, kind, volume)],
            ),
        )
    };
    vec![
        phase("static-zipf", PhaseKind::StaticZipf { skew: 1.1, write_fraction: 0.1 }),
        phase(
            "hotspot-migration",
            PhaseKind::HotspotMigration {
                hot_objects: 6,
                hot_fraction: 0.8,
                migrate_every: (volume / 5).max(1),
                write_fraction: 0.2,
            },
        ),
        phase(
            "bursty",
            PhaseKind::Bursty { burst_len: 50, burst_objects: 3, write_fraction: 0.15 },
        ),
        phase(
            "mix-flip",
            PhaseKind::MixFlip {
                flip_every: (volume / 4).max(1),
                read_writes: 0.02,
                write_writes: 0.8,
                skew: 0.7,
            },
        ),
        phase(
            "object-churn",
            PhaseKind::ObjectChurn {
                churn_every: (volume / 10).max(1),
                skew: 0.9,
                write_fraction: 0.25,
            },
        ),
        phase(
            "single-bus-saturation",
            PhaseKind::SingleBusSaturation { write_fraction: 0.5, contended_objects: 2 },
        ),
        phase(
            "interference",
            PhaseKind::Interference { tenants: 3, skew: 0.9, write_fraction: 0.2 },
        ),
        phase(
            "diurnal",
            PhaseKind::Diurnal { regions: 3, rate: 8.0, skew: 0.9, write_fraction: 0.1 },
        ),
        phase(
            "flash-crowd",
            PhaseKind::FlashCrowd { rate: 6.0, boost: 4, skew: 0.8, write_fraction: 0.1 },
        ),
    ]
}

/// Labels of every registered family, in [`family_schedules`] order —
/// the conformance harness cross-checks the registry against this list.
pub const REGISTERED_FAMILIES: [&str; 9] = [
    "static-zipf",
    "hotspot-migration",
    "bursty",
    "mix-flip",
    "object-churn",
    "single-bus-saturation",
    "interference",
    "diurnal",
    "flash-crowd",
];

/// The registry label of a [`PhaseKind`]'s family. The match is
/// exhaustive **on purpose**: a new `PhaseKind` variant fails to
/// compile here until it is given a label, and the conformance harness
/// asserts the label appears in both [`REGISTERED_FAMILIES`] and
/// [`family_schedules`] — so every family is born with conformance
/// coverage.
pub fn family_label(kind: &PhaseKind) -> &'static str {
    match kind {
        PhaseKind::StaticZipf { .. } => "static-zipf",
        PhaseKind::HotspotMigration { .. } => "hotspot-migration",
        PhaseKind::Bursty { .. } => "bursty",
        PhaseKind::MixFlip { .. } => "mix-flip",
        PhaseKind::ObjectChurn { .. } => "object-churn",
        PhaseKind::SingleBusSaturation { .. } => "single-bus-saturation",
        PhaseKind::Interference { .. } => "interference",
        PhaseKind::Diurnal { .. } => "diurnal",
        PhaseKind::FlashCrowd { .. } => "flash-crowd",
    }
}

/// Parameters from which a random network is deterministically grown.
#[derive(Debug, Clone, Copy)]
pub struct NetworkParams {
    /// Number of buses (≥ 1).
    pub buses: usize,
    /// Number of processors (≥ 2).
    pub processors: usize,
    /// Seed for the recursive-tree growth.
    pub seed: u64,
    /// Whether to assign fat-tree style bandwidths.
    pub fat: bool,
}

impl NetworkParams {
    /// Grow the network.
    pub fn build(&self) -> Network {
        let profile = if self.fat {
            BandwidthProfile::FatTree { base: 2, cap: 32 }
        } else {
            BandwidthProfile::Uniform
        };
        let mut rng = StdRng::seed_from_u64(self.seed);
        random_network(self.buses, self.processors.max(self.buses * 2), profile, &mut rng)
    }
}

/// Strategy over random networks with at most `max_buses` buses and about
/// `max_procs` processors. Shrinks towards small trees.
pub fn arb_network(max_buses: usize, max_procs: usize) -> impl Strategy<Value = Network> {
    (1..=max_buses, 2..=max_procs.max(3), any::<u64>(), any::<bool>()).prop_map(
        |(buses, processors, seed, fat)| NetworkParams { buses, processors, seed, fat }.build(),
    )
}

/// Deterministically fill a workload over `net` from a seed: every
/// (processor, object) pair is present with probability `density` and gets
/// reads/writes below the given caps.
pub fn workload_from_seed(
    net: &Network,
    n_objects: usize,
    max_reads: u64,
    max_writes: u64,
    density: f64,
    seed: u64,
) -> AccessMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = AccessMatrix::new(n_objects);
    for x in 0..n_objects as u32 {
        for &p in net.processors() {
            if rng.gen_bool(density.clamp(0.0, 1.0)) {
                m.add(p, ObjectId(x), rng.gen_range(0..=max_reads), rng.gen_range(0..=max_writes));
            }
        }
    }
    m
}

/// Strategy over `(network, workload)` instances.
pub fn arb_instance(
    max_buses: usize,
    max_procs: usize,
    max_objects: usize,
) -> impl Strategy<Value = (Network, AccessMatrix)> {
    (arb_network(max_buses, max_procs), 1..=max_objects, 0u64..8, 0u64..6, any::<u64>()).prop_map(
        |(net, objects, max_r, max_w, seed)| {
            let m = workload_from_seed(&net, objects, max_r, max_w, 0.7, seed);
            (net, m)
        },
    )
}

/// A deterministic mixed request pattern over 8 objects (remote reads
/// saturating paths, write collapses, re-replication) that exercises
/// every branch of the dynamic serve loop: six rounds, each reading or
/// writing every object from every processor. The zero-allocation suites
/// serve it twice and count the second pass.
pub fn mixed_serve_pattern(net: &Network) -> Vec<Request> {
    let procs = net.processors();
    let mut reqs = Vec::new();
    for round in 0..6usize {
        for x in 0..8u32 {
            for (i, &p) in procs.iter().enumerate() {
                reqs.push(Request {
                    processor: p,
                    object: ObjectId(x),
                    is_write: (i + round) % 7 == 0,
                });
            }
        }
    }
    reqs
}

/// A counting global allocator: forwards to [`System`] and counts every
/// allocation and reallocation made by the calling thread, so a test
/// reading [`allocations`] holds however many tests the harness runs
/// side by side. Each test binary installs it itself:
///
/// ```
/// use hbn_testutil::{allocations, CountingAlloc};
///
/// #[global_allocator]
/// static GLOBAL: CountingAlloc = CountingAlloc;
///
/// fn main() {
///     let before = allocations();
///     let block: Vec<u8> = std::hint::black_box(Vec::with_capacity(64));
///     assert_eq!(allocations() - before, 1);
///     drop(block);
/// }
/// ```
pub struct CountingAlloc;

thread_local! {
    // `const`-initialised: no lazy-init path, so touching the counter
    // from inside the allocator never allocates or recurses.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` rather than `with`: an allocator must never panic, and
    // a block allocated while its thread is torn down is no test's.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` contract carries over; counting touches
// only a thread-local `Cell`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` via this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations made so far by the calling thread, as counted by
/// [`CountingAlloc`] (always 0 in a binary that did not install it).
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn generated_networks_are_valid(net in arb_network(6, 12)) {
            net.check_invariants().unwrap();
            prop_assert!(net.n_processors() >= 2);
        }

        #[test]
        fn generated_instances_validate((net, m) in arb_instance(5, 10, 4)) {
            prop_assert!(m.validate(&net).is_ok());
        }
    }

    #[test]
    fn seeded_rngs_are_deterministic_and_streams_independent() {
        let a: u64 = seeded_rng(9).gen();
        let b: u64 = seeded_rng(9).gen();
        assert_eq!(a, b);
        let s0: u64 = seeded_rng_stream(9, 0).gen();
        let s1: u64 = seeded_rng_stream(9, 1).gen();
        assert_ne!(s0, s1, "streams must diverge");
    }

    #[test]
    fn cell_seeds_are_deterministic_and_distinct() {
        let a = cell_seeds(42, 4);
        assert_eq!(a, cell_seeds(42, 4));
        assert_eq!(a.len(), 4);
        let unique: std::collections::HashSet<u64> = a.iter().copied().collect();
        assert_eq!(unique.len(), 4, "shard seeds must be distinct");
        assert_eq!(a[0], seeded_rng_stream(42, 0).gen::<u64>());
    }

    #[test]
    fn family_schedules_cover_every_registered_family() {
        let fams = family_schedules(12, 40, 200);
        assert_eq!(fams.len(), REGISTERED_FAMILIES.len());
        for ((label, schedule), &registered) in fams.iter().zip(REGISTERED_FAMILIES.iter()) {
            assert_eq!(*label, registered, "registry order must match REGISTERED_FAMILIES");
            assert_eq!(schedule.phases.len(), 2);
            assert_eq!(schedule.phases[0].label, "warmup");
            assert_eq!(&schedule.phases[1].label, label);
            assert_eq!(schedule.total_requests(), 240);
            assert!(schedule.max_objects() >= 12);
            assert_eq!(family_label(&schedule.phases[1].kind), *label);
        }
        // The first six are the legacy families, in their original
        // positions — several suites index them positionally.
        assert_eq!(
            &REGISTERED_FAMILIES[..6],
            &[
                "static-zipf",
                "hotspot-migration",
                "bursty",
                "mix-flip",
                "object-churn",
                "single-bus-saturation",
            ]
        );
    }

    #[test]
    fn params_build_deterministically() {
        let p = NetworkParams { buses: 4, processors: 9, seed: 11, fat: true };
        let a = p.build();
        let b = p.build();
        assert_eq!(a.n_nodes(), b.n_nodes());
    }
}
