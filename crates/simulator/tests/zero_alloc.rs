//! Allocation accounting for the replay kernel, via a counting global
//! allocator (this integration test is its own binary, so the allocator
//! swap is local to it). Each thread counts only its own allocations, so
//! the tests hold however many of them the harness runs side by side.
//!
//! A new workspace allocates nothing. Once a workspace has replayed a
//! trace, replaying the same trace again allocates exactly one block:
//! the `edge_crossings` vector the result returns. Write traffic must not
//! change that, since update broadcasts live in a slab whose buffers the
//! next replay reuses entry by entry.

use hbn_core::ExtendedNibble;
use hbn_sim::{expand_shuffled, simulate_with, SimConfig, SimWorkspace};
use hbn_testutil::{allocated_bytes, allocations, seeded_rng, CountingAlloc};
use hbn_topology::generators::{balanced, BandwidthProfile};
use hbn_workload::generators as wgen;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Replay one `balanced(4,3)` trace twice on one workspace and return
/// the second replay's allocated blocks and bytes, with the node count.
fn warm_replay_cost(profile: BandwidthProfile, write_fraction: f64) -> (u64, u64, usize) {
    let net = balanced(4, 3, profile);
    let mut rng = seeded_rng(2204);
    let m = wgen::zipf_read_mostly(&net, 128, 4_000, 0.9, write_fraction, &mut rng);
    let placement = ExtendedNibble::new().place(&net, &m).unwrap().placement;
    let trace = expand_shuffled(&m, &mut rng);
    let cfg = SimConfig::default();
    let mut ws = SimWorkspace::new();
    let first = simulate_with(&mut ws, &net, &m, &placement, &trace, cfg).unwrap();
    if write_fraction > 0.0 {
        assert!(first.delivered_updates > 0, "the trace must drive update broadcasts");
    }

    let (blocks, bytes) = (allocations(), allocated_bytes());
    let again = simulate_with(&mut ws, &net, &m, &placement, &trace, cfg).unwrap();
    let made = (allocations() - blocks, allocated_bytes() - bytes);
    assert_eq!(again, first, "a warm replay must repeat the first one");
    (made.0, made.1, net.n_nodes())
}

#[test]
fn new_workspace_allocates_nothing() {
    let before = allocations();
    let ws = std::hint::black_box(SimWorkspace::new());
    assert_eq!(allocations() - before, 0);
    drop(ws);
}

#[test]
fn warm_replay_allocates_only_its_result() {
    for profile in [BandwidthProfile::Uniform, BandwidthProfile::FatTree { base: 2, cap: 16 }] {
        for write_fraction in [0.0, 0.4] {
            let (blocks, bytes, nodes) = warm_replay_cost(profile, write_fraction);
            let label = format!("{profile:?} at {write_fraction} writes");
            assert_eq!(blocks, 1, "{label}: a warm replay made {blocks} allocations");
            assert_eq!(bytes, 8 * nodes as u64, "{label}: {bytes} bytes beyond edge_crossings");
        }
    }
}
