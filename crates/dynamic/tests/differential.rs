//! Differential pinning of the zero-allocation serve kernel against the
//! naive reference kernel: for randomized traces from **all six phase
//! families** crossed with three topology families (plus random proptest
//! networks), `DynamicTree::serve` must match
//! `DynamicTree::serve_reference` exactly — per-edge loads, per-object
//! replica sets, event stats and congestion.

use hbn_dynamic::{online_trace, DynamicStats, DynamicTree, OnlineRequest};
use hbn_testutil::{arb_network, family_schedules, workload_from_seed};
use hbn_topology::generators::{balanced, caterpillar, star, BandwidthProfile};
use hbn_topology::Network;
use hbn_workload::ObjectId;
use proptest::prelude::*;

/// Replay `requests` through both kernels on fresh strategies and assert
/// bit-for-bit agreement on every observable.
fn assert_kernels_agree(
    net: &Network,
    n_objects: usize,
    threshold: u64,
    requests: &[OnlineRequest],
    context: &str,
) {
    let mut fast = DynamicTree::new(net, n_objects, threshold);
    let mut reference = DynamicTree::new(net, n_objects, threshold);
    for &req in requests {
        fast.serve(net, req);
        reference.serve_reference(net, req);
    }
    assert_eq!(fast.stats(), reference.stats(), "stats diverged: {context}");
    assert_eq!(fast.loads(), reference.loads(), "loads diverged: {context}");
    assert_eq!(fast.congestion(net), reference.congestion(net), "congestion diverged: {context}");
    for x in 0..n_objects as u32 {
        assert_eq!(
            fast.replicas(ObjectId(x)),
            reference.replicas(ObjectId(x)),
            "replica set of object {x} diverged: {context}"
        );
    }
}

#[test]
fn all_six_families_match_on_three_topologies() {
    let topologies: Vec<(&str, Network)> = vec![
        ("balanced(3,2)", balanced(3, 2, BandwidthProfile::Uniform)),
        ("star(12)", star(12, 4)),
        ("caterpillar(4,3)", caterpillar(4, 3, BandwidthProfile::Uniform)),
    ];
    for (family, schedule) in family_schedules(10, 60, 400) {
        for (label, net) in &topologies {
            for seed in [5u64, 23] {
                let requests = online_trace(net, &schedule, seed);
                assert_eq!(requests.len(), schedule.total_requests());
                for threshold in [1u64, 3] {
                    assert_kernels_agree(
                        net,
                        schedule.max_objects(),
                        threshold,
                        &requests,
                        &format!("{family} on {label}, seed {seed}, D={threshold}"),
                    );
                }
            }
        }
    }
}

#[test]
fn object_sharded_serving_merges_exactly() {
    // The scenario engine's shard-and-merge invariant at the strategy
    // level: objects are independent, so partitioning them across
    // strategies and summing the per-shard loads/stats reproduces the
    // unsharded run bit for bit.
    let net = caterpillar(5, 2, BandwidthProfile::Uniform);
    let (_, schedule) = family_schedules(12, 80, 500).swap_remove(1); // hotspot-migration
    let requests = online_trace(&net, &schedule, 31);
    let n_objects = schedule.max_objects();

    let mut whole = DynamicTree::new(&net, n_objects, 2);
    for &req in &requests {
        whole.serve(&net, req);
    }

    const SHARDS: usize = 3;
    let mut shards: Vec<DynamicTree> =
        (0..SHARDS).map(|_| DynamicTree::new(&net, n_objects, 2)).collect();
    for &req in &requests {
        shards[req.object.index() % SHARDS].serve(&net, req);
    }

    let mut merged = hbn_load::LoadMap::zero(&net);
    let mut stats = DynamicStats::default();
    for shard in &shards {
        merged.add_assign(shard.loads());
        stats = stats.merge(shard.stats());
    }
    assert_eq!(&merged, whole.loads());
    assert_eq!(stats, whole.stats());
    for x in 0..n_objects as u32 {
        assert_eq!(
            whole.replicas(ObjectId(x)),
            shards[x as usize % SHARDS].replicas(ObjectId(x)),
            "object {x}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kernels_agree_on_random_networks_and_traces(
        net in arb_network(5, 10),
        seed in any::<u64>(),
        threshold in 1u64..4,
    ) {
        // Derive a request trace from a random workload matrix: expand
        // each (processor, object) cell into its reads/writes, giving
        // broad coverage of write-heavy and read-heavy object histories.
        let n_objects = 4usize;
        let m = workload_from_seed(&net, n_objects, 4, 3, 0.6, seed);
        let mut requests = Vec::new();
        for x in m.objects() {
            for e in m.object_entries(x) {
                for _ in 0..e.reads {
                    requests.push(OnlineRequest { processor: e.processor, object: x, is_write: false });
                }
                for _ in 0..e.writes {
                    requests.push(OnlineRequest { processor: e.processor, object: x, is_write: true });
                }
            }
        }
        // Deterministic scramble (same length, possibly with repeats) so
        // reads and writes interleave across objects rather than arriving
        // in matrix order; both kernels see the identical sequence.
        let mut i = 0usize;
        let mut stride = requests.len() / 2 + 1;
        while stride % 2 == 0 {
            stride += 1;
        }
        let mut interleaved = Vec::with_capacity(requests.len());
        for _ in 0..requests.len() {
            interleaved.push(requests[i % requests.len().max(1)]);
            i += stride;
        }
        assert_kernels_agree(&net, n_objects, threshold, &interleaved, "proptest instance");
    }
}
