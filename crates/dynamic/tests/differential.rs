//! Differential pinning of the zero-allocation serve kernel against the
//! naive oracle: for randomized traces from **all six phase families**
//! crossed with three topology families (plus random proptest networks),
//! `DynamicTree::serve` must match `ReferenceTree::serve` exactly —
//! per-edge loads, per-object replica sets, event stats and congestion —
//! and it must keep matching when seeding and durable roundtrips are
//! interleaved with the serving.

use hbn_dynamic::{online_trace, DynamicStats, DynamicTree, OnlineRequest, ReferenceTree};
use hbn_testutil::{arb_network, family_schedules, workload_from_seed};
use hbn_topology::generators::{balanced, caterpillar, star, BandwidthProfile};
use hbn_topology::{Network, NodeId};
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
    let mut reference = ReferenceTree::new(net, n_objects, threshold);
    for &req in requests {
        fast.serve(net, req);
        reference.serve(net, req);
    }
    assert_states_agree(net, &fast, &reference, context);
}

/// Every observable of the kernel equals the oracle's.
fn assert_states_agree(
    net: &Network,
    fast: &DynamicTree,
    reference: &ReferenceTree,
    context: &str,
) {
    assert_eq!(fast.stats(), reference.stats(), "stats diverged: {context}");
    assert_eq!(fast.loads(), reference.loads(), "loads diverged: {context}");
    assert_eq!(
        fast.congestion(net),
        reference.loads().congestion(net).congestion,
        "congestion diverged: {context}"
    );
    for x in 0..fast.n_objects() as u32 {
        assert_eq!(
            fast.replicas(ObjectId(x)),
            reference.replicas(ObjectId(x)),
            "replica set of object {x} diverged: {context}"
        );
    }
}

/// A fresh kernel rebuilt from `tree`'s durable export, as a checkpoint
/// restore rebuilds it.
fn roundtrip(net: &Network, tree: &DynamicTree, threshold: u64) -> DynamicTree {
    let mut restored = DynamicTree::new(net, tree.n_objects(), threshold);
    for x in 0..tree.n_objects() as u32 {
        if let Some((replicas, counters)) = tree.export_object(ObjectId(x)) {
            restored.restore_object(net, ObjectId(x), &replicas, &counters);
        }
    }
    restored.restore_accounting(tree.loads().clone(), tree.stats());
    restored
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
    // Objects are independent: every piece of strategy state is
    // per-object and every traffic charge is a per-object sum into the
    // load map, so partitioning the objects across strategies and
    // summing the per-part loads/stats reproduces the whole run bit for
    // bit.
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

/// Objects the interleaving differential touches.
const MIXED_OBJECTS: usize = 4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One random sequence of serves, seedings and (on the kernel only)
    /// export/restore roundtrips into a fresh tree, with the kernel and
    /// the oracle compared after every step. Each op is `(kind, node,
    /// object, ancestors)`: kinds 0–5 read, 6–7 write, 8 seeds the object
    /// with a node plus up to three of its ancestors (a connected set),
    /// and 9 roundtrips the kernel.
    #[test]
    fn kernels_agree_through_interleaved_seeding_and_restores(
        net in arb_network(5, 10),
        threshold in 1u64..4,
        ops in proptest::collection::vec((0u8..10, any::<u32>(), 0..MIXED_OBJECTS, 0usize..4), 300..301),
    ) {
        let procs = net.processors();
        let mut fast = DynamicTree::new(&net, MIXED_OBJECTS, threshold);
        let mut reference = ReferenceTree::new(&net, MIXED_OBJECTS, threshold);
        for (step, &(kind, node, x, ancestors)) in ops.iter().enumerate() {
            let object = ObjectId(x as u32);
            match kind {
                0..=7 => {
                    let req = OnlineRequest {
                        processor: procs[node as usize % procs.len()],
                        object,
                        is_write: kind >= 6,
                    };
                    fast.serve(&net, req);
                    reference.serve(&net, req);
                }
                8 => {
                    let mut v = NodeId(node % net.n_nodes() as u32);
                    let mut seed = vec![v];
                    for _ in 0..ancestors {
                        if v == net.root() {
                            break;
                        }
                        v = net.parent(v);
                        seed.push(v);
                    }
                    fast.seed_replicas(&net, object, &seed);
                    reference.seed_replicas(&net, object, &seed);
                }
                _ => fast = roundtrip(&net, &fast, threshold),
            }
            assert_states_agree(&net, &fast, &reference, &format!("step {step}, op {kind}"));
        }
    }
}
