//! Property tests for the topology substrate: structural queries agree
//! with naive reference implementations on arbitrary random networks.

use hbn_topology::generators::{random_network, BandwidthProfile};
use hbn_topology::{Network, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_net() -> impl Strategy<Value = Network> {
    (1usize..8, 2usize..16, any::<u64>()).prop_map(|(buses, procs, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        random_network(buses, procs.max(buses * 2), BandwidthProfile::Uniform, &mut rng)
    })
}

/// Naive LCA: climb both nodes to the root and intersect ancestor chains.
fn naive_lca(net: &Network, a: NodeId, b: NodeId) -> NodeId {
    let chain = |mut v: NodeId| {
        let mut out = vec![v];
        while v != net.root() {
            v = net.parent(v);
            out.push(v);
        }
        out
    };
    let ca = chain(a);
    let cb: std::collections::HashSet<NodeId> = chain(b).into_iter().collect();
    *ca.iter().find(|v| cb.contains(v)).expect("root is always common")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lca_matches_naive(net in arb_net(), xa in any::<u32>(), xb in any::<u32>()) {
        let a = NodeId(xa % net.n_nodes() as u32);
        let b = NodeId(xb % net.n_nodes() as u32);
        prop_assert_eq!(net.lca(a, b), naive_lca(&net, a, b));
    }

    #[test]
    fn path_edges_match_distance(net in arb_net(), xa in any::<u32>(), xb in any::<u32>()) {
        let a = NodeId(xa % net.n_nodes() as u32);
        let b = NodeId(xb % net.n_nodes() as u32);
        let edges = net.path_edges(a, b);
        prop_assert_eq!(edges.len() as u32, net.distance(a, b));
        // Nodes on the path are distinct and consistent with the edges.
        let nodes = net.path_nodes(a, b);
        prop_assert_eq!(nodes.len(), edges.len() + 1);
        prop_assert_eq!(nodes.first().copied(), Some(a));
        prop_assert_eq!(nodes.last().copied(), Some(b));
    }

    #[test]
    fn step_towards_decreases_distance(net in arb_net(), xa in any::<u32>(), xb in any::<u32>()) {
        let a = NodeId(xa % net.n_nodes() as u32);
        let b = NodeId(xb % net.n_nodes() as u32);
        prop_assume!(a != b);
        let s = net.step_towards(a, b);
        prop_assert_eq!(net.distance(s, b) + 1, net.distance(a, b));
    }

    #[test]
    fn subtree_sizes_sum(net in arb_net()) {
        // Each node's subtree size is 1 plus its children's sizes.
        for v in net.nodes() {
            let kids: usize = net.children(v).iter().map(|&c| net.subtree_size(c)).sum();
            prop_assert_eq!(net.subtree_size(v), kids + 1);
        }
        prop_assert_eq!(net.subtree_size(net.root()), net.n_nodes());
    }

    #[test]
    fn steiner_matches_separation_definition(
        net in arb_net(),
        picks in proptest::collection::vec(any::<u32>(), 0..6),
    ) {
        let terminals: Vec<NodeId> = picks
            .iter()
            .map(|&i| net.processors()[i as usize % net.n_processors()])
            .collect();
        let got = hbn_topology::steiner::steiner_edges(&net, &terminals);
        let mut uniq = terminals.clone();
        uniq.sort_unstable();
        uniq.dedup();
        let want: Vec<_> = net
            .edges()
            .filter(|&e| {
                let below = uniq.iter().filter(|&&t| net.is_ancestor(e.child(), t)).count();
                below > 0 && below < uniq.len()
            })
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn levels_complement_depths(net in arb_net()) {
        for v in net.nodes() {
            prop_assert_eq!(net.level(v) + net.depth(v), net.height());
        }
    }
}
