//! SCI-style hierarchical ring networks and their reduction to hierarchical
//! bus networks (Figures 1 and 2 of the paper).
//!
//! Large SCI (Scalable Coherent Interface) installations are built from
//! small unidirectional ringlets joined by switches. Because every SCI
//! transaction is a request–response pair, a transaction between two nodes
//! of a ringlet `r` behaves like a single packet that travels all the way
//! around `r`: it loads *every* segment of the ring once, regardless of
//! where source and destination sit. Congestion-wise a ringlet is therefore
//! equivalent to a bus of the same bandwidth, and a tree of ringlets is
//! equivalent to a hierarchical bus network. This module implements both
//! sides of that equivalence and is exercised by experiment `EXP-SCI`.

use crate::builder::NetworkBuilder;
use crate::error::TopologyError;
use crate::ids::{Bandwidth, NodeId};
use crate::tree::Network;

/// Index of a ringlet in a [`RingNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RingId(pub u32);

impl RingId {
    /// The ring index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A station on a ringlet: either a processor or a switch leading to a
/// child ringlet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RingSlot {
    /// A processor attached to this ringlet.
    Processor,
    /// A switch to a child ringlet, with the switch bandwidth.
    Switch {
        /// The child ringlet reached through this switch.
        child: RingId,
        /// Bandwidth of the switch.
        bandwidth: Bandwidth,
    },
}

/// One unidirectional SCI ringlet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ringlet {
    /// Aggregate bandwidth of the ring interconnect.
    pub bandwidth: Bandwidth,
    /// Stations around the ring, in ring order.
    pub slots: Vec<RingSlot>,
}

/// A tree-like connected network of SCI ringlets (Figure 1 of the paper):
/// ringlet 0 is the top ring; switches connect parent rings to child rings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingNetwork {
    rings: Vec<Ringlet>,
}

/// Result of converting a [`RingNetwork`] into a [`Network`]: the bus tree
/// plus the correspondence between rings/ring-processors and bus-tree nodes.
#[derive(Debug, Clone)]
pub struct RingConversion {
    /// The equivalent hierarchical bus network (Figure 2).
    pub network: Network,
    /// `bus_of_ring[r]` is the bus representing ringlet `r`.
    pub bus_of_ring: Vec<NodeId>,
    /// For each ring, the processor node created for each `Processor` slot
    /// (indexed by position among that ring's processor slots).
    pub processors_of_ring: Vec<Vec<NodeId>>,
}

impl RingNetwork {
    /// Build a ring network from ringlets; ring 0 must be the root and
    /// every other ring must be referenced by exactly one switch slot.
    pub fn new(rings: Vec<Ringlet>) -> Self {
        RingNetwork { rings }
    }

    /// Number of ringlets.
    pub fn n_rings(&self) -> usize {
        self.rings.len()
    }

    /// The ringlets in id order.
    pub fn rings(&self) -> &[Ringlet] {
        &self.rings
    }

    /// Total processors across all ringlets.
    pub fn n_processors(&self) -> usize {
        self.rings
            .iter()
            .map(|r| r.slots.iter().filter(|s| matches!(s, RingSlot::Processor)).count())
            .sum()
    }

    /// Per-segment loads on ringlet `r` for `transactions` request–response
    /// transactions that touch the ring.
    ///
    /// Each transaction occupies every segment of the unidirectional ring
    /// exactly once (the request travels part of the way, the response the
    /// rest), so every one of the `slots.len()` segments carries exactly
    /// `transactions` — which is why a ringlet is modelled as a bus whose
    /// load equals the number of transactions crossing it.
    pub fn segment_loads(&self, r: RingId, transactions: u64) -> Vec<u64> {
        vec![transactions; self.rings[r.index()].slots.len()]
    }

    /// Convert into the equivalent hierarchical bus network (Figure 1 →
    /// Figure 2): every ringlet becomes a bus of the same bandwidth, every
    /// inter-ring switch becomes a tree edge of the same bandwidth, and
    /// every processor slot becomes a leaf processor behind a bandwidth-1
    /// switch.
    pub fn to_bus_network(&self) -> Result<RingConversion, TopologyError> {
        let mut b = NetworkBuilder::new();
        let bus_of_ring: Vec<NodeId> = self.rings.iter().map(|r| b.add_bus(r.bandwidth)).collect();
        let mut processors_of_ring: Vec<Vec<NodeId>> = vec![Vec::new(); self.rings.len()];
        for (ri, ring) in self.rings.iter().enumerate() {
            for slot in &ring.slots {
                match *slot {
                    RingSlot::Processor => {
                        let p = b.add_processor();
                        b.connect(bus_of_ring[ri], p, 1)?;
                        processors_of_ring[ri].push(p);
                    }
                    RingSlot::Switch { child, bandwidth } => {
                        if child.index() >= self.rings.len() {
                            return Err(TopologyError::UnknownNode(NodeId(child.0)));
                        }
                        b.connect(bus_of_ring[ri], bus_of_ring[child.index()], bandwidth)?;
                    }
                }
            }
        }
        let network = b.build()?;
        Ok(RingConversion { network, bus_of_ring, processors_of_ring })
    }
}

/// Convenience constructor: the "ring of rings" of Figure 1 — a top ring
/// with `n_children` child rings, each carrying `procs_per_ring`
/// processors.
pub fn ring_of_rings(
    n_children: usize,
    procs_per_ring: usize,
    ring_bandwidth: Bandwidth,
    switch_bandwidth: Bandwidth,
) -> RingNetwork {
    assert!(n_children >= 2 && procs_per_ring >= 1);
    let mut rings = Vec::with_capacity(n_children + 1);
    let top = Ringlet {
        bandwidth: ring_bandwidth,
        slots: (0..n_children)
            .map(|i| RingSlot::Switch { child: RingId(1 + i as u32), bandwidth: switch_bandwidth })
            .collect(),
    };
    rings.push(top);
    for _ in 0..n_children {
        rings.push(Ringlet {
            bandwidth: ring_bandwidth,
            slots: (0..procs_per_ring).map(|_| RingSlot::Processor).collect(),
        });
    }
    RingNetwork::new(rings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::NodeKind;

    #[test]
    fn figure_1_to_figure_2() {
        // Figure 1: a top ring joining two child rings via switches.
        let net = ring_of_rings(2, 3, 16, 4);
        assert_eq!(net.n_rings(), 3);
        assert_eq!(net.n_processors(), 6);
        let conv = net.to_bus_network().unwrap();
        let t = &conv.network;
        assert_eq!(t.n_buses(), 3);
        assert_eq!(t.n_processors(), 6);
        // The top ring becomes a bus adjacent to the two child buses.
        let top = conv.bus_of_ring[0];
        assert!(t.is_bus(top));
        assert_eq!(t.node_bandwidth(top), 16);
        for ri in 1..3 {
            let bus = conv.bus_of_ring[ri];
            let on_path: Vec<_> = t.path_nodes(top, bus);
            assert_eq!(on_path.len(), 2, "child ring buses are adjacent to the top bus");
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn processors_map_to_leaves() {
        let net = ring_of_rings(3, 2, 8, 2);
        let conv = net.to_bus_network().unwrap();
        for procs in &conv.processors_of_ring {
            for &p in procs {
                assert_eq!(conv.network.kind(p), NodeKind::Processor);
            }
        }
        // Child rings carry all the processors.
        assert!(conv.processors_of_ring[0].is_empty());
        assert_eq!(conv.processors_of_ring[1].len(), 2);
    }

    #[test]
    fn segment_loads_are_uniform() {
        // The justification for the bus model: a transaction loads every
        // ring segment exactly once.
        let net = ring_of_rings(2, 4, 8, 2);
        let loads = net.segment_loads(RingId(1), 10);
        assert_eq!(loads.len(), 4);
        assert!(loads.iter().all(|&l| l == 10));
    }

    #[test]
    fn reject_dangling_switch() {
        let rings = vec![Ringlet {
            bandwidth: 4,
            slots: vec![RingSlot::Processor, RingSlot::Switch { child: RingId(5), bandwidth: 1 }],
        }];
        let net = RingNetwork::new(rings);
        assert!(net.to_bus_network().is_err());
    }

    #[test]
    fn three_level_hierarchy() {
        // top ring -> 2 mid rings -> 2 leaf rings each with 2 processors.
        let mut rings = vec![Ringlet {
            bandwidth: 32,
            slots: vec![
                RingSlot::Switch { child: RingId(1), bandwidth: 8 },
                RingSlot::Switch { child: RingId(2), bandwidth: 8 },
            ],
        }];
        for mid in 0..2u32 {
            let first_leaf = 3 + mid * 2;
            rings.push(Ringlet {
                bandwidth: 16,
                slots: vec![
                    RingSlot::Switch { child: RingId(first_leaf), bandwidth: 4 },
                    RingSlot::Switch { child: RingId(first_leaf + 1), bandwidth: 4 },
                ],
            });
        }
        for _ in 0..4 {
            rings.push(Ringlet {
                bandwidth: 8,
                slots: vec![RingSlot::Processor, RingSlot::Processor],
            });
        }
        let net = RingNetwork::new(rings);
        let conv = net.to_bus_network().unwrap();
        assert_eq!(conv.network.n_buses(), 7);
        assert_eq!(conv.network.n_processors(), 8);
        assert_eq!(conv.network.height(), 3);
        conv.network.check_invariants().unwrap();
    }
}
