//! # hierbus
//!
//! A complete implementation of *"Data Management in Hierarchical Bus
//! Networks"* (F. Meyer auf der Heide, H. Räcke, M. Westermann,
//! SPAA 2000): the extended-nibble placement strategy with its 7-approx
//! congestion guarantee, plus every substrate needed to state, check and
//! measure the paper's claims — topologies, workloads, exact load
//! accounting, exact solvers, baselines, a distributed executor and a
//! packet-level simulator.
//!
//! ## Quick start
//!
//! ```
//! use hierbus::prelude::*;
//!
//! // An SCI-style machine: 3 ringlets of 4 processors under a top ring.
//! let rings = hierbus::topology::sci::ring_of_rings(3, 4, 16, 4);
//! let net = rings.to_bus_network().unwrap().network;
//!
//! // A seeded workload: 32 shared objects, mostly reads.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let matrix =
//!     hierbus::workload::generators::zipf_read_mostly(&net, 32, 2_000, 0.9, 0.2, &mut rng);
//!
//! // Place the objects with the paper's strategy and measure congestion.
//! let outcome = ExtendedNibble::new().place(&net, &matrix).unwrap();
//! let loads = LoadMap::from_placement(&net, &matrix, &outcome.placement);
//! let congestion = loads.congestion(&net);
//! assert!(outcome.placement.is_leaf_only(&net));
//! println!("congestion = {}", congestion.congestion);
//! ```
//!
//! For end-to-end experiments — phase-scheduled online traffic served by
//! the dynamic strategy and replayed on the simulator — see
//! [`scenario`].

#![warn(missing_docs)]

pub use hbn_baselines as baselines;
pub use hbn_core as core;
pub use hbn_distributed as distributed;
pub use hbn_dynamic as dynamic;
pub use hbn_exact as exact;
pub use hbn_load as load;
pub use hbn_scenario as scenario;
pub use hbn_sim as sim;
pub use hbn_topology as topology;
pub use hbn_workload as workload;

/// The items most programs need.
pub mod prelude {
    pub use hbn_baselines::Strategy;
    pub use hbn_core::{
        approximation_certificate, ExtendedNibble, ExtendedOutcome, PlacementKernel,
    };
    pub use hbn_load::{LoadMap, LoadRatio, Placement};
    pub use hbn_topology::{Network, NetworkBuilder, NodeId};
    pub use hbn_workload::{AccessMatrix, ObjectId};
    pub use rand::SeedableRng as _;
}
