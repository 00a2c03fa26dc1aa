//! # hbn-topology
//!
//! Hierarchical bus networks, the substrate of *"Data Management in
//! Hierarchical Bus Networks"* (Meyer auf der Heide, Räcke, Westermann,
//! SPAA 2000).
//!
//! A hierarchical bus network is a weighted tree `T = (P ∪ B, E, b)`:
//! processors `P` at the leaves, buses `B` at the inner nodes, switches as
//! edges, and a bandwidth function `b` on buses and switches. Processor
//! switches have bandwidth 1 and are the slowest part of the system.
//!
//! This crate provides:
//!
//! * [`Network`] — the immutable rooted tree with O(1) structural queries,
//!   LCA, paths and subtree ranges ([`tree`]);
//! * [`NetworkBuilder`] — validated construction ([`builder`]);
//! * [`CapacityOverlay`] — per-bus degraded/dead capacity overlays for
//!   fault injection — and [`CapacityProfile`] — static heterogeneous
//!   bus capacities applied at build time ([`capacity`]);
//! * deterministic generators for stars, balanced trees, caterpillars, bus
//!   paths and random networks ([`generators`]);
//! * SCI ring-of-rings networks and the paper's Figure 1 → Figure 2
//!   reduction to bus trees ([`sci`]);
//! * Steiner trees of terminal sets, used by write-broadcast accounting
//!   ([`steiner`]);
//! * DOT export ([`dot`]).

#![warn(missing_docs)]

pub mod builder;
pub mod capacity;
pub mod dot;
pub mod error;
pub mod generators;
pub mod ids;
pub mod sci;
pub mod steiner;
pub mod tree;

pub use builder::NetworkBuilder;
pub use capacity::{CapacityOverlay, CapacityProfile};
pub use error::TopologyError;
pub use ids::{Bandwidth, DirEdge, Direction, EdgeId, NodeId};
pub use tree::{Network, NodeKind, PathEdges, PathNodes};
