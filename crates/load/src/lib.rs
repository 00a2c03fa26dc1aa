//! # hbn-load
//!
//! Placements and exact load accounting for hierarchical bus networks.
//!
//! Implements the cost model of the paper's Section 1.1: read paths, write
//! paths plus Steiner-tree update broadcasts, half-sum bus loads, and the
//! congestion (maximum relative load) compared *exactly* as rationals.

#![warn(missing_docs)]

pub mod accounting;
pub mod bounds;
pub mod placement;
pub mod ratio;

pub use accounting::{add_object_loads, LoadMap};
pub use bounds::{makespan_bounds, InjectionProfile, MakespanBounds};
pub use placement::{
    nearest_copy_map, placement_stats, AssignmentEntry, Bottleneck, CongestionReport,
    NearestCopies, Placement, PlacementError, PlacementStats,
};
pub use ratio::LoadRatio;
