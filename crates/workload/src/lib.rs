//! # hbn-workload
//!
//! Shared-object workloads for hierarchical bus networks: the read/write
//! frequency matrices `h_r, h_w : P × X → N` of the paper, plus seeded
//! generators for the access-pattern families its introduction motivates
//! (parallel-program globals, virtual-shared-memory pages, WWW pages).

#![warn(missing_docs)]

pub mod arrivals;
pub mod freq;
pub mod generators;
pub mod objects;
pub mod phases;

pub use arrivals::OpenLoopArrivals;
pub use freq::{AccessEntry, AccessMatrix, WorkloadError};
pub use objects::ObjectId;
pub use phases::{PhaseKind, PhaseSchedule, PhaseSpec, PhaseStream, PhaseStreamState, Request};
