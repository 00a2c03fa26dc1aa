//! # hbn-sim
//!
//! Packet-level simulator of hierarchical bus networks, built to test the
//! paper's motivating claim (Section 1, citing the authors' SPAA'99
//! evaluation): application completion time tracks the *congestion* of the
//! data management strategy. Switches forward `b(e)` packets per slot,
//! buses sustain `2·b(B)` edge incidences per slot, write broadcasts
//! multicast along Steiner trees — so replayed traffic reproduces the load
//! model exactly, and the makespan is lower-bounded by the congestion.
//!
//! Two implementations share these semantics: the kernel and its oracle.
//! The kernel ([`simulate`] / [`simulate_with`]) is event-driven — it
//! probes switch-queue heads, not every waiting packet — performs no heap
//! allocation in its steady-state slot loop and reuses a [`SimWorkspace`]
//! across replays. The naive oracle is retained as [`simulate_reference`]
//! and pins the kernel bit for bit in the differential test suite.
//!
//! ## Replaying a workload
//!
//! Expand a frequency matrix into a trace and replay it under a
//! placement:
//!
//! ```
//! use hbn_load::Placement;
//! use hbn_sim::{expand, simulate, SimConfig};
//! use hbn_topology::generators::star;
//! use hbn_workload::{AccessMatrix, ObjectId};
//!
//! let net = star(3, 100);
//! let p = net.processors();
//! let mut matrix = AccessMatrix::new(1);
//! matrix.add(p[0], ObjectId(0), 1, 0); // one read from p0
//!
//! // Serve it from a copy on p1: the packet crosses two switches.
//! let placement = Placement::single_leaf(&net, &matrix, |_| p[1]);
//! let result = simulate(&net, &matrix, &placement, &expand(&matrix), SimConfig::default())
//!     .expect("full replays are always routable");
//! assert_eq!(result.delivered_requests, 1);
//! assert_eq!(result.makespan, 2);
//! assert_eq!(result.mean_latency, 2.0);
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod estimate;
pub mod packet;
pub mod reference;
pub mod trace;
pub mod workspace;

pub use engine::{simulate, simulate_with, simulate_with_overlay, SimConfig, SimError, SimResult};
pub use estimate::{estimate_makespan, estimate_makespan_from_loads, MakespanBounds};
pub use packet::{Packet, PacketKind};
pub use reference::{simulate_reference, simulate_reference_overlay};
pub use trace::{expand, expand_shuffled, Request};
pub use workspace::SimWorkspace;
