//! # hbn-server
//!
//! A supervised multi-tenant session service over the scenario engine —
//! the long-running front end the north star asks for, serving pushed
//! traffic from many concurrent tenants with production-shaped
//! robustness machinery:
//!
//! - **Admission control + backpressure** — every tenant has a bounded
//!   ingest queue; a full queue rejects with [`Rejected::QueueFull`]
//!   and the client backs off, so overload is pushed back to the edge
//!   instead of growing unbounded memory.
//! - **Graceful degradation** — past the high-water mark a tenant
//!   sheds load by serving epochs under the congestion-bound estimator
//!   ([`hbn_scenario::ReplayKernel::Estimate`]) instead of exact
//!   replay; hysteresis restores exact replay once the queue drains.
//!   Degraded epochs are visible per-epoch (`summary.estimate` is
//!   `Some`) — the service degrades *announced*, never silently.
//! - **Deadlines** — a request whose deadline expires before a worker
//!   reaches it is shed with [`Rejected::DeadlineExpired`], bounding
//!   queueing delay for everyone behind it.
//! - **Supervision** — a watchdog snapshots each tenant to a durable
//!   checkpoint on a cadence, detects a panicked worker, restores the
//!   newest readable checkpoint (falling back to the previous one if
//!   the newest is torn), replays the journal of epochs served since
//!   it, reconciles the in-flight request, and respawns the worker —
//!   bit-for-bit the state an unbroken run would have reached.
//!
//! ```
//! use hbn_dynamic::OnlineRequest;
//! use hbn_scenario::{ScenarioSpec, TopologyFamily};
//! use hbn_server::{Server, ServerConfig};
//! use hbn_workload::{ObjectId, PhaseSchedule};
//!
//! let dir = std::env::temp_dir().join(format!("hbn_server_doc_{}", std::process::id()));
//! let server = Server::new(ServerConfig::new(&dir)).unwrap();
//! // A tenant serves pushed traffic only: empty schedule, 8 objects.
//! let topology = TopologyFamily::Star { processors: 4, bus_bandwidth: 2 };
//! let spec = ScenarioSpec::new("tenant-a", topology, PhaseSchedule::new(8, vec![]), 2, 0);
//! server.add_tenant(spec);
//!
//! // Request addresses come from the tenant's own topology.
//! let procs = server.processors("tenant-a").unwrap();
//! let batch: Vec<OnlineRequest> = (0..16u32)
//!     .map(|i| OnlineRequest {
//!         processor: procs[i as usize % procs.len()],
//!         object: ObjectId(i % 8),
//!         is_write: i % 3 == 0,
//!     })
//!     .collect();
//! let outcome = server.submit("tenant-a", batch, None).unwrap().wait().unwrap();
//! assert_eq!(outcome.epoch, 0);
//! assert_eq!(outcome.summary.traffic.requests, 16);
//!
//! let reports = server.shutdown();
//! assert_eq!(reports.len(), 1);
//! assert_eq!(reports[0].1.epochs.len(), 1);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod metrics;
mod server;
mod tenant;

pub use config::ServerConfig;
pub use error::{Rejected, ServerError};
pub use hbn_dynamic::OnlineRequest;
pub use metrics::{percentile, TenantMetrics};
pub use server::{Server, Ticket};
pub use tenant::{EpochOutcome, ServeMode};
