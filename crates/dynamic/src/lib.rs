//! # hbn-dynamic
//!
//! Online (dynamic) data management on trees — the extension the paper's
//! related work (Section 1.3) points to: with no knowledge of the access
//! pattern, maintain copies online; the strategy family of \[10\] is
//! 3-competitive on trees. Implements the read-replicate / write-collapse
//! strategy with a configurable replication threshold and an empirical
//! competitive-analysis harness against the hindsight nibble placement.
//!
//! ## The serve loop
//!
//! Feed requests to a [`DynamicTree`] one at a time; it maintains a
//! connected replica subtree per object and charges all traffic to a load
//! map comparable with the static placements. [`DynamicTree::serve`] is
//! allocation-free in steady state and O(depth) amortized per request
//! (generation-stamped membership, lazy counter resets — see `DESIGN.md`
//! §5); [`DynamicTree::serve_reference`] is the naive pinned reference
//! kernel. [`DynamicTree::serve_trace`] serves a whole trace on the
//! kernel a tree is pinned to ([`DynamicTree::reference`] pins the naive
//! one):
//!
//! ```
//! use hbn_dynamic::{DynamicTree, OnlineRequest};
//! use hbn_topology::generators::star;
//! use hbn_workload::ObjectId;
//!
//! let net = star(3, 4);
//! let p = net.processors();
//! let x = ObjectId(0);
//! // Replication threshold D = 2: an edge replicates after two reads.
//! let mut strategy = DynamicTree::new(&net, 1, 2);
//!
//! // First touch materialises the object at the requester for free.
//! strategy.serve(&net, OnlineRequest { processor: p[0], object: x, is_write: false });
//! // Two remote reads saturate the path; copies grow towards the reader.
//! strategy.serve(&net, OnlineRequest { processor: p[1], object: x, is_write: false });
//! strategy.serve(&net, OnlineRequest { processor: p[1], object: x, is_write: false });
//! assert!(strategy.replicas(x).contains(&p[1]));
//!
//! // A write updates all copies and collapses the subtree to one copy.
//! strategy.serve(&net, OnlineRequest { processor: p[2], object: x, is_write: true });
//! assert_eq!(strategy.replicas(x).len(), 1);
//! assert_eq!(strategy.stats().collapses, 1);
//! ```

#![warn(missing_docs)]

pub mod competitive;
pub mod strategy;

pub use competitive::{run_competitive, CompetitiveReport};
pub use strategy::{online_trace, DynamicStats, DynamicTree, ObjectExport, OnlineRequest};
