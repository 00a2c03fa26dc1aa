//! # hbn-core
//!
//! The extended-nibble strategy of *"Data Management in Hierarchical Bus
//! Networks"* (SPAA 2000): nibble placement (step 1), the deletion
//! algorithm (step 2) and the mapping algorithm (step 3), with invariant
//! checkers and certified lower bounds.

#![warn(missing_docs)]

pub mod analysis;
pub mod batch;
pub mod copies;
pub mod deletion;
pub mod extended;
pub mod gravity;
pub mod mapping;
pub mod nibble;

pub use analysis::{
    approximation_certificate, certified_lower_bound, ApproxCertificate, LowerBound,
};
pub use batch::PlacementKernel;
pub use copies::{CopyState, Group, ObjectCopies};
pub use deletion::{delete_rarely_used, DeletionOutcome};
pub use extended::{ExtendedNibble, ExtendedNibbleStats, ExtendedOutcome};
pub use gravity::{center_of_gravity, Workspace};
pub use mapping::{
    map_to_leaves, observation_3_3_holds, InvariantForm, MappingError, MappingOptions,
    MappingReport,
};
pub use nibble::{nibble_object, nibble_placement, NibbleOutcome};
