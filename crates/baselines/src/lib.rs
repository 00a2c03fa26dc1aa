//! # hbn-baselines
//!
//! Baseline placement strategies behind a common [`Strategy`] trait, used
//! by the comparison experiments (EXP-BASE, EXP-SIM). The interesting
//! comparison points around the paper's extended-nibble strategy are:
//!
//! * naive single-copy heuristics (random leaf, owner leaf),
//! * a congestion-aware greedy,
//! * local search refinement,
//! * the *unrestricted* nibble placement, which may use buses — infeasible
//!   in the hierarchical bus model but a certified lower bound.

#![warn(missing_docs)]

pub mod greedy;
pub mod local_search;
pub mod simple;

use hbn_load::Placement;
use hbn_topology::Network;
use hbn_workload::AccessMatrix;

/// A placement strategy: anything that turns a workload on a network into
/// a placement.
pub trait Strategy {
    /// Human-readable name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Compute a placement. Implementations must return placements that
    /// validate against `(net, matrix)`; all baselines here are also
    /// leaf-only except [`simple::UnrestrictedNibble`].
    fn place(&self, net: &Network, matrix: &AccessMatrix) -> Placement;
}

pub use greedy::GreedyCongestion;
pub use local_search::LocalSearch;
pub use simple::{ExtendedNibbleStrategy, OwnerLeaf, RandomLeaf, UnrestrictedNibble};

#[cfg(test)]
mod tests {
    use super::*;
    use hbn_load::LoadMap;
    use hbn_topology::generators::{balanced, BandwidthProfile};
    use hbn_workload::generators as wgen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn every_strategy_produces_valid_placements() {
        let net = balanced(3, 2, BandwidthProfile::Uniform);
        let mut rng = StdRng::seed_from_u64(90);
        let m = wgen::uniform(&net, 6, 5, 3, 0.6, &mut rng);
        let strategies: Vec<Box<dyn Strategy>> = vec![
            Box::new(RandomLeaf::new(1)),
            Box::new(OwnerLeaf),
            Box::new(GreedyCongestion),
            Box::new(LocalSearch::around(OwnerLeaf, 100)),
            Box::new(ExtendedNibbleStrategy),
        ];
        for s in &strategies {
            let p = s.place(&net, &m);
            p.validate(&net, &m).unwrap_or_else(|e| panic!("{}: {e}", s.name()));
            assert!(p.is_leaf_only(&net), "{} must be bus-feasible", s.name());
        }
    }

    #[test]
    fn unrestricted_nibble_lower_bounds_the_leaf_strategies() {
        let net = balanced(2, 3, BandwidthProfile::Uniform);
        let mut rng = StdRng::seed_from_u64(91);
        let m = wgen::zipf_read_mostly(&net, 8, 600, 0.9, 0.4, &mut rng);
        let nib = UnrestrictedNibble.place(&net, &m);
        let nib_c = LoadMap::from_placement(&net, &m, &nib).congestion(&net).congestion;
        for s in [
            Box::new(OwnerLeaf) as Box<dyn Strategy>,
            Box::new(GreedyCongestion),
            Box::new(ExtendedNibbleStrategy),
        ] {
            let p = s.place(&net, &m);
            let c = LoadMap::from_placement(&net, &m, &p).congestion(&net).congestion;
            assert!(nib_c <= c, "{} beat the lower bound", s.name());
        }
    }
}
