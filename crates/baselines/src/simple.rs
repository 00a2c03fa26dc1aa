//! Single-copy heuristics and the two nibble-based reference strategies.

use crate::Strategy;
use hbn_load::Placement;
use hbn_topology::Network;
use hbn_workload::AccessMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Places every object on an independently uniform random leaf — the
/// "no thought" baseline.
#[derive(Debug, Clone, Copy)]
pub struct RandomLeaf {
    seed: u64,
}

impl RandomLeaf {
    /// A random-leaf strategy with a fixed seed (experiments stay
    /// reproducible).
    pub fn new(seed: u64) -> Self {
        RandomLeaf { seed }
    }
}

impl Strategy for RandomLeaf {
    fn name(&self) -> &'static str {
        "random-leaf"
    }

    fn place(&self, net: &Network, matrix: &AccessMatrix) -> Placement {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let procs = net.processors();
        let mut placement = Placement::new(matrix.n_objects());
        for x in matrix.objects() {
            if matrix.total_weight(x) == 0 {
                continue;
            }
            placement.set_copies(x, vec![procs[rng.gen_range(0..procs.len())]]);
            placement.nearest_assignment_for(net, matrix, x);
        }
        placement
    }
}

/// Places every object on the processor issuing the most requests to it —
/// the classical "owner computes" heuristic of DSM systems.
#[derive(Debug, Clone, Copy, Default)]
pub struct OwnerLeaf;

impl Strategy for OwnerLeaf {
    fn name(&self) -> &'static str {
        "owner-leaf"
    }

    fn place(&self, net: &Network, matrix: &AccessMatrix) -> Placement {
        let mut placement = Placement::new(matrix.n_objects());
        for x in matrix.objects() {
            let owner = matrix
                .object_entries(x)
                .iter()
                .max_by_key(|e| (e.total(), std::cmp::Reverse(e.processor)))
                .map(|e| e.processor);
            if let Some(owner) = owner {
                placement.set_copies(x, vec![owner]);
                placement.nearest_assignment_for(net, matrix, x);
            }
        }
        let _ = net;
        placement
    }
}

/// The step-1 nibble placement with copies allowed on buses: **not** a
/// feasible hierarchical-bus placement, but the per-edge optimal reference
/// that certifies lower bounds (Theorem 3.1).
#[derive(Debug, Clone, Copy, Default)]
pub struct UnrestrictedNibble;

impl Strategy for UnrestrictedNibble {
    fn name(&self) -> &'static str {
        "nibble-unrestricted"
    }

    fn place(&self, net: &Network, matrix: &AccessMatrix) -> Placement {
        hbn_core::nibble_placement(net, matrix)
    }
}

/// The paper's contribution behind the common trait.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExtendedNibbleStrategy;

impl Strategy for ExtendedNibbleStrategy {
    fn name(&self) -> &'static str {
        "extended-nibble"
    }

    fn place(&self, net: &Network, matrix: &AccessMatrix) -> Placement {
        hbn_core::ExtendedNibble::new()
            .place(net, matrix)
            .expect("extended nibble cannot fail on valid input")
            .placement
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbn_topology::generators::star;
    use hbn_workload::ObjectId;

    #[test]
    fn owner_picks_heaviest_requester() {
        let net = star(4, 4);
        let p = net.processors();
        let mut m = AccessMatrix::new(1);
        m.add(p[0], ObjectId(0), 1, 0);
        m.add(p[2], ObjectId(0), 5, 2);
        m.add(p[3], ObjectId(0), 3, 0);
        let placement = OwnerLeaf.place(&net, &m);
        assert_eq!(placement.copies(ObjectId(0)), &[p[2]]);
    }

    #[test]
    fn owner_tie_breaks_to_smaller_id() {
        let net = star(3, 4);
        let p = net.processors();
        let mut m = AccessMatrix::new(1);
        m.add(p[0], ObjectId(0), 2, 0);
        m.add(p[1], ObjectId(0), 2, 0);
        let placement = OwnerLeaf.place(&net, &m);
        assert_eq!(placement.copies(ObjectId(0)), &[p[0]]);
    }

    #[test]
    fn random_leaf_is_deterministic_per_seed() {
        let net = star(6, 4);
        let mut m = AccessMatrix::new(4);
        for (i, &p) in net.processors().iter().enumerate() {
            m.add(p, ObjectId(i as u32 % 4), 2, 1);
        }
        let a = RandomLeaf::new(7).place(&net, &m);
        let b = RandomLeaf::new(7).place(&net, &m);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_weight_objects_get_no_copies() {
        let net = star(3, 4);
        let m = AccessMatrix::new(2);
        for s in [&RandomLeaf::new(0) as &dyn Strategy, &OwnerLeaf] {
            let p = s.place(&net, &m);
            assert_eq!(p.total_copies(), 0, "{}", s.name());
        }
    }
}
