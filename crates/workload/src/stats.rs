//! Aggregate workload statistics used in experiment reports.

use crate::freq::AccessMatrix;
use crate::objects::ObjectId;

/// Per-object summary: weights and contention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectStats {
    /// The object.
    pub object: ObjectId,
    /// Total requests `h_x`.
    pub total_weight: u64,
    /// Total reads.
    pub reads: u64,
    /// Write contention `κ_x`.
    pub write_contention: u64,
    /// Number of distinct requesting processors.
    pub n_requesters: usize,
}

/// Whole-workload summary.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadStats {
    /// One row per object, in object-id order.
    pub objects: Vec<ObjectStats>,
    /// Grand total of requests.
    pub grand_total: u64,
    /// Maximum write contention over all objects (`κ_max`).
    pub max_write_contention: u64,
    /// Fraction of requests that are writes.
    pub write_fraction: f64,
}

/// Compute summary statistics of `m`.
pub fn workload_stats(m: &AccessMatrix) -> WorkloadStats {
    let objects: Vec<ObjectStats> = m
        .objects()
        .map(|x| ObjectStats {
            object: x,
            total_weight: m.total_weight(x),
            reads: m.total_reads(x),
            write_contention: m.write_contention(x),
            n_requesters: m.object_entries(x).len(),
        })
        .collect();
    let grand_total: u64 = objects.iter().map(|o| o.total_weight).sum();
    let total_writes: u64 = objects.iter().map(|o| o.write_contention).sum();
    let max_write_contention = objects.iter().map(|o| o.write_contention).max().unwrap_or(0);
    WorkloadStats {
        objects,
        grand_total,
        max_write_contention,
        write_fraction: if grand_total == 0 {
            0.0
        } else {
            total_writes as f64 / grand_total as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbn_topology::NodeId;

    #[test]
    fn stats_of_small_workload() {
        let mut m = AccessMatrix::new(2);
        m.add(NodeId(1), ObjectId(0), 4, 1);
        m.add(NodeId(2), ObjectId(0), 0, 3);
        m.add(NodeId(1), ObjectId(1), 2, 0);
        let s = workload_stats(&m);
        assert_eq!(s.grand_total, 10);
        assert_eq!(s.max_write_contention, 4);
        assert_eq!(s.objects[0].n_requesters, 2);
        assert_eq!(s.objects[1].write_contention, 0);
        assert!((s.write_fraction - 0.4).abs() < 1e-12);
    }

    #[test]
    fn stats_of_empty_workload() {
        let m = AccessMatrix::new(3);
        let s = workload_stats(&m);
        assert_eq!(s.grand_total, 0);
        assert_eq!(s.write_fraction, 0.0);
        assert_eq!(s.objects.len(), 3);
    }
}

#[cfg(test)]
mod distribution_tests {
    use super::*;
    use crate::generators::{shared_write, zipf_read_mostly};
    use hbn_topology::generators::{balanced, BandwidthProfile};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_stats_reflect_skew() {
        let net = balanced(3, 2, BandwidthProfile::Uniform);
        let mut rng = StdRng::seed_from_u64(77);
        let m = zipf_read_mostly(&net, 20, 5000, 1.2, 0.2, &mut rng);
        let s = workload_stats(&m);
        assert_eq!(s.grand_total, 5000);
        // Rank 0 should dominate the tail under strong skew.
        let first = s.objects[0].total_weight;
        let last = s.objects.last().unwrap().total_weight;
        assert!(first > 4 * last.max(1), "skew not visible: {first} vs {last}");
        assert!((0.1..0.35).contains(&s.write_fraction));
    }

    #[test]
    fn shared_write_stats_are_uniform() {
        let net = balanced(2, 2, BandwidthProfile::Uniform);
        let m = shared_write(&net, 3, 2, 5);
        let s = workload_stats(&m);
        for o in &s.objects {
            assert_eq!(o.write_contention, 5 * net.n_processors() as u64);
            assert_eq!(o.n_requesters, net.n_processors());
        }
        assert_eq!(s.max_write_contention, 5 * net.n_processors() as u64);
    }
}
