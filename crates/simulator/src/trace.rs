//! Request traces: orderings of the workload's individual requests.

use hbn_workload::AccessMatrix;
use rand::Rng;

/// One request to replay: the workload's request type.
pub use hbn_workload::Request;

/// Expand the frequency matrix into its individual requests (each entry
/// `(P, x)` contributes `h_r` reads and `h_w` writes), in deterministic
/// object/processor order.
pub fn expand(matrix: &AccessMatrix) -> Vec<Request> {
    let mut out = Vec::new();
    for x in matrix.objects() {
        for e in matrix.object_entries(x) {
            for _ in 0..e.reads {
                out.push(Request { processor: e.processor, object: x, is_write: false });
            }
            for _ in 0..e.writes {
                out.push(Request { processor: e.processor, object: x, is_write: true });
            }
        }
    }
    out
}

/// [`expand`] followed by a seeded Fisher–Yates shuffle — the order in
/// which independent parallel processors would interleave their requests.
pub fn expand_shuffled<R: Rng>(matrix: &AccessMatrix, rng: &mut R) -> Vec<Request> {
    let mut reqs = expand(matrix);
    for i in (1..reqs.len()).rev() {
        let j = rng.gen_range(0..=i);
        reqs.swap(i, j);
    }
    reqs
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbn_topology::NodeId;
    use hbn_workload::ObjectId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn expand_counts_every_request() {
        let mut m = AccessMatrix::new(2);
        m.add(NodeId(1), ObjectId(0), 3, 2);
        m.add(NodeId(2), ObjectId(1), 0, 4);
        let reqs = expand(&m);
        assert_eq!(reqs.len(), 9);
        assert_eq!(reqs.iter().filter(|r| r.is_write).count(), 6);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut m = AccessMatrix::new(1);
        m.add(NodeId(1), ObjectId(0), 5, 5);
        let mut rng = StdRng::seed_from_u64(7);
        let a = expand(&m);
        let mut b = expand_shuffled(&m, &mut rng);
        assert_eq!(a.len(), b.len());
        b.sort_by_key(|r| (r.processor, r.object, r.is_write));
        let mut a2 = a.clone();
        a2.sort_by_key(|r| (r.processor, r.object, r.is_write));
        assert_eq!(a2, b);
    }
}
