//! Seeded workload generators covering the access-pattern regimes the
//! paper's introduction motivates: global variables of parallel programs
//! (write sharing), virtual-shared-memory pages (migratory/hotspot), and
//! WWW pages (read-mostly, skewed popularity).
//!
//! Every generator is deterministic given its parameters and RNG seed.

use crate::freq::AccessMatrix;
use crate::objects::ObjectId;
use hbn_topology::{Network, NodeId};
use rand::Rng;

/// Zipf sampler over ranks `0..n` with exponent `s`, via an explicit CDF
/// and binary search (deterministic, no external distribution crates).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `n ≥ 1` ranks with exponent `s ≥ 0`
    /// (`s = 0` is uniform; larger `s` is more skewed).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1);
        assert!(s >= 0.0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = *cdf.last().expect("n >= 1");
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draw a rank in `0..n`; rank 0 is the most popular.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Dense uniform workload: every (processor, object) pair independently
/// receives `U[0..=max_reads]` reads and `U[0..=max_writes]` writes, kept
/// with probability `density`.
pub fn uniform<R: Rng>(
    net: &Network,
    n_objects: usize,
    max_reads: u64,
    max_writes: u64,
    density: f64,
    rng: &mut R,
) -> AccessMatrix {
    let mut m = AccessMatrix::new(n_objects);
    for x in 0..n_objects as u32 {
        for &p in net.processors() {
            if rng.gen_bool(density.clamp(0.0, 1.0)) {
                let r = rng.gen_range(0..=max_reads);
                let w = rng.gen_range(0..=max_writes);
                m.add(p, ObjectId(x), r, w);
            }
        }
    }
    m
}

/// WWW-style read-mostly workload: object popularity is Zipf(`skew`),
/// requesting processors are uniform, and a fraction `write_fraction` of
/// requests are writes (typically small). `n_requests` total requests are
/// drawn.
pub fn zipf_read_mostly<R: Rng>(
    net: &Network,
    n_objects: usize,
    n_requests: usize,
    skew: f64,
    write_fraction: f64,
    rng: &mut R,
) -> AccessMatrix {
    let mut m = AccessMatrix::new(n_objects);
    let zipf = Zipf::new(n_objects, skew);
    let procs = net.processors();
    for _ in 0..n_requests {
        let x = ObjectId(zipf.sample(rng) as u32);
        let p = procs[rng.gen_range(0..procs.len())];
        if rng.gen_bool(write_fraction.clamp(0.0, 1.0)) {
            m.add(p, x, 0, 1);
        } else {
            m.add(p, x, 1, 0);
        }
    }
    m
}

/// Parallel-program style sharing: each object has one *producer*
/// (writes `writes_per_producer`) and `consumers` readers (each reads
/// `reads_per_consumer`), drawn uniformly without replacement.
pub fn producer_consumer<R: Rng>(
    net: &Network,
    n_objects: usize,
    consumers: usize,
    writes_per_producer: u64,
    reads_per_consumer: u64,
    rng: &mut R,
) -> AccessMatrix {
    let mut m = AccessMatrix::new(n_objects);
    let procs = net.processors();
    for x in 0..n_objects as u32 {
        let x = ObjectId(x);
        let producer = procs[rng.gen_range(0..procs.len())];
        m.add(producer, x, 0, writes_per_producer);
        let mut pool: Vec<NodeId> = procs.iter().copied().filter(|&p| p != producer).collect();
        let k = consumers.min(pool.len());
        for _ in 0..k {
            let i = rng.gen_range(0..pool.len());
            let reader = pool.swap_remove(i);
            m.add(reader, x, reads_per_consumer, 0);
        }
    }
    m
}

/// Heavily write-shared objects (global counters, locks): every processor
/// writes each object `writes_each` times and reads it `reads_each` times.
/// This maximises write contention `κ_x` and stresses the broadcast terms.
pub fn shared_write(
    net: &Network,
    n_objects: usize,
    reads_each: u64,
    writes_each: u64,
) -> AccessMatrix {
    let mut m = AccessMatrix::new(n_objects);
    for x in 0..n_objects as u32 {
        for &p in net.processors() {
            m.add(p, ObjectId(x), reads_each, writes_each);
        }
    }
    m
}

/// Hotspot workload: a fraction `hot_fraction` of processors (the "hot
/// set") issues `hot_weight` times the traffic of the others; accesses are
/// spread over all objects uniformly with the given read/write amounts.
pub fn hotspot<R: Rng>(
    net: &Network,
    n_objects: usize,
    hot_fraction: f64,
    hot_weight: u64,
    base_reads: u64,
    base_writes: u64,
    rng: &mut R,
) -> AccessMatrix {
    let mut m = AccessMatrix::new(n_objects);
    let procs = net.processors();
    let n_hot = ((procs.len() as f64 * hot_fraction).ceil() as usize).clamp(1, procs.len());
    // Deterministic hot set given the RNG: shuffle indices.
    let mut idx: Vec<usize> = (0..procs.len()).collect();
    for i in (1..idx.len()).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    let hot: std::collections::HashSet<usize> = idx[..n_hot].iter().copied().collect();
    for x in 0..n_objects as u32 {
        for (i, &p) in procs.iter().enumerate() {
            let scale = if hot.contains(&i) { hot_weight } else { 1 };
            m.add(p, ObjectId(x), base_reads * scale, base_writes * scale);
        }
    }
    m
}

/// Adversarial "balanced split" workload for the mapping algorithm: for
/// each object, two processors in *different* subtrees of a random bus get
/// equal write weight, so the per-object center of gravity is an inner
/// node and the nibble strategy wants a copy on a bus — forcing the
/// deletion/mapping machinery to do real work.
pub fn balanced_split<R: Rng>(
    net: &Network,
    n_objects: usize,
    weight: u64,
    rng: &mut R,
) -> AccessMatrix {
    let mut m = AccessMatrix::new(n_objects);
    let buses: Vec<NodeId> = net.nodes().filter(|&v| net.is_bus(v)).collect();
    let procs = net.processors();
    for x in 0..n_objects as u32 {
        let x = ObjectId(x);
        if buses.is_empty() || procs.len() < 2 {
            m.add(procs[0], x, 0, weight);
            continue;
        }
        let bus = buses[rng.gen_range(0..buses.len())];
        // Pick two processors whose paths to each other pass through `bus`:
        // one per distinct neighbor subtree.
        let mut groups: Vec<Vec<NodeId>> = Vec::new();
        for &p in procs {
            let towards = if p == bus { continue } else { net.step_towards(bus, p) };
            match groups.iter_mut().find(|g| net.step_towards(bus, g[0]) == towards) {
                Some(g) => g.push(p),
                None => groups.push(vec![p]),
            }
        }
        if groups.len() >= 2 {
            let a = &groups[0];
            let b = &groups[1];
            let pa = a[rng.gen_range(0..a.len())];
            let pb = b[rng.gen_range(0..b.len())];
            m.add(pa, x, 0, weight);
            m.add(pb, x, 0, weight);
        } else {
            m.add(procs[rng.gen_range(0..procs.len())], x, 0, weight);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbn_topology::generators::{balanced, star, BandwidthProfile};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net() -> Network {
        balanced(3, 2, BandwidthProfile::Uniform)
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(10, 1.2);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 10];
        for _ in 0..20_000 {
            let k = z.sample(&mut rng);
            assert!(k < 10);
            counts[k] += 1;
        }
        assert!(counts[0] > counts[9] * 3, "rank 0 should dominate: {counts:?}");
    }

    #[test]
    fn zipf_zero_exponent_is_roughly_uniform() {
        let z = Zipf::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((8000..12000).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn uniform_density_controls_nnz() {
        let t = net();
        let mut rng = StdRng::seed_from_u64(3);
        let full = uniform(&t, 4, 5, 5, 1.0, &mut rng);
        // density 1.0 keeps every pair except all-zero draws.
        assert!(full.nnz() >= 30);
        let mut rng = StdRng::seed_from_u64(3);
        let empty = uniform(&t, 4, 5, 5, 0.0, &mut rng);
        assert_eq!(empty.nnz(), 0);
        full.validate(&t).unwrap();
    }

    #[test]
    fn zipf_read_mostly_counts_requests() {
        let t = net();
        let mut rng = StdRng::seed_from_u64(4);
        let m = zipf_read_mostly(&t, 8, 1000, 1.0, 0.1, &mut rng);
        assert_eq!(m.grand_total(), 1000);
        let writes: u64 = m.objects().map(|x| m.write_contention(x)).sum();
        assert!(writes > 40 && writes < 250, "≈10% writes, got {writes}");
        m.validate(&t).unwrap();
    }

    /// Under strong skew the rank-0 object draws far more requests than
    /// the last one.
    #[test]
    fn zipf_read_mostly_is_skewed_by_rank() {
        let mut rng = StdRng::seed_from_u64(77);
        let m = zipf_read_mostly(&net(), 20, 5000, 1.2, 0.2, &mut rng);
        assert_eq!(m.grand_total(), 5000);
        let first = m.total_weight(ObjectId(0));
        let last = m.total_weight(ObjectId(19));
        assert!(first > 4 * last.max(1), "skew not visible: {first} vs {last}");
        let writes: u64 = m.objects().map(|x| m.write_contention(x)).sum();
        assert!((500..1750).contains(&writes), "≈20% writes, got {writes}");
    }

    #[test]
    fn producer_consumer_shape() {
        let t = net();
        let mut rng = StdRng::seed_from_u64(5);
        let m = producer_consumer(&t, 6, 3, 10, 5, &mut rng);
        for x in m.objects() {
            assert_eq!(m.write_contention(x), 10, "one producer with 10 writes");
            assert_eq!(m.total_reads(x), 15, "three consumers with 5 reads");
            assert_eq!(m.object_entries(x).len(), 4);
        }
        m.validate(&t).unwrap();
    }

    #[test]
    fn shared_write_maximises_contention() {
        let t = net();
        let m = shared_write(&t, 2, 1, 3);
        for x in m.objects() {
            assert_eq!(m.write_contention(x), 3 * t.n_processors() as u64);
        }
        m.validate(&t).unwrap();
    }

    /// Every processor requests every object, so each object's write
    /// contention is the workload's maximum.
    #[test]
    fn shared_write_requests_are_uniform() {
        let t = balanced(2, 2, BandwidthProfile::Uniform);
        let m = shared_write(&t, 3, 2, 5);
        for x in m.objects() {
            assert_eq!(m.write_contention(x), 5 * t.n_processors() as u64);
            assert_eq!(m.object_entries(x).len(), t.n_processors());
        }
        let max = m.objects().map(|x| m.write_contention(x)).max();
        assert_eq!(max, Some(5 * t.n_processors() as u64));
    }

    #[test]
    fn hotspot_scales_hot_processors() {
        let t = net();
        let mut rng = StdRng::seed_from_u64(6);
        let m = hotspot(&t, 1, 0.25, 10, 2, 1, &mut rng);
        let x = ObjectId(0);
        let weights: Vec<u64> = t.processors().iter().map(|&p| m.total(p, x)).collect();
        let hot = weights.iter().filter(|&&w| w == 30).count();
        let cold = weights.iter().filter(|&&w| w == 3).count();
        assert_eq!(hot + cold, t.n_processors());
        assert_eq!(hot, 3, "25% of 9 processors, rounded up");
        m.validate(&t).unwrap();
    }

    #[test]
    fn balanced_split_puts_weight_in_two_subtrees() {
        let t = net();
        let mut rng = StdRng::seed_from_u64(7);
        let m = balanced_split(&t, 10, 4, &mut rng);
        for x in m.objects() {
            let entries = m.object_entries(x);
            assert!(!entries.is_empty());
            let total: u64 = entries.iter().map(|e| e.writes).sum();
            assert!(total == 4 || total == 8);
        }
        m.validate(&t).unwrap();
    }

    #[test]
    fn generators_are_seed_deterministic() {
        let t = star(6, 2);
        let a = zipf_read_mostly(&t, 5, 500, 0.8, 0.2, &mut StdRng::seed_from_u64(9));
        let b = zipf_read_mostly(&t, 5, 500, 0.8, 0.2, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
