//! Quickstart: place shared objects on a hierarchical bus network with the
//! extended-nibble strategy and audit the paper's guarantees.
//!
//! Run with: `cargo run --release --example quickstart`

use hierbus::core::approximation_certificate;
use hierbus::prelude::*;
use hierbus::topology::generators::{balanced, BandwidthProfile};
use rand::rngs::StdRng;

fn main() {
    // A 3-level machine: 27 processors under a fat-tree of buses.
    let net = balanced(3, 3, BandwidthProfile::FatTree { base: 3, cap: 27 });
    println!(
        "network: {} processors, {} buses, height {}, max degree {}",
        net.n_processors(),
        net.n_buses(),
        net.height(),
        net.max_degree()
    );

    // 64 shared objects with Zipf popularity, 30% writes.
    let mut rng = StdRng::seed_from_u64(42);
    let matrix =
        hierbus::workload::generators::zipf_read_mostly(&net, 64, 5_000, 1.0, 0.3, &mut rng);
    let writes: u64 = matrix.objects().map(|x| matrix.write_contention(x)).sum();
    let kappa_max = matrix.objects().map(|x| matrix.write_contention(x)).max().unwrap_or(0);
    println!(
        "workload: {} requests over {} objects, write fraction {:.2}, κ_max = {}",
        matrix.grand_total(),
        matrix.n_objects(),
        writes as f64 / matrix.grand_total() as f64,
        kappa_max
    );

    // Steps 1-3 of the paper.
    let outcome = ExtendedNibble::new().place(&net, &matrix).expect("valid instance");
    assert!(outcome.placement.is_leaf_only(&net));
    println!(
        "extended-nibble: {} objects processed, {} untouched, {} copies deleted, {} splits, τ_max = {}",
        outcome.stats.objects_processed,
        outcome.stats.objects_untouched,
        outcome.stats.copies_deleted,
        outcome.stats.copies_split,
        outcome.mapping.tau_max
    );

    // Exact congestion and the Theorem 4.3 certificate.
    let cert = approximation_certificate(&net, &matrix, &outcome);
    println!("congestion          = {}", cert.congestion);
    println!("accounting bound    = {}", cert.accounting_congestion);
    println!("certified lower bnd = {}", cert.lower_bound.value());
    println!("lemma 4.5 per-edge  = {}", cert.lemma_4_5_ok);
    println!("lemma 4.6 per-bus   = {}", cert.lemma_4_6_ok);
    if let Some(ratio) = cert.ratio {
        println!("ratio vs lower bnd  = {ratio:.3} (theorem guarantees ≤ 7)");
        assert!(ratio <= 7.0);
    }
}
