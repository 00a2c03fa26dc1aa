//! EXP-MAP (Lemma 4.1, Invariant 4.2, Observation 3.3): the mapping
//! algorithm always finds a free edge under the *repaired* invariant
//! (see DESIGN.md), and the paper's original `2Σs(c)` form is shown to
//! break on real runs — the erratum, demonstrated.

#![warn(missing_docs)]

use hbn_bench::Table;
use hbn_core::{observation_3_3_holds, ExtendedNibble, InvariantForm, MappingOptions};
use hbn_topology::generators::{balanced, bus_path, random_network, BandwidthProfile};
use hbn_workload::generators as wgen;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    println!("EXP-MAP — Lemma 4.1 / Invariant 4.2 / Observation 3.3\n");
    let mut rng = StdRng::seed_from_u64(4);
    let mut t = Table::new([
        "family",
        "runs",
        "free edge found",
        "obs 3.3",
        "moves up",
        "moves down",
        "max tau",
    ]);

    let mut families: Vec<(&str, Vec<(hbn_topology::Network, hbn_workload::AccessMatrix)>)> =
        Vec::new();
    let mut rand_insts = Vec::new();
    for _ in 0..20 {
        let net = random_network(10, 24, BandwidthProfile::Uniform, &mut rng);
        let m = wgen::uniform(&net, 6, 5, 4, 0.7, &mut rng);
        rand_insts.push((net, m));
    }
    families.push(("random", rand_insts));
    let mut shared = Vec::new();
    for _ in 0..10 {
        let net = balanced(3, 3, BandwidthProfile::Uniform);
        let m = wgen::shared_write(&net, 5, 1, 3);
        shared.push((net, m));
    }
    families.push(("shared-write", shared));
    let mut deep = Vec::new();
    for _ in 0..10 {
        let net = bus_path(12, BandwidthProfile::Uniform);
        let m = wgen::uniform(&net, 8, 5, 5, 1.0, &mut rng);
        deep.push((net, m));
    }
    families.push(("deep-path", deep));
    let mut adv = Vec::new();
    for _ in 0..10 {
        let net = balanced(4, 2, BandwidthProfile::Uniform);
        let m = wgen::balanced_split(&net, 12, 6, &mut rng);
        adv.push((net, m));
    }
    families.push(("balanced-split", adv));

    for (name, instances) in &families {
        let mut ok = true;
        let mut obs = true;
        let mut up = 0u64;
        let mut down = 0u64;
        let mut tau = 0u64;
        for (net, m) in instances {
            let strat = ExtendedNibble {
                options: hbn_core::ExtendedNibbleOptions {
                    mapping: MappingOptions { check_invariants: true, ..Default::default() },
                },
            };
            match strat.place(net, m) {
                Ok(out) => {
                    obs &= observation_3_3_holds(net, &out.mapping);
                    up += out.mapping.moves_up;
                    down += out.mapping.moves_down;
                    tau = tau.max(out.mapping.tau_max);
                }
                Err(_) => ok = false,
            }
        }
        t.row([
            (*name).into(),
            instances.len().to_string(),
            ok.to_string(),
            obs.to_string(),
            up.to_string(),
            down.to_string(),
            tau.to_string(),
        ]);
    }
    println!("{}", t.render());

    // The erratum, demonstrated: the same instances checked against the
    // paper's printed invariant form (2·Σ s(c)) raise violations.
    let mut violations = 0usize;
    let mut runs = 0usize;
    for (_, instances) in &families {
        for (net, m) in instances {
            runs += 1;
            let strat = ExtendedNibble {
                options: hbn_core::ExtendedNibbleOptions {
                    mapping: MappingOptions {
                        check_invariants: true,
                        invariant_form: InvariantForm::PaperOriginal,
                        ..Default::default()
                    },
                },
            };
            if strat.place(net, m).is_err() {
                violations += 1;
            }
        }
    }
    println!("paper-original invariant form (2*sum s(c)): violated on {violations}/{runs} runs\n");
    println!(
        "Expected shape: every run finds free edges with the repaired invariant\n\
         (sum of s+kappa); Observation 3.3 holds on every edge after mapping;\n\
         the paper's printed invariant form fails on a sizable fraction of\n\
         runs — the erratum documented in DESIGN.md, demonstrated."
    );
}
