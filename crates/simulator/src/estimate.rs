//! Congestion-bound makespan estimation — replay without the slot loop.
//!
//! [`estimate_makespan`] prices an epoch in `O(|V| + nnz)` instead of
//! `O(makespan · active packets)`: per-pool crossing totals come from the
//! exact load accounting ([`LoadMap::from_placement`], which the replayed
//! traffic reproduces pool-for-pool), the injection tail from the access
//! matrix, and [`hbn_load::makespan_bounds`] turns both into inclusive
//! lower/upper makespan bounds. The scenario engine's
//! `ReplayKernel::Estimate` uses this for every epoch and cross-checks a
//! sampled subset against the exact kernel; the bracket property is
//! pinned by the estimator test suite.

use crate::engine::SimConfig;
use hbn_load::{makespan_bounds, InjectionProfile, LoadMap, MakespanBounds, Placement};
use hbn_topology::{CapacityOverlay, Network};
use hbn_workload::AccessMatrix;

/// Extract the injection-side profile of replaying the full `matrix` at
/// `config.injection_rate` requests per processor per slot. Only the
/// matrix's support has entries, so only it is walked.
pub(crate) fn injection_profile(
    net: &Network,
    matrix: &AccessMatrix,
    config: SimConfig,
) -> InjectionProfile {
    let n_procs = net.n_processors();
    let mut per_proc = vec![0u64; n_procs];
    let mut total = 0u64;
    let mut has_writes = false;
    for x in matrix.support() {
        for e in matrix.object_entries(x) {
            let w = e.reads + e.writes;
            if w == 0 || !net.is_processor(e.processor) {
                continue;
            }
            per_proc[net.processor_index(e.processor)] += w;
            total += w;
            has_writes |= e.writes > 0;
        }
    }
    let rate = config.injection_rate.max(1) as u64;
    let last_injection_slot =
        per_proc.iter().map(|&n| n.div_ceil(rate).saturating_sub(1)).max().unwrap_or(0);
    InjectionProfile { total_requests: total, last_injection_slot, has_writes }
}

/// Bound the makespan of replaying the full `matrix` under `placement`,
/// computing the load map internally. See
/// [`estimate_makespan_from_loads`] when the caller already has it.
pub fn estimate_makespan(
    net: &Network,
    matrix: &AccessMatrix,
    placement: &Placement,
    config: SimConfig,
    overlay: Option<&CapacityOverlay>,
) -> MakespanBounds {
    let loads = LoadMap::from_placement(net, matrix, placement);
    estimate_makespan_from_loads(net, matrix, &loads, config, overlay)
}

/// Bound the makespan of replaying the full `matrix` given its placement
/// load map (`LoadMap::from_placement` of the same matrix + placement —
/// exactly what the scenario engine already computes per epoch).
pub fn estimate_makespan_from_loads(
    net: &Network,
    matrix: &AccessMatrix,
    loads: &LoadMap,
    config: SimConfig,
    overlay: Option<&CapacityOverlay>,
) -> MakespanBounds {
    let profile = injection_profile(net, matrix, config);
    makespan_bounds(net, loads, profile, overlay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::expand;
    use crate::{simulate, SimConfig};
    use hbn_topology::generators::star;
    use hbn_workload::ObjectId;

    #[test]
    fn bounds_bracket_exact_replay() {
        let net = star(6, 2);
        let p = net.processors();
        let mut m = AccessMatrix::new(2);
        m.add(p[0], ObjectId(0), 4, 1);
        m.add(p[1], ObjectId(0), 2, 0);
        m.add(p[2], ObjectId(1), 0, 3);
        let mut pl = Placement::new(2);
        pl.add_copy(ObjectId(0), p[3]);
        pl.add_copy(ObjectId(1), p[4]);
        pl.add_copy(ObjectId(1), p[5]);
        pl.nearest_assignment(&net, &m);
        let config = SimConfig::default();
        let exact = simulate(&net, &m, &pl, &expand(&m), config).unwrap();
        let bounds = estimate_makespan(&net, &m, &pl, config, None);
        assert!(
            bounds.brackets(exact.makespan),
            "{bounds:?} must bracket exact makespan {}",
            exact.makespan
        );
    }

    #[test]
    fn zero_request_epoch_is_zero_not_nan() {
        let net = star(4, 2);
        let m = AccessMatrix::new(1);
        let pl = Placement::new(1);
        let bounds = estimate_makespan(&net, &m, &pl, SimConfig::default(), None);
        assert_eq!(bounds.lower, 0);
        assert_eq!(bounds.upper, 0);
        assert!(bounds.gap_ratio().is_finite());
        assert_eq!(bounds.gap_ratio(), 1.0);
    }
}
