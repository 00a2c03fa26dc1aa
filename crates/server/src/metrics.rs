//! Per-tenant service metrics: admission counters, ingest latency,
//! durability and recovery timings — the raw material of
//! `BENCH_server.json`.

/// Counters and latency samples for one tenant, accumulated by the
/// admission path, the worker, and the supervisor. Snapshot it through
/// [`crate::Server::metrics`].
#[derive(Debug, Clone, Default)]
pub struct TenantMetrics {
    /// Requests admitted into the ingest queue.
    pub accepted: u64,
    /// Requests rejected at admission with `QueueFull`.
    pub rejected_full: u64,
    /// Admitted requests shed by the worker because their deadline had
    /// expired before they were popped.
    pub deadline_shed: u64,
    /// Epochs actually served (exact or degraded).
    pub served: u64,
    /// Of the served epochs, how many ran in degraded (estimator) mode.
    pub degraded_epochs: u64,
    /// Per served epoch: microseconds from enqueue to response.
    pub ingest_micros: Vec<u64>,
    /// Worker restarts performed by the supervisor.
    pub restarts: u64,
    /// Per recovery: journal epochs replayed to catch up from the
    /// restored checkpoint.
    pub recovery_epochs: Vec<u64>,
    /// Per recovery: wall microseconds from crash detection to the
    /// respawned worker.
    pub recovery_micros: Vec<u64>,
    /// Epochs on disk as of the last successful supervision step: those
    /// the newest checkpoint frame covers plus the journal records synced
    /// after it.
    pub durable_epochs: u64,
    /// Supervision steps (watchdog ticks and `checkpoint_now` calls) whose
    /// durable write failed. The tenant keeps serving meanwhile, with its
    /// served epochs held in memory until a step succeeds.
    pub checkpoint_failures: u64,
}

impl TenantMetrics {
    /// Fraction of admitted-or-rejected requests that did not produce a
    /// served epoch (rejected at admission or shed at the deadline).
    pub fn shed_fraction(&self) -> f64 {
        let offered = self.accepted + self.rejected_full;
        if offered == 0 {
            0.0
        } else {
            (self.rejected_full + self.deadline_shed) as f64 / offered as f64
        }
    }
}

/// Nearest-rank percentile of an *unsorted* sample set (`p` in
/// `[0, 100]`); `0` on an empty set. Sorts a copy — metrics vectors are
/// small.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let s = [50, 10, 40, 20, 30];
        assert_eq!(percentile(&s, 50.0), 30);
        assert_eq!(percentile(&s, 99.0), 50);
        assert_eq!(percentile(&s, 0.0), 10);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn shed_fraction_counts_rejections_and_deadline_sheds() {
        let mut m = TenantMetrics::default();
        assert_eq!(m.shed_fraction(), 0.0);
        m.accepted = 8;
        m.rejected_full = 2;
        m.deadline_shed = 1;
        assert!((m.shed_fraction() - 0.3).abs() < 1e-12);
    }
}
