//! Server tuning knobs.

use std::path::PathBuf;
use std::time::Duration;

/// Configuration of a [`crate::Server`].
///
/// The admission marks form a hysteresis band: a tenant degrades to
/// estimator replay when its queue depth reaches `high_water` and
/// returns to exact replay only once the depth falls back to
/// `low_water`, so a queue oscillating around one mark does not flap
/// between modes.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bound of each tenant's ingest queue; submissions beyond it get
    /// [`crate::Rejected::QueueFull`].
    pub queue_capacity: usize,
    /// Queue depth at which a tenant degrades to estimator replay.
    pub high_water: usize,
    /// Queue depth at which a degraded tenant restores exact replay.
    pub low_water: usize,
    /// `sample_every` of the degraded kernel
    /// ([`hbn_scenario::ReplayKernel::Estimate`]); `0` = bounds only,
    /// the cheapest shedding mode.
    pub degraded_sample_every: usize,
    /// Directory for durable tenant checkpoints.
    pub checkpoint_dir: PathBuf,
    /// Watchdog cadence: how often tenants are snapshotted and crashed
    /// workers detected. Each tick clones a tenant's state under its
    /// session lock and saves it: the fixed state plus at most one
    /// history chunk's tail, and the chunk files frozen since the last
    /// tick, so the cost per tick does not grow with uptime. Longer
    /// cadence = cheaper steady state but a longer journal tail to
    /// replay on recovery.
    pub watchdog_poll: Duration,
    /// Durable checkpoints kept per tenant (newest N); the journal is
    /// truncated below the oldest retained one, so a corrupt newest
    /// checkpoint can still fall back. Rotation deletes frames only:
    /// the history chunk files in `checkpoint_dir` are shared by every
    /// retained frame.
    pub checkpoints_retained: usize,
}

impl ServerConfig {
    /// Defaults sized for tests and small deployments: capacity 64,
    /// high/low water 8/2, unsampled estimator shedding, 20 ms watchdog
    /// cadence, two retained checkpoints.
    pub fn new(checkpoint_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            queue_capacity: 64,
            high_water: 8,
            low_water: 2,
            degraded_sample_every: 0,
            checkpoint_dir: checkpoint_dir.into(),
            watchdog_poll: Duration::from_millis(20),
            checkpoints_retained: 2,
        }
    }
}
