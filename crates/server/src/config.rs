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
    /// Watchdog cadence: how often tenants' served epochs are made
    /// durable and crashed workers detected. A tick appends the batches
    /// a tenant served since the previous tick to its journal segment
    /// and syncs them with one `fdatasync`; an idle tenant costs
    /// nothing. A full checkpoint frame is written at the first tick,
    /// and again once the segment has grown as large as the newest
    /// frame, so recovery replays at most about one frame's worth of
    /// batches from disk (two after falling back a frame). A longer
    /// cadence batches more epochs per append, and the epochs served
    /// since the last tick are replayed from memory on recovery. A
    /// cadence too long for the clock to represent (`Duration::MAX`)
    /// never fires: supervision then runs only through
    /// `Server::checkpoint_now` and `Server::recover_now`.
    pub watchdog_poll: Duration,
}

impl ServerConfig {
    /// Defaults sized for tests and small deployments: capacity 64,
    /// high/low water 8/2, unsampled estimator shedding, 20 ms watchdog
    /// cadence.
    pub fn new(checkpoint_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            queue_capacity: 64,
            high_water: 8,
            low_water: 2,
            degraded_sample_every: 0,
            checkpoint_dir: checkpoint_dir.into(),
            watchdog_poll: Duration::from_millis(20),
        }
    }
}
