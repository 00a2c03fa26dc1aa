//! Per-tenant state and the worker loop.
//!
//! Each tenant owns one [`Session`] and one worker thread. All mutable
//! state lives in [`TenantShared`] behind independent mutexes so the
//! admission path, the worker, and the supervisor can each touch only
//! what they need. Nested locks are taken in one order: `durable`
//! first, then `session`, then `inflight`, `journal` or `metrics`, with
//! `inflight` before `journal` (the worker moves its job into the
//! in-flight slot and journals its epoch under the session lock, holding
//! the slot until the epoch is journaled; a supervision step holds
//! `durable` throughout). Every lock is
//! acquired through [`relock`], which shrugs off poison — a panicked
//! worker is an *expected* event here, and the supervisor must still be
//! able to read the state the panic left behind.

use crate::config::ServerConfig;
use crate::error::Rejected;
use crate::journal::Durable;
use crate::metrics::TenantMetrics;
use hbn_dynamic::OnlineRequest;
use hbn_scenario::{EpochSummary, JournalRecord, ReplayKernel, ScenarioSpec, Session};
use hbn_topology::Network;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Lock a mutex, recovering the guard from a poisoned lock. Worker
/// panics are an expected event in this crate (crash injection,
/// supervised recovery); the data under the lock is reconciled by the
/// supervisor, not abandoned.
pub(crate) fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// How a tenant is currently serving epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// Normal operation: the spec's own replay kernel.
    Exact,
    /// Load shedding: replay degraded to the congestion-bound estimator
    /// ([`ReplayKernel::Estimate`]) until the queue drains below the
    /// low-water mark.
    Degraded,
}

impl ServeMode {
    /// The session replay override this mode maps to (`None` = the
    /// spec's own kernel).
    pub(crate) fn kernel(self, sample_every: usize) -> Option<ReplayKernel> {
        match self {
            ServeMode::Exact => None,
            ServeMode::Degraded => Some(ReplayKernel::Estimate { sample_every }),
        }
    }
}

/// The served result a [`crate::Ticket`] resolves to.
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    /// Global epoch index the batch was served as.
    pub epoch: usize,
    /// Mode the epoch was served under.
    pub mode: ServeMode,
    /// Ingest-queue depth observed when the worker popped the request.
    pub queue_depth: usize,
    /// The engine's epoch summary (`summary.estimate.is_some()` iff the
    /// epoch was estimator-priced).
    pub summary: EpochSummary,
}

/// One admitted request waiting in a tenant's ingest queue.
#[derive(Debug)]
pub(crate) struct Job {
    pub batch: Vec<OnlineRequest>,
    pub deadline: Option<Instant>,
    pub enqueued_at: Instant,
    pub resp: mpsc::Sender<Result<EpochOutcome, Rejected>>,
}

/// Commands a worker pops from its queue.
#[derive(Debug)]
pub(crate) enum Command {
    Job(Job),
    /// Injected fault: the worker panics, exercising the supervisor.
    Crash,
    /// Graceful drain: the worker exits after everything ahead of this.
    Shutdown,
}

/// The bounded ingest queue.
#[derive(Debug, Default)]
pub(crate) struct QueueState {
    pub q: VecDeque<Command>,
    /// Jobs currently queued (excludes control commands).
    pub jobs: usize,
    pub shutting_down: bool,
}

/// The job a worker is serving right now, moved here just before
/// `push_epoch` so a crash mid-serve can be reconciled: if the journal
/// shows the epoch completed, the client gets its outcome; otherwise
/// the job returns to the front of the queue. Either way no admitted
/// request is silently dropped by a recovery. Once its epoch is served,
/// the job's batch moves on into the journal record; only a job whose
/// epoch did not complete is requeued, so a requeued batch is never the
/// emptied one.
#[derive(Debug)]
pub(crate) struct Inflight {
    pub epoch: usize,
    pub mode: ServeMode,
    pub job: Job,
}

/// All shared state of one tenant.
pub(crate) struct TenantShared {
    pub name: String,
    pub spec: ScenarioSpec,
    /// Submit-side validation data, copied out of the session so the
    /// admission path never contends on the session lock.
    pub net: Network,
    pub max_objects: usize,
    pub queue: Mutex<QueueState>,
    pub not_empty: Condvar,
    pub mode: Mutex<ServeMode>,
    /// `None` only between a crash and the completed recovery.
    pub session: Mutex<Option<Session>>,
    /// The served epochs not yet on disk, oldest first: each recorded
    /// *after* `push_epoch` succeeds, under the session lock, so the
    /// journal always ends at the session's epoch.
    pub journal: Mutex<Vec<JournalRecord>>,
    pub inflight: Mutex<Option<Inflight>>,
    pub metrics: Mutex<TenantMetrics>,
    /// The frames and journal segments on disk. Its lock serializes whole
    /// supervision steps (tick, checkpoint, recovery) on this tenant: the
    /// watchdog and explicit `*_now` calls would otherwise interleave
    /// their writes and rotate the retained frames out of epoch order.
    pub durable: Mutex<Durable>,
}

/// Pop the next command, blocking on the condvar while the queue is
/// empty. Returns `None` when the queue is drained and shutting down.
fn pop_command(shared: &TenantShared) -> Option<Command> {
    let mut q = relock(&shared.queue);
    loop {
        if let Some(cmd) = q.q.pop_front() {
            if matches!(cmd, Command::Job(_)) {
                q.jobs -= 1;
            }
            return Some(cmd);
        }
        if q.shutting_down {
            return None;
        }
        q = shared.not_empty.wait(q).unwrap_or_else(|e| e.into_inner());
    }
}

/// The worker loop: pop → shed expired deadlines → pick the serve mode
/// by queue-depth hysteresis → serve through the session → journal →
/// respond.
pub(crate) fn worker_loop(shared: Arc<TenantShared>, cfg: Arc<ServerConfig>) {
    loop {
        let cmd = match pop_command(&shared) {
            Some(cmd) => cmd,
            None => return,
        };
        let job = match cmd {
            Command::Shutdown => return,
            Command::Crash => panic!("injected crash in tenant {}", shared.name),
            Command::Job(job) => job,
        };

        // Shed without serving if the client's deadline already passed.
        if let Some(d) = job.deadline {
            if Instant::now() >= d {
                relock(&shared.metrics).deadline_shed += 1;
                let _ = job.resp.send(Err(Rejected::DeadlineExpired));
                continue;
            }
        }

        // Hysteresis: degrade at the high-water mark, restore exact
        // replay only once drained to the low-water mark.
        let depth = relock(&shared.queue).jobs;
        let mode = {
            let mut mode = relock(&shared.mode);
            *mode = if depth >= cfg.high_water {
                ServeMode::Degraded
            } else if depth <= cfg.low_water {
                ServeMode::Exact
            } else {
                *mode
            };
            *mode
        };

        let enqueued_at = job.enqueued_at;
        let (epoch, result) = {
            let mut slot = relock(&shared.session);
            let sess = slot.as_mut().expect("worker running without a session");
            sess.set_replay_override(mode.kernel(cfg.degraded_sample_every));
            let epoch = sess.epoch_index();
            // Hand the job to the slot before the fallible serve, and hold
            // the slot until the epoch is journaled; see [`Inflight`].
            let mut inflight = relock(&shared.inflight);
            let job = &mut inflight.insert(Inflight { epoch, mode, job }).job;
            let result = sess.push_epoch(&job.batch);
            if result.is_ok() {
                relock(&shared.journal).push(JournalRecord {
                    epoch,
                    degraded: mode == ServeMode::Degraded,
                    batch: std::mem::take(&mut job.batch),
                });
            }
            (epoch, result)
        };
        let take_job = || relock(&shared.inflight).take().expect("the worker's own job").job;

        match result {
            Ok(summary) => {
                {
                    let mut m = relock(&shared.metrics);
                    m.served += 1;
                    if mode == ServeMode::Degraded {
                        m.degraded_epochs += 1;
                    }
                    m.ingest_micros.push(enqueued_at.elapsed().as_micros() as u64);
                }
                let outcome = EpochOutcome { epoch, mode, queue_depth: depth, summary };
                let _ = take_job().resp.send(Ok(outcome));
            }
            Err(e) => {
                let _ = take_job().resp.send(Err(Rejected::Replay(e)));
            }
        }
    }
}
