//! The multi-tenant front end and its supervisor.
//!
//! A [`Server`] owns one worker thread per tenant plus one watchdog
//! thread. The watchdog does two jobs on a cadence: it makes every
//! healthy tenant's served epochs durable — one journal append and one
//! `fdatasync` per tick, and a full frame
//! ([`hbn_scenario::SessionCheckpoint::save`]) only when the journal has
//! outgrown the newest one (the `journal` module) — and it detects a
//! panicked worker and rebuilds the tenant: restore the newest readable
//! frame, replay the journal segments on disk after it and the entries
//! not yet durable, reconcile the in-flight job, respawn the worker.
//! Every supervision step is also callable directly
//! ([`Server::checkpoint_now`], [`Server::recover_now`]) so tests can
//! drive it deterministically with the cadence effectively disabled.

use crate::config::ServerConfig;
use crate::error::{Rejected, ServerError};
use crate::journal::{self, Durable};
use crate::metrics::TenantMetrics;
use crate::tenant::{
    relock, worker_loop, Command, EpochOutcome, Job, QueueState, ServeMode, TenantShared,
};
use hbn_dynamic::OnlineRequest;
use hbn_scenario::{ScenarioReport, ScenarioSpec, Session};
use hbn_topology::NodeId;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Handle to one submitted request; resolves to the served epoch or the
/// reason it was not served.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<EpochOutcome, Rejected>>,
}

impl Ticket {
    /// Block until the request resolves. A dropped worker (crash raced
    /// shutdown) resolves to [`Rejected::WorkerLost`].
    pub fn wait(self) -> Result<EpochOutcome, Rejected> {
        self.rx.recv().unwrap_or(Err(Rejected::WorkerLost))
    }

    /// Non-blocking poll; `Err(self)` when not resolved yet.
    pub fn try_wait(self) -> Result<Result<EpochOutcome, Rejected>, Ticket> {
        match self.rx.try_recv() {
            Ok(r) => Ok(r),
            Err(mpsc::TryRecvError::Empty) => Err(Ticket { rx: self.rx }),
            Err(mpsc::TryRecvError::Disconnected) => Ok(Err(Rejected::WorkerLost)),
        }
    }
}

struct Tenant {
    shared: Arc<TenantShared>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

struct Inner {
    cfg: Arc<ServerConfig>,
    tenants: Mutex<HashMap<String, Arc<Tenant>>>,
    shutting: AtomicBool,
    /// Watchdog parking spot: `true` = stop. Condvar wakes the park
    /// early so shutdown never waits out a long cadence.
    stop: (Mutex<bool>, Condvar),
}

/// A supervised multi-tenant session service. See the crate docs for
/// the full state machine.
pub struct Server {
    inner: Arc<Inner>,
    watchdog: Mutex<Option<JoinHandle<()>>>,
}

impl Server {
    /// Start a server with no tenants. Creates the checkpoint directory
    /// and spawns the watchdog.
    ///
    /// # Errors
    ///
    /// I/O failure creating the checkpoint directory.
    pub fn new(cfg: ServerConfig) -> std::io::Result<Server> {
        std::fs::create_dir_all(&cfg.checkpoint_dir)?;
        let inner = Arc::new(Inner {
            cfg: Arc::new(cfg),
            tenants: Mutex::new(HashMap::new()),
            shutting: AtomicBool::new(false),
            stop: (Mutex::new(false), Condvar::new()),
        });
        let wd = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("hbn-server-watchdog".into())
                .spawn(move || watchdog_loop(inner))
                .expect("spawn watchdog")
        };
        Ok(Server { inner, watchdog: Mutex::new(Some(wd)) })
    }

    /// Register a tenant and spawn its worker. The tenant's name is
    /// `spec.name`; its strategy is built from `spec.strategy`, which
    /// is also how recovery rebuilds it from a checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if a tenant with this name already exists, or if the spec
    /// is invalid (as [`Session::new`]).
    pub fn add_tenant(&self, spec: ScenarioSpec) {
        let session = Session::new(&spec);
        let shared = Arc::new(TenantShared {
            name: spec.name.clone(),
            net: session.network().clone(),
            max_objects: session.max_objects(),
            spec,
            queue: Mutex::new(QueueState::default()),
            not_empty: Condvar::new(),
            mode: Mutex::new(ServeMode::Exact),
            session: Mutex::new(Some(session)),
            journal: Mutex::new(Vec::new()),
            inflight: Mutex::new(None),
            metrics: Mutex::new(TenantMetrics::default()),
            durable: Mutex::new(Durable::default()),
        });
        let worker = spawn_worker(&shared, &self.inner.cfg);
        let tenant = Arc::new(Tenant { shared, worker: Mutex::new(Some(worker)) });
        let mut tenants = relock(&self.inner.tenants);
        let prev = tenants.insert(tenant.shared.name.clone(), tenant);
        assert!(prev.is_none(), "duplicate tenant name");
    }

    fn tenant(&self, name: &str) -> Result<Arc<Tenant>, ServerError> {
        relock(&self.inner.tenants)
            .get(name)
            .cloned()
            .ok_or_else(|| ServerError::UnknownTenant(name.to_string()))
    }

    /// Submit a request batch to a tenant. Admission happens here:
    /// validation against the tenant's topology, then the bounded-queue
    /// check. On admission the batch will be served as one epoch; the
    /// returned [`Ticket`] resolves to the outcome.
    ///
    /// `deadline` is enforced server-side: if it expires before a
    /// worker pops the request, the request is shed with
    /// [`Rejected::DeadlineExpired`] instead of served. A deadline too
    /// far ahead for the clock to represent (`Duration::MAX`, say) is no
    /// deadline.
    ///
    /// # Errors
    ///
    /// [`Rejected`] with the admission failure; nothing was enqueued.
    pub fn submit(
        &self,
        tenant: &str,
        batch: Vec<OnlineRequest>,
        deadline: Option<Duration>,
    ) -> Result<Ticket, Rejected> {
        if self.inner.shutting.load(Ordering::SeqCst) {
            return Err(Rejected::ShuttingDown);
        }
        let t = match self.tenant(tenant) {
            Ok(t) => t,
            Err(_) => return Err(Rejected::UnknownTenant(tenant.to_string())),
        };
        let shared = &t.shared;
        for (i, req) in batch.iter().enumerate() {
            if req.object.index() >= shared.max_objects {
                return Err(Rejected::InvalidRequest(format!(
                    "request {i} references object {} >= max_objects {}",
                    req.object.index(),
                    shared.max_objects
                )));
            }
            if !shared.net.is_processor(req.processor) {
                return Err(Rejected::InvalidRequest(format!(
                    "request {i} is issued from a non-processor node"
                )));
            }
        }
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        let deadline = deadline.and_then(|d| now.checked_add(d));
        let job = Job { batch, deadline, enqueued_at: now, resp: tx };
        {
            let mut q = relock(&shared.queue);
            if q.shutting_down {
                return Err(Rejected::ShuttingDown);
            }
            if q.jobs >= self.inner.cfg.queue_capacity {
                let depth = q.jobs;
                drop(q);
                relock(&shared.metrics).rejected_full += 1;
                return Err(Rejected::QueueFull { tenant: tenant.to_string(), depth });
            }
            q.q.push_back(Command::Job(job));
            q.jobs += 1;
        }
        relock(&shared.metrics).accepted += 1;
        shared.not_empty.notify_one();
        Ok(Ticket { rx })
    }

    /// Whether the tenant's worker thread is currently alive (`false`
    /// in the window between a crash and its recovery).
    ///
    /// # Errors
    ///
    /// Unknown tenant.
    pub fn worker_alive(&self, tenant: &str) -> Result<bool, ServerError> {
        let t = self.tenant(tenant)?;
        Ok(!worker_is_dead(&t))
    }

    /// The tenant's processor nodes — the valid `processor` values for
    /// submitted requests.
    ///
    /// # Errors
    ///
    /// Unknown tenant.
    pub fn processors(&self, tenant: &str) -> Result<Vec<NodeId>, ServerError> {
        Ok(self.tenant(tenant)?.shared.net.processors().to_vec())
    }

    /// Current ingest-queue depth of a tenant (jobs only).
    ///
    /// # Errors
    ///
    /// Unknown tenant.
    pub fn queue_depth(&self, tenant: &str) -> Result<usize, ServerError> {
        Ok(relock(&self.tenant(tenant)?.shared.queue).jobs)
    }

    /// The tenant's current serve mode.
    ///
    /// # Errors
    ///
    /// Unknown tenant.
    pub fn mode(&self, tenant: &str) -> Result<ServeMode, ServerError> {
        Ok(*relock(&self.tenant(tenant)?.shared.mode))
    }

    /// Snapshot of the tenant's service metrics.
    ///
    /// # Errors
    ///
    /// Unknown tenant.
    pub fn metrics(&self, tenant: &str) -> Result<TenantMetrics, ServerError> {
        Ok(relock(&self.tenant(tenant)?.shared.metrics).clone())
    }

    /// The tenant's scenario report so far (epochs served to date).
    ///
    /// # Errors
    ///
    /// Unknown tenant, or the tenant is mid-recovery with no live
    /// session.
    pub fn report(&self, tenant: &str) -> Result<ScenarioReport, ServerError> {
        let t = self.tenant(tenant)?;
        let slot = relock(&t.shared.session);
        match slot.as_ref() {
            Some(sess) => Ok(sess.report()),
            None => Err(ServerError::TenantLost {
                tenant: tenant.to_string(),
                why: "session is mid-recovery".into(),
            }),
        }
    }

    /// Inject a crash: the tenant's worker panics before serving the
    /// next queued job. The fault-injection hook of the supervision
    /// tests and `exp_server_crash`.
    ///
    /// # Errors
    ///
    /// Unknown tenant.
    pub fn inject_crash(&self, tenant: &str) -> Result<(), ServerError> {
        let t = self.tenant(tenant)?;
        {
            let mut q = relock(&t.shared.queue);
            q.q.push_front(Command::Crash);
        }
        t.shared.not_empty.notify_one();
        Ok(())
    }

    /// Write a full checkpoint frame of the tenant right now and return
    /// its path. The watchdog writes one only when the tenant's journal
    /// segment has outgrown the newest frame; this forces one, so a
    /// caller can place frames at chosen epochs. At an epoch the newest
    /// frame already covers, it returns that frame's path and writes
    /// nothing.
    ///
    /// # Errors
    ///
    /// Unknown tenant, no live session, or checkpoint I/O failure.
    pub fn checkpoint_now(&self, tenant: &str) -> Result<PathBuf, ServerError> {
        let t = self.tenant(tenant)?;
        journal::checkpoint(&self.inner.cfg, &t.shared)?.ok_or_else(|| ServerError::TenantLost {
            tenant: tenant.to_string(),
            why: "no live session to checkpoint".into(),
        })
    }

    /// Detect-and-recover the tenant right now (the same step the
    /// watchdog runs when it finds a dead worker). No-op if the worker
    /// is healthy.
    ///
    /// # Errors
    ///
    /// Unknown tenant, or recovery exhausted every checkpoint.
    pub fn recover_now(&self, tenant: &str) -> Result<(), ServerError> {
        let t = self.tenant(tenant)?;
        if worker_is_dead(&t) {
            recover_tenant(&self.inner.cfg, &t)?;
        }
        Ok(())
    }

    /// Graceful shutdown: reject new work, drain every healthy tenant's
    /// queue, reconstruct the session state of crashed tenants from
    /// checkpoint + journal (their still-queued jobs resolve to
    /// [`Rejected::WorkerLost`]), and return each tenant's final
    /// [`ScenarioReport`], sorted by tenant name.
    pub fn shutdown(self) -> Vec<(String, ScenarioReport)> {
        self.inner.shutting.store(true, Ordering::SeqCst);
        // Stop the watchdog first so it cannot race the drain below.
        {
            let mut stop = relock(&self.inner.stop.0);
            *stop = true;
            self.inner.stop.1.notify_all();
        }
        if let Some(wd) = relock(&self.watchdog).take() {
            let _ = wd.join();
        }

        let tenants: Vec<Arc<Tenant>> = relock(&self.inner.tenants).values().cloned().collect();
        let mut out = Vec::new();
        for t in tenants {
            let crashed = worker_is_dead(&t);
            {
                let mut q = relock(&t.shared.queue);
                q.shutting_down = true;
                if !crashed {
                    q.q.push_back(Command::Shutdown);
                }
            }
            t.shared.not_empty.notify_one();
            if let Some(h) = relock(&t.worker).take() {
                let _ = h.join();
            }
            if crashed {
                // Rebuild the session state (checkpoint + journal tail)
                // so the final report exists, but do not respawn: the
                // queued jobs are dropped and their tickets resolve to
                // WorkerLost.
                let durable = relock(&t.shared.durable);
                let _ = rebuild_session(&self.inner.cfg, &t.shared, &durable);
                relock(&t.shared.queue).q.clear();
            }
            let report = relock(&t.shared.session).take().map(Session::into_report);
            if let Some(report) = report {
                out.push((t.shared.name.clone(), report));
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Shut the watchdog down even if `shutdown` was never called,
        // so a dropped server does not leak a spinning thread.
        {
            let mut stop = relock(&self.inner.stop.0);
            *stop = true;
            self.inner.stop.1.notify_all();
        }
        if let Some(wd) = relock(&self.watchdog).take() {
            let _ = wd.join();
        }
        for t in relock(&self.inner.tenants).values() {
            relock(&t.shared.queue).shutting_down = true;
            t.shared.not_empty.notify_all();
        }
    }
}

fn spawn_worker(shared: &Arc<TenantShared>, cfg: &Arc<ServerConfig>) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    let cfg = Arc::clone(cfg);
    std::thread::Builder::new()
        .name(format!("hbn-tenant-{}", shared.name))
        .spawn(move || worker_loop(shared, cfg))
        .expect("spawn tenant worker")
}

fn worker_is_dead(t: &Tenant) -> bool {
    relock(&t.worker).as_ref().map(|h| h.is_finished()).unwrap_or(true)
}

/// One watchdog tick over one tenant: recover it if the worker died,
/// otherwise make its served epochs durable.
fn supervise_tenant(cfg: &Arc<ServerConfig>, t: &Arc<Tenant>) {
    if worker_is_dead(t) {
        // An unrecoverable tenant stays dead; its tickets resolve to
        // WorkerLost and shutdown reports whatever state remains.
        let _ = recover_tenant(cfg, t);
    } else {
        // A failed write is counted in `checkpoint_failures`; the tenant
        // keeps serving, and the entries stay in memory for the next try.
        let _ = journal::tick(cfg, &t.shared);
    }
}

fn watchdog_loop(inner: Arc<Inner>) {
    loop {
        // Park FIRST, and until the full cadence has elapsed. Both
        // halves matter: supervising before the first park would let a
        // late-scheduled watchdog thread run its initial pass after the
        // caller has already added tenants and injected a crash, and a
        // spurious condvar wakeup would cut a park short — either way a
        // deliberately huge `watchdog_poll` (tests and harnesses that
        // drive checkpoint/recover manually) could heal a killed worker
        // out from under a client still waiting to observe it dead.
        // The cadence is a floor on the earliest supervision time; the
        // condvar only exists so `shutdown` never waits it out. A cadence
        // beyond the clock's range parks until stop.
        let mut stop = relock(&inner.stop.0);
        let deadline = Instant::now().checked_add(inner.cfg.watchdog_poll);
        loop {
            if *stop {
                return;
            }
            let now = Instant::now();
            stop = match deadline {
                Some(deadline) if now >= deadline => break,
                Some(deadline) => {
                    let wait = inner.stop.1.wait_timeout(stop, deadline - now);
                    wait.unwrap_or_else(|e| e.into_inner()).0
                }
                None => inner.stop.1.wait(stop).unwrap_or_else(|e| e.into_inner()),
            };
        }
        drop(stop);
        let tenants: Vec<Arc<Tenant>> = relock(&inner.tenants).values().cloned().collect();
        for t in &tenants {
            supervise_tenant(&inner.cfg, t);
        }
    }
}

/// Reconstruct a tenant's session from what `durable` has on disk plus
/// the journal in memory ([`journal::restore`]), reconcile the in-flight
/// job and install the session. Returns the journal epochs replayed.
fn rebuild_session(
    cfg: &ServerConfig,
    shared: &TenantShared,
    durable: &Durable,
) -> Result<u64, ServerError> {
    // Discard whatever half-mutated state the crash left behind.
    *relock(&shared.session) = None;
    let (mut sess, replayed) = journal::restore(cfg, shared, durable)?;
    // Serving resumes under the tenant's current mode.
    sess.set_replay_override(relock(&shared.mode).kernel(cfg.degraded_sample_every));

    // Reconcile the in-flight job: if its epoch completed (it is behind
    // the rebuilt head), answer the client from the recorded summary;
    // otherwise requeue it at the front so it is served exactly once.
    if let Some(inf) = relock(&shared.inflight).take() {
        if inf.epoch < sess.epoch_index() {
            if let Some(summary) = sess.epoch(inf.epoch).cloned() {
                let outcome =
                    EpochOutcome { epoch: inf.epoch, mode: inf.mode, queue_depth: 0, summary };
                let _ = inf.job.resp.send(Ok(outcome));
            }
        } else {
            let mut q = relock(&shared.queue);
            q.q.push_front(Command::Job(inf.job));
            q.jobs += 1;
            drop(q);
            shared.not_empty.notify_one();
        }
    }
    *relock(&shared.session) = Some(sess);
    Ok(replayed)
}

/// Full recovery of a crashed tenant: join the dead worker, rebuild the
/// session, record recovery metrics, respawn the worker.
fn recover_tenant(cfg: &Arc<ServerConfig>, t: &Arc<Tenant>) -> Result<(), ServerError> {
    let start = Instant::now();
    let durable = relock(&t.shared.durable);
    // Another supervisor (watchdog vs. explicit `recover_now`) may have
    // healed the tenant while we waited for the step lock.
    if !worker_is_dead(t) {
        return Ok(());
    }
    if let Some(h) = relock(&t.worker).take() {
        let _ = h.join();
    }
    let replayed = rebuild_session(cfg, &t.shared, &durable)?;
    {
        let mut m = relock(&t.shared.metrics);
        m.restarts += 1;
        m.recovery_epochs.push(replayed);
        m.recovery_micros.push(start.elapsed().as_micros() as u64);
    }
    *relock(&t.worker) = Some(spawn_worker(&t.shared, cfg));
    Ok(())
}
