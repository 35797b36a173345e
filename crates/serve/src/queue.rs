//! The job model, the job store and the service front door.
//!
//! One submitted [`ScenarioSpec`] becomes one job. A job's lifecycle:
//!
//! 1. **queued** — accepted, waiting for an in-process executor;
//! 2. **planning** — an in-process executor characterizes the
//!    benchmark/stage (through the shared [`CharCache`], warming it for
//!    every shard) and splits the resolved θ grid into a [`ShardPlan`];
//! 3. **running** — each shard is leased to an executor, in-process or
//!    remote, and runs as one complete
//!    [`Experiment::run`](synts_core::scenario::Experiment::run); a
//!    failed or lost attempt is charged and retried up to a bounded
//!    attempt count before it fails the job;
//! 4. **done** — the partial reports are merged ([`Report::merge`])
//!    into a report bit-identical to a monolithic run of the original
//!    spec — or **failed** / **cancelled**.
//!
//! The queue is a plain FIFO over (plan | shard) tasks guarded by one
//! mutex + condvar. The [`ServiceConfig::workers`] threads are the
//! in-process executors of [`crate::fleet`]: they lease, run and
//! complete tasks through the same scheduler as remote executors, and
//! block on the condvar between leases. [`Service::shutdown`] offers the
//! two fleet-standard exits: [`Shutdown::Drain`] (stop accepting, run
//! everything queued, then join) and [`Shutdown::Now`] (finish only
//! in-flight tasks, leave the rest queued, then join) — either way no
//! work is torn down mid-shard.

use std::collections::{BTreeMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use synts_core::faults::FaultPlan;
use synts_core::scenario::{Json, Report, ScenarioSpec, Shard, ShardPlan};
use synts_core::{CacheStats, CharCache, OptError};

use crate::fleet::FleetStore;
use crate::journal::{Journal, Terminal};

/// Configuration of one [`Service`] instance.
pub struct ServiceConfig {
    /// In-process executor threads (each runs one plan/shard task at a
    /// time; the task itself may fan further across `SYNTS_THREADS`).
    pub workers: usize,
    /// Maximum shards one job's θ grid is split into.
    pub max_shards: usize,
    /// Attempts per shard before the job fails (>= 1).
    pub max_attempts: u32,
    /// The characterization cache every task shares.
    pub cache: CharCache,
    /// Durable job journal (pre-opened so an unusable directory fails
    /// startup loudly). `None` runs fully in-memory, as before.
    pub journal: Option<Journal>,
    /// Service-wide fault plan; per-spec `faults` fields override it.
    pub faults: Option<Arc<FaultPlan>>,
    /// Whether in-process executors lease shard tasks. `false` reserves
    /// shards for registered fleet executors — except when none are
    /// live, when in-process executors lease them anyway (graceful
    /// degradation, flagged in stats/healthz). Plan tasks always run in
    /// process.
    pub local_shards: bool,
    /// Logical ticks a lease (and executor registration) stays valid
    /// without renewal; see [`Service::fleet_tick`].
    pub lease_ticks: u64,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            max_shards: 4,
            max_attempts: 2,
            cache: CharCache::from_env(),
            journal: None,
            faults: None,
            local_shards: true,
            lease_ticks: 5,
        }
    }
}

/// A job's lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, not yet picked up.
    Queued,
    /// A worker is characterizing and planning the shards.
    Planning,
    /// Shards are queued/executing.
    Running,
    /// Merged report available.
    Done,
    /// A shard (or the planner) exhausted its attempts.
    Failed,
    /// Cancelled by the client; remaining shards are skipped.
    Cancelled,
}

impl JobState {
    /// Canonical wire name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Planning => "planning",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the job can still make progress.
    #[must_use]
    pub const fn is_live(self) -> bool {
        matches!(
            self,
            JobState::Queued | JobState::Planning | JobState::Running
        )
    }
}

/// Per-state shard counts of one job (all zero until planning finishes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardCounts {
    /// Shards planned in total.
    pub total: usize,
    /// Waiting in the queue.
    pub queued: usize,
    /// Leased to an executor, in-process or remote.
    pub running: usize,
    /// Completed with a partial report.
    pub done: usize,
    /// Out of attempts.
    pub failed: usize,
}

/// A snapshot of one job, cheap to clone and serialize.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// Service-assigned id (`job-<n>`).
    pub id: String,
    /// The submitted spec's name.
    pub spec_name: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Shard progress.
    pub shards: ShardCounts,
    /// Retry attempts consumed beyond each shard's first.
    pub retries: u32,
    /// The failure message, for failed/cancelled jobs.
    pub error: Option<String>,
    /// The client-supplied idempotency key, when one was submitted.
    pub key: Option<String>,
}

impl JobStatus {
    /// The wire representation (`GET /v1/jobs/<id>`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("job", Json::str(&self.id))
            .field("spec", Json::str(&self.spec_name))
            .field("state", Json::str(self.state.name()))
            .field(
                "shards",
                Json::obj()
                    .field("total", Json::num(self.shards.total as f64))
                    .field("queued", Json::num(self.shards.queued as f64))
                    .field("running", Json::num(self.shards.running as f64))
                    .field("done", Json::num(self.shards.done as f64))
                    .field("failed", Json::num(self.shards.failed as f64)),
            )
            .field("retries", Json::num(f64::from(self.retries)))
            .field(
                "error",
                match &self.error {
                    Some(e) => Json::str(e),
                    None => Json::Null,
                },
            )
            .field(
                "key",
                match &self.key {
                    Some(k) => Json::str(k),
                    None => Json::Null,
                },
            )
    }
}

/// Service-wide counters (`GET /v1/stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// In-process executor threads.
    pub workers: usize,
    /// Jobs accepted since start.
    pub submitted: u64,
    /// Jobs that reached `done`.
    pub done: u64,
    /// Jobs that reached `failed`.
    pub failed: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
    /// Tasks waiting in the queue right now.
    pub queue_depth: usize,
    /// Tasks running on in-process executors right now.
    pub in_flight: usize,
    /// Shard retry attempts consumed since start.
    pub shard_retries: u64,
    /// The service's own characterization cache counters (every plan
    /// and shard lookup it made).
    pub cache: CacheStats,
    /// Fleet coordinator counters (all zero when no executor ever
    /// registered).
    pub fleet: crate::fleet::FleetSnapshot,
}

impl ServiceStats {
    /// The wire representation.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("workers", Json::num(self.workers as f64))
            .field(
                "jobs",
                Json::obj()
                    .field("submitted", Json::num(self.submitted as f64))
                    .field("done", Json::num(self.done as f64))
                    .field("failed", Json::num(self.failed as f64))
                    .field("cancelled", Json::num(self.cancelled as f64)),
            )
            .field("queue_depth", Json::num(self.queue_depth as f64))
            .field("in_flight", Json::num(self.in_flight as f64))
            .field("shard_retries", Json::num(self.shard_retries as f64))
            .field(
                "cache",
                Json::obj()
                    .field("hits", Json::num(self.cache.hits as f64))
                    .field("misses", Json::num(self.cache.misses as f64))
                    .field("remote_hits", Json::num(self.cache.remote_hits as f64))
                    .field("coalesced", Json::num(self.cache.coalesced as f64))
                    .field("write_errors", Json::num(self.cache.write_errors as f64)),
            )
            .field("fleet", self.fleet.to_json())
    }
}

/// What `GET /v1/jobs/<id>/report` resolves to.
#[derive(Debug, Clone)]
pub enum ReportOutcome {
    /// No such job.
    Unknown,
    /// Still queued/planning/running — poll again.
    Pending(JobStatus),
    /// The job failed or was cancelled; no report will appear.
    Unavailable(JobStatus),
    /// The merged report.
    Ready(Arc<Report>),
}

/// How [`Service::shutdown`] winds the executor down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shutdown {
    /// Stop accepting, run everything already queued, then join.
    Drain,
    /// Stop accepting, finish only in-flight tasks (queued work stays
    /// queued and is reported as such), then join.
    Now,
}

/// Parses a wire job id (`job-<n>`) back to its store key.
fn job_seq(id: &str) -> Option<u64> {
    id.strip_prefix("job-")?.parse().ok()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Task {
    Plan { job: u64 },
    Shard { job: u64, idx: usize },
}

pub(crate) enum ShardState {
    Queued,
    Running,
    Done(Box<Report>),
    Failed,
}

pub(crate) struct ShardSlot {
    pub(crate) shard: Shard,
    pub(crate) state: ShardState,
    pub(crate) attempts: u32,
}

pub(crate) struct Job {
    id: String,
    pub(crate) spec: ScenarioSpec,
    pub(crate) state: JobState,
    plan: Option<ShardPlan>,
    pub(crate) slots: Vec<ShardSlot>,
    pub(crate) retries: u32,
    pub(crate) error: Option<String>,
    merged: Option<Arc<Report>>,
    /// Client-supplied idempotency key, when submitted with one.
    key: Option<String>,
    /// The fault plan this job's tasks run under (per-spec plan, else
    /// the service-wide one, else none).
    pub(crate) faults: Option<Arc<FaultPlan>>,
    /// Journal-recovered shard reports, spliced into the slots once the
    /// (deterministic) plan is rebuilt.
    recovered: BTreeMap<usize, Report>,
}

impl Job {
    fn queued(
        seq: u64,
        spec: ScenarioSpec,
        key: Option<String>,
        faults: Option<Arc<FaultPlan>>,
    ) -> Job {
        Job {
            id: format!("job-{seq}"),
            spec,
            state: JobState::Queued,
            plan: None,
            slots: Vec::new(),
            retries: 0,
            error: None,
            merged: None,
            key,
            faults,
            recovered: BTreeMap::new(),
        }
    }

    fn status(&self) -> JobStatus {
        let mut shards = ShardCounts {
            total: self.slots.len(),
            ..ShardCounts::default()
        };
        for slot in &self.slots {
            match slot.state {
                ShardState::Queued => shards.queued += 1,
                ShardState::Running => shards.running += 1,
                ShardState::Done(_) => shards.done += 1,
                ShardState::Failed => shards.failed += 1,
            }
        }
        JobStatus {
            id: self.id.clone(),
            spec_name: self.spec.name.clone(),
            state: self.state,
            shards,
            retries: self.retries,
            error: self.error.clone(),
            key: self.key.clone(),
        }
    }
}

pub(crate) struct Store {
    // Keyed by numeric sequence (not the `job-<n>` string, which would
    // sort job-10 before job-2): iteration is submission order, so
    // listings and merged snapshots are deterministic.
    pub(crate) jobs: BTreeMap<u64, Job>,
    pub(crate) queue: VecDeque<Task>,
    /// Idempotency key -> job sequence; a keyed resubmission returns the
    /// existing job instead of enqueueing a duplicate.
    keys: BTreeMap<String, u64>,
    next_seq: u64,
    pub(crate) shutdown: Option<Shutdown>,
    pub(crate) in_flight: usize,
    submitted: u64,
    done: u64,
    failed: u64,
    cancelled: u64,
    pub(crate) shard_retries: u64,
    /// Fleet coordinator state (executors, leases, cache claims) — one
    /// mutex guards the queue and the fleet so lease transitions and
    /// task transitions can never interleave inconsistently.
    pub(crate) fleet: FleetStore,
}

impl Store {
    /// Job `seq`, when it is in `state`.
    pub(crate) fn job_in(&mut self, seq: u64, state: JobState) -> Option<&mut Job> {
        self.jobs.get_mut(&seq).filter(|job| job.state == state)
    }

    /// Fails job `seq` with `msg` and stages its terminal record.
    pub(crate) fn fail(&mut self, seq: u64, msg: String) -> Option<TerminalRecord> {
        let job = self.jobs.get_mut(&seq)?;
        job.state = JobState::Failed;
        job.error = Some(msg.clone());
        self.failed += 1;
        Some(TerminalRecord::Failed { job: seq, msg })
    }
}

/// A terminal journal record staged under the store lock and written
/// after it drops, so the fsync never serializes the request path. The
/// gap is crash-safe: a lost terminal record only means replay resumes
/// the job from its (already journaled) shard records and re-derives
/// the same terminal state deterministically.
pub(crate) enum TerminalRecord {
    Done { job: u64, report: Arc<Report> },
    Failed { job: u64, msg: String },
}

pub(crate) struct SvcState {
    max_shards: usize,
    pub(crate) max_attempts: u32,
    pub(crate) cache: CharCache,
    worker_total: usize,
    pub(crate) journal: Option<Journal>,
    faults: Option<Arc<FaultPlan>>,
    /// Whether in-process executors may lease shard tasks while fleet
    /// executors are live (see [`ServiceConfig::local_shards`]).
    pub(crate) local_shards: bool,
    store: Mutex<Store>,
    pub(crate) cv: Condvar,
}

/// The scenario service: [`ServiceConfig::workers`] in-process executors
/// over one job store. Protocol front ends ([`crate::http`]) and
/// in-process callers (tests, `perfbench`) share this one API.
pub struct Service {
    pub(crate) state: Arc<SvcState>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Service {
    /// Starts the in-process executors and returns the running service.
    ///
    /// With a journal configured, the journal is replayed first
    /// (recovery): terminal jobs are restored verbatim — a `done` job
    /// serves the byte-identical journaled report — and unfinished jobs
    /// are re-queued, reusing every journaled shard report so only the
    /// interrupted remainder recomputes. Workers spawn after the store
    /// is rebuilt, so recovered tasks are simply first in line, and the
    /// replay compacts the journal before anything else can append.
    #[must_use]
    pub fn start(cfg: ServiceConfig) -> Service {
        let mut store = Store {
            jobs: BTreeMap::new(),
            queue: VecDeque::new(),
            keys: BTreeMap::new(),
            next_seq: 1,
            shutdown: None,
            in_flight: 0,
            submitted: 0,
            done: 0,
            failed: 0,
            cancelled: 0,
            shard_retries: 0,
            fleet: FleetStore::new(cfg.lease_ticks.max(1)),
        };
        if let Some(journal) = &cfg.journal {
            recover(&mut store, journal, cfg.faults.as_ref());
        }
        let state = Arc::new(SvcState {
            max_shards: cfg.max_shards.max(1),
            max_attempts: cfg.max_attempts.max(1),
            cache: cfg.cache,
            worker_total: cfg.workers.max(1),
            journal: cfg.journal,
            faults: cfg.faults,
            local_shards: cfg.local_shards,
            store: Mutex::new(store),
            cv: Condvar::new(),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || crate::fleet::run_in_process(&state))
            })
            .collect();
        Service {
            state,
            workers: Mutex::new(workers),
        }
    }

    /// Accepts a spec as a new job. Scheme keys are resolved against the
    /// default registry (the one every executor runs shards on) here, so
    /// a typo fails at submission, not minutes later on an executor.
    ///
    /// # Errors
    ///
    /// [`OptError::UnknownSolver`] for unregistered scheme keys;
    /// [`OptError::Spec`] when the spec names no schemes or the service
    /// is shutting down.
    pub fn submit(&self, spec: ScenarioSpec) -> Result<JobStatus, OptError> {
        self.submit_keyed(spec, None)
    }

    /// [`Service::submit`] with an optional client-supplied idempotency
    /// key: resubmitting the same key returns the existing job's status
    /// instead of enqueueing a duplicate, which is what makes a client's
    /// retried `POST /v1/jobs` safe.
    ///
    /// # Errors
    ///
    /// Everything [`Service::submit`] rejects, plus a malformed per-spec
    /// fault plan and a failed journal write (a job the journal cannot
    /// make durable is refused, not half-accepted).
    pub fn submit_keyed(
        &self,
        spec: ScenarioSpec,
        key: Option<&str>,
    ) -> Result<JobStatus, OptError> {
        if spec.schemes.is_empty() {
            return Err(OptError::Spec(
                "scenario spec: schemes: must name at least one registry key".to_string(),
            ));
        }
        spec.solvers()?;
        // Parse the per-spec fault plan up front so a typo is a 4xx at
        // submission, not a planning failure minutes later.
        let faults = match spec.faults.as_deref() {
            Some(src) => Some(Arc::new(FaultPlan::parse(src)?)),
            None => self.state.faults.clone(),
        };
        let mut store = self.state.locked();
        let seq = loop {
            if store.shutdown.is_some() {
                return Err(OptError::Spec(
                    "service: shutting down, not accepting jobs".to_string(),
                ));
            }
            match key.and_then(|k| store.keys.get(k).copied()) {
                Some(seq) => {
                    if let Some(job) = store.jobs.get(&seq) {
                        return Ok(job.status());
                    }
                    // The key is reserved by a concurrent submit that is
                    // journaling its record outside the lock; wait for
                    // it to publish (or roll back on a failed write).
                    store = self
                        .state
                        .cv
                        .wait(store)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                None => {
                    let seq = store.next_seq;
                    store.next_seq += 1;
                    // Reserve the key now so a concurrent same-key
                    // submit cannot also allocate a job while the lock
                    // is down for the journal write.
                    if let Some(k) = key {
                        store.keys.insert(k.to_string(), seq);
                    }
                    break seq;
                }
            }
        };
        drop(store);
        // Write-ahead, but outside the lock (the fsync is the slow
        // path; status/stats requests must not stall behind it): the
        // submission record lands before the job is visible, so every
        // accepted job is recoverable, and a journal that cannot take
        // the record refuses the job (the client retries).
        let journaled = self
            .state
            .journal
            .as_ref()
            .map_or(Ok(()), |journal| journal.record_submitted(seq, key, &spec));
        let mut store = self.state.locked();
        if let Err(e) = journaled {
            if let Some(k) = key {
                store.keys.remove(k);
            }
            drop(store);
            // Wake same-key submitters waiting on the reservation.
            self.state.cv.notify_all();
            return Err(OptError::Spec(format!(
                "service: journal write failed, job refused: {e}"
            )));
        }
        store.submitted += 1;
        let job = Job::queued(seq, spec, key.map(str::to_string), faults);
        let status = job.status();
        store.jobs.insert(seq, job);
        store.queue.push_back(Task::Plan { job: seq });
        drop(store);
        // notify_all, not notify_one: a worker must pick up the task,
        // and any same-key submitter parked on the reservation must
        // re-check and return this job.
        self.state.cv.notify_all();
        Ok(status)
    }

    /// The status snapshot of a job.
    #[must_use]
    pub fn status(&self, id: &str) -> Option<JobStatus> {
        let seq = job_seq(id)?;
        self.state.locked().jobs.get(&seq).map(Job::status)
    }

    /// Status snapshots of every job the service knows, in submission
    /// order (`job-1`, `job-2`, ... — the store is keyed by numeric
    /// sequence, so the listing is deterministic).
    #[must_use]
    pub fn jobs(&self) -> Vec<JobStatus> {
        self.state.locked().jobs.values().map(Job::status).collect()
    }

    /// The merged report of a job, or why there isn't one (yet).
    #[must_use]
    pub fn report(&self, id: &str) -> ReportOutcome {
        let Some(seq) = job_seq(id) else {
            return ReportOutcome::Unknown;
        };
        let store = self.state.locked();
        let Some(job) = store.jobs.get(&seq) else {
            return ReportOutcome::Unknown;
        };
        match (&job.merged, job.state) {
            (Some(report), JobState::Done) => ReportOutcome::Ready(Arc::clone(report)),
            (_, state) if state.is_live() => ReportOutcome::Pending(job.status()),
            _ => ReportOutcome::Unavailable(job.status()),
        }
    }

    /// Cancels a live job (done/failed jobs are left as-is); queued
    /// shards are skipped, in-flight ones finish and are discarded.
    #[must_use]
    pub fn cancel(&self, id: &str) -> Option<JobStatus> {
        let seq = job_seq(id)?;
        let mut store = self.state.locked();
        let job = store.jobs.get_mut(&seq)?;
        let newly_cancelled = job.state.is_live();
        if newly_cancelled {
            job.state = JobState::Cancelled;
            job.error = Some("cancelled by client".to_string());
            store.cancelled += 1;
        }
        let status = store.jobs.get(&seq).map(Job::status);
        drop(store);
        // The journal fsync runs after the lock drops; a crash in the
        // gap loses only the cancellation (the job resumes on restart),
        // never consistency.
        if newly_cancelled {
            if let Some(journal) = &self.state.journal {
                if let Err(e) = journal.record_cancelled(seq) {
                    eprintln!("synts-serve: journal: cancel record for job-{seq} failed: {e}");
                }
            }
        }
        status
    }

    /// Service-wide counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let store = self.state.locked();
        ServiceStats {
            workers: self.state.worker_total,
            submitted: store.submitted,
            done: store.done,
            failed: store.failed,
            cancelled: store.cancelled,
            queue_depth: store.queue.len(),
            in_flight: store.in_flight,
            shard_retries: store.shard_retries,
            cache: self.state.cache.stats(),
            fleet: store.fleet.snapshot(self.state.local_shards),
        }
    }

    /// Stops the in-process executors and joins them. Idempotent; safe
    /// to call from any thread holding the service behind an [`Arc`].
    ///
    /// With [`Shutdown::Drain`] every queued task runs first; with
    /// [`Shutdown::Now`] only in-flight tasks finish (a shard is never
    /// torn down mid-run) and the rest stay queued.
    pub fn shutdown(&self, mode: Shutdown) {
        {
            let mut store = self.state.locked();
            // Escalate Drain -> Now if asked twice; never de-escalate.
            store.shutdown = match (store.shutdown, mode) {
                (Some(Shutdown::Now), _) | (_, Shutdown::Now) => Some(Shutdown::Now),
                _ => Some(Shutdown::Drain),
            };
        }
        self.state.cv.notify_all();
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown(Shutdown::Now);
    }
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("workers", &self.state.worker_total)
            .finish()
    }
}

impl SvcState {
    // Poisoning is recovered, not propagated: the store is only ever
    // mutated through small invariant-preserving transactions (the heavy
    // compute — characterization, shard runs, merges — happens outside
    // the lock behind catch_unwind), so a poisoned guard still holds a
    // consistent Store and the request path must keep answering.
    pub(crate) fn locked(&self) -> MutexGuard<'_, Store> {
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The shared cache, with the job's fault plan (if any) armed on a
    /// clone so cache-site injection follows the job, not the service.
    pub(crate) fn task_cache(&self, faults: Option<&Arc<FaultPlan>>) -> CharCache {
        match faults {
            Some(plan) => self.cache.clone().with_faults(Some(Arc::clone(plan))),
            None => self.cache.clone(),
        }
    }

    pub(crate) fn run_plan(
        &self,
        job_id: u64,
        spec: &ScenarioSpec,
        faults: Option<&Arc<FaultPlan>>,
    ) {
        let cache = self.task_cache(faults);
        let planned = std::panic::catch_unwind(AssertUnwindSafe(|| {
            ShardPlan::plan_cached(spec, self.max_shards, &cache)
        }))
        .unwrap_or_else(|panic| Err(panic_error("shard planning", &panic)));
        let mut store = self.locked();
        store.in_flight -= 1;
        let Some(job) = store.job_in(job_id, JobState::Planning) else {
            return; // cancelled while planning
        };
        let staged = match planned {
            Ok(plan) => {
                job.slots = plan
                    .shards()
                    .iter()
                    .map(|shard| ShardSlot {
                        shard: shard.clone(),
                        state: ShardState::Queued,
                        attempts: 0,
                    })
                    .collect();
                job.plan = Some(plan);
                job.state = JobState::Running;
                // Splice journal-recovered shard reports into their
                // slots. Planning is deterministic, so the indices line
                // up; the spec comparison guards against a payload from
                // a different plan shape (it just reruns instead).
                let recovered = std::mem::take(&mut job.recovered);
                for (idx, report) in recovered {
                    if let Some(slot) = job.slots.get_mut(idx) {
                        if report.spec == slot.shard.spec {
                            slot.state = ShardState::Done(Box::new(report));
                        }
                    }
                }
                let tasks: Vec<Task> = job
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|(_, slot)| matches!(slot.state, ShardState::Queued))
                    .map(|(idx, _)| Task::Shard { job: job_id, idx })
                    .collect();
                if tasks.is_empty() {
                    // Every shard was recovered: merge immediately.
                    self.finish_if_complete(&mut store, job_id)
                } else {
                    store.queue.extend(tasks);
                    None
                }
            }
            Err(e) => store.fail(job_id, format!("planning failed: {e}")),
        };
        drop(store);
        self.cv.notify_all();
        self.write_terminal(staged);
    }

    /// When every slot of a running job is `Done`, merges under the lock
    /// (cheap — record concatenation + front recomputation, so
    /// cancellation cannot race a half-published report) and publishes
    /// the result. The terminal journal record is *staged*, not written:
    /// the caller hands it to [`SvcState::write_terminal`] once the lock
    /// is dropped, so the fsync never stalls status/submit requests.
    /// No-op (`None`) while shards are outstanding.
    pub(crate) fn finish_if_complete(
        &self,
        store: &mut Store,
        job_id: u64,
    ) -> Option<TerminalRecord> {
        let job = store
            .job_in(job_id, JobState::Running)
            .filter(|job| !job.slots.is_empty())?;
        // `collect` over Options doubles as the all-done check.
        let parts: Option<Vec<Report>> = job
            .slots
            .iter()
            .map(|s| match &s.state {
                ShardState::Done(r) => Some((**r).clone()),
                _ => None,
            })
            .collect();
        let parts = parts?; // shards still outstanding
        let merged = job.plan.as_ref().map_or_else(
            || {
                Err(OptError::Spec(
                    "service: job ran without a plan".to_string(),
                ))
            },
            |plan| {
                std::panic::catch_unwind(AssertUnwindSafe(|| plan.merge(&parts)))
                    .unwrap_or_else(|panic| Err(panic_error("report merge", &panic)))
            },
        );
        match merged {
            Ok(merged) => {
                let merged = Arc::new(merged);
                job.merged = Some(Arc::clone(&merged));
                job.state = JobState::Done;
                store.done += 1;
                Some(TerminalRecord::Done {
                    job: job_id,
                    report: merged,
                })
            }
            Err(e) => store.fail(job_id, format!("merge failed: {e}")),
        }
    }

    /// Writes a staged terminal record (outside the store lock). A
    /// failed write only costs a recompute after a crash, so it is
    /// logged, never propagated.
    pub(crate) fn write_terminal(&self, staged: Option<TerminalRecord>) {
        let Some(journal) = &self.journal else { return };
        match staged {
            Some(TerminalRecord::Done { job, report }) => {
                if let Err(e) = journal.record_done(job, &report) {
                    eprintln!("synts-serve: journal: done record for job-{job} failed: {e}");
                }
            }
            Some(TerminalRecord::Failed { job, msg }) => {
                if let Err(e) = journal.record_failed(job, &msg) {
                    eprintln!("synts-serve: journal: failed record for job-{job} failed: {e}");
                }
            }
            None => {}
        }
    }
}

/// Rebuilds the store from a journal replay: terminal jobs restore
/// verbatim (a `done` job serves its journaled report byte-identically),
/// live jobs re-queue with their recovered shard reports attached.
fn recover(store: &mut Store, journal: &Journal, service_faults: Option<&Arc<FaultPlan>>) {
    let replay = journal.replay();
    if replay.skipped > 0 {
        eprintln!(
            "synts-serve: journal: skipped {} unusable record(s) during recovery",
            replay.skipped
        );
    }
    if replay.truncated > 0 {
        eprintln!(
            "synts-serve: journal: truncated {} torn trailing record(s) (crash mid-append)",
            replay.truncated
        );
    }
    if replay.compacted > 0 {
        eprintln!(
            "synts-serve: journal: compacted {} shard record(s) of finished jobs",
            replay.compacted
        );
    }
    for (seq, rec) in replay.jobs {
        store.next_seq = store.next_seq.max(seq + 1);
        store.submitted += 1;
        if let Some(k) = &rec.key {
            store.keys.insert(k.clone(), seq);
        }
        // A spec that journaled with a fault plan was validated at
        // submission; a plan that no longer parses just disarms.
        let faults = rec
            .spec
            .faults
            .as_deref()
            .and_then(|src| FaultPlan::parse(src).ok())
            .map(Arc::new)
            .or_else(|| service_faults.map(Arc::clone));
        let mut job = Job::queued(seq, rec.spec, rec.key, faults);
        job.recovered = rec.shards;
        match rec.terminal {
            Some(Terminal::Done(report)) => {
                job.state = JobState::Done;
                job.merged = Some(Arc::new(*report));
                store.done += 1;
            }
            Some(Terminal::Failed(error)) => {
                job.state = JobState::Failed;
                job.error = Some(error);
                store.failed += 1;
            }
            Some(Terminal::Cancelled) => {
                job.state = JobState::Cancelled;
                job.error = Some("cancelled by client".to_string());
                store.cancelled += 1;
            }
            None => {
                store.queue.push_back(Task::Plan { job: seq });
            }
        }
        store.jobs.insert(seq, job);
    }
}

pub(crate) fn panic_error(stage: &str, panic: &(dyn std::any::Any + Send)) -> OptError {
    let msg = panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string());
    OptError::Spec(format!("service: {stage} panicked: {msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuits::StageKind;
    use synts_core::scenario::{Experiment, ThetaSpec};
    use workloads::Benchmark;

    fn quick_spec(name: &str) -> ScenarioSpec {
        ScenarioSpec::new(name, Benchmark::Radix, StageKind::Decode)
            .thetas(ThetaSpec::Grid(vec![0.5, 1.0, 2.0, 4.0]))
            .workers(1)
    }

    fn wait_done(service: &Service, id: &str) -> JobStatus {
        for _ in 0..600 {
            let status = service.status(id).expect("job exists");
            if !status.state.is_live() {
                return status;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        panic!("job {id} did not settle");
    }

    fn test_service(workers: usize) -> Service {
        let dir = std::env::temp_dir().join(format!(
            "synts-serve-queue-test-{}-{workers}",
            std::process::id()
        ));
        Service::start(ServiceConfig {
            workers,
            max_shards: 3,
            max_attempts: 2,
            cache: CharCache::at_dir(dir),
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn submit_rejects_unknown_schemes_before_queueing() {
        let service = test_service(1);
        let err = service
            .submit(quick_spec("bad").schemes(["synts_poly", "warp_drive"]))
            .expect_err("unknown scheme");
        assert!(err.to_string().contains("warp_drive"), "{err}");
        assert_eq!(service.stats().submitted, 0, "nothing was queued");
        service.shutdown(Shutdown::Now);
    }

    #[test]
    fn job_runs_to_done_and_merged_report_matches_monolithic() {
        let service = test_service(2);
        let spec = quick_spec("roundtrip");
        let status = service.submit(spec.clone()).expect("submits");
        assert_eq!(status.state, JobState::Queued);
        let settled = wait_done(&service, &status.id);
        assert_eq!(settled.state, JobState::Done, "{:?}", settled.error);
        assert_eq!(settled.shards.done, settled.shards.total);
        let ReportOutcome::Ready(report) = service.report(&status.id) else {
            panic!("report not ready");
        };
        let monolithic = Experiment::new(spec)
            .with_cache(CharCache::disabled())
            .run()
            .expect("monolithic run");
        assert_eq!(report.to_json_string(), monolithic.to_json_string());
        service.shutdown(Shutdown::Drain);
    }

    #[test]
    fn cancel_skips_remaining_shards() {
        let service = test_service(1);
        let status = service.submit(quick_spec("doomed")).expect("submits");
        let cancelled = service.cancel(&status.id).expect("job exists");
        assert_eq!(cancelled.state, JobState::Cancelled);
        let settled = wait_done(&service, &status.id);
        assert_eq!(settled.state, JobState::Cancelled);
        assert!(matches!(
            service.report(&status.id),
            ReportOutcome::Unavailable(_)
        ));
        service.shutdown(Shutdown::Now);
    }

    #[test]
    fn drain_completes_queued_jobs_and_rejects_new_ones() {
        let service = test_service(2);
        let a = service.submit(quick_spec("drain-a")).expect("submits");
        let b = service.submit(quick_spec("drain-b")).expect("submits");
        service.shutdown(Shutdown::Drain);
        for id in [&a.id, &b.id] {
            let status = service.status(id).expect("job exists");
            assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        }
        let err = service
            .submit(quick_spec("late"))
            .expect_err("post-shutdown submit");
        assert!(err.to_string().contains("shutting down"), "{err}");
    }

    #[test]
    fn job_listing_is_submission_ordered_numerically() {
        let service = test_service(1);
        let mut ids = Vec::new();
        for i in 0..12 {
            let status = service
                .submit(quick_spec(&format!("list-{i}")))
                .expect("submits");
            ids.push(status.id);
        }
        let _ = service.cancel(&ids[3]);
        // 12 jobs so a lexicographic store would list job-10..job-12
        // before job-2; the numeric key must keep submission order.
        let listed: Vec<String> = service.jobs().into_iter().map(|s| s.id).collect();
        assert_eq!(listed, ids);
        service.shutdown(Shutdown::Now);
    }

    #[test]
    fn keyed_resubmission_returns_the_existing_job() {
        let service = test_service(1);
        let a = service
            .submit_keyed(quick_spec("idem"), Some("key-1"))
            .expect("submits");
        let b = service
            .submit_keyed(quick_spec("idem"), Some("key-1"))
            .expect("idempotent resubmit");
        assert_eq!(a.id, b.id, "same key must reuse the job");
        assert_eq!(service.stats().submitted, 1, "no duplicate enqueue");
        let c = service
            .submit_keyed(quick_spec("idem-other"), Some("key-2"))
            .expect("submits");
        assert_ne!(a.id, c.id);
        service.shutdown(Shutdown::Now);
    }

    #[test]
    fn injected_first_attempt_panics_retry_to_done() {
        // Every shard's first attempt panics (`~#a0`); with two attempts
        // per shard the retries succeed and the job completes normally.
        let dir = std::env::temp_dir().join(format!(
            "synts-serve-queue-test-faults-{}",
            std::process::id()
        ));
        let plan = Arc::new(FaultPlan::parse("exec.panic=~#a0").expect("parses"));
        let service = Service::start(ServiceConfig {
            workers: 2,
            max_shards: 3,
            max_attempts: 2,
            cache: CharCache::at_dir(dir),
            faults: Some(Arc::clone(&plan)),
            ..ServiceConfig::default()
        });
        let status = service.submit(quick_spec("chaotic")).expect("submits");
        let settled = wait_done(&service, &status.id);
        assert_eq!(settled.state, JobState::Done, "{:?}", settled.error);
        assert_eq!(
            settled.retries as usize, settled.shards.total,
            "every shard should have retried exactly once"
        );
        let fired = plan.fired_counts();
        assert_eq!(
            fired.get("exec.panic").copied().unwrap_or(0) as usize,
            settled.shards.total
        );
        service.shutdown(Shutdown::Now);
    }

    #[test]
    fn unknown_job_ids_resolve_to_unknown() {
        let service = test_service(1);
        assert!(service.status("job-999").is_none());
        assert!(matches!(service.report("job-999"), ReportOutcome::Unknown));
        assert!(service.cancel("job-999").is_none());
        service.shutdown(Shutdown::Now);
    }
}
