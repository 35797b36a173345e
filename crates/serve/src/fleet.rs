//! The one shard scheduler: leases, the executors that hold them
//! (in-process and remote), and the coordinator side of the shared
//! characterization tier.
//!
//! # Topology
//!
//! One **coordinator** (an ordinary [`Service`] behind [`crate::http`])
//! owns the job store, the journal and the authoritative cache
//! directory. Its worker threads are **in-process executors**; any
//! number of **remote executors** (`synts-serve --executor
//! --coordinator <addr>`) register over HTTP. Every executor runs the
//! same loop through the same scheduler: lease a task, run it, complete
//! it.
//!
//! ```text
//!   client ──POST /v1/jobs──▶ coordinator ◀──register/poll/complete── executor A
//!                             │  in-process executors: plans + shards  executor B
//!                             │  one queue, one lease table            ...
//!                             └─ GET/PUT /v1/cache/<key>  (shared characterization tier)
//! ```
//!
//! Plan tasks run only in process and take no lease number. In-process
//! executors take no `exec-<n>` id and never count as live fleet
//! executors; their fault tokens are `<shard>#a<attempt>`, with no
//! executor identity, so fault ledgers do not depend on the worker
//! count.
//!
//! A remote executor is one [`Executor::step`] repeated: poll,
//! re-register if the coordinator no longer knows its id, draw
//! `exec.kill`, run the shard, complete it. The step talks to the
//! coordinator through a [`Transport`]: a socket for the `--executor`
//! process ([`run_executor`]), or the coordinator's HTTP router called
//! in process. The fleet and chaos property tests drive the shipped
//! step and its wire bodies over the in-process transport, with no
//! socket and no clock.
//!
//! # Leases, in logical time
//!
//! Every leased shard carries a **lease** measured in logical ticks,
//! not wall-clock: [`Service::fleet_tick`] advances the clock, and a
//! lease (or executor registration) not renewed within
//! [`ServiceConfig::lease_ticks`](crate::ServiceConfig::lease_ticks)
//! ticks expires. A remote executor renews by polling, heartbeating and
//! completing. An in-process executor is alive as long as the process,
//! so every tick renews its leases, each renewal passing the
//! `fleet.heartbeat` fault site. The `synts-serve` binary drives ticks
//! from a wall-clock reaper thread (`--tick-ms`); tests drive them
//! directly, which is what makes lease expiry and shard reassignment
//! fully deterministic — no decision in this module ever reads a clock.
//!
//! Every lost attempt is charged by one rule (`charge_lost_attempt`):
//! a failed run, an expired lease, a dispatch lost in flight. Below the
//! attempt bound the shard is requeued; a completion under an expired
//! lease is rejected, so a zombie never lands a result. Shard results
//! are journaled through the same records whichever executor ran them:
//! coordinator restart recovers fleet jobs byte-identically.
//!
//! # Degraded modes
//!
//! * Fleet mode (`local_shards == false`) with zero live remote
//!   executors: in-process executors lease shards anyway (warned in
//!   `/v1/stats` and `/v1/healthz` as `degraded`).
//! * A partially-dead fleet converges: live executors absorb the
//!   reassigned shards of dead ones.
//! * A dead coordinator ends the fleet: an executor exits 1 after 50
//!   failed polls in a row. The coordinator's journal replays on
//!   restart.
//!
//! # Fault sites
//!
//! `fleet.dispatch` (coordinator: a dispatch to a remote executor is
//! lost in flight), `fleet.heartbeat` (a due renewal is dropped: a
//! remote executor's heartbeat, or a tick's renewal of an in-process
//! lease) and `cache.remote` (the shared tier is unreachable) plug the
//! layer into the same deterministic chaos harness as everything else.

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, PoisonError};
use std::time::Duration;

use synts_core::cache::{write_via_temp, RemoteCacheTier, RemoteFetch};
use synts_core::faults::{site, FaultPlan};
use synts_core::scenario::{Experiment, Json, Report, ScenarioSpec};
use synts_core::{CharCache, OptError};

use crate::client::{Client, HttpReply, RetryPolicy};
use crate::queue::{
    panic_error, JobState, Service, ShardState, Shutdown, Store, SvcState, Task, TerminalRecord,
};

/// How an in-process executor is named where a remote executor's id
/// would go: log lines and lease-loss messages.
const IN_PROCESS: &str = "in-process";

/// Coordinator-side fleet state, embedded in the service's one store
/// mutex so lease transitions and queue transitions never interleave
/// inconsistently.
#[derive(Debug)]
pub(crate) struct FleetStore {
    /// The logical clock. Advanced only by [`Service::fleet_tick`].
    now: u64,
    /// Ticks a lease/registration stays valid without renewal.
    lease_ticks: u64,
    next_executor: u64,
    next_lease: u64,
    executors: BTreeMap<String, ExecutorInfo>,
    leases: BTreeMap<String, Lease>,
    /// Characterization claims for the shared cache tier (per-key
    /// "I am computing this" markers with tick deadlines).
    claims: BTreeMap<String, CacheClaim>,
    dispatched: u64,
    completed: u64,
    expired: u64,
}

#[derive(Debug)]
struct ExecutorInfo {
    /// Self-reported display name (`--name`); ids are service-assigned.
    name: String,
    expires: u64,
}

#[derive(Debug)]
struct Lease {
    /// The remote executor holding the lease; `None` for an in-process
    /// one.
    executor: Option<String>,
    job: u64,
    idx: usize,
    expires: u64,
}

#[derive(Debug)]
struct CacheClaim {
    owner: String,
    expires: u64,
}

impl FleetStore {
    pub(crate) fn new(lease_ticks: u64) -> FleetStore {
        FleetStore {
            now: 0,
            lease_ticks,
            next_executor: 1,
            next_lease: 1,
            executors: BTreeMap::new(),
            leases: BTreeMap::new(),
            claims: BTreeMap::new(),
            dispatched: 0,
            completed: 0,
            expired: 0,
        }
    }

    /// Remote executors whose registration has not lapsed.
    pub(crate) fn live_executors(&self) -> usize {
        self.executors
            .values()
            .filter(|e| e.expires > self.now)
            .count()
    }

    pub(crate) fn snapshot(&self, local_shards: bool) -> FleetSnapshot {
        let executors = self.live_executors();
        FleetSnapshot {
            executors,
            leases: self.leases.len(),
            dispatched: self.dispatched,
            completed: self.completed,
            expired: self.expired,
            degraded: !local_shards && executors == 0,
        }
    }

    /// Renews a remote executor's registration; `false` when it is
    /// unknown (never registered, or evicted by a tick once it lapsed).
    fn renew(&mut self, executor: &str) -> bool {
        let expires = self.now + self.lease_ticks;
        self.executors
            .get_mut(executor)
            .map(|info| info.expires = expires)
            .is_some()
    }
}

/// Fleet counters surfaced in `/v1/stats`. Lease counters cover
/// in-process and remote executors alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetSnapshot {
    /// Remote executors with a live registration.
    pub executors: usize,
    /// Shard leases currently outstanding.
    pub leases: usize,
    /// Shards leased to executors since start.
    pub dispatched: u64,
    /// Lease completions accepted since start.
    pub completed: u64,
    /// Leases expired or lost in dispatch (shard reassigned or failed)
    /// since start.
    pub expired: u64,
    /// True when the service wants fleet execution but has no live
    /// remote executor, so in-process executors lease the shards
    /// (graceful degradation).
    pub degraded: bool,
}

impl FleetSnapshot {
    /// The wire representation.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("executors", Json::num(self.executors as f64))
            .field("leases", Json::num(self.leases as f64))
            .field("dispatched", Json::num(self.dispatched as f64))
            .field("completed", Json::num(self.completed as f64))
            .field("expired", Json::num(self.expired as f64))
            .field("degraded", Json::Bool(self.degraded))
    }
}

/// Reply to a successful registration.
#[derive(Debug, Clone)]
pub struct RegisterOutcome {
    /// Service-assigned executor id (`exec-<n>`).
    pub executor: String,
    /// The lease/registration deadline, in ticks.
    pub lease_ticks: u64,
}

/// One dispatched shard, leased to one executor.
#[derive(Debug, Clone)]
pub struct Dispatch {
    /// The lease id (`lease-<n>`) the executor must heartbeat and
    /// complete under.
    pub lease: String,
    /// The owning job's wire id (`job-<n>`).
    pub job: String,
    /// The shard index within the job's plan.
    pub shard: usize,
    /// Zero-based attempt number (for fault-identity tokens).
    pub attempt: u32,
    /// The complete shard spec — executors need nothing else.
    pub spec: ScenarioSpec,
}

/// Reply to an executor's poll.
#[derive(Debug)]
pub enum PollOutcome {
    /// A shard, under a fresh lease.
    Dispatch(Box<Dispatch>),
    /// Nothing claimable right now, or the coordinator is shutting down;
    /// poll again.
    Idle,
    /// The registration lapsed (or the coordinator restarted):
    /// re-register and poll again.
    UnknownExecutor,
}

/// Reply to a heartbeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeartbeatOutcome {
    /// Registration renewed. `lease_held` reports the named lease:
    /// `Some(false)` warns the executor its lease expired (the shard
    /// has been reassigned; its result will be rejected).
    Renewed { lease_held: Option<bool> },
    /// The registration lapsed; re-register.
    UnknownExecutor,
}

/// Reply to a shard completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompleteOutcome {
    /// The result was accepted (a failure report is also "accepted" —
    /// it charges the attempt).
    Accepted,
    /// The lease was unknown, expired, or owned by someone else; the
    /// executor discards the result.
    Rejected(String),
}

/// Reply to a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickOutcome {
    /// The logical clock after the tick.
    pub now: u64,
    /// Leases expired by this tick.
    pub expired: usize,
}

/// Journal health for the readiness probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalHealth {
    /// Running without a journal (in-memory only).
    Disabled,
    /// The probe write landed.
    Writable,
    /// The probe write failed — accepted jobs could be lost.
    Unwritable,
}

impl JournalHealth {
    /// Canonical wire name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            JournalHealth::Disabled => "disabled",
            JournalHealth::Writable => "writable",
            JournalHealth::Unwritable => "unwritable",
        }
    }
}

/// The readiness probe (`GET /v1/healthz`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Health {
    /// False when the journal is unwritable (the probe answers 503).
    pub ok: bool,
    /// Tasks waiting in the queue.
    pub queue_depth: usize,
    /// Tasks running on in-process executors.
    pub in_flight: usize,
    /// Live remote executors.
    pub executors: usize,
    /// Outstanding shard leases, in-process and remote.
    pub leases: usize,
    /// Fleet mode with zero live remote executors (shards running in
    /// process).
    pub degraded: bool,
    /// Journal writability.
    pub journal: JournalHealth,
}

impl Health {
    /// The wire representation.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("ok", Json::Bool(self.ok))
            .field("queue_depth", Json::num(self.queue_depth as f64))
            .field("in_flight", Json::num(self.in_flight as f64))
            .field("executors", Json::num(self.executors as f64))
            .field("leases", Json::num(self.leases as f64))
            .field("degraded", Json::Bool(self.degraded))
            .field("journal", Json::str(self.journal.name()))
    }
}

/// Outcome of a shared-tier cache lookup on the coordinator.
#[derive(Debug)]
pub enum CacheFetchOutcome {
    /// The entry text (the client verifies it against its own key).
    Hit(String),
    /// Absent; the caller's claim was granted — it should characterize
    /// and `PUT` the result.
    MissClaimGranted,
    /// Absent, and another executor holds the characterization claim —
    /// the caller should wait for the publish instead of recomputing.
    MissClaimHeld,
    /// Absent; no claim was requested.
    Miss,
    /// The coordinator runs without a cache directory.
    Disabled,
}

/// The cache routes accept exactly the names the cache writes
/// (`<16 hex>.char`); anything else is rejected before it can touch the
/// filesystem.
pub use synts_core::cache::valid_entry_name;

/// The one retry rule. Charges one attempt to a leased (Running) shard
/// whose attempt was lost — a failed run, an expired lease or a dispatch
/// lost in flight. Requeues below the attempt bound; fails the job at
/// it. Returns a staged terminal record for the caller to write outside
/// the lock.
fn charge_lost_attempt(
    store: &mut Store,
    job_seq: u64,
    idx: usize,
    err: &str,
    max_attempts: u32,
) -> Option<TerminalRecord> {
    let job = store.job_in(job_seq, JobState::Running)?;
    let slot = job
        .slots
        .get_mut(idx)
        .filter(|slot| matches!(slot.state, ShardState::Running))?;
    slot.attempts += 1;
    if slot.attempts < max_attempts {
        slot.state = ShardState::Queued;
        job.retries += 1;
        store.shard_retries += 1;
        store.queue.push_back(Task::Shard { job: job_seq, idx });
        None
    } else {
        slot.state = ShardState::Failed;
        let msg = format!(
            "shard {idx} failed after {} attempt(s): {err}",
            slot.attempts
        );
        store.fail(job_seq, msg)
    }
}

/// What a lease hands its executor.
pub(crate) enum Leased {
    /// A plan task: in-process only, under no lease number.
    Plan {
        job: u64,
        spec: ScenarioSpec,
        faults: Option<Arc<FaultPlan>>,
    },
    /// A shard under a fresh lease, with its job's fault plan.
    Shard(Box<Dispatch>, Option<Arc<FaultPlan>>),
}

/// The one lease function. `executor` is the remote executor asking,
/// `None` for an in-process one. Leases the first queued task that
/// executor may run: a remote executor takes only shards; an in-process
/// one takes plans, and shards when `local_shards` is set or no remote
/// executor is live. Tasks of cancelled or failed jobs dissolve on the
/// way. A `fleet.dispatch` fault loses a remote dispatch in flight: the
/// attempt is charged (staging any terminal record) and the scan goes
/// on.
fn lease(
    store: &mut Store,
    executor: Option<&str>,
    local_shards: bool,
    max_attempts: u32,
    staged: &mut Vec<TerminalRecord>,
) -> Option<Leased> {
    let take_shards = executor.is_some() || local_shards || store.fleet.live_executors() == 0;
    let mut i = 0;
    while let Some(&task) = store.queue.get(i) {
        let runnable = match task {
            Task::Plan { .. } => executor.is_none(),
            Task::Shard { .. } => take_shards,
        };
        if !runnable {
            i += 1;
            continue;
        }
        // Taken off the queue: a task that dissolves below is dropped,
        // and the next candidate is already at `i`.
        store.queue.remove(i);
        match task {
            Task::Plan { job } => {
                let Some(j) = store.job_in(job, JobState::Queued) else {
                    continue;
                };
                j.state = JobState::Planning;
                let (spec, faults) = (j.spec.clone(), j.faults.clone());
                store.in_flight += 1;
                return Some(Leased::Plan { job, spec, faults });
            }
            Task::Shard { job, idx } => {
                let Some(j) = store.job_in(job, JobState::Running) else {
                    continue;
                };
                let faults = j.faults.clone();
                let Some(slot) = j
                    .slots
                    .get_mut(idx)
                    .filter(|s| matches!(s.state, ShardState::Queued))
                else {
                    continue;
                };
                slot.state = ShardState::Running;
                let (spec, attempt) = (slot.shard.spec.clone(), slot.attempts);
                if let (Some(executor), Some(plan)) = (executor, &faults) {
                    let token = format!("{}#a{attempt}@{executor}", spec.name);
                    if plan.should(site::FLEET_DISPATCH, &token) {
                        store.fleet.expired += 1;
                        staged.extend(charge_lost_attempt(
                            store,
                            job,
                            idx,
                            "dispatch lost in flight (injected)",
                            max_attempts,
                        ));
                        continue;
                    }
                }
                let fleet = &mut store.fleet;
                let lease = format!("lease-{}", fleet.next_lease);
                fleet.next_lease += 1;
                fleet.dispatched += 1;
                let expires = fleet.now + fleet.lease_ticks;
                fleet.leases.insert(
                    lease.clone(),
                    Lease {
                        executor: executor.map(str::to_string),
                        job,
                        idx,
                        expires,
                    },
                );
                if executor.is_none() {
                    store.in_flight += 1;
                    if !local_shards {
                        eprintln!(
                            "synts-serve: fleet degraded: no live executors, \
                             running shard locally"
                        );
                    }
                }
                let dispatch = Dispatch {
                    lease,
                    job: format!("job-{job}"),
                    shard: idx,
                    attempt,
                    spec,
                };
                return Some(Leased::Shard(Box::new(dispatch), faults));
            }
        }
    }
    None
}

/// The one shard runner, shared by in-process and remote executors:
/// the `exec.slow` and `exec.panic` hooks for `token` (each executor
/// draws `exec.kill` itself), then the shard's complete
/// `Experiment::run`, with a panic contained as an error.
fn execute_shard(
    spec: ScenarioSpec,
    cache: CharCache,
    faults: Option<&FaultPlan>,
    token: &str,
) -> Result<Report, String> {
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        if let Some(plan) = faults {
            plan.maybe_slow(token);
            plan.maybe_panic(token);
        }
        Experiment::new(spec).with_cache(cache).run()
    }))
    .unwrap_or_else(|panic| Err(panic_error("shard execution", &panic)))
    .map_err(|e| e.to_string())
}

/// An in-process executor: each worker thread [`Service::start`]
/// spawns runs this loop until shutdown — lease a task, run it,
/// complete it — blocking on the store's condvar between leases.
/// Returns at [`Shutdown::Now`], or at [`Shutdown::Drain`] once the
/// queue is dry.
pub(crate) fn run_in_process(state: &SvcState) {
    loop {
        let leased = {
            let mut store = state.locked();
            loop {
                if store.shutdown == Some(Shutdown::Now) {
                    return;
                }
                // In-process leases pass no dispatch fault site, so they
                // never stage a terminal record.
                let leased = lease(
                    &mut store,
                    None,
                    state.local_shards,
                    state.max_attempts,
                    &mut Vec::new(),
                );
                if let Some(leased) = leased {
                    break leased;
                }
                if store.shutdown == Some(Shutdown::Drain) && store.queue.is_empty() {
                    return;
                }
                store = state.cv.wait(store).unwrap_or_else(PoisonError::into_inner);
            }
        };
        match leased {
            Leased::Plan { job, spec, faults } => state.run_plan(job, &spec, faults.as_ref()),
            Leased::Shard(dispatch, faults) => {
                let Dispatch {
                    lease,
                    attempt,
                    spec,
                    ..
                } = *dispatch;
                let token = format!("{}#a{attempt}", spec.name);
                if let Some(plan) = &faults {
                    plan.maybe_kill(&token);
                }
                let cache = state.task_cache(faults.as_ref());
                let result = execute_shard(spec, cache, faults.as_deref(), &token);
                let _ = state.complete(None, &lease, result);
            }
        }
    }
}

impl SvcState {
    /// The one completion path, for every executor (`executor` is `None`
    /// for an in-process one). `Ok(report)` is journaled outside the
    /// lock, then published, merging the job when it was the last
    /// shard; `Err(msg)` charges the attempt at once. A lease that
    /// expired or is held by someone else rejects the result.
    pub(crate) fn complete(
        &self,
        executor: Option<&str>,
        lease_id: &str,
        result: Result<Report, String>,
    ) -> CompleteOutcome {
        // Phase 1: validate ownership and detach the lease under the
        // lock. The slot stays `Running`, and with the lease gone
        // neither a tick nor another lease can touch it, so the journal
        // write below is race-free.
        let (job_seq, idx, report) = {
            let mut store = self.locked();
            if executor.is_none() {
                store.in_flight -= 1;
            }
            let Some(lease) = store.fleet.leases.remove(lease_id) else {
                return CompleteOutcome::Rejected(format!(
                    "lease {lease_id} unknown or expired; shard was reassigned"
                ));
            };
            if lease.executor.as_deref() != executor {
                store.fleet.leases.insert(lease_id.to_string(), lease);
                return CompleteOutcome::Rejected(format!(
                    "lease {lease_id} is not held by {}",
                    executor.unwrap_or(IN_PROCESS)
                ));
            }
            if let Some(executor) = executor {
                store.fleet.renew(executor);
            }
            match result {
                Ok(report) => {
                    // Validate the slot is still this lease's to fill.
                    let valid = store.jobs.get(&lease.job).is_some_and(|job| {
                        job.state == JobState::Running
                            && job.slots.get(lease.idx).is_some_and(|slot| {
                                matches!(slot.state, ShardState::Running)
                                    && slot.shard.spec == report.spec
                            })
                    });
                    if !valid {
                        return CompleteOutcome::Rejected(format!(
                            "job-{} is no longer expecting shard {}",
                            lease.job, lease.idx
                        ));
                    }
                    (lease.job, lease.idx, report)
                }
                Err(msg) => {
                    let staged = charge_lost_attempt(
                        &mut store,
                        lease.job,
                        lease.idx,
                        &msg,
                        self.max_attempts,
                    );
                    store.fleet.completed += 1;
                    drop(store);
                    self.write_terminal(staged);
                    self.cv.notify_all();
                    return CompleteOutcome::Accepted;
                }
            }
        };
        // Phase 2: journal outside the lock (the fsync is the journal's
        // slow path), then publish the slot and maybe finish.
        if let Some(journal) = &self.journal {
            if let Err(e) = journal.record_shard_done(job_seq, idx, &report) {
                eprintln!("synts-serve: journal: shard record for job-{job_seq}/{idx} failed: {e}");
            }
        }
        let staged = {
            let mut store = self.locked();
            store.fleet.completed += 1;
            let publishable = store
                .job_in(job_seq, JobState::Running)
                .and_then(|job| job.slots.get_mut(idx));
            match publishable {
                Some(slot) if matches!(slot.state, ShardState::Running) => {
                    slot.state = ShardState::Done(Box::new(report));
                    self.finish_if_complete(&mut store, job_seq)
                }
                // Cancelled/failed while we journaled: drop the result.
                _ => None,
            }
        };
        self.write_terminal(staged);
        self.cv.notify_all();
        CompleteOutcome::Accepted
    }
}

impl Service {
    /// Registers an executor; ids are assigned in registration order
    /// (`exec-1`, `exec-2`, ...) so fleets are deterministic to drive.
    #[must_use]
    pub fn fleet_register(&self, name: &str) -> RegisterOutcome {
        let mut store = self.state.locked();
        let n = store.fleet.next_executor;
        store.fleet.next_executor += 1;
        let id = format!("exec-{n}");
        let expires = store.fleet.now + store.fleet.lease_ticks;
        store.fleet.executors.insert(
            id.clone(),
            ExecutorInfo {
                name: name.to_string(),
                expires,
            },
        );
        let lease_ticks = store.fleet.lease_ticks;
        drop(store);
        RegisterOutcome {
            executor: id,
            lease_ticks,
        }
    }

    /// A remote executor asks for work: renews its registration and
    /// leases it the first shard it may run (see the module docs). Under
    /// [`Shutdown::Now`] it leases nothing.
    #[must_use]
    pub fn fleet_poll(&self, executor: &str) -> PollOutcome {
        let mut staged = Vec::new();
        let outcome = {
            let mut store = self.state.locked();
            if store.shutdown == Some(Shutdown::Now) {
                return PollOutcome::Idle;
            }
            if !store.fleet.renew(executor) {
                return PollOutcome::UnknownExecutor;
            }
            match lease(
                &mut store,
                Some(executor),
                self.state.local_shards,
                self.state.max_attempts,
                &mut staged,
            ) {
                Some(Leased::Shard(dispatch, _)) => PollOutcome::Dispatch(dispatch),
                _ => PollOutcome::Idle,
            }
        };
        for t in staged {
            self.state.write_terminal(Some(t));
        }
        // Requeued shards (dispatch faults) may now be leasable by
        // in-process executors in degraded mode.
        self.state.cv.notify_all();
        outcome
    }

    /// Renews a remote executor's registration and (optionally) one
    /// lease.
    #[must_use]
    pub fn fleet_heartbeat(&self, executor: &str, lease: Option<&str>) -> HeartbeatOutcome {
        let mut store = self.state.locked();
        if !store.fleet.renew(executor) {
            return HeartbeatOutcome::UnknownExecutor;
        }
        let expires = store.fleet.now + store.fleet.lease_ticks;
        let lease_held = lease.map(|id| match store.fleet.leases.get_mut(id) {
            Some(l) if l.executor.as_deref() == Some(executor) => {
                l.expires = expires;
                true
            }
            _ => false,
        });
        HeartbeatOutcome::Renewed { lease_held }
    }

    /// A remote executor reports a leased shard's outcome through the
    /// one completion path: `Ok(report)` lands the partial result
    /// (journaled, merged when the job completes); `Err(msg)` charges
    /// the attempt immediately — same rule as a lease expiry, without
    /// waiting for one.
    #[must_use]
    pub fn fleet_complete(
        &self,
        executor: &str,
        lease_id: &str,
        result: Result<Report, String>,
    ) -> CompleteOutcome {
        self.state.complete(Some(executor), lease_id, result)
    }

    /// Advances the logical clock one tick. In-process leases are
    /// renewed first, each renewal through the `fleet.heartbeat` fault
    /// site (token `<shard>#a<attempt>`). Then expired leases charge
    /// their shard an attempt and requeue it (reassignment), and lapsed
    /// executor registrations and cache claims are evicted. Driven by
    /// the binary's reaper thread, `POST /v1/fleet/tick`, or tests.
    #[must_use]
    pub fn fleet_tick(&self) -> TickOutcome {
        let mut staged = Vec::new();
        let outcome = {
            let mut guard = self.state.locked();
            let store = &mut *guard;
            store.fleet.now += 1;
            let now = store.fleet.now;
            let renewed = now + store.fleet.lease_ticks;
            let (due, live): (BTreeMap<String, Lease>, _) = std::mem::take(&mut store.fleet.leases)
                .into_iter()
                .map(|(id, mut lease)| {
                    // Remote leases renew by heartbeat, in-process ones
                    // here: unless the heartbeat site drops the renewal.
                    let renew = lease.executor.is_none()
                        && !store.jobs.get(&lease.job).is_some_and(|job| {
                            let (Some(plan), Some(slot)) = (&job.faults, job.slots.get(lease.idx))
                            else {
                                return false;
                            };
                            let token = format!("{}#a{}", slot.shard.spec.name, slot.attempts);
                            plan.should(site::FLEET_HEARTBEAT, &token)
                        });
                    if renew {
                        lease.expires = renewed;
                    }
                    (id, lease)
                })
                .partition(|(_, lease)| lease.expires <= now);
            store.fleet.leases = live;
            let expired = due.len();
            for (id, lease) in due {
                store.fleet.expired += 1;
                let holder = lease.executor.as_deref().unwrap_or(IN_PROCESS);
                eprintln!(
                    "synts-serve: fleet: lease {id} (executor {holder}, job-{} shard {}) expired; \
                     reassigning",
                    lease.job, lease.idx
                );
                staged.extend(charge_lost_attempt(
                    store,
                    lease.job,
                    lease.idx,
                    &format!("lease expired on executor {holder}"),
                    self.state.max_attempts,
                ));
            }
            store.fleet.executors.retain(|id, info| {
                let live = info.expires > now;
                if !live {
                    eprintln!(
                        "synts-serve: fleet: executor {id} ({}) lapsed; evicting",
                        info.name
                    );
                }
                live
            });
            store.fleet.claims.retain(|_, c| c.expires > now);
            TickOutcome { now, expired }
        };
        for t in staged {
            self.state.write_terminal(Some(t));
        }
        // Requeued shards need an executor to notice; in-process ones
        // also re-check the degraded rule.
        self.state.cv.notify_all();
        outcome
    }

    /// The readiness probe behind `GET /v1/healthz`.
    #[must_use]
    pub fn health(&self) -> Health {
        // Probe the journal before taking the lock — it is real I/O.
        let journal = match &self.state.journal {
            None => JournalHealth::Disabled,
            Some(j) if j.writable() => JournalHealth::Writable,
            Some(_) => JournalHealth::Unwritable,
        };
        let store = self.state.locked();
        let executors = store.fleet.live_executors();
        Health {
            ok: journal != JournalHealth::Unwritable,
            queue_depth: store.queue.len(),
            in_flight: store.in_flight,
            executors,
            leases: store.fleet.leases.len(),
            degraded: !self.state.local_shards && executors == 0,
            journal,
        }
    }

    /// Coordinator side of the shared tier: look up an entry, optionally
    /// claiming the characterization on a miss. Claims expire after
    /// `lease_ticks` ticks, so a claimant that dies never wedges the
    /// key — a waiting executor's poll loop runs out and it computes
    /// locally anyway.
    #[must_use]
    pub fn cache_fetch(&self, name: &str, claimant: Option<&str>) -> CacheFetchOutcome {
        if !self.state.cache.is_enabled() {
            return CacheFetchOutcome::Disabled;
        }
        // Read without the store lock: entries are immutable and
        // rename-published, so a concurrent PUT is invisible or whole.
        let path = self.state.cache.dir().join(name);
        if let Ok(text) = std::fs::read_to_string(&path) {
            return CacheFetchOutcome::Hit(text);
        }
        let Some(who) = claimant else {
            return CacheFetchOutcome::Miss;
        };
        let mut store = self.state.locked();
        let now = store.fleet.now;
        let expires = now + store.fleet.lease_ticks;
        match store.fleet.claims.get(name) {
            Some(c) if c.expires > now && c.owner != who => CacheFetchOutcome::MissClaimHeld,
            _ => {
                store.fleet.claims.insert(
                    name.to_string(),
                    CacheClaim {
                        owner: who.to_string(),
                        expires,
                    },
                );
                CacheFetchOutcome::MissClaimGranted
            }
        }
    }

    /// Coordinator side of a tier publish: lands the entry atomically in
    /// the coordinator's cache directory and releases any claim on it.
    ///
    /// # Errors
    ///
    /// The I/O failure message (the HTTP layer answers 500; the
    /// executor's run is unaffected — publishes are best-effort).
    pub fn cache_publish(&self, name: &str, entry: &str) -> Result<(), String> {
        if !self.state.cache.is_enabled() {
            return Err("cache disabled on this coordinator".to_string());
        }
        write_via_temp(&self.state.cache.dir().join(name), entry)
            .map_err(|e| format!("cache write: {e}"))?;
        self.state.locked().fleet.claims.remove(name);
        Ok(())
    }
}

/// Held-claim re-probes before [`HttpCacheTier`] stops waiting for
/// another executor's publish and computes the entry locally.
const CLAIM_WAIT_PROBES: u32 = 300;

/// Consecutive failed steps (a register, poll or completion the
/// coordinator did not answer) before [`run_executor`] gives the
/// coordinator up for dead.
const MAX_OFFLINE_POLLS: u32 = 50;

/// The executor-side view of the coordinator's shared cache tier:
/// `GET /v1/cache/<key>?claim=<self>` on a local miss, `PUT` after a
/// local store. A held claim polls (bounded) for the other executor's
/// publish; any transport trouble degrades to local computation.
#[derive(Debug)]
pub struct HttpCacheTier {
    client: Client,
    claimant: String,
    poll: Duration,
}

impl HttpCacheTier {
    /// A tier talking to `coordinator` (`host:port`), identifying as
    /// `claimant` in characterization claims. While another claimant
    /// holds a key it re-probes every `poll`, up to 300 times, then
    /// computes the entry locally.
    #[must_use]
    pub fn new(coordinator: &str, claimant: &str, poll: Duration) -> HttpCacheTier {
        HttpCacheTier {
            client: Client::new(coordinator).with_policy(RetryPolicy::none()),
            claimant: claimant.to_string(),
            poll,
        }
    }
}

impl RemoteCacheTier for HttpCacheTier {
    fn fetch(&self, name: &str) -> RemoteFetch {
        if !valid_entry_name(name) {
            return RemoteFetch::Compute;
        }
        let claimed = format!("/v1/cache/{name}?claim={}", self.claimant);
        match self.client.request("GET", &claimed, None) {
            Ok(r) if r.status == 200 => RemoteFetch::Hit(r.body),
            Ok(r) if r.status == 409 => {
                // Another executor holds the characterization claim:
                // wait (bounded) for its publish instead of duplicating
                // the work. Claims expire server-side, so a dead
                // claimant cannot wedge this loop past its budget.
                let plain = format!("/v1/cache/{name}");
                for _ in 0..CLAIM_WAIT_PROBES {
                    std::thread::sleep(self.poll);
                    match self.client.request("GET", &plain, None) {
                        Ok(r) if r.status == 200 => return RemoteFetch::Hit(r.body),
                        Ok(r) if r.status == 404 => {}
                        _ => return RemoteFetch::Compute,
                    }
                }
                RemoteFetch::Compute
            }
            _ => RemoteFetch::Compute,
        }
    }

    fn publish(&self, name: &str, entry: &str) -> bool {
        valid_entry_name(name)
            && self
                .client
                .request("PUT", &format!("/v1/cache/{name}"), Some(entry))
                .is_ok_and(|r| r.status == 200)
    }
}

/// How a remote executor reaches its coordinator's HTTP API.
#[derive(Debug)]
pub enum Transport {
    /// A socket to the coordinator. While a shard runs, the executor
    /// heartbeats its lease every `beat`.
    Socket {
        /// The coordinator's client (one attempt per request).
        client: Client,
        /// Heartbeat interval.
        beat: Duration,
    },
    /// The coordinator's router, called in process: the same request
    /// and reply bodies without a socket. It never heartbeats, so a
    /// fleet driven over it is a function of its steps and
    /// [`Service::fleet_tick`]s alone.
    InProcess(Arc<Service>),
}

impl Transport {
    /// Sends one request and returns the coordinator's reply: an error
    /// only for a socket's transport failure.
    fn request(&self, method: &str, path: &str, body: Option<&str>) -> Result<HttpReply, OptError> {
        match self {
            Transport::Socket { client, .. } => client.request(method, path, body),
            Transport::InProcess(service) => Ok(crate::http::respond(
                service,
                method,
                path,
                body.unwrap_or(""),
            )),
        }
    }
}

/// What one [`Executor::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The executor registered: on its first step, or because the
    /// coordinator no longer knew its id. It polls on its next step.
    Registered,
    /// The poll leased nothing.
    Idle,
    /// A shard ran and its report, or its error, was sent back.
    Ran,
    /// An injected `exec.kill` halted this in-process executor before
    /// its shard ran. It keeps the lease, which only expiry frees, and
    /// must not be stepped again. (Over a socket the process aborts.)
    Killed,
}

/// A remote executor. Each [`Executor::step`] polls the coordinator,
/// re-registers when the coordinator no longer knows it, draws
/// `exec.kill`, runs the dispatched shard through the one shard runner
/// and completes it. The `synts-serve --executor` process steps one
/// over a socket ([`run_executor`]); the fleet and chaos tests step
/// several over the in-process transport.
#[derive(Debug)]
pub struct Executor {
    transport: Transport,
    /// Self-reported display name: the `@<name>` of its fault tokens.
    name: String,
    /// The service-assigned id; `None` until a registration lands.
    id: Option<String>,
    cache: CharCache,
    faults: Option<Arc<FaultPlan>>,
}

impl Executor {
    /// An executor that registers on its first step.
    #[must_use]
    pub fn new(
        transport: Transport,
        name: &str,
        cache: CharCache,
        faults: Option<Arc<FaultPlan>>,
    ) -> Executor {
        Executor {
            transport,
            name: name.to_string(),
            id: None,
            cache,
            faults,
        }
    }

    /// The service-assigned executor id (`exec-<n>`), once registered.
    #[must_use]
    pub fn id(&self) -> Option<&str> {
        self.id.as_deref()
    }

    /// One round of the protocol (see [`Executor`]). A poll reply that
    /// carries no dispatch is idle; a rejected completion (the lease
    /// expired and the shard was reassigned) is logged.
    ///
    /// # Errors
    ///
    /// A register, poll or completion the coordinator did not answer,
    /// or a reply that is not JSON.
    pub fn step(&mut self) -> Result<Step, OptError> {
        let Some(id) = self.id.clone() else {
            return self.register();
        };
        let body = Json::obj().field("executor", Json::str(&id));
        let reply = self.post("/v1/fleet/poll", body)?;
        if reply.status == 404 {
            return self.register();
        }
        let poll = reply.json()?;
        let (Some(lease), Some(attempt), Some(spec)) = (
            poll.get("lease").and_then(Json::as_str),
            poll.get("attempt").and_then(Json::as_usize),
            poll.get("spec"),
        ) else {
            return Ok(Step::Idle);
        };
        let result = match ScenarioSpec::from_json(spec) {
            Err(e) => Err(format!("bad dispatched spec: {e}")),
            Ok(spec) => {
                let token = format!("{}#a{attempt}@{}", spec.name, self.name);
                let faults = self.faults.as_deref();
                if faults.is_some_and(|plan| plan.should(site::EXEC_KILL, &token)) {
                    if let Transport::Socket { .. } = self.transport {
                        eprintln!("fault injected: {} at {token}; aborting", site::EXEC_KILL);
                        std::process::abort();
                    }
                    return Ok(Step::Killed);
                }
                eprintln!("synts-serve: executor {id}: running {token}");
                let run = || execute_shard(spec, self.cache.clone(), faults, &token);
                match &self.transport {
                    Transport::Socket { client, beat } => {
                        heartbeating(client, &id, lease, *beat, faults, run)
                    }
                    Transport::InProcess(_) => run(),
                }
            }
        };
        let (field, value) = match result {
            Ok(report) => ("report", report.to_json()),
            Err(msg) => ("error", Json::str(msg)),
        };
        let body = Json::obj()
            .field("executor", Json::str(&id))
            .field("lease", Json::str(lease))
            .field(field, value);
        let reply = self.post("/v1/fleet/complete", body).inspect_err(|e| {
            eprintln!("synts-serve: executor {id}: completion for {lease} lost: {e}");
        })?;
        if reply.status != 200 {
            let why = reply.error_message().unwrap_or_default();
            eprintln!("synts-serve: executor {id}: completion for {lease} rejected: {why}");
        }
        Ok(Step::Ran)
    }

    fn register(&mut self) -> Result<Step, OptError> {
        let body = Json::obj().field("name", Json::str(&self.name));
        let reply = self.post("/v1/fleet/register", body)?;
        let json = reply.json()?;
        let Some(id) = json.get("executor").and_then(Json::as_str) else {
            let (name, status) = (&self.name, reply.status);
            return Err(OptError::Spec(format!(
                "executor {name}: register refused: HTTP {status}"
            )));
        };
        eprintln!("synts-serve: executor {} registered as {id}", self.name);
        self.id = Some(id.to_string());
        Ok(Step::Registered)
    }

    fn post(&self, path: &str, body: Json) -> Result<HttpReply, OptError> {
        self.transport
            .request("POST", path, Some(&body.render_pretty()))
    }
}

/// Runs `shard` while a scoped thread heartbeats `lease` every `beat`.
/// Each beat passes the `fleet.heartbeat` site as `<lease>#h<n>@<id>`:
/// on a tight lease a dropped beat is how the chaos suite forces the
/// reassignment of a live executor's shard.
fn heartbeating<T>(
    client: &Client,
    id: &str,
    lease: &str,
    beat: Duration,
    faults: Option<&FaultPlan>,
    shard: impl FnOnce() -> T,
) -> T {
    let (done, stopped) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let body = Json::obj()
                .field("executor", Json::str(id))
                .field("lease", Json::str(lease))
                .render_pretty();
            let mut n = 0u64;
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(beat) {
                n += 1;
                let token = format!("{lease}#h{n}@{id}");
                if !faults.is_some_and(|plan| plan.should(site::FLEET_HEARTBEAT, &token)) {
                    let _ = client.request("POST", "/v1/fleet/heartbeat", Some(&body));
                }
            }
        });
        let out = shard();
        drop(done);
        out
    })
}

/// Configuration of one remote executor process
/// (`synts-serve --executor`).
#[derive(Debug)]
pub struct ExecutorConfig {
    /// Coordinator address (`host:port`).
    pub coordinator: String,
    /// Self-reported display name (also the `@<name>` component of
    /// executor-side fault tokens).
    pub name: String,
    /// Local characterization cache; [`run_executor`] attaches the
    /// coordinator's shared tier behind it.
    pub cache: CharCache,
    /// Process-level fault plan (`--faults` / `SYNTS_FAULTS`).
    pub faults: Option<Arc<FaultPlan>>,
    /// Idle-poll, heartbeat and held-claim re-probe interval.
    pub poll: Duration,
}

/// The remote-executor process: steps an [`Executor`] over a socket,
/// with the coordinator's shared cache tier behind its local cache,
/// and sleeps `poll` after an idle or failed step. It runs until 50
/// steps in a row fail, which is how it notices that its coordinator
/// has gone, and returns the last failure.
#[must_use]
pub fn run_executor(cfg: &ExecutorConfig) -> OptError {
    let tier = HttpCacheTier::new(&cfg.coordinator, &cfg.name, cfg.poll);
    let cache = cfg
        .cache
        .clone()
        .with_faults(cfg.faults.clone())
        .with_remote(Some(Arc::new(tier)));
    let client = Client::new(cfg.coordinator.clone()).with_policy(RetryPolicy::none());
    let transport = Transport::Socket {
        client,
        beat: cfg.poll,
    };
    let mut executor = Executor::new(transport, &cfg.name, cache, cfg.faults.clone());
    let mut offline = 0;
    loop {
        let step = executor.step();
        offline = if step.is_ok() { 0 } else { offline + 1 };
        match step {
            Err(e) if offline == MAX_OFFLINE_POLLS => {
                return OptError::Spec(format!(
                    "executor {}: coordinator unreachable after {offline} poll(s): {e}",
                    cfg.name
                ))
            }
            Ok(Step::Registered | Step::Ran) => {}
            _ => std::thread::sleep(cfg.poll),
        }
    }
}
