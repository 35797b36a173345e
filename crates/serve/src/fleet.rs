//! Fault-tolerant fleet layer: lease-based remote executors with shard
//! reassignment, plus the coordinator side of the shared
//! characterization tier.
//!
//! # Topology
//!
//! One **coordinator** (an ordinary [`Service`] behind [`crate::http`])
//! owns the job store, the journal and the authoritative cache
//! directory. Any number of **executors** (`synts-serve --executor
//! --coordinator <addr>`) register over HTTP and pull `Shard` work:
//!
//! ```text
//!   client ──POST /v1/jobs──▶ coordinator ◀──register/poll/complete── executor A
//!                             │  plan tasks run locally               executor B
//!                             │  shard tasks dispatch under leases    ...
//!                             └─ GET/PUT /v1/cache/<key>  (shared characterization tier)
//! ```
//!
//! # Leases, in logical time
//!
//! Every dispatched shard carries a **lease** measured in logical ticks,
//! not wall-clock: [`Service::fleet_tick`] advances the clock, and a
//! lease (or executor registration) not renewed within
//! [`ServiceConfig::lease_ticks`](crate::ServiceConfig::lease_ticks)
//! ticks expires. Polls, heartbeats and completions renew. The
//! `synts-serve` binary drives ticks from a wall-clock reaper thread
//! (`--tick-ms`); tests drive them directly, which is what makes lease
//! expiry and shard reassignment fully deterministic — no decision in
//! this module ever reads a clock.
//!
//! An expired lease charges the shard one attempt and requeues it, so a
//! killed executor's work is reassigned with the same bounded-attempt
//! discipline as a local crash, journaled through the same records:
//! coordinator restart recovers fleet jobs byte-identically.
//!
//! # Degraded modes
//!
//! * Fleet mode (`local_shards == false`) with zero live executors:
//!   local workers take shards anyway (warned in `/v1/stats` and
//!   `/v1/healthz` as `degraded`).
//! * A partially-dead fleet converges: live executors absorb the
//!   reassigned shards of dead ones.
//! * A dead coordinator ends the fleet (executors exit after bounded
//!   offline polls); its journal replays on restart.
//!
//! # Fault sites
//!
//! `fleet.dispatch` (coordinator: a granted dispatch is lost in
//! flight), `fleet.heartbeat` (executor: a due heartbeat is dropped)
//! and `cache.remote` (the shared tier is unreachable) plug the layer
//! into the same deterministic chaos harness as everything else.

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Duration;

use synts_core::cache::{write_via_temp, RemoteCacheTier, RemoteFetch};
use synts_core::faults::{site, FaultPlan};
use synts_core::scenario::{Experiment, Json, Report, ScenarioSpec};
use synts_core::{CharCache, OptError};

use crate::client::{Client, RetryPolicy};
use crate::queue::{
    claim, panic_error, JobState, Service, ShardState, Shutdown, Store, Task, TerminalRecord,
};

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
    executor: String,
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

    /// Executors whose registration has not lapsed.
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
}

/// Fleet counters surfaced in `/v1/stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetSnapshot {
    /// Executors with a live registration.
    pub executors: usize,
    /// Leases currently outstanding.
    pub leases: usize,
    /// Shards dispatched to executors since start.
    pub dispatched: u64,
    /// Shards completed by executors since start.
    pub completed: u64,
    /// Leases expired (shard reassigned or failed) since start.
    pub expired: u64,
    /// True when the service wants fleet execution but has no live
    /// executor, so shards run locally (graceful degradation).
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
    /// Nothing claimable right now; poll again.
    Idle,
    /// The coordinator is shutting down; exit cleanly.
    Stop,
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
    /// Tasks claimed by local workers.
    pub in_flight: usize,
    /// Live fleet executors.
    pub executors: usize,
    /// Outstanding fleet leases.
    pub leases: usize,
    /// Fleet mode with zero live executors (shards running locally).
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

/// Charges one attempt to a leased (Running) shard whose executor lost
/// it — lease expiry, a dispatch lost in flight, or a failure report.
/// Requeues below the attempt bound; fails the job at it. Returns a
/// staged terminal record for the caller to write outside the lock.
fn charge_lost_attempt(
    store: &mut Store,
    job_seq: u64,
    idx: usize,
    err: &str,
    max_attempts: u32,
) -> Option<TerminalRecord> {
    let job = store.jobs.get_mut(&job_seq)?;
    if job.state != JobState::Running {
        return None;
    }
    let slot = job.slots.get_mut(idx)?;
    if !matches!(slot.state, ShardState::Running) {
        return None;
    }
    slot.attempts += 1;
    if slot.attempts < max_attempts {
        slot.state = ShardState::Queued;
        job.retries += 1;
        store.shard_retries += 1;
        store.queue.push_back(Task::Shard { job: job_seq, idx });
        None
    } else {
        let msg = format!(
            "shard {idx} failed after {} attempt(s): {err}",
            slot.attempts
        );
        slot.state = ShardState::Failed;
        job.state = JobState::Failed;
        job.error = Some(msg.clone());
        store.failed += 1;
        Some(TerminalRecord::Failed { job: job_seq, msg })
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

    /// An executor asks for work. Renews its registration; claims the
    /// first claimable shard task in the queue and leases it. A
    /// `fleet.dispatch` fault on the job's plan loses the grant in
    /// flight: the shard is charged an attempt and requeued, and the
    /// poll keeps scanning.
    #[must_use]
    pub fn fleet_poll(&self, executor: &str) -> PollOutcome {
        let mut staged = Vec::new();
        let outcome = {
            let mut store = self.state.locked();
            if store.shutdown == Some(Shutdown::Now) {
                return PollOutcome::Stop;
            }
            let now = store.fleet.now;
            let lease_ticks = store.fleet.lease_ticks;
            match store.fleet.executors.get_mut(executor) {
                Some(info) if info.expires > now => info.expires = now + lease_ticks,
                _ => return PollOutcome::UnknownExecutor,
            }
            let mut outcome = PollOutcome::Idle;
            let mut idx = 0;
            while idx < store.queue.len() {
                let is_shard = store
                    .queue
                    .get(idx)
                    .is_some_and(|t| matches!(t, Task::Shard { .. }));
                if !is_shard {
                    idx += 1;
                    continue;
                }
                let Some(task) = store.queue.remove(idx) else {
                    break;
                };
                let Some(crate::queue::Claimed::Shard {
                    job,
                    idx: shard_idx,
                    spec,
                    attempt,
                    faults,
                }) = claim(&mut store, &task)
                else {
                    // Dissolved (cancelled job / stale slot): the next
                    // candidate is already at `idx`.
                    continue;
                };
                // `claim` charged the local in-flight gauge; leased
                // work is tracked by the lease table instead.
                store.in_flight -= 1;
                let token = format!("{}#a{attempt}@{executor}", spec.name);
                if let Some(plan) = &faults {
                    if plan.should(site::FLEET_DISPATCH, &token) {
                        // The grant is lost in flight: charge the
                        // attempt and keep scanning for other work.
                        store.fleet.expired += 1;
                        staged.extend(charge_lost_attempt(
                            &mut store,
                            job,
                            shard_idx,
                            "dispatch lost in flight (injected)",
                            self.state.max_attempts,
                        ));
                        continue;
                    }
                }
                let n = store.fleet.next_lease;
                store.fleet.next_lease += 1;
                let lease = format!("lease-{n}");
                store.fleet.leases.insert(
                    lease.clone(),
                    Lease {
                        executor: executor.to_string(),
                        job,
                        idx: shard_idx,
                        expires: now + lease_ticks,
                    },
                );
                store.fleet.dispatched += 1;
                outcome = PollOutcome::Dispatch(Box::new(Dispatch {
                    lease,
                    job: format!("job-{job}"),
                    shard: shard_idx,
                    attempt,
                    spec,
                }));
                break;
            }
            outcome
        };
        for t in staged {
            self.state.write_terminal(Some(t));
        }
        // Requeued shards (dispatch faults) may now be claimable by
        // local workers in degraded mode.
        self.state.cv.notify_all();
        outcome
    }

    /// Renews an executor's registration and (optionally) one lease.
    #[must_use]
    pub fn fleet_heartbeat(&self, executor: &str, lease: Option<&str>) -> HeartbeatOutcome {
        let mut store = self.state.locked();
        let now = store.fleet.now;
        let lease_ticks = store.fleet.lease_ticks;
        match store.fleet.executors.get_mut(executor) {
            Some(info) if info.expires > now => info.expires = now + lease_ticks,
            _ => return HeartbeatOutcome::UnknownExecutor,
        }
        let lease_held = lease.map(|id| match store.fleet.leases.get_mut(id) {
            Some(l) if l.executor == executor => {
                l.expires = now + lease_ticks;
                true
            }
            _ => false,
        });
        HeartbeatOutcome::Renewed { lease_held }
    }

    /// An executor reports a leased shard's outcome: `Ok(report)` lands
    /// the partial result (journaled, merged when the job completes);
    /// `Err(msg)` charges the attempt immediately — same policy as a
    /// lease expiry, without waiting for one.
    #[must_use]
    pub fn fleet_complete(
        &self,
        executor: &str,
        lease_id: &str,
        result: Result<Report, String>,
    ) -> CompleteOutcome {
        // Phase 1: validate ownership and detach the lease under the
        // lock. The slot stays `Running`, and with the lease gone
        // neither a tick nor another poll can touch it, so the journal
        // write below is race-free.
        let (job_seq, idx, report) = {
            let mut store = self.state.locked();
            let now = store.fleet.now;
            let lease_ticks = store.fleet.lease_ticks;
            let Some(lease) = store.fleet.leases.remove(lease_id) else {
                return CompleteOutcome::Rejected(format!(
                    "lease {lease_id} unknown or expired; shard was reassigned"
                ));
            };
            if lease.executor != executor {
                store.fleet.leases.insert(lease_id.to_string(), lease);
                return CompleteOutcome::Rejected(format!(
                    "lease {lease_id} is not held by {executor}"
                ));
            }
            if let Some(info) = store.fleet.executors.get_mut(executor) {
                info.expires = now + lease_ticks;
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
                        self.state.max_attempts,
                    );
                    store.fleet.completed += 1;
                    drop(store);
                    self.state.write_terminal(staged);
                    self.state.cv.notify_all();
                    return CompleteOutcome::Accepted;
                }
            }
        };
        // Phase 2: journal outside the lock (same discipline as local
        // shard completion), then publish the slot and maybe finish.
        if let Some(journal) = &self.state.journal {
            if let Err(e) = journal.record_shard_done(job_seq, idx, &report) {
                eprintln!("synts-serve: journal: shard record for job-{job_seq}/{idx} failed: {e}");
            }
        }
        let staged = {
            let mut store = self.state.locked();
            store.fleet.completed += 1;
            let publishable = store.jobs.get_mut(&job_seq).and_then(|job| {
                if job.state != JobState::Running {
                    return None;
                }
                job.slots.get_mut(idx)
            });
            match publishable {
                Some(slot) if matches!(slot.state, ShardState::Running) => {
                    slot.state = ShardState::Done(Box::new(report));
                    self.state.finish_if_complete(&mut store, job_seq)
                }
                // Cancelled/failed while we journaled: drop the result.
                _ => None,
            }
        };
        self.state.write_terminal(staged);
        self.state.cv.notify_all();
        CompleteOutcome::Accepted
    }

    /// Advances the logical clock one tick: expired leases charge their
    /// shard an attempt and requeue it (reassignment), lapsed executor
    /// registrations and cache claims are evicted. Driven by the
    /// binary's reaper thread, `POST /v1/fleet/tick`, or tests.
    #[must_use]
    pub fn fleet_tick(&self) -> TickOutcome {
        let mut staged = Vec::new();
        let outcome = {
            let mut store = self.state.locked();
            store.fleet.now += 1;
            let now = store.fleet.now;
            let due: Vec<String> = store
                .fleet
                .leases
                .iter()
                .filter(|(_, l)| l.expires <= now)
                .map(|(id, _)| id.clone())
                .collect();
            for id in &due {
                let Some(lease) = store.fleet.leases.remove(id) else {
                    continue;
                };
                store.fleet.expired += 1;
                eprintln!(
                    "synts-serve: fleet: lease {id} (executor {}, job-{} shard {}) expired; \
                     reassigning",
                    lease.executor, lease.job, lease.idx
                );
                staged.extend(charge_lost_attempt(
                    &mut store,
                    lease.job,
                    lease.idx,
                    &format!("lease expired on executor {}", lease.executor),
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
            TickOutcome {
                now,
                expired: due.len(),
            }
        };
        for t in staged {
            self.state.write_terminal(Some(t));
        }
        // Requeued shards need a worker (or a polling executor) to
        // notice; local workers also re-check the degraded predicate.
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

/// The executor-side view of the coordinator's shared cache tier:
/// `GET /v1/cache/<key>?claim=<self>` on a local miss, `PUT` after a
/// local store. A held claim polls (bounded) for the other executor's
/// publish; any transport trouble degrades to local computation.
#[derive(Debug)]
pub struct HttpCacheTier {
    client: Client,
    claimant: String,
    poll: Duration,
    max_polls: u32,
}

impl HttpCacheTier {
    /// A tier talking to `coordinator` (`host:port`), identifying as
    /// `claimant` in characterization claims.
    #[must_use]
    pub fn new(coordinator: &str, claimant: &str) -> HttpCacheTier {
        HttpCacheTier {
            client: Client::new(coordinator).with_policy(RetryPolicy::none()),
            claimant: claimant.to_string(),
            poll: Duration::from_millis(100),
            max_polls: 300,
        }
    }

    /// Tunes the held-claim wait loop (interval between re-probes and
    /// the probe budget before giving up and computing locally).
    #[must_use]
    pub fn with_wait(mut self, poll: Duration, max_polls: u32) -> HttpCacheTier {
        self.poll = poll;
        self.max_polls = max_polls;
        self
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
                for _ in 0..self.max_polls {
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

/// What one [`SimExecutor::step`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimStep {
    /// The executor was killed earlier and does nothing.
    Dead,
    /// No work was dispatched.
    Idle,
    /// A shard ran and its report was submitted.
    Completed { shard: usize },
    /// An injected `exec.kill` halted the executor mid-shard: it holds
    /// a lease it will never complete — expiry must reassign it.
    Killed { shard: usize },
    /// The shard errored and the failure was reported.
    FailedShard { shard: usize },
}

/// A deterministic in-process executor for tests: drives the real
/// coordinator API ([`Service::fleet_poll`] / [`Service::fleet_complete`])
/// synchronously, with `exec.kill` modelled as *silently halting* (the
/// lease is abandoned, exactly like an aborted process) instead of
/// aborting the test process. Round-robin stepping + explicit
/// [`Service::fleet_tick`]s make whole fleet schedules reproducible.
#[derive(Debug)]
pub struct SimExecutor {
    service: Arc<Service>,
    name: String,
    id: String,
    cache: CharCache,
    faults: Option<Arc<FaultPlan>>,
    dead: bool,
}

impl SimExecutor {
    /// Registers a fresh executor with the coordinator.
    #[must_use]
    pub fn register(
        service: &Arc<Service>,
        name: &str,
        cache: CharCache,
        faults: Option<Arc<FaultPlan>>,
    ) -> SimExecutor {
        let r = service.fleet_register(name);
        SimExecutor {
            service: Arc::clone(service),
            name: name.to_string(),
            id: r.executor,
            cache,
            faults,
            dead: false,
        }
    }

    /// The service-assigned executor id.
    #[must_use]
    pub fn id(&self) -> &str {
        &self.id
    }

    /// True once an injected kill halted this executor.
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// One poll→execute→complete round.
    pub fn step(&mut self) -> SimStep {
        if self.dead {
            return SimStep::Dead;
        }
        match self.service.fleet_poll(&self.id) {
            PollOutcome::UnknownExecutor => {
                let r = self.service.fleet_register(&self.name);
                self.id = r.executor;
                SimStep::Idle
            }
            PollOutcome::Stop | PollOutcome::Idle => SimStep::Idle,
            PollOutcome::Dispatch(d) => {
                let token = format!("{}#a{}@{}", d.spec.name, d.attempt, self.name);
                if let Some(plan) = &self.faults {
                    // The in-process stand-in for `maybe_kill`: halt
                    // forever with the lease still held.
                    if plan.should(site::EXEC_KILL, &token) {
                        self.dead = true;
                        return SimStep::Killed { shard: d.shard };
                    }
                }
                let faults = self.faults.clone();
                let spec = d.spec.clone();
                let cache = self.cache.clone();
                let result = std::panic::catch_unwind(AssertUnwindSafe(move || {
                    if let Some(plan) = &faults {
                        plan.maybe_slow(&token);
                        plan.maybe_panic(&token);
                    }
                    Experiment::new(spec).with_cache(cache).run()
                }))
                .unwrap_or_else(|panic| Err(panic_error("shard execution", &panic)));
                match result {
                    Ok(report) => {
                        let _ = self.service.fleet_complete(&self.id, &d.lease, Ok(report));
                        SimStep::Completed { shard: d.shard }
                    }
                    Err(e) => {
                        let _ = self
                            .service
                            .fleet_complete(&self.id, &d.lease, Err(e.to_string()));
                        SimStep::FailedShard { shard: d.shard }
                    }
                }
            }
        }
    }
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
    /// Idle-poll and heartbeat interval.
    pub poll: Duration,
    /// Consecutive failed polls before the executor gives the
    /// coordinator up for dead and exits.
    pub max_offline_polls: u32,
}

impl Default for ExecutorConfig {
    fn default() -> ExecutorConfig {
        ExecutorConfig {
            coordinator: "127.0.0.1:7070".to_string(),
            name: "executor".to_string(),
            cache: CharCache::from_env(),
            faults: None,
            poll: Duration::from_millis(200),
            max_offline_polls: 50,
        }
    }
}

/// Runs the remote-executor loop: register, poll for shards, execute
/// them with the shared cache tier attached, heartbeat while running,
/// report completions. Returns when the coordinator says stop, or after
/// `max_offline_polls` consecutive failed polls.
///
/// # Errors
///
/// [`OptError::Spec`] when the coordinator never answered registration
/// or went away for good.
pub fn run_executor(cfg: &ExecutorConfig) -> Result<(), OptError> {
    let client = Client::new(cfg.coordinator.clone()).with_policy(RetryPolicy::none());
    let tier: Arc<dyn RemoteCacheTier> =
        Arc::new(HttpCacheTier::new(&cfg.coordinator, &cfg.name).with_wait(cfg.poll, 300));
    let cache = cfg
        .cache
        .clone()
        .with_faults(cfg.faults.clone())
        .with_remote(Some(tier));
    let register =
        |offline_budget: u32| -> Result<String, OptError> {
            let body = Json::obj()
                .field("name", Json::str(&cfg.name))
                .render_pretty();
            let mut last = None;
            for _ in 0..offline_budget.max(1) {
                match client.request("POST", "/v1/fleet/register", Some(&body)) {
                    Ok(r) if r.status == 200 => {
                        if let Some(id) = r.json().ok().and_then(|j| {
                            j.get("executor").and_then(Json::as_str).map(String::from)
                        }) {
                            return Ok(id);
                        }
                        last = Some(OptError::Spec(
                            "executor: register reply names no executor id".to_string(),
                        ));
                    }
                    Ok(r) => {
                        last = Some(OptError::Spec(format!(
                            "executor: register rejected: HTTP {}",
                            r.status
                        )));
                    }
                    Err(e) => last = Some(e),
                }
                std::thread::sleep(cfg.poll);
            }
            Err(last.unwrap_or_else(|| OptError::Spec("executor: register never ran".to_string())))
        };
    let mut id = register(cfg.max_offline_polls)?;
    eprintln!(
        "synts-serve: executor {} registered as {id} with {}",
        cfg.name, cfg.coordinator
    );
    let mut offline = 0u32;
    loop {
        let poll_body = Json::obj()
            .field("executor", Json::str(&id))
            .render_pretty();
        let reply = match client.request("POST", "/v1/fleet/poll", Some(&poll_body)) {
            Ok(r) => r,
            Err(e) => {
                offline += 1;
                if offline >= cfg.max_offline_polls {
                    return Err(OptError::Spec(format!(
                        "executor {id}: coordinator unreachable after {offline} poll(s): {e}"
                    )));
                }
                std::thread::sleep(cfg.poll);
                continue;
            }
        };
        offline = 0;
        if reply.status == 404 {
            // Coordinator restarted (or our registration lapsed).
            id = register(cfg.max_offline_polls)?;
            continue;
        }
        let Ok(json) = reply.json() else {
            std::thread::sleep(cfg.poll);
            continue;
        };
        if json.get("stop").and_then(Json::as_bool) == Some(true) {
            eprintln!("synts-serve: executor {id}: coordinator shutting down; exiting");
            return Ok(());
        }
        if json.get("work").and_then(Json::as_bool) != Some(true) {
            std::thread::sleep(cfg.poll);
            continue;
        }
        let (Some(lease), Some(shard), Some(attempt), Some(spec_json)) = (
            json.get("lease").and_then(Json::as_str).map(String::from),
            json.get("shard").and_then(Json::as_usize),
            json.get("attempt").and_then(Json::as_usize),
            json.get("spec"),
        ) else {
            std::thread::sleep(cfg.poll);
            continue;
        };
        let spec = match ScenarioSpec::from_json(spec_json) {
            Ok(spec) => spec,
            Err(e) => {
                let _ = complete(
                    &client,
                    &id,
                    &lease,
                    &Err(format!("bad dispatched spec: {e}")),
                );
                continue;
            }
        };
        let token = format!("{}#a{attempt}@{}", spec.name, cfg.name);
        eprintln!("synts-serve: executor {id}: running shard {shard} ({token})");
        // Heartbeat while the shard runs, on the poll cadence. An
        // injected fleet.heartbeat fault drops individual beats — on a
        // tight lease that is how the chaos suite forces reassignment
        // of a *live* executor's shard.
        let hb_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let hb = {
            let stop = Arc::clone(&hb_stop);
            let client = client.clone();
            let id = id.clone();
            let lease = lease.clone();
            let faults = cfg.faults.clone();
            let interval = cfg.poll;
            std::thread::spawn(move || {
                let mut beat = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    beat += 1;
                    let dropped = faults.as_ref().is_some_and(|plan| {
                        plan.should(site::FLEET_HEARTBEAT, &format!("{lease}#h{beat}@{id}"))
                    });
                    if dropped {
                        continue;
                    }
                    let body = Json::obj()
                        .field("executor", Json::str(&id))
                        .field("lease", Json::str(&lease))
                        .render_pretty();
                    let _ = client.request("POST", "/v1/fleet/heartbeat", Some(&body));
                }
            })
        };
        let run_faults = cfg.faults.clone();
        let run_spec = spec;
        let run_cache = cache.clone();
        let run_token = token;
        let result = std::panic::catch_unwind(AssertUnwindSafe(move || {
            if let Some(plan) = &run_faults {
                // The real kill: abort mid-shard, lease still held.
                plan.maybe_kill(&run_token);
                plan.maybe_slow(&run_token);
                plan.maybe_panic(&run_token);
            }
            Experiment::new(run_spec).with_cache(run_cache).run()
        }))
        .unwrap_or_else(|panic| Err(panic_error("shard execution", &panic)))
        .map_err(|e| e.to_string());
        hb_stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let _ = hb.join();
        match complete(&client, &id, &lease, &result) {
            Ok(true) => {}
            Ok(false) => eprintln!(
                "synts-serve: executor {id}: completion for {lease} rejected \
                 (lease expired; shard was reassigned)"
            ),
            Err(e) => eprintln!("synts-serve: executor {id}: completion for {lease} lost: {e}"),
        }
    }
}

/// Reports a shard outcome; `Ok(accepted)` distinguishes a rejected
/// (expired) lease from a delivered result.
fn complete(
    client: &Client,
    id: &str,
    lease: &str,
    result: &Result<Report, String>,
) -> Result<bool, OptError> {
    let body = match result {
        Ok(report) => Json::obj()
            .field("executor", Json::str(id))
            .field("lease", Json::str(lease))
            .field("report", Json::parse(&report.to_json_string())?)
            .render_pretty(),
        Err(msg) => Json::obj()
            .field("executor", Json::str(id))
            .field("lease", Json::str(lease))
            .field("error", Json::str(msg))
            .render_pretty(),
    };
    let reply = client.request("POST", "/v1/fleet/complete", Some(&body))?;
    Ok(reply.status == 200)
}
