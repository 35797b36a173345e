//! `synts-serve` — the SynTS scenario service.
//!
//! The paper's figures sweep one (benchmark, stage) pair over a θ grid;
//! the repo's [`Experiment`](synts_core::scenario::Experiment) engine
//! runs one such sweep monolithically. This crate turns that engine
//! into a **service**: specs go in over HTTP, a shard planner splits
//! the θ grid ([`ShardPlan`](synts_core::scenario::ShardPlan)),
//! executors run the shards against the shared characterization cache,
//! and the partial reports are merged back into a report
//! **byte-identical** (canonical JSON) to the monolithic run.
//!
//! Five layers, separable on purpose:
//!
//! * [`queue`] — the job model and FIFO task queue ([`Service`]):
//!   submission, cancellation, merging and drain-on-shutdown. Usable
//!   fully in-process (the tests and the `perfbench` benchmark do).
//! * [`fleet`] — the one shard scheduler: every shard runs under a
//!   lease, on an in-process executor (the service's worker threads) or
//!   a remote one (`synts-serve --executor`), with one retry rule for
//!   failed, expired and lost attempts.
//! * [`journal`] — the durable job journal ([`Journal`]): one
//!   append-only segment of checksummed canonical-JSON records with the
//!   shard reports inline, so a service killed mid-job replays the
//!   journal on restart and resumes to a byte-identical report.
//! * [`http`] — a hand-rolled `std::net` HTTP/1.1 front end
//!   ([`Server`]): `POST /v1/jobs`, `GET /v1/jobs/<id>[/report]`,
//!   `GET /v1/healthz`, `GET /v1/stats`, `POST /v1/shutdown`, and the
//!   `/v1/fleet/*` and `/v1/cache/*` routes remote executors use.
//! * [`client`] — the matching std-only client ([`Client`]), behind
//!   `synts-cli submit|status|fetch`.
//!
//! No external dependencies: sockets, threads and the repo's own
//! canonical-JSON tree are the whole stack.
#![forbid(unsafe_code)]

pub mod client;
pub mod fleet;
pub mod http;
pub mod journal;
pub mod queue;

pub use client::{Client, HttpReply, RetryPolicy};
pub use fleet::{
    run_executor, CompleteOutcome, Dispatch, Executor, ExecutorConfig, FleetSnapshot, Health,
    HeartbeatOutcome, HttpCacheTier, JournalHealth, PollOutcome, RegisterOutcome, Step,
    TickOutcome, Transport,
};
pub use http::{Server, ServerConfig};
pub use journal::{Journal, RecoveredJob, Replay, Terminal};
pub use queue::{
    JobState, JobStatus, ReportOutcome, Service, ServiceConfig, ServiceStats, ShardCounts, Shutdown,
};
