//! The chaos harness: deterministic fault injection end-to-end.
//!
//! Three guarantees, each load-bearing for the crash-safety story:
//!
//! * **Fault determinism** — the same seeded [`FaultPlan`] against the
//!   same spec produces the same final report *and* the same fired-site
//!   ledger, run after run, at 1, 2 and 4 workers. Faults never corrupt
//!   results: a plan that drops cache writes, tears cache reads and
//!   panics first shard attempts still converges to the byte-exact
//!   monolithic report.
//! * **Client resilience** — torn server replies and refused
//!   connections are retried with deterministic backoff; a keyed
//!   resubmission never double-enqueues.
//! * **Artifacts** — with `SYNTS_CHAOS_ARTIFACTS=1` each scenario drops
//!   its journal and a JSON fault report under
//!   `target/chaos-artifacts/` for CI upload.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use synts::prelude::*;
use synts_serve::{
    Client, Executor, Journal, ReportOutcome, RetryPolicy, Server, ServerConfig, Service,
    ServiceConfig, Shutdown, Step, Transport,
};

/// A plan that exercises the cache and executor sites: half the cache
/// writes are dropped, a third of the reads torn, and every shard's
/// first attempt panics (`#a0` is in every first-attempt token).
fn chaos_plan(seed: u64) -> String {
    format!("seed={seed};cache.write=1/2;cache.read=1/3;exec.panic=~#a0")
}

fn quick_spec(name: &str) -> ScenarioSpec {
    ScenarioSpec::new(name, Benchmark::Radix, StageKind::Decode)
        .schemes(["synts_poly", "per_core_ts", "no_ts"])
        .thetas(ThetaSpec::LogAroundEqualWeight {
            points: 5,
            decades: 1.0,
        })
        .normalize_to("nominal")
        .verify_model(true)
        .workers(1)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("synts-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// One full chaos scenario: journaled service + armed plan, submit,
/// wait, return (report bytes, fault ledger render, journal dir).
fn chaos_run(tag: &str, seed: u64, workers: usize) -> (String, String, PathBuf) {
    let plan = Arc::new(FaultPlan::parse(&chaos_plan(seed)).expect("plan parses"));
    let journal_dir = fresh_dir(&format!("{tag}-journal"));
    let service = Arc::new(Service::start(ServiceConfig {
        workers,
        max_shards: 3,
        max_attempts: 3,
        cache: CharCache::at_dir(fresh_dir(&format!("{tag}-cache"))),
        journal: Some(Journal::open(&journal_dir).expect("journal opens")),
        faults: Some(Arc::clone(&plan)),
        ..ServiceConfig::default()
    }));
    let id = service.submit(quick_spec("chaos")).expect("submits").id;
    let report = loop {
        match service.report(&id) {
            ReportOutcome::Ready(report) => break report.to_json_string(),
            ReportOutcome::Pending(_) => std::thread::sleep(Duration::from_millis(20)),
            other => panic!("chaos job must survive its faults: {other:?}"),
        }
    };
    service.shutdown(Shutdown::Now);
    (report, plan.report().render(), journal_dir)
}

/// Copies a finished scenario's journal and fault report into
/// `target/chaos-artifacts/<tag>/` when the CI chaos job asks for it.
fn save_artifacts(tag: &str, journal_dir: &std::path::Path, fault_report: &str) {
    if std::env::var("SYNTS_CHAOS_ARTIFACTS").is_err() {
        return;
    }
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/chaos-artifacts")
        .join(tag);
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).expect("artifact dir");
    std::fs::write(out.join("fault-report.json"), fault_report).expect("fault report");
    std::fs::copy(journal_dir.join("journal.log"), out.join("journal.log")).expect("journal");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The chaos invariant: seeded fault plans are deterministic — two
    /// independent runs (fresh service, cache, journal and plan
    /// instance) fire the same faults and converge to the same bytes,
    /// and those bytes are the monolithic engine's, at every worker
    /// count.
    #[test]
    fn seeded_chaos_is_deterministic_and_faults_never_corrupt(seed in 0u64..1000) {
        let monolithic = Experiment::new(quick_spec("chaos"))
            .run()
            .expect("monolithic run")
            .to_json_string();
        for workers in [1usize, 2, 4] {
            let tag_a = format!("det-{seed}-{workers}-a");
            let tag_b = format!("det-{seed}-{workers}-b");
            let (report_a, fired_a, journal_a) = chaos_run(&tag_a, seed, workers);
            let (report_b, fired_b, _) = chaos_run(&tag_b, seed, workers);
            prop_assert_eq!(&report_a, &report_b, "report bytes drifted across identical runs");
            prop_assert_eq!(&fired_a, &fired_b, "fault ledger drifted across identical runs");
            prop_assert_eq!(&report_a, &monolithic, "faults corrupted the report");
            save_artifacts(&tag_a, &journal_a, &fired_a);
        }
    }
}

/// The CI chaos job's fixed-seed entry point: `SYNTS_CHAOS_SEED` (a
/// plain integer, default 7) pins one scenario per matrix leg; the two
/// independent runs must agree byte-for-byte, and the first run's
/// journal + fired-fault report land in `target/chaos-artifacts/` when
/// `SYNTS_CHAOS_ARTIFACTS` is set.
#[test]
fn fixed_seed_matrix_is_deterministic() {
    let seed: u64 = std::env::var("SYNTS_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7);
    let tag = format!("matrix-{seed}");
    let (report_a, fired_a, journal_a) = chaos_run(&format!("{tag}-a"), seed, 2);
    let (report_b, fired_b, _) = chaos_run(&format!("{tag}-b"), seed, 2);
    assert_eq!(report_a, report_b, "seed {seed}: report bytes drifted");
    assert_eq!(fired_a, fired_b, "seed {seed}: fault ledger drifted");
    save_artifacts(&tag, &journal_a, &fired_a);
}

/// A fleet-mode chaos scenario for the matrix: every shard goes to
/// executors stepped over the in-process transport, the plan kills
/// `node1` on its first dispatched shard AND drops a quarter of all
/// dispatches (`fleet.dispatch` — the attempt is charged and the shard
/// requeued). Returns (report, ledger, journal).
fn chaos_fleet_run(tag: &str, seed: u64) -> (String, String, PathBuf) {
    let plan = Arc::new(
        FaultPlan::parse(&format!("seed={seed};fleet.dispatch=1/4;exec.kill=~@node1"))
            .expect("plan parses"),
    );
    let journal_dir = fresh_dir(&format!("{tag}-journal"));
    let service = Arc::new(Service::start(ServiceConfig {
        workers: 1,
        max_shards: 3,
        max_attempts: 6,
        cache: CharCache::at_dir(fresh_dir(&format!("{tag}-cache"))),
        journal: Some(Journal::open(&journal_dir).expect("journal opens")),
        faults: Some(Arc::clone(&plan)),
        local_shards: false,
        lease_ticks: 3,
    }));
    let shared_cache = CharCache::at_dir(fresh_dir(&format!("{tag}-sim-cache")));
    let [mut victim, mut survivor] = ["node1", "node2"].map(|name| {
        let transport = Transport::InProcess(Arc::clone(&service));
        let mut exec = Executor::new(
            transport,
            name,
            shared_cache.clone(),
            Some(Arc::clone(&plan)),
        );
        assert_eq!(exec.step().expect("registers"), Step::Registered);
        exec
    });
    let id = service
        .submit(quick_spec("chaos-fleet"))
        .expect("submits")
        .id;
    // Step only the victim until it claims (and dies on) its first
    // shard: the node→shard assignment is then a pure function of the
    // seed, so the fired-fault ledger can't drift between runs. The
    // dead victim is never stepped again.
    {
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while !matches!(victim.step().expect("in-process steps"), Step::Killed) {
            assert!(
                std::time::Instant::now() < deadline,
                "the victim never saw work"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let report = loop {
        survivor.step().expect("in-process steps");
        let _ = service.fleet_tick();
        match service.report(&id) {
            ReportOutcome::Ready(report) => break report.to_json_string(),
            ReportOutcome::Pending(_) => {}
            other => panic!("fleet chaos job must survive its faults: {other:?}"),
        }
    };
    service.shutdown(Shutdown::Now);
    (report, plan.report().render(), journal_dir)
}

/// The fleet leg of the CI chaos matrix: the same `SYNTS_CHAOS_SEED`
/// also drives the fleet sites (`fleet.dispatch` drops + an `exec.kill`
/// on one executor). Two independent runs must agree byte-for-byte with
/// each other AND with the monolithic engine, with identical ledgers.
#[test]
fn fixed_seed_fleet_matrix_is_deterministic() {
    let seed: u64 = std::env::var("SYNTS_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7);
    let monolithic = Experiment::new(quick_spec("chaos-fleet"))
        .run()
        .expect("monolithic run")
        .to_json_string();
    let tag = format!("fleet-matrix-{seed}");
    let (report_a, fired_a, journal_a) = chaos_fleet_run(&format!("{tag}-a"), seed);
    let (report_b, fired_b, _) = chaos_fleet_run(&format!("{tag}-b"), seed);
    assert_eq!(
        report_a, report_b,
        "seed {seed}: fleet report bytes drifted"
    );
    assert_eq!(fired_a, fired_b, "seed {seed}: fleet fault ledger drifted");
    assert_eq!(
        report_a, monolithic,
        "seed {seed}: fleet faults corrupted the report"
    );
    save_artifacts(&tag, &journal_a, &fired_a);
}

/// A server that tears half its replies: the client's retry loop (with
/// deterministic backoff) still lands every idempotent request, while a
/// no-retry client sees the torn replies fail.
#[test]
fn client_retries_through_torn_server_replies() {
    let service = Arc::new(Service::start(ServiceConfig {
        workers: 1,
        cache: CharCache::at_dir(fresh_dir("torn-cache")),
        ..ServiceConfig::default()
    }));
    let server_plan = Arc::new(FaultPlan::parse("seed=11;net.torn=1/2").expect("plan parses"));
    let server = Server::bind_with(
        "127.0.0.1:0",
        Arc::clone(&service),
        ServerConfig {
            read_deadline: Duration::from_secs(10),
            faults: Some(server_plan),
        },
    )
    .expect("binds");

    let patient = Client::new(server.addr().to_string()).with_policy(RetryPolicy {
        attempts: 8,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(50),
        request_timeout: Duration::from_secs(10),
    });
    for _ in 0..6 {
        assert!(patient.healthy(), "retries must ride out torn replies");
    }
    let impatient = Client::new(server.addr().to_string()).with_policy(RetryPolicy::none());
    let failures = (0..6)
        .filter(|_| impatient.request("GET", "/v1/healthz", None).is_err())
        .count();
    assert!(
        failures > 0,
        "with net.torn=1/2 a no-retry client must see failures"
    );
}

/// Mid-body disconnects (`net.disconnect`): the server sends the full
/// head plus half the body, then drops the socket. The FIN ends the
/// client's read *cleanly*, so only the Content-Length check stands
/// between a torn report and a silently truncated 200 — a no-retry
/// client must surface it as a transport error, and the retry loop
/// must ride through to the complete report bytes.
#[test]
fn truncated_reply_bodies_are_transport_errors_not_short_200s() {
    let service = Arc::new(Service::start(ServiceConfig {
        workers: 2,
        cache: CharCache::at_dir(fresh_dir("disconnect-cache")),
        ..ServiceConfig::default()
    }));
    let id = service
        .submit(quick_spec("disconnect"))
        .expect("submits")
        .id;
    let expected = loop {
        match service.report(&id) {
            ReportOutcome::Ready(report) => break report.to_json_string(),
            ReportOutcome::Pending(_) => std::thread::sleep(Duration::from_millis(20)),
            other => panic!("job must finish: {other:?}"),
        }
    };

    let server_plan = Arc::new(FaultPlan::parse("seed=3;net.disconnect=1/2").expect("plan parses"));
    let server = Server::bind_with(
        "127.0.0.1:0",
        Arc::clone(&service),
        ServerConfig {
            read_deadline: Duration::from_secs(10),
            faults: Some(Arc::clone(&server_plan)),
        },
    )
    .expect("binds");

    // Single-shot fetches: every reply is either the complete report or
    // a truncated-body transport error — never a short 200.
    let impatient = Client::new(server.addr().to_string()).with_policy(RetryPolicy::none());
    let mut truncated = 0;
    for _ in 0..8 {
        match impatient.fetch_report(&id, false) {
            Ok(reply) => {
                assert_eq!(reply.status, 200);
                assert_eq!(
                    reply.body, expected,
                    "a 200 must never carry a truncated body"
                );
            }
            Err(e) => {
                assert!(e.to_string().contains("truncated"), "{e}");
                truncated += 1;
            }
        }
    }
    assert!(
        truncated > 0,
        "with net.disconnect=1/2 a no-retry client must see truncated bodies"
    );
    assert!(
        server_plan
            .fired_counts()
            .get("net.disconnect")
            .copied()
            .unwrap_or(0)
            >= 1,
        "the disconnect site must have fired"
    );

    // The retrying path lands the complete bytes despite the faults.
    let patient = Client::new(server.addr().to_string()).with_policy(RetryPolicy {
        attempts: 8,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(50),
        request_timeout: Duration::from_secs(10),
    });
    let body = patient
        .wait_report(&id, false, Duration::from_secs(30))
        .expect("retries must ride out mid-body disconnects");
    assert_eq!(body, expected, "the fetched report must be complete");
}

/// Client-side refused connections: `net.refuse=~#a0` rejects every
/// first attempt before a byte is sent; the retrying path succeeds on
/// attempt 1 and the single-shot path fails outright.
#[test]
fn client_refusal_faults_are_absorbed_by_retries() {
    let service = Arc::new(Service::start(ServiceConfig {
        workers: 1,
        cache: CharCache::at_dir(fresh_dir("refuse-cache")),
        ..ServiceConfig::default()
    }));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("binds");
    let plan = Arc::new(FaultPlan::parse("seed=5;net.refuse=~#a0").expect("plan parses"));
    let client = Client::new(server.addr().to_string())
        .with_policy(RetryPolicy {
            attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(10),
            request_timeout: Duration::from_secs(10),
        })
        .with_faults(Some(Arc::clone(&plan)));

    assert!(client.healthy(), "attempt 1 must get through");
    let err = client
        .request("GET", "/v1/stats", None)
        .expect_err("single-shot request hits the refused first attempt");
    assert!(
        err.to_string().contains("injected connection refusal"),
        "{err}"
    );
    let counts = plan.fired_counts();
    assert!(
        counts.get("net.refuse").copied().unwrap_or(0) >= 2,
        "both paths must have consulted the plan: {counts:?}"
    );
}

/// Keyed resubmission over HTTP: the retried POST with the same `?key=`
/// returns the same job, so a client that lost a 202 can safely resend.
#[test]
fn keyed_resubmission_over_http_never_double_enqueues() {
    let service = Arc::new(Service::start(ServiceConfig {
        workers: 2,
        cache: CharCache::at_dir(fresh_dir("keyed-cache")),
        ..ServiceConfig::default()
    }));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("binds");
    let client = Client::new(server.addr().to_string());

    let spec = quick_spec("keyed").to_json_string();
    let first = client
        .submit_idempotent(&spec, "retry-key-1")
        .expect("first submit");
    let second = client
        .submit_idempotent(&spec, "retry-key-1")
        .expect("replayed submit");
    assert_eq!(first, second, "same key must return the same job");
    let other = client
        .submit_idempotent(&spec, "retry-key-2")
        .expect("different key");
    assert_ne!(first, other, "a new key is a new job");

    let stats = client.stats().expect("stats");
    let submitted = stats
        .get("jobs")
        .and_then(|j| j.get("submitted"))
        .and_then(Json::as_f64);
    assert_eq!(submitted, Some(2.0), "the replay must not enqueue");

    let err = client
        .submit_idempotent(&spec, "bad key!")
        .expect_err("keys are plain tokens");
    assert!(err.to_string().contains("idempotency key"), "{err}");
}

/// The client's backoff schedule is a pure function of the policy — the
/// retry cadence chaos tests rely on never drifts.
#[test]
fn backoff_schedule_is_deterministic_and_capped() {
    let policy = RetryPolicy {
        attempts: 6,
        base_delay: Duration::from_millis(50),
        max_delay: Duration::from_secs(2),
        request_timeout: Duration::from_secs(30),
    };
    let schedule: Vec<Duration> = (0..6).map(|a| policy.backoff(a)).collect();
    assert_eq!(
        schedule,
        [50, 100, 200, 400, 800, 1600]
            .into_iter()
            .map(Duration::from_millis)
            .collect::<Vec<_>>()
    );
    assert_eq!(policy.backoff(30), Duration::from_secs(2), "capped");
    assert_eq!(RetryPolicy::default().attempts, 4);
}
