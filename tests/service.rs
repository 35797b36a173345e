//! Integration tests for the scenario service: the shard planner /
//! report merger (property-tested against the monolithic engine), the
//! in-process HTTP round trip, malformed-request survival, and graceful
//! drain on shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;
use synts::prelude::*;
use synts_serve::{Client, Server, ServerConfig, Service, ServiceConfig, Shutdown};

fn radix_decode_quick() -> &'static BenchmarkData {
    static DATA: OnceLock<BenchmarkData> = OnceLock::new();
    DATA.get_or_init(|| {
        characterize(Benchmark::Radix, StageKind::Decode, &HarnessConfig::quick())
            .expect("characterizes")
    })
}

/// Runs `spec` through plan → shard-by-shard execution → merge, on
/// shared characterization data, and returns the merged report.
fn sharded_run(spec: &ScenarioSpec, max_shards: usize) -> Report {
    let data = radix_decode_quick();
    let plan = ShardPlan::plan(spec, data, max_shards).expect("plans");
    let parts: Vec<Report> = plan
        .shards()
        .iter()
        .map(|shard| {
            Experiment::new(shard.spec.clone())
                .run_on(data)
                .expect("shard runs")
        })
        .collect();
    plan.merge(&parts).expect("merges")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The tentpole invariant: for any random spec and any shard
    /// partition (`max_shards` sweeps the chunking), the merged report
    /// renders byte-identical canonical JSON to the monolithic run — at
    /// 1, 2 and 4 workers.
    #[test]
    fn merged_reports_are_byte_identical_to_monolithic(
        grid in prop::collection::vec(0.001f64..10.0, 2..7),
        max_shards in 1usize..6,
        normalize in any::<bool>(),
        verify in any::<bool>(),
    ) {
        let data = radix_decode_quick();
        for workers in [1usize, 2, 4] {
            let mut spec = ScenarioSpec::new("prop-shard", Benchmark::Radix, StageKind::Decode)
                .schemes(["synts_poly", "per_core_ts", "no_ts"])
                .thetas(ThetaSpec::Grid(grid.clone()))
                .verify_model(verify)
                .workers(workers);
            if normalize {
                spec = spec.normalize_to("nominal");
            }
            let monolithic = Experiment::new(spec.clone())
                .run_on(data)
                .expect("monolithic runs");
            let merged = sharded_run(&spec, max_shards);
            prop_assert_eq!(
                merged.to_json_string(),
                monolithic.to_json_string(),
                "merge drifted at {} workers, {} max shards",
                workers,
                max_shards
            );
        }
    }
}

fn test_service(name: &str, workers: usize) -> Arc<Service> {
    let cache_dir =
        std::env::temp_dir().join(format!("synts-serve-it-{name}-{}", std::process::id()));
    Arc::new(Service::start(ServiceConfig {
        workers,
        max_shards: 3,
        max_attempts: 2,
        cache: CharCache::at_dir(cache_dir),
        journal: None,
        faults: None,
        ..ServiceConfig::default()
    }))
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

/// Submit over HTTP, poll to completion, fetch — and the body is
/// byte-identical to the engine's canonical JSON for the same spec.
#[test]
fn http_round_trip_matches_in_process_run() {
    let service = test_service("roundtrip", 2);
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("binds");
    let client = Client::new(server.addr().to_string());
    assert!(client.healthy(), "healthz answers");

    let spec = quick_spec("http-e2e");
    let id = client.submit(&spec.to_json_string()).expect("submits");
    let body = client
        .wait_report(&id, false, Duration::from_secs(600))
        .expect("job completes");
    let monolithic = Experiment::new(spec).run().expect("monolithic runs");
    assert_eq!(body, monolithic.to_json_string(), "HTTP report drifted");

    // The CSV rendering serves the same records.
    let csv = client.fetch_report(&id, true).expect("csv fetch");
    assert_eq!(csv.status, 200);
    let (header, rows) = monolithic.to_csv();
    assert_eq!(
        csv.body.lines().count(),
        rows.len() + 1,
        "one CSV line per record plus the header"
    );
    assert_eq!(csv.body.lines().next(), Some(header.join(",").as_str()));

    // Status and stats reflect the finished job.
    let status = client.status(&id).expect("status");
    assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));
    let stats = client.stats().expect("stats");
    let jobs = stats.get("jobs").expect("jobs object");
    assert_eq!(jobs.get("done").and_then(Json::as_f64), Some(1.0));
}

fn raw_request(addr: std::net::SocketAddr, payload: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout set");
    // The server may reply-and-close before the full payload lands
    // (oversized requests), so a broken pipe here is expected.
    let _ = stream.write_all(payload);
    let mut reply = String::new();
    let _ = stream.read_to_string(&mut reply);
    reply
}

/// Nothing a client sends may take the server down: garbage request
/// lines, non-JSON bodies, bodies nested past the parser's bound,
/// unknown routes, oversized payloads — each gets a 4xx and the server
/// keeps answering.
#[test]
fn malformed_requests_get_4xx_and_never_kill_the_server() {
    let service = test_service("malformed", 1);
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("binds");
    let addr = server.addr();

    let cases: &[(&[u8], &str)] = &[
        (b"GARBAGE\r\n\r\n", "400"),
        (b"GET /v1/healthz SMTP/1.0\r\n\r\n", "400"),
        (
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 9\r\n\r\nnot json!",
            "400",
        ),
        (
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 14\r\n\r\n{\"name\": true}",
            "400",
        ),
        (
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            "400",
        ),
        (b"GET /wrong/place HTTP/1.1\r\n\r\n", "404"),
        (b"PATCH /v1/jobs/job-1 HTTP/1.1\r\n\r\n", "404"),
        (b"GET /v1/jobs/no-such-job/report HTTP/1.1\r\n\r\n", "404"),
        (
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
            "413",
        ),
    ];
    for (payload, expected) in cases {
        let reply = raw_request(addr, payload);
        let status = reply.split_whitespace().nth(1).unwrap_or("<none>");
        assert_eq!(
            &status,
            expected,
            "for request {:?}",
            String::from_utf8_lossy(payload)
        );
    }
    // A body nested 100,000 levels deep is refused at the parser's
    // 64-level bound; recursing into it would overflow the connection
    // thread's stack, which aborts the process.
    let mut deep = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 100000\r\n\r\n".to_vec();
    deep.resize(deep.len() + 100_000, b'[');
    let reply = raw_request(addr, &deep);
    assert_eq!(
        reply.split_whitespace().nth(1),
        Some("400"),
        "deep body: {reply:?}"
    );
    assert!(reply.contains("nested deeper than 64 levels"), "{reply}");

    // An oversized request head is cut off at the limit, too.
    let mut huge = b"GET /v1/healthz HTTP/1.1\r\n".to_vec();
    for i in 0..2000 {
        huge.extend_from_slice(format!("X-Pad-{i}: {}\r\n", "y".repeat(64)).as_bytes());
    }
    huge.extend_from_slice(b"\r\n");
    let reply = raw_request(addr, &huge);
    assert_eq!(reply.split_whitespace().nth(1), Some("413"));

    // A single endless header line (no newline at all): the head bound
    // must fire mid-line, not per complete line, so a client streaming
    // one giant line can never grow server memory past the 16 KiB cap.
    let mut endless = b"GET /v1/healthz HTTP/1.1\r\nX-Endless: ".to_vec();
    endless.resize(endless.len() + 64 * 1024, b'y');
    let reply = raw_request(addr, &endless);
    assert_eq!(
        reply.split_whitespace().nth(1),
        Some("413"),
        "endless header line: {reply:?}"
    );

    // The server is still alive and serving.
    let client = Client::new(addr.to_string());
    assert!(client.healthy(), "server survived the abuse");
}

/// Pins the exact bytes the CI service smoke diffs against: the
/// committed `fig-6-12` spec at quick quality, submitted over HTTP and
/// fetched back. Regenerate after an intentional engine change with
/// `SYNTS_REGEN_FIXTURES=1 cargo test --test service`.
#[test]
fn service_report_matches_golden_fixture() {
    let spec_path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("crates/bench/specs/fig-6-12.json");
    let src = std::fs::read_to_string(spec_path).expect("committed spec");
    let mut spec = ScenarioSpec::from_json_str(&src).expect("parses");
    spec.quality = Quality::Quick;

    let service = test_service("golden", 2);
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("binds");
    let client = Client::new(server.addr().to_string());
    let id = client.submit(&spec.to_json_string()).expect("submits");
    let body = client
        .wait_report(&id, false, Duration::from_secs(600))
        .expect("job completes");

    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/fig-6-12-quick.report.golden.json");
    if std::env::var("SYNTS_REGEN_FIXTURES").is_ok() {
        std::fs::write(&path, &body).expect("write fixture");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with \
             SYNTS_REGEN_FIXTURES=1 cargo test --test service",
            path.display()
        )
    });
    assert_eq!(
        golden, body,
        "service report drifted from the golden fixture; if intentional, \
         regenerate with SYNTS_REGEN_FIXTURES=1"
    );
}

/// Drain shutdown finishes every queued job before the workers join;
/// submitting afterwards is refused.
#[test]
fn drain_shutdown_finishes_queued_jobs() {
    let service = test_service("drain", 2);
    let mut server = Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("binds");
    let client = Client::new(server.addr().to_string());

    let first = client
        .submit(&quick_spec("drain-1").to_json_string())
        .expect("submits");
    let second = client
        .submit(&quick_spec("drain-2").to_json_string())
        .expect("submits");
    server.shutdown(Shutdown::Drain); // joins only after the queue is dry
    for id in [&first, &second] {
        let status = service.status(id).expect("job exists");
        assert_eq!(status.state, synts_serve::JobState::Done, "{status:?}");
        assert!(matches!(
            service.report(id),
            synts_serve::ReportOutcome::Ready(_)
        ));
    }
    let err = service
        .submit(quick_spec("late"))
        .expect_err("post-drain submit");
    assert!(err.to_string().contains("shutting down"), "{err}");
}

/// Mid-job hard shutdown: in-flight shards finish, the rest stay
/// queued, nothing panics, and the queue never runs work afterwards.
#[test]
fn immediate_shutdown_mid_job_leaves_consistent_state() {
    let service = test_service("now", 1);
    let mut server = Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("binds");
    let client = Client::new(server.addr().to_string());
    let id = client
        .submit(&quick_spec("interrupted").to_json_string())
        .expect("submits");
    // Give the single worker a moment to pick the job up, then pull the
    // plug while shards are (most likely) still queued or running.
    std::thread::sleep(Duration::from_millis(50));
    server.shutdown(Shutdown::Now);

    let status = service.status(&id).expect("job exists");
    let counted = status.shards.queued + status.shards.running + status.shards.done;
    assert_eq!(counted, status.shards.total, "no shard went missing");
    assert_eq!(status.shards.failed, 0, "shutdown must not fail shards");
    assert!(
        matches!(
            status.state,
            synts_serve::JobState::Queued
                | synts_serve::JobState::Planning
                | synts_serve::JobState::Running
                | synts_serve::JobState::Done
        ),
        "{status:?}"
    );
}

/// Torn requests: a half-written request line still gets its 400, a
/// body cut short of its Content-Length is dropped silently (no thread
/// pinned, no panic), and a connection that sends nothing hits the
/// read deadline with a 408. The server answers normally afterwards.
#[test]
fn torn_and_stalled_requests_never_pin_the_server() {
    let service = test_service("torn", 1);
    let server = Server::bind_with(
        "127.0.0.1:0",
        Arc::clone(&service),
        ServerConfig {
            read_deadline: Duration::from_millis(400),
            faults: None,
        },
    )
    .expect("binds");
    let addr = server.addr();

    // Torn header: the request line stops mid-path, then the write side
    // closes. The server sees a malformed request line -> 400.
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream.write_all(b"GET /v1/hea").expect("partial line");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut reply = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout set");
    let _ = stream.read_to_string(&mut reply);
    assert_eq!(
        reply.split_whitespace().nth(1),
        Some("400"),
        "torn header: {reply:?}"
    );

    // Torn body: Content-Length promises more than arrives. The read
    // fails inside the deadline -> transport error -> silent close.
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .write_all(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"torn")
        .expect("torn body");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut reply = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout set");
    let _ = stream.read_to_string(&mut reply);
    assert!(reply.is_empty(), "torn body must close silently: {reply:?}");

    // Stalled connection: bytes never come. The read budget expires and
    // the server answers 408 rather than pinning the handler thread.
    let mut stream = TcpStream::connect(addr).expect("connects");
    let mut reply = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout set");
    let _ = stream.read_to_string(&mut reply);
    assert_eq!(
        reply.split_whitespace().nth(1),
        Some("408"),
        "stalled connection: {reply:?}"
    );

    // And the server still serves.
    let client = Client::new(addr.to_string());
    assert!(client.healthy(), "server survived torn/stalled clients");
}
