//! Crash-safety integration tests for the durable job journal.
//!
//! Two escalation levels:
//!
//! 1. **In-process**: a journaled service is stopped mid-job
//!    (`Shutdown::Now` with shards still queued); a fresh service on the
//!    same journal directory resumes from the completed shards and
//!    produces a report byte-identical to the uninterrupted monolithic
//!    run.
//! 2. **Real process**: `synts-serve` is launched with an armed
//!    `exec.kill` fault plan that `abort()`s the worker mid-shard — an
//!    honest `kill -9` equivalent. A clean restart on the same journal
//!    directory recovers the job and serves the exact bytes of the
//!    committed golden fixture.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use circuits::StageKind;
use synts_core::scenario::{Experiment, Json, Quality, ScenarioSpec, ThetaSpec};
use synts_core::CharCache;
use synts_serve::{Client, Journal, ReportOutcome, Service, ServiceConfig, Shutdown};
use workloads::Benchmark;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("synts-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn quick_spec(name: &str) -> ScenarioSpec {
    ScenarioSpec::new(name, Benchmark::Radix, StageKind::Decode)
        .schemes(["synts_poly", "per_core_ts", "no_ts"])
        .thetas(ThetaSpec::LogAroundEqualWeight {
            points: 6,
            decades: 1.0,
        })
        .normalize_to("nominal")
        .verify_model(true)
        .workers(1)
}

fn journaled_service(journal_dir: &PathBuf, cache_dir: &PathBuf, workers: usize) -> Arc<Service> {
    Arc::new(Service::start(ServiceConfig {
        workers,
        max_shards: 3,
        max_attempts: 2,
        cache: CharCache::at_dir(cache_dir),
        journal: Some(Journal::open(journal_dir).expect("journal opens")),
        faults: None,
        ..ServiceConfig::default()
    }))
}

/// Counts the journal segment's records of `kind` (each line is
/// `<16 hex checksum> <JSON>`).
fn count_records(journal_dir: &Path, kind: &str) -> usize {
    let Ok(segment) = std::fs::read_to_string(journal_dir.join("journal.log")) else {
        return 0;
    };
    segment
        .lines()
        .filter_map(|line| Json::parse(line.get(17..)?).ok())
        .filter(|json| json.get("record").and_then(Json::as_str) == Some(kind))
        .count()
}

/// Kill a journaled service mid-job (in-process), restart on the same
/// journal directory, and the resumed report is byte-identical to the
/// uninterrupted run.
#[test]
fn interrupted_service_resumes_to_byte_identical_report() {
    let journal_dir = temp_dir("inproc-journal");
    let cache_dir = temp_dir("inproc-cache");
    let spec = quick_spec("resume-me");
    let monolithic = Experiment::new(spec.clone())
        .run()
        .expect("monolithic run")
        .to_json_string();

    // Phase 1: run until at least one shard has been journaled, then
    // pull the plug before the job can finish (single worker, so at
    // most one more shard completes during Shutdown::Now).
    let service = journaled_service(&journal_dir, &cache_dir, 1);
    let id = service.submit(spec).expect("submits").id;
    let deadline = Instant::now() + Duration::from_secs(120);
    while count_records(&journal_dir, "shard_done") == 0 {
        assert!(Instant::now() < deadline, "no shard ever finished");
        std::thread::sleep(Duration::from_millis(10));
    }
    service.shutdown(Shutdown::Now);
    let done_before = count_records(&journal_dir, "done");
    let shards_before = count_records(&journal_dir, "shard_done");
    drop(service);
    assert!(shards_before >= 1, "the interruption must be mid-job");

    // Phase 2: a fresh service on the same journal resumes the job.
    let service = journaled_service(&journal_dir, &cache_dir, 2);
    let deadline = Instant::now() + Duration::from_secs(300);
    let report = loop {
        match service.report(&id) {
            ReportOutcome::Ready(report) => break report,
            ReportOutcome::Pending(_) => {
                assert!(Instant::now() < deadline, "recovered job never finished");
                std::thread::sleep(Duration::from_millis(25));
            }
            other => panic!("recovered job went sideways: {other:?}"),
        }
    };
    assert_eq!(
        report.to_json_string(),
        monolithic,
        "resumed report drifted from the uninterrupted run"
    );
    // If the first run had already journaled `done`, recovery served it
    // verbatim; otherwise it finished the job and journaled it now.
    if done_before == 0 {
        assert_eq!(count_records(&journal_dir, "done"), 1);
    }
    service.shutdown(Shutdown::Now);
}

struct ServeProc {
    child: Child,
    addr: String,
}

fn spawn_serve(journal_dir: &Path, cache_dir: &Path, faults: Option<&str>) -> ServeProc {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_synts-serve"));
    cmd.args(["--addr", "127.0.0.1:0", "--workers", "1"])
        .args(["--journal-dir".as_ref(), journal_dir.as_os_str()])
        .args(["--cache-dir".as_ref(), cache_dir.as_os_str()])
        .env_remove("SYNTS_FAULTS")
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if let Some(plan) = faults {
        cmd.args(["--faults", plan]);
    }
    let mut child = cmd.spawn().expect("synts-serve spawns");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("synts-serve exited before listening")
            .expect("stdout line");
        if let Some(rest) = line.split("listening on ").nth(1) {
            break rest
                .split_whitespace()
                .next()
                .expect("address token")
                .to_string();
        }
    };
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    ServeProc { child, addr }
}

/// The full crash story, with a real process: an `exec.kill` fault
/// aborts `synts-serve` mid-shard; a clean restart on the same journal
/// recovers and serves the byte-exact committed golden fixture.
#[test]
fn killed_process_recovers_to_the_golden_fixture() {
    let repo_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let spec_src = std::fs::read_to_string(repo_root.join("crates/bench/specs/fig-6-12.json"))
        .expect("committed spec");
    let mut spec = ScenarioSpec::from_json_str(&spec_src).expect("spec parses");
    spec.quality = Quality::Quick;
    let golden =
        std::fs::read_to_string(repo_root.join("tests/fixtures/fig-6-12-quick.report.golden.json"))
            .expect("golden fixture");

    let journal_dir = temp_dir("proc-journal");
    let cache_dir = temp_dir("proc-cache");

    // Phase 1: armed process. The plan aborts the worker on shard 1's
    // first attempt — after shard 0's `shard_done` record is on disk.
    let mut armed = spawn_serve(
        &journal_dir,
        &cache_dir,
        Some("seed=7;exec.kill=~@shard1#a0"),
    );
    let client = Client::new(armed.addr.clone());
    let id = client.submit(&spec.to_json_string()).expect("submits");
    let status = armed.child.wait().expect("child observed");
    assert!(
        !status.success(),
        "the injected kill must take the process down: {status:?}"
    );
    assert!(
        count_records(&journal_dir, "done") == 0,
        "the job must not have finished before the kill"
    );
    assert!(
        count_records(&journal_dir, "submitted") == 1,
        "the submission must have been journaled before the kill"
    );

    // Phase 2: clean restart on the same journal. The job resumes from
    // its journaled shards and serves the exact golden bytes.
    let mut clean = spawn_serve(&journal_dir, &cache_dir, None);
    let client = Client::new(clean.addr.clone());
    let body = client
        .wait_report(&id, false, Duration::from_secs(600))
        .expect("recovered job completes");
    assert_eq!(
        body, golden,
        "recovered report drifted from the golden fixture"
    );

    let _ = client.shutdown(true);
    let _ = clean.child.wait();
}

/// Journal compaction: once a job is terminal its `shard_done` records
/// are superseded by the `done` record, so replay drops them — and the
/// compacted journal still serves the byte-identical report.
#[test]
fn compaction_prunes_terminal_jobs_and_replays_byte_identically() {
    let journal_dir = temp_dir("compact-journal");
    let cache_dir = temp_dir("compact-cache");
    let spec = quick_spec("compact-me");

    // Run a job to completion through a journaled service.
    let service = journaled_service(&journal_dir, &cache_dir, 2);
    let id = service.submit(spec).expect("submits").id;
    let deadline = Instant::now() + Duration::from_secs(300);
    let report = loop {
        match service.report(&id) {
            ReportOutcome::Ready(report) => break report.to_json_string(),
            ReportOutcome::Pending(_) => {
                assert!(Instant::now() < deadline, "job never finished");
                std::thread::sleep(Duration::from_millis(10));
            }
            other => panic!("job went sideways: {other:?}"),
        }
    };
    service.shutdown(Shutdown::Now);
    drop(service);

    let shards_before = count_records(&journal_dir, "shard_done");
    assert!(shards_before >= 1, "the job must have journaled shards");
    let replay = Journal::open(&journal_dir)
        .expect("journal reopens")
        .replay();
    assert_eq!(
        replay.compacted, shards_before,
        "every shard_done of the terminal job is superseded"
    );
    assert_eq!((replay.skipped, replay.truncated), (0, 0));
    assert_eq!(count_records(&journal_dir, "shard_done"), 0);
    assert_eq!(count_records(&journal_dir, "done"), 1);
    // Idempotent: a second open + replay finds nothing to drop and
    // leaves the segment's bytes as they were.
    let segment = journal_dir.join("journal.log");
    let compacted = std::fs::read(&segment).expect("segment");
    let again = Journal::open(&journal_dir)
        .expect("journal reopens")
        .replay();
    assert_eq!((again.skipped, again.truncated, again.compacted), (0, 0, 0));
    assert_eq!(std::fs::read(&segment).expect("segment"), compacted);

    // Replay of the compacted journal serves the exact bytes.
    let service = journaled_service(&journal_dir, &cache_dir, 2);
    match service.report(&id) {
        ReportOutcome::Ready(recovered) => assert_eq!(
            recovered.to_json_string(),
            report,
            "compacted replay drifted"
        ),
        other => panic!("compacted journal must still serve the report: {other:?}"),
    }
    service.shutdown(Shutdown::Now);
}

/// A crash mid-append leaves a torn trailing line. Replay must not
/// refuse the journal (that would strand every earlier job): it
/// truncates the torn suffix with a warning and recovers everything
/// before it — while damaged lines *before* good ones (real corruption)
/// are skipped, never silently deleted.
#[test]
fn torn_trailing_record_is_truncated_and_earlier_jobs_survive() {
    let journal_dir = temp_dir("torn-journal");
    let cache_dir = temp_dir("torn-cache");

    // A finished job, fully journaled.
    let service = journaled_service(&journal_dir, &cache_dir, 2);
    let id = service.submit(quick_spec("torn")).expect("submits").id;
    let deadline = Instant::now() + Duration::from_secs(300);
    let report = loop {
        match service.report(&id) {
            ReportOutcome::Ready(report) => break report.to_json_string(),
            ReportOutcome::Pending(_) => {
                assert!(Instant::now() < deadline, "job never finished");
                std::thread::sleep(Duration::from_millis(10));
            }
            other => panic!("job went sideways: {other:?}"),
        }
    };
    service.shutdown(Shutdown::Now);
    drop(service);

    // Simulate the crash: a half-written record lands after the last
    // good line.
    let segment = journal_dir.join("journal.log");
    let mut torn = std::fs::read(&segment).expect("segment");
    torn.extend_from_slice(b"0123456789abcdef {\"record\": \"submitted\", \"job\": 9");
    std::fs::write(&segment, &torn).expect("torn record");

    let journal = Journal::open(&journal_dir).expect("journal reopens");
    let replay = journal.replay();
    assert_eq!(replay.truncated, 1, "the torn suffix must be truncated");
    assert_eq!(replay.skipped, 0, "nothing before it was damaged");
    let settled = std::fs::read(&segment).expect("segment");
    assert!(settled.ends_with(b"\n"), "the torn line must be gone");
    assert_eq!(replay.jobs.len(), 1, "the finished job survives");
    drop(journal);

    // A damaged line *before* good ones is not the append crash
    // pattern: it is skipped, and kept on disk so a human can look at it.
    let mut damaged = b"not a journal line\n".to_vec();
    damaged.extend_from_slice(&settled);
    std::fs::write(&segment, &damaged).expect("early garbage");
    let journal = Journal::open(&journal_dir).expect("journal reopens");
    let replay = journal.replay();
    assert_eq!(replay.truncated, 0);
    assert_eq!(replay.skipped, 1, "mid-stream damage is skipped");
    assert_eq!(
        std::fs::read(&segment).expect("segment"),
        damaged,
        "mid-stream damage is preserved"
    );
    drop(journal);

    // And the service still serves the exact bytes through it all.
    let service = journaled_service(&journal_dir, &cache_dir, 2);
    match service.report(&id) {
        ReportOutcome::Ready(recovered) => {
            assert_eq!(recovered.to_json_string(), report, "recovery drifted");
        }
        other => panic!("journal must still serve the report: {other:?}"),
    }
    service.shutdown(Shutdown::Now);
}
