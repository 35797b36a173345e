//! Fault-tolerant fleet integration tests.
//!
//! Three escalation levels:
//!
//! 1. **Deterministic in-process fleets** (the shipped [`Executor`]
//!    stepped over [`Transport::InProcess`], between explicit
//!    [`Service::fleet_tick`]s): lease grant/renewal/expiry, shard
//!    reassignment after an injected `exec.kill` or a starved
//!    in-process lease, re-registration after a lapse, bounded
//!    attempts, and graceful degradation to local execution — all in
//!    logical time, so every schedule is exactly reproducible.
//! 2. **Property**: a seeded kill of any executor, at 1, 2 and 4
//!    nodes, converges to the byte-exact monolithic report with a
//!    reproducible fired-fault ledger.
//! 3. **Real processes**: a coordinator plus two `--executor`
//!    processes; one is aborted mid-shard by an armed `exec.kill`.
//!    Lease expiry reassigns its shard and the fetched report is
//!    byte-identical to the committed golden fixture.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use circuits::StageKind;
use proptest::prelude::*;
use synts_core::cache::{RemoteCacheTier, RemoteFetch};
use synts_core::scenario::{Experiment, Json, Quality, ScenarioSpec, ThetaSpec};
use synts_core::{CharCache, FaultPlan};
use synts_serve::{
    Client, CompleteOutcome, Executor, HeartbeatOutcome, JobState, PollOutcome, ReportOutcome,
    RetryPolicy, Server, Service, ServiceConfig, Shutdown, Step, Transport,
};
use workloads::Benchmark;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("synts-fleet-{tag}-{}", std::process::id()));
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

/// A fleet-mode coordinator: shards go to executors, local workers run
/// plan tasks (and shards only while the fleet is dead).
fn fleet_service(tag: &str, faults: Option<Arc<FaultPlan>>) -> Arc<Service> {
    Arc::new(Service::start(ServiceConfig {
        workers: 1,
        max_shards: 3,
        max_attempts: 3,
        cache: CharCache::at_dir(temp_dir(&format!("{tag}-cache"))),
        journal: None,
        faults,
        local_shards: false,
        lease_ticks: 3,
    }))
}

/// An executor named `name` on the in-process transport, registered
/// with `service` by its first step.
fn executor(
    service: &Arc<Service>,
    name: &str,
    cache: CharCache,
    faults: Option<Arc<FaultPlan>>,
) -> Executor {
    let transport = Transport::InProcess(Arc::clone(service));
    let mut executor = Executor::new(transport, name, cache, faults);
    assert_eq!(executor.step().expect("registers"), Step::Registered);
    executor
}

/// Steps `executor` until an injected `exec.kill` halts it on a
/// dispatched shard.
fn step_until_killed(mut executor: Executor) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !matches!(executor.step().expect("in-process steps"), Step::Killed) {
        assert!(Instant::now() < deadline, "the victim never saw work");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Drives a fleet round-robin (one step per executor, then one tick)
/// until the job's report is ready, and returns its bytes.
fn drive_to_report(service: &Arc<Service>, executors: &mut [Executor], id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        for executor in executors.iter_mut() {
            executor.step().expect("in-process steps");
        }
        let _ = service.fleet_tick();
        match service.report(id) {
            ReportOutcome::Ready(report) => return report.to_json_string(),
            ReportOutcome::Pending(_) => {
                assert!(Instant::now() < deadline, "fleet job never finished");
            }
            other => panic!("fleet job went sideways: {other:?}"),
        }
    }
}

/// One complete deterministic fleet scenario: `nodes` in-process
/// executors, an armed plan that kills `node<victim>` on its first
/// dispatched shard. Returns (report bytes, fired-fault ledger render).
fn fleet_run(tag: &str, seed: u64, nodes: usize, victim: usize) -> (String, String) {
    let plan =
        Arc::new(FaultPlan::parse(&format!("seed={seed};exec.kill=~@node{victim}")).expect("plan"));
    let service = fleet_service(tag, Some(Arc::clone(&plan)));
    let shared_cache = CharCache::at_dir(temp_dir(&format!("{tag}-sim-cache")));
    let mut executors: Vec<Executor> = (1..=nodes)
        .map(|n| {
            executor(
                &service,
                &format!("node{n}"),
                shared_cache.clone(),
                Some(Arc::clone(&plan)),
            )
        })
        .collect();
    let id = service.submit(quick_spec("fleet")).expect("submits").id;
    // Step only the victim until it claims (and dies on) the first
    // planned shard: otherwise the racing survivors can drain the queue
    // before the victim ever holds work, and the kill never fires. The
    // dead victim is never stepped again.
    if victim <= nodes {
        step_until_killed(executors.remove(victim - 1));
    }
    let report = drive_to_report(&service, &mut executors, &id);
    if victim <= nodes {
        let stats = service.stats();
        assert!(
            stats.fleet.expired >= 1,
            "the killed executor's lease must have expired: {stats:?}"
        );
    }
    service.shutdown(Shutdown::Now);
    (report, plan.report().render())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The fleet invariant (mirrors the chaos suite's): killing any one
    /// executor at 1, 2 and 4 nodes still converges to the byte-exact
    /// monolithic report, and two identical runs fire the identical
    /// fault ledger. At 1 node the whole fleet dies and the coordinator
    /// must degrade to local execution.
    #[test]
    fn killed_executors_never_change_the_report(seed in 0u64..1000) {
        let monolithic = Experiment::new(quick_spec("fleet"))
            .run()
            .expect("monolithic run")
            .to_json_string();
        for nodes in [1usize, 2, 4] {
            // The quick spec plans into 3 shards, so with 4 nodes the
            // 4th never holds work — the victim must be one that does.
            let victim = (seed as usize % nodes.min(3)) + 1;
            let tag_a = format!("prop-{seed}-{nodes}-a");
            let tag_b = format!("prop-{seed}-{nodes}-b");
            let (report_a, fired_a) = fleet_run(&tag_a, seed, nodes, victim);
            let (report_b, fired_b) = fleet_run(&tag_b, seed, nodes, victim);
            prop_assert_eq!(&report_a, &monolithic, "a dead executor corrupted the report");
            prop_assert_eq!(&report_a, &report_b, "report bytes drifted across identical runs");
            prop_assert_eq!(&fired_a, &fired_b, "fault ledger drifted across identical runs");
        }
    }
}

/// Lease mechanics, in pure logical time: a poll leases a shard; a
/// heartbeat-starved lease expires after exactly `lease_ticks` ticks
/// and the shard is requeued; a heartbeated lease survives; a
/// completion under an expired lease is rejected.
#[test]
fn leases_expire_deterministically_and_reject_stale_completions() {
    let service = fleet_service("lease", None);
    let reg = service.fleet_register("tester");
    assert_eq!(reg.executor, "exec-1");
    assert_eq!(reg.lease_ticks, 3);

    let _id = service.submit(quick_spec("lease")).expect("submits").id;
    // The local worker plans the job into shards; wait for the first
    // shard to become claimable (the only wall-clock wait here — the
    // lease clock itself never moves until we tick it).
    let dispatch = {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match service.fleet_poll(&reg.executor) {
                PollOutcome::Dispatch(d) => break d,
                PollOutcome::Idle => {
                    assert!(Instant::now() < deadline, "no shard was ever planned");
                    std::thread::sleep(Duration::from_millis(5));
                }
                other => panic!("poll went sideways: {other:?}"),
            }
        }
    };
    assert_eq!(dispatch.lease, "lease-1");
    assert_eq!(dispatch.attempt, 0);

    // Heartbeats renew: after 2 ticks + heartbeat + 2 more ticks the
    // lease is still held (2 < lease_ticks after each renewal).
    let _ = service.fleet_tick();
    let _ = service.fleet_tick();
    match service.fleet_heartbeat(&reg.executor, Some(&dispatch.lease)) {
        HeartbeatOutcome::Renewed { lease_held } => assert_eq!(lease_held, Some(true)),
        HeartbeatOutcome::UnknownExecutor => panic!("executor must still be registered"),
    }
    let _ = service.fleet_tick();
    let _ = service.fleet_tick();
    assert_eq!(service.stats().fleet.expired, 0, "renewed lease expired");

    // Starve it: exactly lease_ticks more ticks expire the lease and
    // requeue the shard (attempt charged). A lease-less heartbeat before
    // each tick keeps the registration alive, so only the lease starves:
    // a lapsed registration would leave the fleet dead and let the
    // in-process worker take the requeued shard before tester2 polls.
    let mut expired = 0;
    for _ in 0..3 {
        match service.fleet_heartbeat(&reg.executor, None) {
            HeartbeatOutcome::Renewed { lease_held } => assert_eq!(lease_held, None),
            HeartbeatOutcome::UnknownExecutor => panic!("executor must still be registered"),
        }
        expired += service.fleet_tick().expired;
    }
    assert_eq!(expired, 1, "the starved lease must expire exactly once");

    // The zombie's completion is rejected — its shard was reassigned.
    match service.fleet_complete(
        &reg.executor,
        &dispatch.lease,
        Err("zombie reporting in".to_string()),
    ) {
        CompleteOutcome::Rejected(why) => assert!(why.contains("reassigned"), "{why}"),
        CompleteOutcome::Accepted => panic!("an expired lease must not land results"),
    }

    // The requeued shard carries the charged attempt. Expiry pushed it
    // to the back of the queue, so the job's still-fresh shards lease
    // out first — keep polling until the retried one comes around.
    let re = service.fleet_register("tester2");
    let mut reassigned = None;
    for _ in 0..4 {
        match service.fleet_poll(&re.executor) {
            PollOutcome::Dispatch(d) if d.attempt == 1 => {
                reassigned = Some(d);
                break;
            }
            PollOutcome::Dispatch(_) => {} // a fresh shard; keep going
            other => panic!("reassigned shard must be claimable: {other:?}"),
        }
    }
    let d = reassigned.expect("the expired shard must be redispatched");
    assert_eq!(d.shard, dispatch.shard, "the same shard is reassigned");
    service.shutdown(Shutdown::Now);
}

/// A remote tier that parks one chosen fetch (the `park`-th): it tells
/// the test on `entered`, then waits on `release` until the test sends
/// or hangs up. Every fetch misses.
#[derive(Debug)]
struct GateTier {
    fetches: AtomicUsize,
    park: usize,
    entered: Mutex<mpsc::Sender<()>>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl RemoteCacheTier for GateTier {
    fn fetch(&self, _name: &str) -> RemoteFetch {
        if self.fetches.fetch_add(1, Ordering::SeqCst) + 1 == self.park {
            let _ = self.entered.lock().expect("gate").send(());
            let _ = self.release.lock().expect("gate").recv();
        }
        RemoteFetch::Compute
    }

    fn publish(&self, _name: &str, _entry: &str) -> bool {
        true
    }
}

/// A starved in-process lease, in logical time. The one in-process
/// executor leases shard 0 and parks inside its run (on a gated cache
/// fetch), while `fleet.heartbeat` drops every tick's renewal of that
/// attempt. After exactly `lease_ticks` ticks the lease expires and the
/// shard is requeued; the parked attempt's late completion is rejected,
/// and the job still merges to the monolithic report.
#[test]
fn starved_in_process_lease_is_reassigned_and_its_late_completion_rejected() {
    // The planner's lookup is fetch 1 and shard 0's is fetch 2. Dropped
    // cache writes keep every lookup a local miss, so every run fetches.
    let (entered_tx, entered) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let gate = Arc::new(GateTier {
        fetches: AtomicUsize::new(0),
        park: 2,
        entered: Mutex::new(entered_tx),
        release: Mutex::new(release_rx),
    });
    let plan =
        Arc::new(FaultPlan::parse("fleet.heartbeat=~@shard0#a0;cache.write=1").expect("plan"));
    let tier: Arc<dyn RemoteCacheTier> = Arc::clone(&gate) as Arc<dyn RemoteCacheTier>;
    let service = Service::start(ServiceConfig {
        workers: 1,
        max_shards: 3,
        max_attempts: 3,
        cache: CharCache::at_dir(temp_dir("starved-cache")).with_remote(Some(tier)),
        journal: None,
        faults: Some(Arc::clone(&plan)),
        local_shards: true,
        lease_ticks: 3,
    });
    // Bound after `service`, so a failed assertion drops it first: the
    // parked executor is unparked before the service joins it.
    let release = release_tx;
    // Its own (benchmark, stage) key, so no other test coalesces onto
    // the parked characterization.
    let spec = ScenarioSpec::new("starved", Benchmark::Radix, StageKind::SimpleAlu)
        .schemes(["synts_poly", "per_core_ts", "no_ts"])
        .thetas(ThetaSpec::LogAroundEqualWeight {
            points: 6,
            decades: 1.0,
        })
        .workers(1);
    let id = service.submit(spec.clone()).expect("submits").id;

    entered
        .recv_timeout(Duration::from_secs(300))
        .expect("shard 0 parks in its cache fetch");
    let status = service.status(&id).expect("job exists");
    assert_eq!(status.state, JobState::Running, "{status:?}");
    assert_eq!(status.shards.running, 1, "shard 0 is leased: {status:?}");
    let expired: Vec<usize> = (0..3).map(|_| service.fleet_tick().expired).collect();
    assert_eq!(
        expired,
        [0, 0, 1],
        "the lease must expire on tick lease_ticks"
    );
    let status = service.status(&id).expect("job exists");
    assert_eq!(status.retries, 1, "expiry charges one attempt: {status:?}");
    assert_eq!(
        status.shards.queued, 3,
        "shard 0 is back in the queue: {status:?}"
    );

    // Let the parked attempt finish: its completion finds no lease. No
    // more ticks happen, so the reassigned attempt's lease cannot lapse.
    release.send(()).expect("the executor is parked");
    service.shutdown(Shutdown::Drain);
    let ReportOutcome::Ready(report) = service.report(&id) else {
        panic!("the job must finish: {:?}", service.status(&id));
    };
    let monolithic = Experiment::new(spec)
        .with_cache(CharCache::disabled())
        .run()
        .expect("monolithic run");
    assert_eq!(report.to_json_string(), monolithic.to_json_string());
    let fleet = service.stats().fleet;
    assert_eq!(
        (fleet.dispatched, fleet.completed, fleet.expired),
        (4, 3, 1),
        "four leases, one expired, and its late completion rejected"
    );
    assert_eq!(plan.fired_counts().get("fleet.heartbeat"), Some(&3));
}

/// Graceful degradation: with zero live executors a fleet-mode service
/// still finishes jobs (locally), flags `degraded` in stats/health, and
/// recovers the flag once an executor registers.
#[test]
fn dead_fleet_degrades_to_local_execution() {
    let service = fleet_service("degraded", None);
    assert!(service.stats().fleet.degraded, "no executors yet");
    assert!(service.health().degraded);
    let id = service.submit(quick_spec("degraded")).expect("submits").id;
    let deadline = Instant::now() + Duration::from_secs(300);
    let report = loop {
        match service.report(&id) {
            ReportOutcome::Ready(report) => break report,
            ReportOutcome::Pending(_) => {
                assert!(Instant::now() < deadline, "degraded job never finished");
                std::thread::sleep(Duration::from_millis(10));
            }
            other => panic!("degraded job went sideways: {other:?}"),
        }
    };
    let monolithic = Experiment::new(quick_spec("degraded"))
        .run()
        .expect("monolithic");
    assert_eq!(report.to_json_string(), monolithic.to_json_string());
    let reg = service.fleet_register("late-arrival");
    assert!(!service.stats().fleet.degraded, "live executor clears it");
    let _ = reg;
    service.shutdown(Shutdown::Now);
}

/// A lapsed registration, in logical time: `lease_ticks` ticks with no
/// poll evict the executor, its next step's poll gets the
/// unknown-executor reply, and it registers again under the next id.
/// The re-registered executor then runs every shard of a job, which
/// merges to the monolithic report.
#[test]
fn lapsed_executor_reregisters_under_the_next_id_and_finishes_the_job() {
    let service = fleet_service("lapsed", None);
    let cache = CharCache::at_dir(temp_dir("lapsed-exec-cache"));
    let mut exec = executor(&service, "lapsing", cache, None);
    assert_eq!(exec.id(), Some("exec-1"));
    for _ in 0..3 {
        let _ = service.fleet_tick();
    }
    assert_eq!(service.stats().fleet.executors, 0, "exec-1 lapsed");
    assert_eq!(exec.step().expect("re-registers"), Step::Registered);
    assert_eq!(exec.id(), Some("exec-2"));
    assert_eq!(service.stats().fleet.executors, 1);

    let id = service.submit(quick_spec("lapsed")).expect("submits").id;
    let deadline = Instant::now() + Duration::from_secs(300);
    let mut ran = 0;
    let report = loop {
        if let Step::Ran = exec.step().expect("in-process steps") {
            ran += 1;
        }
        let _ = service.fleet_tick();
        match service.report(&id) {
            ReportOutcome::Ready(report) => break report.to_json_string(),
            ReportOutcome::Pending(_) => {
                assert!(Instant::now() < deadline, "the job never finished");
            }
            other => panic!("the job went sideways: {other:?}"),
        }
    };
    let monolithic = Experiment::new(quick_spec("lapsed"))
        .run()
        .expect("monolithic run");
    assert_eq!(report, monolithic.to_json_string());
    assert_eq!(ran, 3, "the re-registered executor ran all three shards");
    assert_eq!(service.stats().fleet.expired, 0);
    service.shutdown(Shutdown::Now);
}

/// The fleet wire protocol end-to-end over real HTTP: register, poll,
/// heartbeat, complete, tick, stats — plus the shared cache tier's
/// GET/PUT/claim endpoints.
#[test]
fn fleet_protocol_round_trips_over_http() {
    let cache_dir = temp_dir("http-cache");
    let service = Arc::new(Service::start(ServiceConfig {
        workers: 1,
        max_shards: 2,
        max_attempts: 2,
        cache: CharCache::at_dir(&cache_dir),
        journal: None,
        faults: None,
        local_shards: true,
        lease_ticks: 5,
    }));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("binds");
    let client = Client::new(server.addr().to_string()).with_policy(RetryPolicy::none());

    // Register.
    let reply = client
        .request(
            "POST",
            "/v1/fleet/register",
            Some("{\"name\": \"http-exec\"}"),
        )
        .expect("register");
    assert_eq!(reply.status, 200);
    let reg = reply.json().expect("json");
    let executor = reg
        .get("executor")
        .and_then(Json::as_str)
        .expect("executor id")
        .to_string();
    assert_eq!(reg.get("lease_ticks").and_then(Json::as_f64), Some(5.0));

    // Idle poll (local_shards=true keeps shards off the fleet here).
    let poll_body = format!("{{\"executor\": \"{executor}\"}}");
    let reply = client
        .request("POST", "/v1/fleet/poll", Some(&poll_body))
        .expect("poll");
    assert_eq!(reply.status, 200);
    assert_eq!(
        reply
            .json()
            .expect("json")
            .get("work")
            .and_then(Json::as_bool),
        Some(false)
    );

    // Heartbeat, known and unknown.
    let reply = client
        .request(
            "POST",
            "/v1/fleet/heartbeat",
            Some(&format!("{{\"executor\": \"{executor}\"}}")),
        )
        .expect("heartbeat");
    assert_eq!(reply.status, 200);
    let reply = client
        .request(
            "POST",
            "/v1/fleet/heartbeat",
            Some("{\"executor\": \"exec-999\"}"),
        )
        .expect("unknown heartbeat");
    assert_eq!(reply.status, 404);

    // A completion under a bogus lease is a 409, not a 500.
    let reply = client
        .request(
            "POST",
            "/v1/fleet/complete",
            Some(&format!(
                "{{\"executor\": \"{executor}\", \"lease\": \"lease-99\", \"error\": \"x\"}}"
            )),
        )
        .expect("bogus complete");
    assert_eq!(reply.status, 409);

    // Tick advances the logical clock.
    let reply = client
        .request("POST", "/v1/fleet/tick", Some(""))
        .expect("tick");
    assert_eq!(
        reply
            .json()
            .expect("json")
            .get("now")
            .and_then(Json::as_f64),
        Some(1.0)
    );

    // Cache tier: bad names rejected, misses grant claims, a second
    // claimant is held off, a publish lands and releases the claim.
    let reply = client
        .request("GET", "/v1/cache/not-hex.char", None)
        .expect("bad name");
    assert_eq!(reply.status, 400);
    let reply = client
        .request("GET", "/v1/cache/00112233aabbccdd.json", None)
        .expect("old-format name");
    assert_eq!(reply.status, 400, "v1 entry names are not served");
    let key = "00112233aabbccdd.char";
    let reply = client
        .request("GET", &format!("/v1/cache/{key}?claim=exec-1"), None)
        .expect("miss+claim");
    assert_eq!(reply.status, 404);
    assert_eq!(
        reply
            .json()
            .expect("json")
            .get("claim")
            .and_then(Json::as_str),
        Some("granted")
    );
    let reply = client
        .request("GET", &format!("/v1/cache/{key}?claim=exec-2"), None)
        .expect("held claim");
    assert_eq!(reply.status, 409);
    let entry_text = "{\"key\": {\"probe\": 1}, \"data\": {}}";
    let reply = client
        .request("PUT", &format!("/v1/cache/{key}"), Some(entry_text))
        .expect("publish");
    assert_eq!(reply.status, 200);
    let reply = client
        .request("GET", &format!("/v1/cache/{key}"), None)
        .expect("hit");
    assert_eq!(reply.status, 200);
    assert_eq!(reply.body, entry_text, "the tier must serve exact bytes");

    // Stats surface the fleet counters.
    let stats = client.stats().expect("stats");
    let fleet = stats.get("fleet").expect("fleet block");
    assert_eq!(fleet.get("executors").and_then(Json::as_f64), Some(1.0));

    drop(server);
}

struct Proc {
    child: Child,
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_coordinator(journal_dir: &Path, cache_dir: &Path) -> (Proc, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_synts-serve"))
        .args(["--addr", "127.0.0.1:0", "--workers", "1"])
        .args(["--local-shards", "off"])
        // Executors heartbeat every 50 ms (`--poll-ms 50`), and a lease
        // must outlive a survivor's heartbeat that runs late on a loaded
        // host: the victim's abort already spends one of the job's two
        // attempts, so an expired survivor lease would fail the job. Ten
        // heartbeat intervals leave that margin.
        .args(["--lease-ticks", "10", "--tick-ms", "50"])
        .args(["--journal-dir".as_ref(), journal_dir.as_os_str()])
        .args(["--cache-dir".as_ref(), cache_dir.as_os_str()])
        .env_remove("SYNTS_FAULTS")
        .env_remove("SYNTS_CACHE_DIR")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("coordinator spawns");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("coordinator exited before listening")
            .expect("stdout line");
        if let Some(rest) = line.split("listening on ").nth(1) {
            break rest
                .split_whitespace()
                .next()
                .expect("address token")
                .to_string();
        }
    };
    std::thread::spawn(move || for _ in lines {});
    (Proc { child }, addr)
}

fn spawn_executor(coordinator: &str, name: &str, cache_dir: &Path, faults: Option<&str>) -> Proc {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_synts-serve"));
    cmd.args(["--executor", "--coordinator", coordinator])
        .args(["--name", name, "--poll-ms", "50"])
        .args(["--cache-dir".as_ref(), cache_dir.as_os_str()])
        .env_remove("SYNTS_FAULTS")
        .env_remove("SYNTS_CACHE_DIR")
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(plan) = faults {
        cmd.args(["--faults", plan]);
    }
    Proc {
        child: cmd.spawn().expect("executor spawns"),
    }
}

/// The acceptance scenario, with real processes: a coordinator in fleet
/// mode, two executors, one aborted mid-shard by an armed `exec.kill`.
/// The dead executor's lease expires, its shard is reassigned to the
/// survivor, and the fetched report is byte-identical to the committed
/// golden fixture.
#[test]
fn killed_executor_process_is_reassigned_and_report_matches_golden() {
    let repo_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let spec_src = std::fs::read_to_string(repo_root.join("crates/bench/specs/fig-6-12.json"))
        .expect("committed spec");
    let mut spec = ScenarioSpec::from_json_str(&spec_src).expect("spec parses");
    spec.quality = Quality::Quick;
    let golden =
        std::fs::read_to_string(repo_root.join("tests/fixtures/fig-6-12-quick.report.golden.json"))
            .expect("golden fixture");

    let journal_dir = temp_dir("proc-journal");
    let (coordinator, addr) = spawn_coordinator(&journal_dir, &temp_dir("proc-coord-cache"));
    // The victim aborts on its first dispatched shard (any token
    // carrying its name); the survivor is unarmed.
    let mut victim = spawn_executor(
        &addr,
        "victim",
        &temp_dir("proc-victim-cache"),
        Some("seed=7;exec.kill=~@victim"),
    );
    let mut survivor = spawn_executor(&addr, "survivor", &temp_dir("proc-survivor-cache"), None);

    let client = Client::new(addr.clone());
    let id = client.submit(&spec.to_json_string()).expect("submits");
    let body = client
        .wait_report(&id, false, Duration::from_secs(600))
        .expect("fleet job completes despite the killed executor");
    assert_eq!(body, golden, "fleet report drifted from the golden fixture");
    // With both executors dead, degraded mode would finish the job in
    // the coordinator: the survivor must still be running.
    assert!(
        matches!(survivor.child.try_wait(), Ok(None)),
        "the survivor must outlive the job"
    );

    // The victim must actually have died (abort, not a clean exit) —
    // otherwise this test proved nothing about reassignment.
    let status = victim.child.wait().expect("victim observed");
    assert!(
        !status.success(),
        "the injected kill must take the victim down: {status:?}"
    );

    // The coordinator saw the fleet do the work: shards dispatched, at
    // least one lease expired (the victim's), and the fleet completed
    // shards after the kill.
    let stats = client.stats().expect("stats");
    let fleet = stats.get("fleet").expect("fleet block");
    let expired = fleet.get("expired").and_then(Json::as_f64).unwrap_or(0.0);
    let completed = fleet.get("completed").and_then(Json::as_f64).unwrap_or(0.0);
    assert!(
        expired >= 1.0,
        "the victim's lease must have expired: {stats:?}"
    );
    assert!(
        completed >= 1.0,
        "the fleet must have completed shards: {stats:?}"
    );

    let _ = client.shutdown(true);
    drop(coordinator);
}

/// `/v1/healthz` is a readiness probe, not a liveness stub: it reports
/// queue depth and fleet state, and flips to 503 the moment the journal
/// stops accepting writes.
#[test]
fn healthz_reports_readiness_and_503s_on_unwritable_journal() {
    let journal_dir = temp_dir("healthz-journal");
    let service = Arc::new(Service::start(ServiceConfig {
        workers: 1,
        max_shards: 2,
        max_attempts: 2,
        cache: CharCache::at_dir(temp_dir("healthz-cache")),
        journal: Some(synts_serve::Journal::open(&journal_dir).expect("journal opens")),
        faults: None,
        local_shards: true,
        lease_ticks: 5,
    }));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("binds");
    let client = Client::new(server.addr().to_string()).with_policy(RetryPolicy::none());

    let reply = client.request("GET", "/v1/healthz", None).expect("healthz");
    assert_eq!(reply.status, 200);
    let health = reply.json().expect("json");
    assert_eq!(health.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        health.get("journal").and_then(Json::as_str),
        Some("writable")
    );
    assert_eq!(health.get("queue_depth").and_then(Json::as_f64), Some(0.0));
    assert!(client.healthy(), "Client::healthy reads the same probe");

    // Break the journal out from under the service: its directory is
    // gone, so the writability probe fails and readiness flips.
    std::fs::remove_dir_all(&journal_dir).expect("break journal");
    let reply = client.request("GET", "/v1/healthz", None).expect("healthz");
    assert_eq!(reply.status, 503, "unwritable journal must fail readiness");
    let health = reply.json().expect("json");
    assert_eq!(health.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        health.get("journal").and_then(Json::as_str),
        Some("unwritable")
    );
    assert!(!client.healthy(), "Client::healthy must see the 503");

    drop(server);
}
