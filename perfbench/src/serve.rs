//! `serve-jobs`: quick-quality jobs through an in-process `Service`
//! behind `http::Server` on loopback, with its defaults (2 workers,
//! 4 shards, 2 attempts) and the journal on.
//!
//! `nproc` client threads run a closed loop: `Client::submit`, poll
//! `Service::status` every millisecond until the job settles, then
//! `Client::fetch_report`. An op's latency runs from submit until the
//! report bytes are received. The states the poller observes become the
//! `serve.queued` / `serve.planning` / `serve.running` spans.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use synts_core::experiments::BenchmarkData;
use synts_core::{
    characterize_cached, CacheStats, CharCache, Experiment, PhaseStats, SolverRegistry, ThreadPool,
};
use synts_serve::{Client, JobState, Journal, Server, Service, ServiceConfig, Shutdown};
use timing::ErrorCurve;

use crate::figs::{add_solver_time, fastest, ratio, retime_solvers};
use crate::inputs::{self, OpInput, FIG_6_12_QUICK_GOLDEN};
use crate::record::{edp_geomean, poly_edp_at_center, Ctx, Layers, Mode, RunResult};
use crate::spans::Tracer;
use crate::sys;

/// A timed run goes on until at least this many jobs finished, so the
/// 90th percentile leaves at least ten samples above it.
const MIN_TIMED_JOBS: usize = 110;

/// How often a client polls `Service::status`.
const POLL: Duration = Duration::from_millis(1);

/// A job that does not settle within this long counts as failed.
const JOB_DEADLINE: Duration = Duration::from_secs(60);

/// One set-up's state: the running service, and per job of the cycle
/// its spec, the report `Experiment::run_on` produced in set-up, and
/// the characterized data the traced run re-times against.
struct Serve {
    cycle: Vec<OpInput>,
    spec_json: Vec<String>,
    expected: Vec<String>,
    edps: Vec<Option<f64>>,
    data: Vec<BenchmarkData>,
    cache: CharCache,
    service: Arc<Service>,
    server: Server,
    client: Client,
    dir: PathBuf,
}

/// What one job observed.
struct Job {
    n: usize,
    ok: bool,
    latency_s: f64,
    digest: String,
    report_bytes: usize,
    polls: u64,
}

impl Serve {
    fn setup(ctx: &Ctx, rep: usize) -> Result<Serve, String> {
        let dir = ctx.root.join(format!("setup-{rep}"));
        let cache = CharCache::at_dir(dir.join("cache"));
        let cycle = inputs::cycle(ctx.workload, ctx.seed);
        let pool = ThreadPool::new(sys::nproc());
        let mut expected = Vec::new();
        let mut edps = Vec::new();
        let mut data = Vec::new();
        for OpInput { spec, harness } in &cycle {
            let fail = |e: synts_core::OptError| format!("set-up of {}: {e}", spec.name);
            let d = characterize_cached(spec.benchmark, spec.stage, harness, &cache, pool)
                .map_err(fail)?;
            let report = Experiment::new(spec.clone()).run_on(&d).map_err(fail)?;
            edps.push(poly_edp_at_center(&report));
            expected.push(report.to_json_string());
            data.push(d);
        }
        let journal = Journal::open(dir.join("journal")).map_err(|e| format!("journal: {e}"))?;
        let service = Arc::new(Service::start(ServiceConfig {
            cache: cache.clone(),
            journal: Some(journal),
            ..ServiceConfig::default()
        }));
        let server =
            Server::bind("127.0.0.1:0", Arc::clone(&service)).map_err(|e| format!("bind: {e}"))?;
        let client = Client::new(server.addr().to_string());
        let serve = Serve {
            spec_json: cycle.iter().map(|op| op.spec.to_json_string()).collect(),
            cycle,
            expected,
            edps,
            data,
            cache,
            service,
            server,
            client,
            dir,
        };
        let warm_up = serve.job(ctx, usize::MAX, inputs::warm_up_index(&serve.cycle), None);
        if !warm_up.ok {
            serve.stop();
            return Err("warm-up job failed".to_string());
        }
        Ok(serve)
    }

    fn stop(mut self) {
        self.server.shutdown(Shutdown::Now);
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    /// Runs job `n` (cycle entry `k`) and checks its report: byte-equal
    /// to the set-up's `Experiment::run_on`, and for `fig-6-12` to the
    /// committed golden fixture.
    fn job(&self, ctx: &Ctx, n: usize, k: usize, tr: Option<&mut Tracer>) -> Job {
        let mut job = Job {
            n,
            ok: false,
            latency_s: 0.0,
            digest: "error".to_string(),
            report_bytes: 0,
            polls: 0,
        };
        let t0 = Instant::now();
        let id = match self.client.submit(&self.spec_json[k]) {
            Ok(id) => id,
            Err(e) => {
                eprintln!("synts-perfbench: job {n}: submit: {e}");
                return job;
            }
        };
        let submitted = Instant::now();
        // First time each of planning, running and done was observed.
        let mut seen: [Option<Instant>; 3] = [None; 3];
        loop {
            let state = self.service.status(&id).map(|s| s.state);
            job.polls += 1;
            let now = Instant::now();
            let reached = match state {
                Some(JobState::Queued) => 0,
                Some(JobState::Planning) => 1,
                Some(JobState::Running) => 2,
                Some(JobState::Done) => 3,
                other => {
                    eprintln!("synts-perfbench: job {n} ({id}) ended as {other:?}");
                    return job;
                }
            };
            for slot in seen.iter_mut().take(reached) {
                slot.get_or_insert(now);
            }
            if reached == 3 {
                break;
            }
            if now - t0 > JOB_DEADLINE {
                eprintln!("synts-perfbench: job {n} ({id}) did not settle");
                return job;
            }
            std::thread::sleep(POLL);
        }
        let fetch_start = Instant::now();
        let reply = self.client.fetch_report(&id, false);
        let end = Instant::now();
        job.latency_s = (end - t0).as_secs_f64();
        let Ok(reply) = reply else {
            eprintln!("synts-perfbench: job {n} ({id}): fetch failed");
            return job;
        };
        let observed = ctx.observed(n, &reply.body);
        job.ok = reply.status == 200
            && observed == self.expected[k].as_bytes()
            && (self.cycle[k].spec.name != "fig-6-12"
                || observed == FIG_6_12_QUICK_GOLDEN.as_bytes());
        if !job.ok {
            eprintln!("synts-perfbench: job {n} ({id}): report differs from the expected bytes");
        }
        job.digest = sys::digest(reply.body.as_bytes());
        job.report_bytes = reply.body.len();
        if let Some(tr) = tr {
            let [planning, running, done] = seen.map(|s| s.unwrap_or(fetch_start));
            let root = tr.record(format!("op:{}", self.cycle[k].spec.name), n, None, t0, end);
            let p = Some(root);
            tr.record("Client::submit", n, p, t0, submitted);
            tr.record("serve.queued", n, p, submitted, planning);
            tr.record("serve.planning", n, p, planning, running);
            tr.record("serve.running", n, p, running, done);
            tr.record("Client::fetch_report", n, p, fetch_start, end);
        }
        job
    }
}

/// The closed loop's shared cursor: the next job to claim, whether the
/// run has stopped claiming, and per cycle boundary (a cycle's first
/// job claimed, or the run stopping) when it was passed and the peak
/// resident set since the boundary before.
struct Cursor {
    next: usize,
    stopped: bool,
    boundaries: Vec<Instant>,
    peaks: Vec<f64>,
}

/// Runs serve-jobs per `ctx`.
pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let mut serve: Option<Serve> = None;
    for rep in 0..ctx.setup_reps() {
        let start = if rep == 0 {
            ctx.started
        } else {
            Instant::now()
        };
        if let Some(previous) = serve.take() {
            previous.stop();
        }
        serve = Some(Serve::setup(ctx, rep)?);
        result.setup_s.push(start.elapsed().as_secs_f64());
    }
    let serve = serve.ok_or("no set-up ran")?;
    let per_cycle = serve.cycle.len();

    let journal_dir = serve.dir.join("journal");
    let journal_before = sys::dir_bytes(&journal_dir);
    let retries_before = serve.service.stats().shard_retries;
    let cache_before = CacheStats::snapshot();
    let phase_before = PhaseStats::snapshot();
    sys::take_peak_rss_mb(); // the set-ups' peak is not the jobs'
    let origin = Instant::now();
    let cursor = Mutex::new(Cursor {
        next: 0,
        stopped: false,
        boundaries: Vec::new(),
        peaks: Vec::new(),
    });
    let claim = || {
        let mut c = cursor.lock().expect("cursor lock is never poisoned");
        if c.stopped {
            return None;
        }
        let at_boundary = c.next.is_multiple_of(per_cycle);
        if at_boundary {
            c.boundaries.push(Instant::now());
            if c.next > 0 {
                c.peaks.push(sys::take_peak_rss_mb());
            }
        }
        let done = match ctx.mode {
            Mode::Fixed => c.next == per_cycle,
            Mode::Timed => {
                at_boundary
                    && c.next >= MIN_TIMED_JOBS
                    && origin.elapsed().as_secs_f64() >= ctx.seconds
            }
        };
        if done {
            c.stopped = true;
            return None;
        }
        c.next += 1;
        Some(c.next - 1)
    };
    let clients: Vec<(Vec<Job>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sys::nproc())
            .map(|_| {
                scope.spawn(|| {
                    let mut tracer = Tracer::new(origin);
                    let mut jobs = Vec::new();
                    while let Some(n) = claim() {
                        let tr = ctx.traced.then_some(&mut tracer);
                        jobs.push(serve.job(ctx, n, n % per_cycle, tr));
                    }
                    (jobs, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let cursor = cursor.into_inner().expect("cursor lock is never poisoned");
    result.cycle_s = cursor
        .boundaries
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64())
        .collect();
    result.peak_rss_mb = cursor.peaks;

    let mut tracer = Tracer::new(origin);
    let mut jobs = Vec::new();
    for (client_jobs, client_tracer) in clients {
        jobs.extend(client_jobs);
        tracer.absorb(client_tracer);
    }
    jobs.sort_by_key(|j| j.n);
    for job in &jobs {
        result.count(job.ok);
        result.latencies_s.push(job.latency_s);
        result.keys.push(job.n % per_cycle);
        result.digests.push(job.digest.clone());
    }
    result.edp_ratio = edp_geomean(&serve.edps);

    if ctx.traced {
        let cache = CacheStats::snapshot().since(cache_before);
        let phase = PhaseStats::snapshot().since(phase_before);
        let ops = jobs.len().max(1) as f64;
        let totals = tracer.totals();
        let per_op = |name: &str| totals.get(name).copied().unwrap_or(0.0) / ops;
        let lookups_per_op = cache.lookups() as f64 / ops;
        let mut layers = Layers {
            gate_sim_s: phase.gate_sim_ns as f64 * 1e-9 / ops,
            cache_hit_ratio: ratio(cache.hits as f64, cache.lookups() as f64),
            cache_lookups_per_op: lookups_per_op,
            report_bytes: jobs.iter().map(|j| j.report_bytes as f64).sum::<f64>() / ops,
            submit_s: per_op("Client::submit"),
            queue_wait_s: per_op("serve.queued"),
            plan_s: per_op("serve.planning"),
            run_s: per_op("serve.running"),
            fetch_s: per_op("Client::fetch_report"),
            journal_bytes_per_job: sys::dir_bytes(&journal_dir).saturating_sub(journal_before)
                as f64
                / ops,
            shard_retries: serve
                .service
                .stats()
                .shard_retries
                .saturating_sub(retries_before) as f64,
            polls_per_job: jobs.iter().map(|j| j.polls as f64).sum::<f64>() / ops,
            unattributed_frac: tracer.unattributed_frac(),
            ..Layers::default()
        };
        // Layers inside the service are re-timed here, after the loop,
        // on each job's own inputs, and weighted by the lookups a job
        // makes (the plan and every shard characterize through the
        // cache).
        let retimed_lookup_s = retime_inside_service(&serve, &mut layers, lookups_per_op)?;
        result.cross_checks = vec![
            ("cache.hits".to_string(), cache.hits as f64),
            ("cache.misses".to_string(), cache.misses as f64),
            (
                "phase.cache_lookup_over_retimed".to_string(),
                ratio(phase.cache_lookup_ns as f64 * 1e-9, retimed_lookup_s * ops),
            ),
        ];
        result.layers = Some(layers);
        result.trace = Some(tracer);
    }
    serve.stop();
    Ok(result)
}

/// Re-times, once per job of the cycle, the calls the service makes
/// for that job: trace build, stage build, cache key and load (per
/// lookup), each solver, and `Experiment::run_on`. Fills the matching
/// layers with per-job means and returns the re-timed key + load
/// seconds per job.
fn retime_inside_service(
    serve: &Serve,
    layers: &mut Layers,
    lookups_per_op: f64,
) -> Result<f64, String> {
    let registry: SolverRegistry<ErrorCurve> = SolverRegistry::with_defaults();
    let pool = ThreadPool::new(sys::nproc());
    let jobs = serve.cycle.len() as f64;
    let mut lookup_s = 0.0;
    // Counts are summed as integers and divided once, so they repeat
    // exactly.
    let (mut events, mut entry_bytes, mut theta_points) = (0, 0, 0);
    for (k, OpInput { spec, harness }) in serve.cycle.iter().enumerate() {
        let fail = |e: String| format!("re-timing {}: {e}", spec.name);
        let timed = |start: Instant| start.elapsed().as_secs_f64();
        let start = Instant::now();
        let trace = spec.benchmark.run(&harness.workload);
        let trace_s = timed(start);
        let start = Instant::now();
        let circuit = circuits::build_stage(spec.stage, harness.workload.width)
            .map_err(|e| fail(e.to_string()))?;
        let stage_s = timed(start);
        let start = Instant::now();
        let entry = serve
            .cache
            .entry(&trace, spec.stage, harness, circuit.netlist());
        let key_s = timed(start);
        let start = Instant::now();
        let hit = entry.load().is_some();
        let load_s = timed(start);
        if !hit {
            return Err(fail("the warm cache missed".to_string()));
        }
        let experiment = Experiment::new(spec.clone());
        let (run_on, run_on_s) = fastest(|| experiment.run_on(&serve.data[k]));
        let report = run_on.map_err(|e| fail(e.to_string()))?;
        let solvers = retime_solvers(spec, &serve.data[k], &report, &registry, pool)
            .map_err(|e| fail(e.to_string()))?;

        events += trace
            .intervals
            .iter()
            .flat_map(|iv| iv.iter())
            .map(|work| work.events.len() as u64)
            .sum::<u64>();
        entry_bytes += entry
            .token()
            .and_then(|name| std::fs::metadata(serve.cache.dir().join(name)).ok())
            .map_or(0, |m| m.len());
        layers.trace_build_s += trace_s * lookups_per_op / jobs;
        layers.stage_build_s += stage_s * lookups_per_op / jobs;
        layers.cache_key_s += key_s * lookups_per_op / jobs;
        layers.cache_load_s += load_s * lookups_per_op / jobs;
        let mut solver_s = 0.0;
        for (scheme, secs, requests) in solvers {
            add_solver_time(layers, &scheme, secs / jobs);
            theta_points += requests;
            solver_s += secs;
        }
        layers.run_on_self_s += (run_on_s - solver_s) / jobs;
        lookup_s += (key_s + load_s) * lookups_per_op / jobs;
    }
    layers.events_per_op = events as f64 * lookups_per_op / jobs;
    layers.cache_entry_bytes = entry_bytes as f64 / jobs;
    layers.theta_points_per_op = theta_points as f64 / jobs;
    Ok(lookup_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{Workload, DEFAULT_SEED};

    /// The self-test: one job's report bytes get one byte flipped before
    /// the checks. That job, and only it, counts as failed, and the run
    /// still completes every other job.
    #[test]
    fn a_planted_wrong_byte_fails_its_job_and_the_run_goes_on() {
        let root =
            std::env::temp_dir().join(format!("synts-perfbench-plant-{}", std::process::id()));
        let ctx = Ctx {
            workload: Workload::ServeJobs,
            seed: DEFAULT_SEED,
            seconds: 0.0,
            mode: Mode::Fixed,
            traced: false,
            root: root.clone(),
            plant: Some(3),
            started: Instant::now(),
        };
        let result = run(&ctx);
        let _ = std::fs::remove_dir_all(&root);
        let result = result.expect("the run completes");
        assert_eq!(result.attempted, 30);
        assert_eq!(result.failed, 1);
    }
}
