//! `synts-cli` — run declarative scenario specs from disk.
//!
//! ```text
//! synts-cli run <spec.json> [--quick|--paper] [--workers N]
//!                           [--json <out.json>] [--csv <out.csv>]
//!                           [--no-cache] [--cache-dir <dir>] [--quiet]
//! synts-cli bench [<spec.json>] [--quick|--paper] [--workers N]
//!                 [--out <bench.json>]
//! synts-cli check <spec.json> [--max-shards N] [--quick|--paper] [--workers N]
//! synts-cli submit <spec.json> [--addr HOST:PORT] [--key TOKEN] [--quick|--paper] [--workers N]
//! synts-cli status <job-id> [--addr HOST:PORT]
//! synts-cli fetch <job-id> [--addr HOST:PORT] [--csv] [--wait SECS] [--out FILE]
//! synts-cli schemes
//! synts-cli template
//! ```
//!
//! `run` loads a [`ScenarioSpec`] JSON file (e.g. the committed paper
//! figures under `crates/bench/specs/`), executes it through the single
//! [`Experiment`] entry point, prints the structured report as a text
//! table and optionally writes JSON/CSV sinks. Characterization goes
//! through the persistent on-disk cache (`SYNTS_CACHE_DIR`, default
//! `target/synts-cache/`) unless `--no-cache` is given; the exit status
//! is non-zero if any report check fails, so a spec file doubles as a CI
//! assertion. `bench` measures the characterization fast path —
//! cold-cache build, warm-cache build, solve/sweep wall-clock, a
//! worker-count corpus series (every row on its own throwaway cache
//! directory, asserted cold), a scalar-vs-64-lane gate-sim comparison,
//! the per-phase time breakdown behind the scaling numbers, plus a
//! scenario-service leg (submit→report wall time through an in-process
//! `synts-serve`, warm cache) — and writes a machine-readable JSON
//! record (`BENCH_PR7.json` by default). On machines with at least 4
//! cores the corpus series doubles as a regression gate: a 4-worker
//! cold build must beat the 1-worker build by ≥1.5×. `submit`, `status` and `fetch` are the thin HTTP client
//! for a running `synts-serve` (`--addr`, default `127.0.0.1:7070`):
//! submit a spec file, poll a job, and fetch the merged report as JSON
//! or CSV — byte-identical to what `run` prints for the same spec.
//! `schemes` lists every registry key a spec may name, and `template`
//! prints a starter spec.
#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use synts_bench::corpus::{Corpus, Effort};
use synts_bench::render::{report_text_with_cache, save_csv, write_csv};
use synts_core::scenario::Json;
use synts_core::{
    characterize_cached, default_theta_sweep, reference, worker_count, CharCache, Experiment,
    FaultPlan, IntervalSelection, PhaseStats, Quality, ScenarioSpec, SolveRequest, Solver,
    SolverRegistry, ThetaSpec, ThreadPool,
};
use synts_serve::{Client, ReportOutcome, Server, Service, ServiceConfig, Shutdown};

fn usage() -> ExitCode {
    eprintln!(
        "usage: synts-cli run <spec.json> [--quick|--paper] [--workers N] \
         [--json <out.json>] [--csv <out.csv>] [--no-cache] [--cache-dir <dir>] [--quiet]\n\
         \x20      synts-cli bench [<spec.json>] [--quick|--paper] [--workers N] [--out <bench.json>]\n\
         \x20      synts-cli check <spec.json> [--max-shards N] [--quick|--paper] [--workers N]\n\
         \x20      synts-cli submit <spec.json> [--addr HOST:PORT] [--key TOKEN] [--quick|--paper] [--workers N]\n\
         \x20      synts-cli status <job-id> [--addr HOST:PORT]\n\
         \x20      synts-cli fetch <job-id> [--addr HOST:PORT] [--csv] [--wait SECS] [--out FILE]\n\
         \x20      synts-cli schemes\n\
         \x20      synts-cli template"
    );
    ExitCode::from(2)
}

fn schemes() -> ExitCode {
    let registry: SolverRegistry = SolverRegistry::with_defaults();
    println!("{:<18} {:<22} capabilities", "key", "label");
    println!("{}", "-".repeat(64));
    for (name, solver) in registry.iter() {
        let caps = solver.capabilities();
        let mut tags = Vec::new();
        if caps.exact {
            tags.push("exact");
        }
        if caps.polynomial {
            tags.push("polynomial");
        }
        if caps.uses_theta {
            tags.push("uses-theta");
        }
        if caps.speculates {
            tags.push("speculates");
        }
        println!("{:<18} {:<22} {}", name, solver.label(), tags.join(", "));
    }
    ExitCode::SUCCESS
}

fn template() -> ExitCode {
    let spec = ScenarioSpec::new(
        "my-scenario",
        workloads::Benchmark::Radix,
        circuits::StageKind::Decode,
    )
    .schemes(["synts_poly", "per_core_ts", "no_ts"])
    .thetas(ThetaSpec::LogAroundEqualWeight {
        points: 9,
        decades: 2.0,
    })
    .intervals(IntervalSelection::All)
    .normalize_to("nominal")
    .verify_model(true);
    print!("{}", spec.to_json_string());
    ExitCode::SUCCESS
}

struct RunArgs {
    spec_path: String,
    quality: Option<Quality>,
    workers: Option<usize>,
    json_out: Option<String>,
    csv_out: Option<String>,
    no_cache: bool,
    cache_dir: Option<String>,
    quiet: bool,
    bench_out: Option<String>,
}

#[derive(Clone, Copy, PartialEq)]
enum CliMode {
    Run,
    Bench,
}

fn parse_run_args(args: &[String], mode: CliMode, default_spec: Option<&str>) -> Option<RunArgs> {
    let mut out = RunArgs {
        spec_path: String::new(),
        quality: None,
        workers: None,
        json_out: None,
        csv_out: None,
        no_cache: false,
        cache_dir: None,
        quiet: false,
        bench_out: None,
    };
    let run = mode == CliMode::Run;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => out.quality = Some(Quality::Quick),
            "--paper" => out.quality = Some(Quality::Paper),
            "--workers" => out.workers = Some(it.next()?.parse().ok()?),
            "--quiet" if run => out.quiet = true,
            "--no-cache" if run => out.no_cache = true,
            "--cache-dir" if run => out.cache_dir = Some(it.next()?.clone()),
            "--json" if run => out.json_out = Some(it.next()?.clone()),
            "--csv" if run => out.csv_out = Some(it.next()?.clone()),
            "--out" if !run => out.bench_out = Some(it.next()?.clone()),
            _ if arg.starts_with('-') || !out.spec_path.is_empty() => return None,
            _ => out.spec_path = arg.clone(),
        }
    }
    if out.spec_path.is_empty() {
        out.spec_path = default_spec?.to_string();
    }
    Some(out)
}

/// The configured characterization cache: `--no-cache` wins, then
/// `--cache-dir`, then the `SYNTS_CACHE_DIR`/default resolution.
fn cache_from(args: &RunArgs) -> CharCache {
    if args.no_cache {
        CharCache::disabled()
    } else if let Some(dir) = &args.cache_dir {
        CharCache::at_dir(dir)
    } else {
        CharCache::from_env()
    }
}

fn load_spec(args: &RunArgs) -> Result<ScenarioSpec, ExitCode> {
    let src = std::fs::read_to_string(&args.spec_path).map_err(|e| {
        eprintln!("cannot read spec '{}': {e}", args.spec_path);
        ExitCode::FAILURE
    })?;
    let mut spec = ScenarioSpec::from_json_str(&src).map_err(|e| {
        eprintln!("{}: {e}", args.spec_path);
        ExitCode::FAILURE
    })?;
    if let Some(quality) = args.quality {
        spec.quality = quality;
    }
    if let Some(workers) = args.workers {
        spec.workers = Some(workers);
    }
    Ok(spec)
}

/// Arguments of `synts-cli check`.
struct CheckArgs {
    spec_path: String,
    quality: Option<Quality>,
    workers: Option<usize>,
    /// Shard cap for the plan preview (the service's `max_shards`).
    max_shards: usize,
}

fn parse_check_args(args: &[String]) -> Option<CheckArgs> {
    let mut out = CheckArgs {
        spec_path: String::new(),
        quality: None,
        workers: None,
        max_shards: 4,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => out.quality = Some(Quality::Quick),
            "--paper" => out.quality = Some(Quality::Paper),
            "--workers" => out.workers = Some(it.next()?.parse().ok()?),
            "--max-shards" => out.max_shards = it.next()?.parse().ok()?,
            _ if arg.starts_with('-') || !out.spec_path.is_empty() => return None,
            _ => out.spec_path = arg.clone(),
        }
    }
    if out.spec_path.is_empty() {
        return None;
    }
    Some(out)
}

/// `synts-cli check`: static validation of a scenario spec — no
/// characterization, no solving. Catches what would otherwise fail
/// minutes into a run (or on a service worker): unknown scheme keys
/// (with "did you mean" from the registry), a degenerate θ grid, an
/// invalid worker count — and previews how the service would shard the
/// θ grid ([`ShardPlan`]'s partition, computed from the grid size alone).
fn check(args: &CheckArgs) -> ExitCode {
    let run_args = RunArgs {
        spec_path: args.spec_path.clone(),
        quality: args.quality,
        workers: args.workers,
        json_out: None,
        csv_out: None,
        no_cache: false,
        cache_dir: None,
        quiet: true,
        bench_out: None,
    };
    let spec = match load_spec(&run_args) {
        Ok(spec) => spec,
        Err(code) => return code,
    };
    println!("[check] spec '{}' ({})", spec.name, args.spec_path);
    println!(
        "[check] benchmark: {}  stage: {}  quality: {}",
        spec.benchmark.name(),
        spec.stage.name(),
        spec.quality.name()
    );
    let mut errors = 0usize;
    let fail = |msg: String| {
        eprintln!("error: {msg}");
    };

    // Scheme keys against the registry, with typo suggestions.
    let registry: SolverRegistry = SolverRegistry::with_defaults();
    if spec.schemes.is_empty() {
        errors += 1;
        fail("schemes: must name at least one registry key".to_string());
    }
    for (i, key) in spec.schemes.iter().enumerate() {
        if let Err(e) = registry.get(key) {
            errors += 1;
            fail(format!("schemes[{i}]: {e}"));
        }
    }
    if let Some(key) = &spec.normalize_to {
        if let Err(e) = registry.get(key) {
            errors += 1;
            fail(format!("normalize_to: {e}"));
        }
    }
    if errors == 0 {
        println!(
            "[check] schemes: {} — all registered",
            spec.schemes.join(", ")
        );
    }

    // θ-grid sanity. The grid size is statically known for every
    // ThetaSpec variant, so the shard preview below needs no
    // characterization.
    let grid_points = match &spec.thetas {
        ThetaSpec::EqualWeight => {
            println!("[check] θ grid: the single equal-weight θ");
            1
        }
        ThetaSpec::Grid(values) => {
            if values.is_empty() {
                errors += 1;
                fail("thetas: explicit grid is empty".to_string());
            }
            for (i, v) in values.iter().enumerate() {
                if !v.is_finite() || *v <= 0.0 {
                    errors += 1;
                    fail(format!("thetas[{i}]: θ must be finite and > 0, got {v}"));
                }
            }
            if values.windows(2).any(|w| w[1] <= w[0]) {
                eprintln!(
                    "warning: thetas: grid is not strictly increasing; \
                     reports sweep it in the given order"
                );
            }
            println!("[check] θ grid: {} explicit point(s)", values.len());
            values.len()
        }
        ThetaSpec::LogAroundEqualWeight { points, decades } => {
            if *points == 0 {
                errors += 1;
                fail("thetas: log sweep needs at least 1 point".to_string());
            }
            if !decades.is_finite() || *decades <= 0.0 {
                errors += 1;
                fail(format!(
                    "thetas: log sweep half-width must be finite and > 0, got {decades}"
                ));
            }
            println!(
                "[check] θ grid: {points} log-spaced point(s), ±{decades} decades \
                 around the equal-weight θ"
            );
            *points
        }
    };

    if spec.workers == Some(0) {
        errors += 1;
        fail("workers: must be >= 1 (or omitted to use SYNTS_THREADS / the machine)".to_string());
    }

    // Shard-plan preview: the same θ-index chunking ShardPlan::plan
    // produces, sans benchmark characterization.
    if grid_points > 0 {
        let chunks = ThreadPool::new(args.max_shards.max(1)).chunk_ranges(grid_points);
        println!(
            "[check] shard plan (max {} shard(s)): {} shard(s) over {} θ point(s)",
            args.max_shards.max(1),
            chunks.len(),
            grid_points
        );
        for (i, range) in chunks.iter().enumerate() {
            let verify = if i == 0 && spec.verify_model {
                "  (+ model verification)"
            } else {
                ""
            };
            println!(
                "[check]   {}@shard{i}: θ[{}..{}){verify}",
                spec.name, range.start, range.end
            );
        }
    }

    if errors == 0 {
        println!("[check] OK — spec is statically valid");
        ExitCode::SUCCESS
    } else {
        eprintln!("[check] {errors} error(s) in {}", args.spec_path);
        ExitCode::FAILURE
    }
}

/// Arguments of the `submit`/`status`/`fetch` service subcommands.
struct ServiceArgs {
    /// Spec path (submit) or job id (status/fetch).
    target: String,
    addr: String,
    quality: Option<Quality>,
    workers: Option<usize>,
    csv: bool,
    wait_s: Option<u64>,
    out: Option<String>,
    /// Idempotency key: `submit --key` retries safely (a replayed POST
    /// with the same key returns the same job).
    key: Option<String>,
}

fn parse_service_args(args: &[String]) -> Option<ServiceArgs> {
    let mut out = ServiceArgs {
        target: String::new(),
        addr: "127.0.0.1:7070".to_string(),
        quality: None,
        workers: None,
        csv: false,
        wait_s: None,
        out: None,
        key: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => out.addr = it.next()?.clone(),
            "--quick" => out.quality = Some(Quality::Quick),
            "--paper" => out.quality = Some(Quality::Paper),
            "--workers" => out.workers = Some(it.next()?.parse().ok()?),
            "--csv" => out.csv = true,
            "--wait" => out.wait_s = Some(it.next()?.parse().ok()?),
            "--out" => out.out = Some(it.next()?.clone()),
            "--key" => out.key = Some(it.next()?.clone()),
            _ if arg.starts_with('-') || !out.target.is_empty() => return None,
            _ => out.target = arg.clone(),
        }
    }
    if out.target.is_empty() {
        return None;
    }
    Some(out)
}

/// `synts-cli submit`: POST a spec file to a running `synts-serve` and
/// print the job id (the only stdout line, so scripts can capture it).
fn submit(args: &ServiceArgs) -> ExitCode {
    let run_args = RunArgs {
        spec_path: args.target.clone(),
        quality: args.quality,
        workers: args.workers,
        json_out: None,
        csv_out: None,
        no_cache: false,
        cache_dir: None,
        quiet: true,
        bench_out: None,
    };
    let spec = match load_spec(&run_args) {
        Ok(spec) => spec,
        Err(code) => return code,
    };
    let client = Client::new(&args.addr);
    let outcome = match &args.key {
        Some(key) => client.submit_idempotent(&spec.to_json_string(), key),
        None => client.submit(&spec.to_json_string()),
    };
    match outcome {
        Ok(id) => {
            eprintln!("[submit] '{}' accepted by {}", spec.name, args.addr);
            println!("{id}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("submit failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `synts-cli status`: print a job's status JSON.
fn job_status(args: &ServiceArgs) -> ExitCode {
    match Client::new(&args.addr).status(&args.target) {
        Ok(json) => {
            println!("{}", json.render_pretty().trim_end());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("status failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `synts-cli fetch`: fetch (optionally poll for) a job's merged report
/// and print it — or write it to `--out` — as JSON or `--csv`.
fn fetch(args: &ServiceArgs) -> ExitCode {
    let client = Client::new(&args.addr);
    let fetched = match args.wait_s {
        Some(secs) => client.wait_report(&args.target, args.csv, Duration::from_secs(secs)),
        None => client.fetch_report(&args.target, args.csv).and_then(|r| {
            if r.status == 200 {
                Ok(r.body)
            } else {
                Err(synts_core::OptError::Spec(format!(
                    "job {} has no report yet (HTTP {}); poll with --wait SECS",
                    args.target, r.status
                )))
            }
        }),
    };
    let body = match fetched {
        Ok(body) => body,
        Err(e) => {
            eprintln!("fetch failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &body) {
                eprintln!("[fetch] write failed: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("[fetch] {path}");
        }
        None => print!("{body}"),
    }
    ExitCode::SUCCESS
}

fn run(args: RunArgs) -> ExitCode {
    let spec = match load_spec(&args) {
        Ok(spec) => spec,
        Err(code) => return code,
    };
    let cache = cache_from(&args);
    eprintln!(
        "[synts-cli] running '{}': {} on {} ({} quality, cache {})...",
        spec.name,
        spec.benchmark,
        spec.stage,
        spec.quality.name(),
        if cache.is_enabled() { "on" } else { "off" },
    );
    let report = match Experiment::new(spec).with_cache(cache.clone()).run() {
        Ok(report) => report,
        Err(e) => {
            eprintln!("scenario failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cache_stats = cache.stats();
    if cache_stats.lookups() > 0 {
        eprintln!(
            "[synts-cli] characterization cache: {} hit(s), {} miss(es), {} write error(s)",
            cache_stats.hits, cache_stats.misses, cache_stats.write_errors
        );
    }
    if !args.quiet {
        print!("{}", report_text_with_cache(&report, Some(cache_stats)));
    }
    if let Some(path) = &args.json_out {
        let path = std::path::Path::new(path);
        if let Err(e) = path
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, report.to_json_string()))
        {
            eprintln!("[json] write failed: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[json] {}", path.display());
    }
    if let Some(path) = &args.csv_out {
        let (header, rows) = report.to_csv();
        if let Err(e) = write_csv(std::path::Path::new(path), &header, &rows) {
            eprintln!("[csv] write failed: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[csv] {path}");
    } else if args.json_out.is_none() && !args.quiet {
        // Default sink: a CSV under results/, like the repro binary.
        let (header, rows) = report.to_csv();
        match save_csv(&report.spec.name, &header, &rows) {
            Ok(path) => eprintln!("[csv] {}", path.display()),
            Err(e) => eprintln!("[csv] write failed: {e}"),
        }
    }
    if report.all_checks_pass() {
        ExitCode::SUCCESS
    } else {
        eprintln!("report check(s) FAILED");
        ExitCode::FAILURE
    }
}

/// Times `runs` repetitions of `f` and returns seconds per repetition
/// (minimum over repetitions, to shed scheduler noise).
fn time_best(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// The solve-phase leg behind `BENCH_PR7.json`: a θ sweep per solver
/// through the naive pre-engine path (tables hoisted, naive inner loops —
/// `synts::reference`) and through the sweep-scale engine, on the same
/// instance. Returns `(baseline_s, engine_s)` per solver key.
fn solve_phase_leg(
    cfg: &synts_core::SystemConfig,
    profiles: &[synts_core::ThreadProfile<timing::ErrorCurve>],
    thetas: &[f64],
) -> Result<Json, synts_core::OptError> {
    use synts_core::solver::{Milp, Poly};

    let requests: Vec<SolveRequest<'_, timing::ErrorCurve>> = thetas
        .iter()
        .map(|&theta| SolveRequest::new(cfg, profiles, theta))
        .collect();
    // Warm up every timed path once (and surface errors before timing —
    // the warm and cold MILP explore different trees, so each must prove
    // itself here rather than panic inside a timing closure).
    reference::poly_sweep_naive(cfg, profiles, thetas)?;
    reference::milp_sweep_naive(cfg, profiles, thetas)?;
    for r in Poly
        .solve_batch(&requests)
        .into_iter()
        .chain(Milp::default().solve_batch(&requests))
    {
        r?;
    }

    const RUNS: usize = 5;
    let poly_naive_s = time_best(RUNS, || {
        reference::poly_sweep_naive(cfg, profiles, thetas).expect("warmed up");
    });
    let poly_engine_s = time_best(RUNS, || {
        for r in Poly.solve_batch(&requests) {
            r.expect("warmed up");
        }
    });
    let milp_naive_s = time_best(RUNS, || {
        reference::milp_sweep_naive(cfg, profiles, thetas).expect("warmed up");
    });
    let milp_engine_s = time_best(RUNS, || {
        for r in Milp::default().solve_batch(&requests) {
            r.expect("warmed up");
        }
    });
    // Exhaustive: the raw (Q·S)^M odometer vs the dominance-pruned one,
    // on a single θ (the naive grid is 3.1 M combinations for 4
    // threads). The record always carries every key: when a leg cannot
    // run within EXHAUSTIVE_LIMIT its timing is null, never absent.
    let stats = synts_core::pruning_stats(cfg, profiles)?;
    let theta_mid = thetas[thetas.len() / 2];
    let engine_s = if stats.pruned_combinations <= synts_core::EXHAUSTIVE_LIMIT {
        synts_core::synts_exhaustive(cfg, profiles, theta_mid)?;
        Some(time_best(2, || {
            synts_core::synts_exhaustive(cfg, profiles, theta_mid).expect("warmed up");
        }))
    } else {
        None
    };
    let naive_s = if stats.raw_combinations <= synts_core::EXHAUSTIVE_LIMIT {
        reference::synts_exhaustive_naive(cfg, profiles, theta_mid)?;
        Some(time_best(2, || {
            reference::synts_exhaustive_naive(cfg, profiles, theta_mid).expect("warmed up");
        }))
    } else {
        None
    };
    let opt_num = |v: Option<f64>| v.map_or(Json::Null, Json::num);
    let exhaustive = Json::obj()
        .field("baseline_s", opt_num(naive_s))
        .field("engine_s", opt_num(engine_s))
        .field(
            "speedup",
            opt_num(match (naive_s, engine_s) {
                (Some(n), Some(e)) => Some(n / e.max(1e-12)),
                _ => None,
            }),
        )
        .field("raw_combinations", Json::num(stats.raw_combinations as f64))
        .field(
            "pruned_combinations",
            Json::num(stats.pruned_combinations as f64),
        );
    let solver_obj = |baseline: f64, engine: f64| {
        Json::obj()
            .field("baseline_s", Json::num(baseline))
            .field("engine_s", Json::num(engine))
            .field("speedup", Json::num(baseline / engine.max(1e-12)))
    };
    Ok(Json::obj()
        .field("threads", Json::num(profiles.len() as f64))
        .field("theta_points", Json::num(thetas.len() as f64))
        .field("points_total", Json::num(stats.total_points as f64))
        .field("points_pruned", Json::num(stats.pruned_points as f64))
        .field("poly", solver_obj(poly_naive_s, poly_engine_s))
        .field("milp", solver_obj(milp_naive_s, milp_engine_s))
        .field("exhaustive", exhaustive))
}

/// The scenario-service leg behind `BENCH_PR7.json`: stand up an
/// in-process `synts-serve` (HTTP and all), submit the spec twice, and
/// time submit→report round trips. The first pass populates the
/// service's characterization cache; the second — the row that matters —
/// is the warm-cache service overhead (sharding + queue + HTTP + merge)
/// over the same sweep. Also asserts the fetched report is
/// byte-identical to the monolithic run's canonical JSON.
fn service_leg(spec: &ScenarioSpec, monolithic_json: &str) -> Result<Json, String> {
    let cache_dir = std::env::temp_dir().join(format!("synts-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let service = Arc::new(Service::start(ServiceConfig {
        workers: 2,
        max_shards: 4,
        max_attempts: 2,
        cache: CharCache::at_dir(&cache_dir),
        registry: SolverRegistry::with_defaults(),
        journal: None,
        faults: None,
        ..ServiceConfig::default()
    }));
    let mut server =
        Server::bind("127.0.0.1:0", Arc::clone(&service)).map_err(|e| format!("bind: {e}"))?;
    let client = Client::new(server.addr().to_string());
    let spec_json = spec.to_json_string();
    let timeout = Duration::from_secs(1800);
    let round_trip = || -> Result<(f64, String), String> {
        let t = Instant::now();
        let id = client.submit(&spec_json).map_err(|e| e.to_string())?;
        let body = client
            .wait_report(&id, false, timeout)
            .map_err(|e| e.to_string())?;
        Ok((t.elapsed().as_secs_f64(), body))
    };
    let result = round_trip().and_then(|(cold_s, _)| {
        let (warm_s, body) = round_trip()?;
        if body != monolithic_json {
            return Err("service report diverged from the monolithic run".to_string());
        }
        let shards = service.stats().done; // jobs, each sharded; shard count below
        Ok(Json::obj()
            .field("workers", Json::num(2.0))
            .field("max_shards", Json::num(4.0))
            .field("jobs_done", Json::num(shards as f64))
            .field("cold_submit_to_report_s", Json::num(cold_s))
            .field("warm_submit_to_report_s", Json::num(warm_s))
            .field("matches_monolithic", Json::Bool(true)))
    });
    server.shutdown(Shutdown::Now);
    let _ = std::fs::remove_dir_all(&cache_dir);
    result
}

/// The chaos leg: the same spec through a service with an **armed
/// fault plan** — a third of cache writes dropped, every shard's first
/// attempt panicked — which must still converge to the monolithic
/// bytes. Records the deterministic fired-site ledger so two bench runs
/// on one machine can be diffed for fault-schedule drift.
fn chaos_leg(spec: &ScenarioSpec, monolithic_json: &str) -> Result<Json, String> {
    const PLAN: &str = "seed=29;cache.write=1/3;exec.panic=~#a0";
    let plan = Arc::new(FaultPlan::parse(PLAN).map_err(|e| e.to_string())?);
    let cache_dir = std::env::temp_dir().join(format!("synts-bench-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache = CharCache::at_dir(&cache_dir);
    let service = Arc::new(Service::start(ServiceConfig {
        workers: 2,
        max_shards: 4,
        max_attempts: 3,
        cache: cache.clone(),
        registry: SolverRegistry::with_defaults(),
        journal: None,
        faults: Some(Arc::clone(&plan)),
        ..ServiceConfig::default()
    }));
    let t = Instant::now();
    let id = service.submit(spec.clone()).map_err(|e| e.to_string())?.id;
    let deadline = Instant::now() + Duration::from_secs(1800);
    let result = loop {
        match service.report(&id) {
            ReportOutcome::Ready(report) => break Ok(report.to_json_string()),
            ReportOutcome::Pending(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(25));
            }
            other => break Err(format!("chaos job did not finish: {other:?}")),
        }
    };
    let elapsed_s = t.elapsed().as_secs_f64();
    let retries = service.status(&id).map_or(0, |s| s.retries);
    let cache_stats = cache.stats();
    service.shutdown(Shutdown::Now);
    let _ = std::fs::remove_dir_all(&cache_dir);
    let body = result?;
    if body != monolithic_json {
        return Err("chaos-run report diverged from the monolithic run".to_string());
    }
    let mut fired = Json::obj();
    for (site, count) in plan.fired_counts() {
        fired = fired.field(&site, Json::num(count as f64));
    }
    Ok(Json::obj()
        .field("plan", Json::str(PLAN))
        .field("submit_to_report_s", Json::num(elapsed_s))
        .field("retries", Json::num(f64::from(retries)))
        .field(
            "cache_write_errors",
            Json::num(cache_stats.write_errors as f64),
        )
        .field("fired", fired)
        .field("matches_monolithic", Json::Bool(true)))
}

/// The gate-sim leg behind `BENCH_PR7.json`: the same sampled delay
/// trace for every thread of the spec's first barrier interval, once
/// through the retired scalar loop (`delay_trace_into_scalar`) and once
/// through the 64-lane bit-parallel batch (`delay_trace_into`). The two
/// paths are property-tested bit-identical (`tests/bitparallel_sim.rs`),
/// so this row is a pure wall-clock comparison.
fn gatesim_leg(
    stage: circuits::StageKind,
    trace: &workloads::WorkloadTrace,
    harness: &synts_core::experiments::HarnessConfig,
) -> Result<Json, String> {
    let charac = timing::StageCharacterizer::new(stage, harness.workload.width)
        .map_err(|e| e.to_string())?;
    let interval = trace
        .intervals
        .first()
        .ok_or_else(|| "trace has no intervals".to_string())?;
    let mut scratch = Vec::new();
    let mut pass = |scalar: bool| -> Result<f64, String> {
        let t = Instant::now();
        for work in interval.iter() {
            let r = if scalar {
                charac.delay_trace_into_scalar(&work.events, harness.max_samples, &mut scratch)
            } else {
                charac.delay_trace_into(&work.events, harness.max_samples, &mut scratch)
            };
            r.map_err(|e| e.to_string())?;
        }
        Ok(t.elapsed().as_secs_f64())
    };
    // One warm pass per path surfaces errors before the timed loops.
    pass(true)?;
    pass(false)?;
    const RUNS: usize = 3;
    let mut scalar_s = f64::INFINITY;
    let mut wide_s = f64::INFINITY;
    for _ in 0..RUNS {
        scalar_s = scalar_s.min(pass(true)?);
        wide_s = wide_s.min(pass(false)?);
    }
    Ok(Json::obj()
        .field("threads", Json::num(interval.threads() as f64))
        .field("max_samples", Json::num(harness.max_samples as f64))
        .field("scalar_s", Json::num(scalar_s))
        .field("bitparallel_s", Json::num(wide_s))
        .field("speedup", Json::num(scalar_s / wide_s.max(1e-12))))
}

/// The perf smoke behind `BENCH_PR7.json`: characterization fast path
/// (cold/warm cache), the spec's end-to-end sweep, the solve-phase
/// engine-vs-naive comparison per solver, a cold corpus worker-count
/// series with its per-phase time breakdown, the scalar-vs-64-lane
/// gate-sim row, and the scenario-service submit→report round trip — so
/// the repo carries a wall-clock trajectory.
fn bench(args: RunArgs) -> ExitCode {
    let spec = match load_spec(&args) {
        Ok(spec) => spec,
        Err(code) => return code,
    };
    let out_path = args
        .bench_out
        .clone()
        .unwrap_or_else(|| "BENCH_PR7.json".to_string());
    let workers = worker_count(spec.workers);
    let pool = ThreadPool::new(workers);
    let harness = spec.quality.harness();

    // A throwaway cache directory guarantees a genuinely cold first pass.
    let cache_dir = std::env::temp_dir().join(format!("synts-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache = CharCache::at_dir(&cache_dir);

    eprintln!(
        "[synts-cli] bench '{}' ({} quality, {workers} worker(s))...",
        spec.name,
        spec.quality.name()
    );
    let t0 = Instant::now();
    let data = match characterize_cached(spec.benchmark, spec.stage, &harness, &cache, pool) {
        Ok(data) => data,
        Err(e) => {
            eprintln!("cold characterization failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cold_build_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let warm = match characterize_cached(spec.benchmark, spec.stage, &harness, &cache, pool) {
        Ok(data) => data,
        Err(e) => {
            eprintln!("warm characterization failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let warm_build_s = t1.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&cache_dir);
    if warm.tnom_v1.to_bits() != data.tnom_v1.to_bits() {
        eprintln!("warm characterization diverged from cold");
        return ExitCode::FAILURE;
    }

    let t2 = Instant::now();
    let report = match Experiment::new(spec.clone()).run_on(&data) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sweep_s = t2.elapsed().as_secs_f64();

    // Solve-phase leg: naive vs engine on the spec's most heterogeneous
    // interval over a dense θ grid (PR 5's hot path).
    let cfg = data.system_config();
    let profiles = data.intervals[data.most_heterogeneous_interval()].profiles();
    let solvers = default_theta_sweep(&cfg, &profiles, 33, 2.0)
        .and_then(|thetas| solve_phase_leg(&cfg, &profiles, &thetas));
    let solvers = match solvers {
        Ok(json) => json,
        Err(e) => {
            eprintln!("solve-phase bench failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Corpus fan-out: the same 3×3 quick subset across a worker-count
    // series. Every row gets its own throwaway cache directory and
    // asserts zero cache hits afterwards — a stale or shared cache would
    // otherwise serve rows from disk and fake (or mask) a scaling
    // change, which is exactly how the old 0.9× "speedup" record
    // slipped through.
    let corpus_benchmarks = [
        workloads::Benchmark::Radix,
        workloads::Benchmark::Cholesky,
        workloads::Benchmark::Fmm,
    ];
    let corpus_stages = circuits::StageKind::ALL;
    let phases_before = PhaseStats::snapshot();
    let mut corpus_rows = Vec::new();
    let mut corpus_seq_s = f64::NAN;
    let mut corpus_4w_s = f64::NAN;
    for w in [1usize, 2, 4] {
        let row_dir =
            std::env::temp_dir().join(format!("synts-bench-corpus-{}-{w}w", std::process::id()));
        let _ = std::fs::remove_dir_all(&row_dir);
        let row_cache = CharCache::at_dir(&row_dir);
        let t = Instant::now();
        let built = Corpus::build_subset_with(
            Effort::Quick,
            &corpus_benchmarks,
            &corpus_stages,
            &row_cache,
            ThreadPool::new(w),
        );
        let secs = t.elapsed().as_secs_f64();
        let row_stats = row_cache.stats();
        let _ = std::fs::remove_dir_all(&row_dir);
        if let Err(e) = built {
            eprintln!("corpus build failed at {w} workers: {e}");
            return ExitCode::FAILURE;
        }
        if row_stats.hits != 0 {
            eprintln!(
                "corpus row at {w} workers was not cold: {} cache hit(s)",
                row_stats.hits
            );
            return ExitCode::FAILURE;
        }
        if w == 1 {
            corpus_seq_s = secs;
        }
        if w == 4 {
            corpus_4w_s = secs;
        }
        corpus_rows.push(
            Json::obj()
                .field("workers", Json::num(w as f64))
                .field("seconds", Json::num(secs))
                .field("speedup", Json::num(corpus_seq_s / secs.max(1e-9)))
                .field("cache_hits", Json::num(row_stats.hits as f64))
                .field("cache_misses", Json::num(row_stats.misses as f64)),
        );
    }
    // Per-phase wall-clock across the whole series: phase time sums over
    // workers, so a phase whose time approaches workers × elapsed is the
    // one parallelizing (and the one to blame when scaling stalls).
    let phase_rows = PhaseStats::snapshot().since(phases_before).rows();
    let mut phase_obj = Json::obj();
    for (name, ns) in phase_rows {
        phase_obj = phase_obj.field(name, Json::num(ns as f64 / 1e9));
    }

    // Scaling gate: on a machine that can actually run 4 workers, a
    // 4-worker cold build must beat the sequential one by ≥1.5×. On
    // smaller machines the series is recorded but not enforced — a
    // 1-core container measuring ~1× is physics, not a regression.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let gate_enforced = cores >= 4;
    let four_way_speedup = corpus_seq_s / corpus_4w_s.max(1e-9);
    if gate_enforced && four_way_speedup < 1.5 {
        eprintln!(
            "corpus scaling regression: {four_way_speedup:.2}x at 4 workers (< 1.5x) \
             on a {cores}-core machine"
        );
        return ExitCode::FAILURE;
    }

    // Scalar vs 64-lane gate sim on the spec's own workload.
    let gatesim = match gatesim_leg(
        report.spec.stage,
        &report.spec.benchmark.run(&harness.workload),
        &harness,
    ) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("gate-sim bench failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Service round trip: in-process synts-serve, warm-cache submit→report.
    let service = match service_leg(&spec, &report.to_json_string()) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("service bench failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Chaos leg: the same spec through an armed fault plan must still
    // produce the monolithic bytes (and a deterministic fault ledger).
    let chaos = match chaos_leg(&spec, &report.to_json_string()) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("chaos bench failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let record = Json::obj()
        .field("spec", Json::str(&report.spec.name))
        .field("benchmark", Json::str(report.spec.benchmark.name()))
        .field("stage", Json::str(report.spec.stage.name()))
        .field("quality", Json::str(report.spec.quality.name()))
        .field("workers", Json::num(workers as f64))
        .field("cores_available", Json::num(cores as f64))
        .field(
            "characterization",
            Json::obj()
                .field("cold_build_s", Json::num(cold_build_s))
                .field("warm_build_s", Json::num(warm_build_s))
                .field(
                    "warm_speedup",
                    Json::num(cold_build_s / warm_build_s.max(1e-9)),
                ),
        )
        .field("sweep_s", Json::num(sweep_s))
        .field("solve_phase", solvers)
        .field(
            "corpus",
            Json::obj()
                .field("benchmarks", Json::num(corpus_benchmarks.len() as f64))
                .field("stages", Json::num(corpus_stages.len() as f64))
                .field("workers", Json::arr(corpus_rows))
                .field("phase_seconds", phase_obj)
                .field(
                    "scaling_gate",
                    Json::obj()
                        .field("enforced", Json::Bool(gate_enforced))
                        .field("required_4w_speedup", Json::num(1.5))
                        .field("measured_4w_speedup", Json::num(four_way_speedup)),
                ),
        )
        .field("gatesim", gatesim)
        .field("service", service)
        .field("chaos", chaos);
    let text = record.render_pretty();
    print!("{text}");
    if let Err(e) = std::fs::write(&out_path, &text) {
        eprintln!("[bench] write failed: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("[bench] {out_path}");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run_args(&args[1..], CliMode::Run, None) {
            Some(run_args) => run(run_args),
            None => usage(),
        },
        Some("bench") => match parse_run_args(
            &args[1..],
            CliMode::Bench,
            Some("crates/bench/specs/fig-6-12.json"),
        ) {
            Some(run_args) => bench(run_args),
            None => usage(),
        },
        Some("check") => match parse_check_args(&args[1..]) {
            Some(check_args) => check(&check_args),
            None => usage(),
        },
        Some("submit") => match parse_service_args(&args[1..]) {
            Some(svc_args) => submit(&svc_args),
            None => usage(),
        },
        Some("status") => match parse_service_args(&args[1..]) {
            Some(svc_args) => job_status(&svc_args),
            None => usage(),
        },
        Some("fetch") => match parse_service_args(&args[1..]) {
            Some(svc_args) => fetch(&svc_args),
            None => usage(),
        },
        Some("schemes") => schemes(),
        Some("template") => template(),
        _ => usage(),
    }
}
