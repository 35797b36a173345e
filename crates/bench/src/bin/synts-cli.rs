//! `synts-cli` — run declarative scenario specs from disk.
//!
//! ```text
//! synts-cli run <spec.json> [--quick|--paper] [--workers N]
//!                           [--json <out.json>] [--csv <out.csv>]
//!                           [--no-cache] [--cache-dir <dir>] [--quiet]
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
//! assertion. `submit`, `status` and `fetch` are the thin HTTP client
//! for a running `synts-serve` (`--addr`, default `127.0.0.1:7070`):
//! submit a spec file, poll a job, and fetch the merged report as JSON
//! or CSV — byte-identical to what `run` prints for the same spec.
//! `schemes` lists every registry key a spec may name, and `template`
//! prints a starter spec.
#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::Duration;

use synts_bench::render::{report_text_with_cache, save_csv, write_csv};
use synts_core::{
    CharCache, Experiment, IntervalSelection, Quality, ScenarioSpec, SolverRegistry, ThetaSpec,
    ThreadPool,
};
use synts_serve::Client;

fn usage() -> ExitCode {
    eprintln!(
        "usage: synts-cli run <spec.json> [--quick|--paper] [--workers N] \
         [--json <out.json>] [--csv <out.csv>] [--no-cache] [--cache-dir <dir>] [--quiet]\n\
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
}

fn parse_run_args(args: &[String]) -> Option<RunArgs> {
    let mut out = RunArgs {
        spec_path: String::new(),
        quality: None,
        workers: None,
        json_out: None,
        csv_out: None,
        no_cache: false,
        cache_dir: None,
        quiet: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => out.quality = Some(Quality::Quick),
            "--paper" => out.quality = Some(Quality::Paper),
            "--workers" => out.workers = Some(it.next()?.parse().ok()?),
            "--quiet" => out.quiet = true,
            "--no-cache" => out.no_cache = true,
            "--cache-dir" => out.cache_dir = Some(it.next()?.clone()),
            "--json" => out.json_out = Some(it.next()?.clone()),
            "--csv" => out.csv_out = Some(it.next()?.clone()),
            _ if arg.starts_with('-') || !out.spec_path.is_empty() => return None,
            _ => out.spec_path = arg.clone(),
        }
    }
    if out.spec_path.is_empty() {
        return None;
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
        if workers == 0 {
            eprintln!("workers: must be >= 1 (or omitted to use SYNTS_THREADS / the machine)");
            return Err(ExitCode::FAILURE);
        }
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
/// θ grid ([`ShardPlan`](synts_core::ShardPlan)'s partition, computed from the
/// grid size alone).
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
        // The parser already bounds both fields (points >= 1, decades in
        // 0..=100), so every grid point is finite and > 0.
        ThetaSpec::LogAroundEqualWeight { points, decades } => {
            println!(
                "[check] θ grid: {points} log-spaced point(s), ±{decades} decades \
                 around the equal-weight θ"
            );
            *points
        }
    };

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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run_args(&args[1..]) {
            Some(run_args) => run(run_args),
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
