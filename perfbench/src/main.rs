//! `synts-perfbench` — the SynTS benchmark of record.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <figs-cold|figs-warm|serve-jobs|all> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--plant-wrong-byte OP]
//! ```
//!
//! Each workload runs in a process of its own, with a fresh temp root
//! under `.bench_tmp/` (removed afterwards) and `SYNTS_THREADS` pinned
//! to the host's parallelism. With `--trace 0` the process runs five
//! set-ups, then whole cycles of ops for at least `--seconds`,
//! and the end-to-end metrics are printed. With `--trace 1` one cycle
//! runs twice, untraced and traced, each in its own process: the traced
//! process yields the per-layer metrics, and the two processes'
//! throughputs give the tracing overhead. Every op's output is checked;
//! the last line of standard output is a JSON summary, and the exit
//! code is 1 when any check failed. Full results, host facts and spans
//! go to `.bench_out/`.
#![forbid(unsafe_code)]

mod figs;
mod inputs;
mod record;
mod serve;
mod spans;
mod sys;

use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use synts_core::scenario::Json;
use synts_core::THREADS_ENV;

use crate::inputs::{generated_inputs, parse_seed, Workload, DEFAULT_SEED, HELD_OUT_SEED};
use crate::record::{Ctx, Mode, RunResult};

/// Scratch space for workload processes, relative to the working
/// directory.
const TMP_DIR: &str = ".bench_tmp";

/// Where full results and spans are written.
const OUT_DIR: &str = ".bench_out";

/// End-to-end metrics printed in the table and the results file but not
/// in the summary line, which holds the metrics `BENCHMARK.json` bounds
/// (a bound there applies to every workload).
/// * `failed_ops_frac` is carried by `attempted` and `failed`.
/// * A figs run has about seven ops per figure, so its `latency_p90_s`
///   has fewer than ten samples beyond it; it spread up to 0.19 over ten
///   runs of the same code.
/// * `peak_rss_mb` read 40-60% high in one figs run in ten to twenty, for
///   the whole run (memory the allocator keeps after a burst), so three
///   such runs among ten would put the quartile spread above any bound.
const TABLE_ONLY: [&str; 3] = ["failed_ops_frac", "latency_p90_s", "peak_rss_mb"];

/// A run (all of its processes) must end within this long.
const RUN_DEADLINE: Duration = Duration::from_secs(170);

const USAGE: &str = "usage: synts-perfbench --workload <figs-cold|figs-warm|serve-jobs|all> \
[--seed N] [--seconds S] [--trace 0|1] [--plant-wrong-byte OP]";

#[derive(Debug, Clone)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    plant: Option<usize>,
    /// Set when this process is a workload process: its mode, whether
    /// it traces, and its temp root.
    child: Option<(Mode, bool, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        plant: None,
        child: None,
    };
    let (mut mode, mut traced, mut root) = (None, false, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &str| v.parse::<usize>().map_err(|_| format!("bad {flag} {v:?}"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workloads = if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![v.parse()?]
                };
            }
            "--seed" => args.seed = parse_seed(value()?)?,
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?}: expected 0 or 1")),
                }
            }
            "--plant-wrong-byte" => args.plant = Some(number(value()?)?),
            "--child" => {
                mode = Some(match value()?.as_str() {
                    "timed" => Mode::Timed,
                    "fixed" => Mode::Fixed,
                    v => return Err(format!("bad --child {v:?}")),
                })
            }
            "--traced" => traced = value()? == "1",
            "--root" => root = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    if let Some(mode) = mode {
        let root = root.ok_or("--child needs --root")?;
        args.child = Some((mode, traced, root));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("synts-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.child {
        Some((mode, traced, root)) => run_child(&args, *mode, *traced, root, started),
        None => run_parent(&args, started),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("synts-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// A workload process: run, then print the result as the last line.
fn run_child(
    args: &Args,
    mode: Mode,
    traced: bool,
    root: &Path,
    started: Instant,
) -> Result<bool, String> {
    let ctx = Ctx {
        workload: args.workloads[0],
        seed: args.seed,
        seconds: args.seconds,
        mode,
        traced,
        root: root.to_path_buf(),
        plant: args.plant,
        started,
    };
    let result: RunResult = match ctx.workload {
        Workload::FigsCold | Workload::FigsWarm => figs::run(&ctx)?,
        Workload::ServeJobs => serve::run(&ctx)?,
    };
    println!("{}", result.to_json().render());
    Ok(result.failed == 0)
}

/// Spawns one workload process and returns its result line, parsed.
/// The process is killed if it outlives `deadline`, and its temp root
/// is removed either way.
fn spawn_child(
    args: &Args,
    workload: Workload,
    mode: Mode,
    traced: bool,
    deadline: Instant,
) -> Result<Json, String> {
    let root = std::env::current_dir()
        .map_err(|e| format!("working directory: {e}"))?
        .join(TMP_DIR)
        .join(format!(
            "{}-{}-{}",
            workload.name(),
            std::process::id(),
            u8::from(traced)
        ));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args([
            "--child",
            match mode {
                Mode::Timed => "timed",
                Mode::Fixed => "fixed",
            },
        ])
        .args(["--traced", if traced { "1" } else { "0" }])
        .arg("--root")
        .arg(&root)
        .env(THREADS_ENV, sys::nproc().to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(op) = args.plant {
        cmd.args(["--plant-wrong-byte", &op.to_string()]);
    }
    let outcome = run_to_end(&mut cmd, deadline);
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(TMP_DIR);
    let stdout = outcome?;
    let last = stdout.lines().last().unwrap_or_default();
    Json::parse(last).map_err(|e| format!("{} process printed no result ({e})", workload.name()))
}

/// Runs `cmd` to completion (killing it at `deadline`) and returns its
/// standard output.
fn run_to_end(cmd: &mut Command, deadline: Instant) -> Result<String, String> {
    let mut child = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = child.stdout.take().ok_or("no stdout pipe")?;
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        let _ = stdout.read_to_string(&mut out);
        out
    });
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
        }
    };
    let out = reader.join().unwrap_or_default();
    match status {
        None => Err("workload process timed out and was killed".to_string()),
        Some(s) if s.code() == Some(2) || s.code().is_none() => {
            Err(format!("workload process failed ({s})"))
        }
        Some(_) => Ok(out),
    }
}

fn num(json: &Json, key: &str) -> f64 {
    json.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn nums(json: &Json, key: &str) -> Vec<f64> {
    json.get(key)
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn strs(json: &Json, key: &str) -> Vec<String> {
    json.get(key)
        .and_then(Json::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(|s| s.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default()
}

/// One workload's outcome as the parent reports it.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    /// `(name, value, unit)`, in report order.
    metrics: Vec<(String, f64, String)>,
    /// The raw results of the workload processes.
    processes: Vec<Json>,
}

/// Ops per second of a workload process: a cycle's ops over the median
/// wall time of its whole cycles. The median keeps a stall of the host
/// in one cycle out of the figure.
fn throughput(r: &Json) -> f64 {
    let cycles = nums(r, "cycle_s");
    let ops_per_cycle = nums(r, "latencies_s").len() as f64 / cycles.len().max(1) as f64;
    ops_per_cycle / sys::median(&cycles)
}

/// The end-to-end metrics of a timed workload process.
///
/// A cycle mixes specs whose latencies differ up to twentyfold (six
/// figures; thirty serve-jobs pairs), so a percentile over all ops falls
/// in a gap between two specs' latencies and jumps with noise. Each
/// latency percentile is therefore taken per spec, over that spec's ops,
/// and the specs' values are combined by geometric mean.
fn end_to_end(r: &Json) -> Vec<(String, f64, String)> {
    let latencies = nums(r, "latencies_s");
    let attempted = num(r, "attempted");
    let mut per_spec: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for (latency, key) in latencies.iter().zip(nums(r, "keys")) {
        per_spec.entry(key as u64).or_default().push(*latency);
    }
    let percentile = |q: f64| {
        let values: Vec<f64> = per_spec.values().map(|v| sys::quantile(v, q)).collect();
        sys::geomean(&values)
    };
    let rows = [
        ("setup_s", sys::median(&nums(r, "setup_s")), "s"),
        ("throughput_ops_s", throughput(r), "1/s"),
        ("latency_p50_s", percentile(0.5), "s"),
        ("latency_p90_s", percentile(0.9), "s"),
        ("peak_rss_mb", sys::median(&nums(r, "peak_rss_mb")), "MB"),
        ("synts_edp_ratio", num(r, "edp_ratio"), "ratio"),
        (
            "failed_ops_frac",
            figs::ratio(num(r, "failed"), attempted),
            "ratio",
        ),
    ];
    rows.into_iter()
        .map(|(n, v, u)| (n.to_string(), v, u.to_string()))
        .collect()
}

/// Runs one workload per `args` (one timed process, or an untraced and
/// a traced fixed process).
fn measure(args: &Args, workload: Workload, deadline: Instant) -> Result<Outcome, String> {
    if !args.trace {
        let r = spawn_child(args, workload, Mode::Timed, false, deadline)?;
        let failed = num(&r, "failed") as usize;
        return Ok(Outcome {
            correct: failed == 0,
            attempted: num(&r, "attempted") as usize,
            failed,
            metrics: end_to_end(&r),
            processes: vec![r],
        });
    }
    let plain = spawn_child(args, workload, Mode::Fixed, false, deadline)?;
    let traced = spawn_child(args, workload, Mode::Fixed, true, deadline)?;
    let same_bytes = strs(&plain, "digests") == strs(&traced, "digests");
    if !same_bytes {
        eprintln!("synts-perfbench: the traced ops' reports differ from the untraced ones");
    }
    let failed =
        (num(&plain, "failed") + num(&traced, "failed")) as usize + usize::from(!same_bytes);
    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    let layers = traced
        .get("layers")
        .ok_or("the traced process reported no layers")?;
    let probe = record::Layers::default();
    for (name, _, unit) in probe.rows() {
        metrics.push((name.to_string(), num(layers, name), unit.to_string()));
    }
    metrics.push((
        "trace.overhead_frac".to_string(),
        1.0 - throughput(&traced) / throughput(&plain),
        "ratio".to_string(),
    ));
    Ok(Outcome {
        correct: failed == 0,
        attempted: (num(&plain, "attempted") + num(&traced, "attempted")) as usize,
        failed,
        metrics,
        processes: vec![plain, traced],
    })
}

/// The JSON summary line: `correct`, `attempted`, `failed`, `metrics`.
fn summary(outcomes: &[(Workload, &Outcome)], prefix: bool) -> Json {
    let mut metrics = Json::obj();
    for (workload, o) in outcomes {
        for (name, value, unit) in &o.metrics {
            if TABLE_ONLY.contains(&name.as_str()) {
                continue;
            }
            let key = if prefix {
                format!("{}.{name}", workload.name())
            } else {
                name.clone()
            };
            metrics = metrics.field(
                &key,
                Json::obj()
                    .field("value", Json::num(*value))
                    .field("unit", Json::str(unit)),
            );
        }
    }
    Json::obj()
        .field(
            "correct",
            Json::Bool(outcomes.iter().all(|(_, o)| o.correct)),
        )
        .field(
            "attempted",
            Json::num(outcomes.iter().map(|(_, o)| o.attempted).sum::<usize>() as f64),
        )
        .field(
            "failed",
            Json::num(outcomes.iter().map(|(_, o)| o.failed).sum::<usize>() as f64),
        )
        .field("metrics", metrics)
}

fn run_parent(args: &Args, started: Instant) -> Result<bool, String> {
    let deadline = started + RUN_DEADLINE;
    let host = Json::obj()
        .field("nproc", Json::num(sys::nproc() as f64))
        .field("tmp_fs", Json::str(sys::fs_type(Path::new("."))))
        .field("commit", Json::str(sys::commit()))
        .field("rustc", Json::str(sys::rustc_version()));
    println!("# host: {}", host.render());
    let mut outcomes = Vec::new();
    for &workload in &args.workloads {
        let outcome = measure(args, workload, deadline)?;
        println!(
            "# {} seed={} seconds={} trace={}",
            workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        for (name, value, unit) in &outcome.metrics {
            println!(
                "{:<12} {:<34} {:>16.6} {unit}",
                workload.name(),
                name,
                value
            );
        }
        write_results(args, workload, &host, &outcome);
        outcomes.push((workload, outcome));
    }
    let all: Vec<(Workload, &Outcome)> = outcomes.iter().map(|(w, o)| (*w, o)).collect();
    if all.len() > 1 {
        for one in &all {
            println!("# {}: {}", one.0.name(), summary(&[*one], false).render());
        }
    }
    println!("{}", summary(&all, all.len() > 1).render());
    Ok(all.iter().all(|(_, o)| o.correct))
}

/// Writes the full results (host facts, metrics, raw process results
/// with their spans) to `.bench_out/`. Best-effort: the summary line is
/// the result of record.
fn write_results(args: &Args, workload: Workload, host: &Json, outcome: &Outcome) {
    let mut metrics = Json::obj();
    for (name, value, unit) in &outcome.metrics {
        metrics = metrics.field(
            name,
            Json::obj()
                .field("value", Json::num(*value))
                .field("unit", Json::str(unit)),
        );
    }
    let doc = Json::obj()
        .field("workload", Json::str(workload.name()))
        .field("seed", Json::num(args.seed as f64))
        .field("held_out_seed", Json::num(HELD_OUT_SEED as f64))
        .field(
            "inputs_digest",
            Json::str(sys::digest(
                generated_inputs(workload, args.seed).as_bytes(),
            )),
        )
        .field("seconds", Json::num(args.seconds))
        .field("trace", Json::Bool(args.trace))
        .field("host", host.clone())
        .field("correct", Json::Bool(outcome.correct))
        .field("metrics", metrics)
        .field("processes", Json::Arr(outcome.processes.clone()));
    let path = Path::new(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.json",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let written =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, doc.render_pretty()));
    if let Err(e) = written {
        eprintln!("synts-perfbench: {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_names(names: impl Iterator<Item = String>) -> Vec<String> {
        let mut names: Vec<String> = names.collect();
        names.sort();
        names
    }

    /// The summary line of a timed run holds exactly the end-to-end
    /// metrics `BENCHMARK.json` bounds.
    #[test]
    fn the_summary_holds_exactly_the_bounded_end_to_end_metrics() {
        let run = Json::parse(
            r#"{"attempted": 2, "failed": 0, "setup_s": [1.5], "latencies_s": [0.25, 0.5],
                "keys": [0, 1], "cycle_s": [0.75], "edp_ratio": 0.5, "peak_rss_mb": [10]}"#,
        )
        .expect("the fixture parses");
        let outcome = Outcome {
            correct: true,
            attempted: 2,
            failed: 0,
            metrics: end_to_end(&run),
            processes: Vec::new(),
        };
        let line = summary(&[(Workload::FigsCold, &outcome)], false);
        let Some(Json::Obj(printed)) = line.get("metrics") else {
            panic!("the summary has a metrics object");
        };
        let bench =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let bounded = bench
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("an end_to_end list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("a name")
                    .to_string()
            });
        assert_eq!(
            sorted_names(printed.iter().map(|(name, _)| name.clone())),
            sorted_names(bounded)
        );
        assert_eq!(throughput(&run), 2.0 / 0.75);
    }
}
