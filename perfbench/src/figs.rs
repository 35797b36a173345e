//! `figs-cold` and `figs-warm`: paper-quality runs of the SynTS
//! figures (DAC'16 Figs 6.11-6.16), one caller driving an `nproc`
//! worker pool.
//!
//! An op is `characterize_cached` with the committed harness, then
//! `Experiment::run_on` and `Report::to_json_string`. figs-cold gives
//! every op an empty cache directory; figs-warm fills one cache during
//! set-up and adds the exact solvers to every spec. The traced op makes
//! the same calls `characterize_cached` makes, one span each, and must
//! produce the same report bytes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use synts_core::experiments::{characterize_workload_on, BenchmarkData};
use synts_core::{
    characterize_cached, CacheStats, CharCache, Experiment, OptError, PhaseStats, Report,
    ScenarioSpec, SolveRequest, SolverRegistry, ThreadPool, ThreadProfile,
};
use timing::{ErrorCurve, StageCharacterizer, TimingError};

use crate::inputs::{self, OpInput, Workload};
use crate::record::{edp_geomean, poly_edp_at_center, Ctx, Layers, RunResult};
use crate::spans::Tracer;
use crate::sys;

/// One set-up's state: the cycle, its experiments and (figs-warm) the
/// filled cache.
struct Figs {
    cycle: Vec<OpInput>,
    experiments: Vec<Experiment>,
    registry: SolverRegistry<ErrorCurve>,
    pool: ThreadPool,
    warm: Option<CharCache>,
    dir: PathBuf,
}

/// What a traced op measured besides its spans.
#[derive(Debug, Default)]
struct OpFacts {
    hit: bool,
    events: u64,
    vectors: u64,
    entry_bytes: u64,
    gate_sim_pooled_s: f64,
    gate_sim_one_worker_s: f64,
    /// `Experiment::run_on`, re-timed like the solvers.
    run_on_s: f64,
    /// Time spent after the op on these measurements.
    post_s: f64,
    /// `(scheme, seconds, solve requests)` re-timed on the op's inputs.
    solvers: Vec<(String, f64, usize)>,
}

impl Figs {
    fn setup(ctx: &Ctx, rep: usize) -> Result<Figs, String> {
        let dir = ctx.root.join(format!("setup-{rep}"));
        let cycle = inputs::cycle(ctx.workload, ctx.seed);
        let experiments = cycle
            .iter()
            .map(|op| Experiment::new(op.spec.clone()))
            .collect();
        let pool = ThreadPool::new(sys::nproc());
        let warm = match ctx.workload {
            Workload::FigsWarm => {
                let cache = CharCache::at_dir(dir.join("cache"));
                for op in &cycle {
                    characterize_cached(
                        op.spec.benchmark,
                        op.spec.stage,
                        &op.harness,
                        &cache,
                        pool,
                    )
                    .map_err(|e| format!("filling the cache for {}: {e}", op.spec.name))?;
                }
                Some(cache)
            }
            _ => None,
        };
        let figs = Figs {
            cycle,
            experiments,
            registry: SolverRegistry::with_defaults(),
            pool,
            warm,
            dir,
        };
        let scratch = figs.dir.join("warm-up");
        figs.plain_op(inputs::warm_up_index(&figs.cycle), &scratch)
            .map_err(|e| format!("warm-up op: {e}"))?;
        let _ = std::fs::remove_dir_all(scratch);
        Ok(figs)
    }

    /// The cache an op runs against: the warm one, or an empty
    /// directory of its own.
    fn op_cache(&self, scratch: &Path) -> CharCache {
        self.warm
            .clone()
            .unwrap_or_else(|| CharCache::at_dir(scratch))
    }

    fn plain_op(&self, k: usize, scratch: &Path) -> Result<(String, Report), OptError> {
        let op = &self.cycle[k];
        let cache = self.op_cache(scratch);
        let data = characterize_cached(
            op.spec.benchmark,
            op.spec.stage,
            &op.harness,
            &cache,
            self.pool,
        )?;
        let report = self.experiments[k].run_on(&data)?;
        Ok((report.to_json_string(), report))
    }

    /// The op as `characterize_cached` runs it, one span per call, then
    /// (outside the op's wall time) the re-timings the layers need.
    fn traced_op(
        &self,
        tr: &mut Tracer,
        n: usize,
        k: usize,
        scratch: &Path,
    ) -> Result<(String, Report, OpFacts), OptError> {
        let OpInput { spec, harness } = &self.cycle[k];
        let cache = self.op_cache(scratch);
        let root = tr.open(format!("op:{}", spec.name), n, None);
        let p = Some(root);
        let trace = tr.time("Benchmark::run", n, p, || {
            spec.benchmark.run(&harness.workload)
        });
        let circuit = tr
            .time("circuits::build_stage", n, p, || {
                circuits::build_stage(spec.stage, harness.workload.width)
            })
            .map_err(TimingError::from)?;
        let entry = tr.time("CharCache::entry", n, p, || {
            cache.entry(&trace, spec.stage, harness, circuit.netlist())
        });
        let loaded = tr.time("CacheEntry::load", n, p, || entry.load());
        let mut facts = OpFacts {
            hit: loaded.is_some(),
            ..OpFacts::default()
        };
        let (data, charac) = match loaded {
            Some(data) => (data, None),
            None => {
                let charac = tr.time("StageCharacterizer::from_stage", n, p, || {
                    StageCharacterizer::from_stage(circuit)
                })?;
                let start = Instant::now();
                let data = tr.time("characterize_workload_on", n, p, || {
                    characterize_workload_on(&charac, &trace, harness, self.pool)
                })?;
                facts.gate_sim_pooled_s = start.elapsed().as_secs_f64();
                tr.time("CacheEntry::store", n, p, || entry.store(&data));
                (data, Some(charac))
            }
        };
        let report = tr.time("Experiment::run_on", n, p, || {
            self.experiments[k].run_on(&data)
        })?;
        let bytes = tr.time("Report::to_json_string", n, p, || report.to_json_string());
        tr.close(root);

        let post = Instant::now();
        facts.events = trace
            .intervals
            .iter()
            .flat_map(|iv| iv.iter())
            .map(|work| work.events.len() as u64)
            .sum();
        facts.entry_bytes = entry
            .token()
            .and_then(|name| std::fs::metadata(cache.dir().join(name)).ok())
            .map_or(0, |m| m.len());
        if let Some(charac) = charac {
            facts.vectors = data
                .intervals
                .iter()
                .flat_map(|iv| &iv.threads)
                .map(|t| t.normalized_delays.len() as u64)
                .sum();
            let start = Instant::now();
            characterize_workload_on(&charac, &trace, harness, ThreadPool::sequential())?;
            facts.gate_sim_one_worker_s = start.elapsed().as_secs_f64();
        }
        let (run_on, run_on_s) = fastest(|| self.experiments[k].run_on(&data));
        run_on?;
        facts.run_on_s = run_on_s;
        facts.solvers = retime_solvers(spec, &data, &report, &self.registry, self.pool)?;
        facts.post_s = post.elapsed().as_secs_f64();
        Ok((bytes, report, facts))
    }
}

/// How often the traced run re-times a call whose time is subtracted
/// from another's. The fastest run is kept, so that a scheduling stall
/// in one re-timing cannot turn a difference negative.
const RETIMES: usize = 3;

/// Runs `f` [`RETIMES`] times; returns its last result and its fastest
/// time in seconds.
pub fn fastest<R>(mut f: impl FnMut() -> R) -> (R, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..RETIMES {
        let start = Instant::now();
        out = Some(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    (out.expect("RETIMES is positive"), best)
}

/// Re-times every scheme's batched solve (and the normalization
/// baseline's) on an op's own requests, the way `Experiment::run_on`
/// issues them: intervals across `pool`, one `solve_batch` per interval.
/// Returns `(scheme, fastest seconds, solve requests)`.
pub fn retime_solvers(
    spec: &ScenarioSpec,
    data: &BenchmarkData,
    report: &Report,
    registry: &SolverRegistry<ErrorCurve>,
    pool: ThreadPool,
) -> Result<Vec<(String, f64, usize)>, OptError> {
    let cfg = data.system_config();
    let profile_sets: Vec<Vec<ThreadProfile<ErrorCurve>>> = report
        .intervals_used
        .iter()
        .map(|&i| data.intervals[i].profiles())
        .collect();
    let center = [report.theta_center];
    let batches = spec
        .normalize_to
        .iter()
        .map(|key| (key, &center[..]))
        .chain(spec.schemes.iter().map(|key| (key, &report.theta_grid[..])));
    let mut out = Vec::new();
    for (key, thetas) in batches {
        let solver = registry.get(key)?;
        let (solved, secs) = fastest(|| {
            pool.try_map(&profile_sets, |_, profiles| {
                let requests: Vec<SolveRequest<'_, ErrorCurve>> = thetas
                    .iter()
                    .map(|&theta| SolveRequest::new(&cfg, profiles, theta))
                    .collect();
                solver
                    .solve_batch(&requests)
                    .into_iter()
                    .collect::<Result<Vec<_>, OptError>>()
            })
        });
        solved?;
        out.push((key.clone(), secs, thetas.len() * profile_sets.len()));
    }
    Ok(out)
}

/// Adds re-timed solver seconds into the layer they belong to.
pub fn add_solver_time(layers: &mut Layers, scheme: &str, secs: f64) {
    match scheme {
        "synts_poly" => layers.synts_poly_s += secs,
        "synts_milp" => layers.synts_milp_s += secs,
        "synts_exhaustive" => layers.synts_exhaustive_s += secs,
        _ => layers.baselines_s += secs,
    }
}

/// Runs figs-cold or figs-warm per `ctx` and checks every report: it
/// passes `all_checks_pass()` and repeats the bytes of the first run of
/// the same spec.
#[allow(clippy::needless_range_loop)] // `k` indexes the cycle, its experiments and its EDPs
pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let mut figs: Option<Figs> = None;
    for rep in 0..ctx.setup_reps() {
        let start = if rep == 0 {
            ctx.started
        } else {
            Instant::now()
        };
        if let Some(previous) = figs.take() {
            let _ = std::fs::remove_dir_all(&previous.dir);
        }
        figs = Some(Figs::setup(ctx, rep)?);
        result.setup_s.push(start.elapsed().as_secs_f64());
    }
    let figs = figs.ok_or("no set-up ran")?;

    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let mut facts_all = Vec::new();
    let mut reference: BTreeMap<usize, String> = BTreeMap::new();
    let mut edps = vec![None; figs.cycle.len()];
    let mut report_bytes = 0usize;
    let mut span_misses = 0u64;
    let cache_before = CacheStats::snapshot();
    let phase_before = PhaseStats::snapshot();
    let mut n = 0usize;
    sys::take_peak_rss_mb(); // the set-ups' peak is not the ops'
    let start = Instant::now();
    loop {
        let cycle_start = Instant::now();
        let mut post_s = 0.0;
        for k in 0..figs.cycle.len() {
            let scratch = ctx.root.join(format!("op-{n}"));
            let t = Instant::now();
            let outcome = if ctx.traced {
                figs.traced_op(&mut tracer, n, k, &scratch)
                    .map(|(bytes, report, facts)| (bytes, report, Some(facts)))
            } else {
                figs.plain_op(k, &scratch)
                    .map(|(bytes, report)| (bytes, report, None))
            };
            let latency = t.elapsed().as_secs_f64();
            let _ = std::fs::remove_dir_all(&scratch);
            let ok = match outcome {
                Ok((bytes, report, facts)) => {
                    let expected = reference.entry(k).or_insert_with(|| bytes.clone());
                    let ok =
                        report.all_checks_pass() && ctx.observed(n, &bytes) == expected.as_bytes();
                    if edps[k].is_none() {
                        edps[k] = poly_edp_at_center(&report);
                    }
                    report_bytes += bytes.len();
                    result.digests.push(sys::digest(bytes.as_bytes()));
                    if let Some(facts) = facts {
                        span_misses += u64::from(!facts.hit);
                        post_s += facts.post_s;
                        facts_all.push(facts);
                    }
                    ok
                }
                Err(e) => {
                    eprintln!("synts-perfbench: op {n} ({}): {e}", figs.cycle[k].spec.name);
                    result.digests.push("error".to_string());
                    false
                }
            };
            result.count(ok);
            result.latencies_s.push(latency);
            result.keys.push(k);
            n += 1;
        }
        // Throughput counts op time only, not the traced run's re-timings.
        result
            .cycle_s
            .push(cycle_start.elapsed().as_secs_f64() - post_s);
        result.peak_rss_mb.push(sys::take_peak_rss_mb());
        if !ctx.wants_another_cycle(start) {
            break;
        }
    }
    result.edp_ratio = edp_geomean(&edps);

    if ctx.traced {
        let cache = CacheStats::snapshot().since(cache_before);
        let phase = PhaseStats::snapshot().since(phase_before);
        let ops = n as f64;
        let totals = tracer.totals();
        let per_op = |name: &str| totals.get(name).copied().unwrap_or(0.0) / ops;
        let mut layers = Layers {
            trace_build_s: per_op("Benchmark::run"),
            stage_build_s: per_op("circuits::build_stage")
                + per_op("StageCharacterizer::from_stage"),
            gate_sim_s: per_op("characterize_workload_on"),
            cache_key_s: per_op("CharCache::entry"),
            cache_load_s: per_op("CacheEntry::load"),
            cache_store_s: per_op("CacheEntry::store"),
            cache_lookups_per_op: cache.lookups() as f64 / ops,
            cache_hit_ratio: ratio(cache.hits as f64, cache.lookups() as f64),
            report_bytes: report_bytes as f64 / ops,
            unattributed_frac: tracer.unattributed_frac(),
            ..Layers::default()
        };
        let sum = |f: &dyn Fn(&OpFacts) -> f64| facts_all.iter().map(f).sum::<f64>();
        let one_worker = sum(&|f| f.gate_sim_one_worker_s);
        let vectors = sum(&|f| f.vectors as f64);
        layers.events_per_op = sum(&|f| f.events as f64) / ops;
        layers.vectors_per_op = vectors / ops;
        layers.vectors_per_cpu_s = ratio(vectors, one_worker);
        layers.parallel_efficiency = ratio(
            one_worker,
            figs.pool.workers() as f64 * sum(&|f| f.gate_sim_pooled_s),
        );
        layers.cache_entry_bytes = sum(&|f| f.entry_bytes as f64) / ops;
        let mut solver_total = 0.0;
        let mut theta_points = 0;
        for facts in &facts_all {
            for (scheme, secs, requests) in &facts.solvers {
                add_solver_time(&mut layers, scheme, *secs / ops);
                theta_points += requests;
                solver_total += secs;
            }
        }
        layers.theta_points_per_op = theta_points as f64 / ops;
        layers.run_on_self_s = (sum(&|f| f.run_on_s) - solver_total) / ops;
        result.layers = Some(layers);

        // The program's own counters must agree with what the spans saw.
        if cache.misses != span_misses || cache.lookups() != n as u64 {
            eprintln!(
                "synts-perfbench: cache counters disagree with the spans: {cache:?} vs {span_misses} misses in {n} ops"
            );
            result.failed += 1;
        }
        let lookup_spans = totals.get("CharCache::entry").copied().unwrap_or(0.0)
            + totals.get("CacheEntry::load").copied().unwrap_or(0.0);
        let store_spans = totals.get("CacheEntry::store").copied().unwrap_or(0.0);
        result.cross_checks = vec![
            ("cache.hits".to_string(), cache.hits as f64),
            ("cache.misses".to_string(), cache.misses as f64),
            (
                "phase.cache_lookup_over_spans".to_string(),
                ratio(phase.cache_lookup_ns as f64 * 1e-9, lookup_spans),
            ),
            (
                "phase.cache_store_over_spans".to_string(),
                ratio(phase.cache_store_ns as f64 * 1e-9, store_spans),
            ),
        ];
        result.trace = Some(tracer);
    }
    let _ = std::fs::remove_dir_all(&figs.dir);
    Ok(result)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
