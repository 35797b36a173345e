//! One generator per paper artifact. Each returns a [`Figure`]: rendered
//! text, optional CSV rows, and the *shape checks* — the qualitative claims
//! of the paper that the reproduction is expected to reproduce (who wins,
//! by roughly what factor, where the structure lies).

use std::sync::Arc;

use circuits::{AdderKind, SimpleAlu, StageKind};
use gpgpu::{GpuKernel, SimdConfig, SimdUnit};
use synts_core::experiments::BenchmarkData;
use synts_core::{
    estimate_overhead_defaults, run_interval, run_interval_offline, Experiment, OptError, Quality,
    SamplingPlan, ScenarioSpec, Solver, SolverRegistry, ThreadPool, ThreadProfile,
};
use timing::{EnergyDelay, ErrorCurve, ErrorModel, StageCharacterizer, VOLTAGE_TABLE_POINTS};
use workloads::Benchmark;

use crate::corpus::Corpus;
use crate::render::{f, report_rows, table};

/// Resolves a default registry key to its solver; figure labels come
/// from [`Solver::label`], so tables and CSVs can never drift from the
/// names the solvers declare.
pub(crate) fn solver(key: &str) -> Arc<dyn Solver<ErrorCurve>> {
    SolverRegistry::with_defaults()
        .get(key)
        .expect("default registry key")
}

/// One qualitative claim and whether the reproduction satisfies it.
#[derive(Debug, Clone)]
pub struct Check {
    /// The claim, phrased as in the paper.
    pub claim: String,
    /// Whether the measured data satisfies it.
    pub pass: bool,
}

impl Check {
    /// Creates a check from a claim and its measured outcome.
    pub fn new(claim: impl Into<String>, pass: bool) -> Check {
        Check {
            claim: claim.into(),
            pass,
        }
    }
}

/// A regenerated table or figure.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Stable identifier (e.g. `fig-6-11`).
    pub id: &'static str,
    /// Human-readable title.
    pub title: String,
    /// Rendered text body.
    pub text: String,
    /// CSV payload (header, rows) for `results/<id>.csv`.
    pub csv: Option<(Vec<&'static str>, Vec<Vec<String>>)>,
    /// Shape checks against the paper's claims.
    pub checks: Vec<Check>,
}

fn corpus_data(
    corpus: &Corpus,
    bench: Benchmark,
    stage: StageKind,
) -> Result<&BenchmarkData, OptError> {
    // Corpus misses manifest as empty trace errors upstream; use BadConfig
    // to make the message actionable.
    corpus.get(bench, stage).ok_or(OptError::BadConfig(
        "corpus does not contain the requested benchmark/stage",
    ))
}

/// Profiles over the subsampled trace population (N = trace length), the
/// common basis for every Fig 6.18 bar.
fn trace_profiles(
    iv: &synts_core::experiments::IntervalData,
) -> Result<Vec<ThreadProfile<ErrorCurve>>, OptError> {
    iv.thread_traces()
        .iter()
        .map(|tr| {
            Ok(ThreadProfile::new(
                tr.normalized_delays.len() as f64,
                tr.cpi_base,
                tr.exact_curve()?,
            ))
        })
        .collect()
}

/// Table 5.1: voltage vs nominal clock period, via a ring oscillator built
/// from the cell library.
///
/// # Errors
///
/// Propagates netlist construction failures.
pub fn table_5_1() -> Result<Figure, OptError> {
    use gatelib::{CellKind, NetlistBuilder, StaticTiming, Voltage};
    // A 31-stage inverter chain stands in for the ring oscillator (the
    // period ratio is what matters and is length-invariant).
    let mut b = NetlistBuilder::new("ring31");
    let start = b.input("in");
    let mut n = start;
    for _ in 0..31 {
        n = b
            .cell(CellKind::Inv, &[n])
            .map_err(timing::TimingError::from)?;
    }
    b.output(n, "out");
    let ring = b.finish().map_err(timing::TimingError::from)?;
    let base = StaticTiming::analyze(&ring, Voltage::NOMINAL)
        .map_err(timing::TimingError::from)?
        .nominal_period();

    let mut rows = Vec::new();
    let mut checks = Vec::new();
    for &(v, published) in &VOLTAGE_TABLE_POINTS {
        let volt = Voltage::new(v).map_err(timing::TimingError::from)?;
        let period = StaticTiming::analyze(&ring, volt)
            .map_err(timing::TimingError::from)?
            .nominal_period();
        let measured = period / base;
        rows.push(vec![f(v, 2), f(published, 2), f(measured, 4)]);
        checks.push(Check::new(
            format!("ring oscillator at {v:.2} V reproduces multiplier {published}"),
            (measured - published).abs() < 1e-9,
        ));
    }
    let text = table(&["Vdd (V)", "paper tnom (x)", "measured tnom (x)"], &rows);
    Ok(Figure {
        id: "table-5-1",
        title: "Table 5.1: Voltage versus nominal clock period".into(),
        text,
        csv: Some((vec!["vdd", "paper", "measured"], rows)),
        checks,
    })
}

/// Fig 1.2: performance vs speculative clock for one thread — the interior
/// optimum f_s.
///
/// # Errors
///
/// Propagates [`OptError`] from the corpus.
pub fn fig_1_2(corpus: &Corpus) -> Result<Figure, OptError> {
    let data = corpus_data(corpus, Benchmark::Fmm, StageKind::SimpleAlu)?;
    let td = &data.intervals[0].threads[0];
    let c_pen = 5.0;
    let mut rows = Vec::new();
    let mut best = (1.0f64, 0.0f64); // (r, perf)
    let nominal_spi = 1.0 * (td.cpi_base);
    for i in 0..=60 {
        let r = 0.40 + 0.01 * i as f64;
        let p = td.curve.err(r);
        let spi = r * (p * c_pen + td.cpi_base);
        let perf = nominal_spi / spi;
        if perf > best.1 {
            best = (r, perf);
        }
        rows.push(vec![f(r, 2), f(p, 4), f(perf, 4)]);
    }
    let perf_at_min = {
        let r = 0.40;
        let p = td.curve.err(r);
        nominal_spi / (r * (p * c_pen + td.cpi_base))
    };
    let checks = vec![
        Check::new(
            "an optimal speculative clock f_s exists below f_0",
            best.0 < 1.0,
        ),
        Check::new(
            "clocking past f_s degrades performance (recovery dominates)",
            best.1 > perf_at_min,
        ),
        Check::new("speculation at f_s beats nominal", best.1 > 1.0),
    ];
    let mut text = table(&["r", "err(r)", "perf (x nominal)"], &rows);
    text.push_str(&format!(
        "\noptimum: r = {:.2}, perf = {:.3}x\n",
        best.0, best.1
    ));
    Ok(Figure {
        id: "fig-1-2",
        title: "Fig 1.2: Timing speculation vs error probability trade-off".into(),
        text,
        csv: Some((vec!["r", "err", "perf"], rows)),
        checks,
    })
}

/// Fig 3.5: per-thread error probability vs normalized clock period for one
/// Radix barrier interval.
///
/// # Errors
///
/// Propagates [`OptError`] from the corpus.
pub fn fig_3_5(corpus: &Corpus) -> Result<Figure, OptError> {
    let data = corpus_data(corpus, Benchmark::Radix, StageKind::Decode)?;
    let iv = &data.intervals[data.most_heterogeneous_interval()];
    let grid: Vec<f64> = (0..=9).map(|i| 0.60 + 0.045 * i as f64).collect();
    let mut rows = Vec::new();
    for &r in &grid {
        let mut row = vec![f(r, 3)];
        for t in &iv.threads {
            row.push(f(t.curve.err(r), 4));
        }
        rows.push(row);
    }
    // Heterogeneity factor at the most aggressive grid point with activity.
    let mut factor: f64 = 1.0;
    for &r in &grid {
        let errs: Vec<f64> = iv.threads.iter().map(|t| t.curve.err(r)).collect();
        let max = errs.iter().fold(0.0f64, |a, &b| a.max(b));
        let min = errs.iter().copied().fold(f64::INFINITY, f64::min);
        if min > 1e-6 {
            factor = factor.max(max / min);
        }
    }
    let t0_critical = {
        let r = 0.64;
        iv.threads
            .iter()
            .enumerate()
            .max_by(|a, b| {
                a.1.curve
                    .err(r)
                    .partial_cmp(&b.1.curve.err(r))
                    .expect("finite")
            })
            .map(|(i, _)| i)
            == Some(0)
    };
    let checks = vec![
        Check::new(
            format!("thread error curves are heterogeneous (worst/best = {factor:.1}x, paper ~4x)"),
            factor > 2.0,
        ),
        Check::new(
            "thread 0 consistently has the highest error probability",
            t0_critical,
        ),
        Check::new(
            "error probability decreases with the clock period",
            iv.threads
                .iter()
                .all(|t| t.curve.err(0.64) >= t.curve.err(0.9)),
        ),
    ];
    let header = ["r", "T0", "T1", "T2", "T3"];
    let text = table(&header, &rows);
    Ok(Figure {
        id: "fig-3-5",
        title: "Fig 3.5: Timing error probability per thread, Radix (Decode)".into(),
        text,
        csv: Some((vec!["r", "t0", "t1", "t2", "t3"], rows)),
        checks,
    })
}

/// Fig 3.6: the two-step motivational example on the Fig 3.5 curves.
///
/// # Errors
///
/// Propagates [`OptError`] from the corpus.
pub fn fig_3_6(corpus: &Corpus) -> Result<Figure, OptError> {
    let data = corpus_data(corpus, Benchmark::Radix, StageKind::Decode)?;
    let cfg = data.system_config();
    let iv = &data.intervals[data.most_heterogeneous_interval()];
    let profiles = iv.profiles();
    let m = profiles.len();

    let time_at = |p: &ThreadProfile<ErrorCurve>, vj: usize, rk: usize| {
        synts_core::thread_time(
            &cfg,
            p,
            synts_core::OperatingPoint {
                voltage_idx: vj,
                tsr_idx: rk,
            },
        )
    };
    let energy_at = |p: &ThreadProfile<ErrorCurve>, vj: usize, rk: usize| {
        synts_core::thread_energy(
            &cfg,
            p,
            synts_core::OperatingPoint {
                voltage_idx: vj,
                tsr_idx: rk,
            },
        )
    };

    // (a) Nominal: V = 1.0, r = 1 for everyone.
    let r1 = cfg.s() - 1;
    let nominal_times: Vec<f64> = profiles.iter().map(|p| time_at(p, 0, r1)).collect();
    let nominal_energy: f64 = profiles.iter().map(|p| energy_at(p, 0, r1)).sum();
    let nominal_texec = nominal_times.iter().copied().fold(0.0f64, f64::max);

    // (b) Step 1: one common speculative clock for all threads at V = 1 —
    // the r that minimizes the barrier time.
    let mut best_k = r1;
    let mut best_texec = nominal_texec;
    for k in 0..cfg.s() {
        let texec = profiles
            .iter()
            .map(|p| time_at(p, 0, k))
            .fold(0.0f64, f64::max);
        if texec < best_texec {
            best_texec = texec;
            best_k = k;
        }
    }
    let step1_times: Vec<f64> = profiles.iter().map(|p| time_at(p, 0, best_k)).collect();
    let step1_texec = best_texec;
    let critical = step1_times
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .expect("non-empty")
        .0;

    // (c) Step 2: non-critical threads drop to their cheapest (V, r) that
    // still meets the step-1 barrier time.
    let mut step2_energy = 0.0;
    let mut step2_points: Vec<(usize, usize)> = Vec::new();
    for (i, p) in profiles.iter().enumerate() {
        if i == critical {
            step2_energy += energy_at(p, 0, best_k);
            step2_points.push((0, best_k));
            continue;
        }
        let mut best_e = energy_at(p, 0, best_k);
        let mut best_pt = (0usize, best_k);
        for vj in 0..cfg.q() {
            for rk in 0..cfg.s() {
                if time_at(p, vj, rk) <= step1_texec * (1.0 + 1e-12) {
                    let e = energy_at(p, vj, rk);
                    if e < best_e {
                        best_e = e;
                        best_pt = (vj, rk);
                    }
                }
            }
        }
        step2_energy += best_e;
        step2_points.push(best_pt);
    }

    let dt = 100.0 * (1.0 - step1_texec / nominal_texec);
    let de = 100.0 * (1.0 - step2_energy / nominal_energy);
    let mut rows = Vec::new();
    for i in 0..m {
        let (vj, rk) = step2_points[i];
        rows.push(vec![
            format!("T{i}"),
            f(nominal_times[i] / nominal_texec, 3),
            f(step1_times[i] / nominal_texec, 3),
            format!(
                "{:.2}V/r={:.2}",
                cfg.voltages.levels()[vj].volts(),
                cfg.tsr_levels[rk]
            ),
        ]);
    }
    let mut text = table(&["thread", "t nominal", "t step-1", "step-2 point"], &rows);
    text.push_str(&format!(
        "\nstep 1 (common r = {:.2}): execution time -{dt:.1}% vs nominal\n\
         step 2 (per-thread V): energy -{de:.1}% vs nominal\n",
        cfg.tsr_levels[best_k]
    ));
    let checks = vec![
        Check::new("step 1 speculation shortens the barrier interval", dt > 0.0),
        Check::new(
            "step 2 voltage scaling cuts energy without hurting time",
            de > 0.0,
        ),
        Check::new(
            "slack exists: some non-critical thread runs below nominal voltage",
            step2_points
                .iter()
                .enumerate()
                .any(|(i, &(vj, _))| i != critical && vj > 0),
        ),
    ];
    Ok(Figure {
        id: "fig-3-6",
        title:
            "Fig 3.6: SynTS motivational example (frequency up-scaling, then voltage down-scaling)"
                .into(),
        text,
        csv: None,
        checks,
    })
}

/// Fig 5.10: hamming-distance bar graphs for the vector ALUs of one SIMD
/// unit.
///
/// # Errors
///
/// Propagates [`timing::TimingError`] if lane characterization fails.
pub fn fig_5_10() -> Result<Figure, OptError> {
    let unit = SimdUnit::new(SimdConfig::hd7970());
    let mut rows = Vec::new();
    let mut checks = Vec::new();
    let mut worst = 1.0f64;
    for kernel in GpuKernel::ALL {
        let run = unit.run(kernel, 16_384, 0x5710);
        let report = run.hamming_report();
        worst = worst.min(report.min_similarity);
        let mut row = vec![kernel.to_string(), f(report.min_similarity, 3)];
        for lane in 0..6 {
            row.push(f(report.mean_distances[lane], 2));
        }
        rows.push(row);
        checks.push(Check::new(
            format!("{kernel}: 16 VALUs have qualitatively similar hamming histograms"),
            report.min_similarity > 0.85,
        ));
    }
    checks.push(Check::new(
        "homogeneity holds for every kernel (per-core TS suffices on this GPGPU)",
        worst > 0.85,
    ));
    let text = table(
        &[
            "kernel", "min-sim", "VALU0", "VALU1", "VALU2", "VALU3", "VALU4", "VALU5",
        ],
        &rows,
    );
    Ok(Figure {
        id: "fig-5-10",
        title: "Fig 5.10: Hamming-distance profiles of the vector ALUs (HD 7970 SIMD unit)".into(),
        text,
        csv: Some((
            vec![
                "kernel",
                "min_similarity",
                "v0",
                "v1",
                "v2",
                "v3",
                "v4",
                "v5",
            ],
            rows,
        )),
        checks,
    })
}

/// The committed scenario specs behind the Pareto figures
/// (Figs 6.11–6.16) — each figure *is* its spec file; `synts-cli run
/// crates/bench/specs/<id>.json` executes the identical scenario from
/// disk.
pub const PARETO_SPECS: &[(&str, &str)] = &[
    ("fig-6-11", include_str!("../specs/fig-6-11.json")),
    ("fig-6-12", include_str!("../specs/fig-6-12.json")),
    ("fig-6-13", include_str!("../specs/fig-6-13.json")),
    ("fig-6-14", include_str!("../specs/fig-6-14.json")),
    ("fig-6-15", include_str!("../specs/fig-6-15.json")),
    ("fig-6-16", include_str!("../specs/fig-6-16.json")),
];

/// The committed spec source of one Pareto figure, under its static id.
fn committed_spec(id: &str) -> Result<(&'static str, &'static str), OptError> {
    PARETO_SPECS
        .iter()
        .find(|(k, _)| *k == id)
        .copied()
        .ok_or_else(|| OptError::Spec(format!("no committed spec for figure '{id}'")))
}

/// Parses the committed spec of one Pareto figure.
///
/// # Errors
///
/// [`OptError::Spec`] for unknown ids or malformed committed specs.
pub fn pareto_spec(id: &str) -> Result<ScenarioSpec, OptError> {
    ScenarioSpec::from_json_str(committed_spec(id)?.1)
}

/// One Pareto figure (Figs 6.11–6.16): energy vs execution time for SynTS,
/// Per-core TS and No-TS, normalized to Nominal. The data comes entirely
/// from the committed [`ScenarioSpec`] `id` (a key of [`PARETO_SPECS`],
/// which also names the figure: `fig-6-12` is Fig 6.12) run through
/// [`Experiment::run_on`] on the spec's benchmark and stage; this function
/// is only the renderer over the structured [`synts_core::Report`].
///
/// # Errors
///
/// [`OptError::Spec`] for an id without a committed spec; otherwise
/// propagates [`OptError`] from the scenario runner.
pub fn fig_pareto(corpus: &Corpus, id: &str) -> Result<Figure, OptError> {
    let (id, src) = committed_spec(id)?;
    let spec = ScenarioSpec::from_json_str(src)?;
    let (bench, stage) = (spec.benchmark, spec.stage);
    let figure_no = id.trim_start_matches("fig-").replace('-', ".");
    let data = corpus_data(corpus, bench, stage)?;
    let report = Experiment::new(spec).run_on(data)?;

    // Render the report: rows are (label, theta/eq, normalized axes).
    // The committed spec is hand-editable data, so a spec that dropped
    // the normalization or a scheme surfaces as an error, not a panic.
    let (_, rows) = report_rows(&report);
    let nominal = report.baseline.ok_or(OptError::BadConfig(
        "a Pareto figure spec must set normalize_to",
    ))?;

    // Shape checks over the report data. SynTS optimizes Eq 4.4 exactly,
    // so at every theta its weighted cost lower-bounds each baseline's
    // (the pointwise-dominance picture of the paper's figures, stated in
    // its provable form).
    let normalized = |key: &str| -> Result<Vec<EnergyDelay>, OptError> {
        report
            .dataset(key)
            .ok_or(OptError::BadConfig(
                "a Pareto figure spec must keep the synts_poly/per_core_ts/no_ts schemes",
            ))?
            .records
            .iter()
            .map(|r| {
                r.normalized.ok_or(OptError::BadConfig(
                    "a Pareto figure spec must normalize its records",
                ))
            })
            .collect()
    };
    let synts = normalized("synts_poly")?;
    let percore = normalized("per_core_ts")?;
    let nots = normalized("no_ts")?;
    let theta_dominant = report.theta_grid.iter().enumerate().all(|(i, &theta)| {
        // De-normalize to absolute units before applying Eq 4.4.
        let cost = |p: &EnergyDelay| p.energy * nominal.energy + theta * p.time * nominal.time;
        cost(&synts[i]) <= cost(&percore[i]) * (1.0 + 1e-9)
            && cost(&synts[i]) <= cost(&nots[i]) * (1.0 + 1e-9)
    });
    let fastest_synts = synts.iter().map(|p| p.time).fold(f64::INFINITY, f64::min);
    let fastest_nots = nots.iter().map(|p| p.time).fold(f64::INFINITY, f64::min);
    let min_energy_synts = synts.iter().map(|p| p.energy).fold(f64::INFINITY, f64::min);
    let checks = vec![
        Check::new(
            "SynTS's weighted cost lower-bounds Per-core TS and No-TS at every theta",
            theta_dominant,
        ),
        Check::new(
            "timing speculation reaches shorter execution times than No-TS",
            fastest_synts < fastest_nots - 1e-9,
        ),
        Check::new(
            "voltage scaling reaches well below nominal energy",
            min_energy_synts < 0.9,
        ),
    ];
    let text = table(
        &["scheme", "theta/eq", "time (norm)", "energy (norm)"],
        &rows,
    );
    Ok(Figure {
        id,
        title: format!("Fig {figure_no}: Energy vs execution time, {bench} ({stage})"),
        text,
        csv: Some((vec!["scheme", "theta", "time", "energy"], rows)),
        checks,
    })
}

/// Fig 6.17: actual vs online-estimated error probability, Radix and FMM.
///
/// # Errors
///
/// Propagates [`OptError`] from estimation.
pub fn fig_6_17(corpus: &Corpus) -> Result<Figure, OptError> {
    let mut rows = Vec::new();
    let mut checks = Vec::new();
    for bench in [Benchmark::Radix, Benchmark::Fmm] {
        let data = corpus_data(corpus, bench, StageKind::SimpleAlu)?;
        let cfg = data.system_config();
        let iv = &data.intervals[data.most_heterogeneous_interval()];
        let traces = iv.thread_traces();
        let longest = traces
            .iter()
            .map(|t| t.normalized_delays.len())
            .max()
            .unwrap_or(0);
        let plan = SamplingPlan::paper_default(longest, cfg.s());
        // Binomial sampling noise per level: sigma <= sqrt(0.25 / n).
        let n_per_level = (plan.n_samp / cfg.s()).max(1) as f64;
        let sigma = (0.25 / n_per_level).sqrt();
        let gap_budget = (3.0 * sigma).max(0.05);
        let mut max_gap = 0.0f64;
        let mut critical_match = true;
        for &r in &cfg.tsr_levels {
            let mut ranked: Vec<(usize, f64, f64)> = Vec::new(); // (tid, actual, est)
            for (t, tr) in traces.iter().enumerate() {
                let est = synts_core::online::estimate_curve(&cfg, &tr.normalized_delays, plan)?;
                let actual = tr.exact_curve()?;
                let (ea, ee) = (actual.err(r), est.err(r));
                max_gap = max_gap.max((ea - ee).abs());
                ranked.push((t, ea, ee));
                rows.push(vec![
                    bench.to_string(),
                    format!("T{t}"),
                    f(r, 3),
                    f(ea, 4),
                    f(ee, 4),
                ]);
            }
            ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
            let (crit_tid, crit_err, _) = ranked[0];
            let runner_up = ranked.get(1).map(|x| x.1).unwrap_or(0.0);
            // Only demand identification when the criticality signal rises
            // above sampling noise (the paper's intervals are 25x longer).
            if crit_err - runner_up > 2.0 * sigma {
                let est_top = ranked
                    .iter()
                    .max_by(|a, b| a.2.partial_cmp(&b.2).expect("finite"))
                    .expect("non-empty")
                    .0;
                if est_top != crit_tid {
                    critical_match = false;
                }
            }
        }
        checks.push(Check::new(
            format!(
                "{bench}: estimates track the actual error probabilities \
                 (max gap {max_gap:.3}, noise budget {gap_budget:.3})"
            ),
            max_gap < gap_budget,
        ));
        checks.push(Check::new(
            format!(
                "{bench}: the speculation-critical thread is identified whenever distinguishable"
            ),
            critical_match,
        ));
    }
    let text = table(&["benchmark", "thread", "r", "actual", "estimated"], &rows);
    Ok(Figure {
        id: "fig-6-17",
        title: "Fig 6.17: Actual vs online-estimated error probability (Radix, FMM)".into(),
        text,
        csv: Some((
            vec!["benchmark", "thread", "r", "actual", "estimated"],
            rows,
        )),
        checks,
    })
}

/// Fig 6.18: EDP of SynTS(online), No-TS and Nominal across the seven
/// benchmarks and three stages, normalized to SynTS(offline).
///
/// # Errors
///
/// Propagates [`OptError`] from the pipeline.
pub fn fig_6_18(corpus: &Corpus) -> Result<Figure, OptError> {
    let mut rows = Vec::new();
    let mut checks = Vec::new();
    let mut overheads = Vec::new();
    let mut wins_count = 0usize;
    let mut total_count = 0usize;
    let mut sums = (0.0f64, 0.0f64, 0.0f64); // online, no-ts, nominal
    let (nominal, no_ts) = (solver("nominal"), solver("no_ts"));
    for stage in StageKind::ALL {
        for bench in Benchmark::REPORTED {
            let Some(data) = corpus.get(bench, stage) else {
                continue;
            };
            // Every scheme is evaluated over the same (subsampled)
            // instruction population so the normalization is consistent.
            let cfg = data.system_config();
            let mut nominal_ed = EnergyDelay::new(0.0, 0.0);
            let mut nots_ed = EnergyDelay::new(0.0, 0.0);
            let mut offline_ed = EnergyDelay::new(0.0, 0.0);
            let mut online_ed = EnergyDelay::new(0.0, 0.0);
            // Re-characterize each interval exactly once (profiles and
            // traces come off the batched characterization products) and
            // share the result between the equal-weight θ derivation and
            // all four schemes — intervals fan out across the pool.
            let prepared = ThreadPool::from_env().try_map(&data.intervals, |_, iv| {
                let profiles = trace_profiles(iv)?;
                let (_, ed) = nominal.solve_evaluated(&cfg, &profiles, 1.0)?;
                Ok::<_, OptError>((profiles, iv.thread_traces(), ed))
            })?;
            // Equal-weight theta over the trace population.
            let mut theta_en = 0.0;
            let mut theta_t = 0.0;
            for (_, _, ed) in &prepared {
                theta_en += ed.energy;
                theta_t += ed.time;
            }
            if theta_t <= 0.0 {
                // The stage saw no activity for this benchmark (e.g. the
                // multiply-free Radix on the operand-isolated ComplexALU).
                rows.push(vec![
                    stage.to_string(),
                    bench.to_string(),
                    "idle".into(),
                    "idle".into(),
                    "idle".into(),
                ]);
                continue;
            }
            let theta = theta_en / theta_t;
            // One task per barrier interval: the four schemes of one
            // interval reuse the profiles/traces prepared above, and
            // intervals are independent, so they fan out across the pool.
            let per_interval = ThreadPool::from_env().try_map(&prepared, |_, item| {
                let (profiles, traces, _) = item;
                let (_, nom) = nominal.solve_evaluated(&cfg, profiles, theta)?;
                let (_, nots) = no_ts.solve_evaluated(&cfg, profiles, theta)?;
                let (_, off) = run_interval_offline(&cfg, traces, theta)?;
                let longest = traces
                    .iter()
                    .map(|t| t.normalized_delays.len())
                    .max()
                    .unwrap_or(0);
                let plan = SamplingPlan::paper_default(longest, cfg.s());
                let out = run_interval(&cfg, traces, theta, plan)?;
                Ok::<_, OptError>((nom, nots, off, out.total))
            })?;
            for (nom, nots, off, online) in per_interval {
                nominal_ed.energy += nom.energy;
                nominal_ed.time += nom.time;
                nots_ed.energy += nots.energy;
                nots_ed.time += nots.time;
                offline_ed.energy += off.energy;
                offline_ed.time += off.time;
                online_ed.energy += online.energy;
                online_ed.time += online.time;
            }
            let base = offline_ed.edp();
            let online_n = online_ed.edp() / base;
            let nots_n = nots_ed.edp() / base;
            let nominal_n = nominal_ed.edp() / base;
            overheads.push(online_n - 1.0);
            let wins = online_n <= nots_n * 1.02 && online_n <= nominal_n * 1.02;
            if wins {
                wins_count += 1;
            }
            total_count += 1;
            sums.0 += online_n;
            sums.1 += nots_n;
            sums.2 += nominal_n;
            rows.push(vec![
                stage.to_string(),
                format!("{bench}{}", if wins { "" } else { " *" }),
                f(online_n, 3),
                f(nots_n, 3),
                f(nominal_n, 3),
            ]);
        }
    }
    let avg_overhead = overheads.iter().sum::<f64>() / overheads.len().max(1) as f64;
    // Sampling fidelity scales with trace depth: at Quick quality the
    // sampling phase gets only a handful of instructions per TSR level, so
    // the estimate-driven results carry the corresponding noise.
    let paper_fidelity = corpus.quality() == Quality::Paper;
    let overhead_bound = if paper_fidelity { 0.35 } else { 0.90 };
    checks.push(Check::new(
        format!(
            "online-vs-offline EDP overhead is modest (avg {:.1}%, paper ~10.3%)",
            100.0 * avg_overhead
        ),
        avg_overhead > -0.05 && avg_overhead < overhead_bound,
    ));
    if paper_fidelity {
        let n = total_count.max(1) as f64;
        checks.push(Check::new(
            format!(
                "SynTS(online) beats No-TS and Nominal in aggregate \
                 (mean EDP {:.2} vs {:.2} vs {:.2})",
                sums.0 / n,
                sums.1 / n,
                sums.2 / n
            ),
            sums.0 < sums.1 && sums.0 < sums.2,
        ));
        checks.push(Check::new(
            format!(
                "SynTS(online) wins on most benchmark/stage pairs \
                 ({wins_count}/{total_count}; rows marked * lose to a baseline — \
                 interval-prefix bias at reproduction scale, see README: Known deviations)"
            ),
            wins_count * 2 > total_count,
        ));
    } else {
        checks.push(Check::new(
            "(quick effort: cross-scheme comparison skipped — sampling phase too short)",
            true,
        ));
    }
    let online_label = format!("{}(online)", solver("synts_poly").label());
    let text = table(
        &[
            "stage",
            "benchmark",
            &online_label,
            no_ts.label(),
            nominal.label(),
        ],
        &rows,
    );
    Ok(Figure {
        id: "fig-6-18",
        title: "Fig 6.18: Normalized EDP (baseline = SynTS offline)".into(),
        text,
        csv: Some((
            vec!["stage", "benchmark", "online", "nots", "nominal"],
            rows,
        )),
        checks,
    })
}

/// Sec 6.3: hardware power/area overhead of SynTS-online.
///
/// # Errors
///
/// Propagates netlist construction failures.
pub fn sec_6_3() -> Result<Figure, OptError> {
    let report = estimate_overhead_defaults(16)?;
    let rows = vec![
        vec![
            "power overhead (%)".to_string(),
            f(report.power_pct(), 2),
            "3.41".into(),
        ],
        vec![
            "area overhead (%)".to_string(),
            f(report.area_pct(), 2),
            "2.70".into(),
        ],
    ];
    let checks = vec![
        Check::new(
            format!(
                "power overhead is a few percent ({:.2}%, paper 3.41%)",
                report.power_pct()
            ),
            report.power_pct() > 0.5 && report.power_pct() < 8.0,
        ),
        Check::new(
            format!(
                "area overhead is a few percent ({:.2}%, paper 2.7%)",
                report.area_pct()
            ),
            report.area_pct() > 0.5 && report.area_pct() < 8.0,
        ),
        Check::new(
            "power overhead exceeds area overhead (shadow latches clock every cycle)",
            report.power_fraction > report.area_fraction,
        ),
    ];
    let text = table(&["metric", "measured", "paper"], &rows);
    Ok(Figure {
        id: "sec-6-3",
        title: "Sec 6.3: SynTS-online hardware overhead".into(),
        text,
        csv: Some((vec!["metric", "measured", "paper"], rows)),
        checks,
    })
}

/// The headline claim: best-case EDP reduction of SynTS vs Per-core TS per
/// stage (paper: 26% Decode, 25% SimpleALU, 7.5% ComplexALU).
///
/// # Errors
///
/// Propagates [`OptError`] from the pipeline.
pub fn headline(corpus: &Corpus) -> Result<Figure, OptError> {
    let mut rows = Vec::new();
    let mut checks = Vec::new();
    let mut best_by_stage = Vec::new();
    for stage in StageKind::ALL {
        let mut best = 0.0f64;
        let mut best_bench = None;
        for bench in Benchmark::REPORTED {
            let Some(data) = corpus.get(bench, stage) else {
                continue;
            };
            // One data-driven scenario per cell: both schemes at the
            // equal-weight θ over all intervals.
            let spec = ScenarioSpec::new(format!("headline-{bench}-{stage}"), bench, stage)
                .schemes(["synts_poly", "per_core_ts"]);
            let report = Experiment::new(spec).run_on(data)?;
            let synts = report.datasets[0].records[0].ed;
            let percore = report.datasets[1].records[0].ed;
            let gain = 100.0 * (1.0 - synts.edp() / percore.edp());
            rows.push(vec![stage.to_string(), bench.to_string(), f(gain, 1)]);
            if gain > best {
                best = gain;
                best_bench = Some(bench);
            }
        }
        best_by_stage.push((stage, best, best_bench));
    }
    for &(stage, best, bench) in &best_by_stage {
        let paper = match stage {
            StageKind::Decode => 26.0,
            StageKind::SimpleAlu => 25.0,
            StageKind::ComplexAlu => 7.5,
        };
        rows.push(vec![
            stage.to_string(),
            format!(
                "BEST ({})",
                bench.map(|b| b.to_string()).unwrap_or_default()
            ),
            f(best, 1),
        ]);
        checks.push(Check::new(
            format!("{stage}: SynTS beats per-core TS (best {best:.1}%, paper up to {paper}%)"),
            best > 1.0,
        ));
    }
    // The ordering claim: ComplexALU benefits least.
    let complex_best = best_by_stage
        .iter()
        .find(|(s, _, _)| *s == StageKind::ComplexAlu)
        .map(|&(_, b, _)| b)
        .unwrap_or(0.0);
    let others_best = best_by_stage
        .iter()
        .filter(|(s, _, _)| *s != StageKind::ComplexAlu)
        .map(|&(_, b, _)| b)
        .fold(0.0f64, f64::max);
    checks.push(Check::new(
        "the ComplexALU shows the smallest best-case gain (paper: 7.5% vs 25-26%)",
        complex_best < others_best,
    ));
    let text = table(
        &["stage", "benchmark", "EDP gain vs per-core TS (%)"],
        &rows,
    );
    Ok(Figure {
        id: "headline",
        title: "Headline: EDP reduction vs per-core timing speculation".into(),
        text,
        csv: Some((vec!["stage", "benchmark", "gain_pct"], rows)),
        checks,
    })
}

/// Design-choice ablation: how the SimpleALU adder topology reshapes the
/// error-probability curve (and therefore the speculation headroom).
///
/// # Errors
///
/// Propagates [`OptError`] from characterization.
pub fn ablation_adders(corpus: &Corpus) -> Result<Figure, OptError> {
    // Corpus presence check; events come from a fresh run.
    corpus_data(corpus, Benchmark::Radix, StageKind::SimpleAlu)?;
    let cfg = corpus.quality().harness();
    let trace = Benchmark::Radix.run(&cfg.workload);
    let events = &trace.intervals[trace.intervals.len() - 1].thread(0).events;

    let mut rows = Vec::new();
    let mut tnoms = Vec::new();
    let mut means = Vec::new();
    for kind in AdderKind::ALL {
        let name = kind.name();
        let alu =
            SimpleAlu::with_adder(cfg.workload.width, kind).map_err(timing::TimingError::from)?;
        let charac = StageCharacterizer::from_stage(Box::new(alu))?;
        let trace = charac.delay_trace_sampled(events, cfg.max_samples)?;
        let curve = ErrorCurve::from_trace(&trace);
        tnoms.push((name, charac.tnom_v1()));
        means.push(trace.mean_normalized());
        rows.push(vec![
            name.to_string(),
            f(charac.tnom_v1(), 1),
            f(trace.mean_normalized(), 3),
            f(curve.err(0.7), 4),
            f(curve.err(0.8), 4),
            f(curve.err(0.9), 4),
        ]);
    }
    let ripple_tnom = tnoms[0].1;
    let ks_tnom = tnoms[2].1; // AdderKind::ALL order: ripple, cla, ks, ...
    let checks = vec![
        Check::new(
            format!(
                "the log-depth adder shortens the stage's nominal period \
                 ({ks_tnom:.1} vs {ripple_tnom:.1})"
            ),
            ks_tnom < 0.9 * ripple_tnom,
        ),
        Check::new(
            format!(
                "topology reshapes the delay distribution (mean {:.3} vs {:.3} of tnom)",
                means[0], means[2]
            ),
            (means[0] - means[2]).abs() > 0.02,
        ),
    ];
    let text = table(
        &[
            "adder",
            "tnom (1.0V)",
            "mean d/tnom",
            "err(0.7)",
            "err(0.8)",
            "err(0.9)",
        ],
        &rows,
    );
    Ok(Figure {
        id: "ablation-adders",
        title: "Ablation: SimpleALU adder topology vs error-probability curve".into(),
        text,
        csv: Some((
            vec!["adder", "tnom", "mean", "err07", "err08", "err09"],
            rows,
        )),
        checks,
    })
}

/// Sec 5.4: benchmark classification by thread heterogeneity.
///
/// The paper characterizes ten SPLASH-2 benchmarks and reports results
/// for seven: "FFT, Ocean and Water-sp have homogeneous error
/// probabilities for all threads", and "the FFT error probabilities are
/// high and do not permit any timing speculation". This target measures
/// the per-thread error spread of every benchmark on the SimpleALU and
/// checks that classification.
///
/// # Errors
///
/// Propagates characterization failures.
pub fn sec_5_4(corpus: &Corpus) -> Result<Figure, OptError> {
    // The shared corpus holds the seven reported benchmarks; characterize
    // the three homogeneous ones on demand.
    let extra = Corpus::build_subset(
        corpus.quality(),
        &[Benchmark::Fft, Benchmark::Ocean, Benchmark::WaterSp],
        &[StageKind::SimpleAlu],
    )?;
    let spread_of = |data: &BenchmarkData| -> f64 {
        let grid = [0.64, 0.7, 0.78, 0.86];
        let mut spread = 0.0f64;
        for iv in &data.intervals {
            for &r in &grid {
                let errs: Vec<f64> = iv.threads.iter().map(|t| t.curve.err(r)).collect();
                let max = errs.iter().copied().fold(0.0f64, f64::max);
                let min = errs.iter().copied().fold(f64::INFINITY, f64::min);
                spread = spread.max(max - min);
            }
        }
        spread
    };
    let mut rows = Vec::new();
    let mut homog = Vec::new();
    let mut het = Vec::new();
    for bench in workloads::Benchmark::ALL {
        let data = if bench.paper_homogeneous() {
            extra.get(bench, StageKind::SimpleAlu)
        } else {
            corpus.get(bench, StageKind::SimpleAlu)
        }
        .ok_or(OptError::BadConfig("benchmark missing from corpus"))?;
        let s = spread_of(data);
        if bench.paper_homogeneous() {
            homog.push(s);
        } else {
            het.push(s);
        }
        // Worst-thread error at the gentlest non-unity TSR (r = 0.928).
        let gentle = data
            .intervals
            .iter()
            .flat_map(|iv| iv.threads.iter())
            .map(|t| t.curve.err(0.928))
            .fold(0.0f64, f64::max);
        rows.push(vec![
            bench.name().to_string(),
            if bench.paper_homogeneous() {
                "homogeneous"
            } else {
                "reported"
            }
            .to_string(),
            f(s, 4),
            f(gentle, 4),
        ]);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let checks = vec![
        Check::new(
            format!(
                "homogeneous benchmarks show less thread spread than reported ones (mean {:.3} vs {:.3})",
                mean(&homog),
                mean(&het)
            ),
            mean(&homog) < mean(&het),
        ),
        Check::new(
            format!(
                "the widest thread spread sits in the reported group ({:.3} vs {:.3})",
                het.iter().copied().fold(0.0f64, f64::max),
                homog.iter().copied().fold(0.0f64, f64::max),
            ),
            het.iter().copied().fold(0.0f64, f64::max)
                > homog.iter().copied().fold(0.0f64, f64::max),
        ),
    ];
    // Note: the paper additionally reports that FFT's error probabilities
    // are too high to permit any speculation; our substrate's FFT
    // butterflies do not sensitize near-critical SimpleALU paths at gentle
    // ratios (FFT's row in the worst err(0.928) column), so that
    // particular magnitude claim does not transfer — see README,
    // "Reproducing the paper", Known deviations.
    Ok(Figure {
        id: "sec-5-4",
        title: "Sec 5.4: benchmark classification by thread heterogeneity (SimpleALU)".into(),
        text: table(
            &[
                "benchmark",
                "paper class",
                "max err spread",
                "worst err(0.928)",
            ],
            &rows,
        ),
        csv: Some((
            vec![
                "benchmark",
                "paper_class",
                "max_err_spread",
                "worst_err_0928",
            ],
            rows,
        )),
        checks,
    })
}
