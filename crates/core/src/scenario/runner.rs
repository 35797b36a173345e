//! [`Experiment`] — the single entry point that turns a
//! [`ScenarioSpec`] into a [`Report`].
//!
//! The runner owns the whole data-driven path: characterize (or accept a
//! pre-characterized [`BenchmarkData`]), select intervals, resolve the θ
//! grid, dispatch every scheme through the default
//! [`SolverRegistry`](crate::SolverRegistry), fan the
//! per-interval batched solves across the [`ThreadPool`], and assemble
//! typed records with Pareto fronts and invariant checks. Results are
//! bit-identical at any worker count: intervals are mapped in index
//! order and each interval runs its whole θ grid through one
//! [`crate::Solver::solve_batch`] call, exactly as the sequential loop
//! would.

use std::sync::Arc;

use archsim::{simulate_barrier, CoreSetting, RazorCore};
use timing::{pareto_front, EnergyDelay, ErrorCurve};

use crate::cache::{characterize_cached, CharCache};
use crate::error::OptError;
use crate::experiments::BenchmarkData;
use crate::model::{evaluate, Assignment, SystemConfig, ThreadProfile};
use crate::parallel::{worker_count, ThreadPool};
use crate::scenario::report::{Dataset, Record, Report, ReportCheck};
use crate::scenario::spec::{IntervalSelection, ScenarioSpec};
use crate::solver::{Objective, SolveRequest, Solver};

/// A configured scenario run: a spec plus the characterization cache it
/// runs against. Scheme keys resolve through [`ScenarioSpec::solvers`].
pub struct Experiment {
    spec: ScenarioSpec,
    cache: CharCache,
}

impl Experiment {
    /// An experiment over the environment-resolved characterization
    /// cache (`SYNTS_CACHE_DIR`).
    #[must_use]
    pub fn new(spec: ScenarioSpec) -> Experiment {
        Experiment {
            spec,
            cache: CharCache::from_env(),
        }
    }

    /// Replaces the characterization cache ([`CharCache::disabled`] to
    /// force a fresh gate-level characterization on every run).
    #[must_use]
    pub fn with_cache(mut self, cache: CharCache) -> Experiment {
        self.cache = cache;
        self
    }

    /// The spec this experiment runs.
    #[must_use]
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Characterizes the spec's benchmark/stage at the spec's quality
    /// and runs the scenario.
    ///
    /// Characterization consults the on-disk cache (a warm entry skips
    /// gate simulation, bit-identically) and fans a cold one across the
    /// spec's worker pool — the same pool the solve phase uses.
    ///
    /// # Errors
    ///
    /// Characterization failures, unknown scheme keys (listing the
    /// registered ones) and solver errors, as [`OptError`].
    pub fn run(&self) -> Result<Report, OptError> {
        // Resolve every named scheme first so a typo fails in
        // microseconds, not after a full characterization run.
        self.spec.solvers()?;
        let data = characterize_cached(
            self.spec.benchmark,
            self.spec.stage,
            &self.spec.quality.harness(),
            &self.cache,
            ThreadPool::new(worker_count(self.spec.workers)),
        )?;
        self.run_on(&data)
    }

    /// Runs the scenario over already-characterized data — the path the
    /// figure generators use to share one corpus across many scenarios
    /// (the spec's `quality` only governs [`Experiment::run`]'s own
    /// characterization; `data` is taken as-is).
    ///
    /// # Errors
    ///
    /// [`OptError::BadConfig`] if `data` is for a different
    /// benchmark/stage than the spec, otherwise as [`Experiment::run`].
    pub fn run_on(&self, data: &BenchmarkData) -> Result<Report, OptError> {
        let spec = &self.spec;
        let Grid {
            cfg,
            intervals_used,
            profile_sets,
            theta_center,
            theta_grid,
        } = resolve_grid(spec, data)?;
        let pool = ThreadPool::new(worker_count(spec.workers));

        // Resolve every scheme up front so an unknown key fails before
        // any solving starts, with the registered keys in the message.
        let (solvers, normalize_to) = spec.solvers()?;

        let baseline = match normalize_to {
            Some(solver) => {
                let (sums, _) =
                    run_scheme(pool, &cfg, &profile_sets, &*solver, &[theta_center], false)?;
                Some(sums[0])
            }
            None => None,
        };

        let mut datasets = Vec::with_capacity(solvers.len());
        for (key, solver) in spec.schemes.iter().zip(&solvers) {
            let (sums, assignments) = run_scheme(
                pool,
                &cfg,
                &profile_sets,
                &**solver,
                &theta_grid,
                spec.record_assignments,
            )?;
            let records: Vec<Record> = theta_grid
                .iter()
                .enumerate()
                .map(|(j, &theta)| Record {
                    theta,
                    ed: sums[j],
                    normalized: baseline.map(|base| sums[j].normalized_to(base)),
                    assignments: assignments
                        .as_ref()
                        .map(|per_interval| per_interval.iter().map(|iv| iv[j].clone()).collect()),
                })
                .collect();
            let pareto = pareto_front(&sums);
            datasets.push(Dataset {
                scheme: key.clone(),
                label: solver.label().to_string(),
                records,
                pareto,
            });
        }

        let mut checks = dominance_checks(&solvers, &theta_grid, &datasets);
        if spec.verify_model {
            // Verify the first *speculating* scheme so the simulation
            // actually exercises the Razor error/replay path; a
            // zero-speculation baseline would pass vacuously.
            let verify_idx = solvers
                .iter()
                .position(|s| s.capabilities().speculates)
                .unwrap_or(0);
            checks.push(model_vs_sim_check(
                &cfg,
                data,
                intervals_used[0],
                &*solvers[verify_idx],
                theta_grid[0],
            )?);
        }

        Ok(Report {
            spec: spec.clone(),
            tnom_v1: data.tnom_v1,
            intervals_used,
            theta_center,
            theta_grid,
            baseline,
            datasets,
            checks,
        })
    }
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("spec", &self.spec.name)
            .finish()
    }
}

/// A spec's θ grid resolved over characterized data, with the intervals
/// and profiles it is solved on. The runner and the shard planner both
/// resolve through [`resolve_grid`], so a shard's θ chunk is a slice of
/// the monolithic grid, bit for bit, by construction.
pub(crate) struct Grid {
    pub(crate) cfg: SystemConfig,
    pub(crate) intervals_used: Vec<usize>,
    pub(crate) profile_sets: Vec<Vec<ThreadProfile<ErrorCurve>>>,
    pub(crate) theta_center: f64,
    pub(crate) theta_grid: Vec<f64>,
}

pub(crate) fn resolve_grid(spec: &ScenarioSpec, data: &BenchmarkData) -> Result<Grid, OptError> {
    if data.benchmark != spec.benchmark || data.stage != spec.stage {
        return Err(OptError::BadConfig(
            "characterized data does not match the spec's benchmark/stage",
        ));
    }
    let cfg = data.system_config();
    let intervals_used = select_intervals(spec, data)?;
    let profile_sets: Vec<Vec<ThreadProfile<ErrorCurve>>> = intervals_used
        .iter()
        .map(|&i| data.intervals[i].profiles())
        .collect();
    let theta_center = equal_weight_center(&cfg, &profile_sets)?;
    let theta_grid = spec.thetas.resolve(theta_center);
    Ok(Grid {
        cfg,
        intervals_used,
        profile_sets,
        theta_center,
        theta_grid,
    })
}

/// The equal-weight θ of a set of interval profiles: Σ nominal energy /
/// Σ nominal time (the paper's Fig 6.18 weighting).
fn equal_weight_center(
    cfg: &SystemConfig,
    profile_sets: &[Vec<ThreadProfile<ErrorCurve>>],
) -> Result<f64, OptError> {
    let mut nominal_energy = 0.0;
    let mut nominal_time = 0.0;
    for profiles in profile_sets {
        let a = crate::baselines::nominal(cfg, profiles)?;
        let ed = evaluate(cfg, profiles, &a);
        nominal_energy += ed.energy;
        nominal_time += ed.time;
    }
    if nominal_time <= 0.0 {
        return Err(OptError::BadConfig(
            "the selected intervals carry no nominal execution time (idle stage?)",
        ));
    }
    Ok(nominal_energy / nominal_time)
}

fn select_intervals(spec: &ScenarioSpec, data: &BenchmarkData) -> Result<Vec<usize>, OptError> {
    if data.intervals.is_empty() {
        return Err(OptError::BadConfig("characterized data has no intervals"));
    }
    Ok(match spec.intervals {
        IntervalSelection::All => (0..data.intervals.len()).collect(),
        IntervalSelection::MostHeterogeneous => vec![data.most_heterogeneous_interval()],
        IntervalSelection::Index(i) => {
            if i >= data.intervals.len() {
                return Err(OptError::Spec(format!(
                    "scenario spec: interval index {i} out of range (benchmark has {})",
                    data.intervals.len()
                )));
            }
            vec![i]
        }
    })
}

/// Runs one solver over `intervals × thetas`: intervals fan out across
/// the pool, each interval runs its whole θ grid through one
/// `solve_batch` call (one table build per interval for the
/// table-driven solvers), and per-θ energy/time is summed in interval
/// order — numerically identical to the sequential nested loop.
#[allow(clippy::type_complexity)]
fn run_scheme(
    pool: ThreadPool,
    cfg: &SystemConfig,
    profile_sets: &[Vec<ThreadProfile<ErrorCurve>>],
    solver: &dyn Solver<ErrorCurve>,
    thetas: &[f64],
    keep_assignments: bool,
) -> Result<(Vec<EnergyDelay>, Option<Vec<Vec<Assignment>>>), OptError> {
    let per_interval: Vec<Vec<(Assignment, EnergyDelay)>> =
        pool.try_map(profile_sets, |_, profiles| {
            let requests: Vec<SolveRequest<'_, ErrorCurve>> = thetas
                .iter()
                .map(|&theta| SolveRequest::new(cfg, profiles, theta))
                .collect();
            solver
                .solve_batch(&requests)
                .into_iter()
                .map(|result| {
                    result.map(|a| {
                        let ed = evaluate(cfg, profiles, &a);
                        (a, ed)
                    })
                })
                .collect::<Result<Vec<(Assignment, EnergyDelay)>, OptError>>()
        })?;
    let mut sums = vec![EnergyDelay::new(0.0, 0.0); thetas.len()];
    for interval in &per_interval {
        for (acc, (_, ed)) in sums.iter_mut().zip(interval) {
            acc.energy += ed.energy;
            acc.time += ed.time;
        }
    }
    let assignments = keep_assignments.then(|| {
        per_interval
            .into_iter()
            .map(|iv| iv.into_iter().map(|(a, _)| a).collect())
            .collect()
    });
    Ok((sums, assignments))
}

/// For every exact solver of the weighted objective, checks that its
/// Eq 4.4 cost lower-bounds every other scheme's at every θ — the
/// provable form of the "SynTS dominates the baselines" figures.
/// Shared with [`crate::scenario::service`]'s merge, which recomputes
/// the checks over the reassembled grid.
pub(crate) fn dominance_checks(
    solvers: &[Arc<dyn Solver<ErrorCurve>>],
    theta_grid: &[f64],
    datasets: &[Dataset],
) -> Vec<ReportCheck> {
    let mut checks = Vec::new();
    for (i, solver) in solvers.iter().enumerate() {
        let caps = solver.capabilities();
        if !(caps.exact && caps.objective == Objective::WeightedEnergyTime) {
            continue;
        }
        for (j, other) in datasets.iter().enumerate() {
            if i == j {
                continue;
            }
            let pass = theta_grid.iter().enumerate().all(|(k, &theta)| {
                let cost = |ed: EnergyDelay| ed.energy + theta * ed.time;
                cost(datasets[i].records[k].ed) <= cost(other.records[k].ed) * (1.0 + 1e-9)
            });
            checks.push(ReportCheck::new(
                format!(
                    "{}'s weighted cost lower-bounds {} at every theta",
                    datasets[i].label, other.label
                ),
                pass,
            ));
        }
    }
    checks
}

/// Checks that the analytic Eq 4.1–4.3 evaluation agrees with the
/// instruction-by-instruction Razor simulator on one interval, for the
/// first scheme's assignment. Profiles are rebuilt over the subsampled
/// trace population so the simulator and the model see the same `N`.
fn model_vs_sim_check(
    cfg: &SystemConfig,
    data: &BenchmarkData,
    interval: usize,
    solver: &dyn Solver<ErrorCurve>,
    theta: f64,
) -> Result<ReportCheck, OptError> {
    let iv = &data.intervals[interval];
    if iv.threads.iter().any(|t| t.normalized_delays.is_empty()) {
        return Ok(ReportCheck::new(
            "model-vs-simulation agreement skipped (a thread has no stage activity)",
            true,
        ));
    }
    let traces: Vec<&[f64]> = iv
        .threads
        .iter()
        .map(|t| t.normalized_delays.as_slice())
        .collect();
    let profiles: Vec<ThreadProfile<ErrorCurve>> = iv
        .threads
        .iter()
        .map(|t| {
            Ok(ThreadProfile::new(
                t.normalized_delays.len() as f64,
                t.cpi_base,
                ErrorCurve::from_normalized_delays(t.normalized_delays.clone())?,
            ))
        })
        .collect::<Result<_, OptError>>()?;
    let assignment = solver.solve(cfg, &profiles, theta)?;
    let predicted = evaluate(cfg, &profiles, &assignment);
    let settings: Vec<CoreSetting> = assignment
        .points
        .iter()
        .map(|p| CoreSetting {
            voltage: cfg.voltages.levels()[p.voltage_idx],
            tsr: cfg.tsr_levels[p.tsr_idx],
        })
        .collect();
    let cpi: Vec<f64> = iv.threads.iter().map(|t| t.cpi_base).collect();
    let sim = simulate_barrier(
        data.tnom_v1,
        &settings,
        &traces,
        &cpi,
        cfg.alpha,
        RazorCore {
            c_penalty: cfg.c_penalty as u64,
        },
    );
    let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-12);
    let pass = rel(sim.texec, predicted.time) < 1e-9 && rel(sim.energy, predicted.energy) < 1e-9;
    Ok(ReportCheck::new(
        format!(
            "analytic Eq 4.1-4.3 matches the cycle-level Razor simulation \
             for {} on interval {interval}",
            solver.label()
        ),
        pass,
    ))
}
