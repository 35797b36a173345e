//! [`Experiment`] — the single entry point that turns a
//! [`ScenarioSpec`] into a [`Report`].
//!
//! The runner owns the whole data-driven path: characterize (or accept a
//! pre-characterized [`BenchmarkData`]), select intervals, resolve the θ
//! grid, dispatch every scheme through the default
//! [`SolverRegistry`](crate::SolverRegistry), solve on the [`ThreadPool`],
//! and assemble typed records with Pareto fronts and invariant checks.
//!
//! The solving is one pool pass: one task per (baseline or scheme,
//! selected interval), each running its whole θ list through one
//! [`crate::Solver::solve_batch`] call, plus one task for the
//! model-vs-simulation check. The exponential exact solvers and the check
//! are claimed first. Results are bit-identical at any worker count:
//! every task is a pure function of its inputs, and the results are read
//! back in the order a sequential loop would produce them, per-θ sums in
//! interval order and the first error the one that loop would meet.

use std::sync::Arc;

use archsim::{simulate_barrier, CoreSetting, RazorCore};
use timing::{pareto_front, EnergyDelay, ErrorCurve};

use crate::cache::{characterize_cached, CharCache};
use crate::error::OptError;
use crate::experiments::BenchmarkData;
use crate::model::{evaluate, Assignment, SystemConfig, ThreadProfile};
use crate::parallel::{worker_count, ThreadPool};
use crate::scenario::report::{Dataset, Record, Report, ReportCheck};
use crate::scenario::spec::{IntervalSelection, ScenarioSpec, ThetaSpec};
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
    /// registered ones) and solver errors, as [`OptError`]. A spec that
    /// names no schemes or has an explicit empty θ grid is refused
    /// before anything is characterized.
    pub fn run(&self) -> Result<Report, OptError> {
        // Refuse what needs no data, and resolve every named scheme, first
        // so a typo fails in microseconds, not after a full
        // characterization run.
        refuse_data_free(&self.spec)?;
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
    /// The baseline, every scheme over every selected interval and the
    /// model-vs-simulation check are solved in one pass on the spec's
    /// pool, heaviest tasks first (see the [module docs](self)); the
    /// report and any error are those of the sequential loop.
    ///
    /// # Errors
    ///
    /// [`OptError::BadConfig`] if `data` is for a different
    /// benchmark/stage than the spec, the spec names no schemes or its θ
    /// grid resolves empty, otherwise as [`Experiment::run`].
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

        // The tasks in the order a sequential loop runs them: the baseline
        // at the equal-weight θ, then every scheme over the grid, each over
        // every selected interval, then the check.
        let center = [theta_center];
        let n_intervals = profile_sets.len();
        let mut tasks: Vec<Task<'_>> = normalize_to
            .iter()
            .map(|solver| (&**solver, &center[..]))
            .chain(solvers.iter().map(|solver| (&**solver, &theta_grid[..])))
            .flat_map(|(solver, thetas)| {
                (0..n_intervals).map(move |interval| Task::Solve {
                    solver,
                    thetas,
                    interval,
                })
            })
            .collect();
        if spec.verify_model {
            // Verify the first *speculating* scheme so the simulation
            // actually exercises the Razor error/replay path; a
            // zero-speculation baseline would pass vacuously.
            let first = solvers.iter().position(|s| s.capabilities().speculates);
            tasks.push(Task::Check(&*solvers[first.unwrap_or(0)]));
        }
        // Heaviest first: the exponential exact solvers and the check
        // start at once, and the light tasks fill in around them. Within
        // each class the tasks keep their order.
        let mut order: Vec<usize> = (0..tasks.len()).collect();
        order.sort_by_key(|&t| match tasks[t] {
            Task::Solve { solver, .. } => solver.capabilities().polynomial,
            Task::Check(_) => false,
        });
        let ran = pool.map(&order, |_, &t| match tasks[t] {
            Task::Solve {
                solver,
                thetas,
                interval,
            } => solve_interval(&cfg, &profile_sets[interval], solver, thetas).map(Done::Solved),
            Task::Check(solver) => {
                model_vs_sim_check(&cfg, data, intervals_used[0], solver, theta_grid[0])
                    .map(Done::Checked)
            }
        });
        // Read every result back in task order, so the first error is the
        // one a sequential loop would meet first.
        let mut done: Vec<(usize, Result<Done, OptError>)> = order.into_iter().zip(ran).collect();
        done.sort_by_key(|&(t, _)| t);
        let mut done = done.into_iter().map(|(_, result)| result);
        let mut pass = || -> Result<Vec<Vec<(Assignment, EnergyDelay)>>, OptError> {
            done.by_ref()
                .take(n_intervals)
                .map(|result| match result? {
                    Done::Solved(interval) => Ok(interval),
                    Done::Checked(_) => unreachable!("the check is the last task"),
                })
                .collect()
        };

        let baseline = match normalize_to {
            Some(_) => Some(interval_sums(&pass()?, 1)[0]),
            None => None,
        };
        let mut datasets = Vec::with_capacity(solvers.len());
        for (key, solver) in spec.schemes.iter().zip(&solvers) {
            let per_interval = pass()?;
            let sums = interval_sums(&per_interval, theta_grid.len());
            let records: Vec<Record> = theta_grid
                .iter()
                .enumerate()
                .map(|(j, &theta)| Record {
                    theta,
                    ed: sums[j],
                    normalized: baseline.map(|base| sums[j].normalized_to(base)),
                    assignments: spec
                        .record_assignments
                        .then(|| per_interval.iter().map(|iv| iv[j].0.clone()).collect()),
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
        if let Some(result) = done.next() {
            match result? {
                Done::Checked(check) => checks.push(check),
                Done::Solved(_) => unreachable!("every solve task was read"),
            }
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

/// One task of [`Experiment::run_on`]'s pool pass.
enum Task<'a> {
    /// One solver's θ list over one selected interval: one
    /// [`Solver::solve_batch`] call.
    Solve {
        solver: &'a dyn Solver<ErrorCurve>,
        thetas: &'a [f64],
        interval: usize,
    },
    /// The model-vs-simulation check of this scheme.
    Check(&'a dyn Solver<ErrorCurve>),
}

/// What one [`Task`] returned.
enum Done {
    /// Per θ, the assignment and its energy and time.
    Solved(Vec<(Assignment, EnergyDelay)>),
    Checked(ReportCheck),
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

/// The refusals that need no characterized data: a spec that names no
/// schemes, and a θ spec that resolves empty whatever its center (an
/// explicit empty grid). [`Experiment::run`] and
/// [`crate::scenario::ShardPlan::plan_cached`] make them before they
/// characterize, and [`resolve_grid`] makes them first, so every entry
/// point refuses alike, with the same messages.
pub(crate) fn refuse_data_free(spec: &ScenarioSpec) -> Result<(), OptError> {
    if spec.schemes.is_empty() {
        return Err(OptError::BadConfig("the spec names no schemes"));
    }
    if matches!(&spec.thetas, ThetaSpec::Grid(thetas) if thetas.is_empty()) {
        return Err(OptError::BadConfig(EMPTY_GRID));
    }
    Ok(())
}

const EMPTY_GRID: &str = "the spec resolves to an empty θ grid";

/// Resolves `spec`'s θ grid over `data`. It also makes the refusals that
/// need no solving, so [`Experiment::run_on`] and
/// [`crate::scenario::ShardPlan::plan`] refuse alike, with the same
/// messages: those of [`refuse_data_free`], data of another
/// benchmark/stage, a bad interval selection, an idle stage, and a θ
/// grid that resolves empty.
pub(crate) fn resolve_grid(spec: &ScenarioSpec, data: &BenchmarkData) -> Result<Grid, OptError> {
    refuse_data_free(spec)?;
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
    if theta_grid.is_empty() {
        return Err(OptError::BadConfig(EMPTY_GRID));
    }
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

/// Runs one interval's whole θ grid through one `solve_batch` call (one
/// table build for the table-driven solvers) and evaluates each
/// assignment.
fn solve_interval(
    cfg: &SystemConfig,
    profiles: &[ThreadProfile<ErrorCurve>],
    solver: &dyn Solver<ErrorCurve>,
    thetas: &[f64],
) -> Result<Vec<(Assignment, EnergyDelay)>, OptError> {
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
        .collect()
}

/// Per-θ energy and time summed over the intervals in interval order,
/// as the sequential nested loop sums them.
fn interval_sums(
    per_interval: &[Vec<(Assignment, EnergyDelay)>],
    thetas: usize,
) -> Vec<EnergyDelay> {
    let mut sums = vec![EnergyDelay::new(0.0, 0.0); thetas];
    for interval in per_interval {
        for (acc, (_, ed)) in sums.iter_mut().zip(interval) {
            acc.energy += ed.energy;
            acc.time += ed.time;
        }
    }
    sums
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
/// first scheme's assignment. The model reads the interval's
/// [`IntervalData::trace_profiles`](crate::experiments::IntervalData::trace_profiles),
/// whose `N` counts the subsampled delays the simulator replays, so both
/// see the same population.
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
    let profiles = iv.trace_profiles();
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
