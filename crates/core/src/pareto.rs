//! θ sweeps and Pareto-curve generation (Figs 6.11–6.16), dispatched
//! through the [`Solver`] trait and fanned out across the
//! [`crate::parallel::ThreadPool`].
//!
//! Every θ point is an independent solve against shared read-only inputs,
//! so [`pareto_sweep`] partitions the θ grid into contiguous chunks, runs
//! each chunk through [`Solver::solve_batch`] on a pool worker (the
//! table-driven solvers build their θ-independent state — time/energy
//! tables plus the sorted/dominance-pruned companion — once per worker
//! and dedupe repeated θ values), and collects results in index order —
//! the output is bit-identical to the sequential loop at any worker
//! count.
//!
//! Schemes are addressed by registry key (`"synts_poly"`, `"nominal"`,
//! …) through [`crate::SolverRegistry`], with [`Solver::label`] for
//! display.
//!
//! ```
//! use synts_core::{default_theta_sweep, pareto_sweep, SolverRegistry, SystemConfig};
//! use synts_core::{ThreadPool, ThreadProfile};
//! use timing::ErrorCurve;
//!
//! # fn main() -> Result<(), synts_core::OptError> {
//! let cfg = SystemConfig::paper_default(100.0);
//! let curve = |lo: f64| {
//!     ErrorCurve::from_normalized_delays(
//!         (0..64).map(|i| lo + (1.0 - lo) * i as f64 / 64.0).collect(),
//!     )
//! };
//! let profiles = vec![
//!     ThreadProfile::new(10_000.0, 1.2, curve(0.7)?),
//!     ThreadProfile::new(10_000.0, 1.0, curve(0.4)?),
//! ];
//! let solver = SolverRegistry::with_defaults().get("synts_poly")?;
//! let thetas = default_theta_sweep(&cfg, &profiles, 9, 2.0)?;
//! let points = pareto_sweep(&*solver, &cfg, &profiles, &thetas, ThreadPool::from_env())?;
//! assert_eq!(points.len(), 9);
//! # Ok(())
//! # }
//! ```

use timing::{EnergyDelay, ErrorModel};

use crate::error::OptError;
use crate::model::{evaluate, Assignment, SystemConfig, ThreadProfile};
use crate::parallel::ThreadPool;
use crate::solver::{SolveRequest, Solver};

/// One point of a θ sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The weight used.
    pub theta: f64,
    /// The chosen assignment.
    pub assignment: Assignment,
    /// Its energy/time (absolute units).
    pub ed: EnergyDelay,
}

/// Sweeps `theta` over any [`Solver`] on `pool`, producing the raw
/// points behind the Pareto plots of Figs 6.11–6.16.
///
/// The θ grid is split into `pool.workers()` contiguous chunks; each
/// worker runs its chunk through one [`Solver::solve_batch`] call, so the
/// table-driven solvers build their time/energy tables once per worker
/// instead of once per θ. Collection is index-ordered, making the result
/// bit-identical to the sequential loop at any worker count.
///
/// # Errors
///
/// Propagates [`OptError`] from the solver — the first failing θ in grid
/// order, exactly as the sequential loop would report.
pub fn pareto_sweep<M: ErrorModel + Sync>(
    solver: &dyn Solver<M>,
    cfg: &SystemConfig,
    profiles: &[ThreadProfile<M>],
    thetas: &[f64],
    pool: ThreadPool,
) -> Result<Vec<SweepPoint>, OptError> {
    let ranges = pool.chunk_ranges(thetas.len());
    let chunks = pool.try_map(&ranges, |_, range| {
        let grid = &thetas[range.clone()];
        let requests: Vec<SolveRequest<'_, M>> = grid
            .iter()
            .map(|&theta| SolveRequest::new(cfg, profiles, theta))
            .collect();
        solver
            .solve_batch(&requests)
            .into_iter()
            .zip(grid)
            .map(|(result, &theta)| {
                let assignment = result?;
                let ed = evaluate(cfg, profiles, &assignment);
                Ok(SweepPoint {
                    theta,
                    assignment,
                    ed,
                })
            })
            .collect::<Result<Vec<SweepPoint>, OptError>>()
    })?;
    Ok(chunks.into_iter().flatten().collect())
}

/// The θ at which energy and execution time contribute equally to Eq 4.4 at
/// the nominal operating point — the paper's "weights energy and execution
/// time equally" setting (Fig 6.18).
///
/// # Errors
///
/// Propagates [`OptError`] from the nominal baseline.
pub fn theta_equal_weight<M: ErrorModel>(
    cfg: &SystemConfig,
    profiles: &[ThreadProfile<M>],
) -> Result<f64, OptError> {
    let a = crate::baselines::nominal(cfg, profiles)?;
    let ed = evaluate(cfg, profiles, &a);
    Ok(ed.energy / ed.time)
}

/// A log-spaced θ grid around `center`: `n` points spanning
/// `center·10^-decades ..= center·10^decades`. The shared grid rule
/// behind [`default_theta_sweep`] and the scenario layer's
/// `ThetaSpec::LogAroundEqualWeight`.
#[must_use]
pub fn log_theta_grid(center: f64, n: usize, decades: f64) -> Vec<f64> {
    if n <= 1 {
        return vec![center];
    }
    (0..n)
        .map(|i| {
            let t = i as f64 / (n - 1) as f64; // 0..1
            center * 10f64.powf(decades * (2.0 * t - 1.0))
        })
        .collect()
}

/// A log-spaced θ grid centered on [`theta_equal_weight`], spanning
/// `10^-decades .. 10^decades` around it with `n` points.
///
/// # Errors
///
/// Propagates [`OptError`] from the nominal baseline.
pub fn default_theta_sweep<M: ErrorModel>(
    cfg: &SystemConfig,
    profiles: &[ThreadProfile<M>],
    n: usize,
    decades: f64,
) -> Result<Vec<f64>, OptError> {
    let center = theta_equal_weight(cfg, profiles)?;
    Ok(log_theta_grid(center, n, decades))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::nominal;
    use crate::solver;
    use timing::{pareto_front, ErrorCurve};

    fn curve(delays: Vec<f64>) -> ErrorCurve {
        ErrorCurve::from_normalized_delays(delays).expect("non-empty")
    }

    fn workload() -> (SystemConfig, Vec<ThreadProfile<ErrorCurve>>) {
        let cfg = SystemConfig::paper_default(10.0);
        let mk = |lo: f64, hi: f64| {
            curve(
                (0..200)
                    .map(|i| lo + (hi - lo) * (i as f64 / 200.0))
                    .collect(),
            )
        };
        let profiles = vec![
            ThreadProfile::new(8_000.0, 1.3, mk(0.7, 1.0)),
            ThreadProfile::new(9_000.0, 1.1, mk(0.5, 0.9)),
            ThreadProfile::new(10_000.0, 1.0, mk(0.35, 0.8)),
            ThreadProfile::new(7_000.0, 1.2, mk(0.45, 0.85)),
        ];
        (cfg, profiles)
    }

    #[test]
    fn sweep_produces_monotone_tradeoff_for_synts() {
        let (cfg, profiles) = workload();
        let thetas = default_theta_sweep(&cfg, &profiles, 9, 2.0).expect("ok");
        let pool = ThreadPool::from_env();
        let pts = pareto_sweep(&solver::Poly, &cfg, &profiles, &thetas, pool).expect("ok");
        // Higher theta -> no slower, and the sweep spans a real range.
        for w in pts.windows(2) {
            assert!(
                w[1].ed.time <= w[0].ed.time + 1e-9,
                "time must not rise with theta"
            );
        }
        assert!(
            pts[0].ed.time > pts[pts.len() - 1].ed.time,
            "sweep must spread"
        );
    }

    #[test]
    fn synts_weakly_dominates_baselines_on_the_front() {
        let (cfg, profiles) = workload();
        let thetas = default_theta_sweep(&cfg, &profiles, 7, 2.0).expect("ok");
        let poly = solver::default_solver::<ErrorCurve>("synts_poly").expect("registered");
        let percore_solver =
            solver::default_solver::<ErrorCurve>("per_core_ts").expect("registered");
        let pool = ThreadPool::from_env();
        let synts = pareto_sweep(&*poly, &cfg, &profiles, &thetas, pool).expect("ok");
        let percore = pareto_sweep(&*percore_solver, &cfg, &profiles, &thetas, pool).expect("ok");
        // For every per-core point, some SynTS point is at least as good on
        // both axes (SynTS solves the joint problem optimally).
        for p in &percore {
            let dominated = synts.iter().any(|s| {
                s.ed.energy <= p.ed.energy * (1.0 + 1e-9) && s.ed.time <= p.ed.time * (1.0 + 1e-9)
            });
            assert!(dominated, "per-core point not covered by SynTS front");
        }
    }

    #[test]
    fn equal_weight_theta_balances_terms() {
        let (cfg, profiles) = workload();
        let theta = theta_equal_weight(&cfg, &profiles).expect("ok");
        let a = nominal(&cfg, &profiles).expect("ok");
        let ed = evaluate(&cfg, &profiles, &a);
        assert!(((theta * ed.time) / ed.energy - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pareto_front_of_sweep_is_nontrivial() {
        let (cfg, profiles) = workload();
        let thetas = default_theta_sweep(&cfg, &profiles, 11, 2.0).expect("ok");
        let pool = ThreadPool::from_env();
        let pts = pareto_sweep(&solver::Poly, &cfg, &profiles, &thetas, pool).expect("ok");
        let eds: Vec<EnergyDelay> = pts.iter().map(|p| p.ed).collect();
        let front = pareto_front(&eds);
        assert!(front.len() >= 2, "expected a real trade-off curve");
    }

    #[test]
    fn registry_keys_and_labels_cover_the_evaluation_schemes() {
        let reg: crate::SolverRegistry = crate::SolverRegistry::with_defaults();
        for (key, label) in [
            ("nominal", "Nominal"),
            ("no_ts", "No-TS"),
            ("per_core_ts", "Per-core TS"),
            ("synts_poly", "SynTS"),
        ] {
            let from_registry = reg.get(key).expect("registered");
            assert_eq!(from_registry.name(), key);
            assert_eq!(from_registry.label(), label);
            let direct = solver::default_solver::<ErrorCurve>(key).expect("constructible");
            assert_eq!(
                direct.name(),
                from_registry.name(),
                "default_solver and registry must agree"
            );
        }
    }

    #[test]
    fn log_theta_grid_is_symmetric_and_centered() {
        let grid = log_theta_grid(2.0, 9, 2.0);
        assert_eq!(grid.len(), 9);
        assert!((grid[4] - 2.0).abs() < 1e-12, "middle point is the center");
        assert!((grid[0] - 0.02).abs() < 1e-12, "left edge is center/10^2");
        assert!((grid[8] - 200.0).abs() < 1e-9, "right edge is center*10^2");
        assert_eq!(log_theta_grid(3.5, 1, 2.0), vec![3.5], "n=1 collapses");
    }
}
