//! Naive reference implementations of the three exact solvers — the
//! executable specification of the sweep-scale engine.
//!
//! Before PR 5 these *were* the production paths: Algorithm 1 with a full
//! `Q·S` rescan per minEnergy query, a cold depth-first branch-and-bound
//! per θ, and an odometer over the raw `(Q·S)^M` grid. They are kept
//! verbatim for two jobs:
//!
//! * **Correctness** — the engine's property tests
//!   (`tests/sweep_engine.rs`) assert that sorted-tables poly,
//!   dominance-pruned exhaustive search and warm-started MILP are
//!   assignment-cost-identical to these paths across random instances
//!   and θ grids.
//! * **Baseline** — [`poly_sweep_naive`]/[`milp_sweep_naive`] are the
//!   pre-engine `solve_batch` (tables hoisted, naive inner loops) that
//!   the frozen `BENCH_PR5.json` speedup record timed the engine against.
//!   The engine's own solve time is now measured by the benchmark of
//!   record (`perfbench/`) as its `--trace 1` layers `core.solver.*`.
//!
//! Nothing here is reachable from the [`crate::SolverRegistry`]; use the
//! registered solvers for real work.

use timing::ErrorModel;

use crate::error::OptError;
use crate::exhaustive::EXHAUSTIVE_LIMIT;
use crate::milp_formulation;
use crate::model::{Assignment, OperatingPoint, SystemConfig, ThreadProfile};
use crate::poly::{self, Tables};

fn validated_tables<M: ErrorModel>(
    cfg: &SystemConfig,
    profiles: &[ThreadProfile<M>],
) -> Result<Tables, OptError> {
    cfg.validate()?;
    if profiles.is_empty() {
        return Err(OptError::NoThreads);
    }
    Ok(Tables::build(cfg, profiles))
}

/// Algorithm 1 exactly as the paper states it: `O(M²Q²S²)` per θ.
///
/// # Errors
///
/// As [`crate::synts_poly`], except that θ is *not* domain-checked:
/// the naive scan is exact for any finite weight (pre-engine
/// behavior), so θ < 0 solves here where the engine refuses.
pub fn synts_poly_naive<M: ErrorModel>(
    cfg: &SystemConfig,
    profiles: &[ThreadProfile<M>],
    theta: f64,
) -> Result<Assignment, OptError> {
    let t = validated_tables(cfg, profiles)?;
    poly::solve_on_tables(&t, theta)
}

/// The pre-engine batched θ sweep for Algorithm 1: tables built once
/// (the PR 2 hoist), then the naive scan per grid point.
///
/// # Errors
///
/// As [`synts_poly_naive`] — the first failing θ in grid order.
pub fn poly_sweep_naive<M: ErrorModel>(
    cfg: &SystemConfig,
    profiles: &[ThreadProfile<M>],
    thetas: &[f64],
) -> Result<Vec<Assignment>, OptError> {
    let t = validated_tables(cfg, profiles)?;
    thetas
        .iter()
        .map(|&theta| poly::solve_on_tables(&t, theta))
        .collect()
}

/// The cold SynTS-MILP solve: depth-first branch-and-bound from scratch,
/// no incumbent, per θ.
///
/// # Errors
///
/// As [`crate::synts_milp`], except that θ is *not* domain-checked
/// (see [`synts_poly_naive`]).
pub fn synts_milp_naive<M: ErrorModel>(
    cfg: &SystemConfig,
    profiles: &[ThreadProfile<M>],
    theta: f64,
) -> Result<Assignment, OptError> {
    let t = validated_tables(cfg, profiles)?;
    milp_formulation::solve_on_tables(&t, theta)
}

/// The pre-engine batched θ sweep for SynTS-MILP: tables built once,
/// then a cold branch-and-bound per grid point.
///
/// # Errors
///
/// As [`synts_milp_naive`] — the first failing θ in grid order.
pub fn milp_sweep_naive<M: ErrorModel>(
    cfg: &SystemConfig,
    profiles: &[ThreadProfile<M>],
    thetas: &[f64],
) -> Result<Vec<Assignment>, OptError> {
    let t = validated_tables(cfg, profiles)?;
    thetas
        .iter()
        .map(|&theta| milp_formulation::solve_on_tables(&t, theta))
        .collect()
}

/// Brute force over the raw, unpruned `(Q·S)^M` grid — the pre-PR 5
/// exhaustive solver, including its original limit semantics (the cap
/// applies to the raw candidate count).
///
/// # Errors
///
/// As [`crate::synts_exhaustive`], with [`OptError::TooLarge`] judged
/// on the *unpruned* count and θ not domain-checked (see
/// [`synts_poly_naive`]).
pub fn synts_exhaustive_naive<M: ErrorModel>(
    cfg: &SystemConfig,
    profiles: &[ThreadProfile<M>],
    theta: f64,
) -> Result<Assignment, OptError> {
    cfg.validate()?;
    if profiles.is_empty() {
        return Err(OptError::NoThreads);
    }
    let per_thread = (cfg.q() * cfg.s()) as u128;
    let m = profiles.len();
    let candidates = per_thread.checked_pow(m as u32).unwrap_or(u128::MAX);
    if candidates > EXHAUSTIVE_LIMIT {
        return Err(OptError::TooLarge {
            candidates,
            limit: EXHAUSTIVE_LIMIT,
        });
    }
    let t = Tables::build(cfg, profiles);
    let s = cfg.s();
    let n_points = cfg.q() * s;

    let mut best_cost = f64::INFINITY;
    let mut best_combo = vec![0usize; m];
    let mut combo = vec![0usize; m];
    loop {
        // Evaluate this combination.
        let mut energy = 0.0;
        let mut texec = 0.0f64;
        for (i, &idx) in combo.iter().enumerate() {
            energy += t.energy[i][idx];
            texec = texec.max(t.time[i][idx]);
        }
        let cost = energy + theta * texec;
        if cost < best_cost {
            best_cost = cost;
            best_combo.copy_from_slice(&combo);
        }
        // Odometer increment.
        let mut pos = 0;
        loop {
            if pos == m {
                let points = best_combo
                    .iter()
                    .map(|&idx| OperatingPoint {
                        voltage_idx: idx / s,
                        tsr_idx: idx % s,
                    })
                    .collect();
                return Ok(Assignment { points });
            }
            combo[pos] += 1;
            if combo[pos] < n_points {
                break;
            }
            combo[pos] = 0;
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::weighted_cost;
    use timing::ErrorCurve;

    fn instance() -> (SystemConfig, Vec<ThreadProfile<ErrorCurve>>) {
        let mut cfg = SystemConfig::paper_default(10.0);
        cfg.voltages = timing::VoltageTable::from_volts([1.0, 0.86, 0.72]).expect("ok");
        cfg.tsr_levels = vec![0.64, 0.82, 1.0];
        let curve = |lo: f64, hi: f64| {
            ErrorCurve::from_normalized_delays(
                (0..128)
                    .map(|i| lo + (hi - lo) * i as f64 / 128.0)
                    .collect(),
            )
            .expect("non-empty")
        };
        let profiles = vec![
            ThreadProfile::new(10_000.0, 1.2, curve(0.70, 1.00)),
            ThreadProfile::new(9_000.0, 1.1, curve(0.50, 0.85)),
            ThreadProfile::new(11_000.0, 1.0, curve(0.30, 0.65)),
        ];
        (cfg, profiles)
    }

    #[test]
    fn naive_paths_agree_with_production_solvers() {
        let (cfg, profiles) = instance();
        for theta in [0.0, 0.3, 1.0, 40.0] {
            let fast = crate::poly::synts_poly(&cfg, &profiles, theta).expect("poly");
            let naive = synts_poly_naive(&cfg, &profiles, theta).expect("naive poly");
            let (cf, cn) = (
                weighted_cost(&cfg, &profiles, &fast, theta),
                weighted_cost(&cfg, &profiles, &naive, theta),
            );
            assert!((cf - cn).abs() <= 1e-9 * cn.abs().max(1.0), "{cf} vs {cn}");

            let milp = crate::milp_formulation::synts_milp(&cfg, &profiles, theta).expect("milp");
            let milp_naive = synts_milp_naive(&cfg, &profiles, theta).expect("naive milp");
            let (cm, cmn) = (
                weighted_cost(&cfg, &profiles, &milp, theta),
                weighted_cost(&cfg, &profiles, &milp_naive, theta),
            );
            assert!(
                (cm - cmn).abs() <= 1e-6 * cmn.abs().max(1.0),
                "{cm} vs {cmn}"
            );

            let ex = crate::exhaustive::synts_exhaustive(&cfg, &profiles, theta).expect("ex");
            let ex_naive = synts_exhaustive_naive(&cfg, &profiles, theta).expect("naive ex");
            let (ce, cen) = (
                weighted_cost(&cfg, &profiles, &ex, theta),
                weighted_cost(&cfg, &profiles, &ex_naive, theta),
            );
            assert!(
                (ce - cen).abs() <= 1e-9 * cen.abs().max(1.0),
                "{ce} vs {cen}"
            );
        }
    }

    #[test]
    fn sweep_naive_matches_per_theta_naive() {
        let (cfg, profiles) = instance();
        let thetas = [0.0, 0.5, 2.0];
        let poly_sweep = poly_sweep_naive(&cfg, &profiles, &thetas).expect("sweep");
        let milp_sweep = milp_sweep_naive(&cfg, &profiles, &thetas).expect("sweep");
        for (i, &theta) in thetas.iter().enumerate() {
            assert_eq!(
                poly_sweep[i],
                synts_poly_naive(&cfg, &profiles, theta).expect("poly"),
            );
            assert_eq!(
                milp_sweep[i],
                synts_milp_naive(&cfg, &profiles, theta).expect("milp"),
            );
        }
    }
}
