//! Exhaustive reference solver: enumerates every combination of
//! *dominance-pruned* per-thread operating points.
//!
//! Exists purely to certify the optimality of [`crate::synts_poly`] and
//! [`crate::synts_milp`] on small instances (Lemma 4.2.1's empirical
//! counterpart). The odometer runs over each thread's [`SortedTables`]
//! candidate list instead of the full `(Q·S)^M` grid: a
//! point that is no faster and no cheaper than another can never improve
//! any assignment (replace it with its dominator — `t_exec` and every
//! energy term weakly drop), so pruning provably preserves the optimum
//! while collapsing the search space by orders of magnitude. The
//! [`EXHAUSTIVE_LIMIT`] cap therefore bounds the *pruned* candidate
//! product. Because the candidate lists come from the same
//! [`SortedTables`] the poly and MILP solvers use, this solver is no
//! longer a *fully* independent oracle against a pruning bug — that
//! role belongs to [`crate::reference::synts_exhaustive_naive`], the
//! pre-pruning enumeration, which the engine's property tests compare
//! against.
//!
//! One walk serves a whole θ batch. A combination's energy and `t_exec`
//! do not depend on θ, so the odometer computes them once per
//! combination, then updates every θ's own incumbent with the same
//! `energy + θ·t_exec` and strict `<` test a single-θ walk makes. Each θ
//! gets exactly the assignment a walk of its own would return, ties
//! included, and a 9-point sweep costs one walk instead of nine.

use timing::ErrorModel;

use crate::error::OptError;
use crate::model::{Assignment, SystemConfig, ThreadProfile};
use crate::poly::{PreparedTables, SortedTables, Tables};

/// Hard cap on the number of enumerated assignments (after per-thread
/// dominance pruning).
pub const EXHAUSTIVE_LIMIT: u128 = 5_000_000;

/// Finds the optimal assignment by brute force over the pruned grid.
///
/// # Errors
///
/// * [`OptError::TooLarge`] if the product of pruned per-thread candidate
///   counts exceeds [`EXHAUSTIVE_LIMIT`].
/// * [`OptError::BadConfig`] / [`OptError::NoThreads`] as for the other
///   solvers.
pub fn synts_exhaustive<M: ErrorModel>(
    cfg: &SystemConfig,
    profiles: &[ThreadProfile<M>],
    theta: f64,
) -> Result<Assignment, OptError> {
    cfg.validate()?;
    crate::poly::validate_theta(theta)?;
    if profiles.is_empty() {
        return Err(OptError::NoThreads);
    }
    let mut best = solve_pruned(&PreparedTables::build(cfg, profiles), &[theta])?;
    Ok(best.pop().expect("one assignment per θ"))
}

/// How much per-thread dominance pruning shrinks an instance: total and
/// surviving operating points (summed over threads), and the raw vs
/// pruned combination counts the exhaustive solver would enumerate
/// (both saturating at `u128::MAX`). Diagnostics for benches and logs.
///
/// # Errors
///
/// [`OptError::BadConfig`] / [`OptError::NoThreads`] for malformed input.
pub fn pruning_stats<M: ErrorModel>(
    cfg: &SystemConfig,
    profiles: &[ThreadProfile<M>],
) -> Result<PruningStats, OptError> {
    cfg.validate()?;
    if profiles.is_empty() {
        return Err(OptError::NoThreads);
    }
    let t = Tables::build(cfg, profiles);
    let st = SortedTables::build(&t);
    let per_thread = (cfg.q() * cfg.s()) as u128;
    Ok(PruningStats {
        total_points: cfg.q() * cfg.s() * profiles.len(),
        pruned_points: st.pruned_points(),
        raw_combinations: per_thread
            .checked_pow(profiles.len() as u32)
            .unwrap_or(u128::MAX),
        pruned_combinations: st.pruned_combinations(),
    })
}

/// The result of [`pruning_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruningStats {
    /// Operating points across all threads before pruning (`M·Q·S`).
    pub total_points: usize,
    /// Points surviving per-thread dominance pruning, summed.
    pub pruned_points: usize,
    /// `(Q·S)^M` — what the unpruned odometer would enumerate.
    pub raw_combinations: u128,
    /// Product of per-thread survivor counts — what
    /// [`synts_exhaustive`] actually enumerates.
    pub pruned_combinations: u128,
}

/// The pruned odometer over prebuilt tables, one walk for every θ in
/// `thetas` (distinct, validated); returns one assignment per θ, in
/// order. Shared with the batch path.
pub(crate) fn solve_pruned(
    prepared: &PreparedTables,
    thetas: &[f64],
) -> Result<Vec<Assignment>, OptError> {
    let (t, st) = (&prepared.tables, &prepared.sorted);
    let m = t.m;
    let candidates = st.pruned_combinations();
    if candidates > EXHAUSTIVE_LIMIT {
        return Err(OptError::TooLarge {
            candidates,
            limit: EXHAUSTIVE_LIMIT,
        });
    }

    // Each thread's candidates as (energy, time), in candidate order.
    let cands: Vec<Vec<(f64, f64)>> = (0..m)
        .map(|i| {
            st.candidates(i)
                .iter()
                .map(|&idx| (t.energy[i][idx as usize], t.time[i][idx as usize]))
                .collect()
        })
        .collect();
    // Each θ's incumbent: its cost and the combination that reached it.
    let mut best_cost = vec![f64::INFINITY; thetas.len()];
    let mut best_combo = vec![vec![0usize; m]; thetas.len()];
    let mut combo = vec![0usize; m];
    loop {
        // Evaluate this combination once for every θ (combo holds
        // positions into each thread's ascending candidate list, so
        // combinations are visited in the same relative order as the
        // unpruned odometer).
        let mut energy = 0.0;
        let mut texec = 0.0f64;
        for (thread, &pos) in cands.iter().zip(&combo) {
            let (e, time) = thread[pos];
            energy += e;
            texec = texec.max(time);
        }
        for ((&theta, cost_k), combo_k) in thetas.iter().zip(&mut best_cost).zip(&mut best_combo) {
            let cost = energy + theta * texec;
            if cost < *cost_k {
                *cost_k = cost;
                combo_k.copy_from_slice(&combo);
            }
        }
        // Odometer increment.
        let mut pos = 0;
        loop {
            if pos == m {
                return Ok(best_combo
                    .iter()
                    .map(|combo| Assignment {
                        points: combo
                            .iter()
                            .enumerate()
                            .map(|(i, &p)| t.point(st.candidates(i)[p] as usize))
                            .collect(),
                    })
                    .collect());
            }
            combo[pos] += 1;
            if combo[pos] < cands[pos].len() {
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
    use timing::ErrorCurve;

    fn curve(delays: Vec<f64>) -> ErrorCurve {
        ErrorCurve::from_normalized_delays(delays).expect("non-empty")
    }

    fn small_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::paper_default(10.0);
        cfg.voltages = timing::VoltageTable::from_volts([1.0, 0.8]).expect("ok");
        cfg.tsr_levels = vec![0.7, 1.0];
        cfg
    }

    #[test]
    fn finds_obvious_optimum() {
        // One thread, error-free at every r: fastest point is (V=1, r=0.7)
        // and with huge theta that must win.
        let cfg = small_cfg();
        let profiles = vec![ThreadProfile::new(100.0, 1.0, curve(vec![0.1; 10]))];
        let a = synts_exhaustive(&cfg, &profiles, 1e9).expect("small");
        assert_eq!(a.points[0].voltage_idx, 0);
        assert_eq!(a.points[0].tsr_idx, 0);
        // With theta = 0 only energy matters: lowest voltage wins.
        let a = synts_exhaustive(&cfg, &profiles, 0.0).expect("small");
        assert_eq!(a.points[0].voltage_idx, 1);
    }

    #[test]
    fn rejects_oversized_instances() {
        let cfg = SystemConfig::paper_default(10.0); // 42 points per thread
        let profiles: Vec<ThreadProfile<ErrorCurve>> = (0..12)
            .map(|_| ThreadProfile::new(10.0, 1.0, curve(vec![0.5; 4])))
            .collect();
        // Even pruned to the 7-point voltage frontier per thread,
        // 7^12 ≈ 1.4e10 dwarfs the cap.
        assert!(matches!(
            synts_exhaustive(&cfg, &profiles, 1.0).expect_err("too large"),
            OptError::TooLarge { .. }
        ));
    }

    /// Dominance pruning is what makes paper-sized multi-thread instances
    /// tractable at all: 5 threads × 42 points is 130 M raw combinations
    /// (rejected before PR 5), but only the per-voltage frontier survives
    /// pruning and the solve matches Algorithm 1.
    #[test]
    fn pruning_unlocks_previously_oversized_instances() {
        let cfg = SystemConfig::paper_default(10.0);
        let profiles: Vec<ThreadProfile<ErrorCurve>> = (0..5)
            .map(|i| {
                let lo = 0.3 + 0.08 * i as f64;
                let delays: Vec<f64> = (0..64)
                    .map(|n| (lo + (0.99 - lo) * n as f64 / 64.0).min(1.0))
                    .collect();
                ThreadProfile::new(1_000.0 + 500.0 * i as f64, 1.0, curve(delays))
            })
            .collect();
        let theta = 1.0;
        let ex = synts_exhaustive(&cfg, &profiles, theta).expect("pruned fits");
        let poly = crate::poly::synts_poly(&cfg, &profiles, theta).expect("poly");
        let ce = crate::model::weighted_cost(&cfg, &profiles, &ex, theta);
        let cp = crate::model::weighted_cost(&cfg, &profiles, &poly, theta);
        assert!(
            (ce - cp).abs() <= 1e-9 * cp.abs().max(1.0),
            "exhaustive {ce} vs poly {cp}"
        );
    }
}
