//! The comparison schemes of the evaluation (Sec 6): Nominal, No-TS and
//! Per-core TS.

use timing::ErrorModel;

use crate::error::OptError;
use crate::model::{Assignment, OperatingPoint, SystemConfig, ThreadProfile};
use crate::poly::{synts_poly, Tables};

/// Nominal V/F: every core at the highest voltage and `r = 1` — no scaling,
/// no speculation.
///
/// # Errors
///
/// [`OptError::BadConfig`] / [`OptError::NoThreads`] for malformed input.
pub fn nominal<M: ErrorModel>(
    cfg: &SystemConfig,
    profiles: &[ThreadProfile<M>],
) -> Result<Assignment, OptError> {
    cfg.validate()?;
    if profiles.is_empty() {
        return Err(OptError::NoThreads);
    }
    Ok(Assignment::uniform(
        profiles.len(),
        OperatingPoint {
            voltage_idx: 0,
            tsr_idx: cfg.s() - 1,
        },
    ))
}

/// Optimal per-thread V/F *without* timing speculation: the joint optimum of
/// Eq 4.4 restricted to `r = 1` — the paper's stand-in for conventional
/// barrier-aware DVFS (Liu et al. \[15\]).
///
/// # Errors
///
/// As for [`crate::synts_poly`].
pub fn no_ts<M: ErrorModel>(
    cfg: &SystemConfig,
    profiles: &[ThreadProfile<M>],
    theta: f64,
) -> Result<Assignment, OptError> {
    let mut restricted = cfg.clone();
    restricted.tsr_levels = vec![1.0];
    let a = synts_poly(&restricted, profiles, theta)?;
    // Map TSR index 0 of the restricted problem back to r = 1 in `cfg`.
    Ok(Assignment {
        points: a
            .points
            .into_iter()
            .map(|p| OperatingPoint {
                voltage_idx: p.voltage_idx,
                tsr_idx: cfg.s() - 1,
            })
            .collect(),
    })
}

/// Per-core timing speculation: each core independently minimizes its own
/// `en_i + θ·t_i` over all `(V, r)` — the best any single-core TS scheme
/// (Razor with oracle error curves) could do, ignoring barrier coupling.
///
/// # Errors
///
/// [`OptError::BadConfig`] / [`OptError::NoThreads`] for malformed input,
/// including a θ outside Eq 4.4's domain (as for [`crate::synts_poly`]).
pub fn per_core_ts<M: ErrorModel>(
    cfg: &SystemConfig,
    profiles: &[ThreadProfile<M>],
    theta: f64,
) -> Result<Assignment, OptError> {
    cfg.validate()?;
    crate::poly::validate_theta(theta)?;
    if profiles.is_empty() {
        return Err(OptError::NoThreads);
    }
    let t = Tables::build(cfg, profiles);
    let s = cfg.s();
    let points = (0..t.m)
        .map(|i| {
            let mut best = (f64::INFINITY, 0usize);
            for idx in 0..cfg.q() * s {
                let cost = t.energy[i][idx] + theta * t.time[i][idx];
                if cost < best.0 {
                    best = (cost, idx);
                }
            }
            OperatingPoint {
                voltage_idx: best.1 / s,
                tsr_idx: best.1 % s,
            }
        })
        .collect();
    Ok(Assignment { points })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{evaluate, weighted_cost};
    use timing::ErrorCurve;

    fn curve(delays: Vec<f64>) -> ErrorCurve {
        ErrorCurve::from_normalized_delays(delays).expect("non-empty")
    }

    fn heterogeneous() -> (SystemConfig, Vec<ThreadProfile<ErrorCurve>>) {
        let cfg = SystemConfig::paper_default(10.0);
        let hot: Vec<f64> = (0..300).map(|i| 0.72 + 0.28 * (i as f64 / 300.0)).collect();
        let cool: Vec<f64> = (0..300).map(|i| 0.35 + 0.30 * (i as f64 / 300.0)).collect();
        let profiles = vec![
            ThreadProfile::new(10_000.0, 1.0, curve(hot)),
            ThreadProfile::new(10_000.0, 1.0, curve(cool.clone())),
            ThreadProfile::new(10_000.0, 1.0, curve(cool.clone())),
            ThreadProfile::new(10_000.0, 1.0, curve(cool)),
        ];
        (cfg, profiles)
    }

    #[test]
    fn nominal_is_top_voltage_no_speculation() {
        let (cfg, profiles) = heterogeneous();
        let a = nominal(&cfg, &profiles).expect("ok");
        for p in &a.points {
            assert_eq!(p.voltage_idx, 0);
            assert_eq!(p.tsr_idx, cfg.s() - 1);
        }
    }

    #[test]
    fn no_ts_never_speculates() {
        let (cfg, profiles) = heterogeneous();
        let a = no_ts(&cfg, &profiles, 1.0).expect("ok");
        for p in &a.points {
            assert_eq!(cfg.tsr_levels[p.tsr_idx], 1.0);
        }
    }

    #[test]
    fn synts_cost_never_worse_than_any_baseline() {
        // SynTS optimizes Eq 4.4 exactly, so its weighted cost lower-bounds
        // every other scheme at the same theta.
        let (cfg, profiles) = heterogeneous();
        let theta = {
            // Equal-weight theta: nominal energy / nominal time.
            let a = nominal(&cfg, &profiles).expect("ok");
            let ed = evaluate(&cfg, &profiles, &a);
            ed.energy / ed.time
        };
        let synts = synts_poly(&cfg, &profiles, theta).expect("ok");
        let c_synts = weighted_cost(&cfg, &profiles, &synts, theta);
        for (name, a) in [
            ("nominal", nominal(&cfg, &profiles).expect("ok")),
            ("no_ts", no_ts(&cfg, &profiles, theta).expect("ok")),
            ("per_core", per_core_ts(&cfg, &profiles, theta).expect("ok")),
        ] {
            let c = weighted_cost(&cfg, &profiles, &a, theta);
            assert!(
                c_synts <= c + 1e-9 * c.abs().max(1.0),
                "{name}: SynTS {c_synts} should not exceed {c}"
            );
        }
    }

    #[test]
    fn per_core_overspeculates_non_critical_threads() {
        // The paper's core observation: per-core TS pushes every thread to
        // its own optimum, so non-critical threads burn energy racing to a
        // barrier they'll wait at; SynTS instead slows them down. At an
        // equal-weight theta, SynTS must strictly beat per-core on Eq 4.4
        // for a heterogeneous workload.
        let (cfg, profiles) = heterogeneous();
        let a_nom = nominal(&cfg, &profiles).expect("ok");
        let ed_nom = evaluate(&cfg, &profiles, &a_nom);
        let theta = ed_nom.energy / ed_nom.time;
        let synts = synts_poly(&cfg, &profiles, theta).expect("ok");
        let percore = per_core_ts(&cfg, &profiles, theta).expect("ok");
        let c_synts = weighted_cost(&cfg, &profiles, &synts, theta);
        let c_percore = weighted_cost(&cfg, &profiles, &percore, theta);
        assert!(
            c_synts < c_percore * (1.0 - 1e-6),
            "heterogeneity must give SynTS strict advantage: {c_synts} vs {c_percore}"
        );
    }

    #[test]
    fn schemes_agree_on_fully_homogeneous_single_thread() {
        // With one thread, per-core TS and SynTS coincide by construction.
        let cfg = SystemConfig::paper_default(10.0);
        let profiles = vec![ThreadProfile::new(
            1_000.0,
            1.0,
            curve((0..100).map(|i| 0.4 + 0.5 * (i as f64 / 100.0)).collect()),
        )];
        let theta = 0.5;
        let a = per_core_ts(&cfg, &profiles, theta).expect("ok");
        let b = synts_poly(&cfg, &profiles, theta).expect("ok");
        let ca = weighted_cost(&cfg, &profiles, &a, theta);
        let cb = weighted_cost(&cfg, &profiles, &b, theta);
        assert!((ca - cb).abs() < 1e-9 * ca.max(1.0));
    }
}
