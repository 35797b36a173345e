//! Power-constrained SynTS — the paper's suggested generalization.
//!
//! Sec 4.1 closes with: "although the focus of this thesis is for
//! exploring the energy versus execution time trade-offs, the proposed
//! approach can be generalized to address power consumption as well."
//! This module is that generalization: minimize the barrier execution
//! time subject to a cap on the chip's *average power* over the interval,
//!
//! ```text
//! min  t_exec      s.t.  Σ_i en_i / t_exec ≤ P_cap
//! ```
//!
//! The same enumeration that makes Algorithm 1 exact works here. Each
//! candidate (critical thread, voltage, TSR) pins `t_exec`; given
//! `t_exec`, the assignment that minimizes total energy — per-thread
//! `minEnergy` under the deadline — also minimizes average power, so a
//! candidate is feasible iff its energy-minimal completion satisfies the
//! cap. Among feasible candidates the smallest `t_exec` is optimal
//! (ties broken toward lower energy). Certified against the exhaustive
//! reference in the tests.

use timing::ErrorModel;

use crate::error::OptError;
use crate::exhaustive::EXHAUSTIVE_LIMIT;
use crate::model::{evaluate, Assignment, OperatingPoint, SystemConfig, ThreadProfile};
use crate::poly::Tables;

/// An optimal power-capped operating decision.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerCappedSolution {
    /// The chosen per-thread operating points.
    pub assignment: Assignment,
    /// Barrier execution time of the chosen assignment (Eq 4.2).
    pub time: f64,
    /// Total interval energy of the chosen assignment.
    pub energy: f64,
    /// Average power `energy / time` — guaranteed ≤ the requested cap.
    pub avg_power: f64,
}

/// Minimizes barrier time subject to an average-power cap, exactly, in
/// `O(M²Q²S²)` time.
///
/// # Errors
///
/// * [`OptError::BadConfig`] for a malformed config or a cap that is not
///   finite and positive;
/// * [`OptError::NoThreads`] if `profiles` is empty;
/// * [`OptError::Infeasible`] if no assignment meets the cap (the cap is
///   below even the most frugal configuration's average power).
pub fn synts_poly_power_capped<M: ErrorModel>(
    cfg: &SystemConfig,
    profiles: &[ThreadProfile<M>],
    p_cap: f64,
) -> Result<PowerCappedSolution, OptError> {
    cfg.validate()?;
    if !p_cap.is_finite() || p_cap <= 0.0 {
        return Err(OptError::BadConfig("power cap must be finite and > 0"));
    }
    if profiles.is_empty() {
        return Err(OptError::NoThreads);
    }
    let t = Tables::build(cfg, profiles);
    let mut best: Option<(f64, f64, Assignment)> = None; // (time, energy, points)
    let mut points = vec![
        OperatingPoint {
            voltage_idx: 0,
            tsr_idx: 0
        };
        t.m
    ];
    for i in 0..t.m {
        for j in 0..t.q {
            for k in 0..t.s {
                let idx = j * t.s + k;
                let texec = t.time[i][idx];
                let mut en = t.energy[i][idx];
                points[i] = OperatingPoint {
                    voltage_idx: j,
                    tsr_idx: k,
                };
                let mut feasible = true;
                for l in 0..t.m {
                    if l == i {
                        continue;
                    }
                    match t.min_energy(l, texec) {
                        Some((e, p)) => {
                            en += e;
                            points[l] = p;
                        }
                        None => {
                            feasible = false;
                            break;
                        }
                    }
                }
                if !feasible || en > p_cap * texec * (1.0 + 1e-12) {
                    continue;
                }
                let better = match &best {
                    None => true,
                    Some((bt, be, _)) => {
                        texec < bt * (1.0 - 1e-12)
                            || ((texec - bt).abs() <= 1e-12 * bt.max(1.0) && en < *be)
                    }
                };
                if better {
                    best = Some((
                        texec,
                        en,
                        Assignment {
                            points: points.clone(),
                        },
                    ));
                }
            }
        }
    }
    match best {
        Some((time, energy, assignment)) => Ok(PowerCappedSolution {
            avg_power: energy / time,
            assignment,
            time,
            energy,
        }),
        None => Err(OptError::Infeasible),
    }
}

/// Exhaustive reference for the power-capped problem (certification only).
///
/// # Errors
///
/// As [`synts_poly_power_capped`], plus [`OptError::TooLarge`] beyond the
/// exhaustive candidate cap.
pub fn synts_exhaustive_power_capped<M: ErrorModel>(
    cfg: &SystemConfig,
    profiles: &[ThreadProfile<M>],
    p_cap: f64,
) -> Result<PowerCappedSolution, OptError> {
    cfg.validate()?;
    if !p_cap.is_finite() || p_cap <= 0.0 {
        return Err(OptError::BadConfig("power cap must be finite and > 0"));
    }
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
    let s = cfg.s();
    let n_points = cfg.q() * s;
    let mut best: Option<(f64, f64, Vec<usize>)> = None;
    let mut combo = vec![0usize; m];
    loop {
        let assignment = Assignment {
            points: combo
                .iter()
                .map(|&idx| OperatingPoint {
                    voltage_idx: idx / s,
                    tsr_idx: idx % s,
                })
                .collect(),
        };
        let ed = evaluate(cfg, profiles, &assignment);
        if ed.energy <= p_cap * ed.time * (1.0 + 1e-12) {
            let better = match &best {
                None => true,
                Some((bt, be, _)) => {
                    ed.time < bt * (1.0 - 1e-12)
                        || ((ed.time - bt).abs() <= 1e-12 * bt.max(1.0) && ed.energy < *be)
                }
            };
            if better {
                best = Some((ed.time, ed.energy, combo.clone()));
            }
        }
        let mut pos = 0;
        loop {
            if pos == m {
                return match best {
                    Some((time, energy, c)) => Ok(PowerCappedSolution {
                        avg_power: energy / time,
                        assignment: Assignment {
                            points: c
                                .iter()
                                .map(|&idx| OperatingPoint {
                                    voltage_idx: idx / s,
                                    tsr_idx: idx % s,
                                })
                                .collect(),
                        },
                        time,
                        energy,
                    }),
                    None => Err(OptError::Infeasible),
                };
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
    use timing::ErrorCurve;

    fn curve(lo: f64, hi: f64) -> ErrorCurve {
        let delays: Vec<f64> = (0..200)
            .map(|i| lo + (hi - lo) * i as f64 / 200.0)
            .collect();
        ErrorCurve::from_normalized_delays(delays).expect("non-empty")
    }

    fn small_instance() -> (SystemConfig, Vec<ThreadProfile<ErrorCurve>>) {
        let mut cfg = SystemConfig::paper_default(10.0);
        cfg.voltages = timing::VoltageTable::from_volts([1.0, 0.86, 0.72]).expect("ok");
        cfg.tsr_levels = vec![0.64, 0.82, 1.0];
        let profiles = vec![
            ThreadProfile::new(10_000.0, 1.2, curve(0.70, 1.00)),
            ThreadProfile::new(9_000.0, 1.1, curve(0.50, 0.85)),
            ThreadProfile::new(11_000.0, 1.0, curve(0.30, 0.65)),
        ];
        (cfg, profiles)
    }

    /// Loosest cap that is still binding somewhere in the design space.
    fn nominal_power(cfg: &SystemConfig, profiles: &[ThreadProfile<ErrorCurve>]) -> f64 {
        let nominal = Assignment::uniform(
            profiles.len(),
            OperatingPoint {
                voltage_idx: 0,
                tsr_idx: cfg.s() - 1,
            },
        );
        let ed = evaluate(cfg, profiles, &nominal);
        ed.energy / ed.time
    }

    #[test]
    fn poly_matches_exhaustive_across_caps() {
        let (cfg, profiles) = small_instance();
        let p_nom = nominal_power(&cfg, &profiles);
        for scale in [0.5, 0.8, 1.0, 1.5, 3.0] {
            let cap = p_nom * scale;
            let poly = synts_poly_power_capped(&cfg, &profiles, cap);
            let ex = synts_exhaustive_power_capped(&cfg, &profiles, cap);
            match (poly, ex) {
                (Ok(p), Ok(e)) => {
                    assert!(
                        (p.time - e.time).abs() <= 1e-9 * e.time.max(1.0),
                        "cap ×{scale}: poly time {} vs exhaustive {}",
                        p.time,
                        e.time
                    );
                    assert!(p.avg_power <= cap * (1.0 + 1e-9));
                }
                (Err(OptError::Infeasible), Err(OptError::Infeasible)) => {}
                (p, e) => panic!("solvers disagree at cap ×{scale}: {p:?} vs {e:?}"),
            }
        }
    }

    #[test]
    fn looser_cap_never_slows_the_barrier() {
        let (cfg, profiles) = small_instance();
        let p_nom = nominal_power(&cfg, &profiles);
        let mut prev_time = f64::INFINITY;
        for scale in [0.6, 0.8, 1.0, 1.4, 2.0, 4.0] {
            if let Ok(sol) = synts_poly_power_capped(&cfg, &profiles, p_nom * scale) {
                assert!(
                    sol.time <= prev_time * (1.0 + 1e-12),
                    "loosening the cap must not slow execution"
                );
                prev_time = sol.time;
            }
        }
    }

    #[test]
    fn unbounded_cap_recovers_pure_speed_optimum() {
        let (cfg, profiles) = small_instance();
        let sol = synts_poly_power_capped(&cfg, &profiles, 1e18).expect("feasible");
        // With no effective cap, the time must equal the theta→inf optimum.
        let fast = crate::poly::synts_poly(&cfg, &profiles, 1e15).expect("poly");
        let ed = evaluate(&cfg, &profiles, &fast);
        assert!((sol.time - ed.time).abs() <= 1e-9 * ed.time);
    }

    #[test]
    fn impossibly_tight_cap_is_infeasible() {
        let (cfg, profiles) = small_instance();
        assert_eq!(
            synts_poly_power_capped(&cfg, &profiles, 1e-15).expect_err("infeasible"),
            OptError::Infeasible
        );
    }

    #[test]
    fn rejects_bad_caps_and_inputs() {
        let (cfg, profiles) = small_instance();
        assert!(matches!(
            synts_poly_power_capped(&cfg, &profiles, f64::NAN).expect_err("nan"),
            OptError::BadConfig(_)
        ));
        assert!(matches!(
            synts_poly_power_capped(&cfg, &profiles, -1.0).expect_err("negative"),
            OptError::BadConfig(_)
        ));
        let empty: Vec<ThreadProfile<ErrorCurve>> = Vec::new();
        assert_eq!(
            synts_poly_power_capped(&cfg, &empty, 1.0).expect_err("no threads"),
            OptError::NoThreads
        );
    }

    #[test]
    fn binding_cap_trades_time_for_power() {
        let (cfg, profiles) = small_instance();
        let p_nom = nominal_power(&cfg, &profiles);
        let loose = synts_poly_power_capped(&cfg, &profiles, p_nom * 4.0).expect("ok");
        let tight = synts_poly_power_capped(&cfg, &profiles, p_nom * 0.7).expect("ok");
        assert!(tight.time >= loose.time);
        assert!(tight.avg_power <= p_nom * 0.7 * (1.0 + 1e-9));
    }

    #[test]
    fn reported_metrics_are_consistent() {
        let (cfg, profiles) = small_instance();
        let p_nom = nominal_power(&cfg, &profiles);
        let sol = synts_poly_power_capped(&cfg, &profiles, p_nom).expect("ok");
        let ed = evaluate(&cfg, &profiles, &sol.assignment);
        assert!((sol.time - ed.time).abs() < 1e-12 * ed.time.max(1.0));
        assert!((sol.energy - ed.energy).abs() < 1e-12 * ed.energy.max(1.0));
        assert!((sol.avg_power - ed.energy / ed.time).abs() < 1e-12);
    }
}
