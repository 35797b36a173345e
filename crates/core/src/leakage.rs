//! Leakage-power extension of the system model.
//!
//! The paper's Sec 4.1 notes that Eq 4.3 "does not currently account for
//! leakage power, \[but\] it can be easily extended to do so". This module
//! is that extension: a voltage-dependent static-power term charged over
//! wall-clock time, including the **idle tail** a non-critical thread
//! spends parked at the barrier after finishing its work.
//!
//! Per thread `i`, interval energy becomes
//!
//! ```text
//! en_i = α V_i² N_i (p_i C + CPI_i)              (Eq 4.3, dynamic)
//!      + P_leak(V_i) · t_i                        (active leakage)
//!      + κ · P_leak(V_i) · (t_exec − t_i)         (idle leakage at barrier)
//! ```
//!
//! with `P_leak(V) = P₀ Vᵞ` and `κ ∈ [0, 1]` the idle retention factor
//! (1 = the core sits parked at its operating voltage, 0 = perfect power
//! gating while waiting). The waiting core is assumed to stay at the
//! voltage it ran at — the conservative choice for a core without a
//! per-barrier voltage transition.
//!
//! Crucially, the decomposition that makes Algorithm 1 exact survives:
//! given a candidate barrier time `t_exec` (pinned by the critical
//! thread's operating point), each non-critical thread's energy still
//! depends only on its *own* operating point. [`synts_poly_leakage`]
//! exploits this and remains provably optimal — certified against
//! [`synts_exhaustive_leakage`] in the tests.

use timing::{EnergyDelay, ErrorModel};

use crate::error::OptError;
use crate::exhaustive::EXHAUSTIVE_LIMIT;
use crate::model::{Assignment, OperatingPoint, SystemConfig, ThreadProfile};

/// Voltage-dependent static (leakage) power: `P_leak(V) = P₀ · Vᵞ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakageModel {
    /// Leakage power at the nominal 1.0 V, in the model's energy unit per
    /// delay unit (the same time base as [`SystemConfig::tnom_v1`]).
    pub p_leak_nominal: f64,
    /// Voltage exponent `γ`. Architecture-level models cluster around 3
    /// (supply current roughly quadratic in V, power one factor higher).
    pub voltage_exponent: f64,
    /// Idle retention factor `κ`: fraction of leakage power still burned
    /// while a finished thread waits at the barrier.
    pub idle_scale: f64,
}

impl LeakageModel {
    /// No leakage at all; reduces every function in this module to the
    /// paper's original Eq 4.2/4.3 behaviour.
    #[must_use]
    pub fn none() -> LeakageModel {
        LeakageModel {
            p_leak_nominal: 0.0,
            voltage_exponent: 3.0,
            idle_scale: 1.0,
        }
    }

    /// A typical planar-22 nm share: leakage at nominal voltage equal to
    /// `frac` of the dynamic power of a CPI-1 thread running error-free at
    /// `(1.0 V, r = 1)` under `cfg`. Literature puts `frac` near 0.2–0.35
    /// for this node class.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::BadConfig`] if `frac` is not finite and
    /// non-negative or `cfg` itself is invalid.
    pub fn fraction_of_dynamic(cfg: &SystemConfig, frac: f64) -> Result<LeakageModel, OptError> {
        cfg.validate()?;
        if !frac.is_finite() || frac < 0.0 {
            return Err(OptError::BadConfig("leakage fraction must be >= 0"));
        }
        // Dynamic power of the reference thread: α·V²·(1 cycle) per t_nom.
        let p_dyn = cfg.alpha / cfg.tnom_v1;
        Ok(LeakageModel {
            p_leak_nominal: frac * p_dyn,
            voltage_exponent: 3.0,
            idle_scale: 1.0,
        })
    }

    /// Validates the model parameters.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::BadConfig`] naming the first violation.
    pub fn validate(&self) -> Result<(), OptError> {
        if !self.p_leak_nominal.is_finite() || self.p_leak_nominal < 0.0 {
            return Err(OptError::BadConfig("leakage power must be >= 0"));
        }
        if !(0.0..=6.0).contains(&self.voltage_exponent) {
            return Err(OptError::BadConfig("leakage exponent out of [0, 6]"));
        }
        if !(0.0..=1.0).contains(&self.idle_scale) || self.idle_scale.is_nan() {
            return Err(OptError::BadConfig("idle retention out of [0, 1]"));
        }
        Ok(())
    }

    /// Leakage power at voltage index `j` of `cfg`.
    #[must_use]
    pub fn power(&self, cfg: &SystemConfig, voltage_idx: usize) -> f64 {
        let v = cfg.voltages.levels()[voltage_idx].volts();
        self.p_leak_nominal * v.powf(self.voltage_exponent)
    }
}

/// Energy of one thread including leakage, given the barrier time
/// `texec` it waits until (Eq 4.3 plus active and idle leakage).
///
/// # Panics
///
/// Panics (debug) if the thread finishes after `texec`; callers pin
/// `texec` to the critical thread's time, which bounds all others.
#[must_use]
pub fn thread_energy_with_leakage<M: ErrorModel>(
    cfg: &SystemConfig,
    profile: &ThreadProfile<M>,
    point: OperatingPoint,
    leak: &LeakageModel,
    texec: f64,
) -> f64 {
    let t_i = crate::model::thread_time(cfg, profile, point);
    debug_assert!(
        t_i <= texec * (1.0 + 1e-9) + 1e-9,
        "thread time {t_i} exceeds barrier time {texec}"
    );
    let dynamic = crate::model::thread_energy(cfg, profile, point);
    let p_leak = leak.power(cfg, point.voltage_idx);
    dynamic + p_leak * t_i + leak.idle_scale * p_leak * (texec - t_i).max(0.0)
}

/// Evaluates a complete assignment under the leakage-extended model:
/// total energy (dynamic + active leakage + idle leakage) and barrier
/// time (Eq 4.2, unchanged — leakage does not alter timing).
///
/// # Panics
///
/// Panics if `assignment` and `profiles` disagree on the thread count.
#[must_use]
pub fn evaluate_with_leakage<M: ErrorModel>(
    cfg: &SystemConfig,
    profiles: &[ThreadProfile<M>],
    assignment: &Assignment,
    leak: &LeakageModel,
) -> EnergyDelay {
    assert_eq!(
        profiles.len(),
        assignment.len(),
        "assignment/profile thread counts differ"
    );
    let texec = profiles
        .iter()
        .zip(&assignment.points)
        .map(|(prof, &pt)| crate::model::thread_time(cfg, prof, pt))
        .fold(0.0f64, f64::max);
    let energy = profiles
        .iter()
        .zip(&assignment.points)
        .map(|(prof, &pt)| thread_energy_with_leakage(cfg, prof, pt, leak, texec))
        .sum();
    EnergyDelay::new(energy, texec)
}

/// The weighted SynTS-OPT objective under the leakage-extended model.
#[must_use]
pub fn weighted_cost_with_leakage<M: ErrorModel>(
    cfg: &SystemConfig,
    profiles: &[ThreadProfile<M>],
    assignment: &Assignment,
    leak: &LeakageModel,
    theta: f64,
) -> f64 {
    let ed = evaluate_with_leakage(cfg, profiles, assignment, leak);
    ed.energy + theta * ed.time
}

/// Algorithm 1 generalized to the leakage-extended model; still exact.
///
/// For each candidate critical thread and operating point (pinning
/// `t_exec`), every other thread independently takes its cheapest point
/// under the *leakage-aware* energy — which, given `t_exec`, is a
/// function of its own point alone. The per-candidate decomposition is
/// therefore identical in structure to the original algorithm and the
/// optimality argument of Lemma 4.2.1 carries over unchanged.
///
/// Runtime: `O(M²Q²S²)`, as the original.
///
/// # Errors
///
/// * [`OptError::BadConfig`] for a malformed `cfg` or `leak`;
/// * [`OptError::NoThreads`] if `profiles` is empty.
pub fn synts_poly_leakage<M: ErrorModel>(
    cfg: &SystemConfig,
    profiles: &[ThreadProfile<M>],
    theta: f64,
    leak: &LeakageModel,
) -> Result<Assignment, OptError> {
    cfg.validate()?;
    leak.validate()?;
    if profiles.is_empty() {
        return Err(OptError::NoThreads);
    }
    let (q, s) = (cfg.q(), cfg.s());
    let m = profiles.len();
    // Per-thread per-point time, dynamic energy and leakage power.
    let mut time = vec![vec![0.0f64; q * s]; m];
    let mut dynamic = vec![vec![0.0f64; q * s]; m];
    let mut p_leak = vec![0.0f64; q];
    for (j, p) in p_leak.iter_mut().enumerate() {
        *p = leak.power(cfg, j);
    }
    for (i, prof) in profiles.iter().enumerate() {
        for j in 0..q {
            for k in 0..s {
                let pt = OperatingPoint {
                    voltage_idx: j,
                    tsr_idx: k,
                };
                time[i][j * s + k] = crate::model::thread_time(cfg, prof, pt);
                dynamic[i][j * s + k] = crate::model::thread_energy(cfg, prof, pt);
            }
        }
    }
    let mut best_cost = f64::INFINITY;
    let mut best: Option<Assignment> = None;
    let mut points = vec![
        OperatingPoint {
            voltage_idx: 0,
            tsr_idx: 0
        };
        m
    ];
    for i in 0..m {
        for j in 0..q {
            for k in 0..s {
                let idx = j * s + k;
                let texec = time[i][idx];
                // Critical thread: runs the whole interval, no idle tail.
                let mut en = dynamic[i][idx] + p_leak[j] * texec;
                points[i] = OperatingPoint {
                    voltage_idx: j,
                    tsr_idx: k,
                };
                let mut feasible = true;
                for l in 0..m {
                    if l == i {
                        continue;
                    }
                    // Leakage-aware minEnergy(l, texec).
                    let mut best_l: Option<(f64, OperatingPoint)> = None;
                    for jj in 0..q {
                        for kk in 0..s {
                            let li = jj * s + kk;
                            let t_l = time[l][li];
                            if t_l <= texec * (1.0 + 1e-12) + 1e-12 {
                                let e = dynamic[l][li]
                                    + p_leak[jj] * t_l
                                    + leak.idle_scale * p_leak[jj] * (texec - t_l).max(0.0);
                                if best_l.is_none_or(|(b, _)| e < b) {
                                    best_l = Some((
                                        e,
                                        OperatingPoint {
                                            voltage_idx: jj,
                                            tsr_idx: kk,
                                        },
                                    ));
                                }
                            }
                        }
                    }
                    match best_l {
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
                if !feasible {
                    continue;
                }
                let cost = en + theta * texec;
                if cost < best_cost {
                    best_cost = cost;
                    best = Some(Assignment {
                        points: points.clone(),
                    });
                }
            }
        }
    }
    best.ok_or(OptError::Infeasible)
}

/// Exhaustive reference for the leakage-extended model (certification
/// only; same candidate cap as [`crate::synts_exhaustive`]).
///
/// # Errors
///
/// * [`OptError::TooLarge`] if `(Q·S)^M` exceeds the cap;
/// * [`OptError::BadConfig`] / [`OptError::NoThreads`] as elsewhere.
pub fn synts_exhaustive_leakage<M: ErrorModel>(
    cfg: &SystemConfig,
    profiles: &[ThreadProfile<M>],
    theta: f64,
    leak: &LeakageModel,
) -> Result<Assignment, OptError> {
    cfg.validate()?;
    leak.validate()?;
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
    let mut best_cost = f64::INFINITY;
    let mut best_combo = vec![0usize; m];
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
        let cost = weighted_cost_with_leakage(cfg, profiles, &assignment, leak, theta);
        if cost < best_cost {
            best_cost = cost;
            best_combo.copy_from_slice(&combo);
        }
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
    use crate::model::{evaluate, weighted_cost};
    use crate::poly::synts_poly;
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

    #[test]
    fn zero_leakage_reduces_to_base_model() {
        let (cfg, profiles) = small_instance();
        let leak = LeakageModel::none();
        let a = synts_poly(&cfg, &profiles, 1.0).expect("poly");
        let base = evaluate(&cfg, &profiles, &a);
        let ext = evaluate_with_leakage(&cfg, &profiles, &a, &leak);
        assert!((base.energy - ext.energy).abs() < 1e-12 * base.energy.max(1.0));
        assert_eq!(base.time, ext.time);
        // And the leakage-aware solver returns an equally good assignment.
        let al = synts_poly_leakage(&cfg, &profiles, 1.0, &leak).expect("poly");
        let c0 = weighted_cost(&cfg, &profiles, &a, 1.0);
        let c1 = weighted_cost(&cfg, &profiles, &al, 1.0);
        assert!((c0 - c1).abs() <= 1e-9 * c0);
    }

    #[test]
    fn poly_matches_exhaustive_with_leakage() {
        let (cfg, profiles) = small_instance();
        for frac in [0.1, 0.3, 0.6] {
            let mut leak = LeakageModel::fraction_of_dynamic(&cfg, frac).expect("ok");
            for idle in [0.0, 0.5, 1.0] {
                leak.idle_scale = idle;
                for theta in [0.0, 0.5, 10.0] {
                    let poly = synts_poly_leakage(&cfg, &profiles, theta, &leak).expect("poly");
                    let ex = synts_exhaustive_leakage(&cfg, &profiles, theta, &leak)
                        .expect("exhaustive");
                    let cp = weighted_cost_with_leakage(&cfg, &profiles, &poly, &leak, theta);
                    let ce = weighted_cost_with_leakage(&cfg, &profiles, &ex, &leak, theta);
                    assert!(
                        (cp - ce).abs() <= 1e-9 * ce.abs().max(1.0),
                        "frac {frac} idle {idle} theta {theta}: poly {cp} vs exhaustive {ce}"
                    );
                }
            }
        }
    }

    #[test]
    fn energy_monotone_in_leakage_power() {
        let (cfg, profiles) = small_instance();
        let a = synts_poly(&cfg, &profiles, 1.0).expect("poly");
        let mut prev = evaluate(&cfg, &profiles, &a).energy;
        for frac in [0.1, 0.2, 0.4, 0.8] {
            let leak = LeakageModel::fraction_of_dynamic(&cfg, frac).expect("ok");
            let e = evaluate_with_leakage(&cfg, &profiles, &a, &leak).energy;
            assert!(e > prev, "more leakage must cost more: {e} vs {prev}");
            prev = e;
        }
    }

    #[test]
    fn idle_tail_is_charged() {
        // Two threads with very different finish times: idle_scale = 1
        // must cost strictly more than idle_scale = 0 at the same points.
        let (cfg, _) = small_instance();
        let profiles = vec![
            ThreadProfile::new(10_000.0, 1.0, curve(0.3, 0.6)),
            ThreadProfile::new(1_000.0, 1.0, curve(0.3, 0.6)),
        ];
        let a = Assignment::uniform(
            2,
            OperatingPoint {
                voltage_idx: 0,
                tsr_idx: 2,
            },
        );
        let mut leak = LeakageModel::fraction_of_dynamic(&cfg, 0.3).expect("ok");
        leak.idle_scale = 1.0;
        let with_idle = evaluate_with_leakage(&cfg, &profiles, &a, &leak).energy;
        leak.idle_scale = 0.0;
        let gated = evaluate_with_leakage(&cfg, &profiles, &a, &leak).energy;
        assert!(with_idle > gated);
    }

    #[test]
    fn leakage_shifts_voltage_choices_downward_or_equal() {
        // With heavy leakage (P ∝ V³), keeping non-critical threads at high
        // voltage is costlier; the optimizer should never pick *higher*
        // total voltage than the leakage-free optimum at equal theta.
        let (cfg, profiles) = small_instance();
        let theta = 0.01;
        let base = synts_poly(&cfg, &profiles, theta).expect("poly");
        let leak = LeakageModel::fraction_of_dynamic(&cfg, 0.8).expect("ok");
        let heavy = synts_poly_leakage(&cfg, &profiles, theta, &leak).expect("poly");
        let volts = |a: &Assignment| -> f64 { a.points.iter().map(|p| p.voltage_idx as f64).sum() };
        // Higher voltage_idx = lower voltage in the table.
        assert!(volts(&heavy) >= volts(&base) - 1e-9);
    }

    #[test]
    fn validation_rejects_bad_models() {
        let mut leak = LeakageModel::none();
        leak.p_leak_nominal = -1.0;
        assert!(leak.validate().is_err());
        let mut leak = LeakageModel::none();
        leak.voltage_exponent = 9.0;
        assert!(leak.validate().is_err());
        let mut leak = LeakageModel::none();
        leak.idle_scale = 1.5;
        assert!(leak.validate().is_err());
        let cfg = SystemConfig::paper_default(10.0);
        assert!(LeakageModel::fraction_of_dynamic(&cfg, f64::NAN).is_err());
        assert!(LeakageModel::fraction_of_dynamic(&cfg, -0.1).is_err());
    }

    #[test]
    fn fraction_constructor_sets_stated_share() {
        let cfg = SystemConfig::paper_default(100.0);
        let leak = LeakageModel::fraction_of_dynamic(&cfg, 0.25).expect("ok");
        // Reference dynamic power: α / t_nom at 1 V.
        let p_dyn = cfg.alpha / cfg.tnom_v1;
        assert!((leak.power(&cfg, 0) / p_dyn - 0.25).abs() < 1e-12);
        // At 0.72 V (index 4): V³ scaling.
        let v = cfg.voltages.levels()[4].volts();
        assert!((leak.power(&cfg, 4) / leak.power(&cfg, 0) - v.powi(3)).abs() < 1e-12);
    }
}
