//! The thrifty barrier (Li, Martínez & Huang — the paper's ref \[4\]): an
//! architecture-level baseline that attacks the *same slack* SynTS does,
//! but by sleeping instead of slowing down.
//!
//! Threads run at nominal voltage and frequency; a thread arriving early
//! at the barrier drops into a low-power sleep state and is woken when
//! the last thread arrives, paying a wake-up latency. Under the paper's
//! dynamic-only energy model (Eq 4.3) idle waiting is already free, so
//! the thrifty barrier only becomes interesting — and is only offered —
//! under the leakage-extended model of [`crate::leakage`], where the idle
//! tail burns `κ·P_leak(V)` per unit time and sleeping cuts `κ` down to
//! the sleep-retention floor.
//!
//! The qualitative comparison the tests pin down: thrifty saves the idle
//! *leakage*, but SynTS additionally converts the slack into *dynamic*
//! savings by lowering voltage — on heterogeneous workloads SynTS
//! (leakage-aware) dominates the thrifty barrier in EDP.

use timing::{EnergyDelay, ErrorModel};

use crate::error::OptError;
use crate::leakage::LeakageModel;
use crate::model::{Assignment, OperatingPoint, SystemConfig, ThreadProfile};

/// Thrifty-barrier hardware parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThriftyConfig {
    /// Fraction of leakage power still burned in the sleep state
    /// (drowsy retention; 0 = perfect power gating).
    pub sleep_retention: f64,
    /// Wake-up latency in *cycles at nominal voltage* added to the
    /// barrier release for any interval in which at least one thread
    /// slept.
    pub wake_cycles: f64,
}

impl ThriftyConfig {
    /// Values in the spirit of the original paper: drowsy sleep retaining
    /// ~10% of leakage, ~100-cycle wake-up.
    #[must_use]
    pub fn classic() -> ThriftyConfig {
        ThriftyConfig {
            sleep_retention: 0.10,
            wake_cycles: 100.0,
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::BadConfig`] naming the first violation.
    pub fn validate(&self) -> Result<(), OptError> {
        if !(0.0..=1.0).contains(&self.sleep_retention) || self.sleep_retention.is_nan() {
            return Err(OptError::BadConfig("sleep retention out of [0, 1]"));
        }
        if !self.wake_cycles.is_finite() || self.wake_cycles < 0.0 {
            return Err(OptError::BadConfig("wake cycles must be >= 0"));
        }
        Ok(())
    }
}

/// Outcome of one barrier interval under the thrifty barrier.
#[derive(Debug, Clone, PartialEq)]
pub struct ThriftyOutcome {
    /// The (uniform nominal) operating points used.
    pub assignment: Assignment,
    /// Interval energy/time including sleep savings and wake penalty.
    pub total: EnergyDelay,
    /// How many threads slept (arrived strictly before the last).
    pub slept: usize,
    /// Total thread-time spent asleep across the interval.
    pub sleep_time: f64,
}

/// Evaluates one barrier interval under the thrifty barrier: all threads
/// at nominal V/F, early arrivals sleeping at `sleep_retention` leakage
/// until the barrier releases.
///
/// # Errors
///
/// [`OptError::BadConfig`] / [`OptError::NoThreads`] for malformed input.
pub fn thrifty_barrier<M: ErrorModel>(
    cfg: &SystemConfig,
    profiles: &[ThreadProfile<M>],
    leak: &LeakageModel,
    thrifty: &ThriftyConfig,
) -> Result<ThriftyOutcome, OptError> {
    cfg.validate()?;
    leak.validate()?;
    thrifty.validate()?;
    if profiles.is_empty() {
        return Err(OptError::NoThreads);
    }
    let nominal_pt = OperatingPoint {
        voltage_idx: 0,
        tsr_idx: cfg.s() - 1,
    };
    let assignment = Assignment::uniform(profiles.len(), nominal_pt);
    let times: Vec<f64> = profiles
        .iter()
        .map(|p| crate::model::thread_time(cfg, p, nominal_pt))
        .collect();
    let barrier = times.iter().copied().fold(0.0f64, f64::max);
    let p_leak = leak.power(cfg, nominal_pt.voltage_idx);
    let mut energy = 0.0;
    let mut slept = 0;
    let mut sleep_time = 0.0;
    for (prof, &t_i) in profiles.iter().zip(&times) {
        let dynamic = crate::model::thread_energy(cfg, prof, nominal_pt);
        let idle = (barrier - t_i).max(0.0);
        if idle > 0.0 {
            slept += 1;
            sleep_time += idle;
        }
        // Active leakage over the busy span; drowsy leakage over the tail.
        energy += dynamic + p_leak * t_i + thrifty.sleep_retention * p_leak * idle;
    }
    // Wake-up penalty: the barrier release waits for sleepers to wake.
    let wake = if slept > 0 {
        thrifty.wake_cycles * cfg.tnom_v1
    } else {
        0.0
    };
    // The woken cores burn active leakage during the wake transition.
    energy += wake * p_leak * profiles.len() as f64;
    Ok(ThriftyOutcome {
        assignment,
        total: EnergyDelay::new(energy, barrier + wake),
        slept,
        sleep_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leakage::{evaluate_with_leakage, synts_poly_leakage, LeakageModel};
    use timing::ErrorCurve;

    fn curve(lo: f64, hi: f64) -> ErrorCurve {
        let delays: Vec<f64> = (0..200)
            .map(|i| lo + (hi - lo) * i as f64 / 200.0)
            .collect();
        ErrorCurve::from_normalized_delays(delays).expect("non-empty")
    }

    /// An imbalanced 4-thread interval: thread 0 is the straggler, the
    /// rest idle at the barrier (the Fig 1.4 situation).
    fn imbalanced() -> (SystemConfig, Vec<ThreadProfile<ErrorCurve>>) {
        let cfg = SystemConfig::paper_default(10.0);
        let profiles = vec![
            ThreadProfile::new(10_000.0, 1.2, curve(0.70, 1.00)),
            ThreadProfile::new(6_000.0, 1.0, curve(0.45, 0.90)),
            ThreadProfile::new(5_000.0, 1.0, curve(0.50, 0.92)),
            ThreadProfile::new(4_000.0, 1.0, curve(0.40, 0.88)),
        ];
        (cfg, profiles)
    }

    #[test]
    fn sleeping_saves_idle_leakage() {
        let (cfg, profiles) = imbalanced();
        let leak = LeakageModel::fraction_of_dynamic(&cfg, 0.3).expect("ok");
        let thrifty = ThriftyConfig {
            sleep_retention: 0.1,
            wake_cycles: 0.0,
        };
        let out = thrifty_barrier(&cfg, &profiles, &leak, &thrifty).expect("ok");
        // Reference: same points, no sleeping (idle_scale = 1).
        let sleepless = evaluate_with_leakage(&cfg, &profiles, &out.assignment, &leak);
        assert!(out.slept == 3, "three threads idle at the barrier");
        assert!(out.sleep_time > 0.0);
        assert!(
            out.total.energy < sleepless.energy,
            "thrifty {} must beat sleepless {}",
            out.total.energy,
            sleepless.energy
        );
        assert_eq!(out.total.time, sleepless.time, "no wake penalty here");
    }

    #[test]
    fn full_retention_and_no_wake_equals_plain_nominal() {
        let (cfg, profiles) = imbalanced();
        let leak = LeakageModel::fraction_of_dynamic(&cfg, 0.3).expect("ok");
        let thrifty = ThriftyConfig {
            sleep_retention: 1.0,
            wake_cycles: 0.0,
        };
        let out = thrifty_barrier(&cfg, &profiles, &leak, &thrifty).expect("ok");
        let plain = evaluate_with_leakage(&cfg, &profiles, &out.assignment, &leak);
        assert!((out.total.energy - plain.energy).abs() < 1e-9 * plain.energy);
        assert_eq!(out.total.time, plain.time);
    }

    #[test]
    fn wake_penalty_stretches_the_interval() {
        let (cfg, profiles) = imbalanced();
        let leak = LeakageModel::fraction_of_dynamic(&cfg, 0.3).expect("ok");
        let base = thrifty_barrier(
            &cfg,
            &profiles,
            &leak,
            &ThriftyConfig {
                sleep_retention: 0.1,
                wake_cycles: 0.0,
            },
        )
        .expect("ok");
        let slow = thrifty_barrier(&cfg, &profiles, &leak, &ThriftyConfig::classic()).expect("ok");
        assert!(slow.total.time > base.total.time);
    }

    #[test]
    fn balanced_workload_never_sleeps() {
        let cfg = SystemConfig::paper_default(10.0);
        let profiles: Vec<ThreadProfile<ErrorCurve>> = (0..4)
            .map(|_| ThreadProfile::new(5_000.0, 1.0, curve(0.4, 0.9)))
            .collect();
        let leak = LeakageModel::fraction_of_dynamic(&cfg, 0.3).expect("ok");
        let out = thrifty_barrier(&cfg, &profiles, &leak, &ThriftyConfig::classic()).expect("ok");
        assert_eq!(out.slept, 0);
        assert_eq!(out.sleep_time, 0.0);
    }

    #[test]
    fn synts_with_leakage_beats_thrifty_on_heterogeneous_workloads() {
        // The headline qualitative claim: converting slack into voltage
        // reduction (SynTS) dominates merely sleeping through it.
        let (cfg, profiles) = imbalanced();
        let leak = LeakageModel::fraction_of_dynamic(&cfg, 0.3).expect("ok");
        let thrifty_out =
            thrifty_barrier(&cfg, &profiles, &leak, &ThriftyConfig::classic()).expect("ok");
        // Equal-weight theta on the thrifty outcome's scale.
        let theta = thrifty_out.total.energy / thrifty_out.total.time;
        let a = synts_poly_leakage(&cfg, &profiles, theta, &leak).expect("ok");
        let synts = evaluate_with_leakage(&cfg, &profiles, &a, &leak);
        assert!(
            synts.edp() < thrifty_out.total.edp(),
            "SynTS EDP {} must beat thrifty EDP {}",
            synts.edp(),
            thrifty_out.total.edp()
        );
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let t = ThriftyConfig {
            sleep_retention: -0.1,
            wake_cycles: 0.0,
        };
        assert!(t.validate().is_err());
        let t = ThriftyConfig {
            sleep_retention: 0.1,
            wake_cycles: f64::NAN,
        };
        assert!(t.validate().is_err());
        assert!(ThriftyConfig::classic().validate().is_ok());
    }

    #[test]
    fn empty_profiles_rejected() {
        let cfg = SystemConfig::paper_default(10.0);
        let leak = LeakageModel::none();
        let empty: Vec<ThreadProfile<ErrorCurve>> = Vec::new();
        assert_eq!(
            thrifty_barrier(&cfg, &empty, &leak, &ThriftyConfig::classic())
                .expect_err("no threads"),
            OptError::NoThreads
        );
    }
}
