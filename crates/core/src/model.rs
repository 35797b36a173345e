//! The SynTS system model (paper Sec 4.1): discrete voltage/TSR levels,
//! per-thread workload profiles, and the performance/energy equations
//! 4.1–4.3 that everything else optimizes.

use timing::{ErrorModel, Voltage, VoltageTable};

use crate::error::OptError;

/// Razor's pipeline flush-and-replay penalty in cycles (Sec 4.1, after
/// Eq 4.1, citing the Razor processor).
pub const RAZOR_PENALTY_CYCLES: f64 = 5.0;

/// Static system parameters: the sets `V` and `R`, the stage's nominal
/// period, the recovery penalty and the switching-capacitance scalar α.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Available voltage levels (the paper's `V`, `Q` entries).
    pub voltages: VoltageTable,
    /// Available timing-speculation ratios, ascending, last entry = 1.0
    /// (the paper's `R`, `S` entries).
    pub tsr_levels: Vec<f64>,
    /// Stage nominal clock period at 1.0 V (STA critical path).
    pub tnom_v1: f64,
    /// Error-recovery penalty in cycles (`C_penalty`).
    pub c_penalty: f64,
    /// Average switching capacitance scalar (`α` in Eq 4.3).
    pub alpha: f64,
}

impl SystemConfig {
    /// The paper's experimental configuration (Sec 6.2): Table 5.1 voltages
    /// and six TSR levels evenly spaced in `[0.64, 1.0]`.
    #[must_use]
    pub fn paper_default(tnom_v1: f64) -> SystemConfig {
        let tsr_levels = (0..6).map(|k| 0.64 + 0.072 * k as f64).collect();
        SystemConfig {
            voltages: VoltageTable::ptm22(),
            tsr_levels,
            tnom_v1,
            c_penalty: RAZOR_PENALTY_CYCLES,
            alpha: 1.0,
        }
    }

    /// Validates internal consistency (levels present, TSRs ascending in
    /// `(0, 1]` and ending at 1.0, positive period).
    ///
    /// # Errors
    ///
    /// Returns [`OptError::BadConfig`] describing the first violation.
    // `!(x > 0)` rather than `x <= 0`: must also reject NaN.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Result<(), OptError> {
        if self.voltages.is_empty() {
            return Err(OptError::BadConfig("no voltage levels"));
        }
        if self.tsr_levels.is_empty() {
            return Err(OptError::BadConfig("no TSR levels"));
        }
        for w in self.tsr_levels.windows(2) {
            if w[0] >= w[1] {
                return Err(OptError::BadConfig("TSR levels must be ascending"));
            }
        }
        let first = self.tsr_levels[0];
        let last = *self.tsr_levels.last().expect("checked non-empty");
        if first <= 0.0 || (last - 1.0).abs() > 1e-12 {
            return Err(OptError::BadConfig(
                "TSR levels must lie in (0, 1] and include 1.0",
            ));
        }
        if !(self.tnom_v1 > 0.0) {
            return Err(OptError::BadConfig("nominal period must be positive"));
        }
        if self.c_penalty < 0.0 || self.alpha <= 0.0 {
            return Err(OptError::BadConfig("penalty/alpha out of range"));
        }
        Ok(())
    }

    /// Number of voltage levels (`Q`).
    #[must_use]
    pub fn q(&self) -> usize {
        self.voltages.len()
    }

    /// Number of TSR levels (`S`).
    #[must_use]
    pub fn s(&self) -> usize {
        self.tsr_levels.len()
    }

    /// Nominal clock period at voltage `v`: `t_nom(V)`.
    #[must_use]
    pub fn tnom(&self, v: Voltage) -> f64 {
        self.tnom_v1 * v.delay_scale()
    }

    /// Speculative clock period for `(voltage index, TSR index)`:
    /// `t_clk = r · t_nom(V)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn tclk(&self, voltage_idx: usize, tsr_idx: usize) -> f64 {
        let v = self.voltages.levels()[voltage_idx];
        self.tsr_levels[tsr_idx] * self.tnom(v)
    }
}

/// Per-thread workload profile for one barrier interval: instruction count
/// `N_i`, error-free CPI, and the thread's error model `err_i`.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadProfile<M> {
    /// Instructions the thread executes in the interval (`N_i`).
    pub instructions: f64,
    /// Error-free clocks per instruction (`CPI_base_i`).
    pub cpi_base: f64,
    /// The thread's error-probability model.
    pub err: M,
}

impl<M: ErrorModel> ThreadProfile<M> {
    /// Creates a profile.
    #[must_use]
    pub fn new(instructions: f64, cpi_base: f64, err: M) -> ThreadProfile<M> {
        ThreadProfile {
            instructions,
            cpi_base,
            err,
        }
    }

    /// Cycles the thread consumes at error probability `p` (Eq 4.1 inner
    /// term times `N_i`): `N (p·C_penalty + CPI_base)`.
    #[must_use]
    pub fn cycles(&self, p_err: f64, c_penalty: f64) -> f64 {
        self.instructions * (p_err * c_penalty + self.cpi_base)
    }
}

/// One thread's chosen operating point: indices into the config's voltage
/// and TSR tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OperatingPoint {
    /// Index into [`SystemConfig::voltages`].
    pub voltage_idx: usize,
    /// Index into [`SystemConfig::tsr_levels`].
    pub tsr_idx: usize,
}

/// A complete per-thread operating-point assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// One operating point per thread.
    pub points: Vec<OperatingPoint>,
}

impl Assignment {
    /// Uniform assignment: every thread at the same point.
    #[must_use]
    pub fn uniform(threads: usize, point: OperatingPoint) -> Assignment {
        Assignment {
            points: vec![point; threads],
        }
    }

    /// Number of threads covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the assignment covers no threads.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Execution time of one thread at an operating point (Eq 4.1 × `N_i`).
#[must_use]
pub fn thread_time<M: ErrorModel>(
    cfg: &SystemConfig,
    profile: &ThreadProfile<M>,
    point: OperatingPoint,
) -> f64 {
    let r = cfg.tsr_levels[point.tsr_idx];
    let p = profile.err.err(r);
    cfg.tclk(point.voltage_idx, point.tsr_idx) * profile.cycles(p, cfg.c_penalty)
}

/// Energy of one thread at an operating point (Eq 4.3).
#[must_use]
pub fn thread_energy<M: ErrorModel>(
    cfg: &SystemConfig,
    profile: &ThreadProfile<M>,
    point: OperatingPoint,
) -> f64 {
    let r = cfg.tsr_levels[point.tsr_idx];
    let p = profile.err.err(r);
    let v = cfg.voltages.levels()[point.voltage_idx];
    cfg.alpha * v.energy_scale() * profile.cycles(p, cfg.c_penalty)
}

/// Evaluates a complete assignment: total energy (Σ Eq 4.3) and barrier
/// execution time (Eq 4.2).
///
/// # Panics
///
/// Panics if the assignment covers a different number of threads than
/// `profiles`.
#[must_use]
pub fn evaluate<M: ErrorModel>(
    cfg: &SystemConfig,
    profiles: &[ThreadProfile<M>],
    assignment: &Assignment,
) -> timing::EnergyDelay {
    assert_eq!(
        profiles.len(),
        assignment.len(),
        "assignment/profile thread counts differ"
    );
    let mut energy = 0.0;
    let mut time: f64 = 0.0;
    for (profile, &point) in profiles.iter().zip(&assignment.points) {
        energy += thread_energy(cfg, profile, point);
        time = time.max(thread_time(cfg, profile, point));
    }
    timing::EnergyDelay::new(energy, time)
}

/// The weighted objective of SynTS-OPT (Eq 4.4): `Σ en_i + θ·t_exec`.
#[must_use]
pub fn weighted_cost<M: ErrorModel>(
    cfg: &SystemConfig,
    profiles: &[ThreadProfile<M>],
    assignment: &Assignment,
    theta: f64,
) -> f64 {
    let ed = evaluate(cfg, profiles, assignment);
    ed.energy + theta * ed.time
}

#[cfg(test)]
mod tests {
    use super::*;
    use timing::ErrorCurve;

    fn flat_curve(norm_delays: Vec<f64>) -> ErrorCurve {
        ErrorCurve::from_normalized_delays(norm_delays).expect("non-empty")
    }

    fn cfg() -> SystemConfig {
        SystemConfig::paper_default(100.0)
    }

    #[test]
    fn paper_default_is_valid() {
        let c = cfg();
        c.validate().expect("valid");
        assert_eq!(c.q(), 7);
        assert_eq!(c.s(), 6);
        assert!((c.tsr_levels[0] - 0.64).abs() < 1e-12);
        assert!((c.tsr_levels[5] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = cfg();
        c.tsr_levels = vec![0.9, 0.8, 1.0];
        assert!(c.validate().is_err(), "non-ascending TSRs");
        let mut c = cfg();
        c.tsr_levels = vec![0.5, 0.9];
        assert!(c.validate().is_err(), "missing r = 1");
        let mut c = cfg();
        c.tnom_v1 = 0.0;
        assert!(c.validate().is_err(), "zero period");
    }

    #[test]
    fn tclk_combines_table_and_ratio() {
        let c = cfg();
        // Voltage index 3 = 0.80 V (×1.39), TSR index 5 = 1.0.
        assert!((c.tclk(3, 5) - 139.0).abs() < 1e-9);
        // TSR index 0 = 0.64.
        assert!((c.tclk(0, 0) - 64.0).abs() < 1e-9);
    }

    #[test]
    fn eq_4_1_to_4_3_hand_check() {
        let c = cfg();
        // Thread: N = 1000, CPI = 1.5, all delays at 0.7 of tnom.
        let prof = ThreadProfile::new(1000.0, 1.5, flat_curve(vec![0.7; 100]));
        // At r = 1.0: p = 0 -> time = tclk * N * CPI.
        let nominal = OperatingPoint {
            voltage_idx: 0,
            tsr_idx: 5,
        };
        let t = thread_time(&c, &prof, nominal);
        assert!((t - 100.0 * 1000.0 * 1.5).abs() < 1e-6);
        let e = thread_energy(&c, &prof, nominal);
        assert!((e - 1.0 * 1000.0 * 1.5).abs() < 1e-9);
        // At r = 0.64 every instruction errs: p = 1.
        let fast = OperatingPoint {
            voltage_idx: 0,
            tsr_idx: 0,
        };
        let cycles = 1000.0 * (1.0 * 5.0 + 1.5);
        let t = thread_time(&c, &prof, fast);
        assert!((t - 64.0 * cycles).abs() < 1e-6);
    }

    #[test]
    fn energy_scales_with_v_squared() {
        let c = cfg();
        let prof = ThreadProfile::new(100.0, 1.0, flat_curve(vec![0.0; 10]));
        let hi = thread_energy(
            &c,
            &prof,
            OperatingPoint {
                voltage_idx: 0,
                tsr_idx: 5,
            },
        );
        let lo = thread_energy(
            &c,
            &prof,
            OperatingPoint {
                voltage_idx: 3, // 0.8 V
                tsr_idx: 5,
            },
        );
        assert!((lo / hi - 0.64).abs() < 1e-12);
    }

    #[test]
    fn evaluate_takes_max_time_sum_energy() {
        let c = cfg();
        let fast_thread = ThreadProfile::new(100.0, 1.0, flat_curve(vec![0.1; 10]));
        let slow_thread = ThreadProfile::new(1000.0, 2.0, flat_curve(vec![0.1; 10]));
        let a = Assignment::uniform(
            2,
            OperatingPoint {
                voltage_idx: 0,
                tsr_idx: 5,
            },
        );
        let ed = evaluate(&c, &[fast_thread.clone(), slow_thread.clone()], &a);
        let t_slow = thread_time(&c, &slow_thread, a.points[1]);
        assert!((ed.time - t_slow).abs() < 1e-9, "time is the max");
        let e_sum = thread_energy(&c, &fast_thread, a.points[0])
            + thread_energy(&c, &slow_thread, a.points[1]);
        assert!((ed.energy - e_sum).abs() < 1e-9, "energy is the sum");
    }

    #[test]
    fn speculation_beyond_error_free_region_raises_time() {
        // Matches Fig 1.2: past the optimum, recovery dominates.
        let c = cfg();
        // Delays uniform on [0.6, 1.0]: err(0.64) big, err(0.928) small.
        let delays: Vec<f64> = (0..400).map(|i| 0.6 + 0.4 * (i as f64 / 400.0)).collect();
        let prof = ThreadProfile::new(1000.0, 1.0, flat_curve(delays));
        let t_aggressive = thread_time(
            &c,
            &prof,
            OperatingPoint {
                voltage_idx: 0,
                tsr_idx: 0,
            },
        );
        let t_mild = thread_time(
            &c,
            &prof,
            OperatingPoint {
                voltage_idx: 0,
                tsr_idx: 4,
            },
        );
        assert!(
            t_aggressive > t_mild,
            "over-speculation must hurt: {t_aggressive} vs {t_mild}"
        );
    }
}
