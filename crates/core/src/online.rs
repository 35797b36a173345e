//! The online SynTS controller (paper Sec 4.3): sampling-based error
//! estimation at the start of each barrier interval, followed by
//! SynTS-Poly on the estimates.
//!
//! At the start of an interval every thread spends its first `N_samp`
//! instructions in a sampling phase: all threads at a fixed voltage
//! `V_samp`, each spending `N_samp / S` instructions at each TSR level while
//! hardware counters record errors. The resulting per-level error fractions
//! form the estimate `~err_i` ([`timing::SampledCurve`]); SynTS-Poly then
//! assigns operating points for the remainder of the interval. Sampling
//! time and energy — including the Razor recoveries it provokes — are
//! charged to the interval, which is exactly the online-vs-offline overhead
//! Fig 6.18 quantifies.
//!
//! [`run_interval`] runs one characterized interval's threads
//! ([`ThreadData`]) through the controller with any [`Solver`] on the
//! estimates ([`Poly`](crate::solver::Poly) is the paper's setting),
//! optionally with predicted `N_i`. Intervals are independent, so a
//! sequence of them fans out with [`ThreadPool::try_map`](crate::ThreadPool::try_map):
//!
//! ```
//! use synts_core::experiments::ThreadData;
//! use synts_core::{run_interval, SamplingPlan, SolverRegistry, SystemConfig};
//! use timing::{ErrorCurve, SampledCurve};
//!
//! # fn main() -> Result<(), synts_core::OptError> {
//! let cfg = SystemConfig::paper_default(10.0);
//! let thread = |lo: f64| -> Result<ThreadData, synts_core::OptError> {
//!     let delays: Vec<f64> = (0..600).map(|i| lo + (1.0 - lo) * i as f64 / 600.0).collect();
//!     Ok(ThreadData {
//!         curve: ErrorCurve::from_normalized_delays(delays.clone())?,
//!         instructions: delays.len() as f64,
//!         normalized_delays: delays,
//!         cpi_base: 1.0,
//!     })
//! };
//! let threads = [thread(0.7)?, thread(0.4)?];
//! let plan = SamplingPlan::paper_default(600, cfg.s());
//! let solver = SolverRegistry::<SampledCurve>::with_defaults().get("per_core_ts")?;
//! let outcome = run_interval(&cfg, &threads, 1.0, plan, &*solver, None)?;
//! assert_eq!(outcome.assignment.len(), 2);
//! # Ok(())
//! # }
//! ```

use timing::{EnergyDelay, ErrorCurve, SampledCurve, Voltage};

use crate::error::OptError;
use crate::experiments::ThreadData;
use crate::model::{thread_energy, thread_time, Assignment, SystemConfig, ThreadProfile};
use crate::solver::Solver;

/// Sampling-phase knobs (Sec 4.3): how many instructions to spend, at
/// what voltage, and what a frequency switch costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingPlan {
    /// Instructions per thread spent sampling (`N_samp`). The paper uses
    /// 50 K, or 10 K for short-interval benchmarks — roughly 10% of the
    /// interval.
    pub n_samp: usize,
    /// Voltage during sampling (`V_samp`); the paper uses the nominal chip
    /// voltage.
    pub v_samp: Voltage,
    /// Stall cycles (at nominal voltage) charged per clock re-lock. The
    /// sampling phase performs `S − 1` frequency steps plus one final
    /// switch to the optimized operating point, so an interval pays
    /// `S · transition_cycles` in total. The paper assumes instantaneous
    /// switching (`0`, the default); realistic PLL re-locks cost tens of
    /// microseconds-equivalent — this knob quantifies that overhead.
    pub transition_cycles: f64,
}

impl SamplingPlan {
    /// The paper's setting: `N_samp` = 10% of the interval length (at least
    /// one instruction per TSR level), sampled at nominal voltage, free
    /// frequency switches.
    #[must_use]
    pub fn paper_default(interval_len: usize, s_levels: usize) -> SamplingPlan {
        SamplingPlan {
            n_samp: (interval_len / 10).max(s_levels),
            v_samp: Voltage::NOMINAL,
            transition_cycles: 0.0,
        }
    }

    /// The same plan with a per-switch re-lock cost.
    #[must_use]
    pub fn with_transition_cycles(mut self, cycles: f64) -> SamplingPlan {
        self.transition_cycles = cycles;
        self
    }
}

/// Everything the controller produced for one barrier interval.
#[derive(Debug, Clone)]
pub struct IntervalOutcome {
    /// Per-thread error-curve estimates from the sampling phase.
    pub estimates: Vec<SampledCurve>,
    /// The operating points chosen from the estimates.
    pub assignment: Assignment,
    /// Energy/time of the sampling phase alone (the online overhead).
    pub sampling: EnergyDelay,
    /// Energy/time of the whole interval (sampling + optimized remainder),
    /// evaluated against the *true* error curves.
    pub total: EnergyDelay,
}

/// Simulates the sampling phase for one thread and returns its estimate.
///
/// `normalized_delays` is the thread's per-instruction sensitized delay
/// trace (each in `[0, 1]`, instruction order). The first `n_samp` entries
/// are consumed in `S` chunks, chunk `k` executing at TSR level `k`; an
/// instruction errs in chunk `k` iff its normalized delay exceeds `R_k`
/// (voltage cancels — see [`timing::DelayTrace`]).
///
/// # Errors
///
/// Returns [`OptError::Timing`] if the trace is shorter than one
/// instruction per level.
pub fn estimate_curve(
    cfg: &SystemConfig,
    normalized_delays: &[f64],
    plan: SamplingPlan,
) -> Result<SampledCurve, OptError> {
    let s = cfg.s();
    if normalized_delays.is_empty() {
        // A thread with no activity on this stage cannot err: the counters
        // read zero at every level.
        let zeros: Vec<(f64, f64)> = cfg.tsr_levels.iter().map(|&r| (r, 0.0)).collect();
        return Ok(SampledCurve::from_points(zeros)?);
    }
    let n_samp = plan.n_samp.min(normalized_delays.len());
    let chunk = n_samp / s;
    if chunk == 0 {
        return Err(OptError::Timing(timing::TimingError::EmptyTrace));
    }
    let mut counts = Vec::with_capacity(s);
    for (k, &r) in cfg.tsr_levels.iter().enumerate() {
        let lo = k * chunk;
        let hi = lo + chunk;
        let errors = normalized_delays[lo..hi].iter().filter(|&&d| d > r).count() as u64;
        counts.push((r, errors, chunk as u64));
    }
    Ok(SampledCurve::from_counts(&counts)?)
}

/// Energy/time cost of one thread's sampling phase, Razor recoveries
/// included.
fn sampling_cost(
    cfg: &SystemConfig,
    normalized_delays: &[f64],
    cpi_base: f64,
    plan: SamplingPlan,
) -> EnergyDelay {
    let s = cfg.s();
    let n_samp = plan.n_samp.min(normalized_delays.len());
    let chunk = n_samp / s;
    let tnom = cfg.tnom(plan.v_samp);
    let v2 = plan.v_samp.energy_scale();
    let mut time = 0.0;
    let mut energy = 0.0;
    for (k, &r) in cfg.tsr_levels.iter().enumerate() {
        let lo = k * chunk;
        let hi = lo + chunk;
        let errors = normalized_delays[lo..hi].iter().filter(|&&d| d > r).count() as f64;
        let cycles = chunk as f64 * cpi_base + errors * cfg.c_penalty;
        time += r * tnom * cycles;
        energy += cfg.alpha * v2 * cycles;
    }
    // Clock re-locks: S − 1 steps during sampling plus the final switch to
    // the optimized point. The core stalls (burning leakage-free idle
    // cycles at V_samp) for `transition_cycles` per switch.
    let switches = s as f64;
    let stall = switches * plan.transition_cycles;
    time += stall * tnom;
    energy += cfg.alpha * v2 * stall * 0.1; // clock tree only, ~10% activity
    EnergyDelay::new(energy, time)
}

/// Runs one barrier interval under the online scheme with `solver`
/// choosing the operating points from the sampled estimates — the online
/// controller's dispatch point onto the unified solver interface. The
/// solver sees [`timing::SampledCurve`] profiles, exactly what the
/// sampling hardware produces.
///
/// Each thread is read in place: its subsampled `normalized_delays` are
/// the instruction stream the sampling phase and the remainder run, and
/// `cpi_base` its error-free CPI.
///
/// `ni` supplies whole-interval `N_i` estimates (per-thread instruction
/// counts) for the optimization step, as the [`crate::criticality`]
/// predictors do; `None` reads the true counts from the delays.
/// Accounting always runs against the true delays.
///
/// # Errors
///
/// Propagates [`OptError`] from estimation and optimization; fails on an
/// empty thread set, and with [`OptError::BadConfig`] if `ni` has a
/// thread count different from `threads` or an entry that is not finite
/// and positive.
pub fn run_interval(
    cfg: &SystemConfig,
    threads: &[ThreadData],
    theta: f64,
    plan: SamplingPlan,
    solver: &dyn Solver<SampledCurve>,
    ni: Option<&[f64]>,
) -> Result<IntervalOutcome, OptError> {
    if let Some(est) = ni {
        if est.len() != threads.len() {
            return Err(OptError::BadConfig("Ni estimate thread count mismatch"));
        }
        if est.iter().any(|&n| !n.is_finite() || n <= 0.0) {
            return Err(OptError::BadConfig("Ni estimates must be positive"));
        }
    }
    cfg.validate()?;
    if threads.is_empty() {
        return Err(OptError::NoThreads);
    }
    // 1. Sampling phase: estimates + overhead.
    let mut estimates = Vec::with_capacity(threads.len());
    let mut sampling_energy = 0.0;
    let mut sampling_time = 0.0f64;
    for t in threads {
        estimates.push(estimate_curve(cfg, &t.normalized_delays, plan)?);
        let cost = sampling_cost(cfg, &t.normalized_delays, t.cpi_base, plan);
        sampling_energy += cost.energy;
        // All threads sample concurrently; the phase ends when the slowest
        // finishes.
        sampling_time = sampling_time.max(cost.time);
    }
    let sampling = EnergyDelay::new(sampling_energy, sampling_time);

    // 2. Optimize the remainder of the interval on the estimates.
    let est_profiles: Vec<ThreadProfile<SampledCurve>> = threads
        .iter()
        .zip(&estimates)
        .enumerate()
        .map(|(i, (t, est))| {
            // With an external workload estimate, the remainder is the
            // predicted interval length minus what sampling consumed;
            // otherwise read the truth from the delays.
            let remaining = match ni {
                Some(est_ni) => {
                    (est_ni[i] - plan.n_samp.min(t.normalized_delays.len()) as f64).max(1.0)
                }
                None => t
                    .normalized_delays
                    .len()
                    .saturating_sub(plan.n_samp.min(t.normalized_delays.len()))
                    .max(1) as f64,
            };
            ThreadProfile::new(remaining, t.cpi_base, est.clone())
        })
        .collect();
    let assignment = solver.solve(cfg, &est_profiles, theta)?;

    // 3. Account the remainder against the TRUE curves (what actually
    //    happens on silicon once the estimate-driven points are applied).
    let mut total_energy = sampling.energy;
    let mut remainder_time = 0.0f64;
    for (i, t) in threads.iter().enumerate() {
        let n_used = plan.n_samp.min(t.normalized_delays.len());
        let rest = &t.normalized_delays[n_used..];
        if rest.is_empty() {
            continue;
        }
        let true_curve = ErrorCurve::from_normalized_delays(rest.to_vec())?;
        let prof = ThreadProfile::new(rest.len() as f64, t.cpi_base, true_curve);
        total_energy += thread_energy(cfg, &prof, assignment.points[i]);
        remainder_time = remainder_time.max(thread_time(cfg, &prof, assignment.points[i]));
    }
    let total = EnergyDelay::new(total_energy, sampling.time + remainder_time);

    Ok(IntervalOutcome {
        estimates,
        assignment,
        sampling,
        total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::IntervalData;
    use crate::solver::Poly;
    use timing::{max_abs_gap, ErrorModel};

    /// A thread of deterministic pseudo-random delays in a given band,
    /// with the curve characterization stores for them.
    fn thread(seed: u64, n: usize, lo: f64, hi: f64, cpi: f64) -> ThreadData {
        let mut state = seed;
        let delays: Vec<f64> = (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let u = (state >> 33) as f64 / (1u64 << 31) as f64;
                lo + (hi - lo) * u
            })
            .collect();
        ThreadData {
            curve: ErrorCurve::from_normalized_delays(delays.clone()).expect("non-empty"),
            instructions: n as f64,
            normalized_delays: delays,
            cpi_base: cpi,
        }
    }

    fn cfg() -> SystemConfig {
        SystemConfig::paper_default(10.0)
    }

    #[test]
    fn estimate_tracks_the_true_curve() {
        let cfg = cfg();
        // 50 K instructions (the paper's N_samp scale): each TSR level gets
        // ~830 samples, so binomial noise stays within a few percent.
        let t = thread(42, 50_000, 0.5, 1.0, 1.0);
        let plan = SamplingPlan::paper_default(t.normalized_delays.len(), cfg.s());
        let est = estimate_curve(&cfg, &t.normalized_delays, plan).expect("ok");
        let gap = max_abs_gap(&est, &t.curve, &cfg.tsr_levels);
        assert!(gap < 0.05, "estimate should track exact curve, gap {gap}");
    }

    #[test]
    fn estimate_requires_enough_samples() {
        let cfg = cfg();
        let t = thread(1, 3, 0.5, 1.0, 1.0); // 3 instructions, 6 levels
        let plan = SamplingPlan {
            n_samp: 3,
            v_samp: Voltage::NOMINAL,
            transition_cycles: 0.0,
        };
        assert!(estimate_curve(&cfg, &t.normalized_delays, plan).is_err());
    }

    #[test]
    fn critical_thread_identified() {
        // Thread 0 has much longer delays; its estimated error at
        // aggressive r must be the largest — the property the paper calls
        // out in Fig 6.17 ("the critical thread is always identified").
        let cfg = cfg();
        let threads = [
            thread(7, 5_000, 0.75, 1.0, 1.0),
            thread(8, 5_000, 0.40, 0.85, 1.0),
            thread(9, 5_000, 0.45, 0.88, 1.0),
            thread(10, 5_000, 0.42, 0.86, 1.0),
        ];
        let plan = SamplingPlan::paper_default(5_000, cfg.s());
        let ests: Vec<SampledCurve> = threads
            .iter()
            .map(|t| estimate_curve(&cfg, &t.normalized_delays, plan).expect("ok"))
            .collect();
        let r = cfg.tsr_levels[1];
        let worst = ests
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.err(r).partial_cmp(&b.1.err(r)).expect("finite"))
            .expect("non-empty")
            .0;
        assert_eq!(worst, 0);
    }

    #[test]
    fn online_overhead_is_positive_but_bounded() {
        let cfg = cfg();
        let iv = IntervalData {
            threads: vec![
                thread(21, 8_000, 0.70, 1.0, 1.2),
                thread(22, 8_000, 0.45, 0.9, 1.0),
                thread(23, 8_000, 0.50, 0.92, 1.1),
                thread(24, 8_000, 0.40, 0.88, 1.0),
            ],
        };
        let profiles = iv.trace_profiles();
        let theta = crate::pareto::theta_equal_weight(&cfg, &profiles).expect("ok");
        let plan = SamplingPlan::paper_default(8_000, cfg.s());
        let online = run_interval(&cfg, &iv.threads, theta, plan, &Poly, None).expect("ok");
        let (_, offline) = Poly.solve_evaluated(&cfg, &profiles, theta).expect("ok");
        let edp_ratio = online.total.edp() / offline.edp();
        // The paper reports ~10% average overhead; allow a generous band
        // but insist the online scheme is not catastrophically worse and
        // no better than the oracle beyond noise.
        assert!(
            edp_ratio > 0.9,
            "online cannot beat the offline oracle by >10%: {edp_ratio}"
        );
        assert!(edp_ratio < 1.6, "online overhead out of range: {edp_ratio}");
        assert!(online.sampling.time > 0.0);
        assert!(online.sampling.energy > 0.0);
    }

    #[test]
    fn transition_cost_charges_sampling_overhead() {
        let cfg = cfg();
        let threads = [
            thread(5, 6_000, 0.5, 1.0, 1.0),
            thread(6, 6_000, 0.4, 0.9, 1.0),
        ];
        let free = SamplingPlan::paper_default(6_000, cfg.s());
        let costly = free.with_transition_cycles(500.0);
        let out_free = run_interval(&cfg, &threads, 1.0, free, &Poly, None).expect("ok");
        let out_costly = run_interval(&cfg, &threads, 1.0, costly, &Poly, None).expect("ok");
        assert!(out_costly.sampling.time > out_free.sampling.time);
        assert!(out_costly.sampling.energy > out_free.sampling.energy);
        assert!(out_costly.total.time > out_free.total.time);
        // The optimization outcome itself is unchanged — switching cost is
        // pure overhead, not an input to the assignment.
        assert_eq!(out_costly.assignment, out_free.assignment);
    }

    #[test]
    fn zero_transition_cost_is_the_paper_default() {
        let plan = SamplingPlan::paper_default(10_000, 6);
        assert_eq!(plan.transition_cycles, 0.0);
    }

    #[test]
    fn outcome_contains_assignment_per_thread() {
        let cfg = cfg();
        let threads = [
            thread(3, 4_000, 0.5, 1.0, 1.0),
            thread(4, 4_000, 0.4, 0.9, 1.0),
        ];
        let plan = SamplingPlan::paper_default(4_000, cfg.s());
        let out = run_interval(&cfg, &threads, 1.0, plan, &Poly, None).expect("ok");
        assert_eq!(out.assignment.len(), 2);
        assert_eq!(out.estimates.len(), 2);
        assert!(out.total.time >= out.sampling.time);
        assert!(out.total.energy >= out.sampling.energy);
    }
}
