//! Online workload (`N_i`) prediction — closing the paper's last oracle.
//!
//! Sec 6.2 assumes "the information on workload heterogeneity (`N_i` for
//! each thread) is available from offline characterization or using online
//! workload prediction techniques proposed in the literature [8, 15, 16]".
//! This module supplies those predictors: per-thread instruction counts
//! for the next barrier interval are forecast from the counts of previous
//! intervals, in the spirit of thread-criticality predictors
//! (Bhattacharjee & Martonosi) and barrier-history DVFS (Liu et al.).
//!
//! Because Eq 4.1–4.3 are linear in `N_i`, a *common* misprediction
//! factor across threads cancels out of the argmin — only the predicted
//! *ratio* between threads matters (verified by a test below). History
//! predictors are therefore accurate enough in practice, as Fig 6.18's
//! online results presume.
//!
//! [`run_sequence`] drives the full online controller over a multi-
//! interval workload with predicted `N_i`, charging everything against
//! the true delays — the end-to-end "no oracles left" configuration.

use timing::EnergyDelay;

use crate::error::OptError;
use crate::experiments::IntervalData;
use crate::model::SystemConfig;
use crate::online::{run_interval, IntervalOutcome, SamplingPlan};
use crate::solver::Poly;

/// Forecasting rule for per-thread interval instruction counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PredictorKind {
    /// Next interval repeats the last observed count (one-interval lag;
    /// exact for stationary workloads after one observation).
    LastValue,
    /// Exponentially weighted moving average with smoothing factor
    /// `alpha ∈ (0, 1]`: `est ← α·obs + (1−α)·est`.
    Ewma(f64),
    /// Arithmetic mean of the last `k ≥ 1` observations.
    WindowMean(usize),
}

/// Per-thread `N_i` predictor with interval-granularity history.
#[derive(Debug, Clone, PartialEq)]
pub struct NiPredictor {
    kind: PredictorKind,
    /// Per-thread observation history (windowed predictors keep only what
    /// they need).
    history: Vec<Vec<f64>>,
    /// Per-thread EWMA state.
    ewma: Vec<Option<f64>>,
    observed: usize,
}

impl NiPredictor {
    /// Creates a predictor for `threads` threads.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::BadConfig`] for zero threads, an EWMA alpha
    /// outside `(0, 1]`, or a zero-length window.
    pub fn new(threads: usize, kind: PredictorKind) -> Result<NiPredictor, OptError> {
        if threads == 0 {
            return Err(OptError::BadConfig("predictor needs at least one thread"));
        }
        match kind {
            PredictorKind::Ewma(a) if !(a > 0.0 && a <= 1.0) => {
                return Err(OptError::BadConfig("EWMA alpha must lie in (0, 1]"));
            }
            PredictorKind::WindowMean(0) => {
                return Err(OptError::BadConfig("window must hold >= 1 interval"));
            }
            _ => {}
        }
        Ok(NiPredictor {
            kind,
            history: vec![Vec::new(); threads],
            ewma: vec![None; threads],
            observed: 0,
        })
    }

    /// Number of threads covered.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.history.len()
    }

    /// Number of intervals observed so far.
    #[must_use]
    pub fn observed(&self) -> usize {
        self.observed
    }

    /// Predicted `N_i` for the next interval, or `None` before the first
    /// observation (callers fall back to a uniform split — see
    /// [`run_sequence`]).
    #[must_use]
    pub fn predict(&self) -> Option<Vec<f64>> {
        if self.observed == 0 {
            return None;
        }
        Some(match self.kind {
            PredictorKind::LastValue => self
                .history
                .iter()
                .map(|h| *h.last().expect("observed > 0"))
                .collect(),
            PredictorKind::Ewma(_) => self.ewma.iter().map(|e| e.expect("observed > 0")).collect(),
            PredictorKind::WindowMean(k) => self
                .history
                .iter()
                .map(|h| {
                    let tail = &h[h.len().saturating_sub(k)..];
                    tail.iter().sum::<f64>() / tail.len() as f64
                })
                .collect(),
        })
    }

    /// Records the true per-thread counts of a completed interval.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::BadConfig`] on a thread-count mismatch or a
    /// non-finite/negative count.
    pub fn observe(&mut self, ni: &[f64]) -> Result<(), OptError> {
        if ni.len() != self.history.len() {
            return Err(OptError::BadConfig("observation thread count mismatch"));
        }
        for &n in ni {
            if !n.is_finite() || n < 0.0 {
                return Err(OptError::BadConfig("instruction counts must be >= 0"));
            }
        }
        let keep = match self.kind {
            PredictorKind::WindowMean(k) => k,
            _ => 1,
        };
        for (i, &n) in ni.iter().enumerate() {
            let h = &mut self.history[i];
            h.push(n);
            if h.len() > keep {
                let drop = h.len() - keep;
                h.drain(..drop);
            }
            let e = &mut self.ewma[i];
            if let PredictorKind::Ewma(a) = self.kind {
                *e = Some(match *e {
                    None => n,
                    Some(prev) => a * n + (1.0 - a) * prev,
                });
            }
        }
        self.observed += 1;
        Ok(())
    }
}

/// Prediction quality over a driven sequence: mean absolute percentage
/// error of the `N_i` forecasts, per interval they were used in.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionStats {
    /// MAPE of each predicted interval (intervals with no prediction —
    /// the first — are skipped).
    pub mape_per_interval: Vec<f64>,
}

impl PredictionStats {
    /// Mean MAPE across all predicted intervals (0 if none).
    #[must_use]
    pub fn mean_mape(&self) -> f64 {
        if self.mape_per_interval.is_empty() {
            return 0.0;
        }
        self.mape_per_interval.iter().sum::<f64>() / self.mape_per_interval.len() as f64
    }
}

/// Result of driving the online controller over a whole barrier sequence
/// with predicted `N_i`.
#[derive(Debug, Clone)]
pub struct SequenceOutcome {
    /// Per-interval controller outcomes (assignments, overheads, totals).
    pub intervals: Vec<IntervalOutcome>,
    /// Whole-run energy/time: energies summed, interval times summed
    /// (barriers serialize intervals).
    pub total: EnergyDelay,
    /// Forecast quality.
    pub prediction: PredictionStats,
}

/// Runs the sampling-based online controller (Sec 4.3) over a sequence of
/// barrier intervals, forecasting each interval's `N_i` with `predictor`
/// instead of reading it from the delays (the paper's remaining oracle).
///
/// The first interval has no history; the controller falls back to a
/// uniform `N_i` guess, which — by the ratio-invariance of Eq 4.4 — is
/// the assumption-free default. Sampling, SynTS-Poly and accounting
/// against the true delays proceed exactly as in [`run_interval`].
///
/// # Errors
///
/// Propagates [`OptError`] from the per-interval controller; rejects an
/// empty sequence or intervals whose thread count differs from the
/// predictor's.
pub fn run_sequence(
    cfg: &SystemConfig,
    intervals: &[IntervalData],
    theta: f64,
    plan: SamplingPlan,
    predictor: &mut NiPredictor,
) -> Result<SequenceOutcome, OptError> {
    if intervals.is_empty() {
        return Err(OptError::NoThreads);
    }
    let m = predictor.threads();
    let mut outcomes = Vec::with_capacity(intervals.len());
    let mut total_energy = 0.0;
    let mut total_time = 0.0;
    let mut mapes = Vec::new();
    for iv in intervals {
        if iv.threads.len() != m {
            return Err(OptError::BadConfig("interval thread count mismatch"));
        }
        let truth: Vec<f64> = iv
            .threads
            .iter()
            .map(|t| t.normalized_delays.len() as f64)
            .collect();
        let predicted = predictor.predict();
        if let Some(pred) = &predicted {
            let mape = pred
                .iter()
                .zip(&truth)
                .map(|(p, t)| if *t > 0.0 { (p - t).abs() / t } else { 0.0 })
                .sum::<f64>()
                / m as f64;
            mapes.push(mape);
        }
        // Substitute predicted counts by rescaling each thread's weight:
        // truncating or extending the delays is not physical, so pass the
        // prediction through the profile Ni.
        // Without history, every thread is assumed to run the mean length.
        let ni = predicted.unwrap_or_else(|| {
            let mean = truth.iter().sum::<f64>() / m as f64;
            vec![mean.max(1.0); m]
        });
        let outcome = run_interval(cfg, &iv.threads, theta, plan, &Poly, Some(&ni))?;
        total_energy += outcome.total.energy;
        total_time += outcome.total.time;
        outcomes.push(outcome);
        predictor.observe(&truth)?;
    }
    Ok(SequenceOutcome {
        intervals: outcomes,
        total: EnergyDelay::new(total_energy, total_time),
        prediction: PredictionStats {
            mape_per_interval: mapes,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ThreadData;
    use timing::{ErrorCurve, Voltage};

    fn thread(seed: u64, n: usize, lo: f64, hi: f64) -> ThreadData {
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
            cpi_base: 1.0,
        }
    }

    fn cfg() -> SystemConfig {
        SystemConfig::paper_default(10.0)
    }

    #[test]
    fn constructor_validates() {
        assert!(NiPredictor::new(0, PredictorKind::LastValue).is_err());
        assert!(NiPredictor::new(2, PredictorKind::Ewma(0.0)).is_err());
        assert!(NiPredictor::new(2, PredictorKind::Ewma(1.5)).is_err());
        assert!(NiPredictor::new(2, PredictorKind::WindowMean(0)).is_err());
        assert!(NiPredictor::new(2, PredictorKind::Ewma(1.0)).is_ok());
    }

    #[test]
    fn no_prediction_before_first_observation() {
        let p = NiPredictor::new(2, PredictorKind::LastValue).expect("ok");
        assert!(p.predict().is_none());
    }

    #[test]
    fn observe_validates_shape_and_values() {
        let mut p = NiPredictor::new(2, PredictorKind::LastValue).expect("ok");
        assert!(p.observe(&[1.0]).is_err(), "wrong thread count");
        assert!(p.observe(&[1.0, f64::NAN]).is_err(), "NaN count");
        assert!(p.observe(&[1.0, -3.0]).is_err(), "negative count");
        assert!(p.observe(&[1.0, 2.0]).is_ok());
    }

    #[test]
    fn last_value_repeats_history() {
        let mut p = NiPredictor::new(2, PredictorKind::LastValue).expect("ok");
        p.observe(&[100.0, 200.0]).expect("ok");
        p.observe(&[150.0, 300.0]).expect("ok");
        assert_eq!(p.predict().expect("observed"), vec![150.0, 300.0]);
    }

    #[test]
    fn ewma_converges_on_stationary_input() {
        let mut p = NiPredictor::new(1, PredictorKind::Ewma(0.5)).expect("ok");
        for _ in 0..20 {
            p.observe(&[1000.0]).expect("ok");
        }
        let est = p.predict().expect("observed")[0];
        assert!((est - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_smooths_noise_better_than_last_value() {
        // Alternating 900/1100 around mean 1000: EWMA(0.2)'s error is
        // smaller than LastValue's persistent ±200 swing.
        let mut ew = NiPredictor::new(1, PredictorKind::Ewma(0.2)).expect("ok");
        let mut lv = NiPredictor::new(1, PredictorKind::LastValue).expect("ok");
        let mut err_ew = 0.0;
        let mut err_lv = 0.0;
        for t in 0..40 {
            let truth = if t % 2 == 0 { 900.0 } else { 1100.0 };
            if let Some(e) = ew.predict() {
                err_ew += (e[0] - truth).abs();
            }
            if let Some(e) = lv.predict() {
                err_lv += (e[0] - truth).abs();
            }
            ew.observe(&[truth]).expect("ok");
            lv.observe(&[truth]).expect("ok");
        }
        assert!(err_ew < err_lv, "EWMA {err_ew} vs LastValue {err_lv}");
    }

    #[test]
    fn window_mean_keeps_only_k() {
        let mut p = NiPredictor::new(1, PredictorKind::WindowMean(2)).expect("ok");
        for n in [100.0, 200.0, 300.0, 400.0] {
            p.observe(&[n]).expect("ok");
        }
        // Mean of the last two: (300 + 400)/2.
        assert_eq!(p.predict().expect("observed"), vec![350.0]);
    }

    #[test]
    fn sequence_with_stationary_workload_matches_oracle_closely() {
        let cfg = cfg();
        // 4 threads, stable per-interval lengths and delay bands.
        let make_interval = |k: u64| IntervalData {
            threads: vec![
                thread(k * 10 + 1, 6000, 0.70, 1.00),
                thread(k * 10 + 2, 3000, 0.45, 0.90),
                thread(k * 10 + 3, 4500, 0.50, 0.92),
                thread(k * 10 + 4, 3600, 0.40, 0.88),
            ],
        };
        let intervals: Vec<_> = (0..4).map(make_interval).collect();
        let plan = SamplingPlan {
            n_samp: 600,
            v_samp: Voltage::NOMINAL,
            transition_cycles: 0.0,
        };
        let mut predictor = NiPredictor::new(4, PredictorKind::LastValue).expect("ok");
        let seq = run_sequence(&cfg, &intervals, 1.0, plan, &mut predictor).expect("ok");
        assert_eq!(seq.intervals.len(), 4);
        // Stationary: after interval 1 the forecast is exact.
        assert!(seq.prediction.mean_mape() < 1e-9);
        // Oracle comparison: per-interval oracle Ni.
        let mut oracle_energy = 0.0;
        let mut oracle_time = 0.0;
        for iv in &intervals {
            let out = run_interval(&cfg, &iv.threads, 1.0, plan, &Poly, None).expect("ok");
            oracle_energy += out.total.energy;
            oracle_time += out.total.time;
        }
        let edp_pred = seq.total.edp();
        let edp_oracle = oracle_energy * oracle_time;
        let ratio = edp_pred / edp_oracle;
        assert!(
            (0.9..1.1).contains(&ratio),
            "stationary prediction should match oracle: ratio {ratio}"
        );
    }

    #[test]
    fn sequence_rejects_mismatched_thread_counts() {
        let cfg = cfg();
        let intervals = [IntervalData {
            threads: vec![thread(1, 1000, 0.4, 0.9)],
        }];
        let mut predictor = NiPredictor::new(2, PredictorKind::LastValue).expect("ok");
        let plan = SamplingPlan {
            n_samp: 100,
            v_samp: Voltage::NOMINAL,
            transition_cycles: 0.0,
        };
        assert!(run_sequence(&cfg, &intervals, 1.0, plan, &mut predictor).is_err());
    }

    #[test]
    fn uniform_fallback_used_on_first_interval() {
        let cfg = cfg();
        let intervals = [IntervalData {
            threads: vec![thread(1, 4000, 0.6, 1.0), thread(2, 4000, 0.4, 0.9)],
        }];
        let plan = SamplingPlan {
            n_samp: 400,
            v_samp: Voltage::NOMINAL,
            transition_cycles: 0.0,
        };
        let mut predictor = NiPredictor::new(2, PredictorKind::Ewma(0.5)).expect("ok");
        let seq = run_sequence(&cfg, &intervals, 1.0, plan, &mut predictor).expect("ok");
        // One interval, no prediction was possible, so no MAPE recorded.
        assert!(seq.prediction.mape_per_interval.is_empty());
        assert_eq!(predictor.observed(), 1);
    }

    #[test]
    fn scaling_all_ni_by_constant_leaves_assignment_unchanged() {
        // The ratio-invariance property the module doc claims: the argmin
        // of Eq 4.4 depends on relative, not absolute, Ni.
        use crate::model::ThreadProfile;
        use crate::poly::synts_poly;
        let cfg = cfg();
        let curve = |lo: f64, hi: f64| {
            let d: Vec<f64> = (0..100)
                .map(|i| lo + (hi - lo) * i as f64 / 100.0)
                .collect();
            ErrorCurve::from_normalized_delays(d).expect("ok")
        };
        let base = vec![
            ThreadProfile::new(5_000.0, 1.2, curve(0.7, 1.0)),
            ThreadProfile::new(3_000.0, 1.0, curve(0.4, 0.9)),
        ];
        let scaled: Vec<_> = base
            .iter()
            .map(|p| ThreadProfile::new(p.instructions * 7.5, p.cpi_base, p.err.clone()))
            .collect();
        // theta scales with the same factor to keep the trade-off fixed:
        // cost = E + θT where both E and T are linear in the common factor.
        let a = synts_poly(&cfg, &base, 2.0).expect("ok");
        let b = synts_poly(&cfg, &scaled, 2.0).expect("ok");
        assert_eq!(a, b);
    }
}
