//! Error-probability functions `err(r)` — the paper's central object.
//!
//! For a thread running a pipe stage at timing-speculation ratio `r`
//! (clock period = `r · t_nom`), the error probability is the fraction of
//! its instructions whose sensitized delay exceeds `r · t_nom`. The paper
//! uses two flavors:
//!
//! * [`ErrorCurve`] — the *exact* curve from a full delay trace (offline,
//!   Sec 4.2);
//! * [`SampledCurve`] — the estimate `~err` built from error counts at the
//!   `S` discrete TSR levels during the sampling phase (online, Sec 4.3).
//!
//! Both implement [`ErrorModel`], so the optimizer is agnostic.

use crate::error::TimingError;
use crate::trace::DelayTrace;

/// Anything that can report an error probability at a TSR `r ∈ (0, 1]`.
pub trait ErrorModel {
    /// Error probability at timing-speculation ratio `r`.
    ///
    /// Must be non-increasing in `r` and 0 at `r = 1` for traces bounded by
    /// the nominal period.
    fn err(&self, r: f64) -> f64;
}

impl<T: ErrorModel + ?Sized> ErrorModel for &T {
    fn err(&self, r: f64) -> f64 {
        (**self).err(r)
    }
}

/// Exact empirical error-probability curve from a delay trace.
///
/// Both constructors sort by one rule: [`f64::total_cmp`], unstable. On
/// input without −0.0 it leaves the same bits as a stable sort by value,
/// since equal keys then have equal bits; the two differ only where −0.0
/// meets +0.0 (a NaN panics). Gate simulation never yields −0.0: every
/// arrival folds from +0.0 and adds positive cell delays, and a
/// normalized delay divides that by a positive period. The
/// characterization cache refuses an entry holding −0.0, so every curve
/// it serves equals the one computed cold, bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorCurve {
    /// Normalized delays, ascending.
    sorted: Vec<f64>,
}

impl ErrorCurve {
    /// Builds the curve from a delay trace.
    ///
    /// # Panics
    ///
    /// If a delay is NaN.
    #[must_use]
    pub fn from_trace(trace: &DelayTrace) -> ErrorCurve {
        ErrorCurve {
            sorted: sorted(trace.normalized()),
        }
    }

    /// Builds the curve from pre-normalized delays (`d / t_nom`).
    ///
    /// # Errors
    ///
    /// Returns [`TimingError::EmptyTrace`] if `normalized` is empty.
    ///
    /// # Panics
    ///
    /// If a delay is NaN.
    pub fn from_normalized_delays(normalized: Vec<f64>) -> Result<ErrorCurve, TimingError> {
        if normalized.is_empty() {
            return Err(TimingError::EmptyTrace);
        }
        Ok(ErrorCurve {
            sorted: sorted(normalized),
        })
    }

    /// Number of instructions backing the curve.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.sorted.len()
    }
}

impl ErrorModel for ErrorCurve {
    fn err(&self, r: f64) -> f64 {
        // Fraction of normalized delays strictly greater than r.
        let idx = self.sorted.partition_point(|&d| d <= r);
        (self.sorted.len() - idx) as f64 / self.sorted.len() as f64
    }
}

/// The one sort rule of [`ErrorCurve`]: ascending by [`f64::total_cmp`],
/// unstable.
fn sorted(mut delays: Vec<f64>) -> Vec<f64> {
    assert!(!delays.iter().any(|d| d.is_nan()), "delays are finite");
    delays.sort_unstable_by(f64::total_cmp);
    delays
}

/// Online estimate of `err` from error counts observed at discrete TSR
/// levels during the sampling phase; linear interpolation in between.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledCurve {
    /// `(r, err)` points, ascending in `r`.
    points: Vec<(f64, f64)>,
}

impl SampledCurve {
    /// Builds the estimate from `(ratio, observed error fraction)` points.
    ///
    /// # Errors
    ///
    /// Returns [`TimingError::NoSamples`] for an empty point set and
    /// [`TimingError::InvalidRatio`] for ratios outside `(0, 1]`.
    pub fn from_points(mut points: Vec<(f64, f64)>) -> Result<SampledCurve, TimingError> {
        if points.is_empty() {
            return Err(TimingError::NoSamples);
        }
        for &(r, _) in &points {
            if !(r > 0.0 && r <= 1.0) {
                return Err(TimingError::InvalidRatio(r));
            }
        }
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("ratios are finite"));
        Ok(SampledCurve { points })
    }

    /// Builds the estimate from raw counts: `(ratio, errors, samples)` per
    /// level — what the sampling-phase hardware counters deliver.
    ///
    /// # Errors
    ///
    /// Returns [`TimingError::NoSamples`] if any level has zero samples or
    /// the set is empty; [`TimingError::InvalidRatio`] for bad ratios.
    pub fn from_counts(counts: &[(f64, u64, u64)]) -> Result<SampledCurve, TimingError> {
        if counts.is_empty() {
            return Err(TimingError::NoSamples);
        }
        let mut points = Vec::with_capacity(counts.len());
        for &(r, errors, samples) in counts {
            if samples == 0 {
                return Err(TimingError::NoSamples);
            }
            points.push((r, errors as f64 / samples as f64));
        }
        SampledCurve::from_points(points)
    }

    /// The `(r, err)` sample points, ascending in `r`.
    #[must_use]
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }
}

impl ErrorModel for SampledCurve {
    fn err(&self, r: f64) -> f64 {
        let pts = &self.points;
        if r <= pts[0].0 {
            return pts[0].1;
        }
        if r >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        for w in pts.windows(2) {
            let (r0, e0) = w[0];
            let (r1, e1) = w[1];
            if r <= r1 {
                let t = (r - r0) / (r1 - r0);
                return e0 + t * (e1 - e0);
            }
        }
        pts[pts.len() - 1].1
    }
}

/// Heterogeneity of a set of curves at ratio `r`: worst-thread error divided
/// by best-thread error (∞-safe: returns 1.0 when all are error-free).
///
/// Fig 3.5 reports ≈ 4× for Radix at aggressive ratios.
#[must_use]
pub fn heterogeneity<M: ErrorModel>(curves: &[M], r: f64) -> f64 {
    let errs: Vec<f64> = curves.iter().map(|c| c.err(r)).collect();
    let max = errs.iter().fold(0.0f64, |m, &e| m.max(e));
    let min = errs.iter().fold(f64::INFINITY, |m, &e| m.min(e));
    if max == 0.0 {
        1.0
    } else if min == 0.0 {
        f64::INFINITY
    } else {
        max / min
    }
}

/// Largest absolute gap between two error models over the given ratios —
/// used to validate the online estimate against ground truth (Fig 6.17).
#[must_use]
pub fn max_abs_gap<A: ErrorModel, B: ErrorModel>(a: &A, b: &B, ratios: &[f64]) -> f64 {
    ratios
        .iter()
        .map(|&r| (a.err(r) - b.err(r)).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(delays: Vec<f64>) -> ErrorCurve {
        ErrorCurve::from_normalized_delays(delays).expect("non-empty")
    }

    #[test]
    fn err_counts_strictly_greater() {
        let c = curve(vec![0.2, 0.5, 0.5, 0.9]);
        assert_eq!(c.err(1.0), 0.0);
        assert_eq!(c.err(0.9), 0.0); // d > r is strict
        assert_eq!(c.err(0.89), 0.25);
        assert_eq!(c.err(0.5), 0.25);
        assert_eq!(c.err(0.49), 0.75);
        assert_eq!(c.err(0.1), 1.0);
    }

    #[test]
    fn err_is_monotone_nonincreasing() {
        let c = curve((0..100).map(|i| i as f64 / 100.0).collect());
        let mut prev = f64::INFINITY;
        let mut r = 0.05;
        while r <= 1.0 {
            let e = c.err(r);
            assert!(e <= prev + 1e-12);
            prev = e;
            r += 0.01;
        }
    }

    #[test]
    fn sampled_curve_interpolates() {
        let s = SampledCurve::from_points(vec![(0.6, 0.3), (0.8, 0.1), (1.0, 0.0)]).expect("valid");
        assert!((s.err(0.7) - 0.2).abs() < 1e-12);
        assert_eq!(s.err(0.5), 0.3); // clamp below
        assert_eq!(s.err(1.0), 0.0);
    }

    #[test]
    fn sampled_curve_from_counts() {
        let s = SampledCurve::from_counts(&[(0.7, 30, 100), (1.0, 0, 100)]).expect("valid");
        assert!((s.err(0.7) - 0.3).abs() < 1e-12);
        assert!(SampledCurve::from_counts(&[(0.7, 1, 0)]).is_err());
        assert!(SampledCurve::from_counts(&[]).is_err());
    }

    #[test]
    fn sampled_curve_validates_ratios() {
        assert!(matches!(
            SampledCurve::from_points(vec![(1.5, 0.0)]).expect_err("bad"),
            TimingError::InvalidRatio(_)
        ));
        assert!(matches!(
            SampledCurve::from_points(vec![(0.0, 0.0)]).expect_err("bad"),
            TimingError::InvalidRatio(_)
        ));
    }

    #[test]
    fn heterogeneity_ratio() {
        let hot = curve(vec![0.9, 0.9, 0.9, 0.1]);
        let cold = curve(vec![0.9, 0.1, 0.1, 0.1]);
        // At r = 0.5: hot errs 0.75, cold errs 0.25 -> 3x.
        let h = heterogeneity(&[hot, cold], 0.5);
        assert!((h - 3.0).abs() < 1e-12);
    }

    #[test]
    fn heterogeneity_degenerate_cases() {
        let silent = curve(vec![0.1, 0.2]);
        assert_eq!(heterogeneity(&[silent.clone(), silent.clone()], 0.9), 1.0);
        let noisy = curve(vec![0.95, 0.96]);
        assert!(heterogeneity(&[noisy, silent], 0.9).is_infinite());
    }

    #[test]
    fn gap_between_exact_and_sampled() {
        let exact = curve((0..1000).map(|i| 0.5 + 0.4 * (i as f64 / 1000.0)).collect());
        let ratios = [0.6, 0.7, 0.8, 0.9, 1.0];
        let pts: Vec<(f64, f64)> = ratios.iter().map(|&r| (r, exact.err(r))).collect();
        let sampled = SampledCurve::from_points(pts).expect("valid");
        // Sampling at the exact curve's own values keeps the gap tiny at
        // those ratios.
        assert!(max_abs_gap(&exact, &sampled, &ratios) < 1e-12);
    }
}
