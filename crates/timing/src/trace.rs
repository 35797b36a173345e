//! Sensitized-delay traces: the raw product of the cross-layer methodology.

use crate::error::TimingError;

/// A trace of per-instruction sensitized path delays for one thread on one
/// pipe stage, recorded at Vdd = 1.0 V, together with the stage's nominal
/// period (critical-path delay) at the same voltage.
///
/// Because all gate delays scale with the same Table 5.1 factor, the
/// *normalized* delays (`delay / t_nom`) — and therefore the error curve —
/// are voltage-independent.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayTrace {
    delays: Vec<f64>,
    tnom_v1: f64,
}

impl DelayTrace {
    /// Wraps raw delays and the stage's nominal period.
    ///
    /// # Errors
    ///
    /// Returns [`TimingError::EmptyTrace`] if `delays` is empty, and
    /// [`TimingError::InvalidRatio`] if `tnom_v1` is not positive.
    // `!(x > 0)` rather than `x <= 0`: must also reject NaN.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn new(delays: Vec<f64>, tnom_v1: f64) -> Result<DelayTrace, TimingError> {
        if delays.is_empty() {
            return Err(TimingError::EmptyTrace);
        }
        if !(tnom_v1 > 0.0) {
            return Err(TimingError::InvalidRatio(tnom_v1));
        }
        Ok(DelayTrace { delays, tnom_v1 })
    }

    /// The raw sensitized delays, in instruction order (1.0 V units).
    #[must_use]
    pub fn delays(&self) -> &[f64] {
        &self.delays
    }

    /// The stage's nominal clock period at 1.0 V (STA critical path).
    #[must_use]
    pub fn tnom_v1(&self) -> f64 {
        self.tnom_v1
    }

    /// Number of instructions in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.delays.len()
    }

    /// Whether the trace is empty (never true for constructed traces).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.delays.is_empty()
    }

    /// Normalized delays `d / t_nom ∈ [0, 1]`, in instruction order.
    #[must_use]
    pub fn normalized(&self) -> Vec<f64> {
        self.delays.iter().map(|d| d / self.tnom_v1).collect()
    }

    /// Mean normalized delay — a quick activity summary.
    #[must_use]
    pub fn mean_normalized(&self) -> f64 {
        self.normalized().iter().sum::<f64>() / self.len() as f64
    }

    /// Largest normalized delay observed (≤ 1 by the STA bound).
    #[must_use]
    pub fn max_normalized(&self) -> f64 {
        self.delays
            .iter()
            .fold(0.0f64, |m, &d| m.max(d / self.tnom_v1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_and_bad_tnom() {
        assert_eq!(
            DelayTrace::new(vec![], 1.0).expect_err("empty"),
            TimingError::EmptyTrace
        );
        assert!(matches!(
            DelayTrace::new(vec![1.0], 0.0).expect_err("bad tnom"),
            TimingError::InvalidRatio(_)
        ));
    }

    #[test]
    fn normalization() {
        let t = DelayTrace::new(vec![5.0, 10.0, 2.5], 10.0).expect("valid");
        assert_eq!(t.normalized(), vec![0.5, 1.0, 0.25]);
        assert!((t.mean_normalized() - (0.5 + 1.0 + 0.25) / 3.0).abs() < 1e-12);
        assert_eq!(t.max_normalized(), 1.0);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }
}
