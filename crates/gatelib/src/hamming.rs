//! Hamming-distance analysis of output traces.
//!
//! The paper's GPGPU case study (Sec 5.5, Fig 5.10) decides whether timing
//! speculation needs per-lane tuning by comparing the hamming-distance
//! histograms of consecutive vector-ALU outputs: similar histograms mean
//! similar switching activity, similar sensitized paths, and therefore
//! homogeneous error probabilities. This module provides the histogram type
//! and a similarity metric used by the `gpgpu` crate and the Fig 5.10
//! reproduction.

/// Hamming distance between two output words.
///
/// ```
/// assert_eq!(gatelib::hamming::distance(0b1010, 0b0110), 2);
/// ```
#[must_use]
pub fn distance(a: u64, b: u64) -> u32 {
    (a ^ b).count_ones()
}

/// Histogram of hamming distances between consecutive outputs of a unit.
///
/// Bin `d` counts transitions whose outputs differed in exactly `d` bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HammingHistogram {
    bins: Vec<u64>,
    samples: u64,
    last: Option<u64>,
}

impl HammingHistogram {
    /// Creates a histogram for `width`-bit outputs (bins `0..=width`).
    #[must_use]
    pub fn new(width: usize) -> HammingHistogram {
        HammingHistogram {
            bins: vec![0; width + 1],
            samples: 0,
            last: None,
        }
    }

    /// Feeds the next output word; records the distance to the previous one.
    pub fn record(&mut self, output: u64) {
        if let Some(prev) = self.last {
            let d = distance(prev, output) as usize;
            let top = self.bins.len() - 1;
            self.bins[d.min(top)] += 1;
            self.samples += 1;
        }
        self.last = Some(output);
    }

    /// Builds a histogram directly from an output trace.
    pub fn from_trace<I: IntoIterator<Item = u64>>(width: usize, trace: I) -> HammingHistogram {
        let mut h = HammingHistogram::new(width);
        for word in trace {
            h.record(word);
        }
        h
    }

    /// Raw bin counts (`bins()[d]` = number of transitions with distance d).
    #[must_use]
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Number of recorded transitions.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The histogram as a probability distribution. All zeros if empty.
    #[must_use]
    pub fn normalized(&self) -> Vec<f64> {
        if self.samples == 0 {
            return vec![0.0; self.bins.len()];
        }
        let n = self.samples as f64;
        self.bins.iter().map(|&c| c as f64 / n).collect()
    }

    /// Mean hamming distance per transition.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .bins
            .iter()
            .enumerate()
            .map(|(d, &c)| d as f64 * c as f64)
            .sum();
        sum / self.samples as f64
    }

    /// Similarity to another histogram in `[0, 1]`:
    /// `1 − total-variation distance` between the normalized distributions.
    ///
    /// Two units with similarity close to 1 have statistically
    /// indistinguishable switching activity — the paper's homogeneity
    /// criterion for GPGPU lanes.
    #[must_use]
    pub fn similarity(&self, other: &HammingHistogram) -> f64 {
        let a = self.normalized();
        let b = other.normalized();
        let len = a.len().max(b.len());
        let get = |v: &[f64], i: usize| v.get(i).copied().unwrap_or(0.0);
        let tv: f64 = (0..len)
            .map(|i| (get(&a, i) - get(&b, i)).abs())
            .sum::<f64>()
            / 2.0;
        1.0 - tv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_basics() {
        assert_eq!(distance(0, 0), 0);
        assert_eq!(distance(u64::MAX, 0), 64);
        assert_eq!(distance(0b1100, 0b1010), 2);
    }

    #[test]
    fn histogram_counts_transitions_not_samples() {
        let h = HammingHistogram::from_trace(4, [0b0000, 0b0001, 0b0011, 0b0011]);
        // 3 transitions: d=1, d=1, d=0.
        assert_eq!(h.samples(), 3);
        assert_eq!(h.bins()[0], 1);
        assert_eq!(h.bins()[1], 2);
    }

    #[test]
    fn normalized_sums_to_one() {
        let h = HammingHistogram::from_trace(8, (0..100u64).map(|i| i * 37 % 251));
        let total: f64 = h.normalized().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = HammingHistogram::new(8);
        assert_eq!(h.samples(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.normalized().iter().all(|&p| p == 0.0));
    }

    #[test]
    fn identical_traces_have_similarity_one() {
        let t: Vec<u64> = (0..64).map(|i| i * 31 % 97).collect();
        let a = HammingHistogram::from_trace(8, t.clone());
        let b = HammingHistogram::from_trace(8, t);
        assert!((a.similarity(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_distance_profiles_have_low_similarity() {
        // One trace never toggles; the other toggles all 4 bits every step.
        let a = HammingHistogram::from_trace(4, [0u64, 0, 0, 0, 0]);
        let b = HammingHistogram::from_trace(4, [0u64, 0xF, 0, 0xF, 0]);
        assert!(a.similarity(&b) < 0.01);
    }

    #[test]
    fn mean_matches_hand_computation() {
        let h = HammingHistogram::from_trace(4, [0b0000u64, 0b0001, 0b0111]);
        // distances: 1, 2 -> mean 1.5
        assert!((h.mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn wide_distances_clamp_to_top_bin() {
        let mut h = HammingHistogram::new(2);
        h.record(0);
        h.record(0b1111); // distance 4 clamps into bin 2
        assert_eq!(h.bins()[2], 1);
    }
}
