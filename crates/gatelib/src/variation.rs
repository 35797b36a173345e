//! Process variation and aging: the physical reasons timing errors exist.
//!
//! The paper's introduction attributes timing errors to "process variation
//! and aging etc." and motivates worst-case guard bands as the slack that
//! timing speculation harvests. This module models both effects at the
//! granularity the rest of the crate works at — a multiplicative delay
//! factor per cell instance:
//!
//! * [`VariationModel`] — lognormal die-to-die (global) plus within-die
//!   random (local) delay variation, sampled into per-cell
//!   [`DelayFactors`] from an explicit seed (Monte Carlo over die
//!   instances is deterministic and reproducible);
//! * [`AgingModel`] — NBTI-style power-law degradation
//!   `ΔD/D = δ_ref · (t/t_ref)^n`, optionally weighted by per-cell stress
//!   duty factors;
//! * [`guard_band`] — the worst-case-design step of Sec 1.1: how much
//!   slack a designer must add to the nominal period so that every
//!   sampled die still meets timing.
//!
//! Factors compose multiplicatively ([`DelayFactors::compose`]), so a die
//! can be aged: `variation.sample(..).compose(&aging.factors(..)?)?`.
//!
//! ```
//! use gatelib::{CellKind, NetlistBuilder, StaticTiming, Voltage};
//! use gatelib::variation::VariationModel;
//!
//! # fn main() -> Result<(), gatelib::NetlistError> {
//! let mut b = NetlistBuilder::new("chain");
//! let a = b.input("a");
//! let x = b.cell(CellKind::Inv, &[a])?;
//! let y = b.cell(CellKind::Inv, &[x])?;
//! b.output(y, "y");
//! let n = b.finish()?;
//!
//! let process = VariationModel::ptm22_typical();
//! let die = process.sample(n.cell_count(), 7);
//! let sta = StaticTiming::analyze_with_factors(&n, Voltage::NOMINAL, &die)?;
//! assert!(sta.critical_path().delay > 0.0);
//! # Ok(())
//! # }
//! ```

use crate::error::NetlistError;
use crate::netlist::{CellId, Netlist};
use crate::sta::StaticTiming;
use crate::voltage::Voltage;

/// Hard clamp on sampled factors: a cell can be at most this much faster
/// or slower than nominal. Keeps pathological lognormal tails from
/// producing physically absurd dies.
pub const FACTOR_CLAMP: (f64, f64) = (0.5, 2.0);

/// Per-cell multiplicative delay factors for one die instance.
///
/// A factor of 1.0 leaves the library delay unchanged; 1.1 makes that cell
/// 10% slower. Apply with [`StaticTiming::analyze_with_factors`] or
/// [`crate::TimingSim::with_factors`].
#[derive(Debug, Clone, PartialEq)]
pub struct DelayFactors {
    factors: Vec<f64>,
}

impl DelayFactors {
    /// The identity: every cell at its nominal library delay.
    #[must_use]
    pub fn unit(cell_count: usize) -> DelayFactors {
        DelayFactors {
            factors: vec![1.0; cell_count],
        }
    }

    /// Creates factors from raw values.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadDelayFactor`] if any value is not finite
    /// and strictly positive.
    pub fn new(factors: Vec<f64>) -> Result<DelayFactors, NetlistError> {
        for (i, &f) in factors.iter().enumerate() {
            if !f.is_finite() || f <= 0.0 {
                return Err(NetlistError::BadDelayFactor { index: i, value: f });
            }
        }
        Ok(DelayFactors { factors })
    }

    /// Number of cells covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.factors.len()
    }

    /// Whether the factor set covers no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.factors.is_empty()
    }

    /// The factor for one cell.
    #[must_use]
    pub fn factor(&self, id: CellId) -> Option<f64> {
        self.factors.get(id.index()).copied()
    }

    /// All factors, cell id order.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.factors
    }

    /// Element-wise product with another factor set — e.g. process
    /// variation composed with aging.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::FactorCountMismatch`] if the two sets cover
    /// different numbers of cells.
    pub fn compose(&self, other: &DelayFactors) -> Result<DelayFactors, NetlistError> {
        if self.len() != other.len() {
            return Err(NetlistError::FactorCountMismatch {
                expected: self.len(),
                got: other.len(),
            });
        }
        Ok(DelayFactors {
            factors: self
                .factors
                .iter()
                .zip(&other.factors)
                .map(|(a, b)| a * b)
                .collect(),
        })
    }

    /// `(min, max)` factor across all cells; `(1.0, 1.0)` when empty.
    #[must_use]
    pub fn range(&self) -> (f64, f64) {
        if self.factors.is_empty() {
            (1.0, 1.0)
        } else {
            let lo = self.factors.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = self
                .factors
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
            (lo, hi)
        }
    }
}

/// Lognormal process-variation model: a global (die-to-die) component
/// shared by every cell on the die and an independent local (within-die)
/// component per cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationModel {
    /// Die-to-die sigma of `ln(delay factor)`.
    pub sigma_global: f64,
    /// Within-die random per-cell sigma of `ln(delay factor)`.
    pub sigma_local: f64,
}

impl VariationModel {
    /// Creates a model, validating both sigmas.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadSigma`] unless both sigmas lie in
    /// `[0, 0.5)` — beyond that the lognormal tails dominate and the clamp
    /// in [`VariationModel::sample`] would distort every sample.
    pub fn new(sigma_global: f64, sigma_local: f64) -> Result<VariationModel, NetlistError> {
        for &s in &[sigma_global, sigma_local] {
            if !(0.0..0.5).contains(&s) || s.is_nan() {
                return Err(NetlistError::BadSigma(s));
            }
        }
        Ok(VariationModel {
            sigma_global,
            sigma_local,
        })
    }

    /// Typical magnitudes reported for planar 22 nm-class processes:
    /// ~4% die-to-die, ~3% within-die random.
    #[must_use]
    pub fn ptm22_typical() -> VariationModel {
        VariationModel {
            sigma_global: 0.04,
            sigma_local: 0.03,
        }
    }

    /// A die with no variation at all (factors exactly 1.0).
    #[must_use]
    pub fn none() -> VariationModel {
        VariationModel {
            sigma_global: 0.0,
            sigma_local: 0.0,
        }
    }

    /// Samples one die instance: per-cell factors
    /// `exp(g + l_i)` with `g ~ N(0, σ_g²)` shared and
    /// `l_i ~ N(0, σ_l²)` independent, clamped to [`FACTOR_CLAMP`].
    ///
    /// Deterministic in `seed`: the same seed always yields the same die.
    #[must_use]
    pub fn sample(&self, cell_count: usize, seed: u64) -> DelayFactors {
        let mut rng = SplitMix64::new(seed);
        let g = self.sigma_global * rng.standard_normal();
        let factors = (0..cell_count)
            .map(|_| {
                let l = self.sigma_local * rng.standard_normal();
                (g + l).exp().clamp(FACTOR_CLAMP.0, FACTOR_CLAMP.1)
            })
            .collect();
        DelayFactors { factors }
    }
}

/// Power-law aging model, NBTI-shaped: fractional delay degradation
/// `δ(t) = δ_ref · (t / t_ref)^n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgingModel {
    /// Degradation fraction after `t_ref` years of full-stress operation.
    pub delta_ref: f64,
    /// Reference lifetime in years.
    pub t_ref_years: f64,
    /// Time exponent `n` (NBTI literature clusters near 0.2).
    pub exponent: f64,
}

impl AgingModel {
    /// NBTI-style defaults for a 22 nm-class node: 8% delay degradation
    /// after a 7-year full-stress lifetime, `t^0.2` time dependence.
    #[must_use]
    pub fn nbti_ptm22() -> AgingModel {
        AgingModel {
            delta_ref: 0.08,
            t_ref_years: 7.0,
            exponent: 0.2,
        }
    }

    /// Fractional delay degradation after `years` of full-stress
    /// operation. Zero at zero; monotone increasing.
    ///
    /// # Panics
    ///
    /// Panics if `years` is negative (time does not run backwards).
    #[must_use]
    pub fn degradation(&self, years: f64) -> f64 {
        assert!(years >= 0.0, "aging time must be non-negative, got {years}");
        if years == 0.0 {
            return 0.0;
        }
        self.delta_ref * (years / self.t_ref_years).powf(self.exponent)
    }

    /// Per-cell aging factors after `years`, with optional per-cell stress
    /// duty in `[0, 1]` (1 = cell's transistors are stressed continuously).
    /// Without `duty`, every cell ages at full stress.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::FactorCountMismatch`] if `duty` has the
    /// wrong length, and [`NetlistError::BadDelayFactor`] if any duty is
    /// outside `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `years` is negative.
    pub fn factors(
        &self,
        cell_count: usize,
        years: f64,
        duty: Option<&[f64]>,
    ) -> Result<DelayFactors, NetlistError> {
        let delta = self.degradation(years);
        match duty {
            None => Ok(DelayFactors {
                factors: vec![1.0 + delta; cell_count],
            }),
            Some(d) => {
                if d.len() != cell_count {
                    return Err(NetlistError::FactorCountMismatch {
                        expected: cell_count,
                        got: d.len(),
                    });
                }
                for (i, &x) in d.iter().enumerate() {
                    if !(0.0..=1.0).contains(&x) || x.is_nan() {
                        return Err(NetlistError::BadDelayFactor { index: i, value: x });
                    }
                }
                Ok(DelayFactors {
                    factors: d.iter().map(|&x| 1.0 + delta * x).collect(),
                })
            }
        }
    }
}

/// Worst-case-design guard band (Sec 1.1): the multiplier on the nominal
/// (variation-free) critical-path delay needed to cover the slowest of
/// `samples` Monte Carlo die instances.
///
/// Always ≥ 1 when any sampled die is slower than nominal; exactly the
/// slack that timing speculation later reclaims on typical dies. Die `k`
/// is seeded with `seed + k`, and the dies run in order on the caller's
/// thread.
///
/// # Errors
///
/// Returns [`NetlistError::NoOutputs`] for an un-timeable netlist and
/// [`NetlistError::BadSigma`] via the model's invariants.
pub fn guard_band(
    netlist: &Netlist,
    voltage: Voltage,
    model: &VariationModel,
    samples: u32,
    seed: u64,
) -> Result<f64, NetlistError> {
    let nominal = StaticTiming::analyze(netlist, voltage)?
        .critical_path()
        .delay;
    let mut worst: f64 = 1.0;
    for k in 0..samples {
        let die = model.sample(netlist.cell_count(), seed.wrapping_add(u64::from(k)));
        let sta = StaticTiming::analyze_with_factors(netlist, voltage, &die)?;
        worst = worst.max(sta.critical_path().delay / nominal);
    }
    Ok(worst)
}

/// SplitMix64 with a Box–Muller Gaussian tap — deterministic, seedable,
/// and dependency-free. Statistical quality is far beyond what Monte Carlo
/// over a few thousand cells can resolve.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
    cached_normal: Option<f64>,
}

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64 {
            state: seed,
            cached_normal: None,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1]: never exactly zero, so `ln` below is safe.
    fn uniform_open(&mut self) -> f64 {
        let bits = self.next_u64() >> 11; // 53 random bits
        (bits as f64 + 1.0) / (9_007_199_254_740_992.0 + 1.0)
    }

    fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.cached_normal.take() {
            return z;
        }
        let u1 = self.uniform_open();
        let u2 = self.uniform_open();
        let radius = (-2.0 * u1.ln()).sqrt();
        let angle = 2.0 * std::f64::consts::PI * u2;
        self.cached_normal = Some(radius * angle.sin());
        radius * angle.cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use crate::netlist::NetlistBuilder;
    use crate::sim::TimingSim;

    fn inv_chain(len: usize) -> Netlist {
        let mut b = NetlistBuilder::new("chain");
        let mut net = b.input("a");
        for _ in 0..len {
            net = b.cell(CellKind::Inv, &[net]).expect("arity ok");
        }
        b.output(net, "y");
        b.finish().expect("valid")
    }

    #[test]
    fn unit_factors_do_not_change_sta() {
        let n = inv_chain(8);
        let base = StaticTiming::analyze(&n, Voltage::NOMINAL).expect("ok");
        let unit = DelayFactors::unit(n.cell_count());
        let with = StaticTiming::analyze_with_factors(&n, Voltage::NOMINAL, &unit).expect("ok");
        assert_eq!(base.critical_path().delay, with.critical_path().delay);
    }

    #[test]
    fn factors_validation_rejects_bad_values() {
        assert!(matches!(
            DelayFactors::new(vec![1.0, 0.0]).expect_err("zero"),
            NetlistError::BadDelayFactor { index: 1, .. }
        ));
        assert!(DelayFactors::new(vec![1.0, f64::NAN]).is_err());
        assert!(DelayFactors::new(vec![1.0, -2.0]).is_err());
        assert!(DelayFactors::new(vec![1.0, 1.5]).is_ok());
    }

    #[test]
    fn compose_multiplies_elementwise() {
        let a = DelayFactors::new(vec![1.0, 2.0]).expect("ok");
        let b = DelayFactors::new(vec![1.5, 0.5]).expect("ok");
        let c = a.compose(&b).expect("same length");
        assert_eq!(c.as_slice(), &[1.5, 1.0]);
        let short = DelayFactors::unit(1);
        assert!(matches!(
            a.compose(&short).expect_err("length mismatch"),
            NetlistError::FactorCountMismatch {
                expected: 2,
                got: 1
            }
        ));
    }

    #[test]
    fn sampling_is_deterministic_in_seed() {
        let m = VariationModel::ptm22_typical();
        let a = m.sample(64, 42);
        let b = m.sample(64, 42);
        let c = m.sample(64, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zero_sigma_yields_unit_factors() {
        let m = VariationModel::none();
        let f = m.sample(32, 1);
        for &x in f.as_slice() {
            assert!((x - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn sigma_validation() {
        assert!(VariationModel::new(0.6, 0.0).is_err());
        assert!(VariationModel::new(0.0, f64::NAN).is_err());
        assert!(VariationModel::new(-0.1, 0.0).is_err());
        assert!(VariationModel::new(0.1, 0.2).is_ok());
    }

    #[test]
    fn larger_sigma_spreads_sta_wider() {
        let n = inv_chain(32);
        let tight = VariationModel::new(0.0, 0.02).expect("ok");
        let loose = VariationModel::new(0.0, 0.20).expect("ok");
        let spread = |m: &VariationModel| {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for seed in 0..50u64 {
                let die = m.sample(n.cell_count(), seed);
                let d = StaticTiming::analyze_with_factors(&n, Voltage::NOMINAL, &die)
                    .expect("ok")
                    .critical_path()
                    .delay;
                lo = lo.min(d);
                hi = hi.max(d);
            }
            hi - lo
        };
        assert!(spread(&loose) > spread(&tight) * 2.0);
    }

    #[test]
    fn global_sigma_shifts_whole_die_together() {
        // With only global sigma, every cell on a die gets the same factor.
        let m = VariationModel::new(0.1, 0.0).expect("ok");
        let f = m.sample(16, 9);
        let first = f.as_slice()[0];
        for &x in f.as_slice() {
            assert!((x - first).abs() < 1e-15);
        }
    }

    #[test]
    fn aging_is_zero_at_birth_and_monotone() {
        let a = AgingModel::nbti_ptm22();
        assert_eq!(a.degradation(0.0), 0.0);
        let mut prev = 0.0;
        for years in [0.1, 0.5, 1.0, 3.0, 7.0, 10.0] {
            let d = a.degradation(years);
            assert!(d > prev, "degradation must increase: {d} at {years}y");
            prev = d;
        }
        // At the reference lifetime, exactly delta_ref.
        assert!((a.degradation(7.0) - 0.08).abs() < 1e-12);
    }

    #[test]
    fn aging_duty_scales_stress() {
        let a = AgingModel::nbti_ptm22();
        let f = a.factors(3, 7.0, Some(&[0.0, 0.5, 1.0])).expect("ok");
        let s = f.as_slice();
        assert!((s[0] - 1.0).abs() < 1e-12, "unstressed cell does not age");
        assert!((s[2] - 1.08).abs() < 1e-12, "full stress ages fully");
        assert!(s[1] > s[0] && s[1] < s[2]);
    }

    #[test]
    fn aging_rejects_bad_duty() {
        let a = AgingModel::nbti_ptm22();
        assert!(a.factors(2, 1.0, Some(&[0.5])).is_err(), "length");
        assert!(a.factors(2, 1.0, Some(&[0.5, 1.5])).is_err(), "range");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn aging_panics_on_negative_time() {
        let _ = AgingModel::nbti_ptm22().degradation(-1.0);
    }

    #[test]
    fn guard_band_covers_all_sampled_dies() {
        let n = inv_chain(16);
        let m = VariationModel::ptm22_typical();
        let gb = guard_band(&n, Voltage::NOMINAL, &m, 40, 7).expect("ok");
        assert!(gb >= 1.0);
        let nominal = StaticTiming::analyze(&n, Voltage::NOMINAL)
            .expect("ok")
            .critical_path()
            .delay;
        for seed in 0..40u64 {
            let die = m.sample(n.cell_count(), 7u64.wrapping_add(seed));
            let d = StaticTiming::analyze_with_factors(&n, Voltage::NOMINAL, &die)
                .expect("ok")
                .critical_path()
                .delay;
            assert!(d <= gb * nominal * (1.0 + 1e-12));
        }
    }

    #[test]
    fn guard_band_grows_with_sigma() {
        let n = inv_chain(16);
        let small = VariationModel::new(0.02, 0.01).expect("ok");
        let large = VariationModel::new(0.15, 0.10).expect("ok");
        let gb_small = guard_band(&n, Voltage::NOMINAL, &small, 30, 3).expect("ok");
        let gb_large = guard_band(&n, Voltage::NOMINAL, &large, 30, 3).expect("ok");
        assert!(gb_large > gb_small);
    }

    #[test]
    fn dynamic_sim_respects_factors() {
        // A slowed die must report longer sensitized delays.
        let n = inv_chain(8);
        let slow = DelayFactors::new(vec![1.5; n.cell_count()]).expect("ok");
        let mut base = TimingSim::new(&n, Voltage::NOMINAL).expect("ok");
        let mut slowed = TimingSim::with_factors(&n, Voltage::NOMINAL, &slow).expect("ok");
        base.step(&[false]).expect("width ok");
        slowed.step(&[false]).expect("width ok");
        let d0 = base.step(&[true]).expect("width ok");
        let d1 = slowed.step(&[true]).expect("width ok");
        assert!((d1 - 1.5 * d0).abs() < 1e-9, "{d1} vs 1.5×{d0}");
    }

    #[test]
    fn normal_sampler_is_roughly_standard() {
        let mut rng = SplitMix64::new(123);
        let n = 20_000;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for _ in 0..n {
            let z = rng.standard_normal();
            sum += z;
            sq += z * z;
        }
        let mean = sum / f64::from(n);
        let var = sq / f64::from(n) - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
