//! Supply-voltage model: Table 5.1 of the paper, reproduced by construction.
//!
//! The paper characterizes delay-vs-voltage by simulating 22 nm ring
//! oscillators in HSPICE and tabulating the nominal clock period multiplier
//! at seven Vdd points (Table 5.1). We embed those seven points verbatim and
//! interpolate monotonically between them; a ring-oscillator "simulation"
//! over our own cell library therefore reproduces Table 5.1 exactly at the
//! published points (`repro table-5-1` checks this).

use crate::error::NetlistError;

/// The seven `(Vdd, t_nom multiplier)` points of the paper's Table 5.1.
pub const VOLTAGE_TABLE_POINTS: [(f64, f64); 7] = [
    (1.00, 1.00),
    (0.92, 1.13),
    (0.86, 1.27),
    (0.80, 1.39),
    (0.72, 1.63),
    (0.68, 2.21),
    (0.65, 2.63),
];

/// A supply voltage in volts.
///
/// Newtype so voltages cannot be confused with timing-speculation ratios or
/// normalized delays, which are also `f64` in this codebase.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Voltage(f64);

impl Voltage {
    /// The nominal chip voltage (1.0 V), the paper's reference point.
    pub const NOMINAL: Voltage = Voltage(1.0);

    /// Lowest voltage characterized by Table 5.1.
    pub const MIN_CHARACTERIZED: Voltage = Voltage(0.65);

    /// Creates a voltage, validating it against the characterized range.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::VoltageOutOfRange`] if `volts` lies outside
    /// `[0.65, 1.0]` — the delay model has no data beyond Table 5.1 and
    /// refuses to extrapolate silently.
    pub fn new(volts: f64) -> Result<Voltage, NetlistError> {
        if !(0.65..=1.0).contains(&volts) || volts.is_nan() {
            return Err(NetlistError::VoltageOutOfRange {
                volts,
                min: 0.65,
                max: 1.0,
            });
        }
        Ok(Voltage(volts))
    }

    /// The raw value in volts.
    #[must_use]
    pub fn volts(self) -> f64 {
        self.0
    }

    /// Delay multiplier relative to 1.0 V operation (Table 5.1 with
    /// monotone piecewise-linear interpolation between published points).
    ///
    /// Multiply any 1.0 V gate or path delay by this factor to obtain the
    /// delay at this voltage. At the seven published voltages the result is
    /// exactly the published multiplier.
    #[must_use]
    pub fn delay_scale(self) -> f64 {
        let v = self.0;
        // Table points are sorted by descending voltage.
        let pts = &VOLTAGE_TABLE_POINTS;
        if v >= pts[0].0 {
            return pts[0].1;
        }
        for w in pts.windows(2) {
            let (v_hi, s_hi) = w[0];
            let (v_lo, s_lo) = w[1];
            if v >= v_lo {
                let t = (v_hi - v) / (v_hi - v_lo);
                return s_hi + t * (s_lo - s_hi);
            }
        }
        pts[pts.len() - 1].1
    }

    /// Dynamic-energy multiplier relative to 1.0 V operation (`V²`, Eq 4.3's
    /// `α V_i²` with α factored out).
    #[must_use]
    pub fn energy_scale(self) -> f64 {
        self.0 * self.0
    }
}

impl Default for Voltage {
    fn default() -> Self {
        Voltage::NOMINAL
    }
}

impl std::fmt::Display for Voltage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2} V", self.0)
    }
}

/// The discrete voltage levels available to the DVFS controller — the set
/// `V` of the paper's system model (Sec 4.1), defaulting to Table 5.1.
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageTable {
    levels: Vec<Voltage>,
}

impl VoltageTable {
    /// The seven-level table published in the paper (Table 5.1),
    /// ordered from highest (1.0 V) to lowest (0.65 V).
    #[must_use]
    pub fn ptm22() -> VoltageTable {
        VoltageTable {
            levels: VOLTAGE_TABLE_POINTS
                .iter()
                .map(|&(v, _)| Voltage(v))
                .collect(),
        }
    }

    /// Builds a custom table from raw voltages.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::VoltageOutOfRange`] if any entry is outside
    /// the characterized `[0.65, 1.0]` V range, and
    /// [`NetlistError::NoOutputs`] never — an empty input yields an empty
    /// table which is valid but useless.
    pub fn from_volts<I: IntoIterator<Item = f64>>(volts: I) -> Result<VoltageTable, NetlistError> {
        let mut levels = volts
            .into_iter()
            .map(Voltage::new)
            .collect::<Result<Vec<_>, _>>()?;
        levels.sort_by(|a, b| b.partial_cmp(a).expect("validated: no NaN"));
        Ok(VoltageTable { levels })
    }

    /// The voltage levels, highest first.
    #[must_use]
    pub fn levels(&self) -> &[Voltage] {
        &self.levels
    }

    /// Number of levels (the paper's `Q`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Whether the table has no levels.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Iterates over the levels, highest voltage first.
    pub fn iter(&self) -> std::slice::Iter<'_, Voltage> {
        self.levels.iter()
    }
}

impl Default for VoltageTable {
    fn default() -> Self {
        VoltageTable::ptm22()
    }
}

impl<'a> IntoIterator for &'a VoltageTable {
    type Item = &'a Voltage;
    type IntoIter = std::slice::Iter<'a, Voltage>;
    fn into_iter(self) -> Self::IntoIter {
        self.levels.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_5_1_reproduced_exactly() {
        for &(v, expected) in &VOLTAGE_TABLE_POINTS {
            let volt = Voltage::new(v).expect("published point in range");
            let got = volt.delay_scale();
            assert!(
                (got - expected).abs() < 1e-12,
                "Table 5.1 mismatch at {v} V: got {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn delay_scale_monotone_decreasing_in_voltage() {
        let mut prev = f64::INFINITY;
        let mut v = 0.65;
        while v <= 1.0 {
            let s = Voltage::new(v).expect("in range").delay_scale();
            assert!(s <= prev + 1e-12, "delay scale not monotone at {v} V");
            prev = s;
            v += 0.005;
        }
    }

    #[test]
    fn interpolation_between_points() {
        // Midway between 0.92 (1.13) and 0.86 (1.27).
        let s = Voltage::new(0.89).expect("in range").delay_scale();
        assert!((s - 1.20).abs() < 1e-9, "expected linear midpoint, got {s}");
    }

    #[test]
    fn out_of_range_voltage_rejected() {
        assert!(Voltage::new(0.5).is_err());
        assert!(Voltage::new(1.1).is_err());
        assert!(Voltage::new(f64::NAN).is_err());
        assert!(Voltage::new(0.65).is_ok());
        assert!(Voltage::new(1.0).is_ok());
    }

    #[test]
    fn energy_scale_is_v_squared() {
        let v = Voltage::new(0.8).expect("in range");
        assert!((v.energy_scale() - 0.64).abs() < 1e-12);
    }

    #[test]
    fn default_table_has_seven_levels_sorted_desc() {
        let t = VoltageTable::ptm22();
        assert_eq!(t.len(), 7);
        for w in t.levels().windows(2) {
            assert!(w[0].volts() > w[1].volts());
        }
        assert_eq!(t.levels()[0], Voltage::NOMINAL);
    }

    #[test]
    fn custom_table_sorted_and_validated() {
        let t = VoltageTable::from_volts([0.8, 1.0, 0.9]).expect("all in range");
        let v: Vec<f64> = t.iter().map(|x| x.volts()).collect();
        assert_eq!(v, vec![1.0, 0.9, 0.8]);
        assert!(VoltageTable::from_volts([0.3]).is_err());
    }

    #[test]
    fn display_formats_volts() {
        assert_eq!(Voltage::NOMINAL.to_string(), "1.00 V");
    }
}
