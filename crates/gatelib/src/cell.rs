//! The standard-cell library: gate kinds, logic functions, and physical
//! parameters (intrinsic delay, load sensitivity, area, switching energy).
//!
//! Delay numbers are *normalized*: a fanout-of-1 inverter at Vdd = 1.0 V has
//! delay 1.0. Relative gate strengths follow typical 22 nm standard-cell
//! ratios (XOR ≈ 2 inverters, full-adder carry ≈ 2.2, etc.). Only relative
//! magnitudes matter for SynTS — the paper's analysis is entirely in terms of
//! delay ratios (timing-speculation ratio r = t_clk / t_nom).

/// Name of the bundled cell library (used in reports and stats).
pub const CELL_LIBRARY_NAME: &str = "synts-ptm22-norm";

/// The kinds of combinational cells available to netlist generators.
///
/// The library is intentionally small — just enough to express the decode,
/// simple-ALU and complex-ALU stage netlists of the reproduction — but each
/// entry carries calibrated physical parameters so STA, dynamic timing and
/// the Sec 6.3 overhead model all read from one source of truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum CellKind {
    /// Inverter.
    Inv,
    /// Buffer (used for fanout trees and name isolation).
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 3-input NAND.
    Nand3,
    /// 3-input NOR.
    Nor3,
    /// 3-input AND.
    And3,
    /// 3-input OR.
    Or3,
    /// 2:1 multiplexer; pin order `[sel, a, b]`, output = `sel ? b : a`.
    Mux2,
    /// Majority-of-3 (full-adder carry); pin order `[a, b, c]`.
    Maj3,
    /// 3-input XOR (full-adder sum); pin order `[a, b, c]`.
    Xor3,
    /// And-Or-Invert 2-1: `!((a & b) | c)`; pin order `[a, b, c]`.
    Aoi21,
    /// Or-And-Invert 2-1: `!((a | b) & c)`; pin order `[a, b, c]`.
    Oai21,
    /// Constant-0 driver (tie-low cell).
    Tie0,
    /// Constant-1 driver (tie-high cell).
    Tie1,
}

/// Physical parameters of a cell, normalized to an FO1 inverter at 1.0 V.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellParams {
    /// Intrinsic propagation delay at fanout 1, Vdd = 1.0 V.
    pub intrinsic_delay: f64,
    /// Additional delay per extra unit of fanout load.
    pub load_delay: f64,
    /// Cell area in normalized units (INV = 1.0).
    pub area: f64,
    /// Switching energy per output toggle, normalized (INV = 1.0) at 1.0 V.
    /// Scales with V² at other voltages.
    pub switch_energy: f64,
}

impl CellKind {
    /// All cell kinds in the library, in a stable order.
    pub const ALL: [CellKind; 19] = [
        CellKind::Inv,
        CellKind::Buf,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::And2,
        CellKind::Or2,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Nand3,
        CellKind::Nor3,
        CellKind::And3,
        CellKind::Or3,
        CellKind::Mux2,
        CellKind::Maj3,
        CellKind::Xor3,
        CellKind::Aoi21,
        CellKind::Oai21,
        CellKind::Tie0,
        CellKind::Tie1,
    ];

    /// Number of input pins this cell requires.
    #[must_use]
    pub const fn arity(self) -> usize {
        match self {
            CellKind::Tie0 | CellKind::Tie1 => 0,
            CellKind::Inv | CellKind::Buf => 1,
            CellKind::Nand2
            | CellKind::Nor2
            | CellKind::And2
            | CellKind::Or2
            | CellKind::Xor2
            | CellKind::Xnor2 => 2,
            CellKind::Nand3
            | CellKind::Nor3
            | CellKind::And3
            | CellKind::Or3
            | CellKind::Mux2
            | CellKind::Maj3
            | CellKind::Xor3
            | CellKind::Aoi21
            | CellKind::Oai21 => 3,
        }
    }

    /// Short library name of the cell (e.g. `"NAND2"`).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            CellKind::Inv => "INV",
            CellKind::Buf => "BUF",
            CellKind::Nand2 => "NAND2",
            CellKind::Nor2 => "NOR2",
            CellKind::And2 => "AND2",
            CellKind::Or2 => "OR2",
            CellKind::Xor2 => "XOR2",
            CellKind::Xnor2 => "XNOR2",
            CellKind::Nand3 => "NAND3",
            CellKind::Nor3 => "NOR3",
            CellKind::And3 => "AND3",
            CellKind::Or3 => "OR3",
            CellKind::Mux2 => "MUX2",
            CellKind::Maj3 => "MAJ3",
            CellKind::Xor3 => "XOR3",
            CellKind::Aoi21 => "AOI21",
            CellKind::Oai21 => "OAI21",
            CellKind::Tie0 => "TIE0",
            CellKind::Tie1 => "TIE1",
        }
    }

    /// Physical parameters of the cell (normalized FO1-inverter units).
    ///
    /// Ratios loosely follow a commercial 22 nm high-density library:
    /// NAND/NOR are fast and small, XOR family costs about two inverter
    /// delays, majority (full-adder carry) slightly more.
    #[must_use]
    pub const fn params(self) -> CellParams {
        match self {
            CellKind::Inv => CellParams {
                intrinsic_delay: 1.0,
                load_delay: 0.30,
                area: 1.0,
                switch_energy: 1.0,
            },
            CellKind::Buf => CellParams {
                intrinsic_delay: 1.4,
                load_delay: 0.22,
                area: 1.4,
                switch_energy: 1.3,
            },
            CellKind::Nand2 => CellParams {
                intrinsic_delay: 1.2,
                load_delay: 0.32,
                area: 1.4,
                switch_energy: 1.4,
            },
            CellKind::Nor2 => CellParams {
                intrinsic_delay: 1.4,
                load_delay: 0.36,
                area: 1.4,
                switch_energy: 1.5,
            },
            CellKind::And2 => CellParams {
                intrinsic_delay: 1.6,
                load_delay: 0.30,
                area: 1.8,
                switch_energy: 1.7,
            },
            CellKind::Or2 => CellParams {
                intrinsic_delay: 1.7,
                load_delay: 0.30,
                area: 1.8,
                switch_energy: 1.8,
            },
            CellKind::Xor2 => CellParams {
                intrinsic_delay: 2.0,
                load_delay: 0.38,
                area: 3.0,
                switch_energy: 2.6,
            },
            CellKind::Xnor2 => CellParams {
                intrinsic_delay: 2.0,
                load_delay: 0.38,
                area: 3.0,
                switch_energy: 2.6,
            },
            CellKind::Nand3 => CellParams {
                intrinsic_delay: 1.5,
                load_delay: 0.36,
                area: 2.0,
                switch_energy: 1.9,
            },
            CellKind::Nor3 => CellParams {
                intrinsic_delay: 1.9,
                load_delay: 0.42,
                area: 2.0,
                switch_energy: 2.1,
            },
            CellKind::And3 => CellParams {
                intrinsic_delay: 1.9,
                load_delay: 0.32,
                area: 2.4,
                switch_energy: 2.2,
            },
            CellKind::Or3 => CellParams {
                intrinsic_delay: 2.1,
                load_delay: 0.32,
                area: 2.4,
                switch_energy: 2.3,
            },
            CellKind::Mux2 => CellParams {
                intrinsic_delay: 1.8,
                load_delay: 0.34,
                area: 2.6,
                switch_energy: 2.2,
            },
            CellKind::Maj3 => CellParams {
                intrinsic_delay: 2.2,
                load_delay: 0.36,
                area: 3.2,
                switch_energy: 2.8,
            },
            CellKind::Xor3 => CellParams {
                intrinsic_delay: 2.8,
                load_delay: 0.40,
                area: 4.4,
                switch_energy: 3.6,
            },
            CellKind::Aoi21 => CellParams {
                intrinsic_delay: 1.6,
                load_delay: 0.36,
                area: 1.9,
                switch_energy: 1.8,
            },
            CellKind::Oai21 => CellParams {
                intrinsic_delay: 1.6,
                load_delay: 0.36,
                area: 1.9,
                switch_energy: 1.8,
            },
            CellKind::Tie0 | CellKind::Tie1 => CellParams {
                intrinsic_delay: 0.0,
                load_delay: 0.0,
                area: 0.3,
                switch_energy: 0.0,
            },
        }
    }

    /// Evaluate the cell's logic function on 64 independent input sets at
    /// once: bit `l` of each input word is input lane `l`, and bit `l` of
    /// the result is that lane's output — the bit-parallel form of
    /// [`CellKind::eval`] that [`crate::WideTimingSim`] drives.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `inputs.len() != self.arity()`.
    #[must_use]
    pub fn eval_word(self, inputs: &[u64]) -> u64 {
        debug_assert_eq!(inputs.len(), self.arity(), "arity checked at build");
        match self {
            CellKind::Inv => !inputs[0],
            CellKind::Buf => inputs[0],
            CellKind::Nand2 => !(inputs[0] & inputs[1]),
            CellKind::Nor2 => !(inputs[0] | inputs[1]),
            CellKind::And2 => inputs[0] & inputs[1],
            CellKind::Or2 => inputs[0] | inputs[1],
            CellKind::Xor2 => inputs[0] ^ inputs[1],
            CellKind::Xnor2 => !(inputs[0] ^ inputs[1]),
            CellKind::Nand3 => !(inputs[0] & inputs[1] & inputs[2]),
            CellKind::Nor3 => !(inputs[0] | inputs[1] | inputs[2]),
            CellKind::And3 => inputs[0] & inputs[1] & inputs[2],
            CellKind::Or3 => inputs[0] | inputs[1] | inputs[2],
            CellKind::Mux2 => (inputs[0] & inputs[2]) | (!inputs[0] & inputs[1]),
            CellKind::Maj3 => {
                (inputs[0] & inputs[1]) | (inputs[1] & inputs[2]) | (inputs[0] & inputs[2])
            }
            CellKind::Xor3 => inputs[0] ^ inputs[1] ^ inputs[2],
            CellKind::Aoi21 => !((inputs[0] & inputs[1]) | inputs[2]),
            CellKind::Oai21 => !((inputs[0] | inputs[1]) & inputs[2]),
            CellKind::Tie0 => 0,
            CellKind::Tie1 => !0,
        }
    }

    /// Evaluate the cell's logic function.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.arity()`; netlist construction
    /// guarantees arity, so simulator-internal calls cannot panic.
    #[must_use]
    pub fn eval(self, inputs: &[bool]) -> bool {
        debug_assert_eq!(inputs.len(), self.arity(), "arity checked at build");
        match self {
            CellKind::Inv => !inputs[0],
            CellKind::Buf => inputs[0],
            CellKind::Nand2 => !(inputs[0] && inputs[1]),
            CellKind::Nor2 => !(inputs[0] || inputs[1]),
            CellKind::And2 => inputs[0] && inputs[1],
            CellKind::Or2 => inputs[0] || inputs[1],
            CellKind::Xor2 => inputs[0] ^ inputs[1],
            CellKind::Xnor2 => !(inputs[0] ^ inputs[1]),
            CellKind::Nand3 => !(inputs[0] && inputs[1] && inputs[2]),
            CellKind::Nor3 => !(inputs[0] || inputs[1] || inputs[2]),
            CellKind::And3 => inputs[0] && inputs[1] && inputs[2],
            CellKind::Or3 => inputs[0] || inputs[1] || inputs[2],
            CellKind::Mux2 => {
                if inputs[0] {
                    inputs[2]
                } else {
                    inputs[1]
                }
            }
            // Textbook 2-of-3 majority form, kept as written in logic texts.
            #[allow(clippy::nonminimal_bool)]
            CellKind::Maj3 => {
                (inputs[0] && inputs[1]) || (inputs[1] && inputs[2]) || (inputs[0] && inputs[2])
            }
            CellKind::Xor3 => inputs[0] ^ inputs[1] ^ inputs[2],
            CellKind::Aoi21 => !((inputs[0] && inputs[1]) || inputs[2]),
            CellKind::Oai21 => !((inputs[0] || inputs[1]) && inputs[2]),
            CellKind::Tie0 => false,
            CellKind::Tie1 => true,
        }
    }
}

impl std::fmt::Display for CellKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_matches_logic_function() {
        // Every kind must evaluate without panicking on a vector of its arity.
        for kind in CellKind::ALL {
            let inputs = vec![true; kind.arity()];
            let _ = kind.eval(&inputs);
        }
    }

    #[test]
    fn truth_tables_spot_checks() {
        assert!(!CellKind::Inv.eval(&[true]));
        assert!(CellKind::Nand2.eval(&[true, false]));
        assert!(!CellKind::Nand2.eval(&[true, true]));
        assert!(CellKind::Xor2.eval(&[true, false]));
        assert!(!CellKind::Xor2.eval(&[true, true]));
        // Mux: sel=0 selects a, sel=1 selects b.
        assert!(CellKind::Mux2.eval(&[false, true, false]));
        assert!(!CellKind::Mux2.eval(&[true, true, false]));
        // Majority.
        assert!(CellKind::Maj3.eval(&[true, true, false]));
        assert!(!CellKind::Maj3.eval(&[true, false, false]));
        // AOI21: !((a&b)|c)
        assert!(!CellKind::Aoi21.eval(&[true, true, false]));
        assert!(CellKind::Aoi21.eval(&[true, false, false]));
        // OAI21: !((a|b)&c)
        assert!(!CellKind::Oai21.eval(&[true, false, true]));
        assert!(CellKind::Oai21.eval(&[false, false, true]));
        assert!(!CellKind::Tie0.eval(&[]));
        assert!(CellKind::Tie1.eval(&[]));
    }

    #[test]
    fn xor3_is_parity() {
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    assert_eq!(
                        CellKind::Xor3.eval(&[a, b, c]),
                        a ^ b ^ c,
                        "parity mismatch at {a},{b},{c}"
                    );
                }
            }
        }
    }

    #[test]
    fn eval_word_matches_eval_on_every_truth_table_row() {
        // Pack every truth-table row of a kind into one word, lane per row:
        // lane l's input i is bit i of l. 64 lanes cover all arities (≤ 8
        // rows used; the rest replicate row 0 and must agree too).
        for kind in CellKind::ALL {
            let arity = kind.arity();
            let rows = 1usize << arity;
            let mut words = vec![0u64; arity];
            for lane in 0..64 {
                let row = lane % rows;
                for (i, w) in words.iter_mut().enumerate() {
                    if (row >> i) & 1 == 1 {
                        *w |= 1 << lane;
                    }
                }
            }
            let out = kind.eval_word(&words);
            for lane in 0..64 {
                let row = lane % rows;
                let inputs: Vec<bool> = (0..arity).map(|i| (row >> i) & 1 == 1).collect();
                assert_eq!(
                    (out >> lane) & 1 == 1,
                    kind.eval(&inputs),
                    "{kind}: lane {lane} row {row}"
                );
            }
        }
    }

    #[test]
    fn params_are_physical() {
        for kind in CellKind::ALL {
            let p = kind.params();
            assert!(p.intrinsic_delay >= 0.0, "{kind}: negative delay");
            assert!(p.load_delay >= 0.0, "{kind}: negative load term");
            assert!(p.area > 0.0, "{kind}: non-positive area");
            assert!(p.switch_energy >= 0.0, "{kind}: negative energy");
        }
        // The inverter anchors normalization.
        assert_eq!(CellKind::Inv.params().intrinsic_delay, 1.0);
        assert_eq!(CellKind::Inv.params().area, 1.0);
    }

    #[test]
    fn xor_is_slower_than_nand() {
        // Sanity on relative strengths the delay distributions rely on.
        assert!(CellKind::Xor2.params().intrinsic_delay > CellKind::Nand2.params().intrinsic_delay);
        assert!(CellKind::Maj3.params().intrinsic_delay > CellKind::Nand2.params().intrinsic_delay);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(CellKind::Nand2.to_string(), "NAND2");
        assert_eq!(CellKind::Maj3.to_string(), "MAJ3");
    }
}
