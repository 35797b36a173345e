//! The ComplexALU pipe stage: the array multiplier (low/high half select).
//!
//! Input layout: `[hi_sel, a[W], b[W]]`.
//! Output layout: `[result[W], overflow]` where `overflow` is the OR of the
//! discarded upper product bits in low-half mode.

use gatelib::{CellKind, Netlist, NetlistBuilder, NetlistError};

use crate::multiplier::array_multiplier;
use crate::ops::{AluEvent, AluOp};
use crate::prims::{mux_word, or_tree};
use crate::stage::{put_bits, PipeStage, StageKind};

/// Gate-level multiplier stage of configurable width.
///
/// ```
/// use circuits::{AluEvent, AluOp, ComplexAlu, PipeStage};
///
/// # fn main() -> Result<(), gatelib::NetlistError> {
/// let alu = ComplexAlu::new(8)?;
/// let ev = AluEvent::new(AluOp::Mul, 12, 11);
/// let out = alu.netlist().evaluate(&alu.encode(&ev))?;
/// assert_eq!(alu.result_of(&out), 132);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ComplexAlu {
    width: usize,
    netlist: Netlist,
}

impl ComplexAlu {
    /// Builds a ComplexALU.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from netlist construction.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in `4..=32` (the full product must fit the
    /// 64-bit helper encodings).
    pub fn new(width: usize) -> Result<ComplexAlu, NetlistError> {
        assert!((4..=32).contains(&width), "width must be in 4..=32");
        let mut b = NetlistBuilder::new(format!("complex_alu{width}"));
        let hi_sel = b.input("hi_sel");
        let a = b.input_bus("a", width);
        let x = b.input_bus("b", width);
        let product = array_multiplier(&mut b, &a, &x)?;
        let lo = &product[..width];
        let hi = &product[width..];
        let result = mux_word(&mut b, hi_sel, lo, hi)?;
        // Overflow indicator: any upper bit set (meaningful in low mode).
        let any_hi = or_tree(&mut b, hi)?;
        let not_hi_sel = b.cell(CellKind::Inv, &[hi_sel])?;
        let overflow = b.cell(CellKind::And2, &[any_hi, not_hi_sel])?;
        b.output_bus(&result, "r");
        b.output(overflow, "ovf");
        Ok(ComplexAlu {
            width,
            netlist: b.finish()?,
        })
    }

    /// Decodes the result field from a simulated output vector.
    #[must_use]
    pub fn result_of(&self, outputs: &[bool]) -> u64 {
        outputs
            .iter()
            .take(self.width)
            .enumerate()
            .fold(0u64, |acc, (i, &b)| acc | (u64::from(b)) << i)
    }
}

impl PipeStage for ComplexAlu {
    fn kind(&self) -> StageKind {
        StageKind::ComplexAlu
    }

    fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    fn width(&self) -> usize {
        self.width
    }

    fn accepts(&self, op: AluOp) -> bool {
        // The multiplier is operand-isolated (standard low-power design):
        // its input latches only open for multiply instructions, so only
        // those sensitize paths here.
        op.is_complex()
    }

    fn encode_packed(&self, ev: &AluEvent, words: &mut [u64]) {
        words.fill(0);
        put_bits(words, 0, 1, u64::from(ev.op == AluOp::MulHi));
        put_bits(words, 1, self.width, ev.a);
        put_bits(words, 1 + self.width, self.width, ev.b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_half_matches_reference() {
        let alu = ComplexAlu::new(8).expect("build");
        let mut state = 0x243f6a8885a308d3u64;
        for _ in 0..300 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let ev = AluEvent::new(AluOp::Mul, state & 0xFF, (state >> 8) & 0xFF);
            let out = alu.netlist().evaluate(&alu.encode(&ev)).expect("ok");
            assert_eq!(alu.result_of(&out), ev.result(8), "{} * {}", ev.a, ev.b);
        }
    }

    #[test]
    fn high_half_matches_reference() {
        let alu = ComplexAlu::new(8).expect("build");
        for (a, b) in [(0xFFu64, 0xFFu64), (0x80, 0x80), (13, 200), (1, 1)] {
            let ev = AluEvent::new(AluOp::MulHi, a, b);
            let out = alu.netlist().evaluate(&alu.encode(&ev)).expect("ok");
            assert_eq!(alu.result_of(&out), (a * b) >> 8, "{a} mulhi {b}");
        }
    }

    #[test]
    fn overflow_flag_tracks_upper_bits() {
        let alu = ComplexAlu::new(8).expect("build");
        // 16 * 16 = 256: upper half nonzero, low-mode overflow set.
        let out = alu
            .netlist()
            .evaluate(&alu.encode(&AluEvent::new(AluOp::Mul, 16, 16)))
            .expect("ok");
        assert!(out[8], "overflow expected");
        // 3 * 4 = 12: fits, no overflow.
        let out = alu
            .netlist()
            .evaluate(&alu.encode(&AluEvent::new(AluOp::Mul, 3, 4)))
            .expect("ok");
        assert!(!out[8], "no overflow expected");
    }

    #[test]
    fn accepts_only_complex_ops() {
        let alu = ComplexAlu::new(8).expect("build");
        assert!(alu.accepts(AluOp::Mul));
        assert!(alu.accepts(AluOp::MulHi));
        assert!(!alu.accepts(AluOp::Add));
    }

    #[test]
    fn deeper_than_simple_alu() {
        use gatelib::{StaticTiming, Voltage};
        let complex = ComplexAlu::new(8).expect("build");
        let simple = crate::SimpleAlu::new(8).expect("build");
        let tc = StaticTiming::analyze(complex.netlist(), Voltage::NOMINAL)
            .expect("sta")
            .nominal_period();
        let ts = StaticTiming::analyze(simple.netlist(), Voltage::NOMINAL)
            .expect("sta")
            .nominal_period();
        assert!(tc > ts, "multiplier {tc} should be deeper than ALU {ts}");
    }
}
