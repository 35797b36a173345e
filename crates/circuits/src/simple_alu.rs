//! The SimpleALU pipe stage: add/sub/logic/shift/compare.
//!
//! Input layout: `[op[3], a[W], b[W]]` (opcode binary, operands LSB first).
//! Output layout: `[result[W], carry_out, zero]`.

use gatelib::{CellKind, NetId, Netlist, NetlistBuilder, NetlistError};

use crate::adder::AdderKind;
use crate::ops::{AluEvent, AluOp};
use crate::prims::{onehot_decoder, or_tree};
use crate::shifter::{barrel_shifter, ShiftDirection};
use crate::stage::{put_bits, PipeStage, StageKind};

/// Gate-level simple integer ALU of configurable width and adder topology.
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug, Clone)]
pub struct SimpleAlu {
    width: usize,
    adder: AdderKind,
    netlist: Netlist,
}

impl SimpleAlu {
    /// Builds a SimpleALU with the default (Kogge-Stone) adder.
    ///
    /// Production ALUs use logarithmic-depth adders, which keeps the
    /// *typical* sensitized path a large fraction of the critical path —
    /// the precondition for the smooth error-probability curves the paper
    /// observes (Fig 3.5). The serial topologies remain available through
    /// [`SimpleAlu::with_adder`] for the adder-topology ablation bench.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from netlist construction.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a power of two in `4..=64` (the barrel
    /// shifter requires it).
    pub fn new(width: usize) -> Result<SimpleAlu, NetlistError> {
        SimpleAlu::with_adder(width, AdderKind::KoggeStone)
    }

    /// Builds a SimpleALU with an explicit adder topology (for ablations).
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from netlist construction.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a power of two in `4..=64`.
    pub fn with_adder(width: usize, adder: AdderKind) -> Result<SimpleAlu, NetlistError> {
        assert!(
            width.is_power_of_two() && (4..=64).contains(&width),
            "width must be a power of two in 4..=64"
        );
        let mut b = NetlistBuilder::new(format!("simple_alu{width}"));
        let op = b.input_bus("op", 3);
        let a = b.input_bus("a", width);
        let x = b.input_bus("b", width);

        // One-hot op select: Add,Sub,And,Or,Xor,Shl,Shr,Sltu.
        let dec = onehot_decoder(&mut b, &op)?;
        let (d_add, d_sub, d_and, d_or, d_xor, d_shl, d_shr, d_slt) = (
            dec[0], dec[1], dec[2], dec[3], dec[4], dec[5], dec[6], dec[7],
        );

        // Adder/subtractor: b is conditionally inverted, cin = subtract.
        let subtract = b.cell(CellKind::Or2, &[d_sub, d_slt])?;
        let x_eff: Vec<NetId> = x
            .iter()
            .map(|&xi| b.cell(CellKind::Xor2, &[xi, subtract]))
            .collect::<Result<_, _>>()?;
        let (sum, cout) = adder.build(&mut b, &a, &x_eff, subtract)?;
        // Unsigned a < b  <=>  no carry out of a - b.
        let sltu_bit = b.cell(CellKind::Inv, &[cout])?;

        // Logic words.
        let and_w: Vec<NetId> = a
            .iter()
            .zip(&x)
            .map(|(&ai, &xi)| b.cell(CellKind::And2, &[ai, xi]))
            .collect::<Result<_, _>>()?;
        let or_w: Vec<NetId> = a
            .iter()
            .zip(&x)
            .map(|(&ai, &xi)| b.cell(CellKind::Or2, &[ai, xi]))
            .collect::<Result<_, _>>()?;
        let xor_w: Vec<NetId> = a
            .iter()
            .zip(&x)
            .map(|(&ai, &xi)| b.cell(CellKind::Xor2, &[ai, xi]))
            .collect::<Result<_, _>>()?;

        // Shifter (amount = low log2(W) bits of b).
        let amt = &x[..width.trailing_zeros() as usize];
        let shl = barrel_shifter(&mut b, &a, amt, ShiftDirection::Left)?;
        let shr = barrel_shifter(&mut b, &a, amt, ShiftDirection::Right)?;

        // Result mux: and/or network keyed by the one-hot selects.
        let arith = b.cell(CellKind::Or2, &[d_add, d_sub])?;
        let mut result = Vec::with_capacity(width);
        for i in 0..width {
            let mut terms = vec![
                b.cell(CellKind::And2, &[arith, sum[i]])?,
                b.cell(CellKind::And2, &[d_and, and_w[i]])?,
                b.cell(CellKind::And2, &[d_or, or_w[i]])?,
                b.cell(CellKind::And2, &[d_xor, xor_w[i]])?,
                b.cell(CellKind::And2, &[d_shl, shl[i]])?,
                b.cell(CellKind::And2, &[d_shr, shr[i]])?,
            ];
            if i == 0 {
                terms.push(b.cell(CellKind::And2, &[d_slt, sltu_bit])?);
            }
            result.push(or_tree(&mut b, &terms)?);
        }

        // Flags.
        let any = or_tree(&mut b, &result)?;
        let zero = b.cell(CellKind::Inv, &[any])?;

        b.output_bus(&result, "r");
        b.output(cout, "cout");
        b.output(zero, "zero");
        Ok(SimpleAlu {
            width,
            adder,
            netlist: b.finish()?,
        })
    }

    /// The adder topology in use.
    #[must_use]
    pub fn adder_kind(&self) -> AdderKind {
        self.adder
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

impl PipeStage for SimpleAlu {
    fn kind(&self) -> StageKind {
        StageKind::SimpleAlu
    }

    fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    fn width(&self) -> usize {
        self.width
    }

    fn accepts(&self, op: AluOp) -> bool {
        // The SimpleALU sits on the main operand bypass: every
        // instruction's operands latch at its inputs (no operand
        // isolation), so every event sensitizes paths here.
        let _ = op;
        true
    }

    fn encode_packed(&self, ev: &AluEvent, words: &mut [u64]) {
        // Complex ops never execute here; fall back to Add so the encoding
        // stays total (callers filter with `accepts` first).
        let idx = if ev.op.is_complex() { 0 } else { ev.op.index() };
        words.fill(0);
        put_bits(words, 0, 3, idx as u64);
        put_bits(words, 3, self.width, ev.a);
        put_bits(words, 3 + self.width, self.width, ev.b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatelib::{TimingSim, Voltage};

    const SIMPLE_OPS: [AluOp; 8] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::Sltu,
    ];

    #[test]
    fn matches_reference_semantics_8bit() {
        let alu = SimpleAlu::new(8).expect("build");
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..400 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let op = SIMPLE_OPS[(state >> 60) as usize % 8];
            let a = state & 0xFF;
            let b = (state >> 8) & 0xFF;
            let ev = AluEvent::new(op, a, b);
            let out = alu.netlist().evaluate(&alu.encode(&ev)).expect("ok");
            assert_eq!(alu.result_of(&out), ev.result(8), "{op} {a} {b}");
        }
    }

    #[test]
    fn zero_flag_and_carry() {
        let alu = SimpleAlu::new(8).expect("build");
        // 5 - 5 = 0 sets zero flag; a >= b sets carry on subtract.
        let out = alu
            .netlist()
            .evaluate(&alu.encode(&AluEvent::new(AluOp::Sub, 5, 5)))
            .expect("ok");
        assert!(out[9], "zero flag should be set");
        assert!(out[8], "carry (no borrow) should be set");
        // 3 - 5 borrows: carry clear.
        let out = alu
            .netlist()
            .evaluate(&alu.encode(&AluEvent::new(AluOp::Sub, 3, 5)))
            .expect("ok");
        assert!(!out[8], "borrow should clear carry");
    }

    #[test]
    fn sltu_boundary_cases() {
        let alu = SimpleAlu::new(8).expect("build");
        for (a, b) in [(0u64, 0u64), (0, 1), (1, 0), (255, 255), (254, 255)] {
            let ev = AluEvent::new(AluOp::Sltu, a, b);
            let out = alu.netlist().evaluate(&alu.encode(&ev)).expect("ok");
            assert_eq!(alu.result_of(&out), u64::from(a < b), "{a} < {b}");
        }
    }

    #[test]
    fn all_adder_kinds_agree() {
        let alus: Vec<SimpleAlu> = AdderKind::ALL
            .iter()
            .map(|&k| SimpleAlu::with_adder(8, k).expect("build"))
            .collect();
        let mut state = 0xabcdefu64;
        for _ in 0..200 {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            let op = SIMPLE_OPS[(state >> 59) as usize % 8];
            let ev = AluEvent::new(op, state & 0xFF, (state >> 8) & 0xFF);
            let reference = alus[0].result_of(
                &alus[0]
                    .netlist()
                    .evaluate(&alus[0].encode(&ev))
                    .expect("ok"),
            );
            for alu in &alus[1..] {
                let r = alu.result_of(&alu.netlist().evaluate(&alu.encode(&ev)).expect("ok"));
                assert_eq!(r, reference, "{:?} disagrees on {ev:?}", alu.adder_kind());
            }
        }
    }

    #[test]
    fn add_delay_depends_on_operands() {
        // With the ripple adder, a full-width carry ripple is maximally
        // slower than a 2-bit add — the cleanest demonstration of
        // data-dependent sensitized delay.
        let alu = SimpleAlu::with_adder(16, AdderKind::Ripple).expect("build");
        let mut sim = TimingSim::new(alu.netlist(), Voltage::NOMINAL).expect("sim");
        sim.step(&alu.encode(&AluEvent::new(AluOp::Add, 0, 0)))
            .expect("init");
        let long = sim
            .step(&alu.encode(&AluEvent::new(AluOp::Add, 0xFFFF, 1)))
            .expect("ok");
        sim.step(&alu.encode(&AluEvent::new(AluOp::Add, 0, 0)))
            .expect("reset");
        let short = sim
            .step(&alu.encode(&AluEvent::new(AluOp::Add, 1, 2)))
            .expect("ok");
        assert!(long > short, "long-carry add must be slower");
    }

    #[test]
    fn accepts_every_op_on_the_operand_bus() {
        let alu = SimpleAlu::new(8).expect("build");
        for op in AluOp::ALL {
            assert!(alu.accepts(op), "{op}: no operand isolation here");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_width_panics() {
        let _ = SimpleAlu::new(12);
    }
}
