//! The Decode pipe stage: opcode classification, operand-field comparators
//! and grant/priority logic for a 32-bit instruction word.
//!
//! Input layout: one 32-bit instruction word
//! `[imm16 (0..16), rb (16..21), ra (21..26), opcode (26..32)]`.
//!
//! Outputs: unit-class signals, register-dependence hint, immediate
//! summary signals and a 16-line grant vector from a serial priority chain
//! (the chain provides the long, opcode-dependent paths that give decode its
//! spread of sensitized delays).

use gatelib::{CellKind, Netlist, NetlistBuilder, NetlistError};

use crate::ops::{AluEvent, AluOp};
use crate::prims::{eq_comparator, onehot_decoder, or_tree, priority_chain};
use crate::stage::{put_bits, PipeStage, StageKind};

/// Width of the instruction word consumed by the decode stage.
pub const INSTR_BITS: usize = 32;

/// Gate-level instruction decoder stage.
///
/// ```
/// use circuits::{AluEvent, AluOp, DecodeStage, PipeStage};
///
/// # fn main() -> Result<(), gatelib::NetlistError> {
/// let dec = DecodeStage::new()?;
/// let ev = AluEvent::new(AluOp::Add, 7, 9);
/// let out = dec.netlist().evaluate(&dec.encode(&ev))?;
/// assert!(out[0]); // an Add classifies as a simple-ALU instruction
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DecodeStage {
    netlist: Netlist,
}

impl DecodeStage {
    /// Builds the decode stage netlist.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from netlist construction.
    pub fn new() -> Result<DecodeStage, NetlistError> {
        let mut b = NetlistBuilder::new("decode");
        let instr = b.input_bus("instr", INSTR_BITS);
        let imm16 = &instr[0..16];
        let rb = &instr[16..21];
        let ra = &instr[21..26];
        let opcode = &instr[26..32];

        // 4-bit primary opcode -> 16 one-hot lines.
        let lines = onehot_decoder(&mut b, &opcode[..4])?;

        // Unit classes. Opcodes 0..8 = simple ALU, 8..10 = complex ALU,
        // 10 = load, 11 = store, 12 = branch, 13 = jump, 14 = nop,
        // 15 = barrier.
        let is_simple = or_tree(&mut b, &lines[0..8])?;
        let is_complex = b.cell(CellKind::Or2, &[lines[8], lines[9]])?;
        let is_load = lines[10];
        let is_store = lines[11];
        let is_branch = lines[12];
        let is_jump = lines[13];
        let is_nop = lines[14];
        let is_barrier = lines[15];

        // Writeback control.
        let alu_like = b.cell(CellKind::Or2, &[is_simple, is_complex])?;
        let writes_reg = b.cell(CellKind::Or2, &[alu_like, is_load])?;
        // Immediate form flag comes straight from opcode bit 4.
        let uses_imm = opcode[4];

        // Dependence hint: ra == rb means the consumer reads what it writes.
        let same_reg = eq_comparator(&mut b, ra, rb)?;

        // Immediate summaries.
        let imm_nonzero = or_tree(&mut b, imm16)?;
        let imm_sign = imm16[15];

        // Serial grant chain over the one-hot lines, qualified by the
        // "valid" bit (opcode bit 5): the data-dependent long path. As in
        // real arbiters, *exceptional* classes (barrier, nop, jump, branch)
        // get chain priority, so the frequent ALU opcodes sit at the deep
        // end of the chain and sensitize its full length.
        let valid = opcode[5];
        let qualified: Vec<_> = lines
            .iter()
            .rev()
            .map(|&l| b.cell(CellKind::And2, &[l, valid]))
            .collect::<Result<Vec<_>, _>>()?;
        let mut grants = priority_chain(&mut b, &qualified)?;
        grants.reverse(); // back to opcode order

        b.output(is_simple, "is_simple");
        b.output(is_complex, "is_complex");
        b.output(is_load, "is_load");
        b.output(is_store, "is_store");
        b.output(is_branch, "is_branch");
        b.output(is_jump, "is_jump");
        b.output(is_nop, "is_nop");
        b.output(is_barrier, "is_barrier");
        // Leading-one detector over the immediate (the classifier that
        // picks sign-extension/scaling behaviour): a serial priority scan
        // from the MSB whose sensitized depth tracks the *magnitude* of the
        // immediate — small immediates ripple the whole chain. This is the
        // stage's second long data-dependent path.
        let imm_msb_first: Vec<_> = imm16.iter().rev().copied().collect();
        let lead = priority_chain(&mut b, &imm_msb_first)?;

        b.output(writes_reg, "writes_reg");
        b.output(uses_imm, "uses_imm");
        b.output(same_reg, "same_reg");
        b.output(imm_nonzero, "imm_nonzero");
        b.output(imm_sign, "imm_sign");
        b.output_bus(&grants, "grant");
        b.output_bus(&lead, "lead");
        Ok(DecodeStage {
            netlist: b.finish()?,
        })
    }

    /// Synthesizes the 32-bit instruction word the decoder would see for a
    /// dynamic event: opcode from the operation, register fields and
    /// immediate derived from the operand values (compiler-assigned fields
    /// correlate with the data a thread touches; this keeps that
    /// correlation).
    #[must_use]
    pub fn instruction_word(ev: &AluEvent) -> u32 {
        let opcode4 = (ev.op.index() as u32) & 0xF;
        let uses_imm = u32::from(ev.b < (1 << 12));
        let valid = 1u32;
        let opcode = opcode4 | (uses_imm << 4) | (valid << 5);
        let ra = ((ev.a ^ (ev.a >> 5)) & 0x1F) as u32;
        let rb = ((ev.b ^ (ev.b >> 5)) & 0x1F) as u32;
        let imm16 = (ev.b & 0xFFFF) as u32;
        imm16 | (rb << 16) | (ra << 21) | (opcode << 26)
    }
}

impl PipeStage for DecodeStage {
    fn kind(&self) -> StageKind {
        StageKind::Decode
    }

    fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    fn width(&self) -> usize {
        INSTR_BITS
    }

    fn accepts(&self, _op: AluOp) -> bool {
        true // every instruction passes through decode
    }

    fn encode_packed(&self, ev: &AluEvent, words: &mut [u64]) {
        words.fill(0);
        put_bits(
            words,
            0,
            INSTR_BITS,
            u64::from(DecodeStage::instruction_word(ev)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outputs_for(ev: &AluEvent) -> Vec<bool> {
        let dec = DecodeStage::new().expect("build");
        dec.netlist().evaluate(&dec.encode(ev)).expect("ok")
    }

    #[test]
    fn simple_ops_classify_as_simple() {
        for op in [AluOp::Add, AluOp::Sub, AluOp::Xor, AluOp::Sltu] {
            let out = outputs_for(&AluEvent::new(op, 3, 4));
            assert!(out[0], "{op} should be is_simple");
            assert!(!out[1], "{op} should not be is_complex");
            assert!(out[8], "{op} writes a register");
        }
    }

    #[test]
    fn complex_ops_classify_as_complex() {
        for op in [AluOp::Mul, AluOp::MulHi] {
            let out = outputs_for(&AluEvent::new(op, 3, 4));
            assert!(!out[0], "{op} should not be is_simple");
            assert!(out[1], "{op} should be is_complex");
        }
    }

    #[test]
    fn uses_imm_tracks_operand_magnitude() {
        let small = outputs_for(&AluEvent::new(AluOp::Add, 5, 100));
        assert!(small[9], "small second operand implies immediate form");
        let big = outputs_for(&AluEvent::new(AluOp::Add, 5, 1 << 20));
        assert!(!big[9], "large second operand implies register form");
    }

    #[test]
    fn grant_vector_is_onehot_for_valid_instructions() {
        let dec = DecodeStage::new().expect("build");
        for op in AluOp::ALL {
            let out = dec
                .netlist()
                .evaluate(&dec.encode(&AluEvent::new(op, 17, 23)))
                .expect("ok");
            let grants = &out[13..29];
            let count = grants.iter().filter(|&&g| g).count();
            assert_eq!(count, 1, "{op}: exactly one grant line");
            assert!(grants[op.index()], "{op}: grant matches opcode line");
        }
    }

    #[test]
    fn same_reg_hint() {
        // Force ra == rb by giving both operands the same value.
        let out = outputs_for(&AluEvent::new(AluOp::Add, 42, 42));
        assert!(out[10], "identical field hashes must compare equal");
    }

    #[test]
    fn imm_summaries() {
        let out = outputs_for(&AluEvent::new(AluOp::Add, 1, 0));
        assert!(!out[11], "imm_nonzero clear for zero immediate");
        let out = outputs_for(&AluEvent::new(AluOp::Add, 1, 0x8000));
        assert!(out[11], "imm_nonzero set");
        assert!(out[12], "imm_sign set for bit 15");
    }

    #[test]
    fn instruction_word_fields_pack_correctly() {
        let ev = AluEvent::new(AluOp::Sub, 0, 0xFFFF_FFFF);
        let w = DecodeStage::instruction_word(&ev);
        assert_eq!(w & 0xFFFF, 0xFFFF, "imm16 field");
        assert_eq!((w >> 26) & 0xF, 1, "opcode index of Sub");
        assert_eq!((w >> 30) & 1, 0, "large operand clears uses_imm");
        assert_eq!(w >> 31, 1, "valid bit set");
    }
}
