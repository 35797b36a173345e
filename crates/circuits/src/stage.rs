//! The [`PipeStage`] abstraction: a stage circuit plus its event encoding.

use gatelib::{Netlist, NetlistError};

use crate::complex_alu::ComplexAlu;
use crate::decode::DecodeStage;
use crate::ops::{AluEvent, AluOp, OpSet};
use crate::simple_alu::SimpleAlu;

/// The three pipeline stages the paper characterizes (Sec 5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StageKind {
    /// Instruction decode.
    Decode,
    /// Simple integer ALU (add/sub/logic/shift/compare).
    SimpleAlu,
    /// Complex integer ALU (multiplier).
    ComplexAlu,
}

impl StageKind {
    /// All stages, in the paper's reporting order.
    pub const ALL: [StageKind; 3] = [
        StageKind::Decode,
        StageKind::SimpleAlu,
        StageKind::ComplexAlu,
    ];

    /// Canonical lowercase name, as used in scenario specs and CLIs.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            StageKind::Decode => "decode",
            StageKind::SimpleAlu => "simple-alu",
            StageKind::ComplexAlu => "complex-alu",
        }
    }

    /// Parses a stage from its name, case-insensitively and ignoring
    /// `-`/`_` separators (`"simple-alu"`, `"SimpleALU"`, `"simple_alu"`
    /// all resolve to [`StageKind::SimpleAlu`]) — forgiving enough for
    /// CLI arguments and hand-written spec files.
    #[must_use]
    pub fn from_name(name: &str) -> Option<StageKind> {
        let norm: String = name
            .trim()
            .chars()
            .filter(|c| !matches!(c, '-' | '_'))
            .map(|c| c.to_ascii_lowercase())
            .collect();
        match norm.as_str() {
            "decode" => Some(StageKind::Decode),
            "simplealu" => Some(StageKind::SimpleAlu),
            "complexalu" => Some(StageKind::ComplexAlu),
            _ => None,
        }
    }
}

impl std::fmt::Display for StageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            StageKind::Decode => "Decode",
            StageKind::SimpleAlu => "SimpleALU",
            StageKind::ComplexAlu => "ComplexALU",
        };
        f.write_str(s)
    }
}

/// A pipeline stage circuit: netlist plus the mapping from dynamic
/// instructions ([`AluEvent`]s) to input vectors.
///
/// Each stage has one encoder, [`PipeStage::encode_packed`], which packs
/// an event's input vector into 64-bit words: 64 lanes of those words
/// transpose straight into the per-input words of
/// [`gatelib::WideTimingSim`] ([`gatelib::transpose_lanes`]). The
/// `Vec<bool>` forms the scalar [`gatelib::TimingSim`] takes,
/// [`PipeStage::encode`] and [`PipeStage::encode_into`], are derived from
/// it.
///
/// Implementors are [`SimpleAlu`], [`ComplexAlu`] and [`DecodeStage`];
/// [`build_stage`] constructs them uniformly.
pub trait PipeStage: Send + Sync {
    /// Which stage this is.
    fn kind(&self) -> StageKind;

    /// The gate-level netlist.
    fn netlist(&self) -> &Netlist;

    /// Datapath width in bits (instruction width for decode).
    fn width(&self) -> usize;

    /// Whether instructions with this operation exercise the stage's
    /// timing-critical logic (e.g. only multiplies stress the ComplexALU).
    fn accepts(&self, op: AluOp) -> bool;

    /// Every operation the stage [accepts](PipeStage::accepts), as one set.
    fn accepted_ops(&self) -> OpSet {
        OpSet::from_fn(|op| self.accepts(op))
    }

    /// Encodes an event into the stage's primary-input vector, packed:
    /// input `k` is bit `k % 64` of `words[k / 64]`. `words` holds
    /// [`PipeStage::packed_words`] words; they are overwritten, and bits
    /// past the last input are zero.
    fn encode_packed(&self, ev: &AluEvent, words: &mut [u64]);

    /// Words per packed input vector: ⌈inputs / 64⌉.
    fn packed_words(&self) -> usize {
        self.netlist().primary_inputs().len().div_ceil(64)
    }

    /// Encodes an event into the stage's primary-input vector, one `bool`
    /// per input.
    fn encode(&self, ev: &AluEvent) -> Vec<bool> {
        let mut buf = Vec::new();
        self.encode_into(ev, &mut buf);
        buf
    }

    /// Encodes an event into a reused buffer (cleared first): the unpacked
    /// form of [`PipeStage::encode_packed`] that the scalar simulator
    /// takes.
    fn encode_into(&self, ev: &AluEvent, buf: &mut Vec<bool>) {
        let mut words = vec![0u64; self.packed_words()];
        self.encode_packed(ev, &mut words);
        let inputs = self.netlist().primary_inputs().len();
        buf.clear();
        buf.extend((0..inputs).map(|k| words[k / 64] >> (k % 64) & 1 == 1));
    }

    /// Convenience: the stage's display name.
    fn name(&self) -> String {
        self.kind().to_string()
    }
}

/// ORs the low `len` bits of `value` (`len` ≤ 64) into `words` at bit
/// offset `at`, in the packed layout of [`PipeStage::encode_packed`]:
/// bit `k` is bit `k % 64` of `words[k / 64]`.
///
/// # Panics
///
/// Panics if the field runs past the end of `words`.
pub(crate) fn put_bits(words: &mut [u64], at: usize, len: usize, value: u64) {
    if len == 0 {
        return;
    }
    let value = if len >= 64 {
        value
    } else {
        value & ((1u64 << len) - 1)
    };
    let (word, shift) = (at / 64, at % 64);
    words[word] |= value << shift;
    if shift + len > 64 {
        words[word + 1] |= value >> (64 - shift);
    }
}

/// Builds the given stage at the given datapath width.
///
/// The decode stage ignores `width` (its input is the 32-bit instruction
/// word).
///
/// # Errors
///
/// Propagates [`NetlistError`] from netlist construction.
///
/// # Panics
///
/// Panics on invalid widths; see [`SimpleAlu::new`] and [`ComplexAlu::new`].
pub fn build_stage(kind: StageKind, width: usize) -> Result<Box<dyn PipeStage>, NetlistError> {
    Ok(match kind {
        StageKind::Decode => Box::new(DecodeStage::new()?),
        StageKind::SimpleAlu => Box::new(SimpleAlu::new(width)?),
        StageKind::ComplexAlu => Box::new(ComplexAlu::new(width)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_all_stages() {
        for kind in StageKind::ALL {
            let stage = build_stage(kind, 8).expect("build");
            assert_eq!(stage.kind(), kind);
            assert!(stage.netlist().cell_count() > 10);
            // Encoding must match the netlist input width.
            let ev = AluEvent::new(AluOp::Add, 1, 2);
            assert_eq!(
                stage.encode(&ev).len(),
                stage.netlist().primary_inputs().len(),
                "{kind}: encode width"
            );
        }
    }

    #[test]
    fn put_bits_places_fields_across_word_boundaries() {
        let mut words = [0u64; 3];
        put_bits(&mut words, 60, 8, 0xFFF); // only the low 8 bits land
        assert_eq!(words, [0xF << 60, 0xF, 0]);
        put_bits(&mut words, 64, 64, u64::MAX);
        assert_eq!(words[1], u64::MAX);
        put_bits(&mut words, 128, 0, u64::MAX);
        assert_eq!(words[2], 0);
    }

    #[test]
    fn stage_names() {
        assert_eq!(StageKind::Decode.to_string(), "Decode");
        assert_eq!(StageKind::SimpleAlu.to_string(), "SimpleALU");
        assert_eq!(StageKind::ComplexAlu.to_string(), "ComplexALU");
    }

    #[test]
    fn acceptance_model() {
        let simple = build_stage(StageKind::SimpleAlu, 8).expect("build");
        let complex = build_stage(StageKind::ComplexAlu, 8).expect("build");
        let decode = build_stage(StageKind::Decode, 8).expect("build");
        for op in AluOp::ALL {
            // Decode and the SimpleALU operand bus see everything; the
            // multiplier is operand-isolated and sees only multiplies.
            assert!(decode.accepts(op));
            assert!(simple.accepts(op));
            assert_eq!(complex.accepts(op), op.is_complex(), "{op}");
        }
    }
}
