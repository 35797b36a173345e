//! The ALU operation vocabulary shared by workloads, stages and the
//! architectural simulator.
//!
//! A dynamic instruction, for timing purposes, is an [`AluEvent`]: an
//! operation plus its two operand values. Workload kernels emit streams of
//! events; stage circuits encode them into input vectors; the timing layer
//! turns consecutive vectors into sensitized delays.

use std::num::NonZeroU32;

/// Integer operations executed by the pipeline's functional units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left by `b mod width`.
    Shl,
    /// Logical shift right by `b mod width`.
    Shr,
    /// Unsigned set-less-than (1 if `a < b`).
    Sltu,
    /// Multiplication, low half of the product.
    Mul,
    /// Multiplication, high half of the product.
    MulHi,
}

impl AluOp {
    /// All operations, in opcode order.
    pub const ALL: [AluOp; 10] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::Sltu,
        AluOp::Mul,
        AluOp::MulHi,
    ];

    /// Opcode index (position in [`AluOp::ALL`]): the declaration order,
    /// which `opcode_indices_are_stable` pins.
    #[inline]
    #[must_use]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Whether the op executes on the ComplexALU (multiplier) rather than
    /// the SimpleALU.
    #[must_use]
    pub const fn is_complex(self) -> bool {
        matches!(self, AluOp::Mul | AluOp::MulHi)
    }

    /// Reference semantics at the given datapath width (1..=64 bits):
    /// the golden model the gate-level stages are tested against.
    /// [`AluOp::apply`] at [`Width::new`]`(width)`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    #[must_use]
    pub fn eval(self, a: u64, b: u64, width: usize) -> u64 {
        self.apply(a, b, Width::new(width))
    }

    /// The result at a checked `width`, the one definition of every op's
    /// result: operands are masked to the width, shift amounts are
    /// `b mod width`, and the result is masked again.
    #[inline]
    #[must_use]
    pub fn apply(self, a: u64, b: u64, width: Width) -> u64 {
        let a = a & width.mask;
        let b = b & width.mask;
        let sh = b as u32 % width.bits;
        let r = match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a << sh,
            AluOp::Shr => a >> sh,
            AluOp::Sltu => u64::from(a < b),
            AluOp::Mul => (a as u128).wrapping_mul(b as u128) as u64,
            AluOp::MulHi => (((a as u128) * (b as u128)) >> width.bits.get()) as u64,
        };
        r & width.mask
    }
}

/// A datapath width checked once: its bit count (1..=64), which is also
/// the modulus of shift amounts, and the mask of those bits. A caller
/// that evaluates many ops at one width builds it once and passes it to
/// [`AluOp::apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Width {
    bits: NonZeroU32,
    mask: u64,
}

impl Width {
    /// The `bits`-bit width.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 64.
    #[must_use]
    pub fn new(bits: usize) -> Width {
        assert!((1..=64).contains(&bits), "width must be in 1..=64");
        Width {
            bits: NonZeroU32::new(bits as u32).expect("checked above"),
            mask: u64::MAX >> (64 - bits),
        }
    }

    /// The bit count.
    #[must_use]
    pub const fn bits(self) -> usize {
        self.bits.get() as usize
    }

    /// The mask of the width's bits, to which operands and results are
    /// reduced.
    #[must_use]
    pub const fn mask(self) -> u64 {
        self.mask
    }
}

impl std::fmt::Display for AluOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Sltu => "sltu",
            AluOp::Mul => "mul",
            AluOp::MulHi => "mulhi",
        };
        f.write_str(s)
    }
}

/// A set of [`AluOp`]s, one bit per [`AluOp::index`]: the operations
/// that reach a stage ([`crate::PipeStage::accepted_ops`]), and so the
/// event stream a sampling recorder numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct OpSet(u16);

impl OpSet {
    /// The operations for which `pred` holds.
    #[must_use]
    pub fn from_fn(mut pred: impl FnMut(AluOp) -> bool) -> OpSet {
        OpSet(
            AluOp::ALL
                .iter()
                .filter(|&&op| pred(op))
                .fold(0, |bits, &op| bits | 1 << op.index()),
        )
    }

    /// Whether `op` is in the set.
    #[inline]
    #[must_use]
    pub const fn contains(self, op: AluOp) -> bool {
        self.0 >> op.index() & 1 == 1
    }
}

/// One dynamic instruction's timing-relevant content: the operation and the
/// operand values it consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AluEvent {
    /// The operation.
    pub op: AluOp,
    /// First operand.
    pub a: u64,
    /// Second operand.
    pub b: u64,
}

impl AluEvent {
    /// Creates an event.
    #[must_use]
    pub fn new(op: AluOp, a: u64, b: u64) -> AluEvent {
        AluEvent { op, a, b }
    }

    /// The reference result at `width` bits (see [`AluOp::eval`]).
    #[must_use]
    pub fn result(&self, width: usize) -> u64 {
        self.op.eval(self.a, self.b, width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_indices_are_stable() {
        for (i, op) in AluOp::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
        }
    }

    #[test]
    fn op_sets_hold_exactly_their_members() {
        let complex = OpSet::from_fn(AluOp::is_complex);
        for op in AluOp::ALL {
            assert_eq!(complex.contains(op), op.is_complex(), "{op}");
            assert!(OpSet::from_fn(|_| true).contains(op));
            assert!(!OpSet::default().contains(op));
        }
    }

    #[test]
    fn complex_classification() {
        assert!(AluOp::Mul.is_complex());
        assert!(AluOp::MulHi.is_complex());
        assert!(!AluOp::Add.is_complex());
        assert!(!AluOp::Shr.is_complex());
    }

    #[test]
    fn reference_semantics_masks_to_width() {
        assert_eq!(AluOp::Add.eval(0xFF, 1, 8), 0);
        assert_eq!(AluOp::Sub.eval(0, 1, 8), 0xFF);
        assert_eq!(AluOp::Shl.eval(1, 9, 8), 2); // shift by 9 mod 8 = 1
        assert_eq!(AluOp::Sltu.eval(3, 5, 8), 1);
        assert_eq!(AluOp::Sltu.eval(5, 3, 8), 0);
    }

    #[test]
    fn shift_amounts_wrap_modulo_every_width() {
        for width in 1..=64usize {
            let w = width as u64;
            let mask = Width::new(width).mask();
            assert_eq!(mask.count_ones() as usize, width);
            for b in [0, 1, w - 1, w, w + 1, 2 * w + 3, 1 << 32 | w, u64::MAX] {
                // The amount is the masked `b`'s low 32 bits mod the width.
                let sh = ((b & mask) as u32) % (width as u32);
                assert_eq!(
                    AluOp::Shl.eval(1, b, width),
                    (1 << sh) & mask,
                    "{b} at {width}"
                );
                assert_eq!(
                    AluOp::Shr.eval(mask, b, width),
                    mask >> sh,
                    "{b} at {width}"
                );
            }
        }
    }

    #[test]
    fn multiplication_high_and_low_halves() {
        // 0xFF * 0xFF = 0xFE01 at 8-bit width.
        assert_eq!(AluOp::Mul.eval(0xFF, 0xFF, 8), 0x01);
        assert_eq!(AluOp::MulHi.eval(0xFF, 0xFF, 8), 0xFE);
        // Full width 64 multiply low half.
        assert_eq!(AluOp::Mul.eval(u64::MAX, 2, 64), u64::MAX - 1);
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=64")]
    fn zero_width_panics() {
        let _ = AluOp::Add.eval(1, 1, 0);
    }

    #[test]
    fn event_result_delegates() {
        let ev = AluEvent::new(AluOp::Xor, 0b1100, 0b1010);
        assert_eq!(ev.result(4), 0b0110);
    }
}
