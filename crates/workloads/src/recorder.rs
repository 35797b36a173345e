//! The instrumentation layer: a [`Recorder`] stands in for one thread's
//! functional units, executing integer operations *and* logging each one as
//! an [`AluEvent`] with its operand values.
//!
//! Kernels compute **through** the recorder, so the trace is the real
//! dynamic operand stream of the algorithm, not a synthetic lookalike.

use circuits::{AluEvent, AluOp};

/// One memory reference (for the cache layer of the CPI model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// Byte address.
    pub addr: u64,
    /// `true` for stores, `false` for loads.
    pub is_store: bool,
}

/// Everything one thread did in one barrier interval.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadWork {
    /// ALU operations with operand values, in program order.
    pub events: Vec<AluEvent>,
    /// Memory references, in program order.
    pub mem_refs: Vec<MemRef>,
    /// Dynamic branch count.
    pub branches: u64,
}

impl ThreadWork {
    /// Total dynamic instruction count: ALU ops + memory ops + branches.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.events.len() as u64 + self.mem_refs.len() as u64 + self.branches
    }
}

/// An instrumented integer datapath for one thread.
///
/// All arithmetic is performed at the configured datapath width (operands
/// and results are masked), mirroring what the gate-level stages will see.
///
/// ```
/// let mut r = workloads::Recorder::new(16);
/// let s = r.add(40_000, 30_000); // wraps at 16 bits
/// assert_eq!(s, (40_000 + 30_000) & 0xFFFF);
/// assert_eq!(r.finish().events.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Recorder {
    width: usize,
    mask: u64,
    work: ThreadWork,
}

impl Recorder {
    /// Creates a recorder for a `width`-bit datapath (1..=64).
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=64`.
    #[must_use]
    pub fn new(width: usize) -> Recorder {
        assert!((1..=64).contains(&width), "width must be in 1..=64");
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        Recorder {
            width,
            mask,
            work: ThreadWork::default(),
        }
    }

    /// The datapath width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of events recorded so far.
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.work.events.len()
    }

    /// Consumes the recorder and returns the accumulated work.
    #[must_use]
    pub fn finish(self) -> ThreadWork {
        self.work
    }

    fn op(&mut self, op: AluOp, a: u64, b: u64) -> u64 {
        let a = a & self.mask;
        let b = b & self.mask;
        self.work.events.push(AluEvent::new(op, a, b));
        op.eval(a, b, self.width)
    }

    /// Wrapping addition.
    pub fn add(&mut self, a: u64, b: u64) -> u64 {
        self.op(AluOp::Add, a, b)
    }

    /// Wrapping subtraction.
    pub fn sub(&mut self, a: u64, b: u64) -> u64 {
        self.op(AluOp::Sub, a, b)
    }

    /// Bitwise AND.
    pub fn and(&mut self, a: u64, b: u64) -> u64 {
        self.op(AluOp::And, a, b)
    }

    /// Bitwise OR.
    pub fn or(&mut self, a: u64, b: u64) -> u64 {
        self.op(AluOp::Or, a, b)
    }

    /// Bitwise XOR.
    pub fn xor(&mut self, a: u64, b: u64) -> u64 {
        self.op(AluOp::Xor, a, b)
    }

    /// Logical shift left by `b mod width`.
    pub fn shl(&mut self, a: u64, b: u64) -> u64 {
        self.op(AluOp::Shl, a, b)
    }

    /// Logical shift right by `b mod width`.
    pub fn shr(&mut self, a: u64, b: u64) -> u64 {
        self.op(AluOp::Shr, a, b)
    }

    /// Unsigned less-than as a 0/1 value.
    pub fn sltu(&mut self, a: u64, b: u64) -> u64 {
        self.op(AluOp::Sltu, a, b)
    }

    /// Unsigned comparison as a boolean (recorded as `sltu` + branch).
    pub fn less_than(&mut self, a: u64, b: u64) -> bool {
        let r = self.sltu(a, b);
        self.branch();
        r == 1
    }

    /// Multiplication, low half.
    pub fn mul(&mut self, a: u64, b: u64) -> u64 {
        self.op(AluOp::Mul, a, b)
    }

    /// Multiplication, high half.
    pub fn mulhi(&mut self, a: u64, b: u64) -> u64 {
        self.op(AluOp::MulHi, a, b)
    }

    /// Fixed-point multiply with `frac` fractional bits:
    /// `(a * b) >> frac`, all at datapath width.
    pub fn fxmul(&mut self, a: u64, b: u64, frac: u32) -> u64 {
        let lo = self.mul(a, b);
        let hi = self.mulhi(a, b);
        // (hi << (width - frac)) | (lo >> frac), recorded as real shifts/or.
        let hi_part = self.shl(hi, (self.width as u64) - u64::from(frac));
        let lo_part = self.shr(lo, u64::from(frac));
        self.or(hi_part, lo_part)
    }

    /// Records a load from `addr` (also records the address computation as
    /// a real add of base + offset when callers use [`Recorder::index`]).
    pub fn load(&mut self, addr: u64) {
        self.work.mem_refs.push(MemRef {
            addr,
            is_store: false,
        });
    }

    /// Records a store to `addr`.
    pub fn store(&mut self, addr: u64) {
        self.work.mem_refs.push(MemRef {
            addr,
            is_store: true,
        });
    }

    /// Address arithmetic for `base[idx]` with `elem` bytes per element:
    /// recorded as a shift + add (what the AGEN datapath does), returns the
    /// byte address.
    pub fn index(&mut self, base: u64, idx: u64, elem: u64) -> u64 {
        let offset = self.shl(idx, elem.trailing_zeros() as u64);
        self.add(base, offset)
    }

    /// Records a conditional-branch instruction.
    pub fn branch(&mut self) {
        self.work.branches += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_is_masked_to_width() {
        let mut r = Recorder::new(8);
        assert_eq!(r.add(250, 10), (250 + 10) & 0xFF);
        assert_eq!(r.mul(20, 20), (20 * 20) & 0xFF);
        assert_eq!(r.sub(0, 1), 0xFF);
    }

    #[test]
    fn every_op_is_recorded_in_order() {
        let mut r = Recorder::new(16);
        r.add(1, 2);
        r.xor(3, 4);
        r.mul(5, 6);
        let w = r.finish();
        assert_eq!(w.events.len(), 3);
        assert_eq!(w.events[0].op, AluOp::Add);
        assert_eq!(w.events[1].op, AluOp::Xor);
        assert_eq!(w.events[2].op, AluOp::Mul);
        assert_eq!(w.events[2].a, 5);
    }

    #[test]
    fn fxmul_matches_reference() {
        // 2.5 * 3.0 in 8.8 fixed point = 7.5.
        let mut r = Recorder::new(16);
        let a = (2 << 8) + 128; // 2.5
        let b = 3 << 8; // 3.0
        let p = r.fxmul(a, b, 8);
        assert_eq!(p, (7 << 8) + 128); // 7.5
                                       // And it produced both multiplier halves as events.
        let w = r.finish();
        assert!(w.events.iter().any(|e| e.op == AluOp::Mul));
        assert!(w.events.iter().any(|e| e.op == AluOp::MulHi));
    }

    #[test]
    fn memory_and_branches_counted() {
        let mut r = Recorder::new(16);
        let addr = r.index(0x1000, 5, 8);
        assert_eq!(addr, 0x1000 + 5 * 8);
        r.load(addr);
        r.store(addr);
        assert!(r.less_than(1, 2));
        let w = r.finish();
        assert_eq!(w.mem_refs.len(), 2);
        assert!(w.mem_refs[1].is_store);
        assert_eq!(w.branches, 1);
        // instructions = 2 (index) + 1 (sltu) + 2 mem + 1 branch
        assert_eq!(w.instructions(), 6);
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=64")]
    fn zero_width_rejected() {
        let _ = Recorder::new(0);
    }
}
