//! The instrumentation layer: a [`Recorder`] stands in for one thread's
//! functional units, executing integer operations *and* logging each one
//! as an [`AluEvent`] with its operand values.
//!
//! Kernels compute **through** the recorder, so the trace is the real
//! dynamic operand stream of the algorithm, not a synthetic lookalike.

use circuits::{AluEvent, AluOp, OpSet};

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

    /// The per-opcode counts and branch count of this work: what a
    /// sampling run's recorder keeps of it in every case.
    #[must_use]
    pub fn tally(&self) -> Tally {
        let mut tally = Tally {
            branches: self.branches,
            ..Tally::default()
        };
        for ev in &self.events {
            tally.ops[ev.op.index()] += 1;
        }
        tally
    }
}

/// Per-opcode event counts and the branch count of one thread in one
/// barrier interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    ops: [u64; AluOp::ALL.len()],
    branches: u64,
}

impl Tally {
    /// Events of every operation.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// Events whose operation is in `ops`.
    #[must_use]
    pub fn of(&self, ops: OpSet) -> u64 {
        AluOp::ALL
            .iter()
            .filter(|&&op| ops.contains(op))
            .map(|op| self.ops[op.index()])
            .sum()
    }

    /// Dynamic branch count.
    #[must_use]
    pub fn branches(&self) -> u64 {
        self.branches
    }
}

/// Which events of one accepted-op set a sampling run keeps for one
/// (interval, thread). The events whose operation is in `ops` are
/// numbered 0, 1, … in program order. With `stride` 1 the first `count`
/// are kept (a chained walk); with an odd `stride` above 1, numbers
/// `j·stride` and `j·stride + 1` for j = 0, 1, … until `count` are kept
/// (seeded pairs). This is the shape of `timing::Sampling`: a `Keep`
/// built from it takes `stride` and `count` from its `stride()` and
/// `kept()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Keep {
    /// The operations whose events form the numbered stream.
    pub ops: OpSet,
    /// Distance between the first numbers of consecutive pairs (1:
    /// consecutive numbers).
    pub stride: usize,
    /// Events to keep.
    pub count: usize,
}

impl Keep {
    /// The stream number of the `n`th kept event.
    fn number(&self, n: usize) -> usize {
        if self.stride == 1 {
            n
        } else {
            n / 2 * self.stride + n % 2
        }
    }
}

/// A [`Keep`] being applied: the stream number of the next event, and
/// of the next one to keep (`usize::MAX` once `count` are kept).
#[derive(Debug, Clone)]
struct Sampler {
    keep: Keep,
    seen: usize,
    next: usize,
    kept: Vec<AluEvent>,
}

impl Sampler {
    fn new(keep: Keep) -> Sampler {
        let mut sampler = Sampler {
            keep,
            seen: 0,
            next: 0,
            kept: Vec::with_capacity(keep.count),
        };
        sampler.advance();
        sampler
    }

    fn advance(&mut self) {
        let n = self.kept.len();
        self.next = if n < self.keep.count {
            self.keep.number(n)
        } else {
            usize::MAX
        };
    }

    #[inline]
    fn offer(&mut self, ev: AluEvent) {
        if !self.keep.ops.contains(ev.op) {
            return;
        }
        if self.seen == self.next {
            self.kept.push(ev);
            self.advance();
        }
        self.seen += 1;
    }
}

/// What a sampling run kept of one thread's barrier interval: the tally,
/// the memory references and one kept event list per accepted-op set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadSample {
    tally: Tally,
    mem_refs: Vec<MemRef>,
    kept: Vec<(OpSet, Vec<AluEvent>)>,
}

impl ThreadSample {
    /// The per-opcode counts and branch count (always complete).
    #[must_use]
    pub fn tally(&self) -> &Tally {
        &self.tally
    }

    /// Memory references in program order.
    #[must_use]
    pub fn mem_refs(&self) -> &[MemRef] {
        &self.mem_refs
    }

    /// The kept events of the accepted-op set `ops`, in program order
    /// (empty if the thread kept none of that set).
    #[must_use]
    pub fn kept(&self, ops: OpSet) -> &[AluEvent] {
        self.kept
            .iter()
            .find(|(set, _)| *set == ops)
            .map_or(&[], |(_, events)| events)
    }
}

/// An instrumented integer datapath for one thread.
///
/// All arithmetic is performed at the configured datapath width (operands
/// and results are masked), mirroring what the gate-level stages will see.
///
/// What a recorder keeps of the stream depends on the run that made it;
/// the values it computes are the same in every case:
///
/// * [`Recorder::new`] keeps everything: every event, memory reference
///   and branch, the [`ThreadWork`] of [`crate::Benchmark::run`] (the
///   oracle trace).
/// * A recorder of a [counting run](crate::Benchmark::count) keeps only
///   a [`Tally`]: per-opcode counts and the branch count. So does every
///   recorder of an interval a kernel records but no run hands on (radix
///   records more intervals than it returns).
/// * A recorder of a [sampling run](crate::Benchmark::sample) keeps its
///   tally, its memory references and, for each accepted-op set, only
///   the events its thread's [`Keep`] for that set picks.
///
/// [`Recorder::event_count`] counts every event in every case.
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
    tally: Tally,
    /// Every event, when the recorder keeps everything.
    events: Option<Vec<AluEvent>>,
    /// Memory references, unless the recorder only counts.
    mem_refs: Option<Vec<MemRef>>,
    samplers: Vec<Sampler>,
}

impl Recorder {
    /// Creates a recorder for a `width`-bit datapath (1..=64) that keeps
    /// everything.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=64`.
    #[must_use]
    pub fn new(width: usize) -> Recorder {
        let mut rec = Recorder::counting(width);
        rec.events = Some(Vec::new());
        rec.mem_refs = Some(Vec::new());
        rec
    }

    /// A recorder that keeps only its [`Tally`].
    pub(crate) fn counting(width: usize) -> Recorder {
        assert!((1..=64).contains(&width), "width must be in 1..=64");
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        Recorder {
            width,
            mask,
            tally: Tally::default(),
            events: None,
            mem_refs: None,
            samplers: Vec::new(),
        }
    }

    /// A recorder that keeps its tally, its memory references and the
    /// events `keeps` pick.
    pub(crate) fn sampling(width: usize, keeps: &[Keep]) -> Recorder {
        let mut rec = Recorder::counting(width);
        rec.mem_refs = Some(Vec::new());
        rec.samplers = keeps.iter().copied().map(Sampler::new).collect();
        rec
    }

    /// The datapath width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The per-opcode counts and branch count so far, whatever the
    /// recorder keeps.
    pub(crate) fn tally(&self) -> Tally {
        self.tally
    }

    /// Number of events executed so far, whatever the recorder keeps.
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.tally.events() as usize
    }

    /// Consumes the recorder and returns what it kept as [`ThreadWork`]:
    /// everything, for a recorder made by [`Recorder::new`].
    #[must_use]
    pub fn finish(self) -> ThreadWork {
        ThreadWork {
            events: self.events.unwrap_or_default(),
            mem_refs: self.mem_refs.unwrap_or_default(),
            branches: self.tally.branches,
        }
    }

    /// Consumes a sampling run's recorder and returns what it kept.
    pub(crate) fn finish_sample(self) -> ThreadSample {
        ThreadSample {
            tally: self.tally,
            mem_refs: self.mem_refs.unwrap_or_default(),
            kept: self
                .samplers
                .into_iter()
                .map(|s| (s.keep.ops, s.kept))
                .collect(),
        }
    }

    fn op(&mut self, op: AluOp, a: u64, b: u64) -> u64 {
        let a = a & self.mask;
        let b = b & self.mask;
        self.tally.ops[op.index()] += 1;
        if let Some(events) = &mut self.events {
            events.push(AluEvent::new(op, a, b));
        }
        for sampler in &mut self.samplers {
            sampler.offer(AluEvent::new(op, a, b));
        }
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
        self.mem_ref(addr, false);
    }

    /// Records a store to `addr`.
    pub fn store(&mut self, addr: u64) {
        self.mem_ref(addr, true);
    }

    fn mem_ref(&mut self, addr: u64, is_store: bool) {
        if let Some(refs) = &mut self.mem_refs {
            refs.push(MemRef { addr, is_store });
        }
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
        self.tally.branches += 1;
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

    /// Runs the same little program through `rec`.
    fn program(rec: &mut Recorder) {
        for i in 0..10u64 {
            let p = rec.mul(i, 3);
            let s = rec.add(p, i);
            rec.load(s);
            rec.less_than(s, 20);
        }
    }

    #[test]
    fn every_kind_of_recorder_counts_every_event() {
        let mut full = Recorder::new(16);
        let mut counting = Recorder::counting(16);
        program(&mut full);
        program(&mut counting);
        assert_eq!(full.event_count(), 30);
        assert_eq!(counting.event_count(), 30);
        let (full, counted) = (full.finish(), counting.finish_sample());
        assert_eq!(full.tally(), *counted.tally());
        assert_eq!(counted.tally().of(OpSet::from_fn(AluOp::is_complex)), 10);
        assert_eq!(counted.tally().branches(), 10);
        assert!(
            counted.mem_refs().is_empty(),
            "a counting recorder keeps no references"
        );
    }

    #[test]
    fn sampling_recorders_keep_the_numbered_events_of_their_op_sets() {
        let all = OpSet::from_fn(|_| true);
        let muls = OpSet::from_fn(AluOp::is_complex);
        let keeps = [
            Keep {
                ops: all,
                stride: 1,
                count: 4,
            },
            Keep {
                ops: muls,
                stride: 3,
                count: 5,
            },
        ];
        let mut full = Recorder::new(16);
        let mut sampling = Recorder::sampling(16, &keeps);
        program(&mut full);
        program(&mut sampling);
        let (full, sample) = (full.finish(), sampling.finish_sample());
        assert_eq!(sample.kept(all), &full.events[..4]);
        let mul_events: Vec<AluEvent> = full
            .events
            .iter()
            .copied()
            .filter(|e| e.op.is_complex())
            .collect();
        // Seeded pairs one stride apart: numbers 0, 1, 3, 4, 6.
        let expect: Vec<AluEvent> = [0, 1, 3, 4, 6].iter().map(|&k| mul_events[k]).collect();
        assert_eq!(sample.kept(muls), expect.as_slice());
        assert_eq!(sample.mem_refs(), full.mem_refs.as_slice());
        assert!(sample.kept(OpSet::default()).is_empty());
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=64")]
    fn zero_width_rejected() {
        let _ = Recorder::new(0);
    }
}
