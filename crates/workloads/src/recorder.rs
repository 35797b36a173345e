//! The instrumentation layer: a [`Recorder`] stands in for one thread's
//! functional units, executing integer operations *and* logging each one
//! as an [`AluEvent`] with its operand values.
//!
//! Kernels compute **through** the recorder, so the trace is the real
//! dynamic operand stream of the algorithm, not a synthetic lookalike.

use circuits::{AluEvent, AluOp, OpSet, Width};

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
/// `kept()`. A thread keeps at most 64 sets.
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

/// A [`Keep`] being applied: the events of its stream up to and
/// including the next one it keeps (`left`), that event's stream number
/// (`next`) and what it kept. Once it keeps no further event, `left` and
/// `next` are `usize::MAX`.
#[derive(Debug, Clone)]
struct Sampler {
    keep: Keep,
    left: usize,
    next: usize,
    kept: Vec<AluEvent>,
}

impl Sampler {
    fn new(keep: Keep) -> Sampler {
        let mut kept = Vec::new();
        // A planned count never passes its stream's end. A count no
        // allocation can hold (`usize::MAX`) reserves nothing up front,
        // and the list grows as the stream delivers.
        let _ = kept.try_reserve_exact(keep.count);
        // Number 0 is always the first kept.
        let (left, next) = if keep.count > 0 {
            (1, 0)
        } else {
            (usize::MAX, usize::MAX)
        };
        Sampler {
            keep,
            left,
            next,
            kept,
        }
    }

    fn live(&self) -> bool {
        self.next != usize::MAX
    }

    /// Keeps `ev`, the event its countdown stopped on, and counts down to
    /// the next number it keeps: none once `count` are kept, or if that
    /// number is not past this one (a stride of 0 numbers back).
    fn take(&mut self, ev: AluEvent) {
        self.kept.push(ev);
        let n = self.kept.len();
        match (n < self.keep.count).then(|| self.keep.number(n)) {
            Some(next) if next > self.next => {
                self.left = next - self.next;
                self.next = next;
            }
            _ => {
                self.left = usize::MAX;
                self.next = usize::MAX;
            }
        }
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
/// Per event, the inlined hot path masks the operands, bumps the tally,
/// computes the result by [`AluOp::apply`] and counts the event down in
/// the lane of each kept set that holds it: one subtraction from a word
/// of side-by-side countdowns, one lane per set, each running to its
/// set's next pick. Only an event that runs a lane out reaches the
/// out-of-line keep step, so a counting recorder watches nothing, a
/// sampling recorder jumps from pick to pick in each of its sets, and
/// [`Recorder::new`], which keeps every event of its one set, takes the
/// keep step on each.
///
/// ```
/// let mut r = workloads::Recorder::new(16);
/// let s = r.add(40_000, 30_000); // wraps at 16 bits
/// assert_eq!(s, (40_000 + 30_000) & 0xFFFF);
/// assert_eq!(r.finish().events.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Recorder {
    width: Width,
    tally: Tally,
    /// Per opcode, what one of its events takes off `lanes`: the lowest
    /// bit of the lane of each sampler still keeping whose set holds it.
    steps: [u64; AluOp::ALL.len()],
    /// The samplers' countdowns side by side, sampler `i`'s in the `i`th
    /// lane of `lane_bits` bits: the top bit of a lane is its guard,
    /// and the bits below it hold the events its sampler lets pass before
    /// the next keep step. An event that finds a lane at zero borrows its
    /// guard, which stops the borrow there.
    lanes: u64,
    /// The guard bits of all lanes.
    guards: u64,
    /// Bits per lane: 64 over the number of samplers.
    lane_bits: u32,
    /// Memory references, unless the recorder only counts.
    mem_refs: Option<Vec<MemRef>>,
    /// One per kept set; [`Recorder::new`]'s keeps every event.
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
        let every = Keep {
            ops: OpSet::from_fn(|_| true),
            stride: 1,
            count: usize::MAX,
        };
        Recorder::sampling(width, &[every])
    }

    /// A recorder that keeps only its [`Tally`].
    pub(crate) fn counting(width: usize) -> Recorder {
        let mut rec = Recorder::sampling(width, &[]);
        rec.mem_refs = None;
        rec
    }

    /// A recorder that keeps its tally, its memory references and the
    /// events `keeps` pick.
    ///
    /// # Panics
    ///
    /// Panics if `keeps` holds more than 64 sets: a lane needs a bit.
    pub(crate) fn sampling(width: usize, keeps: &[Keep]) -> Recorder {
        assert!(keeps.len() <= 64, "a recorder keeps at most 64 sets");
        let mut rec = Recorder {
            width: Width::new(width),
            tally: Tally::default(),
            steps: [0; AluOp::ALL.len()],
            lanes: 0,
            guards: 0,
            lane_bits: 64 / keeps.len().max(1) as u32,
            mem_refs: Some(Vec::new()),
            samplers: keeps.iter().copied().map(Sampler::new).collect(),
        };
        for i in 0..keeps.len() {
            rec.guards |= rec.guard(i);
            rec.arm(i);
        }
        rec.restep();
        rec
    }

    /// The datapath width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width.bits()
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
    /// everything, for a recorder made by [`Recorder::new`], whose one
    /// kept set keeps every event.
    #[must_use]
    pub fn finish(self) -> ThreadWork {
        ThreadWork {
            events: self
                .samplers
                .into_iter()
                .next()
                .map_or_else(Vec::new, |s| s.kept),
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

    #[inline]
    fn op(&mut self, op: AluOp, a: u64, b: u64) -> u64 {
        let a = a & self.width.mask();
        let b = b & self.width.mask();
        self.tally.ops[op.index()] += 1;
        let step = self.steps[op.index()];
        if step != 0 {
            self.lanes -= step;
            if self.lanes & self.guards != self.guards {
                self.keep(op, a, b);
            }
        }
        op.apply(a, b, self.width)
    }

    /// The keep step, for an event that ran a lane out.
    #[cold]
    #[inline(never)]
    fn keep(&mut self, op: AluOp, a: u64, b: u64) {
        let ev = AluEvent::new(op, a, b);
        let mut ended = false;
        for i in 0..self.samplers.len() {
            if self.lanes & self.guard(i) != 0 {
                continue;
            }
            // The lane counted the sampler's events up to its pick, or as
            // many as a lane reaches.
            let reach = self.reach();
            let sampler = &mut self.samplers[i];
            sampler.left = sampler.left.saturating_sub(reach);
            if sampler.left == 0 {
                sampler.take(ev);
                ended |= !sampler.live();
            }
            self.arm(i);
        }
        if ended {
            self.restep();
        }
    }

    /// The most events a lane counts to the keep step: one more than the
    /// bits below its guard hold.
    fn reach(&self) -> usize {
        1 << (self.lane_bits - 1)
    }

    /// The guard bit of sampler `i`'s lane.
    fn guard(&self, i: usize) -> u64 {
        1 << ((i as u32 + 1) * self.lane_bits - 1)
    }

    /// Sets sampler `i`'s lane to run out on its next pick, or as far on
    /// as a lane reaches.
    fn arm(&mut self, i: usize) {
        let shift = i as u32 * self.lane_bits;
        let reach = self.samplers[i].left.min(self.reach());
        let guard = self.guard(i);
        let lane = (guard | (guard - 1)) & u64::MAX << shift;
        self.lanes = self.lanes & !lane | guard | (reach as u64 - 1) << shift;
    }

    /// Counts each op down in the lanes of the samplers still keeping
    /// whose sets hold it.
    fn restep(&mut self) {
        for op in AluOp::ALL {
            self.steps[op.index()] = (0..self.samplers.len())
                .filter(|&i| self.samplers[i].live() && self.samplers[i].keep.ops.contains(op))
                .map(|i| 1 << (i as u32 * self.lane_bits))
                .sum();
        }
    }

    /// Wrapping addition.
    #[inline]
    pub fn add(&mut self, a: u64, b: u64) -> u64 {
        self.op(AluOp::Add, a, b)
    }

    /// Wrapping subtraction.
    #[inline]
    pub fn sub(&mut self, a: u64, b: u64) -> u64 {
        self.op(AluOp::Sub, a, b)
    }

    /// Bitwise AND.
    #[inline]
    pub fn and(&mut self, a: u64, b: u64) -> u64 {
        self.op(AluOp::And, a, b)
    }

    /// Bitwise OR.
    #[inline]
    pub fn or(&mut self, a: u64, b: u64) -> u64 {
        self.op(AluOp::Or, a, b)
    }

    /// Bitwise XOR.
    #[inline]
    pub fn xor(&mut self, a: u64, b: u64) -> u64 {
        self.op(AluOp::Xor, a, b)
    }

    /// Logical shift left by `b mod width`.
    #[inline]
    pub fn shl(&mut self, a: u64, b: u64) -> u64 {
        self.op(AluOp::Shl, a, b)
    }

    /// Logical shift right by `b mod width`.
    #[inline]
    pub fn shr(&mut self, a: u64, b: u64) -> u64 {
        self.op(AluOp::Shr, a, b)
    }

    /// Unsigned less-than as a 0/1 value.
    #[inline]
    pub fn sltu(&mut self, a: u64, b: u64) -> u64 {
        self.op(AluOp::Sltu, a, b)
    }

    /// Unsigned comparison as a boolean (recorded as `sltu` + branch).
    #[inline]
    pub fn less_than(&mut self, a: u64, b: u64) -> bool {
        let r = self.sltu(a, b);
        self.branch();
        r == 1
    }

    /// Multiplication, low half.
    #[inline]
    pub fn mul(&mut self, a: u64, b: u64) -> u64 {
        self.op(AluOp::Mul, a, b)
    }

    /// Multiplication, high half.
    #[inline]
    pub fn mulhi(&mut self, a: u64, b: u64) -> u64 {
        self.op(AluOp::MulHi, a, b)
    }

    /// Fixed-point multiply with `frac` fractional bits:
    /// `(a * b) >> frac`, all at datapath width.
    #[inline(always)]
    pub fn fxmul(&mut self, a: u64, b: u64, frac: u32) -> u64 {
        let lo = self.mul(a, b);
        let hi = self.mulhi(a, b);
        // (hi << (width - frac)) | (lo >> frac), recorded as real shifts/or.
        let hi_part = self.shl(hi, (self.width() as u64) - u64::from(frac));
        let lo_part = self.shr(lo, u64::from(frac));
        self.or(hi_part, lo_part)
    }

    /// Records a load from `addr` (also records the address computation as
    /// a real add of base + offset when callers use [`Recorder::index`]).
    #[inline]
    pub fn load(&mut self, addr: u64) {
        self.mem_ref(addr, false);
    }

    /// Records a store to `addr`.
    #[inline]
    pub fn store(&mut self, addr: u64) {
        self.mem_ref(addr, true);
    }

    #[inline]
    fn mem_ref(&mut self, addr: u64, is_store: bool) {
        if let Some(refs) = &mut self.mem_refs {
            refs.push(MemRef { addr, is_store });
        }
    }

    /// Address arithmetic for `base[idx]` with `elem` bytes per element:
    /// recorded as a shift + add (what the AGEN datapath does), returns the
    /// byte address.
    #[inline]
    pub fn index(&mut self, base: u64, idx: u64, elem: u64) -> u64 {
        let offset = self.shl(idx, elem.trailing_zeros() as u64);
        self.add(base, offset)
    }

    /// Records a conditional-branch instruction.
    #[inline]
    pub fn branch(&mut self) {
        self.tally.branches += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::SplitMix64;

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

    /// Applies `op` through its recorder method.
    fn through(rec: &mut Recorder, op: AluOp, a: u64, b: u64) -> u64 {
        match op {
            AluOp::Add => rec.add(a, b),
            AluOp::Sub => rec.sub(a, b),
            AluOp::And => rec.and(a, b),
            AluOp::Or => rec.or(a, b),
            AluOp::Xor => rec.xor(a, b),
            AluOp::Shl => rec.shl(a, b),
            AluOp::Shr => rec.shr(a, b),
            AluOp::Sltu => rec.sltu(a, b),
            AluOp::Mul => rec.mul(a, b),
            AluOp::MulHi => rec.mulhi(a, b),
            _ => unreachable!("{op} has no recorder method"),
        }
    }

    #[test]
    fn every_recorder_computes_what_eval_does_at_every_width() {
        let all = OpSet::from_fn(|_| true);
        let complex = OpSet::from_fn(AluOp::is_complex);
        let simple = OpSet::from_fn(|op| !op.is_complex());
        let mut rng = SplitMix64::new(0x00AD_D5EE_D000);
        for width in 1..=64 {
            let mask = Width::new(width).mask();
            let w = width as u64;
            // Edge operands: the mask's neighbours, values above it, shift
            // amounts at and above the width (also past 32 bits, which
            // the shift rule truncates), and every bit set.
            let mut operands = vec![
                0,
                1,
                mask - 1,
                mask,
                mask.wrapping_add(1),
                mask << 1 | 1,
                w - 1,
                w,
                w + 1,
                2 * w,
                1 << 32 | w,
                u64::MAX,
            ];
            operands.extend((0..8).map(|_| rng.next_u64()));
            operands.extend((0..4).map(|_| rng.next_u64() & mask));
            let mut recorders = [
                Recorder::counting(width),
                Recorder::sampling(
                    width,
                    &[Keep {
                        ops: all,
                        stride: 3,
                        count: usize::MAX,
                    }],
                ),
                Recorder::sampling(
                    width,
                    &[
                        Keep {
                            ops: simple,
                            stride: 1,
                            count: 7,
                        },
                        Keep {
                            ops: complex,
                            stride: 5,
                            count: usize::MAX,
                        },
                    ],
                ),
                Recorder::new(width),
            ];
            let mut expect = Vec::new();
            for op in AluOp::ALL {
                for &a in &operands {
                    for &b in &operands {
                        let result = op.eval(a, b, width);
                        for rec in &mut recorders {
                            assert_eq!(through(rec, op, a, b), result, "{op} {a} {b} at {width}");
                        }
                        expect.push(AluEvent::new(op, a & mask, b & mask));
                    }
                }
            }
            let [counting, one_set, two_sets, full] = recorders;
            let tally = full.tally();
            for rec in [&counting, &one_set, &two_sets] {
                assert_eq!(rec.tally(), tally, "width {width}");
            }
            assert_eq!(full.finish().events, expect, "width {width}");
        }
    }

    /// Runs a seeded program of `len` random ops over `ops` through every
    /// recorder of `recs`, with loads and branches between them.
    fn random_program(recs: &mut [&mut Recorder], seed: u64, ops: &[AluOp], len: usize) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..len {
            let op = ops[rng.below(ops.len() as u64) as usize];
            let (a, b) = (rng.next_u64(), rng.next_u64());
            let touch = rng.below(4);
            for rec in recs.iter_mut() {
                through(rec, op, a, b);
                match touch {
                    0 => rec.load(a),
                    1 => rec.branch(),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn sampling_recorders_keep_the_numbered_events_of_their_op_sets() {
        let mut rng = SplitMix64::new(0x5A3B_1E5E_ED00);
        for case in 0..300 {
            // Each program leaves out one op, so one set below is one it
            // never issues.
            let absent = AluOp::ALL[rng.below(AluOp::ALL.len() as u64) as usize];
            let issued: Vec<AluOp> = AluOp::ALL.into_iter().filter(|&op| op != absent).collect();
            let len = rng.below(400) as usize;
            let seed = rng.next_u64();
            let mut full = Recorder::new(16);
            random_program(&mut [&mut full], seed, &issued, len);
            let full = full.finish();
            // Disjoint sets (a set and its complement), overlapping ones
            // (a set and all ops), and the absent op's.
            let bits = rng.next_u64();
            let set = OpSet::from_fn(|op| bits >> op.index() & 1 == 1);
            let unset = OpSet::from_fn(|op| !set.contains(op));
            // Up to 64 sets narrow the lanes to one bit, below the
            // distance between picks.
            let many = (0..4 + rng.below(61))
                .map(|_| {
                    let bits = rng.next_u64();
                    OpSet::from_fn(|op| bits >> op.index() & 1 == 1)
                })
                .collect();
            let choices = [
                vec![set],
                vec![set, unset],
                vec![set, OpSet::from_fn(|_| true)],
                vec![OpSet::from_fn(|op| op == absent), unset, set],
                many,
            ];
            // A thread sample holds one kept list per distinct set.
            let mut sets = Vec::new();
            for &ops in &choices[case % choices.len()] {
                if !sets.contains(&ops) {
                    sets.push(ops);
                }
            }
            let keeps: Vec<Keep> = sets
                .iter()
                .map(|&ops| {
                    let stream = full.events.iter().filter(|e| ops.contains(e.op)).count();
                    let stride = match rng.below(3) {
                        0 => 1,
                        _ => (rng.below(8) * 2 + 3) as usize,
                    };
                    let count = match rng.below(5) {
                        0 => 0,
                        1 => 1,
                        2 => stream,
                        3 => stream + 1 + rng.below(9) as usize,
                        _ => usize::MAX,
                    };
                    Keep { ops, stride, count }
                })
                .collect();
            let mut sampling = Recorder::sampling(16, &keeps);
            random_program(&mut [&mut sampling], seed, &issued, len);
            let sample = sampling.finish_sample();
            assert_eq!(*sample.tally(), full.tally(), "case {case}");
            assert_eq!(sample.mem_refs(), full.mem_refs.as_slice(), "case {case}");
            for keep in &keeps {
                // Numbers j·stride and j·stride + 1 (every number at
                // stride 1), the first `count` of them.
                let expect: Vec<AluEvent> = full
                    .events
                    .iter()
                    .filter(|e| keep.ops.contains(e.op))
                    .enumerate()
                    .filter(|(k, _)| k % keep.stride < 2)
                    .map(|(_, &e)| e)
                    .take(keep.count)
                    .collect();
                assert_eq!(
                    sample.kept(keep.ops),
                    expect.as_slice(),
                    "case {case}: {keep:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "a recorder keeps at most 64 sets")]
    fn a_65th_kept_set_is_refused() {
        let keep = Keep {
            ops: OpSet::default(),
            stride: 1,
            count: 1,
        };
        let _ = Recorder::sampling(16, &[keep; 65]);
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=64")]
    fn zero_width_rejected() {
        let _ = Recorder::new(0);
    }
}
