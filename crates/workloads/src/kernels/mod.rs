//! The instrumented kernels, plus shared numeric helpers.
//!
//! All kernels compute in unsigned fixed point on the configured datapath
//! width, using hardware-shaped algorithms (restoring division, bit-serial
//! square root, Newton-free) so the recorded event streams look like what a
//! compiled integer binary would issue.

pub(crate) mod fft;
pub(crate) mod grid;
pub(crate) mod linalg;
pub(crate) mod nbody;
pub(crate) mod render;
pub(crate) mod sort;

use crate::recorder::Recorder;
use crate::types::WorkloadConfig;

/// Where a kernel run gets the recorders of each barrier interval, and
/// where it hands them back as it leaves the interval: the one place
/// that decides what a run keeps and when it sees it. The first
/// `cfg.intervals` intervals (at least one) are handed on. A kernel that
/// records more (radix records every phase of every digit pass) gets
/// counting recorders for the rest, which it hands back to no one.
pub(crate) struct Source<'a> {
    width: usize,
    handed_on: usize,
    left: usize,
    recorders: &'a mut dyn FnMut(usize, usize) -> Vec<Recorder>,
    hand_on: &'a mut dyn FnMut(usize, Vec<Recorder>),
}

impl<'a> Source<'a> {
    /// A source for a run of `cfg`: `recorders(interval, threads)` makes
    /// the recorders of a handed-on interval as the kernel enters it, and
    /// `hand_on(interval, recorders)` gets them back as it leaves.
    pub(crate) fn new(
        cfg: &WorkloadConfig,
        recorders: &'a mut dyn FnMut(usize, usize) -> Vec<Recorder>,
        hand_on: &'a mut dyn FnMut(usize, Vec<Recorder>),
    ) -> Source<'a> {
        Source {
            width: cfg.width,
            handed_on: cfg.intervals.max(1),
            left: 0,
            recorders,
            hand_on,
        }
    }

    /// The recorders of the next interval's `threads` threads.
    pub(crate) fn interval(&mut self, threads: usize) -> Vec<Recorder> {
        if self.left < self.handed_on {
            (self.recorders)(self.left, threads)
        } else {
            (0..threads)
                .map(|_| Recorder::counting(self.width))
                .collect()
        }
    }

    /// Takes back the recorders of the interval the kernel just left.
    pub(crate) fn hand_on(&mut self, recorders: Vec<Recorder>) {
        if self.left < self.handed_on {
            (self.hand_on)(self.left, recorders);
        }
        self.left += 1;
    }
}

/// Fractional bits of the kernels' fixed-point format.
pub(crate) const FRAC: u32 = 6;

/// Deterministic 64-bit PRNG (SplitMix64): one per (thread, interval, salt)
/// stream so kernels are reproducible and threads are decorrelated.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    pub(crate) fn for_stream(cfg: &WorkloadConfig, tid: usize, salt: u64) -> SplitMix64 {
        SplitMix64::new(
            cfg.seed
                ^ (tid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ salt.wrapping_mul(0xBF58_476D_1CE4_E5B9),
        )
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.
    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// Restoring division `num / den` executed bit-serially through the
/// recorder — the sequence an integer divider (or a compiler's soft-div)
/// issues. Returns the quotient; division by zero returns the all-ones
/// value, like Alpha's unsigned division corner case handlers.
pub(crate) fn div_restoring(rec: &mut Recorder, num: u64, den: u64) -> u64 {
    let w = rec.width() as u64;
    if den == 0 {
        return rec.sub(0, 1); // all-ones
    }
    let mut rem: u64 = 0;
    let mut quot: u64 = 0;
    for i in (0..w).rev() {
        let shifted = rec.shr(num, i);
        let bit = rec.and(shifted, 1);
        let doubled = rec.shl(rem, 1);
        rem = rec.or(doubled, bit);
        if !rec.less_than(rem, den) {
            rem = rec.sub(rem, den);
            let mask = rec.shl(1, i);
            quot = rec.or(quot, mask);
        }
    }
    quot
}

/// Barrier spin-wait: a thread that runs out of work in an interval still
/// executes the barrier's spin loop — load the flag, compare, branch —
/// exactly what a blocked SPLASH-2 thread's pipeline sees. The near-
/// constant operands give spinning threads their characteristic near-zero
/// error probability.
pub(crate) fn spin_wait(rec: &mut Recorder, iters: usize, tid: usize) {
    for i in 0..iters {
        let addr = rec.index(0xF000, (tid & 0xF) as u64, 8);
        rec.load(addr);
        let flag = (i & 1) as u64;
        let _ = rec.sltu(flag, 1);
        rec.branch();
    }
}

/// Bit-serial integer square root (the classic hardware algorithm),
/// executed through the recorder.
pub(crate) fn isqrt(rec: &mut Recorder, x: u64) -> u64 {
    let w = rec.width() as u64;
    let mut root: u64 = 0;
    let mut rem = x;
    // Highest even bit position within the width.
    let mut bit: u64 = 1 << (w - 2 + (w % 2));
    while bit != 0 {
        let cand = rec.add(root, bit);
        if !rec.less_than(rem, cand) {
            rem = rec.sub(rem, cand);
            let halved = rec.shr(root, 1);
            root = rec.add(halved, bit);
        } else {
            root = rec.shr(root, 1);
        }
        bit >>= 2;
    }
    root
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_deterministic_and_stream_separated() {
        let cfg = WorkloadConfig::small(4);
        let a1: Vec<u64> = {
            let mut r = SplitMix64::for_stream(&cfg, 0, 1);
            (0..5).map(|_| r.next_u64()).collect()
        };
        let a2: Vec<u64> = {
            let mut r = SplitMix64::for_stream(&cfg, 0, 1);
            (0..5).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::for_stream(&cfg, 1, 1);
            (0..5).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a1, a2, "same stream must repeat");
        assert_ne!(a1, b, "different threads must differ");
    }

    #[test]
    fn restoring_division_is_exact() {
        for (n, d) in [(100u64, 7u64), (65535, 255), (5, 9), (1000, 1), (0, 3)] {
            let mut rec = Recorder::new(16);
            assert_eq!(div_restoring(&mut rec, n, d), n / d, "{n}/{d}");
        }
    }

    #[test]
    fn division_by_zero_saturates() {
        let mut rec = Recorder::new(16);
        assert_eq!(div_restoring(&mut rec, 42, 0), 0xFFFF);
    }

    #[test]
    fn bit_serial_sqrt_is_exact() {
        for x in [0u64, 1, 4, 15, 16, 255, 256, 1023, 65535] {
            let mut rec = Recorder::new(16);
            let r = isqrt(&mut rec, x);
            let expect = (x as f64).sqrt().floor() as u64;
            assert_eq!(r, expect, "isqrt({x})");
        }
    }

    #[test]
    fn division_emits_realistic_event_volume() {
        let mut rec = Recorder::new(16);
        let _ = div_restoring(&mut rec, 54321, 123);
        // Bit-serial over 16 bits: dozens of ALU events, as hardware would.
        assert!(rec.event_count() > 40);
    }
}
