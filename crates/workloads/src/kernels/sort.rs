//! Radix — parallel least-significant-digit radix sort with global key
//! redistribution between passes, after the SPLASH-2 kernel.
//!
//! SPLASH-2's radix separates the histogram, rank and permutation phases
//! of each digit pass with barriers, so every phase is its own barrier
//! interval here too. The rank interval is where the paper's Fig 3.5
//! heterogeneity lives: thread 0 is the reduction root, accumulating
//! global ranks over running totals while the other threads spin.

use crate::kernels::{Source, SplitMix64};
use crate::types::WorkloadConfig;

/// SPLASH-2's default radix is 1024 (10-bit digits): the global rank
/// reduction over 1024 buckets is a first-class phase, not an epilogue.
const DIGIT_BITS: u64 = 10;
const BUCKETS: usize = 1 << DIGIT_BITS;

pub(crate) fn radix(cfg: &WorkloadConfig, src: &mut Source) {
    radix_impl(cfg, src);
}

/// Implementation that also returns the final key array (used by tests to
/// verify the sort really sorts).
fn radix_impl(cfg: &WorkloadConfig, src: &mut Source) -> Vec<u64> {
    let n_per = cfg.scale;
    let total = n_per * cfg.threads;
    // Skewed keys: squaring a uniform variable concentrates mass at small
    // values while keeping a heavy tail of large keys — the digit buckets
    // (and hence the threads that own them after redistribution) see very
    // different value magnitudes.
    let mask = (1u64 << cfg.width.min(16)) - 1;
    let mut rng = SplitMix64::for_stream(cfg, 0, 0x5047);
    let mut keys: Vec<u64> = (0..total)
        .map(|_| {
            let u = rng.below(mask + 1);
            (u * u) >> cfg.width.min(16)
        })
        .collect();

    // The sort completes in ceil(width / DIGIT_BITS) passes; each pass
    // contributes three barrier intervals (histogram, rank, permute), and
    // like the paper ("3 barrier intervals, or completion") the source
    // hands on only the requested interval count.
    let width = cfg.width.min(16) as u64;
    let passes = width.div_ceil(DIGIT_BITS) as usize;
    for pass in 0..passes {
        let shift = pass as u64 * DIGIT_BITS;
        let mut recorders = src.interval(cfg.threads);

        // Phase 1: local histograms (each thread scans its chunk).
        let mut local_hist = vec![[0u64; BUCKETS]; cfg.threads];
        for (tid, rec) in recorders.iter_mut().enumerate() {
            let lo = tid * n_per;
            for (i, &key) in keys[lo..lo + n_per].iter().enumerate() {
                let addr = rec.index(0x1FEC, (lo + i) as u64, 8);
                rec.load(addr);
                let digit = rec.shr(key, shift);
                let digit = rec.and(digit, (BUCKETS - 1) as u64);
                let count = local_hist[tid][digit as usize];
                local_hist[tid][digit as usize] = rec.add(count, 1);
                let haddr = rec.index(0x3FD4, digit, 8);
                rec.store(haddr);
                rec.less_than((lo + i) as u64, (lo + n_per) as u64);
            }
        }
        src.hand_on(recorders);
        let mut recorders = src.interval(cfg.threads);

        // Phase 2: global rank. As in SPLASH-2's tree reduction, each
        // thread prefix-sums its *local* histogram (small counts), then
        // thread 0 — the reduction root — accumulates the global ranks
        // over running totals that grow towards the full key count. The
        // root's long-carry adds are what make thread 0 the timing-
        // speculation-critical thread for Radix (Fig 3.5).
        let mut rank = vec![[0u64; BUCKETS]; cfg.threads];
        for (tid, rec) in recorders.iter_mut().enumerate() {
            let mut local = 0u64;
            for b in 0..BUCKETS {
                let haddr = rec.index(0x3FD4, (tid * BUCKETS + b) as u64, 8);
                rec.load(haddr);
                local = rec.add(local, local_hist[tid][b]);
                rec.store(haddr);
            }
        }
        {
            let root = &mut recorders[0];
            let mut running = 0u64;
            for b in 0..BUCKETS {
                for t in 0..cfg.threads {
                    rank[t][b] = running;
                    let haddr = root.index(0x3FD4, (t * BUCKETS + b) as u64, 8);
                    root.load(haddr);
                    running = root.add(running, local_hist[t][b]);
                    root.less_than(running, total as u64);
                    let raddr = root.index(0x7FA4, (t * BUCKETS + b) as u64, 8);
                    root.store(raddr);
                }
            }
        }
        // Non-root threads spin at the rank barrier meanwhile.
        for (tid, rec) in recorders.iter_mut().enumerate().skip(1) {
            crate::kernels::spin_wait(rec, BUCKETS * 2, tid);
        }
        src.hand_on(recorders);
        let mut recorders = src.interval(cfg.threads);

        // Phase 3: permute into the destination (the redistribution).
        let mut next = vec![0u64; total];
        for (tid, rec) in recorders.iter_mut().enumerate() {
            let lo = tid * n_per;
            let mut cursor = rank[tid];
            for &key in &keys[lo..lo + n_per] {
                let digit = rec.shr(key, shift);
                let digit = rec.and(digit, (BUCKETS - 1) as u64) as usize;
                let pos = cursor[digit];
                cursor[digit] = rec.add(pos, 1);
                rec.less_than(pos, total as u64);
                let daddr = rec.index(0x5FB8, pos, 8);
                rec.store(daddr);
                next[(pos as usize).min(total - 1)] = key;
            }
        }
        keys = next;
        src.hand_on(recorders);
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use crate::types::Benchmark;
    use circuits::AluOp;

    #[test]
    fn produces_requested_shape() {
        let cfg = WorkloadConfig::small(4);
        let ivs = Benchmark::Radix.run(&cfg).intervals;
        // Each pass is three barrier intervals; the trace is truncated to
        // the configured interval budget (the paper's "3 intervals").
        assert_eq!(ivs.len(), cfg.intervals);
        for iv in &ivs {
            assert_eq!(iv.threads(), 4);
            for w in iv {
                assert!(w.events.len() > cfg.scale, "each thread does real work");
                assert!(w.branches > 0);
                assert!(!w.mem_refs.is_empty());
            }
        }
    }

    #[test]
    fn rank_reduction_root_dominates_thread_zero() {
        let cfg = WorkloadConfig::small(4);
        let ivs = Benchmark::Radix.run(&cfg).intervals;
        // Interval 1 is the rank phase: thread 0 owns the global
        // accumulation while the peers spin at the barrier.
        let rank = &ivs[1];
        assert!(
            rank.thread(0).events.len() > 2 * rank.thread(1).events.len(),
            "root must dominate the rank interval: {} vs {}",
            rank.thread(0).events.len(),
            rank.thread(1).events.len()
        );
    }

    #[test]
    fn is_deterministic() {
        let cfg = WorkloadConfig::small(2);
        let a = Benchmark::Radix.run(&cfg).intervals;
        let b = Benchmark::Radix.run(&cfg).intervals;
        for (ia, ib) in a.iter().zip(&b) {
            for t in 0..ia.threads() {
                assert_eq!(ia.thread(t).events, ib.thread(t).events);
            }
        }
    }

    #[test]
    fn sort_actually_sorts() {
        // Enough LSD passes to cover the full 16-bit key width.
        let mut cfg = WorkloadConfig::small(4);
        cfg.intervals = 6; // both passes' phases
        let keys = radix_impl(
            &cfg,
            &mut Source::new(
                &cfg,
                &mut |_, threads| {
                    (0..threads)
                        .map(|_| Recorder::counting(cfg.width))
                        .collect()
                },
                &mut |_, _| (),
            ),
        );
        for w in keys.windows(2) {
            assert!(w[0] <= w[1], "keys must be sorted after all passes");
        }
        let shr_count = Benchmark::Radix.run(&cfg).intervals[0]
            .thread(0)
            .events
            .iter()
            .filter(|e| e.op == AluOp::Shr)
            .count();
        assert!(shr_count >= cfg.scale, "digit extraction dominates");
    }

    #[test]
    fn uses_no_multiplies() {
        // Radix sort is a SimpleALU workload; the ComplexALU should starve.
        let cfg = WorkloadConfig::small(2);
        let ivs = Benchmark::Radix.run(&cfg).intervals;
        for iv in &ivs {
            for w in iv {
                assert!(w.events.iter().all(|e| !e.op.is_complex()));
            }
        }
    }
}
