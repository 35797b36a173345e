//! Ocean — red-black Gauss-Seidel relaxation on a regular grid, after the
//! SPLASH-2 ocean simulation.
//!
//! Rows are block-partitioned across threads and the field is smooth, so
//! every thread performs identical stencil work on statistically identical
//! values: the homogeneous control benchmark (Sec 5.4).

use crate::kernels::{Source, SplitMix64};
use crate::types::WorkloadConfig;

pub(crate) fn ocean(cfg: &WorkloadConfig, src: &mut Source) {
    let cols = 64usize;
    let rows_per_thread = (cfg.scale / cols).max(4);
    let rows = rows_per_thread * cfg.threads + 2; // halo rows
    let mut rng = SplitMix64::for_stream(cfg, 0, 0x0CEA);
    // Smooth-ish field: random walk along each row.
    let mut grid: Vec<Vec<u64>> = (0..rows)
        .map(|_| {
            let mut v = 0x8000u64;
            (0..cols)
                .map(|_| {
                    v = (v + rng.below(257)).wrapping_sub(128) & 0xFFFF;
                    v
                })
                .collect()
        })
        .collect();

    for sweep in 0..cfg.intervals {
        let mut recorders = src.interval(cfg.threads);
        // Red-black: phase parity alternates per sweep.
        for color in 0..2usize {
            let snapshot = grid.clone();
            for (tid, rec) in recorders.iter_mut().enumerate() {
                let r0 = 1 + tid * rows_per_thread;
                for r in r0..r0 + rows_per_thread {
                    for c in 1..cols - 1 {
                        if (r + c + sweep) % 2 != color {
                            continue;
                        }
                        let addr = rec.index(0xB000, (r * cols + c) as u64, 8);
                        rec.load(addr);
                        let up = snapshot[r - 1][c];
                        let down = snapshot[r + 1][c];
                        let left = snapshot[r][c - 1];
                        let right = snapshot[r][c + 1];
                        let s1 = rec.add(up, down);
                        let s2 = rec.add(left, right);
                        let s = rec.add(s1, s2);
                        let avg = rec.shr(s, 2);
                        // Over-relaxation: new = old + (avg - old) / 2.
                        let diff = rec.sub(avg, grid[r][c]);
                        let half = rec.shr(diff, 1);
                        grid[r][c] = rec.add(grid[r][c], half);
                        rec.store(addr);
                        rec.branch();
                    }
                }
            }
        }
        src.hand_on(recorders);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Benchmark;

    #[test]
    fn perfectly_balanced_across_threads() {
        let cfg = WorkloadConfig::small(4);
        let ivs = Benchmark::Ocean.run(&cfg).intervals;
        for iv in &ivs {
            let counts: Vec<usize> = iv.iter().map(|w| w.events.len()).collect();
            let max = *counts.iter().max().expect("non-empty");
            let min = *counts.iter().min().expect("non-empty");
            assert!(
                max - min <= max / 10,
                "stencil work must be balanced: {counts:?}"
            );
        }
    }

    #[test]
    fn stencil_op_mix() {
        let cfg = WorkloadConfig::small(2);
        let ivs = Benchmark::Ocean.run(&cfg).intervals;
        use circuits::AluOp;
        let w = ivs[0].thread(0);
        let adds = w.events.iter().filter(|e| e.op == AluOp::Add).count();
        let shrs = w.events.iter().filter(|e| e.op == AluOp::Shr).count();
        assert!(adds > shrs, "adds dominate a stencil");
        assert!(w.events.iter().all(|e| !e.op.is_complex()));
    }

    #[test]
    fn deterministic() {
        let cfg = WorkloadConfig::small(2);
        let a = Benchmark::Ocean.run(&cfg).intervals;
        let b = Benchmark::Ocean.run(&cfg).intervals;
        assert_eq!(a[0].thread(0).events, b[0].thread(0).events);
    }
}
