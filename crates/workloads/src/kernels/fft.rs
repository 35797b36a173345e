//! FFT — radix-2 decimation-in-time integer FFT, after the SPLASH-2 kernel.
//!
//! Butterfly work is partitioned uniformly across threads and the input is
//! full-width pseudo-random, so every thread sees the same operand
//! statistics: the per-thread error curves come out **homogeneous**, and —
//! because butterfly operands occupy the full datapath width — sensitized
//! delays sit close to the critical path, making error probabilities high
//! at any speculative clock. Both properties match the paper's reason for
//! excluding FFT from the SynTS result set (Sec 5.4).

use crate::kernels::{Source, SplitMix64, FRAC};
use crate::types::WorkloadConfig;

pub(crate) fn fft(cfg: &WorkloadConfig, src: &mut Source) {
    let n = (cfg.scale * cfg.threads).next_power_of_two().max(16);
    let stages = n.trailing_zeros() as usize;
    let mask = (1u64 << cfg.width.min(16)) - 1;

    // Full-width complex input (wrapped two's-complement representation).
    let mut rng = SplitMix64::for_stream(cfg, 0, 0xFF7);
    let mut re: Vec<u64> = (0..n).map(|_| rng.next_u64() & mask).collect();
    let mut im: Vec<u64> = (0..n).map(|_| rng.next_u64() & mask).collect();

    // Fixed-point twiddle table (quarter-wave cosine, wrapped negatives).
    let twiddle: Vec<(u64, u64)> = (0..n / 2)
        .map(|k| {
            let angle = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
            let scale = f64::from(1u32 << FRAC);
            let c = (angle.cos() * scale).round() as i64;
            let s = (angle.sin() * scale).round() as i64;
            ((c as u64) & mask, (s as u64) & mask)
        })
        .collect();

    // Bit-reverse permutation (address traffic only).
    for i in 0..n {
        let j = (i as u64).reverse_bits() >> (64 - stages);
        if (j as usize) > i {
            re.swap(i, j as usize);
            im.swap(i, j as usize);
        }
    }

    // Group the log2(n) butterfly stages into the requested intervals.
    let stages_per_interval = stages.div_ceil(cfg.intervals);
    for interval in 0..cfg.intervals {
        let mut recorders = src.interval(cfg.threads);
        let s_lo = interval * stages_per_interval;
        let s_hi = ((interval + 1) * stages_per_interval).min(stages);
        for s in s_lo..s_hi {
            let half = 1usize << s;
            let step = half << 1;
            // Butterflies are distributed round-robin over threads.
            let mut butterfly_idx = 0usize;
            for start in (0..n).step_by(step) {
                for k in 0..half {
                    let tid = butterfly_idx % cfg.threads;
                    butterfly_idx += 1;
                    let rec = &mut recorders[tid];
                    let (i, j) = (start + k, start + k + half);
                    let (wr, wi) = twiddle[k * (n / step)];
                    let a0 = rec.index(0x1000, i as u64, 8);
                    rec.load(a0);
                    let a1 = rec.index(0x1000, j as u64, 8);
                    rec.load(a1);
                    // t = w * x[j] (complex multiply: 4 muls, 2 add/sub).
                    let p0 = rec.fxmul(re[j], wr, FRAC);
                    let p1 = rec.fxmul(im[j], wi, FRAC);
                    let p2 = rec.fxmul(re[j], wi, FRAC);
                    let p3 = rec.fxmul(im[j], wr, FRAC);
                    let tr = rec.sub(p0, p1);
                    let ti = rec.add(p2, p3);
                    // Butterfly combine.
                    let new_rj = rec.sub(re[i], tr);
                    let new_ij = rec.sub(im[i], ti);
                    re[i] = rec.add(re[i], tr);
                    im[i] = rec.add(im[i], ti);
                    re[j] = new_rj;
                    im[j] = new_ij;
                    rec.store(a0);
                    rec.store(a1);
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
    fn work_is_balanced_across_threads() {
        let cfg = WorkloadConfig::small(4);
        let ivs = Benchmark::Fft.run(&cfg).intervals;
        for iv in &ivs {
            let counts: Vec<usize> = iv.iter().map(|w| w.events.len()).collect();
            let max = *counts.iter().max().expect("non-empty");
            let min = *counts.iter().min().expect("non-empty").max(&1);
            assert!(
                (max as f64) / (min as f64) < 1.2,
                "butterfly distribution must be near-uniform: {counts:?}"
            );
        }
    }

    #[test]
    fn multiplier_heavy() {
        let cfg = WorkloadConfig::small(2);
        let ivs = Benchmark::Fft.run(&cfg).intervals;
        let muls = ivs[0]
            .thread(0)
            .events
            .iter()
            .filter(|e| e.op.is_complex())
            .count();
        assert!(muls > 100, "FFT should stress the ComplexALU: {muls}");
    }

    #[test]
    fn deterministic() {
        let cfg = WorkloadConfig::small(2);
        let a = Benchmark::Fft.run(&cfg).intervals;
        let b = Benchmark::Fft.run(&cfg).intervals;
        assert_eq!(a[0].thread(0).events, b[0].thread(0).events);
    }
}
