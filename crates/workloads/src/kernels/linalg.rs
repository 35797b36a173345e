//! LU-contig / LU-ncontig / Cholesky — dense factorizations with
//! column-ownership parallelism, after the SPLASH-2 kernels.
//!
//! Each barrier interval covers a batch of elimination steps. The owner of
//! pivot column `k` runs the divisions (bit-serial restoring divider — the
//! long, value-dependent op streams); everyone updates the trailing blocks
//! they own. **Contiguous** ownership (thread = `k / (n/T)`) concentrates
//! pivot work on low-numbered threads in early intervals — the thread-
//! criticality the paper reports; **non-contiguous** (round-robin
//! `k mod T`) spreads it, changing the heterogeneity pattern between the
//! two LU variants exactly as SPLASH-2's two layouts do.

use crate::kernels::{div_restoring, isqrt, spin_wait, Source, SplitMix64, FRAC};
use crate::types::WorkloadConfig;

/// Problem size: matrix dimension derived from the scale knob.
fn matrix_dim(cfg: &WorkloadConfig) -> usize {
    let target = ((cfg.scale * cfg.threads) as f64).sqrt() as usize;
    let n = target.clamp(4 * cfg.threads, 64);
    // Round to a multiple of the thread count for clean ownership maps.
    n - n % cfg.threads
}

/// Generates a diagonally dominant fixed-point matrix (values stay inside
/// the datapath width through the factorization).
fn make_matrix(cfg: &WorkloadConfig, n: usize, salt: u64) -> Vec<Vec<u64>> {
    let mut rng = SplitMix64::for_stream(cfg, 0, salt);
    (0..n)
        .map(|i| {
            (0..n)
                .map(|j| {
                    if i == j {
                        512 + rng.below(256)
                    } else {
                        rng.below(48)
                    }
                })
                .collect()
        })
        .collect()
}

fn column_owner(contiguous: bool, k: usize, n: usize, threads: usize) -> usize {
    if contiguous {
        (k * threads / n).min(threads - 1)
    } else {
        k % threads
    }
}

pub(crate) fn lu(cfg: &WorkloadConfig, src: &mut Source, contiguous: bool) {
    let n = matrix_dim(cfg);
    let mut a = make_matrix(cfg, n, 0x4C55);
    let steps_per_interval = (n / cfg.intervals).clamp(1, 10);

    for interval in 0..cfg.intervals {
        let mut recorders = src.interval(cfg.threads);
        let k_lo = interval * steps_per_interval;
        let k_hi = ((interval + 1) * steps_per_interval).min(n.saturating_sub(1));
        for k in k_lo..k_hi {
            let owner = column_owner(contiguous, k, n, cfg.threads);
            // Owner computes the multiplier column l[i] = a[i][k] / a[k][k].
            let mut l = vec![0u64; n];
            {
                let rec = &mut recorders[owner];
                let pivot = a[k][k].max(1);
                for (i, li) in l.iter_mut().enumerate().skip(k + 1) {
                    let addr = rec.index(0x8000, (i * n + k) as u64, 8);
                    rec.load(addr);
                    let num = rec.shl(a[i][k], u64::from(FRAC));
                    *li = div_restoring(rec, num, pivot);
                    rec.store(addr);
                }
            }
            // Everyone updates the trailing columns they own.
            for j in (k + 1)..n {
                let upd_owner = column_owner(contiguous, j, n, cfg.threads);
                let rec = &mut recorders[upd_owner];
                let ukj = a[k][j];
                for (i, &li) in l.iter().enumerate().skip(k + 1) {
                    let prod = rec.fxmul(li, ukj, FRAC);
                    let addr = rec.index(0x8000, (i * n + j) as u64, 8);
                    rec.load(addr);
                    a[i][j] = rec.sub(a[i][j], prod);
                    rec.store(addr);
                }
                rec.branch();
            }
            for (i, &li) in l.iter().enumerate().skip(k + 1) {
                a[i][k] = li;
            }
        }
        for (tid, rec) in recorders.iter_mut().enumerate() {
            if rec.event_count() < 32 {
                spin_wait(rec, 96, tid);
            }
        }
        src.hand_on(recorders);
    }
}

pub(crate) fn cholesky(cfg: &WorkloadConfig, src: &mut Source) {
    let n = matrix_dim(cfg);
    // Symmetric positive-definite-ish: diagonally dominant symmetric.
    let mut a = make_matrix(cfg, n, 0x4348);
    for i in 0..n {
        for j in 0..i {
            let v = (a[i][j] + a[j][i]) / 2;
            a[i][j] = v;
            a[j][i] = v;
        }
    }
    let steps_per_interval = (n / cfg.intervals).clamp(1, 10);

    for interval in 0..cfg.intervals {
        let mut recorders = src.interval(cfg.threads);
        let k_lo = interval * steps_per_interval;
        let k_hi = ((interval + 1) * steps_per_interval).min(n.saturating_sub(1));
        for k in k_lo..k_hi {
            let owner = column_owner(true, k, n, cfg.threads);
            // Owner: pivot sqrt and column scale.
            let mut col = vec![0u64; n];
            {
                let rec = &mut recorders[owner];
                let scaled = rec.shl(a[k][k].max(1), u64::from(FRAC));
                let d = isqrt(rec, scaled).max(1);
                a[k][k] = d;
                for (i, ci) in col.iter_mut().enumerate().skip(k + 1) {
                    let addr = rec.index(0xA000, (i * n + k) as u64, 8);
                    rec.load(addr);
                    let num = rec.shl(a[i][k], u64::from(FRAC));
                    *ci = div_restoring(rec, num, d);
                    rec.store(addr);
                }
            }
            // Trailing symmetric update, column-owned.
            for j in (k + 1)..n {
                let upd_owner = column_owner(true, j, n, cfg.threads);
                let rec = &mut recorders[upd_owner];
                let cj = col[j];
                for i in j..n {
                    let prod = rec.fxmul(col[i], cj, FRAC);
                    let addr = rec.index(0xA000, (i * n + j) as u64, 8);
                    rec.load(addr);
                    a[i][j] = rec.sub(a[i][j], prod);
                    rec.store(addr);
                }
                rec.branch();
            }
            for (i, &ci) in col.iter().enumerate().skip(k + 1) {
                a[i][k] = ci;
            }
        }
        for (tid, rec) in recorders.iter_mut().enumerate() {
            if rec.event_count() < 32 {
                spin_wait(rec, 96, tid);
            }
        }
        src.hand_on(recorders);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Benchmark;
    use circuits::AluOp;

    #[test]
    fn lu_contig_concentrates_pivot_work_early() {
        let cfg = WorkloadConfig::small(4);
        let ivs = Benchmark::LuContig.run(&cfg).intervals;
        // In the first interval the pivot columns belong to thread 0, so
        // thread 0 must record far more division-shaped work (sltu-heavy)
        // than the last thread.
        let sltu = |t: usize| {
            ivs[0]
                .thread(t)
                .events
                .iter()
                .filter(|e| e.op == AluOp::Sltu)
                .count()
        };
        assert!(
            sltu(0) > 2 * sltu(3).max(1),
            "thread 0 {} vs thread 3 {}",
            sltu(0),
            sltu(3)
        );
    }

    #[test]
    fn lu_ncontig_spreads_pivot_work() {
        let cfg = WorkloadConfig::small(4);
        let ivs = Benchmark::LuNcontig.run(&cfg).intervals;
        let sltu = |t: usize| {
            ivs[0]
                .thread(t)
                .events
                .iter()
                .filter(|e| e.op == AluOp::Sltu)
                .count()
        };
        let counts: Vec<usize> = (0..4).map(sltu).collect();
        let max = *counts.iter().max().expect("non-empty");
        let min = *counts.iter().min().expect("non-empty").max(&1);
        assert!(
            max < 4 * min,
            "round-robin ownership should balance divisions: {counts:?}"
        );
    }

    #[test]
    fn cholesky_produces_multiplies_and_divisions() {
        let cfg = WorkloadConfig::small(4);
        let ivs = Benchmark::Cholesky.run(&cfg).intervals;
        let all: Vec<_> = ivs.iter().flat_map(|iv| iv.iter()).collect();
        assert!(all
            .iter()
            .any(|w| w.events.iter().any(|e| e.op == AluOp::Mul)));
        assert!(all
            .iter()
            .any(|w| w.events.iter().any(|e| e.op == AluOp::Sub)));
    }

    #[test]
    fn shapes_and_determinism() {
        let cfg = WorkloadConfig::small(2);
        for variant in [Benchmark::LuContig, Benchmark::LuNcontig] {
            let a = variant.run(&cfg).intervals;
            let b = variant.run(&cfg).intervals;
            assert_eq!(a.len(), cfg.intervals);
            for (ia, ib) in a.iter().zip(&b) {
                assert_eq!(ia.threads(), 2);
                for t in 0..2 {
                    assert_eq!(ia.thread(t).events, ib.thread(t).events);
                }
            }
        }
    }
}
