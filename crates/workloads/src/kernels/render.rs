//! Raytrace — tile-parallel ray caster, after the SPLASH-2 raytracer.
//!
//! The image is split into horizontal tiles, one per thread; the scene's
//! spheres sit in the upper rows, so thread 0's rays hit geometry (running
//! the full intersection + shading math: multiply-heavy discriminants,
//! bit-serial square roots) while high threads mostly miss — the classic
//! scene-dependent load and operand imbalance of parallel ray tracing.

use crate::kernels::{div_restoring, isqrt, Source, SplitMix64, FRAC};
use crate::types::WorkloadConfig;

struct Sphere {
    cx: u64,
    cy: u64,
    cz: u64,
    r2: u64,
}

pub(crate) fn raytrace(cfg: &WorkloadConfig, src: &mut Source) {
    let cols = 48usize;
    let rows_per_thread = (cfg.scale / cols).max(4);
    let mut rng = SplitMix64::for_stream(cfg, 0, 0x7247);
    // Spheres clustered in the first tile's rows (small cy values).
    let spheres: Vec<Sphere> = (0..4)
        .map(|_| Sphere {
            cx: rng.below(cols as u64 * 256),
            cy: rng.below(rows_per_thread as u64 * 200),
            cz: 2000 + rng.below(2000),
            r2: (300 + rng.below(600)) << FRAC,
        })
        .collect();

    for frame in 0..cfg.intervals {
        // Small camera pan per frame keeps frames distinct.
        let pan = (frame as u64) * 37;
        let mut recorders = src.interval(cfg.threads);
        for (tid, rec) in recorders.iter_mut().enumerate() {
            let row0 = tid * rows_per_thread;
            for dy in 0..rows_per_thread {
                let py = ((row0 + dy) as u64) * 256;
                for px_i in 0..cols {
                    let px = (px_i as u64) * 256 + pan;
                    rec.branch();
                    let mut best_t = 0xFFFF;
                    for s in &spheres {
                        // Ray from (px, py, 0) towards +z: closest approach
                        // is at the sphere's z; lateral distance decides.
                        let dx = rec.sub(s.cx, px);
                        let dyv = rec.sub(s.cy, py);
                        let dx2 = rec.fxmul(dx, dx, FRAC);
                        let dy2 = rec.fxmul(dyv, dyv, FRAC);
                        let d2 = rec.add(dx2, dy2);
                        if rec.less_than(d2, s.r2) {
                            // Hit: depth = cz - sqrt(r2 - d2), then shade.
                            let under = rec.sub(s.r2, d2);
                            let half = isqrt(rec, under);
                            let t = rec.sub(s.cz, half);
                            if rec.less_than(t, best_t) {
                                best_t = t;
                                // Lambertian-ish shade: n·l via fxmul + div.
                                let nx = rec.shr(dx, 2);
                                let nl = rec.fxmul(nx, 0x55, FRAC);
                                let _intensity = div_restoring(rec, nl.max(1), (t >> 4).max(1));
                            }
                        }
                    }
                    let addr = rec.index(0x9000, (py / 256) * cols as u64 + px_i as u64, 4);
                    rec.store(addr);
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
    fn hit_tile_does_more_work() {
        let cfg = WorkloadConfig::small(4);
        let ivs = Benchmark::Raytrace.run(&cfg).intervals;
        let counts: Vec<usize> = ivs[0].iter().map(|w| w.events.len()).collect();
        assert!(
            counts[0] > counts[3],
            "the tile containing geometry must be heavier: {counts:?}"
        );
    }

    #[test]
    fn every_thread_casts_rays() {
        let cfg = WorkloadConfig::small(4);
        let ivs = Benchmark::Raytrace.run(&cfg).intervals;
        for iv in &ivs {
            for w in iv {
                assert!(w.events.len() > 100);
                assert!(w.branches > 0);
            }
        }
    }

    #[test]
    fn deterministic() {
        let cfg = WorkloadConfig::small(2);
        let a = Benchmark::Raytrace.run(&cfg).intervals;
        let b = Benchmark::Raytrace.run(&cfg).intervals;
        assert_eq!(a[1].thread(1).events, b[1].thread(1).events);
    }
}
