//! FMM, Barnes and Water-sp — the three particle kernels.
//!
//! * `fmm` — near/far-field interaction phase: space is cell-partitioned and
//!   particle density *decreases with thread id* (astrophysics inputs are
//!   clustered), so low threads run quadratically more pair work on larger
//!   coordinate sums — strong heterogeneity.
//! * `barnes` — Barnes-Hut-style quadtree walk with an opening test; the
//!   dense cluster again lives in thread 0's quadrant.
//! * `water` — molecules on a uniform lattice with identical per-thread
//!   statistics: the homogeneous control the paper excludes from the SynTS
//!   result set.

use crate::kernels::{div_restoring, isqrt, Source, SplitMix64, FRAC};
use crate::recorder::Recorder;
use crate::types::WorkloadConfig;

struct Particle {
    x: u64,
    y: u64,
    vx: u64,
    vy: u64,
}

/// Generates particles for one thread; `spread` controls the coordinate
/// range, `base` its offset.
fn particles(
    cfg: &WorkloadConfig,
    tid: usize,
    count: usize,
    base: u64,
    spread: u64,
    salt: u64,
) -> Vec<Particle> {
    let mut rng = SplitMix64::for_stream(cfg, tid, salt);
    (0..count)
        .map(|_| Particle {
            x: base + rng.below(spread),
            y: base + rng.below(spread),
            vx: rng.below(1 << FRAC),
            vy: rng.below(1 << FRAC),
        })
        .collect()
}

/// Pairwise near-field interaction for one thread's cell, O(m²) with a
/// distance cutoff, fully recorded.
fn near_field(rec: &mut Recorder, ps: &mut [Particle], cutoff2: u64) {
    let m = ps.len();
    for i in 0..m {
        let addr = rec.index(0x3000, i as u64, 16);
        rec.load(addr);
        for j in (i + 1)..m {
            let dx = rec.sub(ps[i].x, ps[j].x);
            let dy = rec.sub(ps[i].y, ps[j].y);
            let dx2 = rec.fxmul(dx, dx, FRAC);
            let dy2 = rec.fxmul(dy, dy, FRAC);
            let r2 = rec.add(dx2, dy2);
            if rec.less_than(r2, cutoff2) {
                // Inverse-square kick: f = G / r² via the real divider.
                let f = div_restoring(rec, 1 << (2 * FRAC), r2.max(1));
                let fx = rec.fxmul(f, dx, FRAC);
                let fy = rec.fxmul(f, dy, FRAC);
                ps[i].vx = rec.add(ps[i].vx, fx);
                ps[i].vy = rec.add(ps[i].vy, fy);
                ps[j].vx = rec.sub(ps[j].vx, fx);
                ps[j].vy = rec.sub(ps[j].vy, fy);
            }
        }
        rec.store(addr);
    }
}

/// Drift step: positions advance by velocity.
fn drift(rec: &mut Recorder, ps: &mut [Particle]) {
    for (i, p) in ps.iter_mut().enumerate() {
        let addr = rec.index(0x3000, i as u64, 16);
        rec.load(addr);
        p.x = rec.add(p.x, p.vx);
        p.y = rec.add(p.y, p.vy);
        rec.store(addr);
        rec.branch();
    }
}

pub(crate) fn fmm(cfg: &WorkloadConfig, src: &mut Source) {
    // Clustered input: thread 0's cell is densest and sits at large
    // coordinates; density tapers with thread id.
    let base_count = (cfg.scale / 16).max(8);
    let mut cells: Vec<Vec<Particle>> = (0..cfg.threads)
        .map(|tid| {
            let count = base_count * 2 / (tid + 1) + base_count / 2;
            let base = 0xC000u64 >> tid; // big coords for low threads
            particles(cfg, tid, count, base, 0x1FFF, 0xF33)
        })
        .collect();
    // Far-field centroids (one per cell).
    for _ in 0..cfg.intervals {
        let mut recorders = src.interval(cfg.threads);
        // Centroids: each thread reduces its own cell (multipole moment).
        let mut centroids = Vec::with_capacity(cfg.threads);
        for (tid, cell) in cells.iter().enumerate() {
            let rec = &mut recorders[tid];
            let mut cx = 0u64;
            let mut cy = 0u64;
            for (i, p) in cell.iter().enumerate() {
                let addr = rec.index(0x3000, i as u64, 16);
                rec.load(addr);
                cx = rec.add(cx, p.x);
                cy = rec.add(cy, p.y);
            }
            let m = cell.len() as u64;
            centroids.push((div_restoring(rec, cx, m), div_restoring(rec, cy, m)));
        }
        // Near field within the cell + far field against other centroids.
        for (tid, cell) in cells.iter_mut().enumerate() {
            let rec = &mut recorders[tid];
            near_field(rec, cell, 64 << FRAC);
            for (other, &(cx, cy)) in centroids.iter().enumerate() {
                if other == tid {
                    continue;
                }
                for p in cell.iter_mut() {
                    let dx = rec.sub(cx, p.x);
                    let dy = rec.sub(cy, p.y);
                    let w = rec.shr(dx, 4);
                    let w2 = rec.shr(dy, 4);
                    p.vx = rec.add(p.vx, w & 0xF);
                    p.vy = rec.add(p.vy, w2 & 0xF);
                }
            }
            drift(rec, cell);
        }
        src.hand_on(recorders);
    }
}

pub(crate) fn water(cfg: &WorkloadConfig, src: &mut Source) {
    // Uniform lattice, identical statistics for every thread.
    let count = (cfg.scale / 8).max(12);
    let mut cells: Vec<Vec<Particle>> = (0..cfg.threads)
        .map(|tid| particles(cfg, tid, count, 0x4000, 0x3FFF, 0x3A7))
        .collect();
    for _ in 0..cfg.intervals {
        let mut recorders = src.interval(cfg.threads);
        for (tid, cell) in cells.iter_mut().enumerate() {
            let rec = &mut recorders[tid];
            near_field(rec, cell, 96 << FRAC);
            drift(rec, cell);
        }
        src.hand_on(recorders);
    }
}

/// A quadtree node for the Barnes-Hut walk.
enum Quad {
    Empty,
    Leaf(u64, u64),
    Node {
        cx: u64,
        cy: u64,
        size: u64,
        children: Box<[Quad; 4]>,
    },
}

fn insert(quad: &mut Quad, x: u64, y: u64, ox: u64, oy: u64, size: u64, depth: usize) {
    if depth > 12 {
        return;
    }
    match quad {
        Quad::Empty => *quad = Quad::Leaf(x, y),
        Quad::Leaf(lx, ly) => {
            let (lx, ly) = (*lx, *ly);
            *quad = Quad::Node {
                cx: (lx + x) / 2,
                cy: (ly + y) / 2,
                size,
                children: Box::new([Quad::Empty, Quad::Empty, Quad::Empty, Quad::Empty]),
            };
            insert(quad, lx, ly, ox, oy, size, depth);
            insert(quad, x, y, ox, oy, size, depth);
        }
        Quad::Node { children, .. } => {
            let half = size / 2;
            let qx = usize::from(x >= ox + half);
            let qy = usize::from(y >= oy + half);
            insert(
                &mut children[qy * 2 + qx],
                x,
                y,
                ox + qx as u64 * half,
                oy + qy as u64 * half,
                half.max(1),
                depth + 1,
            );
        }
    }
}

/// Recorded Barnes-Hut force walk with the s/d opening criterion.
fn walk(rec: &mut Recorder, quad: &Quad, x: u64, y: u64, vx: &mut u64, vy: &mut u64) {
    match quad {
        Quad::Empty => {}
        Quad::Leaf(lx, ly) => {
            if *lx == x && *ly == y {
                return;
            }
            let dx = rec.sub(*lx, x);
            let dy = rec.sub(*ly, y);
            let dx2 = rec.fxmul(dx, dx, FRAC);
            let dy2 = rec.fxmul(dy, dy, FRAC);
            let r2 = rec.add(dx2, dy2).max(1);
            let r = isqrt(rec, r2).max(1);
            let f = div_restoring(rec, 1 << FRAC, r);
            *vx = rec.add(*vx, rec_mask(f, dx));
            *vy = rec.add(*vy, rec_mask(f, dy));
        }
        Quad::Node {
            cx,
            cy,
            size,
            children,
        } => {
            let dx = rec.sub(*cx, x);
            let dy = rec.sub(*cy, y);
            let dist2 = {
                let dx2 = rec.fxmul(dx, dx, FRAC);
                let dy2 = rec.fxmul(dy, dy, FRAC);
                rec.add(dx2, dy2)
            };
            let s2 = rec.fxmul(*size, *size, FRAC);
            // Opening test: if s²/d² < θ² treat the node as one body.
            if rec.less_than(s2, dist2 / 2) {
                let w = rec.shr(dx, 5);
                *vx = rec.add(*vx, w & 0x7);
                let w2 = rec.shr(dy, 5);
                *vy = rec.add(*vy, w2 & 0x7);
            } else {
                for child in children.iter() {
                    walk(rec, child, x, y, vx, vy);
                }
            }
        }
    }
}

fn rec_mask(f: u64, d: u64) -> u64 {
    (f.wrapping_mul(d)) & 0xF
}

pub(crate) fn barnes(cfg: &WorkloadConfig, src: &mut Source) {
    // Thread 0 owns the dense cluster quadrant.
    let base_count = (cfg.scale / 12).max(8);
    let mut bodies: Vec<Vec<Particle>> = (0..cfg.threads)
        .map(|tid| {
            let count = if tid == 0 { base_count * 3 } else { base_count };
            let spread = if tid == 0 { 0x0FFF } else { 0x3FFF };
            particles(cfg, tid, count, (tid as u64) * 0x4000, spread, 0xBA5)
        })
        .collect();
    for _ in 0..cfg.intervals {
        // Global tree over all bodies (built unrecorded: tree build is
        // pointer-chasing, not ALU work).
        let mut root = Quad::Empty;
        for cell in &bodies {
            for p in cell {
                insert(&mut root, p.x, p.y, 0, 0, 1 << cfg.width.min(16), 0);
            }
        }
        let mut recorders = src.interval(cfg.threads);
        for (tid, cell) in bodies.iter_mut().enumerate() {
            let rec = &mut recorders[tid];
            for p in cell.iter_mut() {
                let mut vx = p.vx;
                let mut vy = p.vy;
                walk(rec, &root, p.x, p.y, &mut vx, &mut vy);
                p.vx = vx & 0xFF;
                p.vy = vy & 0xFF;
            }
            drift(rec, cell);
        }
        src.hand_on(recorders);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Benchmark;

    #[test]
    fn fmm_is_thread_heterogeneous_in_volume() {
        let cfg = WorkloadConfig::small(4);
        let ivs = Benchmark::Fmm.run(&cfg).intervals;
        let counts: Vec<usize> = ivs[0].iter().map(|w| w.events.len()).collect();
        assert!(
            counts[0] > 2 * counts[3],
            "dense cell must dominate: {counts:?}"
        );
    }

    #[test]
    fn water_is_homogeneous_in_volume() {
        let cfg = WorkloadConfig::small(4);
        let ivs = Benchmark::WaterSp.run(&cfg).intervals;
        let counts: Vec<usize> = ivs[0].iter().map(|w| w.events.len()).collect();
        let max = *counts.iter().max().expect("non-empty") as f64;
        let min = *counts.iter().min().expect("non-empty").max(&1) as f64;
        assert!(max / min < 1.5, "uniform lattice must balance: {counts:?}");
    }

    #[test]
    fn barnes_cluster_thread_walks_more() {
        let cfg = WorkloadConfig::small(4);
        let ivs = Benchmark::Barnes.run(&cfg).intervals;
        let counts: Vec<usize> = ivs[0].iter().map(|w| w.events.len()).collect();
        assert!(
            counts[0] > counts[2],
            "cluster owner must do more tree work: {counts:?}"
        );
    }

    #[test]
    fn kernels_are_deterministic() {
        let cfg = WorkloadConfig::small(2);
        for bench in [Benchmark::Fmm, Benchmark::WaterSp, Benchmark::Barnes] {
            let a = bench.run(&cfg).intervals;
            let b = bench.run(&cfg).intervals;
            assert_eq!(a[0].thread(0).events, b[0].thread(0).events);
        }
    }
}
