//! Determinism and Pareto-front invariants of the parallel θ-sweep
//! engine: for every registered solver, a pooled sweep is bit-identical
//! at 1, 2, 4 and 8 workers; sweep points come back in θ-grid order; the
//! Pareto front of any sweep is mutually non-dominated; and online
//! intervals fanned out across a pool equal the sequential per-interval
//! loop.

mod common;

use common::instance_strategy;
use proptest::prelude::*;
use synts::prelude::*;
use synts::timing::pareto_front;

const WORKER_GRID: [usize; 4] = [1, 2, 4, 8];

/// `a` weakly dominates `b` on both axes.
fn dominates(a: EnergyDelay, b: EnergyDelay) -> bool {
    a.energy <= b.energy && a.time <= b.time && (a.energy < b.energy || a.time < b.time)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The headline determinism guarantee: for every registered solver
    /// the sweep output — θ order, assignments, energy/time points, and
    /// therefore the Pareto front — is bit-identical at any worker count.
    #[test]
    fn sweep_is_bit_identical_at_every_worker_count(inst in instance_strategy()) {
        let registry = SolverRegistry::with_defaults();
        let thetas = default_theta_sweep(&inst.cfg, &inst.profiles, 9, 2.0).expect("grid");
        for name in registry.names() {
            let solver = registry.get(name).expect("registered");
            let reference = pareto_sweep(
                &*solver, &inst.cfg, &inst.profiles, &thetas, ThreadPool::new(1),
            )
            .unwrap_or_else(|e| panic!("{name} failed sequentially: {e}"));
            for workers in WORKER_GRID {
                let pooled = pareto_sweep(
                    &*solver, &inst.cfg, &inst.profiles, &thetas, ThreadPool::new(workers),
                )
                .unwrap_or_else(|e| panic!("{name} failed at {workers} workers: {e}"));
                prop_assert_eq!(
                    &reference, &pooled,
                    "{} diverges at {} workers", name, workers
                );
            }
        }
    }

    /// Sweep points come back in θ-grid order regardless of pool width.
    #[test]
    fn sweep_points_are_sorted_by_theta(inst in instance_strategy()) {
        let thetas = default_theta_sweep(&inst.cfg, &inst.profiles, 11, 2.0).expect("grid");
        prop_assert!(
            thetas.windows(2).all(|w| w[0] < w[1]),
            "the default grid is strictly ascending"
        );
        let registry = SolverRegistry::with_defaults();
        let solver = registry.get("synts_poly").expect("registered");
        for workers in WORKER_GRID {
            let pts = pareto_sweep(
                &*solver, &inst.cfg, &inst.profiles, &thetas, ThreadPool::new(workers),
            )
            .expect("sweeps");
            let got: Vec<f64> = pts.iter().map(|p| p.theta).collect();
            prop_assert_eq!(&got, &thetas, "θ order at {} workers", workers);
        }
    }

    /// The Pareto front extracted from any sweep is mutually
    /// non-dominated — no front member weakly dominates another.
    #[test]
    fn sweep_front_is_mutually_non_dominated(inst in instance_strategy()) {
        let registry = SolverRegistry::with_defaults();
        let thetas = default_theta_sweep(&inst.cfg, &inst.profiles, 9, 2.0).expect("grid");
        for name in registry.names() {
            let solver = registry.get(name).expect("registered");
            let pts = pareto_sweep(
                &*solver, &inst.cfg, &inst.profiles, &thetas, ThreadPool::new(4),
            )
            .unwrap_or_else(|e| panic!("{name} failed: {e}"));
            let eds: Vec<EnergyDelay> = pts.iter().map(|p| p.ed).collect();
            let front = pareto_front(&eds);
            prop_assert!(!front.is_empty(), "{}: a non-empty sweep has a front", name);
            for (i, &a) in front.iter().enumerate() {
                for &b in &front[i + 1..] {
                    prop_assert!(
                        !dominates(eds[a], eds[b]) && !dominates(eds[b], eds[a]),
                        "{}: front members {:?} and {:?} dominate each other",
                        name, eds[a], eds[b]
                    );
                }
            }
        }
    }

    /// `run_interval` fanned out with `ThreadPool::try_map` equals the
    /// sequential per-interval loop at every worker count, interval by
    /// interval.
    #[test]
    fn batched_online_intervals_match_sequential_loop(
        seeds in prop::collection::vec(1u64..1_000_000, 2..5),
    ) {
        let cfg = SystemConfig::paper_default(10.0);
        let intervals: Vec<Vec<ThreadData>> = seeds
            .iter()
            .map(|&seed| {
                (0..3u64)
                    .map(|t| {
                        let mut state = seed.wrapping_add(t * 77);
                        let delays: Vec<f64> = (0..2_000)
                            .map(|_| {
                                state = state
                                    .wrapping_mul(6364136223846793005)
                                    .wrapping_add(1);
                                0.3 + 0.7 * ((state >> 33) as f64 / (1u64 << 31) as f64)
                            })
                            .collect();
                        ThreadData {
                            curve: ErrorCurve::from_normalized_delays(delays.clone())
                                .expect("non-empty"),
                            instructions: delays.len() as f64,
                            normalized_delays: delays,
                            cpi_base: 1.0 + 0.1 * t as f64,
                        }
                    })
                    .collect()
            })
            .collect();
        let plan = SamplingPlan::paper_default(2_000, cfg.s());
        let registry = SolverRegistry::<SampledCurve>::with_defaults();
        let solver = registry.get("synts_poly").expect("registered");
        let sequential: Vec<IntervalOutcome> = intervals
            .iter()
            .map(|threads| run_interval(&cfg, threads, 1.0, plan, &*solver, None).expect("runs"))
            .collect();
        for workers in WORKER_GRID {
            let batched = ThreadPool::new(workers)
                .try_map(&intervals, |_, threads| {
                    run_interval(&cfg, threads, 1.0, plan, &*solver, None)
                })
                .expect("runs");
            prop_assert_eq!(batched.len(), sequential.len());
            for (b, s) in batched.iter().zip(&sequential) {
                prop_assert_eq!(&b.assignment, &s.assignment, "{} workers", workers);
                prop_assert_eq!(b.total, s.total, "{} workers", workers);
                prop_assert_eq!(b.sampling, s.sampling, "{} workers", workers);
            }
        }
    }
}

/// A failing θ surfaces the same error the sequential loop would report:
/// the lowest-index failure, independent of worker count.
#[test]
fn sweep_error_reporting_is_order_deterministic() {
    let mut cfg = SystemConfig::paper_default(10.0);
    // Blow past EXHAUSTIVE_LIMIT so every θ fails with the same error.
    cfg.tsr_levels = (0..6).map(|k| 0.6 + 0.4 * k as f64 / 5.0).collect();
    let curve =
        ErrorCurve::from_normalized_delays((0..32).map(|i| 0.5 + 0.01 * i as f64).collect())
            .expect("non-empty");
    let profiles: Vec<ThreadProfile<ErrorCurve>> = (0..12)
        .map(|_| ThreadProfile::new(1_000.0, 1.0, curve.clone()))
        .collect();
    let registry = SolverRegistry::with_defaults();
    let solver = registry.get("synts_exhaustive").expect("registered");
    let thetas: Vec<f64> = (0..8).map(|i| 0.5 + i as f64).collect();
    let seq_err = pareto_sweep(&*solver, &cfg, &profiles, &thetas, ThreadPool::new(1))
        .expect_err("oversized instance");
    for workers in WORKER_GRID {
        let err = pareto_sweep(&*solver, &cfg, &profiles, &thetas, ThreadPool::new(workers))
            .expect_err("oversized instance");
        assert_eq!(
            err.to_string(),
            seq_err.to_string(),
            "error at {workers} workers"
        );
    }
}
