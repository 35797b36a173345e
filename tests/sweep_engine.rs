//! Certification of the PR 5 sweep-scale solver engine against the naive
//! reference paths (`synts::reference`): sorted-tables poly,
//! dominance-pruned exhaustive search and warm-started MILP must be
//! assignment-cost-identical to the pre-engine implementations across
//! random instances × θ grids, θ-dedup in `solve_batch` must be
//! invisible, and degenerate (pruned-to-one-point) instances must still
//! solve.

mod common;

use common::instance_strategy;
use proptest::prelude::*;
use synts::prelude::*;
use synts::reference;
use synts::timing::VoltageTable;

/// A θ grid exercising the extremes and the instance's own scale.
fn theta_grid(theta: f64) -> [f64; 5] {
    [0.0, 0.1 * theta, theta, 10.0 * theta + 1.0, 1e6]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sorted tables + dominance-pruned critical candidates reach exactly
    /// the cost of the paper-literal `O(M²Q²S²)` scan at every θ.
    #[test]
    fn engine_poly_cost_matches_naive(inst in instance_strategy()) {
        for theta in theta_grid(inst.theta) {
            let fast = synts_poly(&inst.cfg, &inst.profiles, theta).expect("engine poly");
            let naive = reference::synts_poly_naive(&inst.cfg, &inst.profiles, theta)
                .expect("naive poly");
            let cf = weighted_cost(&inst.cfg, &inst.profiles, &fast, theta);
            let cn = weighted_cost(&inst.cfg, &inst.profiles, &naive, theta);
            prop_assert!(
                (cf - cn).abs() <= 1e-9 * cn.abs().max(1.0),
                "theta {}: engine {} vs naive {}", theta, cf, cn
            );
        }
    }

    /// The warm-started, best-first MILP reaches exactly the cost of the
    /// cold depth-first branch-and-bound at every θ.
    #[test]
    fn warm_milp_cost_matches_cold(inst in instance_strategy()) {
        for theta in theta_grid(inst.theta) {
            let warm = synts_milp(&inst.cfg, &inst.profiles, theta).expect("warm milp");
            let cold = reference::synts_milp_naive(&inst.cfg, &inst.profiles, theta)
                .expect("cold milp");
            let cw = weighted_cost(&inst.cfg, &inst.profiles, &warm, theta);
            let cc = weighted_cost(&inst.cfg, &inst.profiles, &cold, theta);
            prop_assert!(
                (cw - cc).abs() <= 1e-6 * cc.abs().max(1.0),
                "theta {}: warm {} vs cold {}", theta, cw, cc
            );
        }
    }

    /// Dominance pruning cannot change the exhaustive optimum: the pruned
    /// odometer reaches exactly the unpruned cost.
    #[test]
    fn pruned_exhaustive_cost_matches_naive(inst in instance_strategy()) {
        for theta in theta_grid(inst.theta) {
            let pruned = synts_exhaustive(&inst.cfg, &inst.profiles, theta).expect("pruned");
            let naive = reference::synts_exhaustive_naive(&inst.cfg, &inst.profiles, theta)
                .expect("naive");
            let cp = weighted_cost(&inst.cfg, &inst.profiles, &pruned, theta);
            let cn = weighted_cost(&inst.cfg, &inst.profiles, &naive, theta);
            prop_assert!(
                (cp - cn).abs() <= 1e-9 * cn.abs().max(1.0),
                "theta {}: pruned {} vs naive {}", theta, cp, cn
            );
            // Pruning never *grows* the search space.
            let stats = pruning_stats(&inst.cfg, &inst.profiles).expect("stats");
            prop_assert!(stats.pruned_points <= stats.total_points);
            prop_assert!(stats.pruned_combinations <= stats.raw_combinations);
        }
    }

    /// Batched sweeps through the engine match the naive per-θ sweep
    /// cost-for-cost (the batch path is what `pareto_sweep`, the online
    /// controller and the `Experiment` runner ride).
    #[test]
    fn engine_batch_sweep_matches_naive_sweep(inst in instance_strategy()) {
        let thetas: Vec<f64> = theta_grid(inst.theta).to_vec();
        let requests: Vec<SolveRequest<'_, ErrorCurve>> = thetas
            .iter()
            .map(|&theta| SolveRequest::new(&inst.cfg, &inst.profiles, theta))
            .collect();
        let registry = SolverRegistry::with_defaults();
        for (name, naive) in [
            (
                "synts_poly",
                reference::poly_sweep_naive(&inst.cfg, &inst.profiles, &thetas).expect("poly"),
            ),
            (
                "synts_milp",
                reference::milp_sweep_naive(&inst.cfg, &inst.profiles, &thetas).expect("milp"),
            ),
            (
                "synts_exhaustive",
                thetas
                    .iter()
                    .map(|&theta| {
                        reference::synts_exhaustive_naive(&inst.cfg, &inst.profiles, theta)
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .expect("exhaustive"),
            ),
        ] {
            let solver = registry.get(name).expect("registered");
            let batch = solver.solve_batch(&requests);
            for ((result, reference_a), &theta) in batch.iter().zip(&naive).zip(&thetas) {
                let a = result.as_ref().unwrap_or_else(|e| panic!("{name}: {e}"));
                let ca = weighted_cost(&inst.cfg, &inst.profiles, a, theta);
                let cr = weighted_cost(&inst.cfg, &inst.profiles, reference_a, theta);
                prop_assert!(
                    (ca - cr).abs() <= 1e-6 * cr.abs().max(1.0),
                    "{} theta {}: engine {} vs naive {}", name, theta, ca, cr
                );
            }
        }
    }

    /// Duplicate θ values in a batch (log-spaced grids round-trip them)
    /// are deduped: every duplicate reuses the solved assignment, and the
    /// batch is indistinguishable from the same batch without duplicates.
    #[test]
    fn solve_batch_dedupes_repeated_thetas(inst in instance_strategy()) {
        let registry = SolverRegistry::with_defaults();
        let unique = [0.0, inst.theta, 3.0 * inst.theta + 0.5];
        // Interleave duplicates: [a, a, b, c, b, a].
        let dup = [unique[0], unique[0], unique[1], unique[2], unique[1], unique[0]];
        for name in ["synts_poly", "synts_milp", "synts_exhaustive"] {
            let solver = registry.get(name).expect("registered");
            let dup_requests: Vec<SolveRequest<'_, ErrorCurve>> = dup
                .iter()
                .map(|&theta| SolveRequest::new(&inst.cfg, &inst.profiles, theta))
                .collect();
            let batch = solver.solve_batch(&dup_requests);
            prop_assert_eq!(batch.len(), dup.len(), "{}", name);
            for (result, &theta) in batch.iter().zip(&dup) {
                let direct = solver
                    .solve(&inst.cfg, &inst.profiles, theta)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                let got = result.as_ref().unwrap_or_else(|e| panic!("{name}: {e}"));
                prop_assert_eq!(got, &direct, "{} at theta {}", name, theta);
            }
            // Duplicates are bitwise-identical to their first occurrence.
            prop_assert_eq!(&batch[0], &batch[1], "{}", name);
            prop_assert_eq!(&batch[0], &batch[5], "{}", name);
            prop_assert_eq!(&batch[2], &batch[4], "{}", name);
        }
    }
}

/// A thread whose candidate set prunes to a single point (one voltage
/// level, an error-free workload: the lowest-TSR point dominates every
/// other) must still solve under all three engine solvers — and they must
/// pick that point.
#[test]
fn pruned_to_one_point_thread_still_solves() {
    let mut cfg = SystemConfig::paper_default(10.0);
    cfg.voltages = VoltageTable::from_volts([1.0]).expect("single level");
    cfg.tsr_levels = vec![0.7, 0.85, 1.0];
    // Error-free at every TSR level: delays far below the lowest ratio.
    let flat = ErrorCurve::from_normalized_delays(vec![0.1; 16]).expect("non-empty");
    let profiles = vec![
        ThreadProfile::new(5_000.0, 1.0, flat.clone()),
        ThreadProfile::new(7_000.0, 1.2, flat),
    ];
    let stats = pruning_stats(&cfg, &profiles).expect("stats");
    assert_eq!(
        stats.pruned_points, 2,
        "one surviving point per thread: {stats:?}"
    );
    let registry = SolverRegistry::with_defaults();
    for name in ["synts_poly", "synts_milp", "synts_exhaustive"] {
        let solver = registry.get(name).expect("registered");
        for theta in [0.0, 1.0, 1e9] {
            let a = solver
                .solve(&cfg, &profiles, theta)
                .unwrap_or_else(|e| panic!("{name} at {theta}: {e}"));
            for p in &a.points {
                assert_eq!((p.voltage_idx, p.tsr_idx), (0, 0), "{name} at {theta}");
            }
        }
    }
}

/// Exact ties go to the first combination in odometer order, at every θ
/// of a batch's one shared walk. Three identical threads on one voltage
/// with TSR levels {0.5, 1.0} have two operating points each, with
/// dyadic times and energies: A (r = 0.5) takes 0.75 time units for 1.5
/// energy units and B (r = 1) takes 1 for 1, so every permutation of a
/// mixed combination ties, and all-A and all-B tie exactly at θ = 6. There
/// all-A, the first combination visited, must win; below it all-B wins
/// and above it all-A.
#[test]
fn exhaustive_ties_go_to_the_first_combination_in_odometer_order() {
    let mut cfg = SystemConfig::paper_default(1.0);
    cfg.voltages = VoltageTable::from_volts([1.0]).expect("ok");
    cfg.tsr_levels = vec![0.5, 1.0];
    cfg.c_penalty = 2.0;
    // One delay in four exceeds r = 0.5 and none exceeds r = 1.
    let curve = ErrorCurve::from_normalized_delays(vec![0.1, 0.2, 0.3, 0.8]).expect("non-empty");
    let profiles = vec![ThreadProfile::new(1.0, 1.0, curve); 3];
    let uniform = |tsr_idx| {
        Assignment::uniform(
            3,
            OperatingPoint {
                voltage_idx: 0,
                tsr_idx,
            },
        )
    };
    let (all_a, all_b) = (uniform(0), uniform(1));
    assert_eq!(
        weighted_cost(&cfg, &profiles, &all_a, 6.0).to_bits(),
        weighted_cost(&cfg, &profiles, &all_b, 6.0).to_bits(),
        "the instance must tie exactly at θ = 6"
    );

    let thetas = [5.0, 6.0, 7.0, 6.0, 0.0];
    let expected = [&all_b, &all_a, &all_a, &all_a, &all_b];
    let solver = SolverRegistry::with_defaults()
        .get("synts_exhaustive")
        .expect("registered");
    let requests: Vec<SolveRequest<'_, ErrorCurve>> = thetas
        .iter()
        .map(|&theta| SolveRequest::new(&cfg, &profiles, theta))
        .collect();
    let batch = solver.solve_batch(&requests);
    for ((&theta, want), got) in thetas.iter().zip(expected).zip(&batch) {
        let solved = solver.solve(&cfg, &profiles, theta).expect("solves");
        assert_eq!(&solved, want, "solve at θ = {theta}");
        assert_eq!(
            got.as_ref().expect("solves"),
            want,
            "solve_batch at θ = {theta}"
        );
        let naive = reference::synts_exhaustive_naive(&cfg, &profiles, theta).expect("naive");
        assert_eq!(&naive, want, "unpruned oracle at θ = {theta}");
    }
}

/// The batch path groups same-instance runs and walks each once, so its
/// scattering of results back to requests must be invisible: a batch
/// mixing instance A (with duplicate θs and a NaN in the middle), then
/// instance B, then A again, then an instance too large to enumerate
/// equals the element-wise `solve` loop result for result and error for
/// error, with `TooLarge` for every request of the oversized instance.
#[test]
fn exhaustive_batch_scatters_results_and_errors_like_the_elementwise_loop() {
    let mut cfg = SystemConfig::paper_default(10.0);
    cfg.voltages = VoltageTable::from_volts([1.0, 0.86, 0.72]).expect("ok");
    cfg.tsr_levels = vec![0.7, 0.85, 1.0];
    let curve = |lo: f64| {
        ErrorCurve::from_normalized_delays((0..32).map(|i| lo + 0.012 * f64::from(i)).collect())
            .expect("non-empty")
    };
    let a = vec![
        ThreadProfile::new(5_000.0, 1.0, curve(0.45)),
        ThreadProfile::new(6_000.0, 1.2, curve(0.5)),
    ];
    let b = vec![
        ThreadProfile::new(8_000.0, 1.1, curve(0.4)),
        ThreadProfile::new(4_000.0, 1.0, curve(0.55)),
        ThreadProfile::new(7_000.0, 1.3, curve(0.6)),
    ];
    // Pruned to the 7-point voltage frontier per thread, 7^12 ≈ 1.4e10
    // combinations dwarf the cap.
    let big_cfg = SystemConfig::paper_default(10.0);
    let big = vec![
        ThreadProfile::new(
            10.0,
            1.0,
            ErrorCurve::from_normalized_delays(vec![0.5; 4]).expect("non-empty")
        );
        12
    ];
    let stats = pruning_stats(&big_cfg, &big).expect("stats");
    assert!(stats.pruned_combinations > synts::core_api::EXHAUSTIVE_LIMIT);

    let mut requests = Vec::new();
    for theta in [1.0, 0.5, 1.0, f64::NAN, 2.0, 0.5] {
        requests.push(SolveRequest::new(&cfg, &a, theta));
    }
    for theta in [0.5, 3.0, 0.5] {
        requests.push(SolveRequest::new(&cfg, &b, theta));
    }
    for theta in [2.0, 0.0, 1.0] {
        requests.push(SolveRequest::new(&cfg, &a, theta));
    }
    for theta in [1.0, 2.0, 1.0] {
        requests.push(SolveRequest::new(&big_cfg, &big, theta));
    }
    let solver = SolverRegistry::with_defaults()
        .get("synts_exhaustive")
        .expect("registered");
    let elementwise: Vec<Result<Assignment, OptError>> = requests
        .iter()
        .map(|r| solver.solve(r.cfg, r.profiles, r.theta))
        .collect();
    assert_eq!(solver.solve_batch(&requests), elementwise);
    assert!(matches!(elementwise[3], Err(OptError::BadConfig(_))));
    assert_eq!(
        elementwise.iter().filter(|r| r.is_err()).count(),
        4,
        "only the NaN and the oversized instance fail"
    );
    for result in &elementwise[12..] {
        assert!(
            matches!(result, Err(OptError::TooLarge { .. })),
            "{result:?}"
        );
    }
}

/// θ < 0 rewards a *larger* barrier time, where dominance pruning no
/// longer preserves the optimum — the engine solvers refuse loudly
/// (solve and batch alike) instead of silently answering wrong, while
/// the naive references keep the old exact-at-any-θ behavior. NaN and
/// +∞ are refused too: at θ = +∞ every cost is infinite, so no solver
/// can rank two assignments.
#[test]
fn negative_theta_is_rejected_not_silently_suboptimal() {
    let mut cfg = SystemConfig::paper_default(10.0);
    cfg.voltages = VoltageTable::from_volts([1.0, 0.86]).expect("ok");
    cfg.tsr_levels = vec![0.7, 1.0];
    let curve =
        ErrorCurve::from_normalized_delays((0..32).map(|i| 0.4 + 0.015 * i as f64).collect())
            .expect("non-empty");
    let profiles = vec![
        ThreadProfile::new(5_000.0, 1.0, curve.clone()),
        ThreadProfile::new(6_000.0, 1.2, curve),
    ];
    let registry = SolverRegistry::with_defaults();
    for theta in [-5.0, -1e-9, f64::NAN, f64::INFINITY] {
        for name in [
            "synts_poly",
            "synts_milp",
            "synts_exhaustive",
            "per_core_ts",
        ] {
            let solver = registry.get(name).expect("registered");
            let err = solver
                .solve(&cfg, &profiles, theta)
                .expect_err("out-of-domain weight");
            assert!(matches!(err, OptError::BadConfig(_)), "{name}: {err}");
            let batch = solver.solve_batch(&[SolveRequest::new(&cfg, &profiles, theta)]);
            assert_eq!(
                batch[0].as_ref().expect_err("batch too").to_string(),
                err.to_string()
            );
        }
    }
    // The references still solve (and agree with each other) at θ < 0.
    let naive_poly = reference::synts_poly_naive(&cfg, &profiles, -5.0).expect("naive exact");
    let naive_ex = reference::synts_exhaustive_naive(&cfg, &profiles, -5.0).expect("naive exact");
    let (cp, ce) = (
        weighted_cost(&cfg, &profiles, &naive_poly, -5.0),
        weighted_cost(&cfg, &profiles, &naive_ex, -5.0),
    );
    assert!((cp - ce).abs() <= 1e-9 * ce.abs().max(1.0), "{cp} vs {ce}");
}

/// The MILP node budget is honored end-to-end and the error reports how
/// many nodes were explored before the budget ran out.
#[test]
fn milp_node_limit_reports_nodes() {
    use synts::core_api::solver::Milp;

    let mut cfg = SystemConfig::paper_default(10.0);
    cfg.voltages = VoltageTable::from_volts([1.0, 0.86, 0.72]).expect("ok");
    cfg.tsr_levels = vec![0.64, 0.82, 1.0];
    let curve = |lo: f64, hi: f64| {
        ErrorCurve::from_normalized_delays(
            (0..96).map(|i| lo + (hi - lo) * i as f64 / 96.0).collect(),
        )
        .expect("non-empty")
    };
    let profiles = vec![
        ThreadProfile::new(10_000.0, 1.2, curve(0.70, 1.00)),
        ThreadProfile::new(9_000.0, 1.1, curve(0.50, 0.85)),
        ThreadProfile::new(11_000.0, 1.0, curve(0.30, 0.65)),
    ];
    let strict: &dyn Solver<ErrorCurve> = &Milp::with_node_limit(0);
    let err = strict
        .solve(&cfg, &profiles, 1.0)
        .expect_err("zero node budget cannot finish");
    let msg = err.to_string();
    assert!(
        msg.contains("nodes"),
        "IterationLimit must report explored nodes: {msg}"
    );
    // A sane budget solves, and matches the unlimited configuration.
    let roomy: &dyn Solver<ErrorCurve> = &Milp::default();
    let a = roomy.solve(&cfg, &profiles, 1.0).expect("solves");
    let b = Milp::with_node_limit(100_000);
    let b: &dyn Solver<ErrorCurve> = &b;
    assert_eq!(a, b.solve(&cfg, &profiles, 1.0).expect("solves"));
}

/// The paper's case for Algorithm 1 is that the MILP costs far more to
/// solve. Counted in branch-and-bound nodes rather than wall time: on
/// the paper-default size (4 threads × 7 voltages × 6 TSR levels), a
/// 17-point θ sweep never needs more than 64 nodes per θ (the worst θ
/// takes 57, most take 13), and the MILP lands on SynTS-Poly's cost at
/// every θ.
#[test]
fn milp_sweep_stays_within_a_small_node_budget() {
    use synts::core_api::solver::Milp;

    let mut cfg = SystemConfig::paper_default(10.0);
    cfg.voltages =
        VoltageTable::from_volts((0..7).map(|j| 1.0 - 0.05 * f64::from(j))).expect("in range");
    cfg.tsr_levels = (0..6).map(|k| 0.64 + 0.36 * f64::from(k) / 5.0).collect();
    let profiles: Vec<ThreadProfile<ErrorCurve>> = (0..4)
        .map(|i| {
            let i = f64::from(i);
            let lo = 0.3 + 0.05 * i;
            let delays = (0..256).map(|n| lo + (0.99 - lo) * f64::from(n) / 256.0);
            ThreadProfile::new(
                5_000.0 + 1_000.0 * i,
                1.0 + 0.1 * i,
                ErrorCurve::from_normalized_delays(delays.collect()).expect("non-empty"),
            )
        })
        .collect();
    let milp: &dyn Solver<ErrorCurve> = &Milp::with_node_limit(64);
    for theta in log_theta_grid(1.0, 17, 2.0) {
        let exact = milp
            .solve(&cfg, &profiles, theta)
            .unwrap_or_else(|e| panic!("theta {theta}: {e}"));
        let poly = synts_poly(&cfg, &profiles, theta).expect("poly");
        let cm = weighted_cost(&cfg, &profiles, &exact, theta);
        let cp = weighted_cost(&cfg, &profiles, &poly, theta);
        assert!(
            (cm - cp).abs() <= 1e-6 * cp.abs().max(1.0),
            "theta {theta}: milp {cm} vs poly {cp}"
        );
    }
}
