//! Certification of the unified `Solver` API: every solver in the default
//! registry round-trips (name → lookup → solve → feasible assignment),
//! exact Eq-4.4 solvers agree with `synts_exhaustive` on small instances,
//! and no solver ever beats the exhaustive optimum of its shared
//! objective.

mod common;

use common::instance_strategy;
use proptest::prelude::*;
use synts::prelude::*;
use synts::timing::VoltageTable;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The registry round-trip: every registered name resolves, solves,
    /// and returns one in-range operating point per thread.
    #[test]
    fn every_registered_solver_round_trips(inst in instance_strategy()) {
        let registry = SolverRegistry::with_defaults();
        prop_assert!(registry.len() >= 9, "default registry too small");
        for name in registry.names() {
            let solver = registry.get(name).expect("names() entries resolve");
            prop_assert_eq!(solver.name(), name, "registry key must be the solver's name");
            let a = solver
                .solve(&inst.cfg, &inst.profiles, inst.theta)
                .unwrap_or_else(|e| panic!("{name} failed: {e}"));
            prop_assert_eq!(a.len(), inst.profiles.len(), "{}", name);
            for p in &a.points {
                prop_assert!(p.voltage_idx < inst.cfg.q(), "{}: voltage index", name);
                prop_assert!(p.tsr_idx < inst.cfg.s(), "{}: TSR index", name);
            }
        }
    }

    /// Exact solvers of the Eq 4.4 objective agree with exhaustive search;
    /// everything else is lower-bounded by it (the optimum is an optimum).
    #[test]
    fn registered_solvers_agree_with_exhaustive(inst in instance_strategy()) {
        let registry = SolverRegistry::with_defaults();
        let exhaustive = registry.get("synts_exhaustive").expect("registered");
        let optimum = {
            let a = exhaustive
                .solve(&inst.cfg, &inst.profiles, inst.theta)
                .expect("exhaustive");
            weighted_cost(&inst.cfg, &inst.profiles, &a, inst.theta)
        };
        for name in registry.names() {
            let solver = registry.get(name).expect("resolves");
            let a = solver
                .solve(&inst.cfg, &inst.profiles, inst.theta)
                .unwrap_or_else(|e| panic!("{name} failed: {e}"));
            let cost = weighted_cost(&inst.cfg, &inst.profiles, &a, inst.theta);
            prop_assert!(
                cost >= optimum * (1.0 - 1e-9),
                "{} beat the exhaustive optimum: {} vs {}", name, cost, optimum
            );
            let caps = solver.capabilities();
            if caps.exact && caps.objective == Objective::WeightedEnergyTime {
                prop_assert!(
                    (cost - optimum).abs() <= 1e-6 * optimum.abs().max(1.0),
                    "{} is declared exact but missed the optimum: {} vs {}",
                    name, cost, optimum
                );
            }
        }
    }

    /// Batch-vs-loop equivalence: for every registered solver,
    /// `solve_batch` over a θ grid sharing one instance equals
    /// element-wise `solve` — result for result, error for error. This is
    /// the contract the table-hoisting overrides (Poly, Milp) must keep.
    #[test]
    fn solve_batch_matches_elementwise_solve(inst in instance_strategy()) {
        let registry = SolverRegistry::with_defaults();
        let thetas = [0.0, 0.3 * inst.theta, inst.theta, 10.0 * inst.theta + 1.0];
        for name in registry.names() {
            let solver = registry.get(name).expect("registered");
            let requests: Vec<SolveRequest<'_, ErrorCurve>> = thetas
                .iter()
                .map(|&theta| SolveRequest::new(&inst.cfg, &inst.profiles, theta))
                .collect();
            let batch = solver.solve_batch(&requests);
            prop_assert_eq!(batch.len(), requests.len(), "{}", name);
            for (result, &theta) in batch.iter().zip(&thetas) {
                let direct = solver.solve(&inst.cfg, &inst.profiles, theta);
                match (result, direct) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(a, &b, "{} at theta {}", name, theta),
                    (Err(ea), Err(eb)) => prop_assert_eq!(
                        ea.to_string(), eb.to_string(), "{} at theta {}", name, theta
                    ),
                    (a, b) => panic!("{name} at theta {theta}: batch {a:?} vs direct {b:?}"),
                }
            }
        }
    }

    /// Interleaving two instances in one batch exercises the overrides'
    /// table-cache invalidation: a stale cache would silently reuse the
    /// wrong instance's tables.
    #[test]
    fn solve_batch_handles_interleaved_instances(
        a in instance_strategy(),
        b in instance_strategy(),
    ) {
        let registry = SolverRegistry::with_defaults();
        for name in ["synts_poly", "synts_milp"] {
            let solver = registry.get(name).expect("registered");
            let requests = vec![
                SolveRequest::new(&a.cfg, &a.profiles, a.theta),
                SolveRequest::new(&a.cfg, &a.profiles, b.theta),
                SolveRequest::new(&b.cfg, &b.profiles, a.theta),
                SolveRequest::new(&a.cfg, &a.profiles, a.theta),
                SolveRequest::new(&b.cfg, &b.profiles, b.theta),
            ];
            let batch = solver.solve_batch(&requests);
            for (result, req) in batch.iter().zip(&requests) {
                let direct = solver
                    .solve(req.cfg, req.profiles, req.theta)
                    .unwrap_or_else(|e| panic!("{name} failed: {e}"));
                let got = result.as_ref().unwrap_or_else(|e| panic!("{name} failed: {e}"));
                prop_assert_eq!(got, &direct, "{} (interleaved)", name);
            }
        }
    }
}

/// Deterministic spot check mirroring the paper's configuration: the three
/// exact solvers coincide on a paper-shaped (but exhaustively tractable)
/// instance, through the trait.
#[test]
fn exact_solvers_coincide_on_paper_shaped_instance() {
    let mut cfg = SystemConfig::paper_default(10.0);
    cfg.voltages = VoltageTable::from_volts([1.0, 0.86, 0.72]).expect("ok");
    cfg.tsr_levels = vec![0.64, 0.82, 1.0];
    let curve = |lo: f64, hi: f64| {
        ErrorCurve::from_normalized_delays(
            (0..200)
                .map(|i| lo + (hi - lo) * i as f64 / 200.0)
                .collect(),
        )
        .expect("non-empty")
    };
    let profiles = vec![
        ThreadProfile::new(10_000.0, 1.2, curve(0.70, 1.00)),
        ThreadProfile::new(9_000.0, 1.1, curve(0.50, 0.85)),
        ThreadProfile::new(11_000.0, 1.0, curve(0.30, 0.65)),
        ThreadProfile::new(8_000.0, 1.3, curve(0.45, 0.90)),
    ];
    let registry = SolverRegistry::with_defaults();
    for theta in [0.0, 0.05, 1.0, 50.0] {
        let costs: Vec<(&str, f64)> = ["synts_poly", "synts_milp", "synts_exhaustive"]
            .iter()
            .map(|&name| {
                let a = registry
                    .get(name)
                    .expect("registered")
                    .solve(&cfg, &profiles, theta)
                    .expect(name);
                (name, weighted_cost(&cfg, &profiles, &a, theta))
            })
            .collect();
        let reference = costs[2].1;
        for (name, cost) in costs {
            assert!(
                (cost - reference).abs() <= 1e-6 * reference.abs().max(1.0),
                "theta {theta}: {name} cost {cost} vs exhaustive {reference}"
            );
        }
    }
}
