//! Property tests for the LP/MILP solver: relaxation bounds, feasibility
//! of returned points, binary integrality.
//!
//! Two generators: a single `≤` knapsack row over 2–4 binaries, and
//! instances shaped like the SynTS lowering — one-hot `=` blocks, a
//! `Σ a·x − t ≤ 0` row per block over a shared continuous `t`, and an
//! optional `t ≥ τ` row — which reach phase-1 artificials, `≥` rows, a
//! continuous variable and up-branches that raise a lower bound to 1.

use milp::{MilpOptions, Problem, Relation, Solution};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandomBinary {
    costs: Vec<f64>,
    weights: Vec<f64>,
    budget: f64,
}

fn binary_strategy() -> impl Strategy<Value = RandomBinary> {
    (2usize..5).prop_flat_map(|n| {
        (
            prop::collection::vec(-5.0f64..5.0, n),
            prop::collection::vec(0.1f64..3.0, n),
            0.5f64..6.0,
        )
            .prop_map(|(costs, weights, budget)| RandomBinary {
                costs,
                weights,
                budget,
            })
    })
}

fn build(rb: &RandomBinary) -> Problem {
    let n = rb.costs.len();
    let mut p = Problem::minimize(n);
    for v in 0..n {
        p.set_objective(v, rb.costs[v]);
        p.set_binary(v);
    }
    let coeffs: Vec<(usize, f64)> = rb.weights.iter().copied().enumerate().collect();
    p.constraint(&coeffs, Relation::Le, rb.budget);
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lp_relaxation_lower_bounds_the_milp(rb in binary_strategy()) {
        let p = build(&rb);
        let lp = p.solve_lp().expect("all-zero is feasible");
        let milp = p.solve_milp().expect("all-zero is feasible");
        prop_assert!(lp.objective <= milp.objective + 1e-6,
            "LP {} must lower-bound MILP {}", lp.objective, milp.objective);
    }

    #[test]
    fn milp_solution_is_feasible_and_binary(rb in binary_strategy()) {
        let p = build(&rb);
        let sol = p.solve_milp().expect("feasible");
        let mut weight = 0.0;
        for (x, w) in sol.x.iter().zip(&rb.weights) {
            prop_assert!((x.round() - x).abs() < 1e-6, "non-integral {x}");
            prop_assert!(*x > -1e-9 && *x < 1.0 + 1e-9, "out of binary range {x}");
            weight += x * w;
        }
        prop_assert!(weight <= rb.budget + 1e-6, "constraint violated");
    }

    #[test]
    fn milp_matches_brute_force(rb in binary_strategy()) {
        let p = build(&rb);
        let sol = p.solve_milp().expect("feasible");
        let n = rb.costs.len();
        let mut best = f64::INFINITY;
        for bits in 0u32..(1 << n) {
            let xs: Vec<f64> = (0..n).map(|v| f64::from((bits >> v) & 1)).collect();
            let w: f64 = xs.iter().zip(&rb.weights).map(|(x, w)| x * w).sum();
            if w <= rb.budget + 1e-9 {
                let c: f64 = xs.iter().zip(&rb.costs).map(|(x, c)| x * c).sum();
                best = best.min(c);
            }
        }
        prop_assert!((sol.objective - best).abs() < 1e-6,
            "milp {} vs brute {best}", sol.objective);
    }
}

/// A SynTS-shaped instance: pick one binary per block, pay its cost, and
/// pay `theta · t` where `t` is at least every chosen weight and `floor`.
#[derive(Debug, Clone)]
struct OneHot {
    /// `(cost, weight)` of each binary, block by block.
    blocks: Vec<Vec<(f64, f64)>>,
    theta: f64,
    floor: Option<f64>,
}

fn one_hot_strategy() -> impl Strategy<Value = OneHot> {
    (
        prop::collection::vec(
            prop::collection::vec((-5.0f64..5.0, 0.1f64..3.0), 2..6),
            2..5,
        ),
        0.0f64..4.0,
        any::<bool>(),
        0.0f64..3.0,
    )
        .prop_map(|(blocks, theta, has_floor, tau)| OneHot {
            blocks,
            theta,
            floor: has_floor.then_some(tau),
        })
}

impl OneHot {
    /// Index of the continuous `t`, after every binary.
    fn t(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }

    fn build(&self) -> Problem {
        let t = self.t();
        let mut p = Problem::minimize(t + 1);
        let mut first = 0;
        for block in &self.blocks {
            let vars = first..first + block.len();
            for (v, &(cost, _)) in vars.clone().zip(block) {
                p.set_objective(v, cost);
                p.set_binary(v);
            }
            let ones: Vec<(usize, f64)> = vars.clone().map(|v| (v, 1.0)).collect();
            p.constraint(&ones, Relation::Eq, 1.0);
            let mut row: Vec<(usize, f64)> = vars.zip(block).map(|(v, &(_, w))| (v, w)).collect();
            row.push((t, -1.0));
            p.constraint(&row, Relation::Le, 0.0);
            first += block.len();
        }
        p.set_objective(t, self.theta);
        if let Some(tau) = self.floor {
            p.constraint(&[(t, 1.0)], Relation::Ge, tau);
        }
        p
    }

    /// Every feasible choice of one binary per block (at most 5⁴), each
    /// with the smallest `t` it allows.
    fn choices(&self) -> Vec<Solution> {
        let t = self.t();
        let mut pick = vec![0usize; self.blocks.len()];
        let mut out = Vec::new();
        loop {
            let mut x = vec![0.0; t + 1];
            let mut cost = 0.0;
            let mut texec = self.floor.unwrap_or(0.0);
            let mut first = 0;
            for (block, &k) in self.blocks.iter().zip(&pick) {
                x[first + k] = 1.0;
                cost += block[k].0;
                texec = texec.max(block[k].1);
                first += block.len();
            }
            x[t] = texec;
            out.push(Solution {
                x,
                objective: cost + self.theta * texec,
            });
            // Odometer over the blocks.
            let mut b = 0;
            while b < pick.len() {
                pick[b] += 1;
                if pick[b] < self.blocks[b].len() {
                    break;
                }
                pick[b] = 0;
                b += 1;
            }
            if b == pick.len() {
                return out;
            }
        }
    }
}

fn by_objective(a: &&Solution, b: &&Solution) -> std::cmp::Ordering {
    a.objective.total_cmp(&b.objective)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_hot_milp_matches_brute_force_and_lp_bounds_it(oh in one_hot_strategy()) {
        let p = oh.build();
        let choices = oh.choices();
        let best = choices.iter().min_by(by_objective).expect("a choice");
        let lp = p.solve_lp().expect("one choice per block is feasible");
        for best_first in [false, true] {
            let milp = p
                .solve_milp_with(&MilpOptions { best_first, ..MilpOptions::default() })
                .expect("one choice per block is feasible");
            prop_assert!((milp.objective - best.objective).abs() < 1e-6,
                "best_first {best_first}: milp {} vs brute {}", milp.objective, best.objective);
            prop_assert!(lp.objective <= milp.objective + 1e-6,
                "LP {} must lower-bound MILP {}", lp.objective, milp.objective);
        }
    }

    #[test]
    fn one_hot_milp_point_is_integral_and_feasible(oh in one_hot_strategy()) {
        let p = oh.build();
        let sol = p.solve_milp().expect("feasible");
        let t = sol.x[oh.t()];
        prop_assert!(t >= oh.floor.unwrap_or(0.0) - 1e-9, "t {t} below its floor");
        let mut first = 0;
        for block in &oh.blocks {
            let xs = &sol.x[first..first + block.len()];
            for &x in xs {
                prop_assert!(x == 0.0 || x == 1.0, "non-binary {x}");
            }
            prop_assert_eq!(xs.iter().sum::<f64>(), 1.0, "one-hot block {:?}", xs);
            let load: f64 = xs.iter().zip(block).map(|(x, &(_, w))| x * w).sum();
            prop_assert!(t >= load - 1e-9, "t {t} below block load {load}");
            first += block.len();
        }
    }

    #[test]
    fn one_hot_incumbent_is_kept_if_optimal_and_improved_if_not(oh in one_hot_strategy()) {
        let p = oh.build();
        let choices = oh.choices();
        let best = choices.iter().min_by(by_objective).expect("a choice");
        let worst = choices.iter().max_by(by_objective).expect("a choice");
        for best_first in [false, true] {
            let seeded = |seed: &Solution| {
                p.solve_milp_with(&MilpOptions {
                    incumbent: Some(seed.clone()),
                    best_first,
                    ..MilpOptions::default()
                })
                .expect("feasible")
            };
            prop_assert_eq!(&seeded(best), best, "best_first {}", best_first);
            if worst.objective > best.objective + 1e-6 {
                let improved = seeded(worst);
                prop_assert!((improved.objective - best.objective).abs() < 1e-6,
                    "best_first {best_first}: seeded {} vs brute {}",
                    improved.objective, best.objective);
            }
        }
    }
}
