//! Branch-and-bound over the bounded-variable simplex relaxation.
//!
//! A node is a pair of bound vectors `lo ≤ x ≤ hi` over the one shared
//! [`Problem`]: branching on a fractional `x_v = val` tightens a single
//! bound (`hi_v = ⌊val⌋` down, `lo_v = ⌊val⌋ + 1` up) rather than adding
//! a row, so every node's LP has exactly the problem's rows and is solved
//! cold from the all-logical basis.
//!
//! The default configuration ([`MilpOptions::default`]) reproduces the
//! classic cold solve: depth-first, no incumbent, 100 K-node budget. The
//! θ-sweep hot path in `synts-core` instead *warm-starts* the search
//! ([`MilpOptions::incumbent`]): a known feasible solution seeds the
//! incumbent, so its objective bounds the tree from the first node and
//! subtrees whose relaxation cannot beat it are pruned before they are
//! ever expanded. Combined with best-first node ordering
//! ([`MilpOptions::best_first`]) a tight seed collapses the search to a
//! handful of nodes — the seed is returned verbatim unless the tree
//! proves something strictly better exists. Seeded with Algorithm 1's
//! optimum, the 162 solves of the six paper-quality figure specs explore
//! 1,726 nodes, about 15 simplex iterations each.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::problem::{MilpOptions, Problem, Solution, SolveError};
use crate::simplex;

const INT_TOL: f64 = 1e-6;

/// Default branch-and-bound node budget.
pub const DEFAULT_NODE_LIMIT: usize = 100_000;

/// Solves `problem` to integral optimality with the default options.
pub(crate) fn solve(problem: &Problem) -> Result<Solution, SolveError> {
    solve_with(problem, &MilpOptions::default())
}

/// One open node: its variable bounds, the LP bound inherited from its
/// parent's relaxation (a valid lower bound on every solution in the
/// subtree; the root starts unbounded), and a push sequence number for
/// deterministic tie-breaking.
struct Node {
    bound: f64,
    seq: u64,
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    /// Max-heap priority: the next node to pop is the one with the
    /// *smallest* lower bound, ties to the most recently pushed
    /// (largest `seq`) — deterministic and DFS-like among equals.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .bound
            .total_cmp(&self.bound)
            .then(self.seq.cmp(&other.seq))
    }
}

/// The open-node container: a LIFO stack for depth-first search, a
/// binary heap (O(log n) push/pop) for best-first.
enum OpenList {
    Dfs(Vec<Node>),
    BestFirst(BinaryHeap<Node>),
}

impl OpenList {
    fn new(best_first: bool, root: Node) -> OpenList {
        if best_first {
            OpenList::BestFirst(BinaryHeap::from([root]))
        } else {
            OpenList::Dfs(vec![root])
        }
    }

    fn push(&mut self, node: Node) {
        match self {
            OpenList::Dfs(stack) => stack.push(node),
            OpenList::BestFirst(heap) => heap.push(node),
        }
    }

    fn pop(&mut self) -> Option<Node> {
        match self {
            OpenList::Dfs(stack) => stack.pop(),
            OpenList::BestFirst(heap) => heap.pop(),
        }
    }
}

/// Solves `problem` to integral optimality under explicit [`MilpOptions`].
pub(crate) fn solve_with(problem: &Problem, options: &MilpOptions) -> Result<Solution, SolveError> {
    // Fast path: nothing integral.
    if !problem.integer.iter().any(|&b| b) {
        return problem.solve_lp();
    }
    // The incumbent is trusted feasible (the caller derived it from a
    // companion solver or a previous solve); it is only ever *replaced*
    // by something strictly better, so a suboptimal seed cannot worsen
    // the result — it just prunes less.
    let mut best: Option<Solution> = options.incumbent.clone();
    let mut open = OpenList::new(
        options.best_first,
        Node {
            bound: f64::NEG_INFINITY,
            seq: 0,
            lo: vec![0.0; problem.n],
            hi: problem.upper.clone(),
        },
    );
    let mut seq = 0u64;
    let node_limit = options.effective_node_limit();
    let mut nodes = 0usize;

    while let Some(node) = open.pop() {
        nodes += 1;
        if nodes > node_limit {
            return Err(SolveError::IterationLimit { nodes });
        }
        // Bound from the parent relaxation: prune without solving the LP.
        if let Some(ref inc) = best {
            if node.bound >= inc.objective - 1e-9 {
                continue;
            }
        }
        let relaxed = match simplex::solve(problem, &node.lo, &node.hi) {
            Ok(s) => s,
            Err(SolveError::Infeasible) => continue,
            Err(e) => return Err(e),
        };
        // Bound: prune if the relaxation can't beat the incumbent.
        if let Some(ref inc) = best {
            if relaxed.objective >= inc.objective - 1e-9 {
                continue;
            }
        }
        // Find the most fractional integer variable.
        let mut branch: Option<(usize, f64)> = None;
        for (v, &is_int) in problem.integer.iter().enumerate() {
            if !is_int {
                continue;
            }
            let val = relaxed.x[v];
            let frac = (val - val.round()).abs();
            if frac > INT_TOL {
                let dist_to_half = (val.fract() - 0.5).abs();
                match branch {
                    None => branch = Some((v, dist_to_half)),
                    Some((_, d)) if dist_to_half < d => branch = Some((v, dist_to_half)),
                    _ => {}
                }
            }
        }
        match branch {
            None => {
                // Integral: new incumbent (rounded clean).
                let mut x = relaxed.x.clone();
                for (v, &is_int) in problem.integer.iter().enumerate() {
                    if is_int {
                        x[v] = x[v].round();
                    }
                }
                best = Some(Solution {
                    objective: relaxed.objective,
                    x,
                });
            }
            Some((v, _)) => {
                let floor = relaxed.x[v].floor();
                // Down branch: x_v <= floor.
                let mut down_hi = node.hi.clone();
                down_hi[v] = floor;
                // Up branch: x_v >= floor + 1.
                let mut up_lo = node.lo.clone();
                up_lo[v] = floor + 1.0;
                seq += 1;
                open.push(Node {
                    bound: relaxed.objective,
                    seq,
                    lo: node.lo,
                    hi: down_hi,
                });
                seq += 1;
                open.push(Node {
                    bound: relaxed.objective,
                    seq,
                    lo: up_lo,
                    hi: node.hi,
                });
            }
        }
    }
    // No integral point anywhere in the tree means integral-infeasible.
    best.ok_or(SolveError::Infeasible)
}

#[cfg(test)]
mod tests {
    use crate::{MilpOptions, Problem, Relation, Solution, SolveError};

    #[test]
    fn knapsack_0_1() {
        // max 10a + 13b + 7c, weight 3a + 4b + 2c <= 6 => a + c? values:
        // a+b w=7 no; a+c w=5 val=17; b+c w=6 val=20 -> best b+c.
        let mut p = Problem::minimize(3);
        p.set_objective(0, -10.0);
        p.set_objective(1, -13.0);
        p.set_objective(2, -7.0);
        p.constraint(&[(0, 3.0), (1, 4.0), (2, 2.0)], Relation::Le, 6.0);
        for v in 0..3 {
            p.set_binary(v);
        }
        let s = p.solve_milp().expect("feasible");
        assert!((s.objective + 20.0).abs() < 1e-6);
        assert!(s.x[0].abs() < 1e-6);
        assert!((s.x[1] - 1.0).abs() < 1e-6);
        assert!((s.x[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn integer_rounding_matters() {
        // LP optimum is fractional; ILP must settle for less.
        // max x + y s.t. 2x + 2y <= 3, x, y binary -> LP 1.5, ILP 1.
        let mut p = Problem::minimize(2);
        p.set_objective(0, -1.0);
        p.set_objective(1, -1.0);
        p.constraint(&[(0, 2.0), (1, 2.0)], Relation::Le, 3.0);
        p.set_binary(0);
        p.set_binary(1);
        let lp = p.solve_lp().expect("lp");
        assert!((lp.objective + 1.5).abs() < 1e-9);
        let ilp = p.solve_milp().expect("ilp");
        assert!((ilp.objective + 1.0).abs() < 1e-6);
    }

    #[test]
    fn assignment_problem() {
        // 2 workers x 2 tasks, costs [[1, 10], [10, 2]]; best = 3.
        // x_ij binary, each worker one task, each task one worker.
        let mut p = Problem::minimize(4); // x00 x01 x10 x11
        let costs = [1.0, 10.0, 10.0, 2.0];
        for (v, &c) in costs.iter().enumerate() {
            p.set_objective(v, c);
            p.set_binary(v);
        }
        p.constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 1.0);
        p.constraint(&[(2, 1.0), (3, 1.0)], Relation::Eq, 1.0);
        p.constraint(&[(0, 1.0), (2, 1.0)], Relation::Eq, 1.0);
        p.constraint(&[(1, 1.0), (3, 1.0)], Relation::Eq, 1.0);
        let s = p.solve_milp().expect("feasible");
        assert!((s.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_integer_problem() {
        // 2x = 1 with x integer.
        let mut p = Problem::minimize(1);
        p.set_integer(0);
        p.constraint(&[(0, 2.0)], Relation::Eq, 1.0);
        assert_eq!(
            p.solve_milp().expect_err("no integral point"),
            SolveError::Infeasible
        );
    }

    #[test]
    fn continuous_passthrough() {
        let mut p = Problem::minimize(1);
        p.set_objective(0, 1.0);
        p.constraint(&[(0, 1.0)], Relation::Ge, 0.5);
        let s = p.solve_milp().expect("feasible");
        assert!(
            (s.x[0] - 0.5).abs() < 1e-9,
            "no integers declared: LP result"
        );
    }

    #[test]
    fn mixed_integer_and_continuous() {
        // min 2i + c s.t. i + c >= 2.5, i integer, c <= 0.4
        // -> c = 0.4, i = ceil(2.1) ... i >= 2.1 -> i = 3? obj 6.4;
        //    i = 2, c = 0.5 violates c <= 0.4; so i = 3, c = 0 is 6.0. Check:
        //    i=3, c=0 satisfies 3 >= 2.5. obj = 6.0 < 6.4. Optimal: 6.0.
        let mut p = Problem::minimize(2);
        p.set_objective(0, 2.0);
        p.set_objective(1, 1.0);
        p.constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 2.5);
        p.constraint(&[(1, 1.0)], Relation::Le, 0.4);
        p.set_integer(0);
        let s = p.solve_milp().expect("feasible");
        assert!((s.objective - 6.0).abs() < 1e-6, "got {}", s.objective);
        assert!((s.x[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn random_binary_problems_match_exhaustive() {
        // 4 binary vars, random objective and one random <= constraint;
        // brute force all 16 assignments.
        let mut state = 0x5bd1e995u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0 // [-1, 1)
        };
        for case in 0..40 {
            let c: Vec<f64> = (0..4).map(|_| next()).collect();
            let a: Vec<f64> = (0..4).map(|_| next().abs()).collect();
            let b = next().abs() * 2.0;
            let mut p = Problem::minimize(4);
            for v in 0..4 {
                p.set_objective(v, c[v]);
                p.set_binary(v);
            }
            let coeffs: Vec<(usize, f64)> = a.iter().cloned().enumerate().collect();
            p.constraint(&coeffs, crate::Relation::Le, b);
            let milp = p.solve_milp().expect("binary feasible: all-zero works");
            // Brute force.
            let mut best = f64::INFINITY;
            for bits in 0..16u32 {
                let xs: Vec<f64> = (0..4).map(|v| f64::from((bits >> v) & 1)).collect();
                let weight: f64 = xs.iter().zip(&a).map(|(x, w)| x * w).sum();
                if weight <= b + 1e-9 {
                    let obj: f64 = xs.iter().zip(&c).map(|(x, cc)| x * cc).sum();
                    best = best.min(obj);
                }
            }
            assert!(
                (milp.objective - best).abs() < 1e-6,
                "case {case}: milp {} vs brute {best}",
                milp.objective
            );
            // Best-first ordering finds the same optimum.
            let bf = p
                .solve_milp_with(&MilpOptions {
                    best_first: true,
                    ..MilpOptions::default()
                })
                .expect("feasible");
            assert!(
                (bf.objective - best).abs() < 1e-6,
                "case {case}: best-first {} vs brute {best}",
                bf.objective
            );
        }
    }

    /// An optimal incumbent is returned verbatim: nothing in the tree can
    /// beat it, so the warm start short-circuits the whole search.
    #[test]
    fn optimal_incumbent_survives_and_is_returned() {
        let mut p = Problem::minimize(3);
        p.set_objective(0, -10.0);
        p.set_objective(1, -13.0);
        p.set_objective(2, -7.0);
        p.constraint(&[(0, 3.0), (1, 4.0), (2, 2.0)], Relation::Le, 6.0);
        for v in 0..3 {
            p.set_binary(v);
        }
        let seed = Solution {
            x: vec![0.0, 1.0, 1.0],
            objective: -20.0,
        };
        let s = p
            .solve_milp_with(&MilpOptions {
                incumbent: Some(seed.clone()),
                best_first: true,
                ..MilpOptions::default()
            })
            .expect("feasible");
        assert_eq!(s, seed, "nothing beats the optimum: the seed comes back");
    }

    /// A deliberately suboptimal incumbent is *replaced*, not returned: the
    /// warm start is an upper bound, never a blindfold.
    #[test]
    fn suboptimal_incumbent_is_improved() {
        let mut p = Problem::minimize(3);
        p.set_objective(0, -10.0);
        p.set_objective(1, -13.0);
        p.set_objective(2, -7.0);
        p.constraint(&[(0, 3.0), (1, 4.0), (2, 2.0)], Relation::Le, 6.0);
        for v in 0..3 {
            p.set_binary(v);
        }
        // a + c: weight 5, value 17 — feasible but not optimal.
        let seed = Solution {
            x: vec![1.0, 0.0, 1.0],
            objective: -17.0,
        };
        let s = p
            .solve_milp_with(&MilpOptions {
                incumbent: Some(seed),
                ..MilpOptions::default()
            })
            .expect("feasible");
        assert!((s.objective + 20.0).abs() < 1e-6, "got {}", s.objective);
    }

    /// The node budget is enforced and the error reports how many nodes
    /// were actually explored before giving up.
    #[test]
    fn node_limit_reports_nodes_explored() {
        let mut p = Problem::minimize(2);
        p.set_objective(0, -1.0);
        p.set_objective(1, -1.0);
        p.constraint(&[(0, 2.0), (1, 2.0)], Relation::Le, 3.0);
        p.set_binary(0);
        p.set_binary(1);
        let err = p
            .solve_milp_with(&MilpOptions::default().with_node_limit(0))
            .expect_err("zero budget");
        assert_eq!(err, SolveError::IterationLimit { nodes: 1 });
        let msg = err.to_string();
        assert!(msg.contains('1'), "nodes surface in the message: {msg}");
    }
}
