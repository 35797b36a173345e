//! # milp — a small dense LP/MILP solver
//!
//! The SynTS paper reduces its joint voltage/frequency/speculation
//! assignment to a mixed-integer linear program, SynTS-MILP (Sec 4.2.1,
//! Eq 4.5–4.10), and hands it to "a standard MILP solver". No such solver is
//! available offline, so this crate supplies one: a bounded-variable primal
//! simplex over a dense tableau, wrapped in a branch-and-bound for integer
//! variables.
//!
//! Variable bounds are bounds, not rows: a binary's `x ≤ 1` and every
//! branch (`x ≤ ⌊v⌋` or `x ≥ ⌊v⌋ + 1`) only change a bound, so the
//! tableau holds just the problem's own constraints — 2M rows for the
//! SynTS lowering of M threads. Pricing keeps a reduced-cost row that each
//! pivot updates and uses Dantzig's rule, falling back to Bland's rule
//! after a run of degenerate pivots so the method cannot cycle.
//!
//! It is deliberately small — SynTS-MILP has `M·Q·S + 1` variables
//! (169 for the paper's configuration) — and exact: solutions are validated
//! against exhaustive enumeration and against the paper's polynomial
//! algorithm in the `synts-core` test-suite. On the six paper-quality
//! figure specs (M = 4 threads, 27 solves each, warm-started from
//! Algorithm 1) one pass of all six explores 1,726 branch-and-bound nodes
//! in 26,438 simplex iterations over 8-row tableaus.
//!
//! ```
//! use milp::{Problem, Relation};
//!
//! # fn main() -> Result<(), milp::SolveError> {
//! // maximize x + y  s.t. x + 2y <= 4, 3x + y <= 6, x,y >= 0
//! // (as minimization of -(x + y))
//! let mut p = Problem::minimize(2);
//! p.set_objective(0, -1.0);
//! p.set_objective(1, -1.0);
//! p.constraint(&[(0, 1.0), (1, 2.0)], Relation::Le, 4.0);
//! p.constraint(&[(0, 3.0), (1, 1.0)], Relation::Le, 6.0);
//! let sol = p.solve_lp()?;
//! assert!((sol.objective - (-2.8)).abs() < 1e-9); // x=1.6, y=1.2
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]

mod bb;
mod problem;
mod simplex;

pub use bb::DEFAULT_NODE_LIMIT;
pub use problem::{MilpOptions, Problem, Relation, Solution, SolveError};
