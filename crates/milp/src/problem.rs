//! Problem construction API and solver entry points.

use std::error::Error;
use std::fmt;

/// Relation of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `a·x ≤ b`
    Le,
    /// `a·x ≥ b`
    Ge,
    /// `a·x = b`
    Eq,
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    pub(crate) coeffs: Vec<(usize, f64)>,
    pub(crate) rel: Relation,
    pub(crate) rhs: f64,
}

/// Why a solve failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SolveError {
    /// The constraint set admits no feasible point.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
    /// The branch-and-bound node budget was exhausted after exploring
    /// `nodes` nodes — the count tells the caller how far the search got
    /// before giving up, so a budget ([`MilpOptions::node_limit`]) can
    /// be sized from evidence.
    IterationLimit {
        /// Branch-and-bound nodes explored.
        nodes: usize,
    },
    /// One LP solve exhausted the simplex pivot budget — a numerical
    /// conditioning problem (e.g. an enormous objective coefficient),
    /// *not* a tree-size problem: raising
    /// [`MilpOptions::node_limit`] will not help.
    PivotLimit {
        /// Simplex pivots performed before giving up.
        pivots: usize,
    },
    /// A constraint referenced a variable index outside the problem.
    BadVariable(usize),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "problem is infeasible"),
            SolveError::Unbounded => write!(f, "objective is unbounded"),
            SolveError::IterationLimit { nodes } => {
                write!(f, "iteration limit exhausted after {nodes} nodes")
            }
            SolveError::PivotLimit { pivots } => {
                write!(f, "simplex pivot limit exhausted after {pivots} pivots")
            }
            SolveError::BadVariable(i) => write!(f, "unknown variable index {i}"),
        }
    }
}

impl Error for SolveError {}

/// An optimal solution.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Values of the structural variables.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub objective: f64,
}

/// Tuning for [`Problem::solve_milp_with`]: warm start, node budget and
/// exploration order.
///
/// [`MilpOptions::default`] reproduces [`Problem::solve_milp`] exactly
/// (cold depth-first search, 100 K-node budget).
#[derive(Debug, Clone, Default)]
pub struct MilpOptions {
    /// A known feasible solution used as the initial incumbent. Its
    /// objective bounds the branch-and-bound tree from the very first
    /// node, so subtrees that cannot beat it are pruned without being
    /// expanded. The seed is trusted feasible (callers derive it from a
    /// previous solve or a companion exact solver) and is returned
    /// unchanged unless the search finds something strictly better —
    /// a suboptimal seed can only cost pruning power, never optimality.
    pub incumbent: Option<Solution>,
    /// Maximum branch-and-bound nodes to explore before giving up with
    /// [`SolveError::IterationLimit`]; `None` means the built-in budget
    /// ([`crate::DEFAULT_NODE_LIMIT`]).
    pub node_limit: Option<usize>,
    /// Pop the open node with the smallest LP lower bound first instead
    /// of depth-first. With a tight incumbent this prunes most of the
    /// tree immediately; without one it trades stack discipline for
    /// earlier bound improvements.
    pub best_first: bool,
}

impl MilpOptions {
    /// This configuration with an explicit node budget.
    #[must_use]
    pub fn with_node_limit(mut self, node_limit: usize) -> MilpOptions {
        self.node_limit = Some(node_limit);
        self
    }

    /// The effective node budget (`node_limit`, or the crate default
    /// when unset).
    #[must_use]
    pub fn effective_node_limit(&self) -> usize {
        self.node_limit.unwrap_or(crate::DEFAULT_NODE_LIMIT)
    }
}

/// A linear program / mixed-integer linear program in minimization form:
/// `min c·x` subject to linear constraints and `x ≥ 0`.
///
/// Mark variables integral with [`Problem::set_integer`] and solve with
/// [`Problem::solve_milp`]; leave all continuous and use
/// [`Problem::solve_lp`].
#[derive(Debug, Clone)]
pub struct Problem {
    pub(crate) n: usize,
    pub(crate) objective: Vec<f64>,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) integer: Vec<bool>,
    /// Upper bound of each variable: 1 for a binary, otherwise unbounded.
    pub(crate) upper: Vec<f64>,
}

impl Problem {
    /// A minimization problem over `n` non-negative variables with an
    /// all-zero objective (set coefficients with [`Problem::set_objective`]).
    #[must_use]
    pub fn minimize(n: usize) -> Problem {
        Problem {
            n,
            objective: vec![0.0; n],
            constraints: Vec::new(),
            integer: vec![false; n],
            upper: vec![f64::INFINITY; n],
        }
    }

    /// Number of structural variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Number of constraint rows added so far with
    /// [`Problem::constraint`]. A binary's bound is not a row.
    #[must_use]
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Sets the objective coefficient of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn set_objective(&mut self, var: usize, coeff: f64) {
        assert!(var < self.n, "variable {var} out of range");
        self.objective[var] = coeff;
    }

    /// Adds the constraint `Σ coeffs ⟨rel⟩ rhs`.
    ///
    /// Duplicate variable entries are summed.
    ///
    /// # Panics
    ///
    /// Panics if any variable index is out of range.
    pub fn constraint(&mut self, coeffs: &[(usize, f64)], rel: Relation, rhs: f64) {
        for &(v, _) in coeffs {
            assert!(v < self.n, "variable {v} out of range");
        }
        self.constraints.push(Constraint {
            coeffs: coeffs.to_vec(),
            rel,
            rhs,
        });
    }

    /// Declares variable `var` integer-valued (for [`Problem::solve_milp`]).
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn set_integer(&mut self, var: usize) {
        assert!(var < self.n, "variable {var} out of range");
        self.integer[var] = true;
    }

    /// Declares variable `var` binary: integer with `0 ≤ var ≤ 1`. The
    /// upper bound is kept as a bound, not a constraint row, so it adds
    /// nothing to [`Problem::num_constraints`] or to the simplex tableau.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn set_binary(&mut self, var: usize) {
        self.set_integer(var);
        self.upper[var] = 1.0;
    }

    /// Solves the continuous relaxation (binaries within `[0, 1]`) with
    /// the bounded-variable simplex.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`], [`SolveError::Unbounded`] or
    /// [`SolveError::PivotLimit`].
    pub fn solve_lp(&self) -> Result<Solution, SolveError> {
        crate::simplex::solve(self, &vec![0.0; self.n], &self.upper)
    }

    /// Solves the problem respecting integrality via branch-and-bound.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] if no integral feasible point exists,
    /// [`SolveError::Unbounded`] if the relaxation is unbounded,
    /// [`SolveError::IterationLimit`] if the node budget is exhausted, or
    /// [`SolveError::PivotLimit`] if one node's LP exhausts its pivot
    /// budget.
    pub fn solve_milp(&self) -> Result<Solution, SolveError> {
        crate::bb::solve(self)
    }

    /// [`Problem::solve_milp`] under explicit [`MilpOptions`]: an
    /// optional warm-start incumbent, a configurable node budget, and
    /// best-first node ordering.
    ///
    /// # Errors
    ///
    /// As [`Problem::solve_milp`]; [`SolveError::IterationLimit`] reports
    /// the nodes explored when the budget runs out.
    pub fn solve_milp_with(&self, options: &MilpOptions) -> Result<Solution, SolveError> {
        crate::bb::solve_with(self, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validation_panics_on_bad_var() {
        let mut p = Problem::minimize(2);
        p.set_objective(1, 1.0);
        let result = std::panic::catch_unwind(move || {
            p.set_objective(5, 1.0);
        });
        assert!(result.is_err());
    }

    #[test]
    fn counts() {
        let mut p = Problem::minimize(3);
        p.constraint(&[(0, 1.0)], Relation::Le, 1.0);
        p.set_binary(2);
        assert_eq!(p.num_vars(), 3);
        assert_eq!(p.num_constraints(), 1, "a binary's bound is not a row");
    }

    #[test]
    fn error_display() {
        assert_eq!(SolveError::Infeasible.to_string(), "problem is infeasible");
    }
}
