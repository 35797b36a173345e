//! Bounded-variable primal simplex over a dense tableau.
//!
//! Every variable lies within bounds `lo ≤ x ≤ hi`: a binary's `x ≤ 1`
//! and a branch-and-bound node's tightened bound are bounds, not rows, so
//! the tableau holds one row per constraint. Row `i`, `a·x ⟨rel⟩ b`,
//! becomes `a·x + s_i = b` with a logical variable `s_i` whose bounds
//! encode the relation (`≤`: `s_i ≥ 0`, `≥`: `s_i ≤ 0`, `=`: `s_i = 0`).
//! A nonbasic variable rests at one of its bounds, and the ratio test
//! lets the entering variable reach its own opposite bound (a bound flip:
//! no pivot, the basis stays).
//!
//! Phase 1 starts from the all-logical basis with every structural at its
//! lower bound. A row whose logical would have to leave its bounds there
//! gets a basic artificial instead, and phase 1 minimizes the sum of the
//! artificials; phase 2 fixes them at zero and minimizes the objective.
//! Pricing reads a reduced-cost row that every pivot updates and picks
//! the largest violation (Dantzig's rule). After a run of degenerate
//! iterations it switches to Bland's smallest-index rule until the
//! objective moves again, so the method cannot cycle. On the SynTS
//! lowering of 4 threads the tableau has 8 rows, and a branch-and-bound
//! node's LP takes about 15 iterations (pivots and bound flips) from the
//! all-logical basis.

use crate::problem::{Problem, Relation, Solution, SolveError};

/// Pivot, reduced-cost and feasibility tolerance.
const EPS: f64 = 1e-9;
/// Iterations (pivots and bound flips, both phases) allowed per solve.
const MAX_ITERS: usize = 50_000;
/// Degenerate iterations in a row after which pricing turns to Bland's rule.
const DEGENERATE_RUN: usize = 8;

/// Where a variable currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Basic,
    AtLower,
    AtUpper,
}

/// Column layout: `[structural n | logical m | artificial]`.
struct Tableau {
    m: usize,
    ncols: usize,
    /// `m × ncols`, row-major: the constraint matrix times `B⁻¹`.
    a: Vec<f64>,
    /// Value of each row's basic variable.
    beta: Vec<f64>,
    /// Basic variable (column index) of each row.
    basis: Vec<usize>,
    state: Vec<State>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// Reduced costs of the current phase's objective.
    d: Vec<f64>,
    iters: usize,
}

impl Tableau {
    /// The value of nonbasic column `j`.
    fn at_bound(&self, j: usize) -> f64 {
        match self.state[j] {
            State::AtUpper => self.hi[j],
            _ => self.lo[j],
        }
    }

    /// Recomputes `d_j = c_j − Σ_i c_{basis_i} a_ij` from scratch.
    fn price(&mut self, cost: &[f64]) {
        self.d.copy_from_slice(cost);
        for i in 0..self.m {
            let cb = cost[self.basis[i]];
            if cb != 0.0 {
                let row = &self.a[i * self.ncols..(i + 1) * self.ncols];
                for (d, &a) in self.d.iter_mut().zip(row) {
                    *d -= cb * a;
                }
            }
        }
    }

    /// The entering column and its direction (`+1` up from its lower
    /// bound, `−1` down from its upper): the largest reduced-cost
    /// violation, or the first one under Bland's rule.
    fn entering(&self, bland: bool) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        let mut best_gain = 0.0;
        for (j, &dj) in self.d.iter().enumerate() {
            if self.hi[j] <= self.lo[j] {
                continue; // fixed: nowhere to move
            }
            let dir = match self.state[j] {
                State::AtLower if dj < -EPS => 1.0,
                State::AtUpper if dj > EPS => -1.0,
                _ => continue,
            };
            if bland {
                return Some((j, dir));
            }
            if dj.abs() > best_gain {
                best_gain = dj.abs();
                best = Some((j, dir));
            }
        }
        best
    }

    /// The step length along column `q` moving in direction `dir`, and
    /// the row that blocks it with the bound its basic variable reaches
    /// (`true`: upper), or `None` when `q` reaches its own opposite bound
    /// first. Ties between rows go to the larger pivot element, or under
    /// Bland's rule to the smaller variable index.
    fn ratio_test(&self, q: usize, dir: f64, bland: bool) -> (f64, Option<(usize, bool)>) {
        let mut step = self.hi[q] - self.lo[q];
        let mut block: Option<(usize, bool)> = None;
        for i in 0..self.m {
            let alpha = self.a[i * self.ncols + q];
            if alpha.abs() <= EPS {
                continue;
            }
            let b = self.basis[i];
            // x_b moves by `rate` per unit step of x_q.
            let rate = -dir * alpha;
            let (room, to_upper) = if rate > 0.0 {
                (self.hi[b] - self.beta[i], true)
            } else {
                (self.beta[i] - self.lo[b], false)
            };
            if room == f64::INFINITY {
                continue;
            }
            let limit = room.max(0.0) / rate.abs();
            let better = match block {
                _ if limit < step - EPS => true,
                Some((p, _)) if limit <= step + EPS => {
                    if bland {
                        b < self.basis[p]
                    } else {
                        alpha.abs() > self.a[p * self.ncols + q].abs()
                    }
                }
                _ => false,
            };
            if better {
                step = limit;
                block = Some((i, to_upper));
            }
        }
        (step, block)
    }

    /// Makes column `q` basic in row `p`, updating the reduced costs.
    fn pivot(&mut self, p: usize, q: usize) {
        let n = self.ncols;
        let scale = self.a[p * n + q];
        debug_assert!(scale.abs() > EPS, "pivot on (near-)zero element");
        for v in &mut self.a[p * n..(p + 1) * n] {
            *v /= scale;
        }
        let (before, rest) = self.a.split_at_mut(p * n);
        let (pivot_row, after) = rest.split_at_mut(n);
        for row in before.chunks_exact_mut(n).chain(after.chunks_exact_mut(n)) {
            let factor = row[q];
            if factor != 0.0 {
                for (v, &pr) in row.iter_mut().zip(pivot_row.iter()) {
                    *v -= factor * pr;
                }
                row[q] = 0.0;
            }
        }
        let dq = self.d[q];
        if dq != 0.0 {
            for (d, &pr) in self.d.iter_mut().zip(pivot_row.iter()) {
                *d -= dq * pr;
            }
            self.d[q] = 0.0;
        }
        self.basis[p] = q;
    }

    /// Runs simplex iterations on `cost` until no column prices out.
    fn optimize(&mut self, cost: &[f64]) -> Result<(), SolveError> {
        self.price(cost);
        let mut degenerate = 0usize;
        loop {
            let bland = degenerate >= DEGENERATE_RUN;
            let Some((q, dir)) = self.entering(bland) else {
                return Ok(());
            };
            if self.iters == MAX_ITERS {
                return Err(SolveError::PivotLimit { pivots: MAX_ITERS });
            }
            self.iters += 1;
            let (step, block) = self.ratio_test(q, dir, bland);
            if step == f64::INFINITY {
                return Err(SolveError::Unbounded);
            }
            let delta = dir * step;
            for i in 0..self.m {
                self.beta[i] -= delta * self.a[i * self.ncols + q];
            }
            match block {
                None => {
                    self.state[q] = if dir > 0.0 {
                        State::AtUpper
                    } else {
                        State::AtLower
                    };
                }
                Some((p, to_upper)) => {
                    let leaving = self.basis[p];
                    self.state[leaving] = if to_upper {
                        State::AtUpper
                    } else {
                        State::AtLower
                    };
                    self.beta[p] = self.at_bound(q) + delta;
                    self.state[q] = State::Basic;
                    self.pivot(p, q);
                }
            }
            if step > EPS {
                degenerate = 0;
            } else {
                degenerate += 1;
            }
        }
    }
}

/// Solves the LP relaxation of `problem` with structural bounds
/// `lo ≤ x ≤ hi` (`lo` finite).
pub(crate) fn solve(problem: &Problem, lo: &[f64], hi: &[f64]) -> Result<Solution, SolveError> {
    let n = problem.n;
    let m = problem.constraints.len();
    if lo.iter().zip(hi).any(|(l, h)| l > h) {
        return Err(SolveError::Infeasible);
    }

    // Each row's logical bounds and its residual with every structural at
    // its lower bound. A row whose logical cannot absorb its residual
    // starts on an artificial, which phase 1 drives to zero.
    let rows: Vec<(f64, f64, f64)> = problem
        .constraints
        .iter()
        .map(|c| {
            let (sl, su) = match c.rel {
                Relation::Le => (0.0, f64::INFINITY),
                Relation::Ge => (f64::NEG_INFINITY, 0.0),
                Relation::Eq => (0.0, 0.0),
            };
            let r = c.rhs - c.coeffs.iter().map(|&(v, a)| a * lo[v]).sum::<f64>();
            (sl, su, r)
        })
        .collect();
    let needs_artificial = |&(sl, su, r): &(f64, f64, f64)| r < sl - EPS || r > su + EPS;
    let n_art = rows.iter().filter(|row| needs_artificial(row)).count();
    let ncols = n + m + n_art;

    let mut t = Tableau {
        m,
        ncols,
        a: vec![0.0; m * ncols],
        beta: vec![0.0; m],
        basis: vec![0; m],
        state: vec![State::AtLower; ncols],
        lo: lo.to_vec(),
        hi: hi.to_vec(),
        d: vec![0.0; ncols],
        iters: 0,
    };
    let mut art = n + m;
    for (i, (c, &(sl, su, r))) in problem.constraints.iter().zip(&rows).enumerate() {
        t.lo.push(sl);
        t.hi.push(su);
        let s = n + i;
        let row = &mut t.a[i * ncols..(i + 1) * ncols];
        for &(v, a) in &c.coeffs {
            row[v] += a;
        }
        row[s] = 1.0;
        if !needs_artificial(&(sl, su, r)) {
            t.basis[i] = s;
            t.state[s] = State::Basic;
            t.beta[i] = r;
            continue;
        }
        // The logical rests at the bound it would violate; the row is
        // negated if need be so its artificial enters at a positive value.
        let (bound, state) = if r > su {
            (su, State::AtUpper)
        } else {
            (sl, State::AtLower)
        };
        t.state[s] = state;
        if r < bound {
            for v in row.iter_mut() {
                *v = -*v;
            }
        }
        row[art] = 1.0;
        t.basis[i] = art;
        t.state[art] = State::Basic;
        t.beta[i] = (r - bound).abs();
        art += 1;
    }
    t.lo.resize(ncols, 0.0);
    t.hi.resize(ncols, f64::INFINITY);

    if n_art > 0 {
        let mut phase1 = vec![0.0; ncols];
        phase1[n + m..].fill(1.0);
        t.optimize(&phase1)?;
        let w: f64 = (0..m)
            .filter(|&i| t.basis[i] >= n + m)
            .map(|i| t.beta[i])
            .sum();
        if w > 1e-7 {
            return Err(SolveError::Infeasible);
        }
        // Artificials are fixed at zero from here on: a nonbasic one can
        // never enter, and a basic one leaves at the first pivot its row
        // takes part in.
        t.hi[n + m..].fill(0.0);
    }

    let mut cost = vec![0.0; ncols];
    cost[..n].copy_from_slice(&problem.objective);
    t.optimize(&cost)?;

    let mut x: Vec<f64> = (0..n).map(|j| t.at_bound(j)).collect();
    for (i, &b) in t.basis.iter().enumerate() {
        if b < n {
            x[b] = t.beta[i];
        }
    }
    let objective = x.iter().zip(&problem.objective).map(|(x, c)| x * c).sum();
    Ok(Solution { x, objective })
}

#[cfg(test)]
mod tests {
    use crate::{Problem, Relation, SolveError};

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 => (2, 6), 36.
        let mut p = Problem::minimize(2);
        p.set_objective(0, -3.0);
        p.set_objective(1, -5.0);
        p.constraint(&[(0, 1.0)], Relation::Le, 4.0);
        p.constraint(&[(1, 2.0)], Relation::Le, 12.0);
        p.constraint(&[(0, 3.0), (1, 2.0)], Relation::Le, 18.0);
        let s = p.solve_lp().expect("feasible");
        assert!((s.objective + 36.0).abs() < 1e-9);
        assert!((s.x[0] - 2.0).abs() < 1e-9);
        assert!((s.x[1] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min x + y s.t. x + y = 10, x >= 3 => any split works, obj 10.
        let mut p = Problem::minimize(2);
        p.set_objective(0, 1.0);
        p.set_objective(1, 1.0);
        p.constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 10.0);
        p.constraint(&[(0, 1.0)], Relation::Ge, 3.0);
        let s = p.solve_lp().expect("feasible");
        assert!((s.objective - 10.0).abs() < 1e-9);
        assert!(s.x[0] >= 3.0 - 1e-9);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::minimize(1);
        p.constraint(&[(0, 1.0)], Relation::Le, 1.0);
        p.constraint(&[(0, 1.0)], Relation::Ge, 2.0);
        assert_eq!(
            p.solve_lp().expect_err("infeasible"),
            SolveError::Infeasible
        );
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::minimize(1);
        p.set_objective(0, -1.0); // minimize -x with x unconstrained above
        assert_eq!(p.solve_lp().expect_err("unbounded"), SolveError::Unbounded);
    }

    #[test]
    fn negative_rhs_normalized() {
        // x - y <= -2 with min x: y must exceed x by 2; x can be 0.
        let mut p = Problem::minimize(2);
        p.set_objective(0, 1.0);
        p.set_objective(1, 0.1);
        p.constraint(&[(0, 1.0), (1, -1.0)], Relation::Le, -2.0);
        let s = p.solve_lp().expect("feasible");
        assert!(s.x[1] - s.x[0] >= 2.0 - 1e-9);
        assert!((s.objective - 0.2).abs() < 1e-9);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Multiple redundant constraints through the optimum.
        let mut p = Problem::minimize(2);
        p.set_objective(0, -1.0);
        p.set_objective(1, -1.0);
        for _ in 0..4 {
            p.constraint(&[(0, 1.0), (1, 1.0)], Relation::Le, 1.0);
        }
        p.constraint(&[(0, 1.0)], Relation::Le, 1.0);
        let s = p.solve_lp().expect("feasible");
        assert!((s.objective + 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_constraint_problem() {
        // min x with no constraints: x = 0.
        let mut p = Problem::minimize(1);
        p.set_objective(0, 1.0);
        let s = p.solve_lp().expect("feasible");
        assert_eq!(s.objective, 0.0);
    }
}
