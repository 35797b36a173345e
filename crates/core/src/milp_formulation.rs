//! SynTS-MILP — the paper's mixed-integer formulation (Sec 4.2.1,
//! Eq 4.5–4.10), lowered onto the [`milp`] solver.
//!
//! Variables: binaries `x_{ijk}` (thread `i` at voltage `j`, TSR `k`) and a
//! continuous `t_exec`. Because energy `en_{ijk}` and time `t_{ijk}` are
//! precomputable constants for each `(i, j, k)` (Eq 4.7–4.9 fold into the
//! tables), the objective and constraints are linear:
//!
//! * minimize `Σ en_{ijk} x_{ijk} + θ·t_exec`            (Eq 4.5)
//! * `t_exec ≥ Σ_jk t_{ijk} x_{ijk}`  for every thread    (Eq 4.6)
//! * `Σ_jk x_{ijk} = 1`               for every thread    (Eq 4.10)

use milp::{MilpOptions, Problem, Relation, Solution};
use timing::ErrorModel;

use crate::error::OptError;
use crate::model::{Assignment, OperatingPoint, SystemConfig, ThreadProfile};
use crate::poly::{self, PreparedTables, Tables};

/// Solves SynTS-OPT through the MILP formulation.
///
/// Produces the same optima as [`crate::synts_poly`] (verified by tests);
/// exists to reproduce the paper's formulation and as an independent
/// correctness oracle. Use the polynomial algorithm in anything online —
/// that asymmetry is the paper's point.
///
/// Since PR 5 the branch-and-bound is *warm-started*: Algorithm 1 on the
/// shared θ-independent `PreparedTables` supplies an optimal incumbent
/// in `O(M²·QS·log QS)`, whose objective bound prunes most of the MILP
/// tree immediately (best-first node order). The oracle property is
/// preserved — if the seed were ever suboptimal the tree search would
/// find and return the better solution — while a θ sweep pays a few
/// nodes per grid point instead of a cold search. The cold path survives
/// as [`crate::reference::synts_milp_naive`].
///
/// # Errors
///
/// * [`OptError::BadConfig`] / [`OptError::NoThreads`] for malformed input.
/// * [`OptError::Milp`] if the backing solver fails (should not happen for
///   well-formed instances: the all-nominal assignment is always feasible);
///   an exhausted node budget reports the nodes explored.
pub fn synts_milp<M: ErrorModel>(
    cfg: &SystemConfig,
    profiles: &[ThreadProfile<M>],
    theta: f64,
) -> Result<Assignment, OptError> {
    cfg.validate()?;
    poly::validate_theta(theta)?;
    if profiles.is_empty() {
        return Err(OptError::NoThreads);
    }
    let p = PreparedTables::build(cfg, profiles);
    solve_prepared(&p, theta, None)
}

/// The MILP lowering of Eq 4.5–4.10 over precomputed [`Tables`].
struct Lowering {
    problem: Problem,
    n_points: usize,
}

fn lower(t: &Tables, theta: f64) -> Lowering {
    let (m, q, s) = (t.m, t.q, t.s);
    let n_points = q * s;
    let n_vars = m * n_points + 1; // + t_exec
    let texec_var = m * n_points;

    // Normalize magnitudes so the simplex works near 1.0.
    let e_scale = t
        .energy
        .iter()
        .flatten()
        .fold(0.0f64, |a, &b| a.max(b))
        .max(1e-30);
    let t_scale = t
        .time
        .iter()
        .flatten()
        .fold(0.0f64, |a, &b| a.max(b))
        .max(1e-30);

    let mut p = Problem::minimize(n_vars);
    for i in 0..m {
        for idx in 0..n_points {
            let var = i * n_points + idx;
            p.set_objective(var, t.energy[i][idx] / e_scale);
            p.set_binary(var);
        }
    }
    // θ·t_exec with t_exec expressed in t_scale units: θ' = θ·t_scale/e_scale.
    p.set_objective(texec_var, theta * t_scale / e_scale);

    for i in 0..m {
        // Eq 4.10: one point per thread.
        let ones: Vec<(usize, f64)> = (0..n_points).map(|idx| (i * n_points + idx, 1.0)).collect();
        p.constraint(&ones, Relation::Eq, 1.0);
        // Eq 4.6: Σ t_ijk x_ijk − t_exec ≤ 0 (in t_scale units).
        let mut coeffs: Vec<(usize, f64)> = (0..n_points)
            .map(|idx| (i * n_points + idx, t.time[i][idx] / t_scale))
            .collect();
        coeffs.push((texec_var, -1.0));
        p.constraint(&coeffs, Relation::Le, 0.0);
    }
    Lowering {
        problem: p,
        n_points,
    }
}

fn extract(t: &Tables, low: &Lowering, sol: &Solution) -> Assignment {
    let mut points = Vec::with_capacity(t.m);
    for i in 0..t.m {
        let chosen = (0..low.n_points)
            .find(|idx| sol.x[i * low.n_points + idx] > 0.5)
            .expect("Eq 4.10 forces exactly one point per thread");
        points.push(OperatingPoint {
            voltage_idx: chosen / t.s,
            tsr_idx: chosen % t.s,
        });
    }
    Assignment { points }
}

/// The cold MILP path, exactly as before PR 5: the full `M·Q·S + 1`
/// variable lowering, depth-first branch-and-bound from scratch, no
/// incumbent. Kept as the reference baseline
/// ([`crate::reference::synts_milp_naive`]).
pub(crate) fn solve_on_tables(t: &Tables, theta: f64) -> Result<Assignment, OptError> {
    let low = lower(t, theta);
    let sol = low.problem.solve_milp()?;
    Ok(extract(t, &low, &sol))
}

/// The Eq 4.5–4.10 lowering restricted to the dominance-pruned candidate
/// space: one binary per *surviving* point instead of per `(i, j, k)`.
/// A dominated point can always be swapped for its dominator without
/// raising `t_exec` or any energy term, so the pruned MILP has exactly
/// the full problem's optimal cost with fewer columns and a smaller
/// branch set. Either lowering has 2M rows (Eq 4.6 and Eq 4.10 per
/// thread); the binaries' `x ≤ 1` are bounds, not rows.
struct PrunedLowering {
    problem: Problem,
    /// `offsets[i]`: first variable of thread `i`'s candidate block.
    offsets: Vec<usize>,
    texec_var: usize,
    t_scale: f64,
    e_scale: f64,
}

fn lower_pruned(p: &PreparedTables, theta: f64) -> PrunedLowering {
    let (t, st) = (&p.tables, &p.sorted);
    let m = t.m;
    let mut offsets = Vec::with_capacity(m);
    let mut n_x = 0usize;
    for i in 0..m {
        offsets.push(n_x);
        n_x += st.candidates(i).len();
    }
    let texec_var = n_x;

    // Normalize magnitudes (over the surviving points) so the simplex
    // works near 1.0.
    let surviving = (0..m).flat_map(|i| st.candidates(i).iter().map(move |&c| (i, c as usize)));
    let mut e_scale = 1e-30f64;
    let mut t_scale = 1e-30f64;
    for (i, idx) in surviving {
        e_scale = e_scale.max(t.energy[i][idx]);
        t_scale = t_scale.max(t.time[i][idx]);
    }

    let mut problem = Problem::minimize(n_x + 1);
    for i in 0..m {
        for (pos, &c) in st.candidates(i).iter().enumerate() {
            let var = offsets[i] + pos;
            problem.set_objective(var, t.energy[i][c as usize] / e_scale);
            problem.set_binary(var);
        }
    }
    // θ·t_exec with t_exec expressed in t_scale units: θ' = θ·t_scale/e_scale.
    problem.set_objective(texec_var, theta * t_scale / e_scale);

    for i in 0..m {
        let block = st.candidates(i);
        // Eq 4.10: one point per thread.
        let ones: Vec<(usize, f64)> = (0..block.len())
            .map(|pos| (offsets[i] + pos, 1.0))
            .collect();
        problem.constraint(&ones, Relation::Eq, 1.0);
        // Eq 4.6: Σ t_ijk x_ijk − t_exec ≤ 0 (in t_scale units).
        let mut coeffs: Vec<(usize, f64)> = block
            .iter()
            .enumerate()
            .map(|(pos, &c)| (offsets[i] + pos, t.time[i][c as usize] / t_scale))
            .collect();
        coeffs.push((texec_var, -1.0));
        problem.constraint(&coeffs, Relation::Le, 0.0);
    }
    PrunedLowering {
        problem,
        offsets,
        texec_var,
        t_scale,
        e_scale,
    }
}

/// Encodes Algorithm 1's optimum as a feasible solution of the pruned
/// lowering — the warm-start incumbent. minEnergy tie-breaking can pick
/// a dominated point, so each seed point is first remapped to a
/// surviving dominator (never raising time or energy). The objective is
/// computed with the problem's own scaled coefficients so the bound is
/// consistent with what the LP reports.
fn encode_incumbent(
    p: &PreparedTables,
    low: &PrunedLowering,
    seed: &Assignment,
    theta: f64,
) -> Solution {
    let (t, st) = (&p.tables, &p.sorted);
    let mut x = vec![0.0; low.texec_var + 1];
    let mut texec = 0.0f64;
    let mut energy_scaled = 0.0;
    for (i, point) in seed.points.iter().enumerate() {
        let idx = st.dominating_candidate(t, i, point.voltage_idx * t.s + point.tsr_idx);
        let pos = st
            .candidates(i)
            .iter()
            .position(|&c| c as usize == idx)
            .expect("dominating_candidate returns a surviving point");
        x[low.offsets[i] + pos] = 1.0;
        texec = texec.max(t.time[i][idx]);
        energy_scaled += t.energy[i][idx] / low.e_scale;
    }
    let texec_scaled = texec / low.t_scale;
    x[low.texec_var] = texec_scaled;
    let objective = energy_scaled + (theta * low.t_scale / low.e_scale) * texec_scaled;
    Solution { x, objective }
}

fn extract_pruned(p: &PreparedTables, low: &PrunedLowering, sol: &Solution) -> Assignment {
    let (t, st) = (&p.tables, &p.sorted);
    let mut points = Vec::with_capacity(t.m);
    for i in 0..t.m {
        let block = st.candidates(i);
        let chosen = (0..block.len())
            .find(|pos| sol.x[low.offsets[i] + pos] > 0.5)
            .expect("Eq 4.10 forces exactly one point per thread");
        points.push(t.point(block[chosen] as usize));
    }
    Assignment { points }
}

/// The warm-started MILP over shared [`PreparedTables`] — the batch hot
/// path: dominance-pruned lowering, incumbent seeded from Algorithm 1,
/// best-first branch-and-bound within `node_limit` nodes (`None` uses
/// [`milp::DEFAULT_NODE_LIMIT`]). Deliberately seeded from Algorithm 1 on
/// *this* θ (not the previous grid point's optimum): the seed is then
/// optimal, so the result never depends on how a sweep was chunked
/// across workers and the bit-identical-at-any-worker-count guarantee of
/// PR 2 holds.
pub(crate) fn solve_prepared(
    p: &PreparedTables,
    theta: f64,
    node_limit: Option<usize>,
) -> Result<Assignment, OptError> {
    let seed = poly::solve_prepared(p, theta)?;
    let low = lower_pruned(p, theta);
    let incumbent = encode_incumbent(p, &low, &seed, theta);
    let options = MilpOptions {
        incumbent: Some(incumbent),
        node_limit,
        best_first: true,
    };
    let sol = low.problem.solve_milp_with(&options)?;
    Ok(extract_pruned(p, &low, &sol))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::weighted_cost;
    use crate::poly::synts_poly;
    use timing::ErrorCurve;

    fn curve(delays: Vec<f64>) -> ErrorCurve {
        ErrorCurve::from_normalized_delays(delays).expect("non-empty")
    }

    fn small_instance(seed: u64) -> (SystemConfig, Vec<ThreadProfile<ErrorCurve>>) {
        let mut cfg = SystemConfig::paper_default(10.0);
        cfg.voltages = timing::VoltageTable::from_volts([1.0, 0.86, 0.72]).expect("ok");
        cfg.tsr_levels = vec![0.64, 0.8, 1.0];
        let mut state = seed;
        let mut rand01 = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let profiles = (0..3)
            .map(|_| {
                let base = 0.3 + 0.5 * rand01();
                let spread = 0.1 + 0.3 * rand01();
                let delays: Vec<f64> = (0..100)
                    .map(|i| (base + spread * (i as f64 / 100.0)).min(1.0))
                    .collect();
                ThreadProfile::new(1_000.0 + 9_000.0 * rand01(), 1.0 + rand01(), curve(delays))
            })
            .collect();
        (cfg, profiles)
    }

    #[test]
    fn milp_matches_poly_across_thetas_and_instances() {
        for seed in [1u64, 7, 42, 1234] {
            let (cfg, profiles) = small_instance(seed);
            for theta in [0.0, 0.05, 1.0, 50.0] {
                let a_milp = synts_milp(&cfg, &profiles, theta).expect("milp");
                let a_poly = synts_poly(&cfg, &profiles, theta).expect("poly");
                let cm = weighted_cost(&cfg, &profiles, &a_milp, theta);
                let cp = weighted_cost(&cfg, &profiles, &a_poly, theta);
                assert!(
                    (cm - cp).abs() <= 1e-6 * cp.abs().max(1.0),
                    "seed {seed} theta {theta}: milp {cm} vs poly {cp}"
                );
            }
        }
    }

    #[test]
    fn milp_matches_exhaustive() {
        let (cfg, profiles) = small_instance(99);
        let theta = 1.0;
        let a_milp = synts_milp(&cfg, &profiles, theta).expect("milp");
        let a_ex = crate::exhaustive::synts_exhaustive(&cfg, &profiles, theta).expect("ex");
        let cm = weighted_cost(&cfg, &profiles, &a_milp, theta);
        let ce = weighted_cost(&cfg, &profiles, &a_ex, theta);
        assert!((cm - ce).abs() <= 1e-6 * ce.abs().max(1.0));
    }

    #[test]
    fn rejects_empty() {
        let (cfg, _) = small_instance(5);
        let empty: Vec<ThreadProfile<ErrorCurve>> = Vec::new();
        assert_eq!(
            synts_milp(&cfg, &empty, 1.0).expect_err("no threads"),
            OptError::NoThreads
        );
    }
}
