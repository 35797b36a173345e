//! SynTS-Poly — the paper's Algorithm 1, an exact polynomial-time solver
//! for SynTS-OPT (Eq 4.4).
//!
//! The algorithm iteratively designates each thread as the *critical* thread
//! (the one that reaches the barrier last), tries every voltage/TSR
//! combination for it — which pins the barrier time `t_exec` — and gives
//! every other thread its cheapest operating point that still finishes by
//! `t_exec` (`minEnergy`). Of all `M·Q·S` candidate configurations, the one
//! with the lowest weighted cost is optimal (Lemma 4.2.1): the true optimum
//! has *some* critical thread at *some* operating point, and that case is
//! enumerated; non-critical threads affect only the energy term, for which
//! the greedy per-thread minimum subject to the deadline is exact.
//!
//! Runtime: `O(M²Q²S²)` naïvely. The sweep-scale engine below cuts the
//! inner `minEnergy` query to a binary search over [`SortedTables`] —
//! per-thread operating points sorted by time with prefix-minimum energy
//! arrays — and enumerates only dominance-pruned critical candidates, for
//! `O(M²·QS·log QS)` per θ. Both structures are θ-independent, so
//! [`crate::Solver::solve_batch`] builds them once and shares them across
//! a whole θ chunk. The pre-engine scan survives as
//! [`crate::reference::synts_poly_naive`], the executable spec the fast
//! path is property-tested against.

use timing::ErrorModel;

use crate::error::OptError;
use crate::model::{Assignment, OperatingPoint, SystemConfig, ThreadProfile};

/// Per-(thread, voltage, TSR) tables of time and energy, precomputed once.
pub(crate) struct Tables {
    pub(crate) m: usize,
    pub(crate) q: usize,
    pub(crate) s: usize,
    /// `time[i][j*s + k]`
    pub(crate) time: Vec<Vec<f64>>,
    /// `energy[i][j*s + k]`
    pub(crate) energy: Vec<Vec<f64>>,
}

impl Tables {
    pub(crate) fn build<M: ErrorModel>(
        cfg: &SystemConfig,
        profiles: &[ThreadProfile<M>],
    ) -> Tables {
        let (q, s) = (cfg.q(), cfg.s());
        let mut time = Vec::with_capacity(profiles.len());
        let mut energy = Vec::with_capacity(profiles.len());
        for prof in profiles {
            // err depends only on r: evaluate once per TSR level.
            let p: Vec<f64> = cfg.tsr_levels.iter().map(|&r| prof.err.err(r)).collect();
            let mut t_row = Vec::with_capacity(q * s);
            let mut e_row = Vec::with_capacity(q * s);
            for j in 0..q {
                let v = cfg.voltages.levels()[j];
                let tnom = cfg.tnom(v);
                for k in 0..s {
                    let cycles = prof.cycles(p[k], cfg.c_penalty);
                    t_row.push(cfg.tsr_levels[k] * tnom * cycles);
                    e_row.push(cfg.alpha * v.energy_scale() * cycles);
                }
            }
            time.push(t_row);
            energy.push(e_row);
        }
        Tables {
            m: profiles.len(),
            q,
            s,
            time,
            energy,
        }
    }

    /// The operating point behind flat table index `idx`.
    pub(crate) fn point(&self, idx: usize) -> OperatingPoint {
        OperatingPoint {
            voltage_idx: idx / self.s,
            tsr_idx: idx % self.s,
        }
    }

    /// `minEnergy(l, texec)` from Algorithm 1: the cheapest point of thread
    /// `l` finishing by `texec`, or `None` if no point meets the deadline.
    pub(crate) fn min_energy(&self, l: usize, texec: f64) -> Option<(f64, OperatingPoint)> {
        let mut best: Option<(f64, OperatingPoint)> = None;
        let bound = deadline(texec);
        for j in 0..self.q {
            for k in 0..self.s {
                let idx = j * self.s + k;
                if self.time[l][idx] <= bound {
                    let en = self.energy[l][idx];
                    if best.is_none_or(|(b, _)| en < b) {
                        best = Some((
                            en,
                            OperatingPoint {
                                voltage_idx: j,
                                tsr_idx: k,
                            },
                        ));
                    }
                }
            }
        }
        best
    }
}

/// Deadline slack used by every feasibility test: a point meets `texec`
/// iff `time <= texec·(1 + 1e-12) + 1e-12`.
#[inline]
fn deadline(texec: f64) -> f64 {
    texec * (1.0 + 1e-12) + 1e-12
}

/// Rejects weights outside Eq 4.4's domain. θ < 0 rewards a *larger*
/// barrier time, where dominance pruning no longer preserves the
/// optimum (a slower-and-costlier point can win); the engine refuses
/// loudly instead of answering wrong. NaN and +∞ are refused too: at
/// θ = +∞ every objective value is infinite, so no solver can rank two
/// assignments.
pub(crate) fn validate_theta(theta: f64) -> Result<(), OptError> {
    if !theta.is_finite() || theta < 0.0 {
        return Err(OptError::BadConfig(
            "theta must be finite and non-negative (Eq 4.4 weights execution time)",
        ));
    }
    Ok(())
}

/// θ-independent companion to [`Tables`]: per-thread operating points
/// sorted by time with prefix-minimum-energy arrays, plus the per-thread
/// dominance-pruned candidate lists.
///
/// Everything here depends only on `(cfg, profiles)` — never on θ — so
/// one build serves a whole θ sweep:
///
/// * [`SortedTables::min_energy`] answers Algorithm 1's
///   minEnergy-subject-to-deadline query in `O(log QS)` (binary search +
///   prefix-min lookup) instead of the naive `O(QS)` rescan, returning
///   exactly the point the naive scan would pick (ties broken toward the
///   smallest flat index).
/// * [`SortedTables::candidates`] lists the points that survive
///   per-thread dominance pruning — a point that is no faster *and* no
///   cheaper than another can never improve any assignment, so dropping
///   it provably preserves the optimal cost for every solver that
///   enumerates candidates (poly's critical-thread loop, the exhaustive
///   odometer, the MILP seed).
pub(crate) struct SortedTables {
    /// Number of TSR levels (to decode flat indices into points).
    s: usize,
    /// `time_sorted[i][pos]`: per-thread point times ascending by
    /// `(time, energy, idx)` — the binary-search key.
    time_sorted: Vec<Vec<f64>>,
    /// `prefix_min[i][pos]`: `(energy, idx)` of the cheapest point among
    /// the first `pos + 1` time-sorted points, ties toward the smallest
    /// `idx` — exactly what the naive minEnergy scan returns for a
    /// deadline admitting that prefix.
    prefix_min: Vec<Vec<(f64, u32)>>,
    /// `candidates[i]`: dominance-pruned flat indices of thread `i`,
    /// ascending — the naive enumeration order restricted to survivors.
    candidates: Vec<Vec<u32>>,
}

impl SortedTables {
    /// Sorts and prunes `t` once; `O(M·QS·log QS)`.
    pub(crate) fn build(t: &Tables) -> SortedTables {
        let n_points = t.q * t.s;
        let mut time_sorted = Vec::with_capacity(t.m);
        let mut prefix_min = Vec::with_capacity(t.m);
        let mut candidates = Vec::with_capacity(t.m);
        for i in 0..t.m {
            let (time, energy) = (&t.time[i], &t.energy[i]);
            let mut by_time: Vec<u32> = (0..n_points as u32).collect();
            by_time.sort_by(|&a, &b| {
                let (a, b) = (a as usize, b as usize);
                time[a]
                    .partial_cmp(&time[b])
                    .expect("finite times")
                    .then(energy[a].partial_cmp(&energy[b]).expect("finite energies"))
                    .then(a.cmp(&b))
            });
            let times: Vec<f64> = by_time.iter().map(|&idx| time[idx as usize]).collect();
            // Running minimum of (energy, idx) over the sorted prefix.
            let mut best = (f64::INFINITY, u32::MAX);
            let mins: Vec<(f64, u32)> = by_time
                .iter()
                .map(|&idx| {
                    let en = energy[idx as usize];
                    if en < best.0 || (en == best.0 && idx < best.1) {
                        best = (en, idx);
                    }
                    best
                })
                .collect();
            // Dominance pruning: in (time, energy, idx) order every earlier
            // point is no slower, so a point survives iff it is strictly
            // cheaper than everything before it (equal-cost duplicates keep
            // the earliest, i.e. smallest-index, copy).
            let mut cheapest = f64::INFINITY;
            let mut keep: Vec<u32> = by_time
                .iter()
                .filter(|&&idx| {
                    let en = energy[idx as usize];
                    let dominant = en < cheapest;
                    if dominant {
                        cheapest = en;
                    }
                    dominant
                })
                .copied()
                .collect();
            keep.sort_unstable();
            time_sorted.push(times);
            prefix_min.push(mins);
            candidates.push(keep);
        }
        SortedTables {
            s: t.s,
            time_sorted,
            prefix_min,
            candidates,
        }
    }

    /// `minEnergy(l, texec)` in `O(log QS)` — result-identical to
    /// [`Tables::min_energy`], including tie-breaking.
    pub(crate) fn min_energy(&self, l: usize, texec: f64) -> Option<(f64, OperatingPoint)> {
        let bound = deadline(texec);
        let feasible = self.time_sorted[l].partition_point(|&time| time <= bound);
        if feasible == 0 {
            return None;
        }
        let (en, idx) = self.prefix_min[l][feasible - 1];
        let idx = idx as usize;
        Some((
            en,
            OperatingPoint {
                voltage_idx: idx / self.s,
                tsr_idx: idx % self.s,
            },
        ))
    }

    /// Thread `i`'s dominance-pruned candidate indices, ascending.
    pub(crate) fn candidates(&self, i: usize) -> &[u32] {
        &self.candidates[i]
    }

    /// A surviving candidate of thread `i` that dominates point `idx`
    /// (no slower and no cheaper) — `idx` itself when it survived
    /// pruning. Exists for every point by the pruning invariant; used to
    /// remap assignments produced over the full table (e.g. minEnergy
    /// ties) onto the pruned space without raising their cost.
    pub(crate) fn dominating_candidate(&self, t: &Tables, i: usize, idx: usize) -> usize {
        let (time, energy) = (t.time[i][idx], t.energy[i][idx]);
        self.candidates[i]
            .iter()
            .map(|&c| c as usize)
            .find(|&c| t.time[i][c] <= time && t.energy[i][c] <= energy)
            .expect("every point has a surviving dominator")
    }

    /// Product of per-thread pruned candidate counts, saturating — the
    /// size of the exhaustive solver's search space after pruning.
    pub(crate) fn pruned_combinations(&self) -> u128 {
        self.candidates
            .iter()
            .fold(1u128, |acc, c| acc.saturating_mul(c.len() as u128))
    }

    /// Number of points that survived pruning, summed over threads.
    pub(crate) fn pruned_points(&self) -> usize {
        self.candidates.iter().map(Vec::len).sum()
    }
}

/// [`Tables`] plus its θ-independent [`SortedTables`] companion — the
/// unit of per-instance state [`crate::Solver::solve_batch`] caches and
/// shares across a θ chunk.
pub(crate) struct PreparedTables {
    pub(crate) tables: Tables,
    pub(crate) sorted: SortedTables,
}

impl PreparedTables {
    pub(crate) fn build<M: ErrorModel>(
        cfg: &SystemConfig,
        profiles: &[ThreadProfile<M>],
    ) -> PreparedTables {
        let tables = Tables::build(cfg, profiles);
        let sorted = SortedTables::build(&tables);
        PreparedTables { tables, sorted }
    }
}

/// Solves SynTS-OPT exactly in polynomial time (Algorithm 1).
///
/// Returns the optimal per-thread assignment for weight `theta`.
///
/// # Errors
///
/// * [`OptError::BadConfig`] if `cfg` is malformed or `theta` is
///   negative, NaN or infinite (Eq 4.4's weight domain).
/// * [`OptError::NoThreads`] if `profiles` is empty.
/// * [`OptError::Infeasible`] cannot occur for a valid config (the all-
///   nominal assignment is always feasible) but is kept for robustness.
pub fn synts_poly<M: ErrorModel>(
    cfg: &SystemConfig,
    profiles: &[ThreadProfile<M>],
    theta: f64,
) -> Result<Assignment, OptError> {
    cfg.validate()?;
    validate_theta(theta)?;
    if profiles.is_empty() {
        return Err(OptError::NoThreads);
    }
    let p = PreparedTables::build(cfg, profiles);
    solve_prepared(&p, theta)
}

/// Algorithm 1's search over precomputed [`Tables`], exactly as the paper
/// states it: full `Q·S` rescan per minEnergy query, every point a
/// critical candidate. This is the reference path
/// ([`crate::reference::synts_poly_naive`]) the sweep-scale engine is
/// tested against; production solving goes through [`solve_prepared`].
pub(crate) fn solve_on_tables(t: &Tables, theta: f64) -> Result<Assignment, OptError> {
    let mut best_cost = f64::INFINITY;
    let mut best: Option<Assignment> = None;
    let mut points = vec![
        OperatingPoint {
            voltage_idx: 0,
            tsr_idx: 0
        };
        t.m
    ];
    for i in 0..t.m {
        for j in 0..t.q {
            for k in 0..t.s {
                let idx = j * t.s + k;
                let texec = t.time[i][idx];
                let mut en = t.energy[i][idx];
                points[i] = OperatingPoint {
                    voltage_idx: j,
                    tsr_idx: k,
                };
                let mut feasible = true;
                for l in 0..t.m {
                    if l == i {
                        continue;
                    }
                    match t.min_energy(l, texec) {
                        Some((e, p)) => {
                            en += e;
                            points[l] = p;
                        }
                        None => {
                            feasible = false;
                            break;
                        }
                    }
                }
                if !feasible {
                    continue;
                }
                let cost = en + theta * texec;
                if cost < best_cost {
                    best_cost = cost;
                    best = Some(Assignment {
                        points: points.clone(),
                    });
                }
            }
        }
    }
    best.ok_or(OptError::Infeasible)
}

/// Algorithm 1 on the sweep-scale engine: critical candidates come from
/// the dominance-pruned per-thread lists and every minEnergy query is a
/// binary search — `O(M²·QS·log QS)` per θ against shared θ-independent
/// [`PreparedTables`].
///
/// Produces the same optimal cost as [`solve_on_tables`] always (pruning
/// cannot remove every optimal critical candidate — replacing each
/// dominated point of an optimal assignment by a dominator yields an
/// equally good assignment using only survivors), and the identical
/// assignment away from exact cost ties, since candidates are visited in
/// the same ascending index order and minEnergy tie-breaking is
/// preserved bit-for-bit.
pub(crate) fn solve_prepared(p: &PreparedTables, theta: f64) -> Result<Assignment, OptError> {
    let (t, st) = (&p.tables, &p.sorted);
    let mut best_cost = f64::INFINITY;
    let mut best: Option<Assignment> = None;
    let mut points = vec![
        OperatingPoint {
            voltage_idx: 0,
            tsr_idx: 0
        };
        t.m
    ];
    for i in 0..t.m {
        for &cand in st.candidates(i) {
            let idx = cand as usize;
            let texec = t.time[i][idx];
            let mut en = t.energy[i][idx];
            points[i] = t.point(idx);
            let mut feasible = true;
            for l in 0..t.m {
                if l == i {
                    continue;
                }
                match st.min_energy(l, texec) {
                    Some((e, p)) => {
                        en += e;
                        points[l] = p;
                    }
                    None => {
                        feasible = false;
                        break;
                    }
                }
            }
            if !feasible {
                continue;
            }
            let cost = en + theta * texec;
            if cost < best_cost {
                best_cost = cost;
                best = Some(Assignment {
                    points: points.clone(),
                });
            }
        }
    }
    best.ok_or(OptError::Infeasible)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{evaluate, weighted_cost};
    use timing::ErrorCurve;

    fn curve(delays: Vec<f64>) -> ErrorCurve {
        ErrorCurve::from_normalized_delays(delays).expect("non-empty")
    }

    /// A small heterogeneous 3-thread instance used across solver tests.
    fn instance() -> (SystemConfig, Vec<ThreadProfile<ErrorCurve>>) {
        let cfg = SystemConfig::paper_default(10.0);
        // Thread 0: long delays (speculation-critical, like Radix T0).
        let hot: Vec<f64> = (0..200).map(|i| 0.70 + 0.30 * (i as f64 / 200.0)).collect();
        // Thread 1: moderate.
        let mid: Vec<f64> = (0..200).map(|i| 0.50 + 0.35 * (i as f64 / 200.0)).collect();
        // Thread 2: short delays (lots of speculation headroom).
        let cool: Vec<f64> = (0..200).map(|i| 0.30 + 0.35 * (i as f64 / 200.0)).collect();
        let profiles = vec![
            ThreadProfile::new(10_000.0, 1.2, curve(hot)),
            ThreadProfile::new(9_000.0, 1.1, curve(mid)),
            ThreadProfile::new(11_000.0, 1.0, curve(cool)),
        ];
        (cfg, profiles)
    }

    #[test]
    fn returns_feasible_assignment() {
        let (cfg, profiles) = instance();
        let a = synts_poly(&cfg, &profiles, 1.0).expect("solvable");
        assert_eq!(a.len(), 3);
        for p in &a.points {
            assert!(p.voltage_idx < cfg.q());
            assert!(p.tsr_idx < cfg.s());
        }
    }

    #[test]
    fn matches_exhaustive_on_small_instances() {
        let (mut cfg, profiles) = instance();
        // Shrink the level sets so exhaustive search is cheap.
        cfg.voltages = timing::VoltageTable::from_volts([1.0, 0.86, 0.72]).expect("ok");
        cfg.tsr_levels = vec![0.64, 0.82, 1.0];
        for theta in [0.0, 0.01, 1.0, 100.0] {
            let poly = synts_poly(&cfg, &profiles, theta).expect("poly");
            let ex = crate::exhaustive::synts_exhaustive(&cfg, &profiles, theta).expect("ex");
            let cp = weighted_cost(&cfg, &profiles, &poly, theta);
            let ce = weighted_cost(&cfg, &profiles, &ex, theta);
            assert!(
                (cp - ce).abs() <= 1e-9 * ce.abs().max(1.0),
                "theta {theta}: poly {cp} vs exhaustive {ce}"
            );
        }
    }

    #[test]
    fn high_theta_prefers_speed_low_theta_prefers_energy() {
        let (cfg, profiles) = instance();
        let fast = synts_poly(&cfg, &profiles, 1e9).expect("poly");
        let frugal = synts_poly(&cfg, &profiles, 1e-9).expect("poly");
        let ed_fast = evaluate(&cfg, &profiles, &fast);
        let ed_frugal = evaluate(&cfg, &profiles, &frugal);
        assert!(ed_fast.time <= ed_frugal.time + 1e-9);
        assert!(ed_frugal.energy <= ed_fast.energy + 1e-9);
    }

    #[test]
    fn single_thread_reduces_to_per_core_optimum() {
        let (cfg, profiles) = instance();
        let single = &profiles[..1];
        let a = synts_poly(&cfg, single, 1.0).expect("poly");
        // Brute-force the single thread.
        let mut best = f64::INFINITY;
        for j in 0..cfg.q() {
            for k in 0..cfg.s() {
                let p = OperatingPoint {
                    voltage_idx: j,
                    tsr_idx: k,
                };
                let cost = crate::model::thread_energy(&cfg, &single[0], p)
                    + 1.0 * crate::model::thread_time(&cfg, &single[0], p);
                best = best.min(cost);
            }
        }
        let got = weighted_cost(&cfg, single, &a, 1.0);
        assert!((got - best).abs() < 1e-9 * best);
    }

    #[test]
    fn empty_profiles_rejected() {
        let (cfg, _) = instance();
        let empty: Vec<ThreadProfile<ErrorCurve>> = Vec::new();
        assert_eq!(
            synts_poly(&cfg, &empty, 1.0).expect_err("no threads"),
            OptError::NoThreads
        );
    }

    #[test]
    fn invalid_config_rejected() {
        let (mut cfg, profiles) = instance();
        cfg.tsr_levels = vec![0.8, 0.6, 1.0];
        assert!(matches!(
            synts_poly(&cfg, &profiles, 1.0).expect_err("bad cfg"),
            OptError::BadConfig(_)
        ));
    }

    #[test]
    fn min_energy_respects_deadline() {
        let (cfg, profiles) = instance();
        let t = Tables::build(&cfg, &profiles);
        // A deadline shorter than the thread's fastest point -> None.
        assert!(t.min_energy(0, 0.0).is_none());
        // A generous deadline -> the global energy minimum for that thread.
        let (en, p) = t.min_energy(0, f64::INFINITY).expect("feasible");
        let min_possible = (0..cfg.q() * cfg.s())
            .map(|idx| t.energy[0][idx])
            .fold(f64::INFINITY, f64::min);
        assert!((en - min_possible).abs() < 1e-12);
        assert!(t.time[0][p.voltage_idx * t.s + p.tsr_idx].is_finite());
    }
}
