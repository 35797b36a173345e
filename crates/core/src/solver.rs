//! The unified [`Solver`] abstraction.
//!
//! Every optimization scheme in this crate — the paper's solvers
//! ([`crate::synts_poly`], [`crate::synts_milp`],
//! [`crate::synts_exhaustive`]), the evaluation baselines and the
//! extension solvers (power-capped, leakage-aware, thrifty barrier) —
//! is reachable behind one object-safe interface:
//!
//! * [`Solver`] — `solve(cfg, profiles, theta) -> Assignment` plus
//!   [`Solver::name`] and [`Solver::capabilities`];
//! * [`SolverRegistry`] — string-keyed lookup over the default solvers,
//!   so sweeps, experiment harnesses and services can dispatch on
//!   configuration data instead of hard-coded matches.
//!
//! A parameterized variant is a value of its solver struct:
//! [`PowerCap::new`], [`Leakage::new`], [`Thrifty::new`],
//! [`Milp::with_node_limit`].
//!
//! The trait is generic over the error model `M` (an [`ErrorModel`]), so
//! the same solver values serve exact offline curves
//! ([`timing::ErrorCurve`]) and online sampled estimates
//! ([`timing::SampledCurve`]) alike.
//!
//! ```
//! use synts_core::{SolverRegistry, SystemConfig, ThreadProfile};
//! use timing::ErrorCurve;
//!
//! # fn main() -> Result<(), synts_core::OptError> {
//! let cfg = SystemConfig::paper_default(100.0);
//! let curve = |lo: f64| {
//!     ErrorCurve::from_normalized_delays(
//!         (0..64).map(|i| lo + (1.0 - lo) * i as f64 / 64.0).collect(),
//!     )
//! };
//! let profiles = vec![
//!     ThreadProfile::new(10_000.0, 1.2, curve(0.7)?),
//!     ThreadProfile::new(10_000.0, 1.0, curve(0.4)?),
//! ];
//! let solver = SolverRegistry::with_defaults().get("synts_poly")?;
//! let assignment = solver.solve(&cfg, &profiles, 1.0)?;
//! assert_eq!(assignment.len(), 2);
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use timing::{EnergyDelay, ErrorCurve, ErrorModel};

use crate::baselines;
use crate::error::OptError;
use crate::exhaustive::{self, synts_exhaustive};
use crate::leakage::{synts_poly_leakage, LeakageModel};
use crate::milp_formulation;
use crate::model::{evaluate, Assignment, SystemConfig, ThreadProfile};
use crate::poly::{self, synts_poly, PreparedTables};
use crate::power_cap::synts_poly_power_capped;
use crate::thrifty::{thrifty_barrier, ThriftyConfig};

/// One instance of the SynTS-OPT problem, by reference: the inputs of one
/// [`Solver::solve`] call, packaged so batches can be expressed as slices.
///
/// Batches commonly share `cfg`/`profiles` across many θ values (a Pareto
/// sweep) or share `cfg` across many profile sets (per-interval
/// re-optimization); [`Solver::solve_batch`] overrides exploit that
/// sharing by pointer identity, so building requests from the *same*
/// borrowed slices (rather than clones) is what unlocks the amortization.
#[derive(Debug)]
pub struct SolveRequest<'a, M: ErrorModel> {
    /// The platform (voltage table, TSR levels, penalties).
    pub cfg: &'a SystemConfig,
    /// Per-thread workload profiles.
    pub profiles: &'a [ThreadProfile<M>],
    /// The energy/time weight θ of Eq 4.4.
    pub theta: f64,
}

impl<'a, M: ErrorModel> SolveRequest<'a, M> {
    /// Creates a request.
    #[must_use]
    pub fn new(
        cfg: &'a SystemConfig,
        profiles: &'a [ThreadProfile<M>],
        theta: f64,
    ) -> SolveRequest<'a, M> {
        SolveRequest {
            cfg,
            profiles,
            theta,
        }
    }

    /// Whether `other` poses the same instance (config and profiles are
    /// the same allocations) at a possibly different θ.
    fn same_instance(&self, other: &SolveRequest<'_, M>) -> bool {
        std::ptr::eq(self.cfg, other.cfg)
            && self.profiles.as_ptr() == other.profiles.as_ptr()
            && self.profiles.len() == other.profiles.len()
    }
}

// Manual impls: the derives would demand `M: Clone`/`M: Copy`, but every
// field is a reference or an `f64` regardless of `M`.
impl<M: ErrorModel> Clone for SolveRequest<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M: ErrorModel> Copy for SolveRequest<'_, M> {}

/// What a solver optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Objective {
    /// The weighted SynTS-OPT objective of Eq 4.4: `Σ en_i + θ·t_exec`
    /// (possibly under a generalized energy model, e.g. with leakage).
    WeightedEnergyTime,
    /// Barrier execution time under an average-power cap — the Sec 4.1
    /// generalization.
    TimeUnderPowerCap,
    /// A fixed architectural policy that does not optimize Eq 4.4
    /// (Nominal V/F, the thrifty barrier).
    Policy,
}

/// Static facts about a solver, for capability-based dispatch.
///
/// Sweep and experiment code uses these instead of matching on solver
/// identity: e.g. the cross-solver certification test checks `exact`
/// solvers of the [`Objective::WeightedEnergyTime`] objective against
/// exhaustive search, and sweep drivers skip `uses_theta == false`
/// schemes when varying θ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Capabilities {
    /// The objective the solver addresses.
    pub objective: Objective,
    /// Provably optimal for its objective (over the dynamic-energy model
    /// it was configured with).
    pub exact: bool,
    /// Polynomial runtime in `(M, Q, S)` — safe for online use.
    pub polynomial: bool,
    /// Whether θ influences the result.
    pub uses_theta: bool,
    /// May choose timing-speculation ratios below 1.
    pub speculates: bool,
}

/// A joint per-thread voltage/frequency/timing-speculation solver.
///
/// Implementations are cheap value objects (unit structs or small
/// configuration holders); the expensive work happens in
/// [`Solver::solve`]. All implementations are `Send + Sync` so registries
/// can be shared across sweep worker threads.
pub trait Solver<M: ErrorModel>: Send + Sync {
    /// Stable registry key, e.g. `"synts_poly"`.
    fn name(&self) -> &'static str;

    /// Human-readable label for tables and figures, e.g. `"SynTS"`.
    fn label(&self) -> &'static str {
        self.name()
    }

    /// Static capability flags.
    fn capabilities(&self) -> Capabilities;

    /// Chooses one operating point per thread for weight `theta`.
    ///
    /// # Errors
    ///
    /// [`OptError`] for malformed inputs or solver-specific failures
    /// (infeasible cap, oversized exhaustive instance, MILP failure).
    fn solve(
        &self,
        cfg: &SystemConfig,
        profiles: &[ThreadProfile<M>],
        theta: f64,
    ) -> Result<Assignment, OptError>;

    /// Solves and evaluates in one step.
    ///
    /// # Errors
    ///
    /// As [`Solver::solve`].
    fn solve_evaluated(
        &self,
        cfg: &SystemConfig,
        profiles: &[ThreadProfile<M>],
        theta: f64,
    ) -> Result<(Assignment, EnergyDelay), OptError> {
        let assignment = self.solve(cfg, profiles, theta)?;
        let ed = evaluate(cfg, profiles, &assignment);
        Ok((assignment, ed))
    }

    /// Solves a batch of requests, one result per request, in order.
    ///
    /// The default is the element-wise loop — every implementation MUST
    /// be observationally identical to it (the batch-equivalence property
    /// tests enforce this for all registered solvers). Overrides exist to
    /// amortize per-instance setup: the table-driven solvers
    /// ([`Poly`], [`Milp`], [`Exhaustive`]) build their
    /// `(thread, voltage, TSR)` time/energy tables once per run of
    /// requests sharing the same `cfg`/`profiles` borrows, which is what
    /// a θ sweep or a per-interval re-optimization batch looks like, and
    /// [`Exhaustive`] also walks its odometer once for the whole run.
    fn solve_batch(&self, requests: &[SolveRequest<'_, M>]) -> Vec<Result<Assignment, OptError>> {
        requests
            .iter()
            .map(|r| self.solve(r.cfg, r.profiles, r.theta))
            .collect()
    }
}

// `SolverRegistry::get` returns `Result<Arc<dyn Solver>, _>`; without
// this, downstream `unwrap_err`/`expect_err` (which require `T: Debug`)
// would not compile.
impl<M: ErrorModel> std::fmt::Debug for dyn Solver<M> + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Solver({})", self.name())
    }
}

/// Shared batch driver for table-based solvers. It splits `requests`
/// into runs of consecutive requests posing the same instance (by
/// pointer identity), validates each request, builds the run's
/// θ-independent [`PreparedTables`] (time/energy tables plus their
/// sorted/dominance-pruned companion) once, and hands `solve_prepared`
/// the run's distinct valid θ values in one call, which answers with
/// one result per θ. Results are scattered back to the requests.
///
/// The θ-dedup matters in practice: log-spaced grids round-trip
/// duplicate values (a one-point grid, spec files with repeated entries),
/// and the solvers are deterministic, so a repeated θ reuses the solved
/// assignment instead of solving again.
fn batch_with_tables<M: ErrorModel>(
    requests: &[SolveRequest<'_, M>],
    solve_prepared: impl Fn(&PreparedTables, &[f64]) -> Vec<Result<Assignment, OptError>>,
) -> Vec<Result<Assignment, OptError>> {
    let mut results = Vec::with_capacity(requests.len());
    for run in requests.chunk_by(|a, b| a.same_instance(b)) {
        // Distinct valid θ values by bits, and each request's index into
        // them (or its validation error). Grids are small, so a linear
        // scan beats hashing and keeps the order deterministic.
        let mut thetas: Vec<f64> = Vec::new();
        let slots: Vec<Result<usize, OptError>> = run
            .iter()
            .map(|req| {
                req.cfg.validate()?;
                poly::validate_theta(req.theta)?;
                if req.profiles.is_empty() {
                    return Err(OptError::NoThreads);
                }
                let bits = req.theta.to_bits();
                Ok(match thetas.iter().position(|t| t.to_bits() == bits) {
                    Some(k) => k,
                    None => {
                        thetas.push(req.theta);
                        thetas.len() - 1
                    }
                })
            })
            .collect();
        let solved = if thetas.is_empty() {
            Vec::new()
        } else {
            solve_prepared(&PreparedTables::build(run[0].cfg, run[0].profiles), &thetas)
        };
        results.extend(
            slots
                .into_iter()
                .map(|slot| slot.and_then(|k| solved[k].clone())),
        );
    }
    results
}

/// Algorithm 1 — the exact polynomial-time SynTS solver (the scheme the
/// paper labels simply "SynTS").
#[derive(Debug, Clone, Copy, Default)]
pub struct Poly;

impl<M: ErrorModel> Solver<M> for Poly {
    fn name(&self) -> &'static str {
        "synts_poly"
    }
    fn label(&self) -> &'static str {
        "SynTS"
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            objective: Objective::WeightedEnergyTime,
            exact: true,
            polynomial: true,
            uses_theta: true,
            speculates: true,
        }
    }
    fn solve(
        &self,
        cfg: &SystemConfig,
        profiles: &[ThreadProfile<M>],
        theta: f64,
    ) -> Result<Assignment, OptError> {
        synts_poly(cfg, profiles, theta)
    }

    fn solve_batch(&self, requests: &[SolveRequest<'_, M>]) -> Vec<Result<Assignment, OptError>> {
        batch_with_tables(requests, |prepared, thetas| {
            thetas
                .iter()
                .map(|&theta| poly::solve_prepared(prepared, theta))
                .collect()
        })
    }
}

/// The SynTS-MILP formulation (Sec 4.2.1), via the in-workspace
/// branch-and-bound solver. Same optima as [`Poly`]; exponential worst
/// case — kept as an independent correctness oracle. The search is
/// warm-started from Algorithm 1's optimum on the shared θ-independent
/// tables (see [`crate::synts_milp`]), so the branch-and-bound
/// mostly just *certifies* the incumbent — which is exactly what an
/// oracle is for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Milp {
    /// Branch-and-bound node budget per θ; `None` uses
    /// [`milp::DEFAULT_NODE_LIMIT`]. An exhausted budget surfaces as
    /// [`OptError::Milp`] reporting the nodes explored.
    pub node_limit: Option<usize>,
}

impl Milp {
    /// A MILP solver with an explicit branch-and-bound node budget.
    #[must_use]
    pub fn with_node_limit(node_limit: usize) -> Milp {
        Milp {
            node_limit: Some(node_limit),
        }
    }
}

impl<M: ErrorModel> Solver<M> for Milp {
    fn name(&self) -> &'static str {
        "synts_milp"
    }
    fn label(&self) -> &'static str {
        "SynTS-MILP"
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            objective: Objective::WeightedEnergyTime,
            exact: true,
            polynomial: false,
            uses_theta: true,
            speculates: true,
        }
    }
    fn solve(
        &self,
        cfg: &SystemConfig,
        profiles: &[ThreadProfile<M>],
        theta: f64,
    ) -> Result<Assignment, OptError> {
        let mut results = self.solve_batch(&[SolveRequest::new(cfg, profiles, theta)]);
        results.pop().expect("one result per request")
    }

    fn solve_batch(&self, requests: &[SolveRequest<'_, M>]) -> Vec<Result<Assignment, OptError>> {
        batch_with_tables(requests, |prepared, thetas| {
            thetas
                .iter()
                .map(|&theta| milp_formulation::solve_prepared(prepared, theta, self.node_limit))
                .collect()
        })
    }
}

/// Brute-force enumeration over the dominance-pruned per-thread
/// candidate grid; refuses instances whose pruned product exceeds
/// [`crate::EXHAUSTIVE_LIMIT`]. Certification only — but note it now
/// shares SynTS-Poly's pruning with the solvers it certifies, so
/// a pruning bug would be common-mode across all three; *fully*
/// independent certification is [`crate::reference::synts_exhaustive_naive`]
/// (the unpruned odometer), which the engine is property-tested
/// against.
///
/// [`Solver::solve_batch`] walks the odometer once per run of
/// same-instance requests, scoring every distinct θ of the run on each
/// combination it visits; each θ gets the assignment its own
/// [`Solver::solve`] returns, bit for bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exhaustive;

impl<M: ErrorModel> Solver<M> for Exhaustive {
    fn name(&self) -> &'static str {
        "synts_exhaustive"
    }
    fn label(&self) -> &'static str {
        "Exhaustive"
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            objective: Objective::WeightedEnergyTime,
            exact: true,
            polynomial: false,
            uses_theta: true,
            speculates: true,
        }
    }
    fn solve(
        &self,
        cfg: &SystemConfig,
        profiles: &[ThreadProfile<M>],
        theta: f64,
    ) -> Result<Assignment, OptError> {
        synts_exhaustive(cfg, profiles, theta)
    }

    fn solve_batch(&self, requests: &[SolveRequest<'_, M>]) -> Vec<Result<Assignment, OptError>> {
        batch_with_tables(requests, |prepared, thetas| match exhaustive::solve_pruned(
            prepared, thetas,
        ) {
            Ok(assignments) => assignments.into_iter().map(Ok).collect(),
            Err(e) => vec![Err(e); thetas.len()],
        })
    }
}

/// Nominal V/F: highest voltage, no scaling, no speculation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Nominal;

impl<M: ErrorModel> Solver<M> for Nominal {
    fn name(&self) -> &'static str {
        "nominal"
    }
    fn label(&self) -> &'static str {
        "Nominal"
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            objective: Objective::Policy,
            exact: false,
            polynomial: true,
            uses_theta: false,
            speculates: false,
        }
    }
    fn solve(
        &self,
        cfg: &SystemConfig,
        profiles: &[ThreadProfile<M>],
        _theta: f64,
    ) -> Result<Assignment, OptError> {
        baselines::nominal(cfg, profiles)
    }
}

/// Joint per-thread DVFS without speculation (`r = 1`) — the paper's
/// stand-in for conventional barrier-aware DVFS.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTs;

impl<M: ErrorModel> Solver<M> for NoTs {
    fn name(&self) -> &'static str {
        "no_ts"
    }
    fn label(&self) -> &'static str {
        "No-TS"
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            objective: Objective::WeightedEnergyTime,
            // Exact only within the r = 1 subspace, not globally.
            exact: false,
            polynomial: true,
            uses_theta: true,
            speculates: false,
        }
    }
    fn solve(
        &self,
        cfg: &SystemConfig,
        profiles: &[ThreadProfile<M>],
        theta: f64,
    ) -> Result<Assignment, OptError> {
        baselines::no_ts(cfg, profiles, theta)
    }
}

/// Independent per-core timing speculation: each thread minimizes its own
/// `en_i + θ·t_i`, ignoring barrier coupling.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerCoreTs;

impl<M: ErrorModel> Solver<M> for PerCoreTs {
    fn name(&self) -> &'static str {
        "per_core_ts"
    }
    fn label(&self) -> &'static str {
        "Per-core TS"
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            objective: Objective::WeightedEnergyTime,
            // Optimal per core, not for the joint barrier objective.
            exact: false,
            polynomial: true,
            uses_theta: true,
            speculates: true,
        }
    }
    fn solve(
        &self,
        cfg: &SystemConfig,
        profiles: &[ThreadProfile<M>],
        theta: f64,
    ) -> Result<Assignment, OptError> {
        baselines::per_core_ts(cfg, profiles, theta)
    }
}

/// The power-constrained variant: minimizes barrier time subject to an
/// average-power cap (θ is ignored).
#[derive(Debug, Clone, Copy)]
pub struct PowerCap {
    /// Average-power budget for the interval.
    pub p_cap: f64,
}

impl PowerCap {
    /// Solver for a concrete power budget.
    #[must_use]
    pub fn new(p_cap: f64) -> PowerCap {
        PowerCap { p_cap }
    }

    /// A budget so large it never binds — the pure speed optimum.
    #[must_use]
    pub fn uncapped() -> PowerCap {
        PowerCap { p_cap: 1e30 }
    }
}

impl Default for PowerCap {
    fn default() -> PowerCap {
        PowerCap::uncapped()
    }
}

impl<M: ErrorModel> Solver<M> for PowerCap {
    fn name(&self) -> &'static str {
        "power_cap"
    }
    fn label(&self) -> &'static str {
        "Power-capped SynTS"
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            objective: Objective::TimeUnderPowerCap,
            exact: true,
            polynomial: true,
            uses_theta: false,
            speculates: true,
        }
    }
    fn solve(
        &self,
        cfg: &SystemConfig,
        profiles: &[ThreadProfile<M>],
        _theta: f64,
    ) -> Result<Assignment, OptError> {
        synts_poly_power_capped(cfg, profiles, self.p_cap).map(|sol| sol.assignment)
    }
}

/// Algorithm 1 generalized to the leakage-extended energy model; exact
/// for that model ([`crate::leakage`]).
#[derive(Debug, Clone, Copy)]
pub struct Leakage {
    /// The static-power model charged over wall-clock time.
    pub model: LeakageModel,
}

impl Leakage {
    /// Solver for a concrete leakage model.
    #[must_use]
    pub fn new(model: LeakageModel) -> Leakage {
        Leakage { model }
    }
}

impl Default for Leakage {
    fn default() -> Leakage {
        Leakage {
            model: LeakageModel::none(),
        }
    }
}

impl<M: ErrorModel> Solver<M> for Leakage {
    fn name(&self) -> &'static str {
        "synts_leakage"
    }
    fn label(&self) -> &'static str {
        "SynTS (leakage-aware)"
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            objective: Objective::WeightedEnergyTime,
            exact: true,
            polynomial: true,
            uses_theta: true,
            speculates: true,
        }
    }
    fn solve(
        &self,
        cfg: &SystemConfig,
        profiles: &[ThreadProfile<M>],
        theta: f64,
    ) -> Result<Assignment, OptError> {
        synts_poly_leakage(cfg, profiles, theta, &self.model)
    }
}

/// The thrifty-barrier baseline: nominal V/F everywhere, early arrivals
/// sleep at the barrier (related work, the paper's ref \[4\]).
#[derive(Debug, Clone, Copy)]
pub struct Thrifty {
    /// Leakage model under which sleeping pays off.
    pub leak: LeakageModel,
    /// Sleep-state hardware parameters.
    pub config: ThriftyConfig,
}

impl Thrifty {
    /// Solver for concrete leakage and sleep parameters.
    #[must_use]
    pub fn new(leak: LeakageModel, config: ThriftyConfig) -> Thrifty {
        Thrifty { leak, config }
    }
}

impl Default for Thrifty {
    fn default() -> Thrifty {
        Thrifty {
            leak: LeakageModel::none(),
            config: ThriftyConfig::classic(),
        }
    }
}

impl<M: ErrorModel> Solver<M> for Thrifty {
    fn name(&self) -> &'static str {
        "thrifty"
    }
    fn label(&self) -> &'static str {
        "Thrifty barrier"
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            objective: Objective::Policy,
            exact: false,
            polynomial: true,
            uses_theta: false,
            speculates: false,
        }
    }
    fn solve(
        &self,
        cfg: &SystemConfig,
        profiles: &[ThreadProfile<M>],
        _theta: f64,
    ) -> Result<Assignment, OptError> {
        thrifty_barrier(cfg, profiles, &self.leak, &self.config).map(|out| out.assignment)
    }
}

/// Names of every solver this crate ships, in registration order.
pub const DEFAULT_SOLVER_NAMES: [&str; 9] = [
    "synts_poly",
    "synts_milp",
    "synts_exhaustive",
    "nominal",
    "no_ts",
    "per_core_ts",
    "power_cap",
    "synts_leakage",
    "thrifty",
];

/// The canonical name → solver mapping — the single source of truth
/// behind [`SolverRegistry::with_defaults`]. Extension solvers carry
/// neutral default parameters (uncapped power, zero leakage). Returns
/// `None` for names outside [`DEFAULT_SOLVER_NAMES`].
#[must_use]
pub fn default_solver<M: ErrorModel + 'static>(name: &str) -> Option<Arc<dyn Solver<M>>> {
    Some(match name {
        "synts_poly" => Arc::new(Poly),
        "synts_milp" => Arc::new(Milp::default()),
        "synts_exhaustive" => Arc::new(Exhaustive),
        "nominal" => Arc::new(Nominal),
        "no_ts" => Arc::new(NoTs),
        "per_core_ts" => Arc::new(PerCoreTs),
        "power_cap" => Arc::new(PowerCap::uncapped()),
        "synts_leakage" => Arc::new(Leakage::default()),
        "thrifty" => Arc::new(Thrifty::default()),
        _ => return None,
    })
}

/// String-keyed solver lookup over the default solvers, keyed by
/// [`Solver::name`].
pub struct SolverRegistry<M: ErrorModel = ErrorCurve> {
    solvers: BTreeMap<&'static str, Arc<dyn Solver<M>>>,
}

impl<M: ErrorModel + 'static> SolverRegistry<M> {
    /// A registry holding every solver this crate ships
    /// ([`DEFAULT_SOLVER_NAMES`]), under its [`Solver::name`] key.
    #[must_use]
    pub fn with_defaults() -> SolverRegistry<M> {
        let solvers = DEFAULT_SOLVER_NAMES
            .into_iter()
            .map(|name| {
                let solver = default_solver(name).expect("listed names are constructible");
                (solver.name(), solver)
            })
            .collect();
        SolverRegistry { solvers }
    }

    /// Looks a solver up by name.
    ///
    /// # Errors
    ///
    /// [`OptError::UnknownSolver`] listing every registered key, so the
    /// message tells a CLI/spec user what *is* available.
    pub fn get(&self, name: &str) -> Result<Arc<dyn Solver<M>>, OptError> {
        self.solvers
            .get(name)
            .cloned()
            .ok_or_else(|| OptError::UnknownSolver {
                name: name.to_string(),
                known: self.names().map(str::to_string).collect(),
            })
    }

    /// All registered names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.solvers.keys().copied()
    }

    /// All `(name, solver)` pairs, sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Arc<dyn Solver<M>>)> {
        self.solvers.iter().map(|(k, v)| (*k, v))
    }

    /// Number of registered solvers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.solvers.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.solvers.is_empty()
    }
}

impl<M: ErrorModel + 'static> Default for SolverRegistry<M> {
    fn default() -> SolverRegistry<M> {
        SolverRegistry::with_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::weighted_cost;
    use timing::ErrorCurve;

    fn curve(lo: f64, hi: f64) -> ErrorCurve {
        let delays: Vec<f64> = (0..128)
            .map(|i| lo + (hi - lo) * i as f64 / 128.0)
            .collect();
        ErrorCurve::from_normalized_delays(delays).expect("non-empty")
    }

    fn small_instance() -> (SystemConfig, Vec<ThreadProfile<ErrorCurve>>) {
        let mut cfg = SystemConfig::paper_default(10.0);
        cfg.voltages = timing::VoltageTable::from_volts([1.0, 0.86, 0.72]).expect("ok");
        cfg.tsr_levels = vec![0.64, 0.82, 1.0];
        let profiles = vec![
            ThreadProfile::new(10_000.0, 1.2, curve(0.70, 1.00)),
            ThreadProfile::new(9_000.0, 1.1, curve(0.50, 0.85)),
            ThreadProfile::new(11_000.0, 1.0, curve(0.30, 0.65)),
        ];
        (cfg, profiles)
    }

    #[test]
    fn default_registry_holds_every_scheme() {
        let reg: SolverRegistry = SolverRegistry::with_defaults();
        let names: Vec<&str> = reg.names().collect();
        for expected in [
            "nominal",
            "no_ts",
            "per_core_ts",
            "power_cap",
            "synts_exhaustive",
            "synts_leakage",
            "synts_milp",
            "synts_poly",
            "thrifty",
        ] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
        assert_eq!(reg.len(), 9);
    }

    #[test]
    fn every_registered_solver_solves_and_respects_the_optimum() {
        let (cfg, profiles) = small_instance();
        let theta = 1.0;
        let reg: SolverRegistry = SolverRegistry::with_defaults();
        let optimum = {
            let a = Exhaustive
                .solve(&cfg, &profiles, theta)
                .expect("exhaustive");
            weighted_cost(&cfg, &profiles, &a, theta)
        };
        for (name, solver) in reg.iter() {
            let a = solver.solve(&cfg, &profiles, theta).expect(name);
            assert_eq!(a.len(), profiles.len(), "{name}: one point per thread");
            let c = weighted_cost(&cfg, &profiles, &a, theta);
            // The exhaustive optimum lower-bounds every assignment.
            assert!(
                c >= optimum * (1.0 - 1e-9),
                "{name}: cost {c} beats the optimum {optimum}"
            );
            if solver.capabilities().exact
                && solver.capabilities().objective == Objective::WeightedEnergyTime
            {
                assert!(
                    (c - optimum).abs() <= 1e-9 * optimum.max(1.0),
                    "{name}: exact solver off the optimum: {c} vs {optimum}"
                );
            }
        }
    }

    #[test]
    fn power_cap_keeps_average_power_within_the_budget() {
        let (cfg, profiles) = small_instance();
        let nominal_power = {
            let a = baselines::nominal(&cfg, &profiles).expect("ok");
            let ed = evaluate(&cfg, &profiles, &a);
            ed.energy / ed.time
        };
        let a = PowerCap::new(nominal_power)
            .solve(&cfg, &profiles, 1.0)
            .expect("feasible");
        let ed = evaluate(&cfg, &profiles, &a);
        assert!(ed.energy / ed.time <= nominal_power * (1.0 + 1e-9));
    }

    #[test]
    fn leakage_solver_is_the_leakage_aware_algorithm() {
        let (cfg, profiles) = small_instance();
        let leak = LeakageModel::fraction_of_dynamic(&cfg, 0.3).expect("ok");
        let a = Leakage::new(leak)
            .solve(&cfg, &profiles, 1.0)
            .expect("solves");
        let b = synts_poly_leakage(&cfg, &profiles, 1.0, &leak).expect("solves");
        assert_eq!(a, b);
    }

    #[test]
    fn thrifty_solver_keeps_the_uniform_nominal_policy() {
        let (cfg, profiles) = small_instance();
        let leak = LeakageModel::fraction_of_dynamic(&cfg, 0.3).expect("ok");
        let a = Thrifty::new(leak, ThriftyConfig::classic())
            .solve(&cfg, &profiles, 1.0)
            .expect("solves");
        assert_eq!(a.len(), profiles.len());
        assert!(a.points.iter().all(|p| p.voltage_idx == 0));
    }

    #[test]
    fn default_solver_covers_exactly_the_listed_names() {
        for name in DEFAULT_SOLVER_NAMES {
            let solver = default_solver::<ErrorCurve>(name).expect("constructible");
            assert_eq!(solver.name(), name);
        }
        assert!(default_solver::<ErrorCurve>("unknown").is_none());
        let reg: SolverRegistry = SolverRegistry::with_defaults();
        assert_eq!(reg.len(), DEFAULT_SOLVER_NAMES.len());
    }

    #[test]
    fn unknown_key_lists_every_registered_key() {
        let err = SolverRegistry::<ErrorCurve>::with_defaults()
            .get("simulated_annealing")
            .expect_err("unknown");
        assert!(
            matches!(err, OptError::UnknownSolver { ref name, .. } if name == "simulated_annealing")
        );
        let msg = err.to_string();
        assert!(msg.contains("simulated_annealing"), "{msg}");
        // The error teaches: every registered key is listed.
        for known in DEFAULT_SOLVER_NAMES {
            assert!(msg.contains(known), "{msg} should list {known}");
        }
    }

    #[test]
    fn capabilities_distinguish_solver_classes() {
        let poly = <Poly as Solver<ErrorCurve>>::capabilities(&Poly);
        assert!(poly.exact && poly.polynomial && poly.uses_theta && poly.speculates);
        let milp = <Milp as Solver<ErrorCurve>>::capabilities(&Milp::default());
        assert!(milp.exact && !milp.polynomial);
        let nominal = <Nominal as Solver<ErrorCurve>>::capabilities(&Nominal);
        assert_eq!(nominal.objective, Objective::Policy);
        assert!(!nominal.uses_theta && !nominal.speculates);
        let cap = <PowerCap as Solver<ErrorCurve>>::capabilities(&PowerCap::uncapped());
        assert_eq!(cap.objective, Objective::TimeUnderPowerCap);
    }
}
