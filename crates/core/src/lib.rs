//! # synts-core — Synergistic Timing Speculation
//!
//! Reproduction of the optimization layer of *"Synergistic Timing
//! Speculation for Multi-Threaded Programs"* (DAC 2016 / Yasin 2016):
//! jointly choosing per-thread voltage, frequency and timing-speculation
//! ratio for a barrier-synchronized multi-threaded program on a multi-core
//! processor with Razor-style error recovery.
//!
//! ## The unified solver API
//!
//! Every optimization scheme is a [`Solver`] — one object-safe interface
//! (`solve(cfg, profiles, theta)` plus `name()` / `capabilities()`)
//! implemented by the paper's solvers, the evaluation baselines and the
//! extension solvers alike. A [`SolverRegistry`] provides string-keyed
//! lookup:
//!
//! ```
//! use synts_core::{SolverRegistry, SystemConfig, ThreadProfile};
//! use timing::ErrorCurve;
//!
//! # fn main() -> Result<(), synts_core::OptError> {
//! let cfg = SystemConfig::paper_default(100.0);
//! // Two threads: one speculation-critical, one with headroom.
//! let hot = ErrorCurve::from_normalized_delays(vec![0.95; 64])?;
//! let cool = ErrorCurve::from_normalized_delays(vec![0.55; 64])?;
//! let profiles = vec![
//!     ThreadProfile::new(10_000.0, 1.2, hot),
//!     ThreadProfile::new(10_000.0, 1.0, cool),
//! ];
//! let solver = SolverRegistry::with_defaults().get("synts_poly")?;
//! let assignment = solver.solve(&cfg, &profiles, 1.0)?;
//! // The cool thread can be pushed to a cheaper operating point.
//! assert_ne!(assignment.points[0], assignment.points[1]);
//! # Ok(())
//! # }
//! ```
//!
//! Registered schemes (see [`SolverRegistry::with_defaults`]); the
//! parameterized ones are also values of their solver structs, such as
//! [`solver::PowerCap::new`] for a concrete power budget:
//!
//! | name | implementation | paper artifact |
//! |------|----------------|----------------|
//! | `synts_poly` | [`synts_poly`] (Algorithm 1) | the SynTS scheme |
//! | `synts_milp` | [`synts_milp`] | Sec 4.2.1 formulation |
//! | `synts_exhaustive` | [`synts_exhaustive`] | certification oracle |
//! | `nominal` | [`nominal`] | evaluation baseline |
//! | `no_ts` | [`no_ts`] | barrier-aware DVFS baseline |
//! | `per_core_ts` | [`per_core_ts`] | per-core TS baseline |
//! | `power_cap` | [`power_cap`] module | Sec 4.1 generalization |
//! | `synts_leakage` | [`leakage`] module | Sec 4.1 leakage extension |
//! | `thrifty` | [`thrifty`] module | thrifty barrier (ref \[4\]) |
//!
//! ## The pieces, in paper order
//!
//! * [`SystemConfig`] / [`ThreadProfile`] and Eq 4.1–4.3 — the system model
//!   (Sec 4.1);
//! * [`solver`] — the [`Solver`] trait and the [`SolverRegistry`]
//!   described above;
//! * [`synts_milp`] — the SynTS-MILP formulation (Sec 4.2.1), solved by the
//!   in-workspace [`milp`] crate;
//! * [`synts_poly`] — Algorithm 1, the exact polynomial-time solver;
//! * [`nominal`], [`no_ts`], [`per_core_ts`] — the evaluation baselines;
//! * [`online`] — the sampling-based online controller (Sec 4.3), which
//!   reads a characterized interval's threads in place and dispatches its
//!   optimization step through the [`Solver`] trait ([`run_interval`]);
//! * [`overhead`] — the Sec 6.3 hardware-overhead accounting;
//! * [`leakage`] — the Sec 4.1-suggested leakage-power extension;
//! * [`power_cap`] — the Sec 4.1-suggested power-constrained variant;
//! * [`criticality`] — online `N_i` prediction (the Sec 6.2 assumption);
//! * [`thrifty`] — the thrifty-barrier baseline (related work, ref \[4\]);
//! * [`parallel`] — the scoped thread pool fanning θ sweeps, per-interval
//!   solves and gate-level characterization across
//!   cores (`SYNTS_THREADS`, or `ThreadPool::new(worker_count(Some(n)))`),
//!   with deterministic index-ordered collection;
//! * [`cache`] — the persistent, recipe-keyed characterization cache
//!   (`SYNTS_CACHE_DIR`): a warm run skips trace generation and gate
//!   simulation entirely, bit-identically. [`characterize_pairs`], the one
//!   characterization scheduler, runs every characterization through it;
//! * [`phase`] — process-wide per-phase wall-clock counters
//!   ([`PhaseStats`]) instrumenting the characterization pipeline, the
//!   evidence trail for parallel-scaling work;
//! * [`pareto`] — trait-dispatched θ sweeps behind Figs 6.11–6.16, fanned
//!   out across the pool;
//! * [`experiments`] — the end-to-end harness tying workloads, circuits and
//!   the optimizer together to regenerate the paper's figures;
//! * [`scenario`] — the declarative layer over all of the above: a
//!   serializable [`scenario::ScenarioSpec`] run by
//!   [`scenario::Experiment`] into a typed, JSON/CSV-serializable
//!   [`scenario::Report`] (specs on disk → reproducible figures).
#![forbid(unsafe_code)]

mod baselines;
pub mod cache;
pub mod criticality;
mod error;
mod exhaustive;
pub mod experiments;
pub mod faults;
pub mod leakage;
mod milp_formulation;
mod model;
pub mod online;
pub mod overhead;
pub mod parallel;
pub mod pareto;
pub mod phase;
mod poly;
pub mod power_cap;
pub mod reference;
pub mod scenario;
pub mod solver;
pub mod thrifty;

pub use baselines::{no_ts, nominal, per_core_ts};
pub use cache::{
    characterize_cached, characterize_pairs, CacheEntry, CacheStats, CharCache, CACHE_DIR_ENV,
};
pub use error::{closest_match, levenshtein, OptError};
pub use exhaustive::{pruning_stats, synts_exhaustive, PruningStats, EXHAUSTIVE_LIMIT};
pub use faults::{FaultPlan, FAULTS_ENV};
pub use milp_formulation::synts_milp;
pub use model::{
    evaluate, thread_energy, thread_time, weighted_cost, Assignment, OperatingPoint, SystemConfig,
    ThreadProfile, RAZOR_PENALTY_CYCLES,
};
pub use online::{run_interval, IntervalOutcome, SamplingPlan};
pub use overhead::{estimate_overhead, estimate_overhead_defaults, OverheadReport};
pub use parallel::{worker_count, ThreadPool, THREADS_ENV};
pub use pareto::{
    default_theta_sweep, log_theta_grid, pareto_sweep, theta_equal_weight, SweepPoint,
};
pub use phase::{time_phase, Phase, PhaseStats};
pub use poly::synts_poly;
pub use scenario::{
    Dataset, Experiment, IntervalSelection, Quality, Record, Report, ReportCheck, ScenarioSpec,
    Shard, ShardPlan, ThetaSpec,
};
pub use solver::{Capabilities, Objective, SolveRequest, Solver, SolverRegistry};
