//! # synts — Synergistic Timing Speculation for Multi-Threaded Programs
//!
//! The facade crate of the SynTS reproduction suite (DAC 2016 /
//! Yasin 2016). It re-exports every member crate and flattens the
//! optimization API — the [`Solver`] trait and the [`SolverRegistry`] —
//! so applications depend on one crate and write `use synts::prelude::*;`.
//!
//! ## Layers
//!
//! | module | crate | role |
//! |--------|-------|------|
//! | [`gatelib`] | `gatelib` | cell library, netlists, STA, dynamic timing simulation |
//! | [`circuits`] | `circuits` | Decode / SimpleALU / ComplexALU stage generators |
//! | [`timing`] | `timing` | delay traces, error curves, energy-delay metrics |
//! | [`workloads`] | `workloads` | instrumented SPLASH-2-like parallel kernels |
//! | [`archsim`] | `archsim` | CPI model, caches, cycle-level Razor simulation |
//! | [`gpgpu`] | `gpgpu` | the SIMD-unit homogeneity case study |
//! | [`milp`] | `milp` | the dense LP/MILP solver backing SynTS-MILP |
//! | [`core_api`] | `synts-core` | system model, solvers, baselines, extensions, online controller |
//!
//! ## Quickstart
//!
//! Solve one heterogeneous barrier interval with the paper's exact
//! polynomial solver, looked up in the registry:
//!
//! ```
//! use synts::prelude::*;
//!
//! # fn main() -> Result<(), OptError> {
//! let cfg = SystemConfig::paper_default(100.0);
//! let curve = |lo: f64| {
//!     ErrorCurve::from_normalized_delays(
//!         (0..64).map(|i| lo + (1.0 - lo) * i as f64 / 64.0).collect(),
//!     )
//! };
//! let profiles = vec![
//!     ThreadProfile::new(10_000.0, 1.2, curve(0.7)?), // speculation-critical
//!     ThreadProfile::new(10_000.0, 1.0, curve(0.4)?), // has headroom
//! ];
//!
//! let registry = SolverRegistry::with_defaults();
//! let (assignment, ed) = registry.get("synts_poly")?.solve_evaluated(&cfg, &profiles, 1.0)?;
//! assert_eq!(assignment.len(), 2);
//! assert!(ed.energy > 0.0 && ed.time > 0.0);
//!
//! // The same dispatch reaches every scheme by key:
//! for name in ["synts_poly", "per_core_ts", "nominal"] {
//!     let solver = registry.get(name).expect("registered");
//!     let a = solver.solve(&cfg, &profiles, 1.0)?;
//!     assert_eq!(a.len(), profiles.len());
//! }
//! # Ok(())
//! # }
//! ```
//!
//! End-to-end (workload kernel → gate-level characterization → solver),
//! as in `examples/quickstart.rs`:
//!
//! ```no_run
//! use synts::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = characterize(Benchmark::Radix, StageKind::Decode, &HarnessConfig::quick())?;
//! let cfg = data.system_config();
//! let profiles = data.intervals[0].profiles();
//! let theta = theta_equal_weight(&cfg, &profiles)?;
//! let solver = SolverRegistry::with_defaults().get("synts_poly")?;
//! let assignment = solver.solve(&cfg, &profiles, theta)?;
//! println!("{assignment:?}");
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]

pub use archsim;
pub use circuits;
pub use gatelib;
pub use gpgpu;
pub use milp;
pub use synts_core as core_api;
pub use timing;
pub use workloads;

// The naive pre-engine solver paths — the executable spec the sweep-scale
// engine is property-tested and benchmarked against.
pub use synts_core::reference;

// The optimization API, flattened to the facade root.
pub use synts_core::{
    characterize_cached, characterize_pairs, default_theta_sweep, evaluate, log_theta_grid, no_ts,
    nominal, pareto_sweep, per_core_ts, pruning_stats, run_interval, synts_exhaustive, synts_milp,
    synts_poly, theta_equal_weight, thread_energy, thread_time, weighted_cost, worker_count,
    Assignment, CacheStats, Capabilities, CharCache, Dataset, Experiment, FaultPlan,
    IntervalOutcome, IntervalSelection, Objective, OperatingPoint, OptError, PruningStats, Quality,
    Record, Report, ReportCheck, SamplingPlan, ScenarioSpec, SolveRequest, Solver, SolverRegistry,
    SweepPoint, SystemConfig, ThetaSpec, ThreadPool, ThreadProfile, CACHE_DIR_ENV, FAULTS_ENV,
    THREADS_ENV,
};

/// Everything a SynTS application typically needs: the solver API, the
/// system model, the characterization harness, and the cross-layer types
/// it produces and consumes.
pub mod prelude {
    pub use synts_core::experiments::{
        characterize, BenchmarkData, HarnessConfig, IntervalData, ThreadData,
    };
    pub use synts_core::leakage::{
        evaluate_with_leakage, synts_poly_leakage, weighted_cost_with_leakage, LeakageModel,
    };
    pub use synts_core::online::estimate_curve;
    pub use synts_core::power_cap::{synts_poly_power_capped, PowerCappedSolution};
    pub use synts_core::scenario::Json;
    pub use synts_core::thrifty::{thrifty_barrier, ThriftyConfig};
    pub use synts_core::{
        characterize_cached, characterize_pairs, default_theta_sweep, evaluate, log_theta_grid,
        no_ts, nominal, pareto_sweep, per_core_ts, pruning_stats, run_interval, synts_exhaustive,
        synts_milp, synts_poly, theta_equal_weight, thread_energy, thread_time, weighted_cost,
        worker_count, Assignment, CacheStats, Capabilities, CharCache, Dataset, Experiment,
        FaultPlan, IntervalOutcome, IntervalSelection, Objective, OperatingPoint, OptError,
        PruningStats, Quality, Record, Report, ReportCheck, SamplingPlan, ScenarioSpec, Shard,
        ShardPlan, SolveRequest, Solver, SolverRegistry, SweepPoint, SystemConfig, ThetaSpec,
        ThreadPool, ThreadProfile, CACHE_DIR_ENV, FAULTS_ENV, THREADS_ENV,
    };

    pub use circuits::StageKind;
    pub use timing::{EnergyDelay, ErrorCurve, ErrorModel, SampledCurve};
    pub use workloads::{Benchmark, WorkloadConfig};
}
