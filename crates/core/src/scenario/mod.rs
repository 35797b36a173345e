//! The declarative scenario layer: data-driven end-to-end runs.
//!
//! The paper's evaluation is a grid of scenarios — benchmark × pipeline
//! stage × scheme × θ. This module makes such runs *data* instead of
//! hand-wired loops:
//!
//! * [`ScenarioSpec`] — a serializable description (benchmark, stage,
//!   registry keys, θ grid, interval selection, workers, quality);
//! * [`Experiment`] — the one runner entry point, executing a spec over
//!   the [`crate::SolverRegistry`] and the [`crate::parallel`] pool;
//! * [`Report`] / [`Dataset`] / [`Record`] — typed results (per-scheme
//!   assignments, energy/time, Pareto fronts, invariant checks) with
//!   text-free JSON/CSV sinks, so golden fixtures pin canonical JSON
//!   rather than prose;
//! * [`Json`] — the deterministic serialization substrate (the vendored
//!   `serde` stand-in serializes nothing, see `vendor/README.md`);
//! * [`ShardPlan`] / [`Shard`] — the service-facing decomposition of one
//!   spec into independently runnable θ-chunks, with [`Report::merge`]
//!   reassembling the partial reports bit-identically.
//!
//! ```no_run
//! use synts_core::scenario::{Experiment, ScenarioSpec, ThetaSpec};
//! use workloads::Benchmark;
//! use circuits::StageKind;
//!
//! # fn main() -> Result<(), synts_core::OptError> {
//! let spec = ScenarioSpec::new("demo", Benchmark::Radix, StageKind::Decode)
//!     .schemes(["synts_poly", "per_core_ts", "no_ts"])
//!     .thetas(ThetaSpec::LogAroundEqualWeight { points: 9, decades: 2.0 })
//!     .normalize_to("nominal");
//! let report = Experiment::new(spec).run()?;
//! println!("{}", report.to_json_string());
//! # Ok(())
//! # }
//! ```

pub mod json;
pub mod report;
pub mod runner;
pub mod service;
pub mod spec;

pub use json::Json;
pub use report::{Dataset, Record, Report, ReportCheck};
pub use runner::Experiment;
pub use service::{Shard, ShardPlan};
pub use spec::{IntervalSelection, Quality, ScenarioSpec, ThetaSpec};
