//! Shard planning and report merging — the fleet-facing decomposition
//! of one [`ScenarioSpec`] into independently runnable pieces.
//!
//! A spec's work is a grid: (selected intervals) × (θ points) × (schemes).
//! The θ axis is embarrassingly parallel *across machines*, not just
//! across threads: every θ point is one `solve_batch` entry against the
//! same characterized data, and characterization itself is served from
//! the shared recipe-keyed cache (`SYNTS_CACHE_DIR`). [`ShardPlan`]
//! splits the resolved θ grid into contiguous chunks — each [`Shard`] is
//! a complete, self-describing [`ScenarioSpec`] with an explicit
//! [`ThetaSpec::Grid`] — and [`Report::merge`] reassembles the partial
//! reports into one that is **bit-identical** (canonical JSON and all)
//! to a monolithic [`Experiment::run`](crate::Experiment::run) on the
//! original spec:
//!
//! * the θ grid is resolved *once*, by the planner, through the same
//!   grid resolution the runner uses, so shard grids concatenate back to
//!   exactly the monolithic grid;
//! * per-record energy/time/normalization is a pure function of
//!   (data, scheme, θ) and data is bit-identical under the cache, so
//!   partial records are the monolithic records;
//! * Pareto fronts and dominance checks are *recomputed* over the merged
//!   record set (a front is not a per-chunk property);
//! * the model-vs-simulation check runs at `theta_grid[0]`, which lives
//!   in shard 0 — the planner therefore enables `verify_model` only
//!   there, and the merge splices that check back in after the
//!   recomputed dominance checks, exactly where the monolithic runner
//!   puts it.
//!
//! ```no_run
//! use synts_core::scenario::{Experiment, ScenarioSpec, ShardPlan, ThetaSpec};
//! use synts_core::CharCache;
//! use workloads::Benchmark;
//! use circuits::StageKind;
//!
//! # fn main() -> Result<(), synts_core::OptError> {
//! let spec = ScenarioSpec::new("sweep", Benchmark::Radix, StageKind::Decode)
//!     .thetas(ThetaSpec::LogAroundEqualWeight { points: 9, decades: 2.0 });
//! let plan = ShardPlan::plan_cached(&spec, 4, &CharCache::from_env())?;
//! let parts = plan
//!     .shards()
//!     .iter()
//!     .map(|shard| Experiment::new(shard.spec.clone()).run())
//!     .collect::<Result<Vec<_>, _>>()?;
//! let merged = plan.merge(&parts)?;
//! assert_eq!(merged.theta_grid.len(), 9);
//! # Ok(())
//! # }
//! ```

use std::ops::Range;

use timing::pareto_front;

use crate::cache::{characterize_cached, CharCache};
use crate::error::OptError;
use crate::experiments::BenchmarkData;
use crate::parallel::{worker_count, ThreadPool};
use crate::scenario::report::{Dataset, Report};
use crate::scenario::runner::{dominance_checks, refuse_data_free, resolve_grid, Grid};
use crate::scenario::spec::{ScenarioSpec, ThetaSpec};

/// One independently runnable piece of a sharded scenario: the original
/// spec restricted to a contiguous θ-chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct Shard {
    /// Position of this shard in the plan (and of its chunk in the grid).
    pub index: usize,
    /// The half-open range of global θ-grid indices this shard covers.
    pub theta_range: Range<usize>,
    /// The derived spec: same benchmark/stage/schemes/intervals/quality,
    /// θs pinned to an explicit [`ThetaSpec::Grid`] chunk, and
    /// `verify_model` kept only on shard 0 (where `theta_grid[0]` lives).
    pub spec: ScenarioSpec,
}

/// A deterministic decomposition of one [`ScenarioSpec`] into
/// [`Shard`]s, carrying everything needed to merge the partial reports
/// back into the monolithic one.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    spec: ScenarioSpec,
    theta_center: f64,
    theta_grid: Vec<f64>,
    shards: Vec<Shard>,
}

impl ShardPlan {
    /// Plans `spec` against already-characterized `data`, splitting the
    /// resolved θ grid into at most `max_shards` contiguous near-equal
    /// chunks (clamped to at least 1; a grid shorter than `max_shards`
    /// yields one shard per θ point).
    ///
    /// # Errors
    ///
    /// [`OptError::BadConfig`] if `data` is for a different
    /// benchmark/stage, the spec selects no intervals, or the resolved
    /// grid is empty; [`OptError::Spec`] on an out-of-range interval
    /// index.
    pub fn plan(
        spec: &ScenarioSpec,
        data: &BenchmarkData,
        max_shards: usize,
    ) -> Result<ShardPlan, OptError> {
        let Grid {
            theta_center,
            theta_grid,
            ..
        } = resolve_grid(spec, data)?;
        // The same contiguous near-equal chunking the thread pool uses,
        // so a plan at N shards mirrors a sweep at N workers.
        let ranges = ThreadPool::new(max_shards.max(1)).chunk_ranges(theta_grid.len());
        let shards = ranges
            .into_iter()
            .enumerate()
            .map(|(index, range)| {
                let mut shard_spec = spec.clone();
                shard_spec.name = format!("{}@shard{index}", spec.name);
                shard_spec.thetas = ThetaSpec::Grid(theta_grid[range.clone()].to_vec());
                shard_spec.verify_model = spec.verify_model && index == 0;
                Shard {
                    index,
                    theta_range: range,
                    spec: shard_spec,
                }
            })
            .collect();
        Ok(ShardPlan {
            spec: spec.clone(),
            theta_center,
            theta_grid,
            shards,
        })
    }

    /// Plans `spec` by characterizing its benchmark/stage first, through
    /// `cache` — the entry point the service uses on job submission. The
    /// characterization this pays warms the cache the shards then hit. A
    /// spec [`ShardPlan::plan`] refuses whatever the data (no schemes, an
    /// explicit empty θ grid) is refused before it characterizes.
    ///
    /// # Errors
    ///
    /// Characterization failures, plus everything [`ShardPlan::plan`]
    /// raises.
    pub fn plan_cached(
        spec: &ScenarioSpec,
        max_shards: usize,
        cache: &CharCache,
    ) -> Result<ShardPlan, OptError> {
        refuse_data_free(spec)?;
        let data = characterize_cached(
            spec.benchmark,
            spec.stage,
            &spec.quality.harness(),
            cache,
            ThreadPool::new(worker_count(spec.workers)),
        )?;
        Self::plan(spec, &data, max_shards)
    }

    /// The original (unsharded) spec.
    #[must_use]
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The equal-weight θ the grid was resolved around.
    #[must_use]
    pub fn theta_center(&self) -> f64 {
        self.theta_center
    }

    /// The full resolved θ grid, in monolithic record order.
    #[must_use]
    pub fn theta_grid(&self) -> &[f64] {
        &self.theta_grid
    }

    /// The shards, in θ-chunk order.
    #[must_use]
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Merges the shards' partial reports (one per shard, in shard
    /// order) into the monolithic report — see [`Report::merge`].
    ///
    /// # Errors
    ///
    /// As [`Report::merge`].
    pub fn merge(&self, parts: &[Report]) -> Result<Report, OptError> {
        Report::merge(self, parts)
    }
}

impl Report {
    /// Reassembles one report per [`Shard`] of `plan` (in shard order)
    /// into the report a monolithic [`Experiment::run`] of the plan's
    /// spec would produce — bit-identical, canonical JSON included.
    ///
    /// Partial `Dataset`s are matched by scheme key, records
    /// concatenated in θ-chunk order, Pareto fronts and dominance checks
    /// recomputed over the merged set (resolving scheme capabilities
    /// through [`ScenarioSpec::solvers`]), and shard 0's
    /// model-vs-simulation check (if the spec asked for one) spliced back
    /// in last.
    ///
    /// # Errors
    ///
    /// [`OptError::Spec`] when the parts do not line up with the plan
    /// (wrong count or order, a θ chunk or dataset mismatch, or
    /// cross-shard disagreement on the characterized inputs);
    /// [`OptError::UnknownSolver`] if a scheme key is not registered.
    ///
    /// [`Experiment::run`]: crate::scenario::Experiment::run
    pub fn merge(plan: &ShardPlan, parts: &[Report]) -> Result<Report, OptError> {
        let bad = |msg: String| OptError::Spec(format!("report merge: {msg}"));
        if parts.len() != plan.shards.len() {
            return Err(bad(format!(
                "expected {} partial reports (one per shard), got {}",
                plan.shards.len(),
                parts.len()
            )));
        }
        let first = &parts[0];
        for (shard, part) in plan.shards.iter().zip(parts) {
            if part.spec != shard.spec {
                return Err(bad(format!(
                    "part {} was produced by spec '{}', expected shard spec '{}' \
                     (parts must arrive in shard order)",
                    shard.index, part.spec.name, shard.spec.name
                )));
            }
            let expected = &plan.theta_grid[shard.theta_range.clone()];
            if !bits_eq(&part.theta_grid, expected) {
                return Err(bad(format!(
                    "part {}'s θ grid does not match its planned chunk",
                    shard.index
                )));
            }
            if part.tnom_v1.to_bits() != first.tnom_v1.to_bits()
                || part.theta_center.to_bits() != first.theta_center.to_bits()
                || part.intervals_used != first.intervals_used
                || part.baseline.map(ed_bits) != first.baseline.map(ed_bits)
            {
                return Err(bad(format!(
                    "part {} disagrees with part 0 on the characterized inputs \
                     (was it run against a different cache or library?)",
                    shard.index
                )));
            }
            if part.datasets.len() != plan.spec.schemes.len()
                || part
                    .datasets
                    .iter()
                    .zip(&plan.spec.schemes)
                    .any(|(ds, scheme)| &ds.scheme != scheme)
            {
                return Err(bad(format!(
                    "part {}'s datasets do not cover the spec's schemes",
                    shard.index
                )));
            }
        }
        if first.theta_center.to_bits() != plan.theta_center.to_bits() {
            return Err(bad(
                "the parts' equal-weight θ disagrees with the plan's".to_string()
            ));
        }

        let (solvers, _) = plan.spec.solvers()?;
        let datasets: Vec<Dataset> = plan
            .spec
            .schemes
            .iter()
            .enumerate()
            .map(|(s, scheme)| {
                let records: Vec<_> = parts
                    .iter()
                    .flat_map(|part| part.datasets[s].records.iter().cloned())
                    .collect();
                let pareto = pareto_front(&records.iter().map(|r| r.ed).collect::<Vec<_>>());
                Dataset {
                    scheme: scheme.clone(),
                    label: first.datasets[s].label.clone(),
                    records,
                    pareto,
                }
            })
            .collect();

        let mut checks = dominance_checks(&solvers, &plan.theta_grid, &datasets);
        if plan.spec.verify_model {
            // The monolithic runner appends exactly one model-vs-sim
            // check after the dominance checks; shard 0 ran it at the
            // same (interval, θ, scheme), so its last check is that one.
            let model_check = first
                .checks
                .last()
                .ok_or_else(|| bad("shard 0 carries no model-vs-simulation check".to_string()))?;
            checks.push(model_check.clone());
        }

        Ok(Report {
            spec: plan.spec.clone(),
            tnom_v1: first.tnom_v1,
            intervals_used: first.intervals_used.clone(),
            theta_center: plan.theta_center,
            theta_grid: plan.theta_grid.clone(),
            baseline: first.baseline,
            datasets,
            checks,
        })
    }
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn ed_bits(ed: timing::EnergyDelay) -> (u64, u64) {
    (ed.energy.to_bits(), ed.time.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuits::StageKind;
    use workloads::Benchmark;

    fn grid_spec(points: usize) -> ScenarioSpec {
        ScenarioSpec::new("plan", Benchmark::Radix, StageKind::Decode)
            .thetas(ThetaSpec::Grid((1..=points).map(|i| i as f64).collect()))
    }

    #[test]
    fn shards_tile_the_grid_contiguously() {
        for (points, max_shards) in [(9usize, 4usize), (5, 8), (1, 3), (12, 1)] {
            let spec = grid_spec(points);
            // A pure-Grid spec resolves without data; plan() needs data
            // only for the center, so exercise the chunking directly.
            let grid = spec.thetas.resolve(1.0);
            let ranges = ThreadPool::new(max_shards).chunk_ranges(grid.len());
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next);
                assert!(!r.is_empty());
                next = r.end;
            }
            assert_eq!(next, points);
            assert!(ranges.len() <= max_shards.min(points));
        }
    }

    #[test]
    fn merge_rejects_wrong_part_count_and_order() {
        let data = crate::experiments::characterize(
            Benchmark::Radix,
            StageKind::Decode,
            &crate::experiments::HarnessConfig::quick(),
        )
        .expect("characterizes");
        let spec = grid_spec(4).schemes(["synts_poly", "no_ts"]);
        let plan = ShardPlan::plan(&spec, &data, 2).expect("plans");
        assert_eq!(plan.shards().len(), 2);
        let parts: Vec<Report> = plan
            .shards()
            .iter()
            .map(|shard| {
                crate::scenario::Experiment::new(shard.spec.clone())
                    .run_on(&data)
                    .expect("runs")
            })
            .collect();

        let err = plan.merge(&parts[..1]).expect_err("missing part");
        assert!(err.to_string().contains("expected 2"), "{err}");
        let swapped: Vec<Report> = vec![parts[1].clone(), parts[0].clone()];
        let err = plan.merge(&swapped).expect_err("out of order");
        assert!(err.to_string().contains("shard order"), "{err}");

        let merged = plan.merge(&parts).expect("merges");
        let monolithic = crate::scenario::Experiment::new(spec)
            .run_on(&data)
            .expect("runs");
        assert_eq!(merged.to_json_string(), monolithic.to_json_string());
    }
}
