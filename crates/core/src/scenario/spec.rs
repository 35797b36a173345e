//! [`ScenarioSpec`] — the serializable description of one experiment.
//!
//! A spec is *data*: benchmark, pipe stage, solver registry keys, a θ
//! grid (or a rule for deriving one), which barrier intervals to include,
//! worker count and harness quality. [`crate::scenario::Experiment`]
//! turns a spec into a [`crate::scenario::Report`]; committed spec files
//! under `crates/bench/specs/` are the declarative form of the paper's
//! figures.

use std::sync::Arc;

use circuits::StageKind;
use timing::ErrorCurve;
use workloads::Benchmark;

use crate::error::OptError;
use crate::experiments::HarnessConfig;
use crate::scenario::json::Json;
use crate::solver::{Solver, SolverRegistry};

/// How much work the characterization harness does for this scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quality {
    /// Test-sized workloads (`HarnessConfig::quick`).
    Quick,
    /// Paper-shaped workloads (`HarnessConfig::paper_default`).
    Paper,
}

impl Quality {
    /// The harness configuration this quality level maps to.
    #[must_use]
    pub fn harness(self) -> HarnessConfig {
        match self {
            Quality::Quick => HarnessConfig::quick(),
            Quality::Paper => HarnessConfig::paper_default(),
        }
    }

    /// Canonical spec-file name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Quality::Quick => "quick",
            Quality::Paper => "paper",
        }
    }

    /// Parses a quality level (case-insensitive).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Quality> {
        match name.trim().to_ascii_lowercase().as_str() {
            "quick" => Some(Quality::Quick),
            "paper" => Some(Quality::Paper),
            _ => None,
        }
    }
}

/// The θ grid of a scenario — either explicit values or a rule resolved
/// against the scenario's equal-weight θ (Σ nominal energy / Σ nominal
/// time over the selected intervals).
#[derive(Debug, Clone, PartialEq)]
pub enum ThetaSpec {
    /// The single equal-weight θ (the paper's Fig 6.18 setting).
    EqualWeight,
    /// Explicit absolute θ values.
    Grid(Vec<f64>),
    /// `points` log-spaced values spanning `10^-decades ..= 10^decades`
    /// around the equal-weight θ — the grid behind Figs 6.11–6.16.
    LogAroundEqualWeight {
        /// Number of grid points.
        points: usize,
        /// Half-width of the sweep in decades (at most 100 in a spec
        /// parsed from JSON, see [`ScenarioSpec::from_json`]).
        decades: f64,
    },
}

/// The widest log θ sweep a JSON spec may ask for, in decades on each
/// side of the equal-weight θ (see [`ScenarioSpec::from_json`]).
const MAX_THETA_DECADES: f64 = 100.0;

impl ThetaSpec {
    /// Resolves the spec into concrete θ values given the scenario's
    /// equal-weight center.
    #[must_use]
    pub fn resolve(&self, center: f64) -> Vec<f64> {
        match self {
            ThetaSpec::EqualWeight => vec![center],
            ThetaSpec::Grid(values) => values.clone(),
            ThetaSpec::LogAroundEqualWeight { points, decades } => {
                crate::pareto::log_theta_grid(center, *points, *decades)
            }
        }
    }
}

/// Which barrier intervals of the characterized benchmark the scenario
/// aggregates over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalSelection {
    /// Every interval (summed energy/time, as in the paper's figures).
    All,
    /// One interval by index.
    Index(usize),
    /// The interval with the widest per-thread error spread — the
    /// "illustrative barrier interval" of Figs 3.5/3.6.
    MostHeterogeneous,
}

/// A complete, serializable experiment description.
///
/// Build one in code with the fluent setters, or load a committed JSON
/// file with [`ScenarioSpec::from_json_str`]:
///
/// ```
/// use synts_core::scenario::{ScenarioSpec, ThetaSpec};
/// use workloads::Benchmark;
/// use circuits::StageKind;
///
/// let spec = ScenarioSpec::new("demo", Benchmark::Radix, StageKind::Decode)
///     .schemes(["synts_poly", "no_ts"])
///     .thetas(ThetaSpec::EqualWeight)
///     .normalize_to("nominal");
/// let round_trip = ScenarioSpec::from_json_str(&spec.to_json_string()).unwrap();
/// assert_eq!(round_trip, spec);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario identifier (fixture/figure id, CSV stem).
    pub name: String,
    /// The workload kernel to characterize.
    pub benchmark: Benchmark,
    /// The pipe stage to characterize it on.
    pub stage: StageKind,
    /// Solver registry keys to run, in reporting order.
    pub schemes: Vec<String>,
    /// The θ grid.
    pub thetas: ThetaSpec,
    /// Which barrier intervals to aggregate.
    pub intervals: IntervalSelection,
    /// Sweep worker count (`None`: `SYNTS_THREADS`, then the machine).
    pub workers: Option<usize>,
    /// Characterization effort.
    pub quality: Quality,
    /// Registry key of the scheme to normalize energy/time against
    /// (evaluated at the equal-weight θ), e.g. `"nominal"`.
    pub normalize_to: Option<String>,
    /// Whether records carry the per-interval assignments.
    pub record_assignments: bool,
    /// Whether the report includes the model-vs-simulation agreement
    /// check (analytic Eq 4.1–4.3 vs the cycle-level Razor simulator).
    pub verify_model: bool,
    /// Fault-injection plan armed for runs of this spec (the
    /// [`crate::faults::FaultPlan`] grammar), `None` for production runs.
    /// Omitted from the JSON form when unset so existing spec files and
    /// golden fixtures are byte-unchanged.
    pub faults: Option<String>,
}

impl ScenarioSpec {
    /// A spec with the common defaults: `synts_poly` at the equal-weight
    /// θ over all intervals, quick quality, no normalization.
    #[must_use]
    pub fn new(name: impl Into<String>, benchmark: Benchmark, stage: StageKind) -> ScenarioSpec {
        ScenarioSpec {
            name: name.into(),
            benchmark,
            stage,
            schemes: vec!["synts_poly".to_string()],
            thetas: ThetaSpec::EqualWeight,
            intervals: IntervalSelection::All,
            workers: None,
            quality: Quality::Quick,
            normalize_to: None,
            record_assignments: false,
            verify_model: false,
            faults: None,
        }
    }

    /// Replaces the scheme list.
    #[must_use]
    pub fn schemes<S: Into<String>>(mut self, schemes: impl IntoIterator<Item = S>) -> Self {
        self.schemes = schemes.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the θ grid.
    #[must_use]
    pub fn thetas(mut self, thetas: ThetaSpec) -> Self {
        self.thetas = thetas;
        self
    }

    /// Sets the interval selection.
    #[must_use]
    pub fn intervals(mut self, intervals: IntervalSelection) -> Self {
        self.intervals = intervals;
        self
    }

    /// Sets an explicit worker count.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Sets the harness quality.
    #[must_use]
    pub fn quality(mut self, quality: Quality) -> Self {
        self.quality = quality;
        self
    }

    /// Normalizes records against a scheme (by registry key).
    #[must_use]
    pub fn normalize_to(mut self, scheme: impl Into<String>) -> Self {
        self.normalize_to = Some(scheme.into());
        self
    }

    /// Records the chosen per-interval assignments in the report.
    #[must_use]
    pub fn record_assignments(mut self, record: bool) -> Self {
        self.record_assignments = record;
        self
    }

    /// Includes the model-vs-simulation agreement check in the report.
    #[must_use]
    pub fn verify_model(mut self, verify: bool) -> Self {
        self.verify_model = verify;
        self
    }

    /// Arms a fault-injection plan (the [`crate::faults::FaultPlan`]
    /// grammar) for runs of this spec.
    #[must_use]
    pub fn faults(mut self, plan: impl Into<String>) -> Self {
        self.faults = Some(plan.into());
        self
    }

    /// Resolves the scheme keys against the default registry, the one
    /// every run, shard and merge uses: one solver per `schemes` key, in
    /// order, then the `normalize_to` solver if the spec names one.
    ///
    /// # Errors
    ///
    /// [`OptError::UnknownSolver`] for the first unregistered key,
    /// listing the registered ones.
    #[allow(clippy::type_complexity)]
    pub fn solvers(
        &self,
    ) -> Result<
        (
            Vec<Arc<dyn Solver<ErrorCurve>>>,
            Option<Arc<dyn Solver<ErrorCurve>>>,
        ),
        OptError,
    > {
        let registry = SolverRegistry::with_defaults();
        let schemes = self
            .schemes
            .iter()
            .map(|key| registry.get(key))
            .collect::<Result<_, _>>()?;
        let normalize_to = self
            .normalize_to
            .as_deref()
            .map(|key| registry.get(key))
            .transpose()?;
        Ok((schemes, normalize_to))
    }

    /// The JSON tree of this spec.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let thetas = match &self.thetas {
            ThetaSpec::EqualWeight => Json::str("equal_weight"),
            ThetaSpec::Grid(values) => Json::obj().field(
                "grid",
                Json::Arr(values.iter().map(|&x| Json::num(x)).collect()),
            ),
            ThetaSpec::LogAroundEqualWeight { points, decades } => Json::obj().field(
                "log_around_equal_weight",
                Json::obj()
                    .field("points", Json::num(*points as f64))
                    .field("decades", Json::num(*decades)),
            ),
        };
        let intervals = match self.intervals {
            IntervalSelection::All => Json::str("all"),
            IntervalSelection::MostHeterogeneous => Json::str("most_heterogeneous"),
            IntervalSelection::Index(i) => Json::obj().field("index", Json::num(i as f64)),
        };
        let mut spec = Json::obj()
            .field("name", Json::str(&self.name))
            .field("benchmark", Json::str(self.benchmark.name()))
            .field("stage", Json::str(self.stage.name()))
            .field(
                "schemes",
                Json::Arr(self.schemes.iter().map(Json::str).collect()),
            )
            .field("thetas", thetas)
            .field("intervals", intervals)
            .field(
                "workers",
                match self.workers {
                    Some(n) => Json::num(n as f64),
                    None => Json::Null,
                },
            )
            .field("quality", Json::str(self.quality.name()))
            .field(
                "normalize_to",
                match &self.normalize_to {
                    Some(s) => Json::str(s),
                    None => Json::Null,
                },
            )
            .field("record_assignments", Json::Bool(self.record_assignments))
            .field("verify_model", Json::Bool(self.verify_model));
        // Emitted only when armed: unset plans leave the rendering (and
        // every committed fixture) byte-identical to the pre-faults form.
        if let Some(plan) = &self.faults {
            spec = spec.field("faults", Json::str(plan));
        }
        spec
    }

    /// Pretty JSON — the committed spec-file format.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.to_json().render_pretty()
    }

    /// Parses a spec from a JSON tree.
    ///
    /// # Errors
    ///
    /// [`OptError::Spec`] naming the offending field by its full path,
    /// including the array index for list entries (e.g.
    /// `thetas.grid[3]: expected a finite number >= 0`) — actionable
    /// from a remote client that only sees the message string.
    ///
    /// A log sweep's `decades` must lie in `0..=100`, so every grid
    /// point `center·10^±decades` stays finite and > 0. The center is
    /// the equal-weight θ, nominal energy over nominal time: 0.016–0.106
    /// for the six paper figures. Any center within `10^±200` keeps the
    /// grid within `10^±300`, inside f64's normal range (about
    /// `2.2e-308 ..= 1.8e308`). A wider sweep would reach +∞ and fail
    /// only after characterization, so it is refused here, where
    /// `synts-cli check` and `POST /v1/jobs` both see it.
    pub fn from_json(json: &Json) -> Result<ScenarioSpec, OptError> {
        let bad = |path: &str, expected: &str| {
            OptError::Spec(format!("scenario spec: {path}: {expected}"))
        };
        let name = json
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("name", "expected a string"))?
            .to_string();
        let bench_name = json
            .get("benchmark")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("benchmark", "expected a string"))?;
        let benchmark = Benchmark::from_name(bench_name).ok_or_else(|| {
            let known: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
            bad(
                "benchmark",
                &format!(
                    "unknown benchmark '{bench_name}' (known: {})",
                    known.join(", ")
                ),
            )
        })?;
        let stage_name = json
            .get("stage")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("stage", "expected a string"))?;
        let stage = StageKind::from_name(stage_name).ok_or_else(|| {
            let known: Vec<&str> = StageKind::ALL.iter().map(|s| s.name()).collect();
            bad(
                "stage",
                &format!("unknown stage '{stage_name}' (known: {})", known.join(", ")),
            )
        })?;
        let schemes = match json.get("schemes") {
            Some(Json::Arr(items)) => items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    item.as_str().map(str::to_string).ok_or_else(|| {
                        bad(&format!("schemes[{i}]"), "expected a registry-key string")
                    })
                })
                .collect::<Result<Vec<String>, OptError>>()?,
            None => vec!["synts_poly".to_string()],
            Some(_) => return Err(bad("schemes", "expected an array of registry keys")),
        };
        if schemes.is_empty() {
            return Err(bad("schemes", "must name at least one registry key"));
        }
        let thetas = match json.get("thetas") {
            None => ThetaSpec::EqualWeight,
            Some(Json::Str(s)) if s == "equal_weight" => ThetaSpec::EqualWeight,
            Some(value) => {
                if let Some(grid) = value.get("grid").and_then(Json::as_arr) {
                    let values = grid
                        .iter()
                        .enumerate()
                        .map(|(i, x)| {
                            x.as_f64()
                                .filter(|v| v.is_finite() && *v >= 0.0)
                                .ok_or_else(|| {
                                    bad(
                                        &format!("thetas.grid[{i}]"),
                                        "expected a finite number >= 0",
                                    )
                                })
                        })
                        .collect::<Result<Vec<f64>, OptError>>()?;
                    if values.is_empty() {
                        return Err(bad("thetas.grid", "must not be empty"));
                    }
                    ThetaSpec::Grid(values)
                } else if let Some(log) = value.get("log_around_equal_weight") {
                    let points = log
                        .get("points")
                        .and_then(Json::as_usize)
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| {
                            bad(
                                "thetas.log_around_equal_weight.points",
                                "expected an integer >= 1",
                            )
                        })?;
                    let decades = log
                        .get("decades")
                        .and_then(Json::as_f64)
                        .filter(|d| (0.0..=MAX_THETA_DECADES).contains(d))
                        .ok_or_else(|| {
                            bad(
                                "thetas.log_around_equal_weight.decades",
                                &format!("expected a number in 0..={MAX_THETA_DECADES}"),
                            )
                        })?;
                    ThetaSpec::LogAroundEqualWeight { points, decades }
                } else {
                    return Err(bad(
                        "thetas",
                        "expected \"equal_weight\", {\"grid\": [...]} or \
                         {\"log_around_equal_weight\": {\"points\": n, \"decades\": d}}",
                    ));
                }
            }
        };
        let intervals = match json.get("intervals") {
            None => IntervalSelection::All,
            Some(Json::Str(s)) if s == "all" => IntervalSelection::All,
            Some(Json::Str(s)) if s == "most_heterogeneous" => IntervalSelection::MostHeterogeneous,
            Some(value) => match value.get("index").and_then(Json::as_usize) {
                Some(i) => IntervalSelection::Index(i),
                None => {
                    return Err(bad(
                        "intervals",
                        "expected \"all\", \"most_heterogeneous\" or {\"index\": n}",
                    ))
                }
            },
        };
        let workers = match json.get("workers") {
            None | Some(Json::Null) => None,
            Some(value) => Some(
                value
                    .as_usize()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| bad("workers", "expected an integer >= 1 or null"))?,
            ),
        };
        let quality = match json.get("quality") {
            None => Quality::Quick,
            Some(value) => {
                let s = value
                    .as_str()
                    .ok_or_else(|| bad("quality", "expected a string"))?;
                Quality::from_name(s)
                    .ok_or_else(|| bad("quality", "expected \"quick\" or \"paper\""))?
            }
        };
        let normalize_to = match json.get("normalize_to") {
            None | Some(Json::Null) => None,
            Some(value) => Some(
                value
                    .as_str()
                    .map(str::to_string)
                    .ok_or_else(|| bad("normalize_to", "expected a registry key or null"))?,
            ),
        };
        let flag = |key: &str| -> Result<bool, OptError> {
            match json.get(key) {
                None => Ok(false),
                Some(value) => value.as_bool().ok_or_else(|| bad(key, "expected a bool")),
            }
        };
        Ok(ScenarioSpec {
            name,
            benchmark,
            stage,
            schemes,
            thetas,
            intervals,
            workers,
            quality,
            normalize_to,
            record_assignments: flag("record_assignments")?,
            verify_model: flag("verify_model")?,
            faults: match json.get("faults") {
                None | Some(Json::Null) => None,
                Some(value) => Some(
                    value
                        .as_str()
                        .map(str::to_string)
                        .ok_or_else(|| bad("faults", "expected a fault-plan string or null"))?,
                ),
            },
        })
    }

    /// Parses a spec from JSON text (e.g. a committed spec file).
    ///
    /// # Errors
    ///
    /// [`OptError::Spec`] on malformed JSON or an invalid field.
    pub fn from_json_str(src: &str) -> Result<ScenarioSpec, OptError> {
        ScenarioSpec::from_json(&Json::parse(src)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_json() {
        let specs = [
            ScenarioSpec::new("a", Benchmark::Radix, StageKind::Decode),
            ScenarioSpec::new("b", Benchmark::Cholesky, StageKind::SimpleAlu)
                .schemes(["synts_poly", "per_core_ts", "no_ts"])
                .thetas(ThetaSpec::LogAroundEqualWeight {
                    points: 9,
                    decades: 2.0,
                })
                .normalize_to("nominal")
                .quality(Quality::Paper),
            ScenarioSpec::new("c", Benchmark::Fmm, StageKind::ComplexAlu)
                .thetas(ThetaSpec::Grid(vec![0.5, 1.0, 2.0]))
                .intervals(IntervalSelection::Index(2))
                .workers(4)
                .record_assignments(true)
                .verify_model(true),
            ScenarioSpec::new("d", Benchmark::Ocean, StageKind::SimpleAlu)
                .intervals(IntervalSelection::MostHeterogeneous),
        ];
        for spec in specs {
            let text = spec.to_json_string();
            let back = ScenarioSpec::from_json_str(&text).expect("parses");
            assert_eq!(back, spec, "{text}");
        }
    }

    #[test]
    fn spec_parsing_is_forgiving_and_defaulting() {
        let spec = ScenarioSpec::from_json_str(
            r#"{"name": "min", "benchmark": "RADIX", "stage": "SimpleALU"}"#,
        )
        .expect("parses");
        assert_eq!(spec.benchmark, Benchmark::Radix);
        assert_eq!(spec.stage, StageKind::SimpleAlu);
        assert_eq!(spec.schemes, vec!["synts_poly".to_string()]);
        assert_eq!(spec.thetas, ThetaSpec::EqualWeight);
        assert_eq!(spec.intervals, IntervalSelection::All);
        assert_eq!(spec.quality, Quality::Quick);
        assert!(!spec.record_assignments && !spec.verify_model);
    }

    #[test]
    fn spec_errors_name_the_field() {
        let err = ScenarioSpec::from_json_str(r#"{"benchmark": "radix", "stage": "decode"}"#)
            .expect_err("no name");
        assert!(err.to_string().contains("name: expected a string"), "{err}");
        let err =
            ScenarioSpec::from_json_str(r#"{"name": "x", "benchmark": "nope", "stage": "decode"}"#)
                .expect_err("bad benchmark");
        assert!(err.to_string().contains("radix"), "lists known: {err}");
        let err = ScenarioSpec::from_json_str(
            r#"{"name": "x", "benchmark": "radix", "stage": "decode", "thetas": {"grid": []}}"#,
        )
        .expect_err("empty grid");
        assert!(err.to_string().contains("thetas.grid"), "{err}");
    }

    /// List-entry errors carry the offending index in the field path, so
    /// a remote client can act on the message alone.
    #[test]
    fn spec_errors_carry_the_array_index() {
        let err = ScenarioSpec::from_json_str(
            r#"{"name": "x", "benchmark": "radix", "stage": "decode",
                "thetas": {"grid": [0.5, 1.0, 2.0, "oops"]}}"#,
        )
        .expect_err("non-numeric grid entry");
        let msg = err.to_string();
        assert!(msg.contains("thetas.grid[3]"), "{msg}");
        assert!(msg.contains("expected a finite number"), "{msg}");

        let err = ScenarioSpec::from_json_str(
            r#"{"name": "x", "benchmark": "radix", "stage": "decode",
                "schemes": ["synts_poly", 7]}"#,
        )
        .expect_err("non-string scheme entry");
        assert!(err.to_string().contains("schemes[1]"), "{err}");

        let err = ScenarioSpec::from_json_str(
            r#"{"name": "x", "benchmark": "radix", "stage": "decode",
                "thetas": {"log_around_equal_weight": {"points": 0, "decades": 1}}}"#,
        )
        .expect_err("zero points");
        assert!(
            err.to_string()
                .contains("thetas.log_around_equal_weight.points"),
            "{err}"
        );

        for decades in ["400", "100.5", "-1"] {
            let err = ScenarioSpec::from_json_str(&format!(
                r#"{{"name": "x", "benchmark": "radix", "stage": "decode",
                    "thetas": {{"log_around_equal_weight": {{"points": 9, "decades": {decades}}}}}}}"#
            ))
            .expect_err("decades out of range");
            assert!(
                err.to_string().contains(
                    "thetas.log_around_equal_weight.decades: expected a number in 0..=100"
                ),
                "{decades}: {err}"
            );
        }
        for decades in ["0", "100"] {
            let spec = ScenarioSpec::from_json_str(&format!(
                r#"{{"name": "x", "benchmark": "radix", "stage": "decode",
                    "thetas": {{"log_around_equal_weight": {{"points": 9, "decades": {decades}}}}}}}"#
            ))
            .expect("decades in range");
            for center in [0.016, 0.106] {
                assert!(
                    spec.thetas
                        .resolve(center)
                        .iter()
                        .all(|t| t.is_finite() && *t > 0.0),
                    "{decades}"
                );
            }
        }
    }

    #[test]
    fn quality_and_stage_names_round_trip() {
        for q in [Quality::Quick, Quality::Paper] {
            assert_eq!(Quality::from_name(q.name()), Some(q));
        }
        for s in StageKind::ALL {
            assert_eq!(StageKind::from_name(s.name()), Some(s));
            assert_eq!(StageKind::from_name(&s.to_string()), Some(s));
        }
    }
}
