//! Integration tests for the declarative scenario layer: spec JSON
//! round-trips, committed spec files, runner correctness against the
//! direct solver API, worker-count determinism, and a golden canonical
//! JSON report fixture.
//!
//! To regenerate the fixture after an intentional change:
//! `SYNTS_REGEN_FIXTURES=1 cargo test --test scenario`

use std::fs;
use std::path::PathBuf;

use synts::prelude::*;
use synts_bench::figures;

fn quick_data(bench: Benchmark, stage: StageKind) -> BenchmarkData {
    characterize(bench, stage, &HarnessConfig::quick()).expect("characterizes")
}

#[test]
fn committed_spec_files_parse_and_name_their_figure() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates/bench/specs");
    let mut seen = 0;
    for entry in fs::read_dir(&dir).expect("specs dir exists") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let src = fs::read_to_string(&path).expect("readable");
        let spec = ScenarioSpec::from_json_str(&src)
            .unwrap_or_else(|e| panic!("{} must parse: {e}", path.display()));
        let stem = path.file_stem().and_then(|s| s.to_str()).expect("stem");
        assert_eq!(spec.name, stem, "{}: name matches the file", path.display());
        assert!(!spec.schemes.is_empty());
        seen += 1;
    }
    assert!(
        seen >= 7,
        "expected the committed paper specs, found {seen}"
    );
    // The Pareto figures resolve through the same committed sources.
    for (id, _) in figures::PARETO_SPECS {
        let spec = figures::pareto_spec(id).expect("parses");
        assert_eq!(spec.name, *id);
        assert_eq!(spec.quality, Quality::Paper);
        assert_eq!(spec.normalize_to.as_deref(), Some("nominal"));
    }
}

#[test]
fn unknown_scheme_fails_fast_and_lists_registered_keys() {
    let data = quick_data(Benchmark::Radix, StageKind::SimpleAlu);
    let spec = ScenarioSpec::new("bad", Benchmark::Radix, StageKind::SimpleAlu)
        .schemes(["synts_poly", "simulated_annealing"]);
    let err = Experiment::new(spec)
        .run_on(&data)
        .expect_err("unknown scheme");
    let msg = err.to_string();
    assert!(msg.contains("simulated_annealing"), "{msg}");
    for known in ["synts_poly", "nominal", "per_core_ts", "thrifty"] {
        assert!(msg.contains(known), "{msg} should list '{known}'");
    }
}

#[test]
fn mismatched_data_is_rejected() {
    let data = quick_data(Benchmark::Radix, StageKind::SimpleAlu);
    let spec = ScenarioSpec::new("mismatch", Benchmark::Fmm, StageKind::SimpleAlu);
    assert!(Experiment::new(spec).run_on(&data).is_err());
    let spec = ScenarioSpec::new("oob", Benchmark::Radix, StageKind::SimpleAlu)
        .intervals(IntervalSelection::Index(99));
    assert!(Experiment::new(spec).run_on(&data).is_err());
}

/// A spec built in code with no schemes is refused by the runner with
/// the shard planner's message, not a panic at the model check's solver
/// index. The parser and `POST /v1/jobs` refuse such a spec already.
#[test]
fn an_empty_scheme_list_is_refused_by_runner_and_planner_alike() {
    let data = quick_data(Benchmark::Radix, StageKind::SimpleAlu);
    let spec = ScenarioSpec::new("none", Benchmark::Radix, StageKind::SimpleAlu)
        .schemes(Vec::<String>::new())
        .verify_model(true);
    let run = Experiment::new(spec.clone())
        .run_on(&data)
        .expect_err("no schemes");
    let plan = ShardPlan::plan(&spec, &data, 4).expect_err("no schemes");
    for err in [run, plan] {
        assert_eq!(
            err.to_string(),
            "bad system config: the spec names no schemes"
        );
    }
}

/// An explicit θ grid with no points is refused by the runner with the
/// shard planner's message, not a panic at the model check's first θ.
#[test]
fn an_empty_theta_grid_is_refused_by_runner_and_planner_alike() {
    let data = quick_data(Benchmark::Radix, StageKind::SimpleAlu);
    let spec = ScenarioSpec::new("no-thetas", Benchmark::Radix, StageKind::SimpleAlu)
        .thetas(ThetaSpec::Grid(vec![]))
        .verify_model(true);
    let run = Experiment::new(spec.clone())
        .run_on(&data)
        .expect_err("empty grid");
    let plan = ShardPlan::plan(&spec, &data, 4).expect_err("empty grid");
    for err in [run, plan] {
        assert_eq!(
            err.to_string(),
            "bad system config: the spec resolves to an empty θ grid"
        );
    }
}

/// The refusals that need no data come before any characterization: a
/// spec built in code with no schemes, or with an explicit empty θ grid,
/// is refused by `Experiment::run` and `ShardPlan::plan_cached` alike
/// with the planner's message, without a cache lookup or an entry
/// written. Before, the paper `fig-6-16` spec with no schemes was refused
/// only after a full cold characterization (0.35 s) had stored its entry.
#[test]
fn data_free_refusals_come_before_characterizing() {
    let src = fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates/bench/specs/fig-6-16.json"),
    )
    .expect("committed spec");
    let paper = ScenarioSpec::from_json_str(&src).expect("parses");
    let cases = [
        (
            paper.clone().schemes(Vec::<String>::new()),
            "bad system config: the spec names no schemes",
        ),
        (
            paper.thetas(ThetaSpec::Grid(vec![])),
            "bad system config: the spec resolves to an empty θ grid",
        ),
    ];
    for (k, (spec, message)) in cases.into_iter().enumerate() {
        let dir = std::env::temp_dir().join(format!(
            "synts-data-free-refusal-{k}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let cache = CharCache::at_dir(&dir);
        let run = Experiment::new(spec.clone())
            .with_cache(cache.clone())
            .run()
            .expect_err("refused");
        let plan = ShardPlan::plan_cached(&spec, 4, &cache).expect_err("refused");
        for err in [run, plan] {
            assert_eq!(err.to_string(), message);
        }
        assert_eq!(cache.stats().lookups(), 0, "{message}: no lookup");
        let entries = fs::read_dir(&dir).map_or(0, |d| {
            d.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "char"))
                .count()
        });
        assert_eq!(entries, 0, "{message}: no entry written");
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn equal_weight_record_matches_the_direct_solver_api() {
    let data = quick_data(Benchmark::Cholesky, StageKind::SimpleAlu);
    let cfg = data.system_config();
    let iv = 1usize;
    let profiles = data.intervals[iv].profiles();
    let theta = theta_equal_weight(&cfg, &profiles).expect("theta");

    let spec = ScenarioSpec::new("direct", Benchmark::Cholesky, StageKind::SimpleAlu)
        .intervals(IntervalSelection::Index(iv))
        .record_assignments(true);
    let report = Experiment::new(spec).run_on(&data).expect("runs");
    assert_eq!(report.theta_center, theta, "same equal-weight θ");

    let solver: std::sync::Arc<dyn Solver<ErrorCurve>> = SolverRegistry::with_defaults()
        .get("synts_poly")
        .expect("registered");
    let (assignment, ed) = solver.solve_evaluated(&cfg, &profiles, theta).expect("ok");
    let record = &report.datasets[0].records[0];
    assert_eq!(record.ed.energy.to_bits(), ed.energy.to_bits());
    assert_eq!(record.ed.time.to_bits(), ed.time.to_bits());
    assert_eq!(
        record.assignments.as_ref().expect("recorded")[0],
        assignment,
        "report assignment equals the direct solve"
    );
}

#[test]
fn grid_records_match_a_pareto_sweep() {
    let data = quick_data(Benchmark::Fmm, StageKind::SimpleAlu);
    let cfg = data.system_config();
    let profiles = data.intervals[0].profiles();
    let thetas = [0.01, 0.1, 1.0, 10.0];

    let spec = ScenarioSpec::new("grid", Benchmark::Fmm, StageKind::SimpleAlu)
        .thetas(ThetaSpec::Grid(thetas.to_vec()))
        .intervals(IntervalSelection::Index(0));
    let report = Experiment::new(spec).run_on(&data).expect("runs");
    assert_eq!(report.theta_grid, thetas);

    let solver: std::sync::Arc<dyn Solver<ErrorCurve>> = SolverRegistry::with_defaults()
        .get("synts_poly")
        .expect("registered");
    let swept =
        pareto_sweep(&*solver, &cfg, &profiles, &thetas, ThreadPool::from_env()).expect("sweeps");
    for (record, point) in report.datasets[0].records.iter().zip(&swept) {
        assert_eq!(record.ed.energy.to_bits(), point.ed.energy.to_bits());
        assert_eq!(record.ed.time.to_bits(), point.ed.time.to_bits());
    }
}

/// The worker count must not change a single byte of the report: the
/// CI matrix re-runs this whole file at `SYNTS_THREADS=1` and `8`
/// against the same golden fixture, and this test additionally pins
/// explicit 1-vs-8 worker specs against each other in-process.
#[test]
fn reports_are_identical_at_any_worker_count() {
    let data = quick_data(Benchmark::Radix, StageKind::Decode);
    let run_with = |workers: usize| {
        let spec = ScenarioSpec::new("det", Benchmark::Radix, StageKind::Decode)
            .schemes(["synts_poly", "per_core_ts", "no_ts"])
            .thetas(ThetaSpec::LogAroundEqualWeight {
                points: 7,
                decades: 2.0,
            })
            .normalize_to("nominal")
            .record_assignments(true)
            .workers(workers);
        Experiment::new(spec).run_on(&data).expect("runs")
    };
    let sequential = run_with(1);
    for workers in [2, 8] {
        let parallel = run_with(workers);
        assert_eq!(
            sequential.datasets, parallel.datasets,
            "datasets drift at {workers} workers"
        );
        assert_eq!(sequential.checks, parallel.checks);
        assert_eq!(sequential.theta_grid, parallel.theta_grid);
        assert_eq!(sequential.baseline, parallel.baseline);
    }
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{name}.report.golden.json"))
}

/// Pins the canonical JSON report of a quick scenario — structure and
/// numbers, not prose. Byte-stable across the CI thread matrix.
#[test]
fn report_json_matches_golden_fixture() {
    let spec = ScenarioSpec::new("scenario-quick", Benchmark::Cholesky, StageKind::SimpleAlu)
        .schemes(["synts_poly", "per_core_ts", "no_ts"])
        .thetas(ThetaSpec::LogAroundEqualWeight {
            points: 5,
            decades: 1.0,
        })
        .normalize_to("nominal")
        .record_assignments(true)
        .verify_model(true);
    let report = Experiment::new(spec).run().expect("runs");
    assert!(report.all_checks_pass(), "{:?}", report.checks);

    let rendered = report.to_json_string();
    let path = fixture_path(&report.spec.name);
    if std::env::var("SYNTS_REGEN_FIXTURES").is_ok() {
        fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir");
        fs::write(&path, &rendered).expect("write fixture");
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with \
             SYNTS_REGEN_FIXTURES=1 cargo test --test scenario",
            path.display()
        )
    });
    assert_eq!(
        golden, rendered,
        "canonical report JSON drifted; if intentional, regenerate with \
         SYNTS_REGEN_FIXTURES=1"
    );
}

/// The report JSON is valid JSON that round-trips through the vendored
/// parser, and the embedded spec parses back to the original.
#[test]
fn report_json_embeds_a_recoverable_spec() {
    let data = quick_data(Benchmark::Ocean, StageKind::Decode);
    let spec = ScenarioSpec::new("embed", Benchmark::Ocean, StageKind::Decode)
        .schemes(["nominal", "synts_poly"])
        .intervals(IntervalSelection::MostHeterogeneous);
    let report = Experiment::new(spec.clone()).run_on(&data).expect("runs");
    let json = Json::parse(&report.to_json_string()).expect("valid JSON");
    let spec_back = ScenarioSpec::from_json(json.get("spec").expect("spec field")).expect("parses");
    assert_eq!(spec_back, spec);
    assert_eq!(
        report.intervals_used,
        vec![data.most_heterogeneous_interval()]
    );
    // CSV sink: one row per (scheme, record), header first.
    let (header, rows) = report.to_csv();
    assert_eq!(rows.len(), 2, "two schemes x one θ");
    assert_eq!(header[0], "scheme");
    assert!(rows.iter().all(|r| r.len() == header.len()));
}

/// A log grid wide enough to overflow reaches θ = +∞: `decades: 400`.
/// The JSON parser refuses it, so `synts-cli check` and `POST /v1/jobs`
/// catch it before characterization. A spec built in code still reaches
/// the solvers, which must refuse it with the θ-domain message whichever
/// exact solver sweeps it, not answer with an arbitrary assignment or a
/// spurious "no feasible assignment".
#[test]
fn overflowing_log_grid_fails_cleanly_with_the_theta_message() {
    let err = ScenarioSpec::from_json_str(
        r#"{"name": "wide", "benchmark": "radix", "stage": "simple-alu",
            "thetas": {"log_around_equal_weight": {"points": 9, "decades": 400}}}"#,
    )
    .expect_err("the parser bounds decades");
    assert!(
        err.to_string()
            .contains("thetas.log_around_equal_weight.decades"),
        "{err}"
    );
    let data = quick_data(Benchmark::Radix, StageKind::SimpleAlu);
    for scheme in ["synts_exhaustive", "synts_poly"] {
        let spec = ScenarioSpec::new("wide", Benchmark::Radix, StageKind::SimpleAlu)
            .schemes([scheme])
            .intervals(IntervalSelection::Index(1))
            .quality(Quality::Quick)
            .thetas(ThetaSpec::LogAroundEqualWeight {
                points: 9,
                decades: 400.0,
            });
        assert_eq!(spec.thetas.resolve(1.0).last(), Some(&f64::INFINITY));
        let err = Experiment::new(spec)
            .run_on(&data)
            .expect_err("θ = +∞ is outside Eq 4.4's domain");
        assert!(matches!(err, OptError::BadConfig(_)), "{scheme}: {err}");
        assert!(
            err.to_string().contains("theta must be finite"),
            "{scheme}: {err}"
        );
    }
}
