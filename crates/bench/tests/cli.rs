//! `synts-cli` argument handling, driven through the real binary.

use std::process::{Command, Output};

use synts_core::{ScenarioSpec, ThetaSpec};

const SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/specs/quickstart.json");

fn synts_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_synts-cli"))
        .args(args)
        .output()
        .expect("synts-cli runs")
}

/// Runs `check` on the committed `fig-6-12` spec with its θ grid
/// replaced by `grid`, through a temp file named after `tag`: (exit code,
/// stderr).
fn check_grid(tag: &str, grid: &[f64]) -> (Option<i32>, String) {
    let src = include_str!("../specs/fig-6-12.json");
    let mut spec = ScenarioSpec::from_json_str(src).expect("committed spec parses");
    spec.thetas = ThetaSpec::Grid(grid.to_vec());
    let path = std::env::temp_dir().join(format!("synts-cli-{tag}-{}.json", std::process::id()));
    std::fs::write(&path, spec.to_json_string()).expect("writes the spec");
    let out = synts_cli(&["check", path.to_str().expect("utf-8 temp path")]);
    let _ = std::fs::remove_file(&path);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// `check` accepts every grid `run` accepts: θ = 0 weights energy alone.
#[test]
fn check_accepts_a_zero_theta_grid() {
    let (code, stderr) = check_grid("theta-zero", &[0.0, 0.5]);
    assert_eq!(code, Some(0), "{stderr}");
}

/// `check` refuses a negative θ with the spec parser's message.
#[test]
fn check_refuses_a_negative_theta_with_the_parser_message() {
    let (code, stderr) = check_grid("theta-negative", &[-1.0]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("thetas.grid[0]"), "{stderr}");
}

/// A zero `--workers` override is refused with a plain error, not a
/// thread-pool panic, on every subcommand that loads a spec.
#[test]
fn zero_workers_override_is_a_clean_error() {
    for cmd in ["run", "check", "submit"] {
        let out = synts_cli(&[cmd, SPEC, "--workers", "0"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
        assert!(!stderr.contains("panicked"), "{cmd}: {stderr}");
        assert!(stderr.contains("workers: must be >= 1"), "{cmd}: {stderr}");
    }
}

/// `bench` is not a subcommand: it gets the usage text and exit 2.
#[test]
fn bench_is_not_a_subcommand() {
    let out = synts_cli(&["bench"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("usage: synts-cli run"), "{stderr}");
}
