//! `synts-cli` argument handling, driven through the real binary.

use std::process::{Command, Output};

const SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/specs/quickstart.json");

fn synts_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_synts-cli"))
        .args(args)
        .output()
        .expect("synts-cli runs")
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
