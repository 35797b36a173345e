//! Golden snapshot tests for the bench figure generators.
//!
//! Each covered figure is rendered (title, data table, CSV payload, shape
//! checks) and diffed against a committed fixture under
//! `tests/fixtures/`, so a rewrite of the sweep/solve plumbing — like the
//! parallel θ-sweep engine — cannot silently perturb the numbers. The
//! corpus-backed snapshot doubles as a cross-`SYNTS_THREADS` determinism
//! check: the CI matrix runs these tests at 1 and 8 workers against the
//! same fixtures.
//!
//! To regenerate after an intentional change:
//! `SYNTS_REGEN_FIXTURES=1 cargo test --test figures_golden`

use std::fs;
use std::path::PathBuf;

use synts::prelude::*;
use synts_bench::corpus::Corpus;
use synts_bench::figures::{self, Figure};

fn fixture_path(id: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{id}.golden.txt"))
}

/// Serializes everything observable about a figure: title, rendered
/// table, CSV payload, and the shape-check claims with their outcomes.
fn render(fig: &Figure) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {}\n\n", fig.title));
    out.push_str(&fig.text);
    if let Some((header, rows)) = &fig.csv {
        out.push_str("\n[csv]\n");
        out.push_str(&header.join(","));
        out.push('\n');
        for row in rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
    }
    out.push_str("\n[checks]\n");
    for check in &fig.checks {
        out.push_str(&format!(
            "[{}] {}\n",
            if check.pass { "PASS" } else { "FAIL" },
            check.claim
        ));
    }
    out
}

fn assert_matches_golden(fig: &Figure) {
    let path = fixture_path(fig.id);
    let rendered = render(fig);
    if std::env::var("SYNTS_REGEN_FIXTURES").is_ok() {
        fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir");
        fs::write(&path, &rendered).expect("write fixture");
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with \
             SYNTS_REGEN_FIXTURES=1 cargo test --test figures_golden",
            path.display()
        )
    });
    assert_eq!(
        golden, rendered,
        "figure `{}` drifted from its golden fixture; if the change is \
         intentional, regenerate with SYNTS_REGEN_FIXTURES=1",
        fig.id
    );
}

#[test]
fn table_5_1_matches_golden() {
    assert_matches_golden(&figures::table_5_1().expect("generates"));
}

#[test]
fn sec_6_3_matches_golden() {
    assert_matches_golden(&figures::sec_6_3().expect("generates"));
}

#[test]
fn fig_5_10_matches_golden() {
    assert_matches_golden(&figures::fig_5_10().expect("generates"));
}

/// The corpus-backed Pareto figure runs the full parallel sweep path
/// (θ batches fanned across the pool), so this snapshot is the one that
/// pins the parallel rewrite to the sequential numbers.
#[test]
fn fig_pareto_quick_matches_golden() {
    let corpus = Corpus::build_subset(
        Quality::Quick,
        &[Benchmark::Cholesky],
        &[StageKind::SimpleAlu],
    )
    .expect("corpus");
    let fig = figures::fig_pareto(&corpus, "fig-6-12").expect("generates");
    assert_matches_golden(&fig);
}
