//! Golden snapshot tests for every `repro` target.
//!
//! Each target of [`synts_bench::TARGETS`] is regenerated at quick
//! quality, rendered (title, data table, CSV payload, shape checks) and
//! diffed against its committed fixture `tests/fixtures/<id>.golden.txt`,
//! so a rewrite of the gate-sim, sweep or solve plumbing cannot silently
//! perturb a number `repro --quick all` prints. The corpus-free figures
//! and the single-benchmark Pareto snapshot have tests of their own; the
//! table-driven test covers the rest from one shared corpus. The online
//! controller's targets ([`PAPER_TARGETS`]) are also pinned at paper
//! quality, in `tests/fixtures/<id>-paper.golden.txt`, where fig-6-18
//! runs the cross-scheme checks that quick quality skips. The
//! snapshots double as a cross-`SYNTS_THREADS` determinism check: the CI
//! matrix runs them at 1 and 8 workers against the same fixtures.
//!
//! To regenerate after an intentional change:
//! `SYNTS_REGEN_FIXTURES=1 cargo test --test figures_golden`

use std::fs;
use std::path::PathBuf;

use synts::prelude::*;
use synts_bench::corpus::Corpus;
use synts_bench::figures::{self, Figure};
use synts_bench::{generate, TARGETS};

/// Targets pinned by a test of their own below.
const OWN_TESTS: &[&str] = &["table-5-1", "sec-6-3", "fig-5-10"];

/// Targets pinned at paper quality as well as quick.
const PAPER_TARGETS: [&str; 3] = ["fig-6-17", "fig-6-18", "ablation-predictor"];

/// `tests/fixtures/<id>.golden.txt` at quick quality,
/// `<id>-paper.golden.txt` at paper quality.
fn fixture_path(id: &str, quality: Quality) -> PathBuf {
    let suffix = match quality {
        Quality::Quick => "",
        Quality::Paper => "-paper",
    };
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{id}{suffix}.golden.txt"))
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

fn assert_matches_golden(fig: &Figure, quality: Quality) {
    let path = fixture_path(fig.id, quality);
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
    assert_matches_golden(&figures::table_5_1().expect("generates"), Quality::Quick);
}

#[test]
fn sec_6_3_matches_golden() {
    assert_matches_golden(&figures::sec_6_3().expect("generates"), Quality::Quick);
}

#[test]
fn fig_5_10_matches_golden() {
    assert_matches_golden(&figures::fig_5_10().expect("generates"), Quality::Quick);
}

/// The corpus-backed Pareto figure runs the full parallel sweep path
/// (θ batches fanned across the pool). Built from a one-benchmark,
/// one-stage corpus, it must print the same fixture as the full quick
/// corpus that [`every_other_repro_target_matches_its_golden`] uses.
#[test]
fn fig_pareto_quick_matches_golden() {
    let corpus = Corpus::build_subset(
        Quality::Quick,
        &[Benchmark::Cholesky],
        &[StageKind::SimpleAlu],
    )
    .expect("corpus");
    let fig = figures::fig_pareto(&corpus, "fig-6-12").expect("generates");
    assert_matches_golden(&fig, Quality::Quick);
}

#[test]
fn every_other_repro_target_matches_its_golden() {
    let corpus = Corpus::build(Quality::Quick).expect("corpus");
    for &target in TARGETS.iter().filter(|t| !OWN_TESTS.contains(t)) {
        let fig = generate(target, Some(&corpus))
            .unwrap_or_else(|e| panic!("`{target}` fails to generate: {e}"));
        assert_eq!(fig.id, target, "a target names its own fixture");
        assert_matches_golden(&fig, Quality::Quick);
    }
}

#[test]
fn online_targets_match_their_paper_quality_goldens() {
    let corpus = Corpus::build(Quality::Paper).expect("corpus");
    for target in PAPER_TARGETS {
        let fig = generate(target, Some(&corpus))
            .unwrap_or_else(|e| panic!("`{target}` fails to generate: {e}"));
        assert_matches_golden(&fig, Quality::Paper);
    }
}
