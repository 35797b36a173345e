//! Smoke tests for the reproduction harness: corpus-free figures pass all
//! their shape checks, and corpus-backed figures generate cleanly at quick
//! effort.

use synts::prelude::*;
use synts_bench::corpus::Corpus;
use synts_bench::figures;

#[test]
fn table_5_1_reproduces_exactly() {
    let fig = figures::table_5_1().expect("generates");
    assert!(fig.checks.iter().all(|c| c.pass), "{:?}", fig.checks);
    assert!(fig.text.contains("2.63"), "lowest-voltage row present");
}

#[test]
fn sec_6_3_overheads_in_band() {
    let fig = figures::sec_6_3().expect("generates");
    assert!(fig.checks.iter().all(|c| c.pass), "{:?}", fig.checks);
}

#[test]
fn fig_5_10_lane_homogeneity() {
    let fig = figures::fig_5_10().expect("generates");
    assert!(fig.checks.iter().all(|c| c.pass), "{:?}", fig.checks);
}

#[test]
fn radix_figures_generate_with_passing_checks() {
    let corpus = Corpus::build_subset(Quality::Quick, &[Benchmark::Radix], &[StageKind::Decode])
        .expect("corpus");
    let fig = figures::fig_3_5(&corpus).expect("generates");
    assert!(
        fig.checks.iter().all(|c| c.pass),
        "fig 3.5 checks: {:?}",
        fig.checks
    );
    let fig = figures::fig_3_6(&corpus).expect("generates");
    assert!(
        fig.checks.iter().all(|c| c.pass),
        "fig 3.6 checks: {:?}",
        fig.checks
    );
}

#[test]
fn pareto_figure_generates_with_passing_checks() {
    let corpus = Corpus::build_subset(
        Quality::Quick,
        &[Benchmark::Cholesky],
        &[StageKind::SimpleAlu],
    )
    .expect("corpus");
    let fig = figures::fig_pareto(&corpus, "fig-6-12").expect("generates");
    assert!(fig.checks.iter().all(|c| c.pass), "{:?}", fig.checks);
    assert!(fig.csv.is_some());
}

#[test]
fn missing_corpus_entry_is_a_clean_error() {
    let corpus = Corpus::build_subset(Quality::Quick, &[], &[]).expect("empty corpus");
    let err = figures::fig_3_5(&corpus).expect_err("no data");
    assert!(err.to_string().contains("corpus"));
}
