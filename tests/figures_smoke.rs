//! Smoke tests for the reproduction harness: the Radix figures pass
//! their shape checks from a one-pair quick corpus, and a missing corpus
//! entry is a clean error. Every target's output, checks included, is
//! pinned byte for byte in `figures_golden.rs`.

use synts::prelude::*;
use synts_bench::corpus::Corpus;
use synts_bench::figures;

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
fn missing_corpus_entry_is_a_clean_error() {
    let corpus = Corpus::build_subset(Quality::Quick, &[], &[]).expect("empty corpus");
    let err = figures::fig_3_5(&corpus).expect_err("no data");
    assert!(err.to_string().contains("corpus"));
}
