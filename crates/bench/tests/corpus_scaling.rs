//! Cold-corpus parallel scaling gate.
//!
//! Builds the quick 3-benchmark × 3-stage corpus from an empty cache at 1
//! and at 4 workers. On a host with at least 4 cores, 4 workers must be at
//! least 1.5× faster than 1; on smaller hosts the speedup is printed but
//! not enforced, since a 2-core machine cannot show a 4-way fan-out.
//!
//! This is the only test in its binary, so no sibling test competes for
//! cores while it is timed.

use std::time::{Duration, Instant};

use circuits::StageKind;
use synts_bench::corpus::Corpus;
use synts_core::{CharCache, Quality, ThreadPool};
use workloads::Benchmark;

/// Builds the corpus cold with `workers` workers and returns its wall
/// time. Every build starts from an empty cache directory and must record
/// zero hits, so a stale or shared cache cannot fake (or mask) a speedup.
fn cold_build(workers: usize) -> Duration {
    let dir = std::env::temp_dir().join(format!(
        "synts-corpus-scaling-{workers}w-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = CharCache::at_dir(&dir);
    let start = Instant::now();
    let built = Corpus::build_subset_with(
        Quality::Quick,
        &[Benchmark::Radix, Benchmark::Cholesky, Benchmark::Fmm],
        &StageKind::ALL,
        &cache,
        ThreadPool::new(workers),
    );
    let elapsed = start.elapsed();
    let _ = std::fs::remove_dir_all(&dir);
    built.unwrap_or_else(|e| panic!("corpus build at {workers} worker(s): {e}"));
    assert_eq!(
        cache.stats().hits,
        0,
        "the {workers}-worker build was not cold"
    );
    elapsed
}

#[test]
fn four_workers_build_the_cold_corpus_at_least_1_5x_faster() {
    // Best of three alternating builds per worker count sheds scheduler
    // noise without moving the bound.
    let mut seq = Duration::MAX;
    let mut four = Duration::MAX;
    for _ in 0..3 {
        seq = seq.min(cold_build(1));
        four = four.min(cold_build(4));
    }
    let speedup = seq.as_secs_f64() / four.as_secs_f64().max(1e-9);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    eprintln!(
        "cold corpus: 1 worker {seq:?}, 4 workers {four:?}, {speedup:.2}x on {cores} core(s)"
    );
    if cores >= 4 {
        assert!(
            speedup >= 1.5,
            "corpus scaling regression: {speedup:.2}x at 4 workers (< 1.5x) on {cores} cores"
        );
    }
}
