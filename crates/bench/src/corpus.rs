//! The characterized benchmark × stage corpus, built once per process —
//! and, through the persistent characterization cache, once per machine.
//!
//! A build is one call of [`synts_core::characterize_pairs`], the one
//! characterization scheduler: it probes the cache for every pair,
//! coalesces misses with concurrent characterizations of the same keys,
//! and fans the rest out as (pair × interval × thread) unit tasks on one
//! pool pass (its docs say why the tasks are that small). The corpus is
//! bit-identical to a sequential build at any worker count, cache warm or
//! cold.

use std::collections::BTreeMap;

use circuits::StageKind;
use synts_core::experiments::{BenchmarkData, HarnessConfig};
use synts_core::{characterize_pairs, CharCache, OptError, ThreadPool};
use workloads::Benchmark;

/// How much work the reproduction run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Test-sized workloads, few hundred timed instructions per thread.
    Quick,
    /// Paper-shaped workloads (Sec 6.2 scale).
    Paper,
}

impl Effort {
    /// The harness configuration for this effort level.
    #[must_use]
    pub fn harness(self) -> HarnessConfig {
        match self {
            Effort::Quick => HarnessConfig::quick(),
            Effort::Paper => HarnessConfig::paper_default(),
        }
    }
}

/// Characterization results for every (benchmark, stage) pair needed by the
/// result figures.
pub struct Corpus {
    effort: Effort,
    data: BTreeMap<(Benchmark, StageKind), BenchmarkData>,
}

impl Corpus {
    /// Characterizes the seven reported benchmarks on all three stages,
    /// fanned across `SYNTS_THREADS` workers and served from the on-disk
    /// characterization cache where warm (`SYNTS_CACHE_DIR`).
    ///
    /// # Errors
    ///
    /// Propagates [`OptError`] from the harness.
    pub fn build(effort: Effort) -> Result<Corpus, OptError> {
        Corpus::build_subset(effort, &Benchmark::REPORTED, &StageKind::ALL)
    }

    /// Characterizes an arbitrary subset (each workload runs once and is
    /// re-characterized per stage) with the environment defaults:
    /// `SYNTS_THREADS` workers, cache at `SYNTS_CACHE_DIR`.
    ///
    /// # Errors
    ///
    /// Propagates [`OptError`] from the harness.
    pub fn build_subset(
        effort: Effort,
        benchmarks: &[Benchmark],
        stages: &[StageKind],
    ) -> Result<Corpus, OptError> {
        Corpus::build_subset_with(
            effort,
            benchmarks,
            stages,
            &CharCache::from_env(),
            ThreadPool::from_env(),
        )
    }

    /// [`Corpus::build_subset`] with an explicit cache and worker pool.
    ///
    /// Work fans out at (benchmark × stage × interval × thread)
    /// granularity, and per-phase wall-clock lands in
    /// [`PhaseStats`](synts_core::PhaseStats).
    ///
    /// # Errors
    ///
    /// Propagates [`OptError`] from the harness, surfacing the
    /// lowest-unit-index failure deterministically at any worker count.
    pub fn build_subset_with(
        effort: Effort,
        benchmarks: &[Benchmark],
        stages: &[StageKind],
        cache: &CharCache,
        pool: ThreadPool,
    ) -> Result<Corpus, OptError> {
        // Benchmark-fastest, so the first units touch distinct traces.
        let pairs: Vec<(Benchmark, StageKind)> = stages
            .iter()
            .flat_map(|&stage| benchmarks.iter().map(move |&benchmark| (benchmark, stage)))
            .collect();
        let data = characterize_pairs(&pairs, &effort.harness(), cache, pool)?;
        Ok(Corpus {
            effort,
            data: pairs.into_iter().zip(data).collect(),
        })
    }

    /// The effort level this corpus was built at.
    #[must_use]
    pub fn effort(&self) -> Effort {
        self.effort
    }

    /// Characterization for one (benchmark, stage) pair, if present.
    #[must_use]
    pub fn get(&self, bench: Benchmark, stage: StageKind) -> Option<&BenchmarkData> {
        self.data.get(&(bench, stage))
    }

    /// All pairs in the corpus.
    pub fn iter(&self) -> impl Iterator<Item = (&(Benchmark, StageKind), &BenchmarkData)> {
        self.data.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synts_core::experiments::characterize_workload_on;
    use synts_core::PhaseStats;
    use timing::StageCharacterizer;

    #[test]
    fn subset_build_and_lookup() {
        let corpus =
            Corpus::build_subset(Effort::Quick, &[Benchmark::Radix], &[StageKind::SimpleAlu])
                .expect("builds");
        assert!(corpus.get(Benchmark::Radix, StageKind::SimpleAlu).is_some());
        assert!(corpus.get(Benchmark::Fmm, StageKind::SimpleAlu).is_none());
        assert_eq!(corpus.iter().count(), 1);
        assert_eq!(corpus.effort(), Effort::Quick);
    }

    fn assert_same(a: &BenchmarkData, b: &BenchmarkData) {
        assert_eq!(a.benchmark, b.benchmark);
        assert_eq!(a.stage, b.stage);
        assert_eq!(a.tnom_v1.to_bits(), b.tnom_v1.to_bits());
        assert_eq!(a.intervals.len(), b.intervals.len());
        for (ia, ib) in a.intervals.iter().zip(&b.intervals) {
            assert_eq!(ia.threads.len(), ib.threads.len());
            for (ta, tb) in ia.threads.iter().zip(&ib.threads) {
                let da: Vec<u64> = ta.normalized_delays.iter().map(|d| d.to_bits()).collect();
                let db: Vec<u64> = tb.normalized_delays.iter().map(|d| d.to_bits()).collect();
                assert_eq!(da, db);
                assert_eq!(ta.instructions.to_bits(), tb.instructions.to_bits());
                assert_eq!(ta.cpi_base.to_bits(), tb.cpi_base.to_bits());
            }
        }
    }

    /// The restructured unit-task build must be bit-identical to the
    /// coarse per-pair path at every worker count, cold and warm.
    #[test]
    fn unit_task_build_matches_coarse_path_at_any_worker_count() {
        let benchmarks = [Benchmark::Radix, Benchmark::Fmm];
        let stages = [StageKind::SimpleAlu, StageKind::Decode];
        let cfg = Effort::Quick.harness();
        let mut reference: Vec<BenchmarkData> = Vec::new();
        for &s in &stages {
            for &bench in &benchmarks {
                let charac = StageCharacterizer::new(s, cfg.workload.width).expect("stage");
                let trace = bench.run(&cfg.workload);
                reference.push(
                    characterize_workload_on(&charac, &trace, &cfg, ThreadPool::sequential())
                        .expect("reference"),
                );
            }
        }
        for workers in [1, 2, 4, 8] {
            let corpus = Corpus::build_subset_with(
                Effort::Quick,
                &benchmarks,
                &stages,
                &CharCache::disabled(),
                ThreadPool::new(workers),
            )
            .expect("builds");
            for reference in &reference {
                let got = corpus
                    .get(reference.benchmark, reference.stage)
                    .expect("pair present");
                assert_same(got, reference);
            }
        }
    }

    /// A cold unit-task build misses once per pair, stores, and the next
    /// build hits once per pair with bit-identical data.
    #[test]
    fn unit_task_build_uses_the_cache_per_pair() {
        let dir =
            std::env::temp_dir().join(format!("synts-corpus-test-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CharCache::at_dir(&dir);
        let benchmarks = [Benchmark::Radix];
        let stages = [StageKind::SimpleAlu, StageKind::Decode];
        let cold = Corpus::build_subset_with(
            Effort::Quick,
            &benchmarks,
            &stages,
            &cache,
            ThreadPool::new(2),
        )
        .expect("cold");
        assert_eq!(cache.stats().misses, 2, "one miss per pair");
        assert_eq!(cache.stats().hits, 0);
        let warm = Corpus::build_subset_with(
            Effort::Quick,
            &benchmarks,
            &stages,
            &cache,
            ThreadPool::new(2),
        )
        .expect("warm");
        assert_eq!(cache.stats().hits, 2, "one hit per pair");
        assert_eq!(cache.stats().misses, 2);
        for (key, cold_data) in cold.iter() {
            assert_same(cold_data, warm.get(key.0, key.1).expect("pair"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The build charges its work to the phase breakdown — the
    /// diagnosing-parallel-scaling instrument must see a cold build.
    #[test]
    fn build_populates_phase_breakdown() {
        let before = PhaseStats::snapshot();
        let _ = Corpus::build_subset_with(
            Effort::Quick,
            &[Benchmark::Fft],
            &[StageKind::SimpleAlu],
            &CharCache::disabled(),
            ThreadPool::sequential(),
        )
        .expect("builds");
        let delta = PhaseStats::snapshot().since(before);
        assert!(delta.trace_build_ns > 0, "trace build was timed");
        assert!(delta.stage_build_ns > 0, "stage build was timed");
        assert!(delta.gate_sim_ns > 0, "gate sim was timed");
    }
}
