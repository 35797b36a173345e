//! The characterized benchmark × stage corpus, built once per process —
//! and, through the persistent characterization cache, once per machine.
//!
//! ## Why the task graph is fine-grained
//!
//! The PR 4 build fanned out at (benchmark × stage) granularity behind a
//! barrier: all workload traces first, then 9 coarse characterization
//! tasks. `BENCH_PR5.json` recorded the consequence — ~1× parallel
//! speedup. Two structural causes (confirmed with the [`PhaseStats`]
//! breakdown, not guessed):
//!
//! 1. **quantization**: 9 multi-second tasks on 4 workers run as
//!    ⌈9/4⌉ = 3 sequential rounds, capping speedup at 2.6× before any
//!    other loss, and the barrier serializes all trace building in front;
//! 2. **repeated setup**: each coarse task rebuilt its stage netlist and
//!    re-ran STA (9 builds for 3 distinct stages).
//!
//! [`Corpus::build_subset_with`] therefore schedules the *unit* task —
//! one (benchmark, stage, interval, thread) gate simulation, 108 units
//! for the quick 3-benchmark corpus — on one flat pool pass. Shared
//! preludes hang off `OnceLock`s initialized by whichever worker needs
//! them first: workload traces (so trace building overlaps
//! characterization of already-traced benchmarks instead of gating
//! everything), and one cache probe per pair. Probes are keyed on the
//! workload recipe, so a trace is built only for a pair that misses and a
//! warm build runs no workload at all. Stage characterizers are
//! built once per *stage*, up front, on the pool. Results are collected
//! in deterministic unit order, so the corpus stays bit-identical to a
//! sequential build at any worker count, cache warm or cold.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use circuits::StageKind;
use synts_core::experiments::{characterize_thread, BenchmarkData, HarnessConfig, IntervalData};
use synts_core::phase::{time_phase, Phase};
use synts_core::{CharCache, OptError, ThreadPool};
use timing::StageCharacterizer;
use workloads::{Benchmark, WorkloadTrace};

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

    /// [`Corpus::build_subset`] with an explicit cache and worker pool
    /// (`Synts::builder().workers(n)` callers pass `synts.pool()`).
    ///
    /// Work fans out at (benchmark × stage × interval × thread)
    /// granularity — see the [module docs](self) for why — and per-phase
    /// wall-clock lands in [`PhaseStats`]. Results are collected in unit
    /// order, so the corpus is bit-identical to a sequential build at any
    /// worker count, cache warm or cold.
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
        let cfg = effort.harness();
        if benchmarks.is_empty() || stages.is_empty() {
            return Ok(Corpus {
                effort,
                data: BTreeMap::new(),
            });
        }

        // One characterizer per distinct *stage* (netlist build + STA),
        // shared by every benchmark — the old per-pair builds did this
        // |benchmarks| times over.
        let characterizers: Vec<StageCharacterizer> = pool.try_map(stages, |_, &stage| {
            time_phase(Phase::StageBuild, || {
                StageCharacterizer::new(stage, cfg.workload.width)
            })
        })?;

        // Pairs ordered benchmark-fastest so consecutive units touch
        // different benchmarks: the first claims fan out across distinct
        // traces instead of piling onto one trace's OnceLock.
        let pairs: Vec<(usize, usize)> = (0..stages.len())
            .flat_map(|s| (0..benchmarks.len()).map(move |b| (b, s)))
            .collect();

        // Lazily-built shared state, initialized by whichever worker
        // needs it first (`OnceLock::get_or_init` blocks only the
        // co-claimants of the same slot, so trace building overlaps
        // characterization of other benchmarks).
        let traces: Vec<OnceLock<WorkloadTrace>> =
            benchmarks.iter().map(|_| OnceLock::new()).collect();
        let trace_of = |b: usize| -> &WorkloadTrace {
            traces[b]
                .get_or_init(|| time_phase(Phase::TraceBuild, || benchmarks[b].run(&cfg.workload)))
        };
        // One cache probe per pair, by recipe: `Some(data)` is a verified
        // hit whose units all short-circuit (its trace is never built);
        // `None` is a miss to be computed.
        let entry_of = |b: usize, s: usize| {
            cache.recipe_entry(
                benchmarks[b],
                stages[s],
                &cfg,
                characterizers[s].stage().netlist(),
            )
        };
        let probes: Vec<OnceLock<Option<BenchmarkData>>> =
            pairs.iter().map(|_| OnceLock::new()).collect();
        let probe_of = |p: usize| -> &Option<BenchmarkData> {
            probes[p].get_or_init(|| {
                let (b, s) = pairs[p];
                entry_of(b, s).load()
            })
        };

        // The unit list: interval-major, thread-middle, pair-minor, so
        // the first |pairs| claims cover every pair. Shape comes from the
        // config; traces of a different shape (none today) fall back to
        // inline characterization during assembly.
        let (n_iv, n_th) = (cfg.workload.intervals, cfg.workload.threads);
        let units: Vec<(usize, usize, usize)> = (0..n_iv)
            .flat_map(|i| {
                let pairs_len = pairs.len();
                (0..n_th).flat_map(move |t| (0..pairs_len).map(move |p| (p, i, t)))
            })
            .collect();
        let mut results: Vec<Option<synts_core::experiments::ThreadData>> =
            pool.try_map(&units, |_, &(p, i, t)| {
                if probe_of(p).is_some() {
                    return Ok(None);
                }
                let (b, s) = pairs[p];
                let trace = trace_of(b);
                let Some(interval) = trace.intervals.get(i) else {
                    return Ok(None);
                };
                if t >= interval.threads() {
                    return Ok(None);
                }
                time_phase(Phase::GateSim, || {
                    characterize_thread(&characterizers[s], interval.thread(t), &cfg).map(Some)
                })
            })?;

        // Deterministic assembly in pair order; computed units are moved
        // (not cloned) out of the flat result vector.
        let unit_index = |p: usize, i: usize, t: usize| (i * n_th + t) * pairs.len() + p;
        let mut data = BTreeMap::new();
        for (p, &(b, s)) in pairs.iter().enumerate() {
            let (benchmark, stage) = (benchmarks[b], stages[s]);
            if let Some(cached) = probe_of(p) {
                data.insert((benchmark, stage), cached.clone());
                continue;
            }
            let charac = &characterizers[s];
            let trace = trace_of(b);
            let assembled = time_phase(Phase::Collect, || -> Result<BenchmarkData, OptError> {
                let mut intervals = Vec::with_capacity(trace.intervals.len());
                for (i, interval) in trace.intervals.iter().enumerate() {
                    let mut threads = Vec::with_capacity(interval.threads());
                    for t in 0..interval.threads() {
                        let precomputed = (i < n_iv && t < n_th)
                            .then(|| results[unit_index(p, i, t)].take())
                            .flatten();
                        threads.push(match precomputed {
                            Some(td) => td,
                            None => characterize_thread(charac, interval.thread(t), &cfg)?,
                        });
                    }
                    intervals.push(IntervalData { threads });
                }
                Ok(BenchmarkData {
                    benchmark,
                    stage,
                    tnom_v1: charac.tnom_v1(),
                    intervals,
                })
            })?;
            entry_of(b, s).store(&assembled);
            data.insert((benchmark, stage), assembled);
        }
        Ok(Corpus { effort, data })
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
    use synts_core::experiments::characterize_workload_pooled;
    use synts_core::PhaseStats;

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
                let trace = bench.run(&cfg.workload);
                reference.push(
                    characterize_workload_pooled(&trace, s, &cfg, ThreadPool::sequential())
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
