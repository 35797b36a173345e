//! Benchmark catalogue and trace containers.

use crate::kernels::{self, Source};
use crate::recorder::{Keep, Recorder, Tally, ThreadSample, ThreadWork};

/// The ten SPLASH-2 benchmarks the paper characterizes (Sec 5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Benchmark {
    /// Fast-multipole-style n-body interaction phase.
    Fmm,
    /// Radix sort (the paper's motivating example, Fig 3.5).
    Radix,
    /// Blocked LU factorization, contiguous block assignment.
    LuContig,
    /// Blocked LU factorization, non-contiguous (interleaved) assignment.
    LuNcontig,
    /// Radix-2 integer FFT (homogeneous + high error probabilities).
    Fft,
    /// Spatial water simulation (homogeneous).
    WaterSp,
    /// Barnes-Hut-style tree n-body.
    Barnes,
    /// Tile-parallel ray tracer.
    Raytrace,
    /// Cholesky factorization.
    Cholesky,
    /// Ocean grid relaxation (homogeneous).
    Ocean,
}

impl Benchmark {
    /// All ten benchmarks.
    pub const ALL: [Benchmark; 10] = [
        Benchmark::Fmm,
        Benchmark::Radix,
        Benchmark::LuContig,
        Benchmark::LuNcontig,
        Benchmark::Fft,
        Benchmark::WaterSp,
        Benchmark::Barnes,
        Benchmark::Raytrace,
        Benchmark::Cholesky,
        Benchmark::Ocean,
    ];

    /// The seven benchmarks reported in the paper's result figures (the
    /// heterogeneous ones; Sec 5.4 drops FFT, Ocean and Water-sp).
    pub const REPORTED: [Benchmark; 7] = [
        Benchmark::Barnes,
        Benchmark::Cholesky,
        Benchmark::Fmm,
        Benchmark::LuContig,
        Benchmark::LuNcontig,
        Benchmark::Radix,
        Benchmark::Raytrace,
    ];

    /// Whether the paper found this benchmark's per-thread error
    /// probabilities homogeneous (so per-core TS suffices).
    #[must_use]
    pub const fn paper_homogeneous(self) -> bool {
        matches!(self, Benchmark::Fft | Benchmark::WaterSp | Benchmark::Ocean)
    }

    /// Canonical lowercase name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Benchmark::Fmm => "fmm",
            Benchmark::Radix => "radix",
            Benchmark::LuContig => "lu-contig",
            Benchmark::LuNcontig => "lu-ncontig",
            Benchmark::Fft => "fft",
            Benchmark::WaterSp => "water-sp",
            Benchmark::Barnes => "barnes",
            Benchmark::Raytrace => "raytrace",
            Benchmark::Cholesky => "cholesky",
            Benchmark::Ocean => "ocean",
        }
    }

    /// Parses a benchmark from its name, case-insensitively and treating
    /// `_` as `-` (`"Radix"`, `"LU_CONTIG"` both parse) — forgiving
    /// enough for CLI arguments and hand-written scenario specs.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Benchmark> {
        let norm: String = name
            .trim()
            .chars()
            .map(|c| {
                if c == '_' {
                    '-'
                } else {
                    c.to_ascii_lowercase()
                }
            })
            .collect();
        Benchmark::ALL.iter().copied().find(|b| b.name() == norm)
    }

    /// Runs the instrumented kernel and returns its trace: every event,
    /// memory reference and branch of every thread (the oracle trace).
    ///
    /// Deterministic for a given config (including its seed).
    #[must_use]
    pub fn run(self, cfg: &WorkloadConfig) -> WorkloadTrace {
        let intervals = self
            .record(cfg, &Source::full(cfg.width))
            .into_iter()
            .map(|recorders| {
                BarrierInterval::new(recorders.into_iter().map(Recorder::finish).collect())
            })
            .collect();
        WorkloadTrace {
            benchmark: self,
            intervals,
        }
    }

    /// Runs the instrumented kernel keeping only what `plan` asks for.
    /// Every thread keeps its [`Tally`] (op counts by kind and the branch
    /// count); a thread with a plan entry also keeps its memory references
    /// and the events each of the entry's [`Keep`]s picks, and nothing
    /// else. [`SamplePlan::count_only`] makes a counting run, from whose
    /// tallies [`SamplePlan::new`] plans the sampling run.
    ///
    /// The kernel computes exactly what [`Benchmark::run`] computes, so a
    /// sampling run's kept events are the events the oracle trace holds
    /// at the same positions.
    ///
    /// # Errors
    ///
    /// [`SampleMismatch`] if the run's shape or a planned thread's tally
    /// differs from the counting run's the plan was built from.
    pub fn sample(
        self,
        cfg: &WorkloadConfig,
        plan: &SamplePlan,
    ) -> Result<SampledTrace, SampleMismatch> {
        let intervals: Vec<Vec<ThreadSample>> = self
            .record(cfg, &Source::planned(cfg.width, plan))
            .into_iter()
            .map(|recorders| recorders.into_iter().map(Recorder::finish_sample).collect())
            .collect();
        let tallies: Vec<Vec<Tally>> = intervals
            .iter()
            .map(|threads| threads.iter().map(|t| *t.tally()).collect())
            .collect();
        if !plan.keeps.is_empty() && tallies != plan.tallies {
            return Err(SampleMismatch { benchmark: self });
        }
        Ok(SampledTrace {
            benchmark: self,
            intervals,
        })
    }

    /// Runs the kernel with recorders from `src`, one per (interval,
    /// thread).
    fn record(self, cfg: &WorkloadConfig, src: &Source) -> Vec<Vec<Recorder>> {
        match self {
            Benchmark::Fmm => kernels::nbody::fmm(cfg, src),
            Benchmark::Radix => kernels::sort::radix(cfg, src),
            Benchmark::LuContig => kernels::linalg::lu(cfg, src, true),
            Benchmark::LuNcontig => kernels::linalg::lu(cfg, src, false),
            Benchmark::Fft => kernels::fft::fft(cfg, src),
            Benchmark::WaterSp => kernels::nbody::water(cfg, src),
            Benchmark::Barnes => kernels::nbody::barnes(cfg, src),
            Benchmark::Raytrace => kernels::render::raytrace(cfg, src),
            Benchmark::Cholesky => kernels::linalg::cholesky(cfg, src),
            Benchmark::Ocean => kernels::grid::ocean(cfg, src),
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Size and shape of a workload run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// Number of threads (= cores; the paper uses 4).
    pub threads: usize,
    /// Problem-size knob: elements per thread (keys, matrix panels,
    /// particles, pixels — kernel-specific interpretation).
    pub scale: usize,
    /// Number of barrier intervals to run (the paper uses up to 3).
    pub intervals: usize,
    /// Datapath width of the recorded operands (matches the stage width).
    pub width: usize,
    /// RNG seed for input-data generation.
    pub seed: u64,
}

impl WorkloadConfig {
    /// A small, test-friendly configuration.
    #[must_use]
    pub fn small(threads: usize) -> WorkloadConfig {
        WorkloadConfig {
            threads,
            scale: 256,
            intervals: 3,
            width: 16,
            seed: 0xC0FFEE,
        }
    }

    /// The paper-shaped configuration: 4 threads, 3 barrier intervals,
    /// enough work per interval for stable error curves.
    #[must_use]
    pub fn paper_default() -> WorkloadConfig {
        WorkloadConfig {
            threads: 4,
            scale: 2048,
            intervals: 3,
            width: 16,
            seed: 0xC0FFEE,
        }
    }
}

/// One barrier interval: the work each thread performed between two
/// consecutive barriers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BarrierInterval {
    work: Vec<ThreadWork>,
}

impl BarrierInterval {
    /// Wraps per-thread work.
    #[must_use]
    pub fn new(work: Vec<ThreadWork>) -> BarrierInterval {
        BarrierInterval { work }
    }

    /// Number of threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.work.len()
    }

    /// One thread's work.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    #[must_use]
    pub fn thread(&self, tid: usize) -> &ThreadWork {
        &self.work[tid]
    }

    /// Iterates over per-thread work.
    pub fn iter(&self) -> std::slice::Iter<'_, ThreadWork> {
        self.work.iter()
    }
}

impl<'a> IntoIterator for &'a BarrierInterval {
    type Item = &'a ThreadWork;
    type IntoIter = std::slice::Iter<'a, ThreadWork>;
    fn into_iter(self) -> Self::IntoIter {
        self.work.iter()
    }
}

/// A full instrumented run: the benchmark and its barrier intervals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadTrace {
    /// Which benchmark produced this trace.
    pub benchmark: Benchmark,
    /// The barrier intervals, in execution order.
    pub intervals: Vec<BarrierInterval>,
}

impl WorkloadTrace {
    /// Total dynamic instructions across all threads and intervals.
    #[must_use]
    pub fn total_instructions(&self) -> u64 {
        self.intervals
            .iter()
            .flat_map(|iv| iv.iter())
            .map(ThreadWork::instructions)
            .sum()
    }
}

/// What a sampling run keeps, per (interval, thread): see
/// [`Benchmark::sample`]. The plan of a counting run is empty; the plan of
/// a sampling run is built from a counting run's tallies, which it also
/// holds so the sampling run can check that it saw the same events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SamplePlan {
    /// Per interval, per thread: the counting run's tally.
    tallies: Vec<Vec<Tally>>,
    /// Per interval, per thread: the [`Keep`]s of the sampling run.
    keeps: Vec<Vec<Vec<Keep>>>,
}

impl SamplePlan {
    /// The plan of a counting run: no entries, so every recorder keeps
    /// only its tally.
    #[must_use]
    pub fn count_only() -> SamplePlan {
        SamplePlan::default()
    }

    /// Plans a sampling run from `counted`, a counting run of the same
    /// benchmark and config: every (interval, thread) of `counted` gets an
    /// entry keeping what `keeps` returns for its tally, one [`Keep`] per
    /// accepted-op set (so stages that accept the same operations share
    /// one kept list).
    #[must_use]
    pub fn new(counted: &SampledTrace, mut keeps: impl FnMut(&Tally) -> Vec<Keep>) -> SamplePlan {
        let tallies: Vec<Vec<Tally>> = counted
            .intervals
            .iter()
            .map(|threads| threads.iter().map(|t| *t.tally()).collect())
            .collect();
        let keeps = tallies
            .iter()
            .map(|threads| threads.iter().map(&mut keeps).collect())
            .collect();
        SamplePlan { tallies, keeps }
    }

    /// The [`Keep`]s of (interval, thread), if the plan has an entry for
    /// it.
    pub(crate) fn keeps(&self, interval: usize, thread: usize) -> Option<&[Keep]> {
        self.keeps.get(interval)?.get(thread).map(Vec::as_slice)
    }
}

/// A sampling run ([`Benchmark::sample`]): the benchmark and, per barrier
/// interval, what each thread's recorder kept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampledTrace {
    /// Which benchmark produced this run.
    pub benchmark: Benchmark,
    /// Per barrier interval, in execution order, one sample per thread.
    pub intervals: Vec<Vec<ThreadSample>>,
}

impl SampledTrace {
    /// What `thread` kept in `interval`, if the run has that pair.
    #[must_use]
    pub fn thread(&self, interval: usize, thread: usize) -> Option<&ThreadSample> {
        self.intervals.get(interval)?.get(thread)
    }
}

/// A sampling run that did not see what the counting run its plan was
/// built from saw: another number of intervals or threads, or another
/// tally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleMismatch {
    /// The benchmark whose runs differ.
    pub benchmark: Benchmark,
}

impl std::fmt::Display for SampleMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: the sampling run counted other events than the counting run",
            self.benchmark
        )
    }
}

impl std::error::Error for SampleMismatch {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::from_name(b.name()), Some(b));
        }
        assert_eq!(Benchmark::from_name("nope"), None);
        // CLI/spec-friendly parsing: case-insensitive, `_` as `-`.
        assert_eq!(Benchmark::from_name("Radix"), Some(Benchmark::Radix));
        assert_eq!(Benchmark::from_name("LU_CONTIG"), Some(Benchmark::LuContig));
        assert_eq!(Benchmark::from_name(" water-sp "), Some(Benchmark::WaterSp));
    }

    #[test]
    fn a_sampling_run_that_sees_other_events_is_an_error() {
        let cfg = WorkloadConfig::small(2);
        let mut other_seed = cfg.clone();
        other_seed.seed ^= 1;
        let mut fewer_intervals = cfg.clone();
        fewer_intervals.intervals = 2;
        for other in [other_seed, fewer_intervals] {
            let counted = Benchmark::Fmm
                .sample(&other, &SamplePlan::count_only())
                .expect("a counting run checks nothing");
            let plan = SamplePlan::new(&counted, |_| Vec::new());
            let err = Benchmark::Fmm
                .sample(&cfg, &plan)
                .expect_err("other events");
            assert_eq!(
                err.to_string(),
                "fmm: the sampling run counted other events than the counting run"
            );
        }
    }

    #[test]
    fn a_sampling_run_counts_what_the_full_run_records() {
        let cfg = WorkloadConfig::small(3);
        for bench in Benchmark::ALL {
            let full = bench.run(&cfg);
            let counted = bench
                .sample(&cfg, &SamplePlan::count_only())
                .expect("a counting run checks nothing");
            assert_eq!(counted.intervals.len(), full.intervals.len(), "{bench}");
            for (threads, interval) in counted.intervals.iter().zip(&full.intervals) {
                for (sample, work) in threads.iter().zip(interval) {
                    assert_eq!(*sample.tally(), work.tally(), "{bench}");
                }
            }
            let plan = SamplePlan::new(&counted, |_| Vec::new());
            let sampled = bench.sample(&cfg, &plan).expect("same events");
            let refs = |i: usize, t: usize| sampled.thread(i, t).map(ThreadSample::mem_refs);
            assert_eq!(
                refs(0, 0),
                Some(full.intervals[0].thread(0).mem_refs.as_slice())
            );
        }
    }

    #[test]
    fn reported_set_excludes_homogeneous() {
        for b in Benchmark::REPORTED {
            assert!(!b.paper_homogeneous(), "{b} should be heterogeneous");
        }
        assert_eq!(
            Benchmark::ALL.len() - Benchmark::REPORTED.len(),
            3,
            "exactly FFT, Ocean, Water-sp are dropped"
        );
    }
}
