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
        let mut intervals = Vec::new();
        self.record(
            cfg,
            &mut |_, threads| (0..threads).map(|_| Recorder::new(cfg.width)).collect(),
            &mut |_, recorders| {
                intervals.push(BarrierInterval::new(
                    recorders.into_iter().map(Recorder::finish).collect(),
                ));
            },
        );
        WorkloadTrace {
            benchmark: self,
            intervals,
        }
    }

    /// The counting run: runs the instrumented kernel keeping only each
    /// thread's [`Tally`] (op counts by kind and the branch count), and
    /// calls `each(interval, tallies)`, one tally per thread, as the
    /// kernel leaves each barrier interval [`Benchmark::run`] returns.
    pub fn count(self, cfg: &WorkloadConfig, mut each: impl FnMut(usize, Vec<Tally>)) {
        self.record(
            cfg,
            &mut |_, threads| {
                (0..threads)
                    .map(|_| Recorder::counting(cfg.width))
                    .collect()
            },
            &mut |interval, recorders| {
                each(interval, recorders.iter().map(Recorder::tally).collect())
            },
        );
    }

    /// The sampling run: runs the instrumented kernel keeping almost
    /// nothing, one barrier interval at a time. As the kernel enters
    /// interval `i`, `keeps(i)` returns one list of [`Keep`]s per thread;
    /// each thread keeps its tally, its memory references and the events
    /// its `Keep`s pick (none past the end of the list). As the kernel
    /// leaves the interval, `each(i, samples)` gets what each thread kept.
    /// Intervals [`Benchmark::run`] does not return reach neither.
    ///
    /// `keeps` may block: a caller that plans an interval from a
    /// [counting run](Benchmark::count)'s tallies can run the two
    /// concurrently, each handing an interval on as soon as it leaves it.
    /// The kernel computes exactly what [`Benchmark::run`] computes, so
    /// the kept events are the events the oracle trace holds at the same
    /// positions, and a run's tallies equal the counting run's.
    pub fn sample(
        self,
        cfg: &WorkloadConfig,
        mut keeps: impl FnMut(usize) -> Vec<Vec<Keep>>,
        mut each: impl FnMut(usize, Vec<ThreadSample>),
    ) {
        self.record(
            cfg,
            &mut |interval, threads| {
                let keeps = keeps(interval);
                (0..threads)
                    .map(|t| Recorder::sampling(cfg.width, keeps.get(t).map_or(&[], Vec::as_slice)))
                    .collect()
            },
            &mut |interval, recorders| {
                each(
                    interval,
                    recorders.into_iter().map(Recorder::finish_sample).collect(),
                );
            },
        );
    }

    /// Runs the kernel through a [`Source`] of `recorders` and `hand_on`.
    fn record(
        self,
        cfg: &WorkloadConfig,
        recorders: &mut dyn FnMut(usize, usize) -> Vec<Recorder>,
        hand_on: &mut dyn FnMut(usize, Vec<Recorder>),
    ) {
        let src = &mut Source::new(cfg, recorders, hand_on);
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

/// A [sampling run](Benchmark::sample) that did not see what the
/// [counting run](Benchmark::count) it was planned from saw: another
/// number of intervals or threads, or another tally.
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
    fn streamed_runs_count_and_keep_what_the_full_run_records() {
        let mut cfg = WorkloadConfig::small(3);
        for bench in Benchmark::ALL {
            // Radix records more intervals than it hands on.
            cfg.intervals = if bench == Benchmark::Radix { 2 } else { 3 };
            let full = bench.run(&cfg);
            let mut counted = Vec::new();
            bench.count(&cfg, |i, tallies| {
                assert_eq!(i, counted.len(), "{bench}: intervals in order");
                counted.push(tallies);
            });
            assert_eq!(counted.len(), full.intervals.len(), "{bench}");
            for (tallies, interval) in counted.iter().zip(&full.intervals) {
                let expect: Vec<Tally> = interval.iter().map(ThreadWork::tally).collect();
                assert_eq!(tallies, &expect, "{bench}");
            }
            let all = circuits::OpSet::from_fn(|_| true);
            let (mut entered, mut sampled) = (0, Vec::new());
            bench.sample(
                &cfg,
                |i| {
                    assert_eq!(i, entered, "{bench}: planned as it enters");
                    entered += 1;
                    vec![vec![Keep {
                        ops: all,
                        stride: 1,
                        count: 5,
                    }]]
                },
                |_, samples| sampled.push(samples),
            );
            assert_eq!(
                (entered, sampled.len()),
                (full.intervals.len(), entered),
                "{bench}"
            );
            for (samples, interval) in sampled.iter().zip(&full.intervals) {
                for (t, (sample, work)) in samples.iter().zip(interval).enumerate() {
                    assert_eq!(*sample.tally(), work.tally(), "{bench}");
                    assert_eq!(sample.mem_refs(), work.mem_refs.as_slice(), "{bench}");
                    let events = if t == 0 { work.events.len().min(5) } else { 0 };
                    assert_eq!(sample.kept(all), &work.events[..events], "{bench}");
                }
            }
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
