//! Benchmark catalogue and trace containers.

use crate::kernels;
use crate::recorder::ThreadWork;

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

    /// Runs the instrumented kernel and returns its trace.
    ///
    /// Deterministic for a given config (including its seed).
    #[must_use]
    pub fn run(self, cfg: &WorkloadConfig) -> WorkloadTrace {
        let intervals = match self {
            Benchmark::Fmm => kernels::nbody::fmm(cfg),
            Benchmark::Radix => kernels::sort::radix(cfg),
            Benchmark::LuContig => kernels::linalg::lu(cfg, true),
            Benchmark::LuNcontig => kernels::linalg::lu(cfg, false),
            Benchmark::Fft => kernels::fft::fft(cfg),
            Benchmark::WaterSp => kernels::nbody::water(cfg),
            Benchmark::Barnes => kernels::nbody::barnes(cfg),
            Benchmark::Raytrace => kernels::render::raytrace(cfg),
            Benchmark::Cholesky => kernels::linalg::cholesky(cfg),
            Benchmark::Ocean => kernels::grid::ocean(cfg),
        };
        WorkloadTrace {
            benchmark: self,
            intervals,
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
