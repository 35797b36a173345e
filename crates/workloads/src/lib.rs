//! # workloads — instrumented SPLASH-2-like kernels for SynTS
//!
//! The paper characterizes ten SPLASH-2 benchmarks on a Gem5-simulated
//! 4-core Alpha, extracting cycle-by-cycle pipe-stage input vectors
//! (Sec 5.2, 5.4). SPLASH-2 binaries and Gem5 are not available here, so
//! this crate reimplements the *benchmarks themselves* as small, real
//! parallel kernels — radix sort, blocked LU (contiguous and
//! non-contiguous), FFT, n-body (FMM-style and Barnes-Hut-style), water,
//! raytracing, Cholesky, ocean relaxation — each instrumented so that every
//! ALU-relevant operation it performs is recorded as a
//! [`circuits::AluEvent`] with its true operand values, partitioned by
//! thread and barrier interval.
//!
//! The thread-level heterogeneity the paper discovered arises here by the
//! same mechanism as on real hardware: different threads touch different
//! data (digit ranges, matrix panels, spatial regions), so their operand
//! distributions — and therefore their sensitized circuit delays — differ.
//! The three benchmarks the paper found homogeneous (FFT, Ocean, Water-sp)
//! partition data symmetrically and come out homogeneous here too.
//!
//! [`Benchmark::run`] keeps every event: the oracle trace. Cold
//! characterization times only a sampled stream of each thread's events,
//! so it runs a kernel twice and keeps almost nothing. A counting run
//! ([`Benchmark::count`]) tallies each (interval, thread)'s ops by kind,
//! and a sampling run ([`Benchmark::sample`]), planned from those
//! tallies, keeps the memory references and only the events its
//! [`Keep`]s pick. Both hand each barrier interval on as the kernel
//! leaves it, so the sampling run can follow the counting run one
//! interval behind, and whatever uses an interval can start before the
//! kernel has finished the next one.
//!
//! ```
//! use workloads::{Benchmark, WorkloadConfig};
//!
//! let trace = Benchmark::Radix.run(&WorkloadConfig::small(4));
//! assert_eq!(trace.intervals[0].threads(), 4);
//! // Every thread did real work in the first interval.
//! assert!(trace.intervals[0].thread(0).events.len() > 100);
//! ```
#![forbid(unsafe_code)]

mod kernels;
mod recorder;
mod types;

pub use recorder::{Keep, MemRef, Recorder, Tally, ThreadSample, ThreadWork};
pub use types::{BarrierInterval, Benchmark, SampleMismatch, WorkloadConfig, WorkloadTrace};

/// Version of the trace generators: `Benchmark::run` is a pure function
/// of `(benchmark, WorkloadConfig, GENERATOR_VERSION)`. Persistent
/// caches key derived data on that recipe instead of hashing traces, so
/// bump this whenever a kernel's recorded events, memory references or
/// branch counts change for some configuration. A test pins every
/// benchmark's trace fingerprint and fails when one moves: bump this
/// constant, then re-pin.
pub const GENERATOR_VERSION: u32 = 1;
