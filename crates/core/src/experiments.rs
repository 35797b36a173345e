//! The end-to-end experiment harness: workload kernels → gate-level
//! characterization → thread profiles → optimizers.
//!
//! This is the executable form of the paper's cross-layer methodology
//! (Fig 5.8): run an instrumented benchmark, replay each thread's operand
//! trace through a pipe-stage netlist, build the per-thread error curves
//! and CPI, and hand the result to SynTS and its baselines. The `repro`
//! binary and the integration tests are thin wrappers over this module.

use archsim::{CpiModel, InstrStream};
use circuits::{AluOp, OpSet, StageKind};
use timing::{DelayTrace, ErrorCurve, ErrorModel as _, Sampling, StageCharacterizer, TimingError};
use workloads::{
    Benchmark, MemRef, Tally, ThreadSample, ThreadWork, WorkloadConfig, WorkloadTrace,
};

use crate::error::OptError;
use crate::model::{SystemConfig, ThreadProfile};

/// Knobs for the characterization harness.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Workload size and shape.
    pub workload: WorkloadConfig,
    /// Cap on gate-level simulations per (thread, interval): delays are
    /// subsampled beyond this (the expensive part of the flow).
    pub max_samples: usize,
    /// The CPI stall model.
    pub cpi_model: CpiModel,
}

impl HarnessConfig {
    /// Paper-shaped configuration: 4 threads, 3 barrier intervals,
    /// 12 000 timed instructions per thread-interval (enough that the
    /// online sampling phase gets ~200 instructions per TSR level).
    #[must_use]
    pub fn paper_default() -> HarnessConfig {
        HarnessConfig {
            workload: WorkloadConfig::paper_default(),
            max_samples: 12_000,
            cpi_model: CpiModel::paper_default(),
        }
    }

    /// A fast configuration for tests.
    #[must_use]
    pub fn quick() -> HarnessConfig {
        HarnessConfig {
            workload: WorkloadConfig::small(4),
            max_samples: 400,
            cpi_model: CpiModel::paper_default(),
        }
    }
}

/// One thread's characterization for one barrier interval.
#[derive(Debug, Clone)]
pub struct ThreadData {
    /// The exact error-probability curve (offline oracle).
    pub curve: ErrorCurve,
    /// Normalized sensitized delays in instruction order (subsampled).
    pub normalized_delays: Vec<f64>,
    /// Full dynamic instruction count of the interval (`N_i`).
    pub instructions: f64,
    /// Error-free CPI from the cache/pipeline model (`CPI_base_i`).
    pub cpi_base: f64,
}

/// One barrier interval across all threads.
#[derive(Debug, Clone)]
pub struct IntervalData {
    /// Per-thread characterizations.
    pub threads: Vec<ThreadData>,
}

impl IntervalData {
    /// Thread profiles for the offline optimizers.
    #[must_use]
    pub fn profiles(&self) -> Vec<ThreadProfile<ErrorCurve>> {
        self.threads
            .iter()
            .map(|t| ThreadProfile::new(t.instructions, t.cpi_base, t.curve.clone()))
            .collect()
    }

    /// Thread profiles over the timed delay population: `N` is the
    /// number of subsampled delays, not the interval's full instruction
    /// count, so the model sees the same instructions as the online
    /// controller and the cycle-level simulator.
    #[must_use]
    pub fn trace_profiles(&self) -> Vec<ThreadProfile<ErrorCurve>> {
        self.threads
            .iter()
            .map(|t| {
                ThreadProfile::new(
                    t.normalized_delays.len() as f64,
                    t.cpi_base,
                    t.curve.clone(),
                )
            })
            .collect()
    }

    /// The widest per-thread error spread of the interval: the largest
    /// `max − min` of the threads' error probabilities at
    /// r ∈ {0.64, 0.7, 0.78, 0.86}.
    #[must_use]
    pub fn error_spread(&self) -> f64 {
        let mut spread = 0.0f64;
        for r in [0.64, 0.7, 0.78, 0.86] {
            let (max, min) = self
                .threads
                .iter()
                .map(|t| t.curve.err(r))
                .fold((0.0f64, f64::INFINITY), |(max, min), e| {
                    (max.max(e), min.min(e))
                });
            spread = spread.max(max - min);
        }
        spread
    }
}

/// A fully characterized benchmark on one pipe stage.
#[derive(Debug, Clone)]
pub struct BenchmarkData {
    /// Which benchmark.
    pub benchmark: Benchmark,
    /// Which pipe stage.
    pub stage: StageKind,
    /// Stage nominal period at 1.0 V.
    pub tnom_v1: f64,
    /// Characterized barrier intervals.
    pub intervals: Vec<IntervalData>,
}

impl BenchmarkData {
    /// The paper-default [`SystemConfig`] for this stage.
    #[must_use]
    pub fn system_config(&self) -> SystemConfig {
        SystemConfig::paper_default(self.tnom_v1)
    }

    /// The barrier interval with the widest per-thread error spread
    /// ([`IntervalData::error_spread`]) — the "illustrative barrier
    /// interval" the paper's per-interval figures show (for Radix, the
    /// rank-reduction interval). Returns 0 when there are no intervals.
    #[must_use]
    pub fn most_heterogeneous_interval(&self) -> usize {
        let mut best = (0usize, 0.0f64);
        for (i, iv) in self.intervals.iter().enumerate() {
            let spread = iv.error_spread();
            if spread > best.1 {
                best = (i, spread);
            }
        }
        best.0
    }
}

/// Characterizes one thread's work for one barrier interval on an
/// already-built stage, from its full event list: the unit task of
/// [`characterize_workload_on`], the oracle. It shares
/// [`thread_data`] with [`characterize_sample`], the unit task of
/// [`crate::cache::characterize_pairs`], and
/// [`StageCharacterizer::delay_trace_into`] times the events
/// [`StageCharacterizer::delay_trace_kept`] times there, so the two stay
/// bit-identical by construction.
///
/// # Errors
///
/// Propagates characterization failures ([`OptError::Timing`]). A thread
/// whose instructions never reach the stage is *not* an error — it yields
/// the zero-delay activity profile.
pub(crate) fn characterize_thread(
    charac: &StageCharacterizer,
    work: &ThreadWork,
    cfg: &HarnessConfig,
) -> Result<ThreadData, OptError> {
    let mut delays = Vec::new();
    let timed = charac.delay_trace_into(&work.events, cfg.max_samples, &mut delays);
    thread_data(
        charac,
        timed.map(|()| delays),
        &work.tally(),
        &work.mem_refs,
        cfg,
    )
}

/// Characterizes what a sampling run kept of one thread's barrier
/// interval (see [`workloads::Benchmark::sample`]): the kept events of the
/// stage's accepted-op set, timed under the sampling rule of its counted
/// stream.
///
/// # Errors
///
/// As [`characterize_thread`].
pub(crate) fn characterize_sample(
    charac: &StageCharacterizer,
    sample: &ThreadSample,
    cfg: &HarnessConfig,
) -> Result<ThreadData, OptError> {
    let ops = charac.stage().accepted_ops();
    let sampling = Sampling::new(sample.tally().of(ops) as usize, cfg.max_samples);
    let mut delays = Vec::new();
    let timed = charac.delay_trace_kept(sample.kept(ops), sampling, &mut delays);
    thread_data(
        charac,
        timed.map(|()| delays),
        sample.tally(),
        sample.mem_refs(),
        cfg,
    )
}

/// The per-thread arithmetic of a characterization: the error curve from
/// the timed delays, the instruction count and the error-free CPI from
/// the tally and memory references.
fn thread_data(
    charac: &StageCharacterizer,
    delays: Result<Vec<f64>, TimingError>,
    tally: &Tally,
    mem_refs: &[MemRef],
    cfg: &HarnessConfig,
) -> Result<ThreadData, OptError> {
    // A thread whose instructions never reach this stage (e.g. a
    // multiply-free benchmark on the operand-isolated ComplexALU) cannot
    // err there at any clock: model it as a zero-delay activity profile.
    let (normalized, curve) = match delays.and_then(|d| DelayTrace::new(d, charac.tnom_v1())) {
        Ok(trace) => {
            let normalized = trace.normalized();
            (normalized, ErrorCurve::from_trace(&trace))
        }
        Err(TimingError::EmptyTrace) => {
            (Vec::new(), ErrorCurve::from_normalized_delays(vec![0.0])?)
        }
        Err(e) => return Err(e.into()),
    };
    let mul_ops = tally.of(OpSet::from_fn(AluOp::is_complex));
    let mem: Vec<(u64, bool)> = mem_refs.iter().map(|m| (m.addr, m.is_store)).collect();
    let stream = InstrStream {
        alu_ops: tally.events() - mul_ops,
        mul_ops,
        mem_refs: &mem,
        branches: tally.branches(),
    };
    Ok(ThreadData {
        curve,
        normalized_delays: normalized,
        instructions: stream.instructions() as f64,
        cpi_base: cfg.cpi_model.cpi(&stream),
    })
}

/// Characterizes an already-generated workload trace on an already-built
/// stage, with the (interval × thread) gate simulations fanned out across
/// `pool`.
///
/// Each pair drives an independent simulator and results are collected in
/// index order, so the output is bit-identical to the sequential loop at
/// any worker count. It reads the full trace of [`Benchmark::run`], where
/// [`crate::cache::characterize_pairs`], the scheduler every other
/// characterization goes through, reads two recording passes that keep
/// only what is timed; the two share the simulation loop and the
/// per-thread arithmetic, which makes this the reference that scheduler
/// is tested against.
///
/// # Errors
///
/// Propagates characterization failures ([`OptError::Timing`]),
/// surfacing the lowest-index failure like a sequential loop would.
pub fn characterize_workload_on(
    charac: &StageCharacterizer,
    trace: &WorkloadTrace,
    cfg: &HarnessConfig,
    pool: crate::parallel::ThreadPool,
) -> Result<BenchmarkData, OptError> {
    // Flatten (interval, thread) into one work list: intervals are few
    // (the paper uses 3) but threads × intervals fills a pool.
    let works: Vec<&ThreadWork> = trace
        .intervals
        .iter()
        .flat_map(|interval| interval.iter())
        .collect();
    let data = pool.try_map(&works, |_, work| characterize_thread(charac, work, cfg))?;
    let mut data = data.into_iter();
    let intervals = trace
        .intervals
        .iter()
        .map(|interval| IntervalData {
            threads: data.by_ref().take(interval.threads()).collect(),
        })
        .collect();
    Ok(BenchmarkData {
        benchmark: trace.benchmark,
        stage: charac.stage().kind(),
        tnom_v1: charac.tnom_v1(),
        intervals,
    })
}

/// Runs and characterizes a benchmark on one stage, sequentially and
/// without the cache: [`crate::cache::characterize_cached`] with
/// [`crate::cache::CharCache::disabled`] on the sequential pool.
///
/// # Errors
///
/// Propagates characterization failures ([`OptError::Timing`]).
pub fn characterize(
    benchmark: Benchmark,
    stage: StageKind,
    cfg: &HarnessConfig,
) -> Result<BenchmarkData, OptError> {
    crate::cache::characterize_cached(
        benchmark,
        stage,
        cfg,
        &crate::cache::CharCache::disabled(),
        crate::parallel::ThreadPool::sequential(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use timing::{heterogeneity, ErrorModel};

    fn max_heterogeneity(curves: &[ErrorCurve]) -> f64 {
        let mut max_het: f64 = 1.0;
        for r in [0.64, 0.7, 0.78, 0.86] {
            let h = heterogeneity(curves, r);
            if h.is_finite() {
                max_het = max_het.max(h);
            } else if curves.iter().any(|c| c.err(r) > 0.05) {
                return f64::INFINITY;
            }
        }
        max_het
    }

    fn interval_curves(data: &BenchmarkData, interval: usize) -> Vec<ErrorCurve> {
        data.intervals[interval]
            .threads
            .iter()
            .map(|t| t.curve.clone())
            .collect()
    }

    #[test]
    fn radix_decode_shows_strong_thread_heterogeneity() {
        // The paper's motivating observation (Fig 3.5): Radix's worst
        // thread (thread 0, the rank-reduction root) has several times the
        // error probability of the best thread.
        let cfg = HarnessConfig::quick();
        let data = characterize(Benchmark::Radix, StageKind::Decode, &cfg).expect("ok");
        let curves = interval_curves(&data, data.most_heterogeneous_interval());
        let h = max_heterogeneity(&curves);
        assert!(h > 2.0, "Radix decode heterogeneity, got {h}");
        // And thread 0 is the critical one, as in the paper.
        let r = 0.64;
        let worst = curves
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.err(r).partial_cmp(&b.1.err(r)).expect("finite"))
            .expect("non-empty")
            .0;
        assert_eq!(worst, 0, "thread 0 must be speculation-critical");
    }

    #[test]
    fn radix_simple_alu_is_heterogeneous() {
        let cfg = HarnessConfig::quick();
        let data = characterize(Benchmark::Radix, StageKind::SimpleAlu, &cfg).expect("ok");
        let curves = interval_curves(&data, data.most_heterogeneous_interval());
        let h = max_heterogeneity(&curves);
        assert!(h > 1.2, "Radix SimpleALU heterogeneity, got {h}");
    }

    #[test]
    fn interval_profiles_are_well_formed() {
        let cfg = HarnessConfig::quick();
        let data = characterize(Benchmark::Fmm, StageKind::SimpleAlu, &cfg).expect("ok");
        assert_eq!(data.intervals.len(), cfg.workload.intervals);
        for iv in &data.intervals {
            let profiles = iv.profiles();
            assert_eq!(profiles.len(), cfg.workload.threads);
            for p in &profiles {
                assert!(p.instructions > 0.0);
                assert!(p.cpi_base >= 1.0);
                assert_eq!(p.err.err(1.0), 0.0, "no errors at nominal clock");
            }
        }
    }

    #[test]
    fn trace_profiles_count_the_timed_delays() {
        let cfg = HarnessConfig::quick();
        let data = characterize(Benchmark::Ocean, StageKind::Decode, &cfg).expect("ok");
        let iv = &data.intervals[0];
        let profiles = iv.trace_profiles();
        assert_eq!(profiles.len(), iv.threads.len());
        for (p, t) in profiles.iter().zip(&iv.threads) {
            assert_eq!(p.instructions, t.normalized_delays.len() as f64);
            assert_eq!(p.cpi_base.to_bits(), t.cpi_base.to_bits());
            assert_eq!(p.err, t.curve);
        }
    }
}
