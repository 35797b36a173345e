//! Per-phase wall-clock breakdown of the characterization pipeline.
//!
//! The PR 5 bench recorded ~1× parallel "speedup" for the pooled corpus
//! build, and nothing in the code said where the time went. This module is
//! the instrument that settles such questions with data instead of
//! guesses: every phase of the characterization scheduler
//! ([`crate::cache::characterize_pairs`]) — workload trace generation,
//! stage construction + STA, each gate-sim unit task, cache probe and
//! store I/O — accumulates its wall-clock into a process-wide atomic
//! counter. The benchmark of record (`perfbench/`) reads it with
//! `--trace 1`: it cross-checks its per-layer spans (`core.cache.*`)
//! against these counters, and on serve-jobs it reports
//! `timing.gate_sim_s` from them.
//!
//! The counters follow the same monotonic snapshot/delta pattern as
//! [`crate::cache::CacheStats`]: take a [`PhaseStats::snapshot`] before a
//! region, another after, and [`PhaseStats::since`] is what that region
//! spent per phase. Timing costs two `Instant::now` calls per phase
//! region — phases wrap entire traces/intervals, not per-vector work, so
//! the overhead is unmeasurable next to what they time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The instrumented phases of a characterization build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Running instrumented workload kernels: the counting and sampling
    /// runs of a cold characterization. The time a sampling run spends
    /// waiting for the counting run to hand it an interval is not kernel
    /// time and is charged to no phase.
    TraceBuild,
    /// Building a stage netlist and running STA on it.
    StageBuild,
    /// The gate-level timing simulation inner loop.
    GateSim,
    /// Probing the on-disk characterization cache (key + read + parse).
    CacheLookup,
    /// Serializing and persisting a computed entry.
    CacheStore,
}

static TRACE_BUILD_NS: AtomicU64 = AtomicU64::new(0);
static STAGE_BUILD_NS: AtomicU64 = AtomicU64::new(0);
static GATE_SIM_NS: AtomicU64 = AtomicU64::new(0);
static CACHE_LOOKUP_NS: AtomicU64 = AtomicU64::new(0);
static CACHE_STORE_NS: AtomicU64 = AtomicU64::new(0);

fn counter(phase: Phase) -> &'static AtomicU64 {
    match phase {
        Phase::TraceBuild => &TRACE_BUILD_NS,
        Phase::StageBuild => &STAGE_BUILD_NS,
        Phase::GateSim => &GATE_SIM_NS,
        Phase::CacheLookup => &CACHE_LOOKUP_NS,
        Phase::CacheStore => &CACHE_STORE_NS,
    }
}

/// Times `f` and charges its wall-clock to `phase`.
///
/// Phase time is summed across workers, so on an N-worker pool a phase
/// can accumulate up to N seconds per wall-clock second — the breakdown
/// answers "where did the CPU time go", and comparing a phase's total
/// against `workers × elapsed` shows how well that phase actually
/// parallelized.
pub fn time_phase<R>(phase: Phase, f: impl FnOnce() -> R) -> R {
    time_phase_except(phase, |_| f())
}

/// [`time_phase`], less the time `f` spends in the sections it runs
/// through [`Untimed::run`]: a task that blocks on another task's
/// hand-off is charged for its own work only.
pub(crate) fn time_phase_except<R>(phase: Phase, f: impl FnOnce(&mut Untimed) -> R) -> R {
    let start = Instant::now();
    let mut untimed = Untimed(Duration::ZERO);
    let result = f(&mut untimed);
    let charged = start.elapsed().saturating_sub(untimed.0);
    let ns = u64::try_from(charged.as_nanos()).unwrap_or(u64::MAX);
    counter(phase).fetch_add(ns, Ordering::Relaxed);
    result
}

/// The time a [`time_phase_except`] region spent outside its phase.
pub(crate) struct Untimed(Duration);

impl Untimed {
    /// Runs `f` (a wait) outside the enclosing phase.
    pub(crate) fn run<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        self.0 += start.elapsed();
        result
    }
}

/// Process-wide per-phase wall-clock totals, in nanoseconds (monotonic
/// snapshots; see the [module docs](self) for the snapshot/delta idiom).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseStats {
    /// Workload kernel runs (kernel time; a sampling run's waits for
    /// the counting run's hand-offs are not counted).
    pub trace_build_ns: u64,
    /// Stage netlist construction + STA.
    pub stage_build_ns: u64,
    /// Gate-level timing simulation.
    pub gate_sim_ns: u64,
    /// Cache probes (key construction, read, parse, verify).
    pub cache_lookup_ns: u64,
    /// Cache entry serialization and writes.
    pub cache_store_ns: u64,
}

impl PhaseStats {
    /// The counters as of now.
    #[must_use]
    pub fn snapshot() -> PhaseStats {
        PhaseStats {
            trace_build_ns: TRACE_BUILD_NS.load(Ordering::Relaxed),
            stage_build_ns: STAGE_BUILD_NS.load(Ordering::Relaxed),
            gate_sim_ns: GATE_SIM_NS.load(Ordering::Relaxed),
            cache_lookup_ns: CACHE_LOOKUP_NS.load(Ordering::Relaxed),
            cache_store_ns: CACHE_STORE_NS.load(Ordering::Relaxed),
        }
    }

    /// The counters accumulated since an earlier snapshot.
    #[must_use]
    pub fn since(&self, earlier: PhaseStats) -> PhaseStats {
        PhaseStats {
            trace_build_ns: self.trace_build_ns.saturating_sub(earlier.trace_build_ns),
            stage_build_ns: self.stage_build_ns.saturating_sub(earlier.stage_build_ns),
            gate_sim_ns: self.gate_sim_ns.saturating_sub(earlier.gate_sim_ns),
            cache_lookup_ns: self.cache_lookup_ns.saturating_sub(earlier.cache_lookup_ns),
            cache_store_ns: self.cache_store_ns.saturating_sub(earlier.cache_store_ns),
        }
    }

    /// Sum over all phases.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.trace_build_ns
            + self.stage_build_ns
            + self.gate_sim_ns
            + self.cache_lookup_ns
            + self.cache_store_ns
    }

    /// `(name, nanoseconds)` rows in a stable reporting order.
    #[must_use]
    pub fn rows(&self) -> [(&'static str, u64); 5] {
        [
            ("trace_build", self.trace_build_ns),
            ("stage_build", self.stage_build_ns),
            ("gate_sim", self.gate_sim_ns),
            ("cache_lookup", self.cache_lookup_ns),
            ("cache_store", self.cache_store_ns),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_phase_accumulates_and_since_subtracts() {
        let before = PhaseStats::snapshot();
        let v = time_phase(Phase::GateSim, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            42
        });
        assert_eq!(v, 42);
        time_phase(Phase::TraceBuild, || ());
        let delta = PhaseStats::snapshot().since(before);
        assert!(
            delta.gate_sim_ns >= 2_000_000,
            "slept 2ms, got {}ns",
            delta.gate_sim_ns
        );
        assert_eq!(delta.cache_store_ns, 0, "untouched phase stays zero");
        assert_eq!(
            delta.total_ns(),
            delta.rows().iter().map(|(_, ns)| ns).sum::<u64>()
        );
    }

    #[test]
    fn untimed_sections_are_charged_to_no_phase() {
        let before = PhaseStats::snapshot();
        // Other tests of this binary may charge stage builds meanwhile,
        // but not a whole nap's worth.
        let nap = || std::thread::sleep(std::time::Duration::from_millis(200));
        time_phase_except(Phase::StageBuild, |untimed| untimed.run(nap));
        let charged = PhaseStats::snapshot().since(before).stage_build_ns;
        assert!(charged < 200_000_000, "the nap was charged: {charged}ns");
    }
}
