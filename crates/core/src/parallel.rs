//! A hand-rolled scoped thread pool for θ sweeps, per-interval
//! re-optimization and gate-level characterization.
//!
//! The synergistic-θ formulation is embarrassingly parallel: every θ point
//! of a Pareto sweep and every barrier-interval re-optimization is an
//! independent solve against shared, read-only inputs. [`ThreadPool`] fans
//! such work out over `std::thread::scope` workers — no external
//! dependency, no unsafe code, no long-lived threads to manage — and
//! collects results **in index order**, so the output of a parallel run is
//! bit-identical to the sequential one regardless of worker count.
//!
//! Worker count resolution, in priority order:
//!
//! 1. an explicit count ([`ThreadPool::new`], or [`worker_count`] with
//!    `Some(n)`);
//! 2. the `SYNTS_THREADS` environment variable ([`THREADS_ENV`]);
//! 3. [`std::thread::available_parallelism`].
//!
//! ```
//! use synts_core::parallel::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let squares = pool.map(&[1u64, 2, 3, 4, 5], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "SYNTS_THREADS";

/// Resolves a worker count: `explicit` if given, else [`THREADS_ENV`],
/// else the machine's available parallelism. Always at least 1.
///
/// # Panics
///
/// If `explicit` is `Some(0)`, or [`THREADS_ENV`] is set to something
/// other than an integer >= 1 (`0`, negative, or non-numeric). A typo'd
/// worker knob silently falling back to "the whole machine" (or to
/// sequential) is exactly the kind of misconfiguration that shows up as
/// a mystery perf cliff on a fleet — fail loudly at the first pool
/// construction instead, and give `workers(0)` and `SYNTS_THREADS=0`
/// the same loud answer rather than two behaviors.
#[must_use]
pub fn worker_count(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit {
        assert!(
            n >= 1,
            "workers=0 is invalid: expected an integer >= 1 \
             (use 1 for a sequential run, or no explicit count to use the \
             machine's available parallelism)"
        );
        return n;
    }
    // synts-lint: allow(env-read) — SYNTS_THREADS is the sanctioned worker-count knob; results are bit-identical at any count
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        return threads_from_env(&raw);
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parses a [`THREADS_ENV`] value, panicking (loudly, with the variable
/// name and offending value) on anything but an integer >= 1.
fn threads_from_env(raw: &str) -> usize {
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => panic!(
            "{THREADS_ENV}={raw:?} is invalid: expected an integer >= 1 \
             (use 1 for a sequential run, or unset it to use the machine's \
             available parallelism)"
        ),
    }
}

/// A scoped fork/join pool: `workers` threads are spawned per call inside
/// `std::thread::scope`, pull item indices from a shared atomic cursor,
/// and are joined before the call returns.
///
/// The pool is a cheap value object (a configured worker count); cloning
/// or copying it is free. Work items only need to live for the duration
/// of one `map` call, so borrowed inputs (configs, profile slices, trait
/// objects) work without `Arc` plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPool {
    workers: usize,
}

impl ThreadPool {
    /// A pool with exactly `workers` threads (clamped to at least 1).
    #[must_use]
    pub fn new(workers: usize) -> ThreadPool {
        ThreadPool {
            workers: workers.max(1),
        }
    }

    /// A pool sized by [`worker_count`]`(None)`: `SYNTS_THREADS` if set,
    /// otherwise the machine's available parallelism.
    #[must_use]
    pub fn from_env() -> ThreadPool {
        ThreadPool::new(worker_count(None))
    }

    /// The single-threaded pool — `map` runs inline on the caller.
    #[must_use]
    pub fn sequential() -> ThreadPool {
        ThreadPool::new(1)
    }

    /// The configured worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every item, returning results in item order.
    ///
    /// `f` receives `(index, &item)`. With one worker (or one item) the
    /// map runs inline on the calling thread — no spawn, identical
    /// semantics. A panic in `f` is propagated to the caller after all
    /// workers have been joined.
    ///
    /// ## Scheduling: greedy one-at-a-time claiming
    ///
    /// Workers pull single indices from a shared atomic cursor. For the
    /// few-expensive-items shape (a corpus build: a handful of
    /// second-long characterizations) this is the *right* discipline: a
    /// worker is never idle while unclaimed items remain, so the
    /// makespan satisfies Graham's bound
    /// `elapsed ≤ sum(costs)/workers + max(cost)` regardless of cost
    /// distribution (pinned by
    /// `greedy_claiming_bounds_worker_idle_on_expensive_items`).
    /// Pre-chunked assignment ([`ThreadPool::chunk_ranges`], which
    /// `pareto_sweep` uses to amortize per-chunk setup) has no such
    /// bound — two expensive items landing in one worker's chunk
    /// serialize while the other workers drain their cheap chunks and
    /// idle. The cursor `fetch_add` costs nanoseconds per item; it only
    /// matters for micro-items, which belong in batched `solve_batch`
    /// calls anyway.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let workers = self.workers.min(items.len());
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let cursor = AtomicUsize::new(0);
        let buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else { break };
                            local.push((i, f(i, item)));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(bucket) => bucket,
                    Err(panic) => std::panic::resume_unwind(panic),
                })
                .collect()
        });
        // Deterministic index-ordered collection: each index was claimed
        // by exactly one worker.
        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(items.len(), || None);
        for bucket in buckets {
            for (i, r) in bucket {
                slots[i] = Some(r);
            }
        }
        slots
            .into_iter()
            .map(|r| r.expect("every index is claimed exactly once"))
            .collect()
    }

    /// [`ThreadPool::map`] for fallible work, surfacing the same error a
    /// sequential left-to-right loop would — the lowest-index failure —
    /// independent of worker count and scheduling. With one worker the
    /// loop short-circuits at that failure; with more, in-flight items
    /// run to completion first (stopping them would cost coordination
    /// without changing the result).
    ///
    /// # Errors
    ///
    /// The first error in item order, if any `f` call fails.
    pub fn try_map<T, R, E, F>(&self, items: &[T], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        if self.workers.min(items.len()) <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        self.map(items, f).into_iter().collect()
    }

    /// Splits `0..len` into at most `workers` contiguous near-equal index
    /// ranges — the chunking `pareto_sweep` uses so each worker's
    /// `solve_batch` call amortizes shared setup over its whole chunk.
    /// Public so `synts-cli check` can preview a shard plan's θ-grid
    /// partition without characterizing the benchmark.
    pub fn chunk_ranges(&self, len: usize) -> Vec<std::ops::Range<usize>> {
        let workers = self.workers.min(len).max(1);
        let base = len / workers;
        let extra = len % workers;
        let mut ranges = Vec::with_capacity(workers);
        let mut start = 0;
        for w in 0..workers {
            let size = base + usize::from(w < extra);
            if size == 0 {
                continue;
            }
            ranges.push(start..start + size);
            start += size;
        }
        ranges
    }
}

impl Default for ThreadPool {
    fn default() -> ThreadPool {
        ThreadPool::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_item_order_at_any_worker_count() {
        let items: Vec<usize> = (0..57).collect();
        let expect: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
        for workers in [1, 2, 3, 4, 8, 64] {
            let got = ThreadPool::new(workers).map(&items, |i, &x| {
                assert_eq!(i, x, "index matches item position");
                x * 3 + 1
            });
            assert_eq!(got, expect, "workers = {workers}");
        }
    }

    #[test]
    fn map_handles_empty_and_single_item() {
        let pool = ThreadPool::new(8);
        let empty: Vec<u32> = Vec::new();
        assert!(pool.map(&empty, |_, &x| x).is_empty());
        assert_eq!(pool.map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn try_map_returns_the_lowest_index_error() {
        let items: Vec<usize> = (0..40).collect();
        let err = ThreadPool::new(8)
            .try_map(&items, |_, &x| if x % 13 == 12 { Err(x) } else { Ok(x) })
            .expect_err("items 12, 25, 38 fail");
        assert_eq!(err, 12, "sequential-order first error wins");
    }

    #[test]
    fn worker_count_prefers_explicit_over_env() {
        assert_eq!(worker_count(Some(3)), 3);
        assert_eq!(worker_count(Some(1)), 1);
        assert!(worker_count(None) >= 1);
    }

    /// An explicit zero is the same misconfiguration as `SYNTS_THREADS=0`
    /// and gets the same loud rejection (message shape and all), never a
    /// silent clamp to sequential.
    #[test]
    fn worker_count_rejects_explicit_zero_loudly() {
        let panic = std::panic::catch_unwind(|| worker_count(Some(0)))
            .expect_err("workers=0 must be rejected");
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        assert!(msg.contains("workers=0"), "names the knob: {msg}");
        assert!(
            msg.contains("expected an integer >= 1"),
            "same message shape as the env rejection: {msg}"
        );
        assert!(
            msg.contains("use 1 for a sequential run"),
            "tells the caller the fix: {msg}"
        );
    }

    #[test]
    fn threads_env_accepts_positive_integers() {
        assert_eq!(threads_from_env("6"), 6);
        assert_eq!(threads_from_env(" 8 "), 8, "whitespace is trimmed");
        assert_eq!(threads_from_env("1"), 1);
    }

    /// The satellite contract: `SYNTS_THREADS=0` and non-numeric values
    /// are rejected loudly (with the variable name and the offending
    /// value in the message), never silently coerced. The invalid values
    /// are probed through the pure parser so this test cannot race other
    /// tests in this binary that read the real environment.
    #[test]
    fn threads_env_rejects_zero_and_junk_loudly() {
        for raw in ["0", "not-a-number", "", "-3", "2.5"] {
            let panic = std::panic::catch_unwind(|| threads_from_env(raw))
                .expect_err(&format!("{raw:?} must be rejected"));
            let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains(THREADS_ENV), "{raw:?}: names the knob: {msg}");
            assert!(msg.contains(raw), "{raw:?}: names the value: {msg}");
        }
    }

    #[test]
    fn try_map_short_circuits_sequentially() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = AtomicUsize::new(0);
        let items: Vec<usize> = (0..20).collect();
        let err = ThreadPool::sequential()
            .try_map(&items, |_, &x| {
                calls.fetch_add(1, Ordering::Relaxed);
                if x == 3 {
                    Err(x)
                } else {
                    Ok(x)
                }
            })
            .expect_err("item 3 fails");
        assert_eq!(err, 3);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            4,
            "one worker stops at the first failure"
        );
    }

    #[test]
    fn chunk_ranges_cover_all_indices_contiguously() {
        for len in [0usize, 1, 5, 8, 17] {
            for workers in [1usize, 2, 4, 8] {
                let ranges = ThreadPool::new(workers).chunk_ranges(len);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "contiguous");
                    assert!(!r.is_empty(), "no empty chunks");
                    next = r.end;
                }
                assert_eq!(next, len, "full coverage: len {len} workers {workers}");
                assert!(ranges.len() <= workers.max(1));
            }
        }
    }

    /// The satellite contract for the corpus shape (few, expensive
    /// items): worker idle time is bounded. With greedy one-at-a-time
    /// claiming no worker idles while unclaimed items remain, so total
    /// idle is at most `(workers-1) × max(cost)` — equivalently the
    /// makespan obeys Graham's bound `sum/workers + max`. Sleeps are used
    /// as costs because they overlap even on a single hardware core,
    /// which keeps this meaningful on 1-CPU CI runners. The generous
    /// margin absorbs scheduler jitter; a pathological schedule (two
    /// expensive items serialized on one worker, or no overlap at all)
    /// misses the bound by whole sleep-lengths, not by jitter.
    #[test]
    fn greedy_claiming_bounds_worker_idle_on_expensive_items() {
        use std::time::{Duration, Instant};
        // 12 cheap + 1 expensive item, expensive in the middle — the
        // distribution that wrecks static chunking.
        let mut costs_ms: Vec<u64> = vec![30; 12];
        costs_ms.insert(6, 120);
        let workers = 4;
        let sum: u64 = costs_ms.iter().sum(); // 480 ms
        let max = 120;
        let start = Instant::now();
        ThreadPool::new(workers).map(&costs_ms, |_, &ms| {
            std::thread::sleep(Duration::from_millis(ms));
        });
        let elapsed = start.elapsed();
        let graham = sum / workers as u64 + max; // 240 ms
        let margin = 60;
        assert!(
            elapsed <= Duration::from_millis(graham + margin),
            "makespan {elapsed:?} exceeds Graham bound {graham}ms + {margin}ms margin \
             (sequential would be {sum}ms)"
        );
    }

    #[test]
    fn pool_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            ThreadPool::new(4).map(&[0u32, 1, 2, 3, 4, 5, 6, 7], |_, &x| {
                assert!(x != 5, "boom");
                x
            })
        });
        assert!(result.is_err(), "worker panic reaches the caller");
    }
}
