//! # archsim — cycle-level multi-core substrate for SynTS
//!
//! The paper's evaluation rests on Gem5 simulating a 4-core Alpha: it needs
//! (a) per-thread CPI structure (pipeline + cache behaviour), (b) barrier
//! semantics, and (c) an execution substrate that injects Razor timing
//! errors and pays the 5-cycle replay. This crate provides all three,
//! at the abstraction the SynTS models consume:
//!
//! * [`Cache`] — a set-associative L1 data-cache model;
//! * [`CpiModel`] / [`InstrStream`] — trace-driven CPI estimation for the
//!   instrumented workload traces (Eq 4.1's `CPI_base`);
//! * [`RazorCore`] / [`simulate_barrier`] — cycle-accounting execution of a
//!   barrier interval under per-core voltage/frequency/TSR settings with
//!   error injection from real sensitized-delay traces. Integration tests
//!   verify it agrees with the paper's closed-form Eq 4.1–4.3;
//! * [`simulate_barrier_with_leakage`] / [`SleepPolicy`] — the same walk
//!   with static power and a barrier sleep policy, which the integration
//!   tests hold against the leakage and thrifty-barrier closed forms.
//!
//! ```
//! use archsim::{Cache, CacheConfig};
//!
//! let mut l1 = Cache::new(CacheConfig::l1_default());
//! assert!(!l1.access(0x1000, false)); // cold miss
//! assert!(l1.access(0x1000, false));  // hit
//! ```
#![forbid(unsafe_code)]

mod cache;
mod cpi;
mod razor;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use cpi::{CpiModel, InstrStream};
pub use razor::{
    simulate_barrier, simulate_barrier_with_leakage, CoreSetting, IntervalSim, RazorCore,
    SleepPolicy,
};
