//! # timing — cross-layer timing products for SynTS
//!
//! This crate is the bridge between the circuit layer ([`gatelib`] /
//! [`circuits`]) and the optimization layer (`synts-core`). It turns
//! per-instruction operand traces into:
//!
//! * [`DelayTrace`]s — sensitized path delays from dynamic timing simulation;
//! * [`ErrorCurve`]s — the per-thread error-probability functions `err_i(r)`
//!   of the paper's system model (Sec 4.1, Fig 3.5);
//! * sampled estimates [`SampledCurve`] — what the online scheme measures
//!   during its sampling phase (Sec 4.3);
//! * [`EnergyDelay`] metrics and Pareto utilities for the evaluation plots.
//!
//! ```
//! use circuits::{AluEvent, AluOp, StageKind};
//! use timing::{ErrorModel, StageCharacterizer};
//!
//! # fn main() -> Result<(), timing::TimingError> {
//! let char = StageCharacterizer::new(StageKind::SimpleAlu, 8)?;
//! let events: Vec<AluEvent> = (0..200)
//!     .map(|i| AluEvent::new(AluOp::Add, i * 37 % 251, i * 101 % 249))
//!     .collect();
//! let curve = char.error_curve(&events)?;
//! // At the nominal clock (r = 1) no instruction can fail.
//! assert_eq!(curve.err(1.0), 0.0);
//! // Overclocking far enough makes errors appear.
//! assert!(curve.err(0.3) > 0.0);
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]

mod characterize;
mod edp;
mod err_curve;
mod error;
mod trace;

pub use characterize::{DieTiming, Sampling, StageCharacterizer};
pub use edp::{pareto_front, EnergyDelay};
pub use err_curve::{heterogeneity, max_abs_gap, ErrorCurve, ErrorModel, SampledCurve};
pub use error::TimingError;
pub use trace::DelayTrace;

// Re-export the voltage vocabulary so downstream crates need only `timing`.
pub use gatelib::{Voltage, VoltageTable, VOLTAGE_TABLE_POINTS};
