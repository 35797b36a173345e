//! # gatelib — gate-level netlist substrate for SynTS
//!
//! This crate provides the circuit layer of the SynTS reproduction: a small
//! standard-cell library, a structural netlist graph with a builder API,
//! a voltage-aware delay model calibrated against the paper's Table 5.1,
//! static timing analysis (STA), and *dynamic* timing simulation that
//! computes the **sensitized path delay** of each input vector transition
//! — the quantity timing speculation gambles on. [`TimingSim`] is the
//! event-driven scalar simulator and the oracle; [`WideTimingSim`] runs
//! 64 vectors per machine word in one levelized sweep per step, bit for
//! bit what 64 scalar simulators report.
//!
//! The original paper obtained these delays from Synopsys Design Compiler
//! netlists (Illinois Verilog Model of an Alpha core) annotated with HSPICE
//! PTM-22 nm gate delays. Neither is redistributable, so this crate supplies
//! a self-contained substitute with the same *interface*: feed cycle-by-cycle
//! input vectors, get per-instruction propagation delays back.
//!
//! ## Quick example
//!
//! ```
//! use gatelib::{CellKind, NetlistBuilder, TimingSim, Voltage};
//!
//! # fn main() -> Result<(), gatelib::NetlistError> {
//! // A tiny 2-gate circuit: out = !(a & b) ^ c
//! let mut b = NetlistBuilder::new("demo");
//! let a = b.input("a");
//! let bb = b.input("b");
//! let c = b.input("c");
//! let n = b.cell(CellKind::Nand2, &[a, bb])?;
//! let x = b.cell(CellKind::Xor2, &[n, c])?;
//! b.output(x, "out");
//! let netlist = b.finish()?;
//!
//! let mut sim = TimingSim::new(&netlist, Voltage::NOMINAL)?;
//! assert_eq!(sim.step(&[true, true, false])?, 0.0); // sets up the state
//! let delay = sim.step(&[true, false, false])?;
//! assert!(delay > 0.0); // the NAND -> XOR path was sensitized
//! assert_eq!(sim.outputs(), [true]); // !(1 & 0) ^ 0
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]

mod cell;
mod error;
pub mod export;
pub mod hamming;
mod netlist;
mod sim;
mod sta;
mod stats;
pub mod variation;
mod voltage;
mod wide;

pub use cell::{CellKind, CellParams, CELL_LIBRARY_NAME};
pub use error::NetlistError;
pub use netlist::{Cell, CellId, NetId, Netlist, NetlistBuilder};
pub use sim::TimingSim;
pub use sta::{CriticalPath, StaticTiming};
pub use stats::NetlistStats;
pub use voltage::{Voltage, VoltageTable, VOLTAGE_TABLE_POINTS};
pub use wide::{transpose_lanes, WideTimingSim, LANES};
