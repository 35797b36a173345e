//! # circuits — gate-level pipe-stage netlists for SynTS
//!
//! Generators for the three pipeline stages the paper analyzes — **Decode**,
//! **SimpleALU** and **ComplexALU** (Sec 5.3) — plus the arithmetic building
//! blocks they are made of (ripple / carry-lookahead /
//! Kogge-Stone / carry-select / carry-skip adders, array / Wallace / Dadda
//! multipliers, a barrel shifter, comparators and decoders).
//!
//! Each stage implements [`PipeStage`]: it owns a [`gatelib::Netlist`] and
//! knows how to encode an [`AluEvent`] (one dynamic instruction's operands)
//! into the stage's input vector. Feeding consecutive encoded events to a
//! [`gatelib::TimingSim`] yields the per-instruction sensitized delays that
//! drive the whole SynTS analysis.
//!
//! ```
//! use circuits::{AluEvent, AluOp, PipeStage, SimpleAlu};
//! use gatelib::{TimingSim, Voltage};
//!
//! # fn main() -> Result<(), gatelib::NetlistError> {
//! let alu = SimpleAlu::new(8)?;
//! let mut sim = TimingSim::new(alu.netlist(), Voltage::NOMINAL)?;
//! let ev = AluEvent::new(AluOp::Add, 200, 100);
//! sim.step(&alu.encode(&ev))?;
//! assert_eq!(sim.output_word() & 0xFF, (200 + 100) & 0xFF);
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]

mod adder;
mod complex_alu;
mod decode;
mod multiplier;
mod ops;
mod prims;
mod shifter;
mod simple_alu;
mod stage;

pub use adder::{
    carry_lookahead_adder, carry_select_adder, carry_skip_adder, kogge_stone_adder,
    ripple_carry_adder, AdderKind,
};
pub use complex_alu::ComplexAlu;
pub use decode::DecodeStage;
pub use multiplier::{array_multiplier, dadda_multiplier, wallace_multiplier};
pub use ops::{AluEvent, AluOp, OpSet};
pub use prims::{
    and_tree, eq_comparator, full_adder, ltu_comparator, mux_word, onehot_decoder, or_tree,
    priority_chain,
};
pub use shifter::{barrel_shifter, ShiftDirection};
pub use simple_alu::SimpleAlu;
pub use stage::{build_stage, PipeStage, StageKind};
