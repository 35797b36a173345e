//! # synts-bench — reproduction harness for every table and figure
//!
//! One module per concern:
//!
//! * [`corpus`] — characterizes the full benchmark × stage matrix once and
//!   caches it for all downstream experiments;
//! * [`figures`] — one generator per paper artifact (Table 5.1, Figs 1.2,
//!   3.5, 3.6, 5.10, 6.11–6.16, 6.17, 6.18, Sec 6.3, the headline claims,
//!   plus the adder-topology ablation);
//! * [`ext_figures`] — the extension ablations (variation/aging, leakage,
//!   power cap, thrifty barrier, `N_i` prediction);
//! * [`render`] — plain-text tables and CSV emission.
//!
//! The `repro` binary dispatches to these, and `synts-cli` runs scenario
//! specs from disk. Performance is measured by the benchmark of record in
//! `perfbench/`, not here.
#![forbid(unsafe_code)]

pub mod corpus;
pub mod ext_figures;
pub mod figures;
pub mod render;
