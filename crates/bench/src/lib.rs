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
//! [`TARGETS`] names every artifact and [`generate`] dispatches one to
//! its generator: the `repro` binary and the golden tests run that one
//! table, and `synts-cli` runs scenario specs from disk. Performance is
//! measured by the benchmark of record in `perfbench/`, not here.
#![forbid(unsafe_code)]

pub mod corpus;
pub mod ext_figures;
pub mod figures;
pub mod render;

use corpus::Corpus;
use figures::Figure;
use synts_core::OptError;

/// Every artifact `repro` regenerates, in the order `repro all` prints
/// them. Each id is also the [`Figure::id`] its generator returns.
pub const TARGETS: &[&str] = &[
    "table-5-1",
    "fig-1-2",
    "fig-3-5",
    "fig-3-6",
    "fig-5-10",
    "fig-6-11",
    "fig-6-12",
    "fig-6-13",
    "fig-6-14",
    "fig-6-15",
    "fig-6-16",
    "fig-6-17",
    "fig-6-18",
    "sec-5-4",
    "sec-6-3",
    "headline",
    "ablation-adders",
    "ablation-variation",
    "ablation-aging",
    "ablation-leakage",
    "ablation-power-cap",
    "ablation-predictor",
];

/// Whether `target` reads the characterized corpus; the rest build
/// their own circuits.
#[must_use]
pub fn needs_corpus(target: &str) -> bool {
    !matches!(
        target,
        "table-5-1" | "fig-5-10" | "sec-6-3" | "ablation-variation" | "ablation-aging"
    )
}

/// Regenerates one of [`TARGETS`].
///
/// # Errors
///
/// [`OptError::BadConfig`] for an unknown target, or for a target that
/// [`needs_corpus`] when `corpus` is `None`; otherwise whatever the
/// target's generator returns.
pub fn generate(target: &str, corpus: Option<&Corpus>) -> Result<Figure, OptError> {
    let c = || corpus.ok_or(OptError::BadConfig("this repro target needs the corpus"));
    match target {
        "table-5-1" => figures::table_5_1(),
        "fig-1-2" => figures::fig_1_2(c()?),
        "fig-3-5" => figures::fig_3_5(c()?),
        "fig-3-6" => figures::fig_3_6(c()?),
        "fig-5-10" => figures::fig_5_10(),
        "fig-6-11" | "fig-6-12" | "fig-6-13" | "fig-6-14" | "fig-6-15" | "fig-6-16" => {
            figures::fig_pareto(c()?, target)
        }
        "fig-6-17" => figures::fig_6_17(c()?),
        "fig-6-18" => figures::fig_6_18(c()?),
        "sec-5-4" => figures::sec_5_4(c()?),
        "sec-6-3" => figures::sec_6_3(),
        "headline" => figures::headline(c()?),
        "ablation-adders" => figures::ablation_adders(c()?),
        "ablation-variation" => ext_figures::ablation_variation(),
        "ablation-aging" => ext_figures::ablation_aging(),
        "ablation-leakage" => ext_figures::ablation_leakage(c()?),
        "ablation-power-cap" => ext_figures::ablation_power_cap(c()?),
        "ablation-predictor" => ext_figures::ablation_predictor(c()?),
        _ => Err(OptError::BadConfig("unknown repro target")),
    }
}
