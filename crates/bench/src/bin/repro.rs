//! `repro` — regenerates every table and figure of the SynTS paper.
//!
//! ```text
//! repro [--quick] <target>...
//! repro all                # everything, paper-scale workloads
//! repro --quick fig-3-5    # one figure, test-scale workloads
//! ```
//!
//! Each target prints its data table, saves a CSV under `results/`, and
//! evaluates the paper's qualitative claims (shape checks). Exit status is
//! non-zero if any requested check fails.
#![forbid(unsafe_code)]

use std::process::ExitCode;

use synts_bench::corpus::Corpus;
use synts_bench::ext_figures;
use synts_bench::figures::{self, Figure};
use synts_bench::render::save_csv;
use synts_core::Quality;

const TARGETS: &[&str] = &[
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

fn usage() -> ExitCode {
    eprintln!("usage: repro [--quick] <target>... | all");
    eprintln!("targets: {}", TARGETS.join(", "));
    ExitCode::from(2)
}

fn needs_corpus(target: &str) -> bool {
    !matches!(
        target,
        "table-5-1" | "fig-5-10" | "sec-6-3" | "ablation-variation" | "ablation-aging"
    )
}

fn generate(target: &str, corpus: Option<&Corpus>) -> Result<Figure, synts_core::OptError> {
    let c = || corpus.expect("corpus built for corpus-dependent targets");
    match target {
        "table-5-1" => figures::table_5_1(),
        "fig-1-2" => figures::fig_1_2(c()),
        "fig-3-5" => figures::fig_3_5(c()),
        "fig-3-6" => figures::fig_3_6(c()),
        "fig-5-10" => figures::fig_5_10(),
        "fig-6-11" | "fig-6-12" | "fig-6-13" | "fig-6-14" | "fig-6-15" | "fig-6-16" => {
            figures::fig_pareto(c(), target)
        }
        "fig-6-17" => figures::fig_6_17(c()),
        "fig-6-18" => figures::fig_6_18(c()),
        "sec-5-4" => figures::sec_5_4(c()),
        "sec-6-3" => figures::sec_6_3(),
        "headline" => figures::headline(c()),
        "ablation-adders" => figures::ablation_adders(c()),
        "ablation-variation" => ext_figures::ablation_variation(),
        "ablation-aging" => ext_figures::ablation_aging(),
        "ablation-leakage" => ext_figures::ablation_leakage(c()),
        "ablation-power-cap" => ext_figures::ablation_power_cap(c()),
        "ablation-predictor" => ext_figures::ablation_predictor(c()),
        _ => Err(synts_core::OptError::BadConfig("unknown repro target")),
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut quality = Quality::Paper;
    args.retain(|a| {
        if a == "--quick" {
            quality = Quality::Quick;
            false
        } else {
            true
        }
    });
    if args.is_empty() {
        return usage();
    }
    let targets: Vec<String> = if args.iter().any(|a| a == "all") {
        TARGETS.iter().map(|s| (*s).to_string()).collect()
    } else {
        args
    };
    for t in &targets {
        if !TARGETS.contains(&t.as_str()) {
            eprintln!("unknown target: {t}");
            return usage();
        }
    }

    let corpus = if targets.iter().any(|t| needs_corpus(t)) {
        eprintln!("[repro] characterizing workloads ({quality:?} effort)...");
        match Corpus::build(quality) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("corpus build failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    let mut failed_checks = 0usize;
    for target in &targets {
        match generate(target, corpus.as_ref()) {
            Ok(fig) => {
                println!("\n=== {} ===", fig.title);
                println!("{}", fig.text);
                if let Some((header, rows)) = &fig.csv {
                    match save_csv(fig.id, header, rows) {
                        Ok(path) => println!("[csv] {}", path.display()),
                        Err(e) => eprintln!("[csv] write failed: {e}"),
                    }
                }
                for check in &fig.checks {
                    let mark = if check.pass { "PASS" } else { "FAIL" };
                    if !check.pass {
                        failed_checks += 1;
                    }
                    println!("[{mark}] {}", check.claim);
                }
            }
            Err(e) => {
                eprintln!("{target}: generation failed: {e}");
                failed_checks += 1;
            }
        }
    }
    println!();
    if failed_checks > 0 {
        println!("{failed_checks} shape check(s) FAILED");
        ExitCode::FAILURE
    } else {
        println!("all shape checks passed");
        ExitCode::SUCCESS
    }
}
