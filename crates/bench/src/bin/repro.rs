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
use synts_bench::render::save_csv;
use synts_bench::{generate, needs_corpus, TARGETS};
use synts_core::Quality;

fn usage() -> ExitCode {
    eprintln!("usage: repro [--quick] <target>... | all");
    eprintln!("targets: {}", TARGETS.join(", "));
    ExitCode::from(2)
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
