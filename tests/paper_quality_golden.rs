//! Pins the paper-quality characterization path end to end: each
//! committed DAC'16 figure spec (Figs 6.11–6.16) is run at paper quality
//! from an empty cache, and both its canonical JSON report and the body
//! of the `.char` entry the run stores must match what is committed.
//! The same spec is then rerun on the now-warm cache with the exact
//! solvers (`synts_milp`, `synts_exhaustive`) added and assignments
//! recorded, and that report's digest is pinned too, so a change to
//! either exact solver that moves a chosen operating point shows here.
//!
//! The other golden fixtures are quick-quality or corpus-free; this is
//! the one that holds the seeded-pair sampling regime (stride > 1) of
//! `delay_trace_into` at the sample counts the figures use.
//!
//! To regenerate after an intentional change:
//! `SYNTS_REGEN_FIXTURES=1 cargo test --test paper_quality_golden -- --nocapture`
//! rewrites the report fixtures and prints the digests to paste into
//! [`PINNED`].

use std::fs;
use std::path::{Path, PathBuf};

use synts::prelude::*;

/// `(spec name, 64-bit FNV-1a of its `.char` entry body, 64-bit FNV-1a
/// of its exact-solver report)`.
const PINNED: [(&str, u64, u64); 6] = [
    ("fig-6-11", 0xce94_097f_5a76_07de, 0x9c02_d7b2_8469_c681),
    ("fig-6-12", 0xfdd2_358b_b0cc_ea0e, 0xf189_c4e6_398c_c58c),
    ("fig-6-13", 0x293c_543e_8ba0_32e9, 0x1e7e_344d_f508_b11d),
    ("fig-6-14", 0x9975_1a5a_c132_2b40, 0x11c6_8dc4_70a0_a212),
    ("fig-6-15", 0x1296_869c_e142_6320, 0xfba7_5b31_9fd9_6e8f),
    ("fig-6-16", 0x16c3_2b85_1555_4e21, 0x7ba7_b515_9f7b_b322),
];

/// The solvers the exact-solver rerun appends to a spec's schemes.
const EXACT_SOLVERS: [&str; 2] = ["synts_milp", "synts_exhaustive"];

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a of the body of the one `.char` entry in `dir`: everything
/// after its magic, key and checksum lines.
fn entry_body_digest(dir: &Path) -> u64 {
    let entries: Vec<PathBuf> = fs::read_dir(dir)
        .expect("cache dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "char"))
        .collect();
    assert_eq!(entries.len(), 1, "one entry in {}", dir.display());
    let bytes = fs::read(&entries[0]).expect("entry bytes");
    let header = bytes
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .nth(2)
        .map(|(i, _)| i + 1)
        .expect("three header lines");
    fnv1a(&bytes[header..])
}

/// What one spec's runs produce.
struct Run {
    /// The cold run's canonical JSON report.
    report: String,
    /// FNV-1a of the `.char` entry body the cold run stored.
    entry_digest: u64,
    /// FNV-1a of the warm exact-solver rerun's canonical JSON report.
    exact_digest: u64,
}

/// Runs one committed spec at paper quality into a fresh cache dir, then
/// reruns it on the warm cache with [`EXACT_SOLVERS`] appended and
/// assignments recorded.
fn run_cold_then_exact(name: &str) -> Run {
    let src = fs::read_to_string(repo_path(&format!("crates/bench/specs/{name}.json")))
        .expect("committed spec");
    let spec = ScenarioSpec::from_json_str(&src).expect("spec parses");
    assert_eq!(
        spec.quality,
        Quality::Paper,
        "{name} is a paper-quality spec"
    );
    let dir =
        std::env::temp_dir().join(format!("synts-paper-golden-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let cache = CharCache::at_dir(&dir);
    let report = Experiment::new(spec.clone())
        .with_cache(cache.clone())
        .run()
        .expect("runs");
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (0, 1), "{name} ran cold");
    assert!(report.all_checks_pass(), "{name}: {:?}", report.checks);
    let entry_digest = entry_body_digest(&dir);

    let mut exact = spec;
    exact.schemes.extend(EXACT_SOLVERS.map(String::from));
    exact.record_assignments = true;
    let exact_report = Experiment::new(exact)
        .with_cache(cache.clone())
        .run()
        .expect("exact rerun runs");
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (1, 1), "{name} reran warm");
    assert!(
        exact_report.all_checks_pass(),
        "{name} with exact solvers: {:?}",
        exact_report.checks
    );
    let _ = fs::remove_dir_all(&dir);
    Run {
        report: report.to_json_string(),
        entry_digest,
        exact_digest: fnv1a(exact_report.to_json_string().as_bytes()),
    }
}

#[test]
fn paper_quality_reports_and_entries_match_their_pins() {
    let regen = std::env::var("SYNTS_REGEN_FIXTURES").is_ok();
    let mut drift = Vec::new();
    for (name, pinned_entry, pinned_exact) in PINNED {
        let run = run_cold_then_exact(name);
        let path = repo_path(&format!("tests/fixtures/{name}-paper.report.golden.json"));
        if regen {
            fs::write(&path, &run.report).expect("write fixture");
            eprintln!(
                "    (\"{name}\", {:#018x}, {:#018x}),",
                run.entry_digest, run.exact_digest
            );
            continue;
        }
        let golden = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden fixture {} ({e})", path.display()));
        if golden != run.report {
            drift.push(format!("{name}: report differs from {}", path.display()));
        }
        if run.entry_digest != pinned_entry {
            drift.push(format!(
                "{name}: entry body digest {:#018x}, pinned {pinned_entry:#018x}",
                run.entry_digest
            ));
        }
        if run.exact_digest != pinned_exact {
            drift.push(format!(
                "{name}: exact-solver report digest {:#018x}, pinned {pinned_exact:#018x}",
                run.exact_digest
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "paper-quality output drifted (if intentional, regenerate with \
         SYNTS_REGEN_FIXTURES=1):\n{}",
        drift.join("\n")
    );
}
