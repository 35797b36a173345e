//! Pins the paper-quality characterization path end to end: each
//! committed DAC'16 figure spec (Figs 6.11–6.16) is run at paper quality
//! from an empty cache, and both its canonical JSON report and the body
//! of the `.char` entry the run stores must match what is committed.
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

/// `(spec name, 64-bit FNV-1a of its `.char` entry body)`.
const PINNED: [(&str, u64); 6] = [
    ("fig-6-11", 0xce94_097f_5a76_07de),
    ("fig-6-12", 0xfdd2_358b_b0cc_ea0e),
    ("fig-6-13", 0x293c_543e_8ba0_32e9),
    ("fig-6-14", 0x9975_1a5a_c132_2b40),
    ("fig-6-15", 0x1296_869c_e142_6320),
    ("fig-6-16", 0x16c3_2b85_1555_4e21),
];

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

/// Runs one committed spec at paper quality into a fresh cache dir and
/// returns its report bytes and entry-body digest.
fn run_cold(name: &str) -> (String, u64) {
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
    let report = Experiment::new(spec)
        .with_cache(cache.clone())
        .run()
        .expect("runs");
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (0, 1), "{name} ran cold");
    assert!(report.all_checks_pass(), "{name}: {:?}", report.checks);
    let digest = entry_body_digest(&dir);
    let _ = fs::remove_dir_all(&dir);
    (report.to_json_string(), digest)
}

#[test]
fn paper_quality_reports_and_entries_match_their_pins() {
    let regen = std::env::var("SYNTS_REGEN_FIXTURES").is_ok();
    let mut drift = Vec::new();
    for (name, pinned) in PINNED {
        let (rendered, digest) = run_cold(name);
        let path = repo_path(&format!("tests/fixtures/{name}-paper.report.golden.json"));
        if regen {
            fs::write(&path, &rendered).expect("write fixture");
            eprintln!("    (\"{name}\", {digest:#018x}),");
            continue;
        }
        let golden = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden fixture {} ({e})", path.display()));
        if golden != rendered {
            drift.push(format!("{name}: report differs from {}", path.display()));
        }
        if digest != pinned {
            drift.push(format!(
                "{name}: entry body digest {digest:#018x}, pinned {pinned:#018x}"
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
