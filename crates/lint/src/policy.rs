//! The per-path policy table: which rules apply to which workspace files.
//!
//! The table is ordered most-specific-first. Returning `None` means the
//! file is out of scope entirely (vendored stand-ins, build output, the
//! lint's own fixture corpus — which *intentionally* violates rules).

use crate::rules::Rule;

/// Rules every in-scope file gets, regardless of crate.
const BASE: [Rule; 2] = [Rule::StaticMut, Rule::NoUnsafe];

/// Engine crates: results must be a pure, deterministic function of the
/// spec, so the full determinism set applies to their `src/`.
const ENGINE_CRATES: [&str; 8] = [
    "crates/core/",
    "crates/milp/",
    "crates/gatelib/",
    "crates/timing/",
    "crates/circuits/",
    "crates/workloads/",
    "crates/archsim/",
    "crates/gpgpu/",
];

fn with(extra: &[Rule]) -> Vec<Rule> {
    let mut rules = BASE.to_vec();
    rules.extend_from_slice(extra);
    rules.sort();
    rules.dedup();
    rules
}

/// Path prefixes the walker (and direct invocations) skip entirely.
pub const SKIP_PREFIXES: [&str; 4] = ["vendor/", "target/", ".git/", "crates/lint/tests/fixtures/"];

/// Returns the rules for a workspace-relative path (forward slashes),
/// or `None` when the file is out of scope.
#[must_use]
pub fn policy_for(rel: &str) -> Option<Vec<Rule>> {
    if !rel.ends_with(".rs") || SKIP_PREFIXES.iter().any(|p| rel.starts_with(p)) {
        return None;
    }
    // Integration tests and examples may use whatever the test needs
    // (temp dirs, timers); only memory-safety rules hold.
    let in_test_tree = rel.starts_with("tests/")
        || rel.starts_with("examples/")
        || rel.contains("/tests/")
        || rel.contains("/examples/");
    if in_test_tree {
        return Some(BASE.to_vec());
    }
    Some(match rel {
        // Sanctioned timing module: phase detection *measures* wall-clock
        // behaviour by design. Determinism of data structures still holds.
        "crates/core/src/phase.rs" => with(&[Rule::HashCollections]),
        // The service request path must answer 4xx/5xx, never die.
        // fleet.rs is in it too: polls, heartbeats and completions are
        // handler code (its executor loop additionally sleeps its poll
        // cadence, which WallClock does not cover by design).
        "crates/serve/src/http.rs" | "crates/serve/src/queue.rs" | "crates/serve/src/fleet.rs" => {
            with(&[
                Rule::HashCollections,
                Rule::WallClock,
                Rule::EnvRead,
                Rule::PanicPath,
            ])
        }
        // The client polls with deadlines and sleeps its retry backoff
        // (sanctioned wall-clock sites; the backoff *schedule* is a pure
        // function of the policy, so determinism is unaffected).
        "crates/serve/src/client.rs" => with(&[Rule::HashCollections]),
        _ => {
            if rel.starts_with("crates/serve/src/bin/") || rel.starts_with("crates/bench/src/bin/")
            {
                // Binaries parse std::env::args by nature.
                with(&[Rule::HashCollections, Rule::WallClock])
            } else if rel.starts_with("crates/serve/") {
                with(&[Rule::HashCollections, Rule::WallClock, Rule::EnvRead])
            } else if rel.starts_with("crates/lint/") {
                // The lint's own CLI reads args. Ordered output still
                // matters.
                with(&[Rule::HashCollections])
            } else if ENGINE_CRATES.iter().any(|p| rel.starts_with(p))
                || rel.starts_with("crates/bench/")
                || rel.starts_with("src/")
            {
                with(&[Rule::HashCollections, Rule::WallClock, Rule::EnvRead])
            } else {
                BASE.to_vec()
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vendor_and_fixtures_are_out_of_scope() {
        assert_eq!(policy_for("vendor/serde/src/lib.rs"), None);
        assert_eq!(
            policy_for("crates/lint/tests/fixtures/bad/env_read.rs"),
            None
        );
        assert_eq!(policy_for("target/debug/build/foo.rs"), None);
        assert_eq!(policy_for("README.md"), None);
    }

    #[test]
    fn engine_src_gets_the_full_determinism_set() {
        for f in ["crates/core/src/solver.rs", "crates/bench/src/figures.rs"] {
            let rules = policy_for(f).unwrap();
            for r in [
                Rule::HashCollections,
                Rule::WallClock,
                Rule::EnvRead,
                Rule::StaticMut,
                Rule::NoUnsafe,
            ] {
                assert!(rules.contains(&r), "{f}: missing {r:?}");
            }
            assert!(!rules.contains(&Rule::PanicPath), "{f}");
        }
    }

    #[test]
    fn request_path_files_get_panic_path() {
        for f in [
            "crates/serve/src/http.rs",
            "crates/serve/src/queue.rs",
            "crates/serve/src/fleet.rs",
        ] {
            assert!(policy_for(f).unwrap().contains(&Rule::PanicPath), "{f}");
        }
        assert!(!policy_for("crates/serve/src/client.rs")
            .unwrap()
            .contains(&Rule::PanicPath));
    }

    #[test]
    fn crash_safety_modules_stay_under_the_clock_rules() {
        // The journal and the fault harness are determinism-critical:
        // any new wall-clock or env read there must carry an explicit
        // suppression, not ride on a policy carve-out. (The two
        // sanctioned sites today: `SYNTS_FAULTS` arming in faults.rs and
        // the read-deadline clock in http.rs, both inline-suppressed.)
        let journal = policy_for("crates/serve/src/journal.rs").unwrap();
        assert!(journal.contains(&Rule::WallClock));
        assert!(journal.contains(&Rule::EnvRead));
        let faults = policy_for("crates/core/src/faults.rs").unwrap();
        for r in [Rule::WallClock, Rule::EnvRead, Rule::HashCollections] {
            assert!(faults.contains(&r), "missing {r:?}");
        }
    }

    #[test]
    fn sanctioned_sites_drop_the_matching_rule() {
        let phase = policy_for("crates/core/src/phase.rs").unwrap();
        assert!(!phase.contains(&Rule::WallClock));
        assert!(phase.contains(&Rule::HashCollections));
        let client = policy_for("crates/serve/src/client.rs").unwrap();
        assert!(!client.contains(&Rule::WallClock));
        let cli = policy_for("crates/bench/src/bin/synts-cli.rs").unwrap();
        assert!(!cli.contains(&Rule::EnvRead));
        assert!(cli.contains(&Rule::WallClock));
    }

    #[test]
    fn test_trees_keep_only_memory_safety_rules() {
        for f in [
            "tests/pipeline.rs",
            "crates/gatelib/tests/properties.rs",
            "crates/bench/tests/corpus_scaling.rs",
        ] {
            let rules = policy_for(f).unwrap();
            assert_eq!(rules, vec![Rule::StaticMut, Rule::NoUnsafe], "{f}");
        }
    }
}
