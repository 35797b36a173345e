//! The lint's acceptance gate: the workspace itself must lint clean.
//!
//! Zero unsuppressed violations, every suppression honored (an unused
//! allow is itself a violation, so this also proves every committed
//! suppression still matches something).

use std::path::Path;

#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let report = synts_lint::lint_workspace(&root).expect("workspace walk succeeds");
    assert!(
        report.files_scanned > 100,
        "walker found only {} files — skip list too broad?",
        report.files_scanned
    );
    assert!(
        report.suppressed >= 4,
        "expected the committed suppressions to be honored, saw {}",
        report.suppressed
    );
    assert!(
        report.is_clean(),
        "unsuppressed violations:\n{}",
        report.render_text()
    );
}
