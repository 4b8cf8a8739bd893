//! The in-tree analyzer over this workspace: every per-file lint, every
//! workspace pass and every architecture rule (`crates/analyzer/src/rules.rs`:
//! one cycle loop, one fan-out, one arithmetic, one binary format, ...) must
//! report nothing, so `cargo test` enforces all of them.

use std::path::Path;

#[test]
fn the_workspace_is_clean_under_the_analyzer() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = analyzer::check_workspace(root).expect("the workspace tree is readable");
    let rendered: Vec<String> = report.diags.iter().map(|d| d.render()).collect();
    assert!(
        report.diags.is_empty(),
        "{} finding(s):\n{}",
        report.diags.len(),
        rendered.join("\n")
    );
}
