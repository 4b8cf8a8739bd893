//! Self-tests over the seeded-violation fixture corpus.
//!
//! Each fixture file contains exactly one violation of one lint; `clean.rs`
//! contains none. The tests shell out to the real `analyzer` binary in
//! fixture mode (`check --json FILE`) and assert the exact lint name and
//! line number in the JSON diagnostics.

use std::path::PathBuf;
use std::process::Command;

fn run_on_all(fixtures: &[&str]) -> (bool, String) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_analyzer"));
    cmd.arg("check").arg("--json");
    for f in fixtures {
        cmd.arg(dir.join(f));
    }
    let out = cmd.output().expect("failed to spawn the analyzer binary");
    let stdout = String::from_utf8(out.stdout).expect("analyzer JSON must be UTF-8");
    (out.status.success(), stdout)
}

fn run_on(fixture: &str) -> (bool, String) {
    run_on_all(&[fixture])
}

/// Asserts `fixture` yields exactly one finding: `lint` at `line`.
fn assert_single_finding(fixture: &str, lint: &str, line: u32) {
    let (ok, json) = run_on(fixture);
    assert!(!ok, "{fixture}: expected a non-zero exit, got success\n{json}");
    let count_needle = format!("\"counts\":{{\"{lint}\":1}}");
    assert!(
        json.contains(&count_needle),
        "{fixture}: expected exactly one `{lint}` finding\n{json}"
    );
    let finding_needle = format!("\"lint\":\"{lint}\",\"file\":");
    assert!(json.contains(&finding_needle), "{fixture}: missing finding object\n{json}");
    let line_needle = format!("\"line\":{line},\"column\":");
    assert!(
        json.contains(&line_needle),
        "{fixture}: expected the finding on line {line}\n{json}"
    );
}

#[test]
fn unsafe_needs_safety_comment_fixture() {
    assert_single_finding("unsafe_needs_safety_comment.rs", "unsafe-needs-safety-comment", 4);
}

#[test]
fn simd_needs_runtime_dispatch_fixture() {
    assert_single_finding("simd_needs_runtime_dispatch.rs", "simd-needs-runtime-dispatch", 4);
}

#[test]
fn nondeterministic_api_fixture() {
    assert_single_finding("nondeterministic_api.rs", "nondeterministic-api", 4);
}

#[test]
fn no_alloc_in_hot_path_fixture() {
    assert_single_finding("no_alloc_in_hot_path.rs", "no-alloc-in-hot-path", 5);
}

/// A fixed-buffer event recorder marked `no_alloc`: this fixture pins that
/// the lint catches the realistic regression on such a recording path
/// (rendering an event label with `format!`).
#[test]
fn flight_recorder_hot_path_fixture() {
    assert_single_finding("flight_recorder_hot_path.rs", "no-alloc-in-hot-path", 7);
}

#[test]
fn float_exact_compare_fixture() {
    assert_single_finding("float_exact_compare.rs", "float-exact-compare", 4);
}

#[test]
fn panic_in_library_fixture() {
    assert_single_finding("panic_in_library.rs", "panic-in-library", 4);
}

#[test]
fn no_alloc_reachable_fixture() {
    assert_single_finding("no_alloc_reachable.rs", "no-alloc-reachable", 9);
}

/// The acceptance-criterion regression: a marked fn calling an allocating
/// helper in another file. The per-file scan (one file at a time) passes
/// both halves clean; only the workspace call-graph pass connects them.
#[test]
fn cross_file_no_alloc_regression_is_caught() {
    let (ok, json) = run_on("cross/hot.rs");
    assert!(ok, "hot.rs alone must be clean (the old per-file scan misses this)\n{json}");
    let (ok, json) = run_on("cross/util.rs");
    assert!(ok, "util.rs alone must be clean (nothing marks it)\n{json}");
    let (ok, json) = run_on_all(&["cross/hot.rs", "cross/util.rs"]);
    assert!(!ok, "analyzed together the pair must fail\n{json}");
    assert!(json.contains("\"counts\":{\"no-alloc-reachable\":1}"), "{json}");
    assert!(json.contains("\"line\":5,\"column\":19"), "expected the to_vec site\n{json}");
    assert!(json.contains("util.rs"), "{json}");
    assert!(json.contains("hot -> scratch_helper"), "chain must name the path\n{json}");
}

#[test]
fn collective_rank_guard_fixture() {
    assert_single_finding("collective_rank_guard.rs", "collective-protocol", 5);
}

#[test]
fn hash_float_fold_fixture() {
    assert_single_finding("hash_float_fold.rs", "hash-float-fold", 4);
}

#[test]
fn rng_stream_discipline_fixture() {
    assert_single_finding("rng_stream_discipline.rs", "rng-stream-discipline", 4);
}

#[test]
fn nondeterministic_elapsed_fixture() {
    assert_single_finding("nondeterministic_elapsed.rs", "nondeterministic-api", 4);
}

#[test]
fn clean_fixture_passes() {
    let (ok, json) = run_on("clean.rs");
    assert!(ok, "clean.rs must produce zero findings\n{json}");
    assert!(json.contains("\"findings\":[]"), "clean.rs findings must be empty\n{json}");
}

#[test]
fn every_fixture_is_covered_by_a_test() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("fixtures dir must exist")
        .map(|e| e.expect("read_dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(
        names,
        vec![
            "clean.rs",
            "collective_rank_guard.rs",
            "cross", // the two-file no-alloc-reachable regression pair
            "flight_recorder_hot_path.rs",
            "float_exact_compare.rs",
            "hash_float_fold.rs",
            "no_alloc_in_hot_path.rs",
            "no_alloc_reachable.rs",
            "nondeterministic_api.rs",
            "nondeterministic_elapsed.rs",
            "panic_in_library.rs",
            "rng_stream_discipline.rs",
            "simd_needs_runtime_dispatch.rs",
            "unsafe_needs_safety_comment.rs",
        ],
        "new fixtures need a matching test (and vice versa)"
    );
}
