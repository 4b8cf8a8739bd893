//! Workspace file discovery and classification.

use crate::FileKind;
use std::path::{Path, PathBuf};

/// Crates bound by the determinism contract (`nondeterministic-api`).
pub const NUMERIC_CRATES: &[&str] = &["fft", "linalg", "stats", "sqg", "ensf", "letkf"];

/// One file selected for analysis.
#[derive(Debug, Clone)]
pub struct WorkFile {
    /// Absolute (or as-given) path.
    pub path: PathBuf,
    /// Root-relative display path with `/` separators.
    pub rel: String,
    /// Role of the file.
    pub kind: FileKind,
    /// Crate directory name (`ensf`, `dist`, ... or `sqg-da` for the root).
    pub crate_name: String,
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "node_modules"];

/// Walks `root` for `.rs` files, skipping build output and the analyzer's
/// own seeded-violation fixtures. Deterministic (sorted) order.
pub fn discover(root: &Path) -> std::io::Result<Vec<WorkFile>> {
    let mut rels = Vec::new();
    walk(root, root, &|name| name.ends_with(".rs"), &mut rels)?;
    rels.sort();
    Ok(rels.into_iter().map(|rel| classify(root.join(&rel), rel)).collect())
}

/// Every `Cargo.toml` under `root` as `(relative path, text)`, sorted.
pub fn manifests(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut rels = Vec::new();
    walk(root, root, &|name| name == "Cargo.toml", &mut rels)?;
    rels.sort();
    rels.into_iter()
        .map(|rel| std::fs::read_to_string(root.join(&rel)).map(|text| (rel, text)))
        .collect()
}

fn walk(
    root: &Path,
    dir: &Path,
    keep: &dyn Fn(&str) -> bool,
    out: &mut Vec<String>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            // The fixture corpus is seeded violations; the workspace sweep
            // must not scan it (`tests/fixtures.rs` runs it, expecting
            // failure).
            if rel_of(root, &path) == "crates/analyzer/fixtures" {
                continue;
            }
            walk(root, &path, keep, out)?;
        } else if keep(&name) {
            out.push(rel_of(root, &path));
        }
    }
    Ok(())
}

fn rel_of(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Classifies a file by its workspace-relative path.
pub(crate) fn classify(path: PathBuf, rel: String) -> WorkFile {
    let parts: Vec<&str> = rel.split('/').collect();
    let crate_name: &str = match parts.as_slice() {
        ["crates", "shims", name, ..] => name,
        ["crates", name, ..] => name,
        _ => "sqg-da",
    };
    let kind = if parts.contains(&"tests") || parts.contains(&"benches") {
        FileKind::Test
    } else if parts.contains(&"examples") {
        FileKind::Example
    } else if parts.contains(&"bin")
        || crate_name == "bench"
        || parts.last() == Some(&"main.rs")
        || parts.first() == Some(&"build.rs")
    {
        FileKind::Bin
    } else {
        FileKind::Library
    };
    // `crate_name` borrows `rel`; materialize it before `rel` moves in.
    WorkFile { path, crate_name: crate_name.to_string(), rel, kind }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind_of(rel: &str) -> (FileKind, bool) {
        let wf = classify(PathBuf::from(rel), rel.to_string());
        (wf.kind, NUMERIC_CRATES.contains(&wf.crate_name.as_str()))
    }

    #[test]
    fn classification() {
        assert_eq!(kind_of("crates/ensf/src/batch.rs"), (FileKind::Library, true));
        assert_eq!(kind_of("crates/ensf/tests/prop.rs"), (FileKind::Test, true));
        assert_eq!(kind_of("crates/telemetry/src/span.rs"), (FileKind::Library, false));
        assert_eq!(kind_of("crates/bench/src/bin/fig10.rs"), (FileKind::Bin, false));
        assert_eq!(kind_of("crates/shims/rand/src/lib.rs"), (FileKind::Library, false));
        assert_eq!(kind_of("examples/quickstart.rs"), (FileKind::Example, false));
        assert_eq!(kind_of("src/lib.rs"), (FileKind::Library, false));
        assert_eq!(kind_of("tests/chaos.rs"), (FileKind::Test, false));
    }
}
