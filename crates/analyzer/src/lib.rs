//! In-tree static analyzer for the sqg-da workspace.
//!
//! Enforces the invariants PRs 2–3 promised — bitwise determinism,
//! allocation-free hot loops, justified `unsafe`, dispatch-gated SIMD,
//! hang-free fault-aware collectives — as machine-checked lints over a
//! hand-rolled lexer, a lightweight structural parser, and (since v2) a
//! workspace-wide symbol table + call graph (no `syn`, no rustc internals,
//! no dependencies).
//!
//! Analysis runs in two phases:
//!
//! 1. **Per-file**: [`FileFacts::collect`] lexes and parses one file into
//!    owned facts (tokens, comments, structure, directives); the per-file
//!    lints in [`lints`] run over them.
//! 2. **Workspace**: [`passes`] builds a [`symbols::SymbolTable`] and a
//!    [`callgraph::CallGraph`] over *all* collected facts and runs the
//!    interprocedural passes (`no_alloc` reachability, collective-protocol
//!    safety, determinism dataflow) and the `dead-pub` mention check.
//!
//! Over the whole tree ([`check_workspace`]) the [`rules`] table then checks
//! the workspace's architecture: sole sites, confined patterns and retired
//! dependencies. The root test `tests/architecture.rs` runs all of it.
//!
//! Run `cargo run -p analyzer -- check` from the workspace root; see
//! `crates/analyzer/README.md` for the lint table and the lexer's and
//! call-graph's limitations.

pub mod allow;
pub mod callgraph;
pub mod diag;
pub mod lexer;
pub mod lints;
pub mod parse;
pub mod passes;
pub mod rules;
pub mod symbols;
pub mod workspace;

pub use diag::Diagnostic;

use allow::Directive;
use lexer::{Comment, Token};
use parse::Structure;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use workspace::WorkFile;

/// What role a file plays; several lints only apply to library code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Crate library source (`src/` of a lib crate).
    Library,
    /// Integration tests / benches (`tests/`, `benches/`).
    Test,
    /// Binary targets (`src/bin/`, `main.rs`, the bench crate).
    Bin,
    /// Examples (`examples/`).
    Example,
}

/// A registered lint.
pub struct Lint {
    /// Kebab-case name used in diagnostics and `allow(...)` directives.
    pub name: &'static str,
    /// One-line description.
    pub desc: &'static str,
}

/// The lint registry. `lint-directive` (malformed/unknown directives) is
/// implicit and cannot be allowed.
pub const LINTS: &[Lint] = &[
    Lint {
        name: "unsafe-needs-safety-comment",
        desc: "every `unsafe` block/fn/impl must carry a `// SAFETY:` (or `# Safety` doc) justification",
    },
    Lint {
        name: "simd-needs-runtime-dispatch",
        desc: "#[target_feature]/_mm* intrinsics only in files wired through is_x86_feature_detected! dispatch",
    },
    Lint {
        name: "nondeterministic-api",
        desc: "no SystemTime/Instant/elapsed/unseeded RNG/HashMap in numeric crates (fft, linalg, stats, sqg, ensf, letkf)",
    },
    Lint {
        name: "no-alloc-in-hot-path",
        desc: "functions marked `// lint: no_alloc` must not allocate (Vec::new/push/to_vec/collect/clone/Box::new/...)",
    },
    Lint {
        name: "no-alloc-reachable",
        desc: "no function transitively reachable from a `// lint: no_alloc` fn may allocate (call-graph pass)",
    },
    Lint {
        name: "collective-protocol",
        desc: "dist/hpc collectives never inside rank-dependent branches",
    },
    Lint {
        name: "hash-float-fold",
        desc: "HashMap/HashSet iteration must not feed float accumulation (fold-order nondeterminism)",
    },
    Lint {
        name: "rng-stream-discipline",
        desc: "dist/ensf RNGs must derive from the stats::rng per-(particle,tile) stream API, never raw construction",
    },
    Lint {
        name: "dead-pub",
        desc: "a `pub` item in library code must be named by some other file outside test code (use lines excepted)",
    },
    Lint {
        name: "float-exact-compare",
        desc: "no `==`/`!=` against float literals in library code (bitwise tests are exempt)",
    },
    Lint {
        name: "panic-in-library",
        desc: "unwrap/expect/panic! in non-test library code needs an `// INVARIANT:` comment or `# Panics` doc",
    },
];

/// True when `name` is a registered lint name.
fn is_known_lint(name: &str) -> bool {
    LINTS.iter().any(|l| l.name == name)
}

/// Which lint families apply to a file, derived from its crate.
#[derive(Debug, Clone)]
pub struct Scope {
    /// Crate directory name (`ensf`, `dist`, ... or `sqg-da` for the root).
    pub crate_name: String,
    /// Bound by the determinism contract (`nondeterministic-api`).
    pub numeric: bool,
    /// Bound by the collective protocol (`dist`, `hpc`).
    pub comm: bool,
    /// Bound by RNG stream discipline (`dist`, `ensf`).
    pub rng_strict: bool,
    /// Bound by hash-iteration-order determinism (numeric ∪ `dist`, `hpc`,
    /// `core`).
    pub hash_order: bool,
}

impl Scope {
    /// Scope for a workspace crate, by crate directory name.
    pub(crate) fn for_crate(crate_name: &str) -> Scope {
        let numeric = workspace::NUMERIC_CRATES.contains(&crate_name);
        Scope {
            crate_name: crate_name.to_string(),
            numeric,
            comm: matches!(crate_name, "dist" | "hpc"),
            rng_strict: matches!(crate_name, "dist" | "ensf"),
            hash_order: numeric || matches!(crate_name, "dist" | "hpc" | "core"),
        }
    }

    /// Fixture-mode scope: every lint family applies.
    pub(crate) fn fixture() -> Scope {
        Scope {
            crate_name: "fixture".to_string(),
            numeric: true,
            comm: true,
            rng_strict: true,
            hash_order: true,
        }
    }
}

/// Everything the analyzer knows about one file, owned: the unit both the
/// per-file lints and the workspace passes consume.
pub struct FileFacts {
    /// Workspace-relative display path.
    pub rel: String,
    /// Role of the file.
    pub kind: FileKind,
    /// Lint-family applicability.
    pub scope: Scope,
    /// Full source text.
    pub text: String,
    /// Lexed tokens.
    pub tokens: Vec<Token>,
    /// Lexed comments.
    pub comments: Vec<Comment>,
    /// Structural facts (braces, test regions, fns).
    pub structure: Structure,
    /// `fn` body token ranges marked `// lint: no_alloc`, with fn names.
    pub no_alloc: Vec<(String, usize, usize)>,
    /// `(lint, first_line, last_line)` ranges covered by allow directives.
    pub allow_ranges: Vec<(String, u32, u32)>,
    /// Malformed/unknown directives, reported as `lint-directive` errors.
    pub directive_errors: Vec<(u32, String)>,
    /// Comment index by the comment's last line.
    comment_by_end_line: BTreeMap<u32, usize>,
}

impl FileFacts {
    /// Lexes, parses and resolves directives for one file.
    pub fn collect(rel: &str, text: &str, kind: FileKind, scope: Scope) -> FileFacts {
        let lexed = lexer::lex(text);
        let structure = parse::analyze(&lexed.tokens);
        let directives = allow::parse_directives(&lexed.comments);
        let token_lines: BTreeSet<u32> = lexed.tokens.iter().map(|t| t.line).collect();

        let mut no_alloc = Vec::new();
        let mut allow_ranges = Vec::new();
        let mut directive_errors: Vec<(u32, String)> = Vec::new();
        for d in &directives {
            match d {
                Directive::Allow { lint, line, trailing, .. } => {
                    if !is_known_lint(lint) {
                        directive_errors
                            .push((*line, format!("`allow({lint})` names an unknown lint")));
                        continue;
                    }
                    let range = if *trailing {
                        (*line, *line)
                    } else {
                        allow_coverage(&lexed.tokens, &structure, &token_lines, *line)
                    };
                    allow_ranges.push((lint.clone(), range.0, range.1));
                }
                Directive::NoAlloc { line } => {
                    match no_alloc_target(&lexed.tokens, &structure, &token_lines, *line) {
                        Some((name, a, b)) => no_alloc.push((name, a, b)),
                        None => directive_errors.push((
                            *line,
                            "`no_alloc` directive must directly precede a function with a body"
                                .to_string(),
                        )),
                    }
                }
                Directive::Malformed { line, why } => {
                    directive_errors.push((*line, format!("malformed lint directive: {why}")));
                }
            }
        }

        let comment_by_end_line =
            lexed.comments.iter().enumerate().map(|(i, c)| (c.end_line, i)).collect();
        FileFacts {
            rel: rel.to_string(),
            kind,
            scope,
            text: text.to_string(),
            tokens: lexed.tokens,
            comments: lexed.comments,
            structure,
            no_alloc,
            allow_ranges,
            directive_errors,
            comment_by_end_line,
        }
    }

    /// Verbatim text of 1-based `line` (empty if out of range).
    pub fn line_text(&self, line: u32) -> &str {
        self.text.lines().nth(line as usize - 1).unwrap_or("").trim_end()
    }

    /// True when `line` is inside `#[cfg(test)]` / `#[test]` code or the
    /// file as a whole is not library code.
    pub fn in_test_context(&self, line: u32) -> bool {
        self.kind != FileKind::Library || self.structure.in_test_region(line)
    }

    /// True when an `allow(<lint>)` directive covers `line`.
    fn allowed(&self, lint: &str, line: u32) -> bool {
        self.allow_ranges.iter().any(|(l, a, b)| l == lint && *a <= line && line <= *b)
    }

    /// Lines outside `#[cfg(test)]` / `#[test]` regions.
    pub fn library_lines(&self) -> usize {
        let lines = self.text.lines().count() as u32;
        (1..=lines).filter(|&l| !self.structure.in_test_region(l)).count()
    }

    /// All comments that touch `line` (including trailing ones).
    pub fn comments_on_line(&self, line: u32) -> impl Iterator<Item = &Comment> {
        self.comments.iter().filter(move |c| c.line <= line && line <= c.end_line)
    }

    /// Concatenated text of the contiguous comment block directly above
    /// `line`, skipping attribute lines. Empty when there is none.
    pub fn comment_block_above(&self, line: u32) -> String {
        let mut acc: Vec<&str> = Vec::new();
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            if let Some(&ci) = self.comment_by_end_line.get(&l) {
                let c = &self.comments[ci];
                if c.trailing {
                    break;
                }
                acc.push(&c.text);
                l = c.line.saturating_sub(1);
                continue;
            }
            if self.structure.attr_lines.contains(&l) {
                l -= 1;
                continue;
            }
            break;
        }
        acc.reverse();
        acc.join("\n")
    }

    /// Doc/comment block above the enclosing fn of `line`, if any.
    pub fn enclosing_fn_doc(&self, line: u32) -> String {
        match self.structure.enclosing_fn(line) {
            Some(f) => self.comment_block_above(f.header_line),
            None => String::new(),
        }
    }
}

/// Runs the per-file lints (plus directive errors) over collected facts.
fn analyze_facts(facts: &FileFacts) -> Report {
    let mut report = Report::default();
    for (line, msg) in &facts.directive_errors {
        report.emit(
            facts,
            "lint-directive",
            *line,
            1,
            msg.clone(),
            "directives look like `// lint: allow(<lint>, reason=\"...\")` or `// lint: no_alloc`",
        );
    }
    lints::run_all(facts, &mut report);
    report.sorted()
}

/// Analyzes one file's source text with the per-file lints only. The
/// workspace passes (call-graph reachability, collective protocol,
/// determinism dataflow) additionally need [`passes::run`] over every file's
/// facts at once.
// lint: allow(dead-pub, reason="the per-file entry point of tests/prop_lexer.rs and the lints and lib unit tests")
pub fn analyze_source(rel: &str, text: &str, kind: FileKind, numeric: bool) -> Report {
    let mut scope = Scope::for_crate("mem");
    scope.numeric = numeric;
    analyze_facts(&FileFacts::collect(rel, text, kind, scope))
}

/// What an analyzer run found: findings and totals.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings, sorted by (file, line, col, lint).
    pub diags: Vec<Diagnostic>,
    /// Findings suppressed by `allow(...)` directives.
    pub suppressed: usize,
    /// Files scanned.
    pub files_scanned: usize,
    /// Lines of `crates/*/src` (shims excluded) outside test regions.
    pub library_lines: usize,
}

impl Report {
    /// Records a finding in `f` unless an allow directive covers it.
    pub(crate) fn emit(
        &mut self,
        f: &FileFacts,
        lint: &'static str,
        line: u32,
        col: u32,
        message: String,
        help: &str,
    ) {
        if lint != "lint-directive" && f.allowed(lint, line) {
            self.suppressed += 1;
            return;
        }
        self.diags.push(Diagnostic {
            lint,
            file: f.rel.clone(),
            line,
            col,
            message,
            snippet: f.line_text(line).to_string(),
            help: help.to_string(),
        });
    }

    /// Orders the findings by (file, line, col, lint).
    pub(crate) fn sorted(mut self) -> Report {
        self.diags.sort_by(|a, b| {
            (&a.file, a.line, a.col, a.lint).cmp(&(&b.file, b.line, b.col, b.lint))
        });
        self
    }
}

/// Runs every per-file lint, every workspace pass and every architecture
/// rule over the workspace at `root`.
pub fn check_workspace(root: &Path) -> std::io::Result<Report> {
    let files = workspace::discover(root)?;
    let (facts, mut report) = scan(&files, |wf| Scope::for_crate(&wf.crate_name))?;
    report.diags.extend(rules::check(&facts, &workspace::manifests(root)?));
    let library = facts.iter().filter(|f| rules::under(&f.rel, "crates/*/src/"));
    report.library_lines = library.map(FileFacts::library_lines).sum();
    Ok(report.sorted())
}

/// Fixture mode: the per-file lints and the workspace passes over exactly
/// `paths`, each treated as library code with every lint family in scope.
/// The architecture rules describe the workspace tree and do not run.
pub fn check_files(paths: &[PathBuf]) -> std::io::Result<Report> {
    let worklist: Vec<WorkFile> = paths
        .iter()
        .map(|p| WorkFile {
            path: p.clone(),
            rel: p.to_string_lossy().into_owned(),
            kind: FileKind::Library,
            crate_name: "fixture".to_string(),
        })
        .collect();
    Ok(scan(&worklist, |_| Scope::fixture())?.1.sorted())
}

/// Collects facts and runs the per-file lints on each file, then the
/// workspace passes over all of them at once.
fn scan(
    worklist: &[WorkFile],
    scope: impl Fn(&WorkFile) -> Scope,
) -> std::io::Result<(Vec<FileFacts>, Report)> {
    let mut facts: Vec<FileFacts> = Vec::with_capacity(worklist.len());
    let mut report = Report { files_scanned: worklist.len(), ..Report::default() };
    for wf in worklist {
        let text = std::fs::read_to_string(&wf.path)
            .map_err(|e| std::io::Error::new(e.kind(), format!("cannot read {}: {e}", wf.rel)))?;
        let f = FileFacts::collect(&wf.rel, &text, wf.kind, scope(wf));
        let file = analyze_facts(&f);
        report.suppressed += file.suppressed;
        report.diags.extend(file.diags);
        facts.push(f);
    }
    let ws = passes::run(&facts);
    report.suppressed += ws.suppressed;
    report.diags.extend(ws.diags);
    Ok((facts, report))
}

/// Line range an own-line `allow` directive at `line` covers: the next code
/// line, extended to the whole brace block when that line opens one.
fn allow_coverage(
    tokens: &[Token],
    structure: &Structure,
    token_lines: &BTreeSet<u32>,
    line: u32,
) -> (u32, u32) {
    let Some(&next_line) = token_lines.iter().find(|&&l| l > line) else {
        return (line, line);
    };
    // INVARIANT: next_line came from token_lines, so a token on it exists.
    let idx = tokens.iter().position(|t| t.line == next_line).unwrap();
    match parse::body_block(tokens, &structure.brace_pair, idx) {
        Some((_, close)) => (next_line, tokens[close].line),
        None => (next_line, next_line),
    }
}

/// Resolves a `no_alloc` directive to the next `fn`'s name and body token
/// range. The fn keyword must start within 8 lines (attributes may
/// intervene), and the fn must have a body.
fn no_alloc_target(
    tokens: &[Token],
    structure: &Structure,
    token_lines: &BTreeSet<u32>,
    line: u32,
) -> Option<(String, usize, usize)> {
    let &next_line = token_lines.iter().find(|&&l| l > line)?;
    let idx = tokens.iter().position(|t| t.line == next_line)?;
    let f = structure
        .fns
        .iter()
        .filter(|f| f.kw_idx >= idx && f.header_line <= line + 8)
        .min_by_key(|f| f.kw_idx)?;
    let (a, b) = f.body_tokens?;
    Some((f.name.clone(), a, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_report(src: &str) -> Report {
        analyze_source("mem.rs", src, FileKind::Library, true)
    }

    #[test]
    fn clean_source_is_clean() {
        let r = lib_report("/// Adds.\npub fn add(a: u64, b: u64) -> u64 { a + b }\n");
        assert!(r.diags.is_empty(), "{:?}", r.diags);
    }

    #[test]
    fn allow_suppresses_and_counts() {
        let src = "fn f(x: f64) -> bool {\n    // lint: allow(float-exact-compare, reason=\"exact sentinel\")\n    x == 0.0\n}\n";
        let r = lib_report(src);
        assert!(r.diags.is_empty(), "{:?}", r.diags);
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn allow_on_fn_covers_whole_body() {
        let src = "// lint: allow(float-exact-compare, reason=\"exact sentinels throughout\")\nfn f(x: f64, y: f64) -> bool {\n    let a = x == 0.0;\n    let b = y != 1.0;\n    a && b\n}\n";
        let r = lib_report(src);
        assert!(r.diags.is_empty(), "{:?}", r.diags);
        assert_eq!(r.suppressed, 2);
    }

    #[test]
    fn unknown_lint_in_allow_is_error() {
        let src = "// lint: allow(no-such-lint, reason=\"typo\")\nfn f() {}\n";
        let r = lib_report(src);
        assert_eq!(r.diags.len(), 1);
        assert_eq!(r.diags[0].lint, "lint-directive");
    }

    #[test]
    fn test_code_is_exempt_from_panic_lint() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        let r = lib_report(src);
        assert!(r.diags.is_empty(), "{:?}", r.diags);
    }

    #[test]
    fn scope_families_follow_crate() {
        let s = Scope::for_crate("ensf");
        assert!(s.numeric && s.rng_strict && s.hash_order && !s.comm);
        let s = Scope::for_crate("hpc");
        assert!(!s.numeric && s.comm && s.hash_order && !s.rng_strict);
        let s = Scope::for_crate("dist");
        assert!(s.comm && s.rng_strict && s.hash_order && !s.numeric);
        let s = Scope::for_crate("telemetry");
        assert!(!s.numeric && !s.comm && !s.rng_strict && !s.hash_order);
    }
}
