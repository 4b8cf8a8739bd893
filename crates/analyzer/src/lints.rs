//! The per-file lints. Each is a pure scan over one file's [`FileFacts`].
//! The interprocedural passes live in [`crate::passes`].

use crate::lexer::{Token, TokenKind};
use crate::{FileFacts, Report};
use std::collections::BTreeSet;

/// Runs every registered lint over `ctx`.
pub fn run_all(ctx: &FileFacts, em: &mut Report) {
    unsafe_needs_safety_comment(ctx, em);
    simd_needs_runtime_dispatch(ctx, em);
    nondeterministic_api(ctx, em);
    no_alloc_in_hot_path(ctx, em);
    float_exact_compare(ctx, em);
    panic_in_library(ctx, em);
}

/// `unsafe-needs-safety-comment`: every `unsafe` keyword (block, fn, impl)
/// must be justified by a `SAFETY:` comment on the same line or in the
/// contiguous comment block above, or a `# Safety` doc section.
fn unsafe_needs_safety_comment(ctx: &FileFacts, em: &mut Report) {
    for t in &ctx.tokens {
        if t.kind != TokenKind::Ident || t.text != "unsafe" {
            continue;
        }
        let same_line = ctx
            .comments_on_line(t.line)
            .any(|c| c.text.contains("SAFETY:") || c.text.contains("# Safety"));
        let above = ctx.comment_block_above(t.line);
        if same_line || above.contains("SAFETY:") || above.contains("# Safety") {
            continue;
        }
        em.emit(
            ctx,
            "unsafe-needs-safety-comment",
            t.line,
            t.col,
            "`unsafe` without a safety justification".to_string(),
            "state why the invariants hold in a `// SAFETY:` comment directly above (or a `# Safety` doc section)",
        );
    }
}

/// `simd-needs-runtime-dispatch`: `#[target_feature]` attributes and `_mm*`
/// intrinsics may only appear in files that also contain the
/// `is_x86_feature_detected!` dispatch (the lexical approximation of "wired
/// through the dispatch table").
fn simd_needs_runtime_dispatch(ctx: &FileFacts, em: &mut Report) {
    let has_dispatch =
        ctx.tokens.iter().any(|t| t.kind == TokenKind::Ident && t.text == "is_x86_feature_detected");
    if has_dispatch {
        return;
    }
    let mut seen_lines: BTreeSet<u32> = BTreeSet::new();
    for t in &ctx.tokens {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let trigger = t.text == "target_feature" || t.text.starts_with("_mm");
        if trigger && seen_lines.insert(t.line) {
            em.emit(
                ctx,
                "simd-needs-runtime-dispatch",
                t.line,
                t.col,
                format!("`{}` in a file with no `is_x86_feature_detected!` dispatch", t.text),
                "SIMD kernels must live in a module wired through the runtime-dispatch tables",
            );
        }
    }
}

/// `nondeterministic-api`: bans wall-clock, unseeded-RNG and hash-order APIs
/// in the numeric crates' library code.
fn nondeterministic_api(ctx: &FileFacts, em: &mut Report) {
    if !ctx.scope.numeric {
        return;
    }
    let mut seen: BTreeSet<(u32, String)> = BTreeSet::new();
    for (i, t) in ctx.tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || ctx.in_test_context(t.line) {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| ctx.tokens[p].text.as_str());
        let next = ctx.tokens.get(i + 1).map(|n| n.text.as_str());
        let why = match t.text.as_str() {
            "SystemTime" | "Instant" | "UNIX_EPOCH" => {
                "wall-clock time is run-to-run nondeterministic"
            }
            "elapsed" | "duration_since" if prev == Some(".") && next == Some("(") => {
                "wall-clock durations are run-to-run nondeterministic"
            }
            "HashMap" | "HashSet" => {
                "iteration order is seeded per-process; any iteration breaks reproducibility"
            }
            "thread_rng" | "from_entropy" => "unseeded RNG construction breaks reproducibility",
            "random"
                if i >= 2
                    && ctx.tokens[i - 1].text == "::"
                    && ctx.tokens[i - 2].text == "rand" =>
            {
                "rand::random draws from an unseeded global stream"
            }
            _ => continue,
        };
        if seen.insert((t.line, t.text.clone())) {
            em.emit(
                ctx,
                "nondeterministic-api",
                t.line,
                t.col,
                format!("`{}` in a numeric crate: {}", t.text, why),
                "use stats::rng seeded streams / BTreeMap, or allow with an explicit reason (telemetry timing is the usual exemption)",
            );
        }
    }
}

/// Token indices of allocating calls in `tokens[a..=b]`: allocating methods
/// (`.push(`, `.collect(`, ...), `vec!`/`format!` macros, and constructor
/// paths (`Vec::new`, `Box::new`, `String::from`, ...). Shared between the
/// per-file `no-alloc-in-hot-path` scan and the interprocedural
/// `no-alloc-reachable` pass.
pub(crate) fn alloc_sites(tokens: &[Token], a: usize, b: usize) -> Vec<usize> {
    const METHODS: &[&str] = &[
        "push", "collect", "to_vec", "clone", "to_owned", "to_string", "with_capacity", "reserve",
        "extend", "extend_from_slice", "insert",
    ];
    const TYPES: &[&str] = &["Vec", "Box", "String", "VecDeque", "BTreeMap", "HashMap"];
    let mut sites = Vec::new();
    for i in a..=b.min(tokens.len().saturating_sub(1)) {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| tokens[p].text.as_str());
        let next = tokens.get(i + 1).map(|n| n.text.as_str());
        let next2 = tokens.get(i + 2).map(|n| n.text.as_str());
        let hit = (prev == Some(".") && next == Some("(") && METHODS.contains(&t.text.as_str()))
            || (next == Some("!") && (t.text == "vec" || t.text == "format"))
            || (TYPES.contains(&t.text.as_str())
                && next == Some("::")
                && matches!(next2, Some("new" | "with_capacity" | "from")));
        if hit {
            sites.push(i);
        }
    }
    sites
}

/// `no-alloc-in-hot-path`: functions marked `// lint: no_alloc` must not
/// call the allocating APIs anywhere in their body (see [`alloc_sites`]).
fn no_alloc_in_hot_path(ctx: &FileFacts, em: &mut Report) {
    for (fn_name, a, b) in &ctx.no_alloc {
        for i in alloc_sites(&ctx.tokens, *a, *b) {
            let t = &ctx.tokens[i];
            em.emit(
                ctx,
                "no-alloc-in-hot-path",
                t.line,
                t.col,
                format!("`{}` allocates inside `// lint: no_alloc` fn `{}`", t.text, fn_name),
                "hot-path functions must reuse caller-owned scratch; hoist the allocation out of the loop",
            );
        }
    }
}

/// `float-exact-compare`: `==`/`!=` with a float literal (or an `as f64`
/// cast) operand in library code. Bitwise-determinism tests compare through
/// `.to_bits()` or live in test code, which is exempt.
fn float_exact_compare(ctx: &FileFacts, em: &mut Report) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        if t.kind != TokenKind::Punct || (t.text != "==" && t.text != "!=") {
            continue;
        }
        if ctx.in_test_context(t.line) {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| &ctx.tokens[p]);
        let next = ctx.tokens.get(i + 1);
        let floaty = |tok: Option<&crate::lexer::Token>| {
            tok.is_some_and(|t| {
                t.kind == TokenKind::Float
                    || (t.kind == TokenKind::Ident && (t.text == "f64" || t.text == "f32"))
            })
        };
        if floaty(prev) || floaty(next) {
            em.emit(
                ctx,
                "float-exact-compare",
                t.line,
                t.col,
                format!("exact float comparison `{}`", t.text),
                "compare against a tolerance, use .to_bits() for bitwise identity, or allow with a reason for exact sentinels",
            );
        }
    }
}

/// `panic-in-library`: `.unwrap()` / `.expect(...)` / `panic!` in non-test
/// library code must be justified by an `// INVARIANT:` comment (same line
/// or directly above) or the enclosing fn documenting `# Panics`.
fn panic_in_library(ctx: &FileFacts, em: &mut Report) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || ctx.in_test_context(t.line) {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| ctx.tokens[p].text.as_str());
        let next = ctx.tokens.get(i + 1).map(|n| n.text.as_str());
        let call = match t.text.as_str() {
            "unwrap" | "expect" if prev == Some(".") && next == Some("(") => t.text.as_str(),
            "panic" if next == Some("!") => "panic!",
            _ => continue,
        };
        let same_line = ctx.comments_on_line(t.line).any(|c| c.text.contains("INVARIANT:"));
        let above = ctx.comment_block_above(t.line);
        let fn_doc = ctx.enclosing_fn_doc(t.line);
        if same_line
            || above.contains("INVARIANT:")
            || fn_doc.contains("INVARIANT:")
            || fn_doc.contains("# Panics")
        {
            continue;
        }
        em.emit(
            ctx,
            "panic-in-library",
            t.line,
            t.col,
            format!("`{call}` in library code without a documented invariant"),
            "state why this cannot fail in an `// INVARIANT:` comment, document `# Panics` on the fn, or return an error",
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::{analyze_source, FileKind};

    fn diags(src: &str) -> Vec<(String, u32)> {
        analyze_source("mem.rs", src, FileKind::Library, true)
            .diags
            .into_iter()
            .map(|d| (d.lint.to_string(), d.line))
            .collect()
    }

    #[test]
    fn unsafe_block_flagged_and_justified() {
        assert_eq!(
            diags("fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n"),
            vec![("unsafe-needs-safety-comment".to_string(), 2)]
        );
        assert!(diags(
            "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n"
        )
        .is_empty());
    }

    #[test]
    fn unsafe_fn_with_safety_doc_passes() {
        let src = "/// Does things.\n///\n/// # Safety\n/// `p` must be valid.\npub unsafe fn f(p: *const u8) -> u8 {\n    // SAFETY: contract forwarded from the caller.\n    unsafe { *p }\n}\n";
        assert!(diags(src).is_empty(), "{:?}", diags(src));
    }

    #[test]
    fn intrinsics_need_dispatch() {
        let src = "fn f() {\n    let x = _mm256_setzero_pd();\n}\n";
        assert_eq!(diags(src), vec![("simd-needs-runtime-dispatch".to_string(), 2)]);
        let wired = "fn pick() { if is_x86_feature_detected!(\"avx2\") {} }\nfn f() {\n    let x = _mm256_setzero_pd();\n}\n";
        assert!(diags(wired).is_empty());
    }

    #[test]
    fn nondet_apis_flagged_in_numeric_crates() {
        let src = "use std::time::Instant;\nfn f() {\n    let t = Instant::now();\n}\n";
        let d = diags(src);
        assert_eq!(d.len(), 2, "{d:?}"); // the use and the call site
        assert!(d.iter().all(|(l, _)| l == "nondeterministic-api"));
    }

    #[test]
    fn elapsed_and_epoch_flagged_in_numeric_crates() {
        let src = "fn f(t0: std::time::Instant) -> f64 {\n    t0.elapsed().as_secs_f64()\n}\n";
        // line 1 flags `Instant`, line 2 flags `.elapsed()`.
        assert_eq!(
            diags(src),
            vec![("nondeterministic-api".to_string(), 1), ("nondeterministic-api".to_string(), 2)]
        );
        let epoch = "fn f(now: std::time::SystemTime) -> u64 {\n    now.duration_since(UNIX_EPOCH).unwrap_or_default().as_secs()\n}\n";
        let d = diags(epoch);
        assert_eq!(d.len(), 3, "{d:?}"); // SystemTime, duration_since, UNIX_EPOCH
        // `elapsed` as a field or plain ident is not a call site.
        assert!(diags("fn f(s: &Stats) -> u64 { s.elapsed }\n").is_empty());
    }

    #[test]
    fn nondet_not_applied_outside_numeric_crates() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        let r = crate::analyze_source("mem.rs", src, FileKind::Library, false);
        assert!(r.diags.is_empty());
    }

    #[test]
    fn no_alloc_catches_heap_calls() {
        let src = "// lint: no_alloc\nfn hot(xs: &mut Vec<f64>) {\n    xs.push(1.5);\n    let v = Vec::new();\n    let c = xs.clone();\n}\n";
        let d = diags(src);
        let lints: Vec<u32> =
            d.iter().filter(|(l, _)| l == "no-alloc-in-hot-path").map(|(_, ln)| *ln).collect();
        assert_eq!(lints, vec![3, 4, 5]);
    }

    #[test]
    fn no_alloc_clean_fn_passes() {
        let src = "// lint: no_alloc\nfn hot(xs: &mut [f64]) {\n    for x in xs.iter_mut() {\n        *x += 1.5;\n    }\n}\n";
        assert!(diags(src).is_empty(), "{:?}", diags(src));
    }

    #[test]
    fn float_compare_flagged_outside_tests() {
        let src = "fn f(x: f64) -> bool {\n    x == 0.0\n}\n";
        assert_eq!(diags(src), vec![("float-exact-compare".to_string(), 2)]);
        let test_src = "#[cfg(test)]\nmod tests {\n    fn f(x: f64) -> bool { x == 0.0 }\n}\n";
        assert!(diags(test_src).is_empty());
    }

    #[test]
    fn panic_lint_accepts_invariant_and_panics_doc() {
        let bare = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
        assert_eq!(diags(bare), vec![("panic-in-library".to_string(), 2)]);
        let invariant = "fn f(x: Option<u8>) -> u8 {\n    // INVARIANT: callers only pass Some.\n    x.unwrap()\n}\n";
        assert!(diags(invariant).is_empty());
        let panics_doc = "/// Gets it.\n///\n/// # Panics\n/// Panics when absent.\nfn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
        assert!(diags(panics_doc).is_empty());
    }

    #[test]
    fn unwrap_or_variants_not_flagged() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap_or(0)\n}\n";
        assert!(diags(src).is_empty());
    }
}
