//! Workspace symbol table: `fn` definitions and call sites.
//!
//! Built from the structural parse of every file, this is the name-level
//! layer under the call graph. Resolution is **heuristic** — there is no
//! type information, so method calls and unqualified paths resolve by name
//! with a same-file → same-crate → workspace preference chain (see
//! [`SymbolTable::resolve`] and the README's limitations section).

use crate::lexer::{Token, TokenKind};
use crate::{FileFacts, FileKind};
use std::collections::{BTreeMap, BTreeSet};

/// One `fn` definition somewhere in the workspace.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Index of the defining file in the analyzed slice.
    pub file: usize,
    /// Line of the `fn` keyword.
    pub header_line: u32,
    /// Body token index range (open brace ..= close brace), if any.
    pub body: Option<(usize, usize)>,
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// Bare `name(...)`.
    Free,
    /// Method syntax `recv.name(...)` — receiver type unknown.
    Method,
    /// Path syntax `a::b::name(...)`; carries the path segments before the
    /// callee (`["a", "b"]`).
    Path(Vec<String>),
}

/// One resolved-by-syntax call site inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name as written.
    pub callee: String,
    /// Syntax used at the call site.
    pub kind: CallKind,
    /// Token index of the callee identifier.
    pub tok: usize,
    /// 1-based line of the callee identifier.
    pub line: u32,
    /// 1-based column of the callee identifier.
    pub col: u32,
}

/// Keywords and primitives that can precede `(` without being calls.
const NON_CALLEES: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "let", "else", "in", "as", "move",
    "ref", "mut", "pub", "use", "where", "impl", "struct", "enum", "trait", "type", "const",
    "static", "unsafe", "async", "await", "dyn", "break", "continue", "crate", "super", "Self",
    "self", "true", "false",
];

/// Extracts every call site in the token range `a..=b`.
///
/// A call site is an identifier directly followed by `(`, excluding keyword
/// forms (`if (`, ...), definitions (`fn name(`), and macro invocations
/// (`name!(` never matches because `!` intervenes). Turbofish calls
/// (`collect::<T>()`) are *not* recognized — in practice those are std
/// methods, not workspace fns.
pub fn call_sites(tokens: &[Token], a: usize, b: usize) -> Vec<CallSite> {
    let mut out = Vec::new();
    for i in a..=b.min(tokens.len().saturating_sub(1)) {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident || NON_CALLEES.contains(&t.text.as_str()) {
            continue;
        }
        if tokens.get(i + 1).is_none_or(|n| n.text != "(") {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| tokens[p].text.as_str());
        if prev == Some("fn") {
            continue;
        }
        let kind = match prev {
            Some(".") => CallKind::Method,
            Some("::") => {
                // Walk the path backwards: `seg :: seg :: callee (`.
                let mut segs: Vec<String> = Vec::new();
                let mut j = i;
                while j >= 2
                    && tokens[j - 1].text == "::"
                    && tokens[j - 2].kind == TokenKind::Ident
                {
                    segs.push(tokens[j - 2].text.clone());
                    j -= 2;
                }
                segs.reverse();
                if segs.is_empty() {
                    // `<T as Trait>::name(` and friends: unknown qualifier.
                    CallKind::Free
                } else {
                    CallKind::Path(segs)
                }
            }
            _ => CallKind::Free,
        };
        out.push(CallSite { callee: t.text.clone(), kind, tok: i, line: t.line, col: t.col });
    }
    out
}

/// Name-indexed table of every non-test `fn` definition in the workspace.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// All definitions, in (file, source) order.
    pub defs: Vec<FnDef>,
    /// Name -> indices into `defs`.
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// Crate path identifiers present in the analyzed set (`da_core`, ...).
    crate_idents: BTreeSet<String>,
}

/// Path identifier a crate directory name is imported under
/// (`core` -> `da_core`, `-` -> `_`).
fn crate_path_ident(crate_name: &str) -> String {
    match crate_name {
        "core" => "da_core".to_string(),
        other => other.replace('-', "_"),
    }
}

/// Resolution fan-out cap: a workspace-wide name match this ambiguous is
/// dropped rather than over-linking the graph.
const MAX_GLOBAL_CANDIDATES: usize = 4;

/// Ubiquitous std/trait method names. A `.name(` call with one of these
/// names almost certainly targets a std container/iterator/atomic, not a
/// workspace fn that happens to share the name — resolving them by name
/// alone links the graph to essentially everything (`.load()` →
/// some crate's `fn load`, `.collect()` → `FileFacts::collect`, ...).
const STD_METHODS: &[&str] = &[
    "abs", "add", "all", "and_then", "any", "as_bytes", "as_mut", "as_ref", "as_slice", "bytes",
    "chain", "chars", "chunks", "chunks_exact", "chunks_mut", "clear", "clone", "cmp", "collect",
    "contains", "contains_key", "copy_from_slice", "count", "default", "div", "drain", "enumerate",
    "eq", "expect", "extend", "extend_from_slice", "fill", "filter", "find", "first", "flat_map",
    "fmt", "fold", "for_each", "from", "get", "get_mut", "get_or_init", "hash", "insert", "into",
    "into_iter", "is_empty", "iter", "iter_mut", "join", "last", "len", "load", "lock", "map",
    "max", "min", "mul", "neg", "next", "pop", "position", "powf", "powi", "product", "push",
    "push_str", "read", "remove", "replace", "resize", "rev", "skip", "sort", "sort_by",
    "sort_unstable", "split", "sqrt", "store", "sub", "sum", "swap", "take", "to_owned",
    "to_string", "to_vec", "truncate", "unwrap", "windows", "write", "zip",
];

impl SymbolTable {
    /// Builds the table over every Library/Bin file, skipping fns inside
    /// `#[cfg(test)]` regions, bodiless declarations, and `_`-named items.
    pub fn build(files: &[FileFacts]) -> SymbolTable {
        let mut table = SymbolTable::default();
        for (fi, f) in files.iter().enumerate() {
            table.crate_idents.insert(crate_path_ident(&f.scope.crate_name));
            if !matches!(f.kind, FileKind::Library | FileKind::Bin) {
                continue;
            }
            for item in &f.structure.fns {
                if item.name == "_"
                    || item.body_tokens.is_none()
                    || f.structure.in_test_region(item.header_line)
                {
                    continue;
                }
                let idx = table.defs.len();
                table.defs.push(FnDef {
                    name: item.name.clone(),
                    file: fi,
                    header_line: item.header_line,
                    body: item.body_tokens,
                });
                table.by_name.entry(item.name.clone()).or_default().push(idx);
            }
        }
        table
    }

    /// Candidate definitions for `site`, observed from `from_file`.
    ///
    /// Heuristics, in order:
    /// 1. A path whose first segment names a workspace crate restricts to
    ///    that crate. A capitalized qualifier (`Vec::new`, `Tensor::zeros`)
    ///    is a type-associated call with an unknown type — never resolved
    ///    (documented limitation). Other lowercase qualifiers (`rng::seeded`)
    ///    are module paths, resolved within the caller's crate.
    /// 2. Method calls (`recv.name(`): ubiquitous std names
    ///    ([`STD_METHODS`]) never resolve; the rest resolve same-file then
    ///    same-crate only — receiver types are unknown, so cross-crate
    ///    method edges would over-link the graph.
    /// 3. Free calls: a callee that names a parameter or `let` binding of
    ///    the enclosing fn is a closure or fn pointer and never resolves;
    ///    the rest resolve same-file, then same-crate, then the whole
    ///    workspace — but only when the name is rare
    ///    (≤ [`MAX_GLOBAL_CANDIDATES`] matches); common names are dropped to
    ///    avoid over-linking.
    pub fn resolve(&self, files: &[FileFacts], from_file: usize, site: &CallSite) -> Vec<usize> {
        let Some(cands) = self.by_name.get(&site.callee) else {
            return Vec::new();
        };
        if site.kind == CallKind::Free && bound_locally(&files[from_file], site.tok, &site.callee) {
            return Vec::new();
        }
        let mut global_ok = true;
        match &site.kind {
            CallKind::Path(segs) => {
                // INVARIANT: CallKind::Path always carries ≥ 1 segment.
                let first = segs.first().unwrap();
                if self.crate_idents.contains(first) {
                    return cands
                        .iter()
                        .copied()
                        .filter(|&d| {
                            crate_path_ident(&files[self.defs[d].file].scope.crate_name) == *first
                        })
                        .collect();
                }
                if first.starts_with(|c: char| c.is_ascii_uppercase()) {
                    return Vec::new();
                }
                global_ok = false;
            }
            CallKind::Method => {
                if STD_METHODS.contains(&site.callee.as_str()) {
                    return Vec::new();
                }
                global_ok = false;
            }
            CallKind::Free => {}
        }
        let same_file: Vec<usize> =
            cands.iter().copied().filter(|&d| self.defs[d].file == from_file).collect();
        if !same_file.is_empty() {
            return same_file;
        }
        let from_crate = &files[from_file].scope.crate_name;
        let same_crate: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&d| &files[self.defs[d].file].scope.crate_name == from_crate)
            .collect();
        if !same_crate.is_empty() {
            return same_crate;
        }
        if global_ok && cands.len() <= MAX_GLOBAL_CANDIDATES {
            cands.clone()
        } else {
            Vec::new()
        }
    }
}

/// True when `name` is a parameter or `let` binding of the innermost fn
/// whose body holds token `tok`.
fn bound_locally(f: &FileFacts, tok: usize, name: &str) -> bool {
    let enclosing = f.structure.fns.iter().filter_map(|item| match item.body_tokens {
        Some((open, close)) if open < tok && tok <= close => Some((item.kw_idx, open, close)),
        _ => None,
    });
    let Some((kw, open, close)) = enclosing.max_by_key(|&(kw, _, _)| kw) else {
        return false;
    };
    let t = &f.tokens;
    let param = (kw..open).any(|i| t[i].text == name && t.get(i + 1).is_some_and(|n| n.text == ":"));
    let local = (open..close).any(|i| {
        t[i].text == "let" && {
            let k = if t[i + 1].text == "mut" { i + 2 } else { i + 1 };
            t[k].text == name
        }
    });
    param || local
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FileFacts, FileKind, Scope};

    fn facts(rel: &str, crate_name: &str, src: &str) -> FileFacts {
        FileFacts::collect(rel, src, FileKind::Library, Scope::for_crate(crate_name))
    }

    #[test]
    fn extracts_free_method_and_path_calls() {
        let f = facts("a.rs", "ensf", "fn f() {\n    helper();\n    x.step(1);\n    stats::rng::seeded(7);\n    let v = Vec::new();\n}\n");
        let sites = call_sites(&f.tokens, 0, f.tokens.len() - 1);
        let names: Vec<(&str, &CallKind)> =
            sites.iter().map(|s| (s.callee.as_str(), &s.kind)).collect();
        assert!(names.contains(&("helper", &CallKind::Free)));
        assert!(names.contains(&("step", &CallKind::Method)));
        assert!(sites.iter().any(|s| s.callee == "seeded"
            && s.kind == CallKind::Path(vec!["stats".into(), "rng".into()])));
        assert!(sites
            .iter()
            .any(|s| s.callee == "new" && s.kind == CallKind::Path(vec!["Vec".into()])));
        // `fn f(` is a definition, not a call.
        assert!(!sites.iter().any(|s| s.callee == "f"));
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let f = facts("a.rs", "ensf", "fn f(x: bool) {\n    if (x) {}\n    println!(\"hi\");\n    for i in (0..3) {}\n}\n");
        let sites = call_sites(&f.tokens, 0, f.tokens.len() - 1);
        assert!(sites.is_empty(), "{sites:?}");
    }

    #[test]
    fn table_skips_test_fns_and_declarations() {
        let f = facts(
            "a.rs",
            "ensf",
            "fn lib() {}\nfn decl();\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n",
        );
        let files = vec![f];
        let table = SymbolTable::build(&files);
        let names: Vec<&str> = table.defs.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["lib"]);
    }

    #[test]
    fn resolution_prefers_same_file_then_same_crate() {
        let files = vec![
            facts("crates/ensf/src/a.rs", "ensf", "fn work() { helper(); }\nfn helper() {}\n"),
            facts("crates/ensf/src/b.rs", "ensf", "fn helper() {}\n"),
            facts("crates/sqg/src/c.rs", "sqg", "fn helper() {}\nfn caller() { helper(); }\n"),
        ];
        let table = SymbolTable::build(&files);
        let site = CallSite {
            callee: "helper".into(),
            kind: CallKind::Free,
            tok: 0,
            line: 1,
            col: 1,
        };
        let r = table.resolve(&files, 0, &site);
        assert_eq!(r.len(), 1);
        assert_eq!(table.defs[r[0]].file, 0, "same-file candidate wins");
        // From a file with no same-file match but a same-crate one.
        let files2 = vec![
            facts("crates/ensf/src/a.rs", "ensf", "fn work() { helper(); }\n"),
            facts("crates/ensf/src/b.rs", "ensf", "fn helper() {}\n"),
            facts("crates/sqg/src/c.rs", "sqg", "fn helper() {}\n"),
        ];
        let table2 = SymbolTable::build(&files2);
        let r2 = table2.resolve(&files2, 0, &site);
        assert_eq!(r2.len(), 1);
        assert_eq!(table2.defs[r2[0]].file, 1, "same-crate candidate wins");
    }

    #[test]
    fn crate_qualified_path_restricts_to_that_crate() {
        let files = vec![
            facts("crates/dist/src/a.rs", "dist", "fn work() { ensf::helper(); }\n"),
            facts("crates/ensf/src/b.rs", "ensf", "pub fn helper() {}\n"),
            facts("crates/sqg/src/c.rs", "sqg", "pub fn helper() {}\n"),
        ];
        let table = SymbolTable::build(&files);
        let site = CallSite {
            callee: "helper".into(),
            kind: CallKind::Path(vec!["ensf".into()]),
            tok: 0,
            line: 1,
            col: 1,
        };
        let r = table.resolve(&files, 0, &site);
        assert_eq!(r.len(), 1);
        assert_eq!(table.defs[r[0]].file, 1);
    }

    #[test]
    fn ambiguous_global_names_are_dropped() {
        let srcs: Vec<FileFacts> = (0..6)
            .map(|i| {
                facts(
                    &format!("crates/c{i}/src/lib.rs"),
                    &format!("c{i}"),
                    "pub fn new() {}\n",
                )
            })
            .chain(std::iter::once(facts(
                "crates/dist/src/a.rs",
                "dist",
                "fn work() { new(); }\n",
            )))
            .collect();
        let table = SymbolTable::build(&srcs);
        let site =
            CallSite { callee: "new".into(), kind: CallKind::Free, tok: 0, line: 1, col: 1 };
        assert!(table.resolve(&srcs, 6, &site).is_empty(), "6 global candidates > cap");
    }

    #[test]
    fn type_associated_and_std_method_calls_never_resolve() {
        let files = vec![
            facts("crates/dist/src/a.rs", "dist", "fn work(x: &V) { V::new(); x.load(); }\n"),
            facts("crates/ensf/src/b.rs", "ensf", "pub fn new() {}\npub fn load() {}\n"),
        ];
        let table = SymbolTable::build(&files);
        let sites = call_sites(&files[0].tokens, 0, files[0].tokens.len() - 1);
        let new_site = sites.iter().find(|s| s.callee == "new").unwrap();
        assert_eq!(new_site.kind, CallKind::Path(vec!["V".into()]));
        assert!(table.resolve(&files, 0, new_site).is_empty(), "type-qualified call");
        let load_site = sites.iter().find(|s| s.callee == "load").unwrap();
        assert_eq!(load_site.kind, CallKind::Method);
        assert!(table.resolve(&files, 0, load_site).is_empty(), "std method name");
    }

    #[test]
    fn distinctive_method_names_resolve_within_crate_only() {
        let files = vec![
            facts("crates/sqg/src/a.rs", "sqg", "fn work(s: &State) { s.tendency_into(); }\n"),
            facts("crates/sqg/src/b.rs", "sqg", "pub fn tendency_into() {}\n"),
            facts("crates/ensf/src/c.rs", "ensf", "pub fn tendency_into() {}\n"),
        ];
        let table = SymbolTable::build(&files);
        let sites = call_sites(&files[0].tokens, 0, files[0].tokens.len() - 1);
        let site = sites.iter().find(|s| s.callee == "tendency_into").unwrap();
        let r = table.resolve(&files, 0, site);
        assert_eq!(r.len(), 1, "same-crate only");
        assert_eq!(table.defs[r[0]].file, 1);
        // The same name called from a crate with no local def: no global
        // fallback for methods.
        let files2 = vec![
            facts("crates/dist/src/d.rs", "dist", "fn work(s: &State) { s.tendency_into(); }\n"),
            facts("crates/sqg/src/b.rs", "sqg", "pub fn tendency_into() {}\n"),
            facts("crates/ensf/src/c.rs", "ensf", "pub fn tendency_into() {}\n"),
        ];
        let table2 = SymbolTable::build(&files2);
        let sites2 = call_sites(&files2[0].tokens, 0, files2[0].tokens.len() - 1);
        let site2 = sites2.iter().find(|s| s.callee == "tendency_into").unwrap();
        assert!(table2.resolve(&files2, 0, site2).is_empty());
    }

    #[test]
    fn calls_through_parameters_and_locals_never_resolve() {
        let files = vec![
            facts(
                "crates/linalg/src/simd.rs",
                "linalg",
                "pub fn g(f: impl Fn()) {\n    f();\n}\npub fn h() {\n    let f = || ();\n    f();\n}\n",
            ),
            FileFacts::collect(
                "crates/bench/src/bin/probe.rs",
                "fn f() {\n    let v = vec![0u8; 8];\n    drop(v);\n}\n",
                FileKind::Bin,
                Scope::for_crate("bench"),
            ),
        ];
        let table = SymbolTable::build(&files);
        let graph = crate::callgraph::CallGraph::build(&files, &table);
        for name in ["g", "h"] {
            let def = table.by_name[name][0];
            assert!(graph.edges[def].is_empty(), "`{name}` linked to the bin's `f`");
        }
    }

    #[test]
    fn core_maps_to_da_core_path_ident() {
        assert_eq!(crate_path_ident("core"), "da_core");
        assert_eq!(crate_path_ident("da-core"), "da_core");
        assert_eq!(crate_path_ident("ensf"), "ensf");
    }
}
