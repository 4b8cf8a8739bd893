//! Workspace passes: the interprocedural lints built on the call graph.
//!
//! Four passes run over every file's [`FileFacts`] at once:
//!
//! * [`no_alloc_reachable`] — propagates `// lint: no_alloc` transitively:
//!   nothing reachable from a marked fn may allocate, even across files and
//!   crates.
//! * [`collective_protocol`] — in `dist`/`hpc`, no collective (direct or
//!   via a callee that performs one) may sit inside a rank-dependent
//!   branch — that is the classic divergence/deadlock shape.
//! * [`determinism_dataflow`] — `HashMap`/`HashSet` iteration feeding float
//!   accumulation (fold-order nondeterminism) and raw RNG construction in
//!   `dist`/`ensf` that bypasses the per-(particle,tile) stream API.
//! * [`dead_pub`] — a `pub fn` in library code that no other file of the
//!   tree mentions.
//!
//! Findings land at the offending site and honor that file's `allow(...)`
//! directives, exactly like the per-file lints.

use crate::callgraph::CallGraph;
use crate::lexer::{Token, TokenKind};
use crate::lints::alloc_sites;
use crate::parse::{body_block, match_close};
use crate::rules::under;
use crate::symbols::{call_sites, SymbolTable};
use crate::{FileFacts, FileKind, Report};
use std::collections::{BTreeMap, BTreeSet};

/// Runs every workspace pass over the collected facts.
pub fn run(files: &[FileFacts]) -> Report {
    let table = SymbolTable::build(files);
    let graph = CallGraph::build(files, &table);
    let mut report = Report::default();
    no_alloc_reachable(files, &table, &graph, &mut report);
    collective_protocol(files, &table, &graph, &mut report);
    determinism_dataflow(files, &mut report);
    dead_pub(files, &mut report);
    report.sorted()
}

/// `no-alloc-reachable`: BFS from every `// lint: no_alloc` fn; any
/// allocating call in a reachable (but not itself marked) fn is flagged,
/// with one shortest call chain as evidence. Direct allocations in marked
/// fns stay the per-file `no-alloc-in-hot-path` lint's job.
fn no_alloc_reachable(
    files: &[FileFacts],
    table: &SymbolTable,
    graph: &CallGraph,
    report: &mut Report,
) {
    // Map each no_alloc marker to its definition via (file, body-open token).
    let mut def_by_body: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for (di, def) in table.defs.iter().enumerate() {
        if let Some((open, _)) = def.body {
            def_by_body.insert((def.file, open), di);
        }
    }
    let mut roots: Vec<usize> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        for (_, open, _) in &f.no_alloc {
            if let Some(&d) = def_by_body.get(&(fi, *open)) {
                roots.push(d);
            }
        }
    }
    roots.sort_unstable();
    roots.dedup();
    let marked: BTreeSet<usize> = roots.iter().copied().collect();

    let reached = graph.reachable(&roots);
    for &def in reached.keys() {
        if marked.contains(&def) {
            continue;
        }
        let d = &table.defs[def];
        let f = &files[d.file];
        // INVARIANT: the symbol table only admits bodied fns.
        let (a, b) = d.body.unwrap();
        let chain = graph.chain(table, &reached, def).join(" -> ");
        for tok in alloc_sites(&f.tokens, a, b) {
            let t = &f.tokens[tok];
            report.emit(
                f,
                "no-alloc-reachable",
                t.line,
                t.col,
                format!(
                    "`{}` allocates in `{}`, which is reachable from `// lint: no_alloc` hot path `{}`",
                    t.text, d.name, chain
                ),
                "hoist the allocation to the caller, take caller-owned scratch, or allow here with a reason",
            );
        }
    }
}

/// Collective method names on `hpc::mpi::Comm`: the two allgathers and the
/// gather and broadcast they are built from.
const COLLECTIVES: &[&str] = &["try_gather", "try_broadcast", "try_allgather", "try_allgather_concat"];

/// Identifiers that make a branch condition rank-dependent.
const RANK_IDENTS: &[&str] = &["rank", "world_rank", "is_root"];

/// True when token `i` is a `.name(` method call with `name` in `set`.
fn is_method_call(tokens: &[Token], i: usize, set: &[&str]) -> bool {
    tokens[i].kind == TokenKind::Ident
        && set.contains(&tokens[i].text.as_str())
        && i >= 1
        && tokens[i - 1].text == "."
        && tokens.get(i + 1).is_some_and(|n| n.text == "(")
}

/// `collective-protocol` over `dist`/`hpc` library code: no collective —
/// called directly or through any fn that transitively performs one — may
/// sit inside an `if`/`while` whose condition is rank-dependent: if only
/// some ranks reach a collective, the others deadlock in it.
fn collective_protocol(
    files: &[FileFacts],
    table: &SymbolTable,
    graph: &CallGraph,
    report: &mut Report,
) {
    // Fixpoint: does a fn (transitively) perform a collective?
    let mut performs: Vec<bool> = table
        .defs
        .iter()
        .map(|d| {
            // INVARIANT: the symbol table only admits bodied fns.
            let (a, b) = d.body.unwrap();
            (a..=b).any(|i| is_method_call(&files[d.file].tokens, i, COLLECTIVES))
        })
        .collect();
    loop {
        let mut changed = false;
        for di in 0..table.defs.len() {
            if !performs[di] && graph.edges[di].iter().any(|e| performs[e.to]) {
                performs[di] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    for (fi, f) in files.iter().enumerate() {
        if !f.scope.comm {
            continue;
        }
        for i in 0..f.tokens.len() {
            let t = &f.tokens[i];
            if t.kind != TokenKind::Ident
                || (t.text != "if" && t.text != "while")
                || f.in_test_context(t.line)
            {
                continue;
            }
            let Some((open, close)) = body_block(&f.tokens, &f.structure.brace_pair, i) else {
                continue;
            };
            let cond_rank_dep = f.tokens[i + 1..open].iter().any(|c| {
                c.kind == TokenKind::Ident && RANK_IDENTS.contains(&c.text.as_str())
            });
            if !cond_rank_dep {
                continue;
            }
            let mut ranges = vec![(open, close)];
            // A plain `else { ... }` block is guarded by the same condition;
            // `else if` chains are caught by their own `if` scan.
            if f.tokens.get(close + 1).is_some_and(|n| n.text == "else")
                && f.tokens.get(close + 2).is_some_and(|n| n.text == "{")
            {
                if let Some(&else_close) = f.structure.brace_pair.get(&(close + 2)) {
                    ranges.push((close + 2, else_close));
                }
            }
            for (a, b) in ranges {
                for j in a..=b {
                    if is_method_call(&f.tokens, j, COLLECTIVES) {
                        let c = &f.tokens[j];
                        report.emit(
                            f,
                            "collective-protocol",
                            c.line,
                            c.col,
                            format!(
                                "collective `.{}()` inside a rank-dependent branch: ranks that skip it deadlock the others",
                                c.text
                            ),
                            "restructure so every rank reaches the same collective sequence; root-only work belongs after the collective returns",
                        );
                    }
                }
                for site in call_sites(&f.tokens, a, b) {
                    let targets = table.resolve(files, fi, &site);
                    if targets.iter().any(|&d| performs[d]) {
                        report.emit(
                            f,
                            "collective-protocol",
                            site.line,
                            site.col,
                            format!(
                                "`{}` performs collectives and is called inside a rank-dependent branch",
                                site.callee
                            ),
                            "restructure so every rank reaches the same collective sequence; root-only work belongs after the collective returns",
                        );
                    }
                }
            }
        }
    }
}

/// `dead-pub`: a `pub fn` (free or inherent method) in library code —
/// `crates/*/src/`, shims excluded — whose name no other file of the tree
/// mentions as an identifier. Tokens of a `use` statement are not a
/// mention; any other occurrence is, whatever it resolves to, so the pass
/// errs towards silence.
fn dead_pub(files: &[FileFacts], report: &mut Report) {
    let mut mentioned_in: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        let mut in_use = false;
        for t in &f.tokens {
            if t.kind == TokenKind::Ident {
                if t.text == "use" {
                    in_use = true;
                } else if !in_use {
                    mentioned_in.entry(&t.text).or_default().insert(fi);
                }
            } else if t.text == ";" {
                in_use = false;
            }
        }
    }
    for (fi, f) in files.iter().enumerate() {
        if f.kind != FileKind::Library
            || !under(&f.rel, "crates/*/src/")
            || under(&f.rel, "crates/shims/")
        {
            continue;
        }
        for item in &f.structure.fns {
            if !is_pub(&f.tokens, item.kw_idx) || f.structure.in_test_region(item.header_line) {
                continue;
            }
            let files_naming = mentioned_in.get(item.name.as_str());
            if files_naming.is_some_and(|s| s.iter().any(|&other| other != fi)) {
                continue;
            }
            let t = &f.tokens[item.kw_idx + 1];
            report.emit(
                f,
                "dead-pub",
                t.line,
                t.col,
                format!("`pub fn {}` is named by no other file of the tree", item.name),
                "delete it, make it private, or keep it with an allow naming the tests that use it",
            );
        }
    }
}

/// True when the `fn` keyword at `kw` is declared plain `pub`
/// (`pub(crate)` and narrower are not public API).
fn is_pub(tokens: &[Token], kw: usize) -> bool {
    for t in tokens[..kw].iter().rev() {
        match t.text.as_str() {
            "const" | "async" | "unsafe" | "extern" => {}
            _ if t.kind == TokenKind::Str => {}
            "pub" => return t.kind == TokenKind::Ident,
            _ => return false,
        }
    }
    false
}

/// Hash-container iteration entry points.
const ITER_METHODS: &[&str] =
    &["iter", "iter_mut", "into_iter", "keys", "values", "values_mut", "drain"];

/// Chained accumulators whose result depends on iteration order for floats.
const ACCUM_METHODS: &[&str] = &["sum", "fold", "product"];

/// Raw RNG constructors that bypass the seeded stream API.
const RNG_CONSTRUCTORS: &[&str] = &[
    "seed_from_u64",
    "from_seed",
    "from_rng",
    "from_os_rng",
    "from_entropy",
    "thread_rng",
    // The `rand` shim's raw-state constructor: only `stats` may rebuild a
    // particle stream from its state words.
    "from_state",
];

/// Seed-derivation fns that make a `seeded(...)` call stream-disciplined.
const STREAM_DERIVERS: &[&str] = &["split_seed", "member_rng"];

/// Determinism dataflow: `hash-float-fold` and `rng-stream-discipline`.
fn determinism_dataflow(files: &[FileFacts], report: &mut Report) {
    for f in files {
        if f.scope.hash_order {
            hash_float_fold(f, report);
        }
        if f.scope.rng_strict {
            rng_stream_discipline(f, report);
        }
    }
}

/// True when `a..=b` contains float evidence: a float literal or `f64`/`f32`.
fn has_float_evidence(tokens: &[Token], a: usize, b: usize) -> bool {
    tokens[a..=b.min(tokens.len() - 1)].iter().any(|t| {
        t.kind == TokenKind::Float
            || (t.kind == TokenKind::Ident && (t.text == "f64" || t.text == "f32"))
    })
}

/// `hash-float-fold`: iteration over a `HashMap`/`HashSet`-typed local or
/// parameter that feeds float accumulation (`.sum()`/`.fold()`/`.product()`
/// chains, or `+=`/`*=` inside a `for` body). Per-process hash seeding makes
/// the fold order — and therefore the float rounding — nondeterministic.
///
/// Binding detection is lexical: `let` statements and fn parameters whose
/// type/initializer mentions `HashMap`/`HashSet`. Float evidence is searched
/// over the enclosing fn (signature + body), so integer-only counters don't
/// trip the lint.
fn hash_float_fold(f: &FileFacts, report: &mut Report) {
    const HELP: &str = "iterate a BTreeMap/BTreeSet or sort keys first; hash order changes per process and reorders the float fold";
    for item in &f.structure.fns {
        let Some((a, b)) = item.body_tokens else { continue };
        if f.in_test_context(item.header_line) {
            continue;
        }
        let sig_start = item.kw_idx;
        let float_fn = has_float_evidence(&f.tokens, sig_start, b);
        if !float_fn {
            continue;
        }
        let hash_names = hash_bindings(&f.tokens, sig_start, a, b);
        if hash_names.is_empty() {
            continue;
        }

        // `.iter()/.values()/...` chains ending in sum/fold/product.
        for i in a..=b {
            let t = &f.tokens[i];
            if t.kind != TokenKind::Ident || !hash_names.contains(&t.text) {
                continue;
            }
            if !(f.tokens.get(i + 1).is_some_and(|n| n.text == ".")
                && f.tokens.get(i + 2).is_some_and(|n| {
                    n.kind == TokenKind::Ident && ITER_METHODS.contains(&n.text.as_str())
                })
                && f.tokens.get(i + 3).is_some_and(|n| n.text == "("))
            {
                continue;
            }
            let mut close = match_close(&f.tokens, i + 3);
            // Walk the method chain looking for an accumulator.
            while f.tokens.get(close + 1).is_some_and(|n| n.text == ".")
                && f.tokens.get(close + 2).is_some_and(|n| n.kind == TokenKind::Ident)
            {
                let m = &f.tokens[close + 2];
                // Skip past an optional `::<T>` turbofish to the call parens.
                let mut k = close + 3;
                while k < f.tokens.len() && k < close + 12 && f.tokens[k].text != "(" {
                    k += 1;
                }
                if f.tokens.get(k).is_none_or(|n| n.text != "(") {
                    break;
                }
                let call_close = match_close(&f.tokens, k);
                if ACCUM_METHODS.contains(&m.text.as_str()) {
                    report.emit(
                        f,
                        "hash-float-fold",
                        m.line,
                        m.col,
                        format!(
                            "`.{}()` folds floats in hash-iteration order of `{}`",
                            m.text, t.text
                        ),
                        HELP,
                    );
                    break;
                }
                close = call_close;
            }
        }

        // `for _ in &map { acc += ... }` loops.
        for i in a..=b {
            let t = &f.tokens[i];
            if t.kind != TokenKind::Ident || t.text != "for" {
                continue;
            }
            let Some((open, close)) = body_block(&f.tokens, &f.structure.brace_pair, i) else {
                continue;
            };
            let Some(in_idx) =
                (i..open).find(|&k| f.tokens[k].kind == TokenKind::Ident && f.tokens[k].text == "in")
            else {
                continue;
            };
            let iterates_hash = f.tokens[in_idx + 1..open]
                .iter()
                .any(|c| c.kind == TokenKind::Ident && hash_names.contains(&c.text));
            if !iterates_hash {
                continue;
            }
            for j in open..=close {
                let bt = &f.tokens[j];
                if bt.kind == TokenKind::Punct && (bt.text == "+=" || bt.text == "*=") {
                    report.emit(
                        f,
                        "hash-float-fold",
                        bt.line,
                        bt.col,
                        format!("`{}` accumulates in hash-iteration order of the loop over a HashMap/HashSet", bt.text),
                        HELP,
                    );
                }
            }
        }
    }
}

/// Identifiers bound to `HashMap`/`HashSet` values in a fn: parameters
/// (signature range `sig..open`) and `let` bindings (body `open..=close`).
fn hash_bindings(tokens: &[Token], sig: usize, open: usize, close: usize) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let is_hash =
        |t: &Token| t.kind == TokenKind::Ident && (t.text == "HashMap" || t.text == "HashSet");
    // Parameters: `name: ... HashMap ...` — walk back from the type to the
    // nearest `:` and take the ident before it.
    for j in sig..open {
        if !is_hash(&tokens[j]) {
            continue;
        }
        for k in (sig..j).rev() {
            if tokens[k].text == ":" && k >= 1 && tokens[k - 1].kind == TokenKind::Ident {
                names.insert(tokens[k - 1].text.clone());
                break;
            }
            if tokens[k].text == "," || tokens[k].text == "(" {
                break;
            }
        }
    }
    // Lets: `let [mut] name ... = ... HashMap ... ;` at statement level.
    let mut i = open;
    while i <= close.min(tokens.len().saturating_sub(1)) {
        if tokens[i].kind == TokenKind::Ident && tokens[i].text == "let" {
            let mut n = i + 1;
            if tokens.get(n).is_some_and(|t| t.text == "mut") {
                n += 1;
            }
            if let Some(name_tok) = tokens.get(n).filter(|t| t.kind == TokenKind::Ident) {
                // Statement extent: to the first `;` at neutral depth.
                let mut depth = 0i32;
                let mut j = n;
                let mut mentions_hash = false;
                while j <= close {
                    let tj = &tokens[j];
                    if is_hash(tj) {
                        mentions_hash = true;
                    }
                    if tj.kind == TokenKind::Punct {
                        match tj.text.as_str() {
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => depth -= 1,
                            ";" if depth == 0 => break,
                            _ => {}
                        }
                    }
                    j += 1;
                }
                if mentions_hash {
                    names.insert(name_tok.text.clone());
                }
                i = j;
                continue;
            }
        }
        i += 1;
    }
    names
}

/// `rng-stream-discipline`: in `dist`/`ensf` library code, RNGs must come
/// from the seeded per-particle stream API. Raw constructors
/// (`StdRng::seed_from_u64`, `from_entropy`, `thread_rng`, ...) and
/// `seeded(...)` calls whose seed is not derived through
/// `split_seed`/`member_rng` are flagged: a raw or shared stream
/// either breaks run-to-run reproducibility or correlates particles.
fn rng_stream_discipline(f: &FileFacts, report: &mut Report) {
    for i in 0..f.tokens.len() {
        let t = &f.tokens[i];
        if t.kind != TokenKind::Ident || f.in_test_context(t.line) {
            continue;
        }
        if RNG_CONSTRUCTORS.contains(&t.text.as_str())
            && f.tokens.get(i + 1).is_some_and(|n| n.text == "(")
        {
            report.emit(
                f,
                "rng-stream-discipline",
                t.line,
                t.col,
                format!("raw RNG construction `{}` bypasses the seeded stream API", t.text),
                "derive streams with stats::rng::{member_rng, split_seed + seeded} so every particle's draws depend on its global index alone",
            );
            continue;
        }
        if t.text == "seeded" && f.tokens.get(i + 1).is_some_and(|n| n.text == "(") {
            // Skip the definition site `fn seeded(` (stats isn't in scope
            // anyway) and calls whose argument derives a child stream.
            if i >= 1 && f.tokens[i - 1].text == "fn" {
                continue;
            }
            let close = match_close(&f.tokens, i + 1);
            let derived = f.tokens[i + 1..=close].iter().any(|a| {
                a.kind == TokenKind::Ident && STREAM_DERIVERS.contains(&a.text.as_str())
            });
            if !derived {
                report.emit(
                    f,
                    "rng-stream-discipline",
                    t.line,
                    t.col,
                    "`seeded(...)` without a derived child seed shares one stream across particles/tiles".to_string(),
                    "derive the seed with split_seed(parent, stream) (or use member_rng) so streams stay decorrelated and rank-layout invariant",
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FileFacts, FileKind, Scope};

    fn facts(rel: &str, crate_name: &str, src: &str) -> FileFacts {
        FileFacts::collect(rel, src, FileKind::Library, Scope::for_crate(crate_name))
    }

    fn lints_of(files: &[FileFacts]) -> Vec<(String, String, u32)> {
        run(files)
            .diags
            .into_iter()
            .map(|d| (d.lint.to_string(), d.file, d.line))
            .collect()
    }

    #[test]
    fn reachable_alloc_across_files_is_flagged() {
        let files = vec![
            facts(
                "crates/ensf/src/hot.rs",
                "ensf",
                "// lint: no_alloc\nfn hot(out: &mut [f64]) {\n    helper(out);\n}\n",
            ),
            facts(
                "crates/ensf/src/util.rs",
                "ensf",
                "pub fn helper(out: &mut [f64]) {\n    let v: Vec<f64> = Vec::new();\n    let _ = v;\n    let _ = out;\n}\n",
            ),
        ];
        let found = lints_of(&files);
        assert_eq!(
            found,
            vec![("no-alloc-reachable".into(), "crates/ensf/src/util.rs".into(), 2)]
        );
    }

    #[test]
    fn chain_is_reported_through_intermediate_fns() {
        let files = vec![facts(
            "crates/sqg/src/a.rs",
            "sqg",
            "// lint: no_alloc\nfn hot() { mid(); }\nfn mid() { leaf(); }\nfn leaf() { let s = String::new(); let _ = s; }\n",
        )];
        let r = run(&files);
        assert_eq!(r.diags.len(), 1);
        assert!(
            r.diags[0].message.contains("hot -> mid -> leaf"),
            "chain missing: {}",
            r.diags[0].message
        );
    }

    #[test]
    fn marked_fn_direct_allocs_stay_per_file_lint() {
        // The workspace pass must not duplicate no-alloc-in-hot-path.
        let files = vec![facts(
            "crates/ensf/src/hot.rs",
            "ensf",
            "// lint: no_alloc\nfn hot() {\n    let v = Vec::new();\n    let _: Vec<f64> = v;\n}\n",
        )];
        let found = lints_of(&files);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn allow_at_the_allocating_site_suppresses() {
        let files = vec![
            facts(
                "crates/ensf/src/hot.rs",
                "ensf",
                "// lint: no_alloc\nfn hot() { helper(); }\n",
            ),
            facts(
                "crates/ensf/src/util.rs",
                "ensf",
                "pub fn helper() {\n    let v = Vec::new(); // lint: allow(no-alloc-reachable, reason=\"one-time warmup, not on the per-step path\")\n    let _: Vec<f64> = v;\n}\n",
            ),
        ];
        let r = run(&files);
        assert!(r.diags.is_empty(), "{:?}", r.diags);
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn unguarded_collective_is_clean() {
        let files = vec![facts(
            "crates/dist/src/a.rs",
            "dist",
            "fn f(comm: &Comm, x: &[f64]) -> Result<Vec<f64>, MpiError> {\n    comm.try_allgather_concat(x)\n}\n",
        )];
        assert!(lints_of(&files).is_empty());
    }

    #[test]
    fn rank_guarded_collective_is_flagged_in_comm_crates_only() {
        let src = "fn f(comm: &Comm, rank: usize, x: &[f64]) {\n    if rank == 0 {\n        let _ = comm.try_allgather(x);\n    }\n}\n";
        let found = lints_of(&[facts("crates/dist/src/a.rs", "dist", src)]);
        assert_eq!(found, vec![("collective-protocol".into(), "crates/dist/src/a.rs".into(), 3)]);
        assert!(lints_of(&[facts("crates/telemetry/src/a.rs", "telemetry", src)]).is_empty());
    }

    #[test]
    fn rank_guarded_else_branch_is_flagged() {
        let files = vec![facts(
            "crates/dist/src/a.rs",
            "dist",
            "fn f(comm: &Comm, rank: usize, x: &[f64]) {\n    if rank == 0 {\n        let _ = 1;\n    } else {\n        let _ = comm.try_allgather(x);\n    }\n}\n",
        )];
        let found = lints_of(&files);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].2, 5);
    }

    #[test]
    fn rank_guarded_call_into_collective_helper_is_flagged() {
        let files = vec![facts(
            "crates/dist/src/a.rs",
            "dist",
            "fn sync(comm: &Comm, x: &[f64]) {\n    let _ = comm.try_allgather_concat(x);\n}\nfn f(comm: &Comm, rank: usize, x: &[f64]) {\n    if rank == 0 {\n        sync(comm, x);\n    }\n}\n",
        )];
        let found = lints_of(&files);
        assert_eq!(found, vec![("collective-protocol".into(), "crates/dist/src/a.rs".into(), 6)]);
    }

    #[test]
    fn rank_local_postprocessing_after_collective_is_clean() {
        let files = vec![facts(
            "crates/dist/src/a.rs",
            "dist",
            "fn f(comm: &Comm, rank: usize, x: &[f64]) -> f64 {\n    let blocks = comm.try_allgather(x);\n    if rank == 0 {\n        return 1.0;\n    }\n    let _ = blocks;\n    0.0\n}\n",
        )];
        assert!(lints_of(&files).is_empty());
    }

    #[test]
    fn hash_iteration_feeding_float_sum_is_flagged() {
        let files = vec![facts(
            "crates/ensf/src/a.rs",
            "ensf",
            "// lint: allow(nondeterministic-api, reason=\"test of the fold lint\")\nfn f(m: &HashMap<u32, f64>) -> f64 {\n    m.values().sum::<f64>()\n}\n",
        )];
        let found = lints_of(&files);
        assert_eq!(found, vec![("hash-float-fold".into(), "crates/ensf/src/a.rs".into(), 3)]);
    }

    #[test]
    fn hash_for_loop_accumulation_is_flagged() {
        let files = vec![facts(
            "crates/dist/src/a.rs",
            "dist",
            "fn f(m: &HashMap<u32, f64>) -> f64 {\n    let mut acc = 0.0f64;\n    for (_, v) in m {\n        acc += v;\n    }\n    acc\n}\n",
        )];
        let found = lints_of(&files);
        assert_eq!(found, vec![("hash-float-fold".into(), "crates/dist/src/a.rs".into(), 4)]);
    }

    #[test]
    fn integer_hash_counters_are_not_flagged() {
        let files = vec![facts(
            "crates/dist/src/a.rs",
            "dist",
            "fn f(m: &HashMap<u32, u64>) -> u64 {\n    let mut acc = 0u64;\n    for (_, v) in m {\n        acc += v;\n    }\n    acc\n}\n",
        )];
        assert!(lints_of(&files).is_empty());
    }

    #[test]
    fn btree_iteration_is_clean() {
        let files = vec![facts(
            "crates/ensf/src/a.rs",
            "ensf",
            "fn f(m: &BTreeMap<u32, f64>) -> f64 {\n    m.values().sum::<f64>()\n}\n",
        )];
        assert!(lints_of(&files).is_empty());
    }

    #[test]
    fn raw_rng_construction_flagged_in_rng_strict_crates() {
        let files = vec![facts(
            "crates/dist/src/a.rs",
            "dist",
            "fn f() -> StdRng {\n    StdRng::seed_from_u64(7)\n}\n",
        )];
        let found = lints_of(&files);
        assert_eq!(found, vec![("rng-stream-discipline".into(), "crates/dist/src/a.rs".into(), 2)]);
    }

    #[test]
    fn stream_forged_from_raw_state_is_flagged() {
        let files = vec![facts(
            "crates/ensf/src/a.rs",
            "ensf",
            "fn f(s: [u64; 4]) -> StdRng {\n    StdRng::from_state(s)\n}\n",
        )];
        let found = lints_of(&files);
        assert_eq!(found, vec![("rng-stream-discipline".into(), "crates/ensf/src/a.rs".into(), 2)]);
    }

    #[test]
    fn underived_seeded_call_is_flagged_but_split_seed_is_clean() {
        let bad = facts(
            "crates/dist/src/a.rs",
            "dist",
            "fn f() -> StdRng {\n    seeded(42)\n}\n",
        );
        let found = lints_of(&[bad]);
        assert_eq!(found, vec![("rng-stream-discipline".into(), "crates/dist/src/a.rs".into(), 2)]);
        let good = facts(
            "crates/dist/src/a.rs",
            "dist",
            "fn f(seed: u64, p: usize, t: usize) -> StdRng {\n    seeded(split_seed(split_seed(seed, p as u64), t as u64))\n}\n",
        );
        assert!(lints_of(&[good]).is_empty());
    }

    #[test]
    fn rng_lints_do_not_apply_outside_dist_ensf() {
        let files = vec![facts(
            "crates/stats/src/rng.rs",
            "stats",
            "fn seeded(seed: u64) -> StdRng {\n    StdRng::seed_from_u64(seed)\n}\n",
        )];
        assert!(lints_of(&files).is_empty());
    }

    fn file(rel: &str, src: &str) -> FileFacts {
        let wf = crate::workspace::classify(rel.into(), rel.to_string());
        FileFacts::collect(rel, src, wf.kind, Scope::for_crate(&wf.crate_name))
    }

    const SOLVER: &str = "pub fn solve_tridiagonal(x: &mut [f64]) {\n    x.fill(0.0);\n}\n";

    #[test]
    fn dead_pub_fires_on_a_pub_fn_no_other_file_names() {
        let files = vec![
            file("crates/linalg/src/tri.rs", SOLVER),
            file("crates/ensf/src/a.rs", "fn f(x: &mut [f64]) {\n    x.fill(1.0);\n}\n"),
        ];
        assert_eq!(lints_of(&files), vec![("dead-pub".into(), "crates/linalg/src/tri.rs".into(), 1)]);
    }

    #[test]
    fn dead_pub_fires_when_the_only_mention_is_a_use() {
        let files = vec![
            file("crates/linalg/src/tri.rs", SOLVER),
            file("crates/linalg/src/lib.rs", "pub mod tri;\npub use tri::{\n    solve_tridiagonal,\n};\n"),
            file("tests/a.rs", "use linalg::solve_tridiagonal;\n"),
        ];
        assert_eq!(lints_of(&files), vec![("dead-pub".into(), "crates/linalg/src/tri.rs".into(), 1)]);
    }

    #[test]
    fn dead_pub_is_silent_when_any_other_file_names_it() {
        let caller = "fn main() {\n    linalg::tri::solve_tridiagonal(&mut [0.0]);\n}\n";
        for rel in [
            "crates/ensf/src/a.rs",
            "crates/bench/src/bin/fig4.rs",
            "examples/quickstart.rs",
            "benchmark/src/bin/cyclebench/main.rs",
            "crates/linalg/tests/prop.rs",
            "tests/integration.rs",
        ] {
            let files = vec![file("crates/linalg/src/tri.rs", SOLVER), file(rel, caller)];
            assert!(lints_of(&files).is_empty(), "a mention in {rel} must count");
        }
    }

    #[test]
    fn dead_pub_skips_narrower_visibility_tests_and_shims() {
        let files = vec![
            file("crates/linalg/src/tri.rs", "pub(crate) fn helper() {}\n#[cfg(test)]\nmod tests {\n    pub fn fixture() {}\n}\n"),
            file("crates/shims/rand/src/lib.rs", "pub fn random_bool() -> bool {\n    true\n}\n"),
        ];
        assert!(lints_of(&files).is_empty());
    }
}
