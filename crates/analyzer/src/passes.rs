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
//! * [`dead_pub`] — a `pub` item in library code that no other file of the
//!   tree names outside test code.
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

/// `dead-pub`: public library surface that only tests use.
///
/// Items are the plain-`pub` fns (free or inherent methods), structs, enums,
/// unions, traits, type aliases, consts and statics of library code —
/// `crates/*/src/`, shims excluded — outside test regions. An item is used
/// when
///
/// * another file names it outside test code (`tests/`, `benches/` and
///   `#[cfg(test)]` regions) and outside `use` statements — bins, examples
///   and all of `benchmark/` count, and so does any identifier whatever it
///   resolves to, so the pass errs towards silence — and, for a method or
///   associated const, the type of its inherent `impl` is used too; or
/// * it is a type or const that its own file names in the signature of a
///   used public item outside the type's own `impl` (`span_enter` returns
///   `SpanGuard`: callers never name it, and narrowing it breaks the build).
///
/// An item kept with an `allow(dead-pub, ...)` counts as used for the
/// signature rule. Every unused item is a finding, except the members of an
/// unused type, which go with the type.
fn dead_pub(files: &[FileFacts], report: &mut Report) {
    let mut real_mentions: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        let test_file = f.kind == FileKind::Test && !under(&f.rel, "benchmark/");
        let mut in_use = false;
        for t in &f.tokens {
            if t.kind == TokenKind::Ident {
                if t.text == "use" {
                    in_use = true;
                } else if !in_use && !test_file && !f.structure.in_test_region(t.line) {
                    real_mentions.entry(&t.text).or_default().insert(fi);
                }
            } else if t.text == ";" {
                in_use = false;
            }
        }
    }
    let items: Vec<PubItem> = files
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            f.kind == FileKind::Library
                && under(&f.rel, "crates/*/src/")
                && !under(&f.rel, "crates/shims/")
        })
        .flat_map(|(fi, f)| pub_items(fi, f))
        .collect();
    let crate_of = |it: &PubItem| &files[it.file].scope.crate_name;
    // The types an item's inherent `impl` may belong to (an `impl` lives in
    // its type's crate), and the items of a type's file whose signature
    // names it, outside its own `impl`.
    let owners: Vec<Vec<usize>> = items
        .iter()
        .map(|it| {
            let is_owner =
                |t: &PubItem| t.is_type && Some(t.name) == it.owner && crate_of(t) == crate_of(it);
            (0..items.len()).filter(|&j| is_owner(&items[j])).collect()
        })
        .collect();
    let named_by: Vec<Vec<usize>> = items
        .iter()
        .enumerate()
        .map(|(i, it)| {
            let names = |j: usize| {
                let s = &items[j];
                j != i
                    && s.file == it.file
                    && s.owner != Some(it.name)
                    && files[s.file].tokens[s.sig.0..=s.sig.1].iter().any(|t| t.text == it.name)
            };
            (0..items.len()).filter(|&j| it.is_type && names(j)).collect()
        })
        .collect();
    // The least fixpoint of the rules above, seeded with `seed`.
    let used_from = |seed: &[bool]| {
        let mut used = vec![false; items.len()];
        let ready = |i: usize, used: &[bool]| {
            (seed[i] && (owners[i].is_empty() || owners[i].iter().any(|&o| used[o])))
                || named_by[i].iter().any(|&j| used[j])
        };
        while let Some(i) = (0..items.len()).find(|&i| !used[i] && ready(i, &used)) {
            used[i] = true;
        }
        used
    };
    let named_elsewhere: Vec<bool> = items
        .iter()
        .map(|it| real_mentions.get(it.name).is_some_and(|s| s.iter().any(|&o| o != it.file)))
        .collect();
    let allowed: Vec<bool> = items
        .iter()
        .map(|it| files[it.file].allowed("dead-pub", files[it.file].tokens[it.kw].line))
        .collect();
    let used = used_from(&named_elsewhere);
    let kept: Vec<bool> = named_elsewhere.iter().zip(&allowed).map(|(n, a)| n | a).collect();
    let used_or_kept = used_from(&kept);
    for (i, it) in items.iter().enumerate() {
        let owner_unused = owners[i].iter().any(|&o| !used_or_kept[o]);
        if used[i] || (!allowed[i] && (used_or_kept[i] || owner_unused)) {
            continue;
        }
        let f = &files[it.file];
        let t = &f.tokens[it.kw + 1];
        report.emit(
            f,
            "dead-pub",
            t.line,
            t.col,
            format!(
                "`pub {} {}` is used by no other file of the tree outside tests",
                f.tokens[it.kw].text, it.name
            ),
            "delete it, narrow it, or keep it with an allow naming the test or ROADMAP item that needs it",
        );
    }
}

/// A plain-`pub` item of one library file, for [`dead_pub`].
struct PubItem<'a> {
    file: usize,
    name: &'a str,
    /// Token index of the item keyword (`fn`, `struct`, `const`, ...).
    kw: usize,
    /// A type, const or static rather than a fn.
    is_type: bool,
    /// Self type of the inherent `impl` the item sits in.
    owner: Option<&'a str>,
    /// Token range of what callers see: a fn up to its body, any other item
    /// whole.
    sig: (usize, usize),
}

/// The plain-`pub` items of `f` outside test regions.
fn pub_items(fi: usize, f: &FileFacts) -> Vec<PubItem<'_>> {
    let tokens = &f.tokens;
    let impls: Vec<(&str, usize, usize)> = (0..tokens.len())
        .filter(|&i| {
            // An item-position `impl`, not `-> impl Trait` or `x: impl Trait`.
            tokens[i].kind == TokenKind::Ident
                && tokens[i].text == "impl"
                && (i == 0
                    || matches!(tokens[i - 1].text.as_str(), "}" | ";" | "]" | "{" | "unsafe"))
        })
        .filter_map(|i| {
            let ty = inherent_impl_type(tokens, i)?;
            let (open, close) = body_block(tokens, &f.structure.brace_pair, i)?;
            Some((ty, open, close))
        })
        .collect();
    let owner = |kw: usize| impls.iter().find(|&&(_, a, b)| a < kw && kw < b).map(|&(ty, ..)| ty);
    let mut out = Vec::new();
    for item in &f.structure.fns {
        if is_pub(tokens, item.kw_idx) && !f.structure.in_test_region(item.header_line) {
            let end =
                item.body_tokens.map_or_else(|| item_end(tokens, item.kw_idx), |(open, _)| open);
            out.push(PubItem {
                file: fi,
                name: &item.name,
                kw: item.kw_idx,
                is_type: false,
                owner: owner(item.kw_idx),
                sig: (item.kw_idx, end),
            });
        }
    }
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident
            || t.text != "pub"
            || tokens.get(i + 1).is_some_and(|n| n.text == "(")
        {
            continue;
        }
        let mut kw = i + 1;
        if tokens.get(kw).is_some_and(|n| n.text == "unsafe") {
            kw += 1;
        }
        let Some(k) = tokens.get(kw) else { continue };
        let braced = matches!(k.text.as_str(), "struct" | "enum" | "union" | "trait");
        if !(braced || matches!(k.text.as_str(), "type" | "const" | "static"))
            || f.structure.in_test_region(k.line)
        {
            continue;
        }
        let mut name = kw + 1;
        if tokens.get(name).is_some_and(|n| n.text == "mut") {
            name += 1;
        }
        // `pub const fn` and its kin are fns, collected above.
        let is_name = |n: &&Token| {
            n.kind == TokenKind::Ident
                && !matches!(n.text.as_str(), "fn" | "unsafe" | "extern" | "async")
        };
        let Some(n) = tokens.get(name).filter(is_name) else { continue };
        let end = match body_block(tokens, &f.structure.brace_pair, kw) {
            Some((_, close)) if braced => close,
            _ => item_end(tokens, kw),
        };
        let sig = (kw, end);
        out.push(PubItem { file: fi, name: &n.text, kw, is_type: true, owner: owner(kw), sig });
    }
    out
}

/// Token index of the `;` that ends the item starting at `start` (the last
/// token when there is none).
fn item_end(tokens: &[Token], start: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(start) {
        match t.text.as_str() {
            "(" | "[" | "{" if t.kind == TokenKind::Punct => depth += 1,
            ")" | "]" | "}" if t.kind == TokenKind::Punct => depth -= 1,
            ";" if depth == 0 => return k,
            _ => {}
        }
    }
    tokens.len() - 1
}

/// The self type of the `impl` at token `i` when it is an inherent impl
/// (`impl<T> Name<T> {`), `None` for a trait impl.
fn inherent_impl_type(tokens: &[Token], i: usize) -> Option<&str> {
    let mut ty = None;
    let mut angle = 0i32;
    for t in &tokens[i + 1..] {
        match t.text.as_str() {
            "<" => angle += 1,
            ">" => angle -= 1,
            ">>" => angle -= 2,
            "for" if angle == 0 => return None,
            "{" | "where" | ";" if angle == 0 => return ty,
            _ if angle == 0 && t.kind == TokenKind::Ident => ty = Some(t.text.as_str()),
            _ => {}
        }
    }
    None
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
    fn dead_pub_counts_library_bin_example_and_benchmark_callers() {
        let caller = "fn main() {\n    linalg::tri::solve_tridiagonal(&mut [0.0]);\n}\n";
        for rel in [
            "crates/ensf/src/a.rs",
            "crates/bench/src/bin/fig4.rs",
            "crates/bench/src/lib.rs",
            "examples/quickstart.rs",
            "benchmark/src/bin/cyclebench/main.rs",
            "benchmark/tests/harness.rs",
        ] {
            let files = vec![file("crates/linalg/src/tri.rs", SOLVER), file(rel, caller)];
            assert!(lints_of(&files).is_empty(), "a mention in {rel} must count");
        }
    }

    #[test]
    fn dead_pub_fires_when_only_tests_name_it() {
        let caller = "fn t() {\n    linalg::tri::solve_tridiagonal(&mut [0.0]);\n}\n";
        let unit = format!("pub fn other() {{}}\n#[cfg(test)]\nmod tests {{\n{caller}}}\n");
        for (rel, src) in [
            ("tests/integration.rs", caller.to_string()),
            ("crates/linalg/tests/prop.rs", caller.to_string()),
            ("crates/ensf/src/a.rs", unit),
        ] {
            let files = vec![
                file("crates/linalg/src/tri.rs", SOLVER),
                file(rel, &src),
                file("crates/ensf/src/b.rs", "fn f() {\n    other();\n}\n"),
            ];
            let want = vec![("dead-pub".into(), "crates/linalg/src/tri.rs".into(), 1)];
            assert_eq!(lints_of(&files), want, "a mention in test code of {rel} must not count");
        }
    }

    #[test]
    fn dead_pub_fires_on_a_type_no_other_file_names() {
        // `new` and `solve` are named everywhere; the type is named nowhere,
        // and its methods go with it.
        let lu = "pub struct Lu {\n    n: usize,\n}\nimpl Lu {\n    pub fn new() -> Lu {\n        Lu { n: 0 }\n    }\n    pub fn solve(&self) -> usize {\n        self.n\n    }\n}\npub const PIVOTS: usize = 2;\n";
        let caller = "fn f() {\n    let v: Vec<u8> = Vec::new();\n    let _ = solve(v);\n}\n";
        let files = vec![file("crates/linalg/src/lu.rs", lu), file("crates/ensf/src/a.rs", caller)];
        assert_eq!(
            lints_of(&files),
            vec![
                ("dead-pub".into(), "crates/linalg/src/lu.rs".into(), 1),
                ("dead-pub".into(), "crates/linalg/src/lu.rs".into(), 12),
            ]
        );
        // Named by a test only, a used type's method fires too.
        let test = file("crates/linalg/tests/prop.rs", "fn t(lu: &linalg::Lu) {\n    lu.solve();\n}\n");
        let files = vec![file("crates/linalg/src/lu.rs", lu), file("crates/ensf/src/a.rs", "fn f(_: Lu, _: usize) {\n    let _ = Lu::new();\n    let _ = PIVOTS;\n}\n"), test];
        assert_eq!(lints_of(&files), vec![("dead-pub".into(), "crates/linalg/src/lu.rs".into(), 8)]);
    }

    #[test]
    fn dead_pub_spares_a_type_its_file_names_in_a_used_signature() {
        let span = "pub struct SpanGuard;\npub fn span_enter() -> SpanGuard {\n    SpanGuard\n}\n";
        let caller = "fn f() {\n    let _g = telemetry::span_enter();\n}\n";
        let files = vec![file("crates/telemetry/src/span.rs", span), file("crates/ensf/src/a.rs", caller)];
        assert!(lints_of(&files).is_empty());
        // When the signature's own item is a finding, so is the type.
        let files = vec![file("crates/telemetry/src/span.rs", span)];
        assert_eq!(
            lints_of(&files),
            vec![
                ("dead-pub".into(), "crates/telemetry/src/span.rs".into(), 1),
                ("dead-pub".into(), "crates/telemetry/src/span.rs".into(), 2),
            ]
        );
    }

    #[test]
    fn dead_pub_allow_with_a_reason_suppresses() {
        let kept = format!("// lint: allow(dead-pub, reason=\"the reference of tests/tri.rs\")\n{SOLVER}");
        let r = run(&[file("crates/linalg/src/tri.rs", &kept)]);
        assert!(r.diags.is_empty(), "{:?}", r.diags);
        assert_eq!(r.suppressed, 1);
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
