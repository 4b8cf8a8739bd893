//! The architecture rules: the workspace's structural invariants (one cycle
//! loop, one fan-out, one arithmetic, one binary format, ...) as one table.
//!
//! Patterns are lexed by [`crate::lexer`], so spacing is free. `$` matches
//! any identifier, or glued to a word one with that prefix (`_mm$`) or
//! suffix (`$Mode`); `...` skips tokens short of a `;`, `{` or `}`. In a
//! pattern holding `(` or `{` (a call or a literal) a match right after
//! `fn`/`struct`/`impl`/`trait`/`enum` is a definition and does not count.
//! Findings are `architecture` findings, which no `lint: allow` reaches: to
//! change an invariant, change this table.

use crate::lexer::{lex, Token, TokenKind};
use crate::{Diagnostic, FileFacts};
use Reach::{Code, Text};

/// Which tokens of a file a rule reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reach {
    /// Code tokens outside `#[cfg(test)]` / `#[test]` regions.
    Code,
    /// Every word of the file, comments, strings and test code included.
    Text,
}

type List = &'static [&'static str];

/// One rule: `count` matches of `patterns` in `scope`, outside `except`.
#[derive(Debug)]
pub struct Rule {
    /// The invariant the rule keeps, named in its findings.
    pub invariant: &'static str,
    /// Tokens read.
    pub reach: Reach,
    /// Path prefixes read; a `*` segment matches any one directory.
    pub scope: List,
    /// Files (or directories) of the scope where a confined pattern lives.
    pub except: List,
    /// Matches allowed in the rest of the scope.
    pub count: usize,
    /// Token patterns; a position matching any of them is one match.
    pub patterns: List,
}

/// A sole-site rule: exactly `count` matches across `scope`.
const fn sole(inv: &'static str, reach: Reach, scope: List, count: usize, pats: List) -> Rule {
    Rule { invariant: inv, reach, scope, except: &[], count, patterns: pats }
}

/// A confined rule: matches only in `files` (or under directories) of
/// `scope`.
const fn confined(inv: &'static str, reach: Reach, scope: List, files: List, pats: List) -> Rule {
    Rule { invariant: inv, reach, scope, except: files, count: 0, patterns: pats }
}

const CYCLE: List = &["crates/core/src/", "crates/dist/src/"];
const OBS: List = &["crates/ensf/src/", "crates/core/src/", "crates/dist/src/"];
const DIST: List = &["crates/dist/src/"];
const LIBS: List = &["crates/*/src/", "crates/shims/*/src/"];
const TREE: List = &["crates/", "tests/", "examples/", "src/"];
const SIMD: List = &["_mm$(", "target_feature"];
#[rustfmt::skip]
const RETIRED_RUN_FACES: List = &[
    "run_supervised", "resume_supervised", "run_observed", "ResilienceConfig", "SupervisedRun",
    "run_osse", "run_elastic_experiment", "run_elastic_from", "run_elastic_osse",
    "run_elastic_osse_from", "ElasticCycleConfig", "DeadlinePolicy", "ElasticRunResult",
    "ElasticOutcome", "ScenarioMethod", "degraded_steps",
];
#[rustfmt::skip]
const RETIRED_TELEMETRY: List = &[
    "record_cycle", "cycle_records", "clear_cycles", "write_jsonl", "flight_record",
    "flight_events", "reset_flight", "set_postmortem_dir", "dump_postmortem", "FlightKind",
    "FlightEvent", "TELEMETRY_GATE", "SQG_DA_TELEMETRY_JSONL", "SQG_DA_POSTMORTEM_DIR",
    "counter_add", "counter_value", "gauge_set", "gauge_value", "histogram_record",
    "histogram_snapshot", "HistogramSnapshot", "all_counters", "all_gauges", "all_histograms",
    "reset_metrics", "parking_lot",
];

/// The table. Rows of one invariant sit together; DESIGN.md says why each
/// invariant holds.
#[rustfmt::skip]
const RULES: &[Rule] = &[
    sole("one cycle loop", Code, CYCLE, 1, &[".forecast_ensemble("]),
    sole("one cycle loop", Code, CYCLE, 1, &["CycleRecord {"]),
    sole("one cycle loop", Code, CYCLE, 1, &["CycleSeries { ... rmse"]),
    sole("one observation path", Code, OBS, 1, &["harmonic_fill("]),
    sole("one observation path", Code, OBS, 0, &["trait ObservationOperator"]),
    confined("one binary format", Code, LIBS, &["crates/core/src/resilience/checkpoint.rs"],
        &["to_le_bytes(", "from_le_bytes("]),
    confined("one FFT kernel file", Text, &["crates/fft/src/"], &["crates/fft/src/simd.rs"], SIMD),
    confined("one fan-out", Code, LIBS, &["crates/par/src/lib.rs"], &["available_parallelism("]),
    confined("one fan-out", Code, LIBS, &["crates/par/src/lib.rs", "crates/hpc/src/mpi.rs"],
        &["thread::scope(", "thread::spawn("]),
    sole("one fan-out", Code, &["crates/dist/src/", "crates/linalg/src/"], 0, &["par::"]),
    sole("one fan-out", Code, DIST, 0, &["forecast_batch("]),
    confined("one arithmetic", Code, &["crates/linalg/src/"], &["crates/linalg/src/simd.rs"], SIMD),
    sole("one arithmetic", Code, &["crates/linalg/src/"], 0, &["env::var$"]),
    sole("one arithmetic", Text, &["crates/", "tests/"], 0, &["LINALG_SIMD"]),
    confined("one arithmetic", Code, &["crates/stats/src/"], &["crates/stats/src/gaussian.rs"], SIMD),
    confined("one SQG step", Text, &["crates/sqg/src/"], &["crates/sqg/src/simd.rs"], SIMD),
    sole("one degradation policy", Code, CYCLE, 1,
        &["fn $ ... -> ... Rung", "fn $ ... -> ... CycleMode"]),
    sole("one degradation policy", Code, DIST, 0,
        &["CycleMode", "fn decide_rung", "enum $Mode", "enum $Rung"]),
    sole("one score kernel", Text, TREE, 0, &["ScoreKernel"]),
    confined("one score kernel", Code, &["crates/ensf/src/"], &["crates/ensf/src/oracle.rs"],
        &["ScoreEstimator", "reverse_sde_assimilate(", "probability_flow_assimilate("]),
    sole("one run description", Text, TREE, 0, RETIRED_RUN_FACES),
    sole("one run description", Text, TREE, 0, &["run_experiment(", "run_dist_experiment("]),
    sole("one run description", Text,
        &["crates/core/src/cycle.rs", "crates/dist/src/elastic.rs", "crates/dist/src/cycle.rs"],
        0, &["too_many_arguments"]),
    confined("one analysis description", Text, TREE, &["crates/core/src/"],
        &["EnsfScheme", "LetkfScheme"]),
    confined("one analysis description", Code, TREE,
        &["crates/core/src/cycle.rs", "crates/core/src/osse.rs", "crates/dist/src/elastic.rs"],
        &["run_cycles_with("]),
    sole("one record per cycle", Text, TREE, 0, RETIRED_TELEMETRY),
];

/// Dependencies no `Cargo.toml` may name: their jobs went to the checkpoint
/// codec (`bytes`), `par` (`crossbeam`, `rayon`) and `std::sync`
/// (`parking_lot`).
const RETIRED_DEPENDENCIES: List = &["bytes", "crossbeam", "rayon", "parking_lot"];

/// This file spells every pattern it forbids, so no rule reads it.
const TABLE: &str = "crates/analyzer/src/rules.rs";

/// Checks every rule over `files` and the retired dependencies over
/// `manifests` (`(path, text)` of each `Cargo.toml`).
pub(crate) fn check(files: &[FileFacts], manifests: &[(String, String)]) -> Vec<Diagnostic> {
    let sources: Vec<Source> = files.iter().filter(|f| f.rel != TABLE).map(Source::read).collect();
    let mut diags: Vec<Diagnostic> = RULES.iter().flat_map(|r| r.check(&sources)).collect();
    diags.extend(retired_dependencies(manifests));
    diags
}

/// Lines of `manifests` that declare a [`RETIRED_DEPENDENCIES`] entry.
fn retired_dependencies(manifests: &[(String, String)]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (rel, text) in manifests {
        for (n, line) in text.lines().enumerate() {
            let line = line.trim_start();
            let end = line.find(|c: char| !c.is_alphanumeric() && c != '_');
            let (key, rest) = line.split_at(end.unwrap_or(line.len()));
            if RETIRED_DEPENDENCIES.contains(&key) && rest.trim_start().starts_with(['=', '.']) {
                let message = format!("`{key}` is a retired dependency");
                diags.push(finding(rel, n as u32 + 1, 1, message, line));
            }
        }
    }
    diags
}

/// True when `rel` lies under `prefix` (`*` segments match any one name).
pub(crate) fn under(rel: &str, prefix: &str) -> bool {
    let mut segments = rel.split('/');
    prefix.split_terminator('/').all(|p| segments.next().is_some_and(|s| p == "*" || p == s))
}

/// A file as the rules read it, once per reach.
struct Source<'a> {
    facts: &'a FileFacts,
    code: Vec<Token>,
    /// The file lexed with quotes and slashes blanked, so the words of its
    /// comments and strings are tokens too (positions are unchanged).
    text: Vec<Token>,
}

impl<'a> Source<'a> {
    /// Both token streams of `facts`.
    fn read(facts: &'a FileFacts) -> Source<'a> {
        let code = facts.tokens.iter().filter(|t| !facts.structure.in_test_region(t.line));
        Source {
            facts,
            code: code.cloned().collect(),
            text: lex(&facts.text.replace(['"', '\'', '/'], " ")).tokens,
        }
    }
}

impl Rule {
    /// This rule's findings over `sources`.
    fn check(&self, sources: &[Source]) -> Vec<Diagnostic> {
        let patterns: Vec<Vec<String>> = self.patterns.iter().map(|p| atoms(p)).collect();
        let read = |rel: &str| {
            self.scope.iter().any(|p| under(rel, p)) && !self.except.iter().any(|e| under(rel, e))
        };
        let mut sites = Vec::new();
        for s in sources.iter().filter(|s| read(&s.facts.rel)) {
            let tokens = if self.reach == Code { &s.code } else { &s.text };
            for (i, t) in tokens.iter().enumerate() {
                if let Some(p) = patterns.iter().position(|p| matches_at(p, tokens, i)) {
                    sites.push((s.facts, t.line, t.col, self.patterns[p]));
                }
            }
        }
        let (invariant, found, n) = (self.invariant, sites.len(), self.count);
        let message = |p: &str| match self.except {
            [] => {
                format!("{invariant}: {found} × `{p}` in {}, expected {n}", self.scope.join(", "))
            }
            files => format!("{invariant}: `{p}` outside {}", files.join(", ")),
        };
        if found == n {
            return Vec::new();
        }
        if found == 0 {
            return vec![finding(self.scope[0], 1, 1, message(&self.patterns.join("` / `")), "")];
        }
        let at = |&(f, line, col, p): &(&FileFacts, u32, u32, &str)| {
            finding(&f.rel, line, col, message(p), f.line_text(line))
        };
        sites.iter().map(at).collect()
    }
}

fn finding(file: &str, line: u32, col: u32, message: String, snippet: &str) -> Diagnostic {
    Diagnostic {
        lint: "architecture",
        file: file.to_string(),
        line,
        col,
        message,
        snippet: snippet.to_string(),
        help: "the invariant is a row of crates/analyzer/src/rules.rs; no allow reaches it".into(),
    }
}

/// A pattern's tokens, each `$` glued to the identifier beside it (`_mm$`,
/// `$Mode`), so one atom is a token text or an identifier glob.
fn atoms(pattern: &str) -> Vec<String> {
    let word = |s: &str| s.chars().all(|c| c == '$' || c == '_' || c.is_alphanumeric());
    let mut out: Vec<String> = Vec::new();
    let mut end = (0, 0);
    for t in lex(pattern).tokens {
        let glued = (t.line, t.col) == end && word(&t.text);
        end = (t.line, t.col + t.text.len() as u32);
        match out.last_mut() {
            Some(last) if glued && word(last) && (t.text == "$" || last.ends_with('$')) => {
                last.push_str(&t.text)
            }
            _ => out.push(t.text),
        }
    }
    out
}

/// True when `pattern` matches `tokens` from `i`, and the match is a site,
/// not a definition.
fn matches_at(pattern: &[String], tokens: &[Token], i: usize) -> bool {
    let definition = || {
        let site = pattern.iter().any(|a| a == "(" || a == "{");
        let keyword = i.checked_sub(1).map(|k| tokens[k].text.as_str());
        site && matches!(keyword, Some("fn" | "struct" | "impl" | "trait" | "enum"))
    };
    match_from(pattern, tokens, i) && !definition()
}

fn match_from(pattern: &[String], tokens: &[Token], i: usize) -> bool {
    let Some((atom, rest)) = pattern.split_first() else { return true };
    if atom == "..." {
        let stop = |t: &Token| matches!(t.text.as_str(), ";" | "{" | "}");
        let gap = (i..=tokens.len()).take_while(|&j| j == i || !stop(&tokens[j - 1]));
        return gap.into_iter().any(|j| match_from(rest, tokens, j));
    }
    let hit = tokens.get(i).is_some_and(|t| match atom.split_once('$') {
        Some((pre, suf)) => {
            t.kind == TokenKind::Ident && t.text.starts_with(pre) && t.text.ends_with(suf)
        }
        None => t.text == *atom,
    });
    hit && match_from(rest, tokens, i + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze_facts, FileKind, Scope};

    /// Outside every rule's scope.
    const OUTSIDE: &str = "benchmark/src/lib.rs";

    fn facts(rel: &str, text: &str) -> FileFacts {
        FileFacts::collect(rel, text, FileKind::Library, Scope::for_crate("probe"))
    }

    fn run(rule: &Rule, files: &[FileFacts]) -> Vec<Diagnostic> {
        rule.check(&files.iter().map(Source::read).collect::<Vec<_>>())
    }

    /// The table's row holding `pattern`.
    fn rule(pattern: &str) -> &'static Rule {
        RULES.iter().find(|r| r.patterns.contains(&pattern)).expect("a row holds the pattern")
    }

    #[test]
    fn every_rule_fires_inside_its_scope_and_not_outside() {
        for rule in RULES {
            let dir = rule.scope[0].ends_with('/');
            let inside = rule.scope[0].replace('*', "probe") + if dir { "probe.rs" } else { "" };
            for pattern in rule.patterns {
                let site = pattern.replace('$', "x").replace("...", " ") + "\n";
                // `count` sites inside stay silent, one more fires; the files
                // `except` names and the paths outside the scope are free.
                let mut silent =
                    vec![facts(&inside, &site.repeat(rule.count)), facts(OUTSIDE, &site)];
                silent.extend(rule.except.iter().map(|f| facts(f, &site)));
                let fires = site.repeat(rule.count + 1);
                let diags = run(rule, &[facts(&inside, &fires)]);
                assert!(!diags.is_empty(), "`{pattern}` missed in {inside}");
                assert!(
                    diags.iter().all(|d| d.lint == "architecture" && d.file == inside),
                    "{diags:?}"
                );
                assert!(run(rule, &silent).is_empty(), "`{pattern}` fired outside {inside}");
            }
        }
    }

    /// A `#[cfg(test)] fn` in mid-file hides nothing after it.
    #[test]
    fn library_code_after_a_test_fn_is_seen() {
        let src = "#[cfg(test)]\nfn step_scalar() {}\n\nfn run_step() {\n    std::thread::available_parallelism();\n}\n";
        let diags =
            run(rule("available_parallelism("), &[facts("crates/sqg/src/dynamics.rs", src)]);
        assert_eq!(diags.iter().map(|d| d.line).collect::<Vec<_>>(), [5]);
    }

    /// Code reach reads code only; text reach reads comments and strings.
    #[test]
    fn code_reach_skips_comments_and_strings() {
        let src = "//! Calls `model.forecast_ensemble(..)` once.\nfn run() {\n    let s = \".forecast_ensemble(\";\n    model.forecast_ensemble(&mut ens);\n}\n";
        assert!(
            run(rule(".forecast_ensemble("), &[facts("crates/dist/src/cycle.rs", src)]).is_empty()
        );
        let doc = facts("tests/integration.rs", "/// Not `ScoreKernel`.\nfn f() {}\n");
        assert_eq!(run(rule("ScoreKernel"), &[doc]).len(), 1);
    }

    #[test]
    fn definitions_are_not_sites() {
        let src =
            "pub fn harmonic_fill(f: &mut [f64]) {}\nfn g() {\n    harmonic_fill(&mut y);\n}\n";
        assert!(run(rule("harmonic_fill("), &[facts("crates/core/src/inpaint.rs", src)]).is_empty());
    }

    #[test]
    fn no_directive_allows_a_rule() {
        let f = facts(
            "crates/dist/src/x.rs",
            "// lint: allow(architecture, reason=\"x\")\nuse par::map;\n",
        );
        assert_eq!(run(rule("par::"), std::slice::from_ref(&f)).len(), 1);
        assert_eq!(analyze_facts(&f).diags[0].lint, "lint-directive");
    }

    #[test]
    fn manifests_name_no_retired_dependency() {
        for dep in RETIRED_DEPENDENCIES {
            for line in [format!("{dep}.workspace = true"), format!("  {dep} = {{ path = \"x\" }}")]
            {
                let manifest =
                    ("crates/fft/Cargo.toml".to_string(), format!("[dependencies]\n{line}\n"));
                let diags = retired_dependencies(&[manifest]);
                assert_eq!(diags.iter().map(|d| d.line).collect::<Vec<_>>(), [2], "{line}");
            }
        }
        let clean = "[dependencies]\nbytesize = \"1\"\n# rayon = \"1\"\nrand.workspace = true\n";
        assert!(retired_dependencies(&[("Cargo.toml".to_string(), clean.to_string())]).is_empty());
    }

    #[test]
    fn patterns_glob_identifiers_and_skip_gaps() {
        assert_eq!(
            atoms("_mm$(  enum $Mode  fn $ ..."),
            ["_mm$", "(", "enum", "$Mode", "fn", "$", "..."]
        );
        let hits = |pattern: &str, src: &str| {
            let tokens = lex(src).tokens;
            (0..tokens.len()).filter(|&i| matches_at(&atoms(pattern), &tokens, i)).count()
        };
        assert_eq!(hits("_mm$(", "_mm256_add_pd(a, b); _mm; x_mm256(a)"), 1);
        assert_eq!(hits("enum $Mode", "enum CycleMode {} enum Mode {} enum Modes {}"), 2);
        let rung = "fn $ ... -> ... Rung";
        assert_eq!(hits(rung, "pub fn decide_rung(l: &Ladder) -> (Rung, Rule) {"), 1);
        assert_eq!(hits(rung, "fn f() { g() } fn h() -> Rung;"), 1, "a gap stops at braces");
        assert_eq!(hits("CycleSeries { ... rmse", "CycleSeries { label, rmse: r }"), 1);
        assert_eq!(hits("CycleSeries { ... rmse", "struct CycleSeries { rmse: f64 }"), 0);
    }

    #[test]
    fn scopes_match_whole_segments() {
        assert!(under("crates/par/src/lib.rs", "crates/*/src/"));
        assert!(under("crates/shims/rand/src/lib.rs", "crates/shims/*/src/"));
        assert!(!under("crates/shims/rand/src/lib.rs", "crates/*/src/"));
        assert!(!under("crates/parallel/src/lib.rs", "crates/par/src/"));
        assert!(under("crates/core/src/cycle.rs", "crates/core/src/cycle.rs"));
    }
}
