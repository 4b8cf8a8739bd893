//! SARIF 2.1.0 output (`--sarif`).
//!
//! Emits the minimal static-analysis interchange shape CI annotators
//! understand: one run, the full lint registry as `rules` (stable
//! `ruleIndex` regardless of which lints fired), and one `result` per
//! diagnostic with a physical location. Hand-rendered like the rest of the
//! analyzer's JSON — no serde in this workspace.

use crate::diag::json_str;
use crate::{Diagnostic, LINTS};

/// Tool version reported in the SARIF `driver` block. Bump when the lint
/// set or the output shape changes meaningfully.
pub const TOOL_VERSION: &str = "2.0.0";

/// Renders a complete SARIF 2.1.0 log for `diags`.
///
/// Results must already be sorted (file, line, col) — the renderer preserves
/// input order. `files_scanned` and `suppressed` land in the run's
/// `properties` bag, which SARIF reserves for tool-specific extras.
pub fn render(diags: &[Diagnostic], suppressed: usize, files_scanned: usize) -> String {
    let mut out = String::with_capacity(4096 + diags.len() * 512);
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"analyzer\",\n");
    out.push_str(&format!("          \"version\": {},\n", json_str(TOOL_VERSION)));
    out.push_str("          \"rules\": [\n");
    for (i, l) in LINTS.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}}}{}\n",
            json_str(l.name),
            json_str(l.desc),
            if i + 1 < LINTS.len() { "," } else { "" }
        ));
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str(&format!(
        "      \"properties\": {{\"filesScanned\": {files_scanned}, \"suppressedFindings\": {suppressed}}},\n"
    ));
    out.push_str("      \"results\": [\n");
    for (i, d) in diags.iter().enumerate() {
        out.push_str("        {\n");
        out.push_str(&format!("          \"ruleId\": {},\n", json_str(d.lint)));
        // `architecture` and `lint-directive` findings have no registry entry.
        if let Some(rule_index) = LINTS.iter().position(|l| l.name == d.lint) {
            out.push_str(&format!("          \"ruleIndex\": {rule_index},\n"));
        }
        out.push_str("          \"level\": \"error\",\n");
        out.push_str(&format!(
            "          \"message\": {{\"text\": {}}},\n",
            json_str(&format!("{} — {}", d.message, d.help))
        ));
        out.push_str("          \"locations\": [\n            {\n");
        out.push_str(&format!(
            "              \"physicalLocation\": {{\"artifactLocation\": {{\"uri\": {}}}, \"region\": {{\"startLine\": {}, \"startColumn\": {}}}}}\n",
            json_str(&d.file),
            d.line,
            d.col
        ));
        out.push_str("            }\n          ]\n");
        out.push_str(&format!("        }}{}\n", if i + 1 < diags.len() { "," } else { "" }));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag() -> Diagnostic {
        Diagnostic {
            lint: "float-exact-compare",
            file: "crates/sqg/src/a.rs".to_string(),
            line: 7,
            col: 9,
            message: "exact float comparison `==`".to_string(),
            snippet: "    x == 0.0".to_string(),
            help: "compare against a tolerance".to_string(),
        }
    }

    #[test]
    fn sarif_has_schema_rules_and_result_location() {
        let s = render(&[diag()], 2, 5);
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("sarif-2.1.0.json"));
        assert!(s.contains("\"ruleId\": \"float-exact-compare\""));
        assert!(s.contains("\"startLine\": 7"));
        assert!(s.contains("\"startColumn\": 9"));
        assert!(s.contains("\"uri\": \"crates/sqg/src/a.rs\""));
        assert!(s.contains("\"suppressedFindings\": 2"));
        // Every registered lint appears as a rule even when it didn't fire.
        for l in LINTS {
            assert!(s.contains(&format!("{{\"id\": \"{}\"", l.name)), "missing rule {}", l.name);
        }
    }

    #[test]
    fn empty_results_render_as_empty_array() {
        let s = render(&[], 0, 3);
        assert!(s.contains("\"results\": [\n      ]"));
    }

    #[test]
    fn rule_index_matches_registry_position() {
        let s = render(&[diag()], 0, 1);
        let want = LINTS.iter().position(|l| l.name == "float-exact-compare").unwrap();
        assert!(s.contains(&format!("\"ruleIndex\": {want},")));
    }
}
