//! `analyzer` CLI.
//!
//! ```text
//! cargo run -p analyzer -- check [--json] [--root DIR] [FILE...]
//! cargo run -p analyzer -- lints
//! ```
//!
//! `check` with no FILE arguments scans the whole workspace
//! ([`analyzer::check_workspace`]): per-file lints under each file's
//! crate/test classification, the workspace passes (call-graph `no_alloc`
//! reachability, collective protocol, determinism dataflow) over all files
//! at once, then the architecture rules. With explicit FILE arguments it
//! runs in *fixture mode* ([`analyzer::check_files`]): every file is treated
//! as library code with every lint family in scope, and the workspace
//! passes run over exactly the given set — that is what the self-test
//! corpus in `tests/fixtures.rs` relies on (and how the cross-file fixture
//! pair is exercised).
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

use analyzer::{diag::json_str, Diagnostic, LINTS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("lints") => {
            for l in LINTS {
                println!("{:<28} {}", l.name, l.desc);
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: analyzer check [--json] [--root DIR] [FILE...]\n       analyzer lints"
            );
            ExitCode::from(2)
        }
    }
}

fn check(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut root = PathBuf::from(".");
    let mut files: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("--root needs a directory argument");
                    return ExitCode::from(2);
                }
            },
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag `{flag}`");
                return ExitCode::from(2);
            }
            file => files.push(PathBuf::from(file)),
        }
    }

    let result = if files.is_empty() {
        analyzer::check_workspace(&root)
    } else {
        analyzer::check_files(&files)
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("analyzer: {e}");
            return ExitCode::from(2);
        }
    };
    let diags = &report.diags;
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for d in diags {
        *counts.entry(d.lint).or_insert(0) += 1;
    }

    if json {
        let findings: Vec<String> = diags.iter().map(Diagnostic::to_json).collect();
        let count_fields: Vec<String> =
            counts.iter().map(|(k, v)| format!("{}:{}", json_str(k), v)).collect();
        println!(
            "{{\"id\":\"analyzer\",\"version\":2,\"files_scanned\":{},\"library_lines\":{},\"suppressed\":{},\"counts\":{{{}}},\"findings\":[{}]}}",
            report.files_scanned,
            report.library_lines,
            report.suppressed,
            count_fields.join(","),
            findings.join(","),
        );
    } else {
        for d in diags {
            println!("{}", d.render());
        }
        println!(
            "analyzer: {} finding(s), {} suppressed by allow, {} file(s) scanned",
            diags.len(),
            report.suppressed,
            report.files_scanned
        );
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
