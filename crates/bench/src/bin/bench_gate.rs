//! Bench-regression gate: compares a fresh `perf_suite` / `scaling_suite`
//! / `elastic_suite` / `scenario_suite` run against the committed
//! baselines and fails on large regressions.
//!
//! The committed `BENCH_perf.json` / `BENCH_scaling.json` /
//! `BENCH_elastic.json` / `BENCH_scenarios.json` hold paper-scale
//! shapes, while CI runs the suites with `--quick` (small shapes), so raw
//! wall times are not comparable across the pair. The gate therefore
//! checks **shape-independent derived ratios** — the flow-matching
//! speedup, scaling efficiency, hit rates — each with its own tolerance: a
//! fresh value below `baseline × (1 − tolerance)` fails the gate. Metrics
//! missing from either file are reported as skipped, never failed, so the
//! gate degrades gracefully when a suite gains or loses a section; a unit
//! test holds every committed baseline to carrying all of its metrics.
//!
//! Run: `cargo run --release -p bench --bin bench_gate -- \
//!   --fresh-perf BENCH_perf_quick.json --baseline-perf BENCH_perf.json \
//!   --fresh-scaling BENCH_scaling_quick.json --baseline-scaling BENCH_scaling.json`

use bench::Json;

/// One gated metric: a named extractor plus a relative tolerance.
struct Metric {
    /// Dotted metric name shown in the report.
    name: &'static str,
    /// Allowed relative regression: fail when
    /// `fresh < baseline × (1 − tolerance)`.
    tolerance: f64,
    /// Absolute acceptance floor on the *baseline* value: the committed
    /// artifact itself must demonstrate at least this much, independent of
    /// the fresh run. Encodes requirements like "the flow analysis is ≥5×
    /// faster at matched RMSE" that a quick fresh run cannot re-prove.
    min_baseline: Option<f64>,
    /// Pulls the metric out of a suite report; `None` ⇒ skip.
    extract: fn(&Json) -> Option<f64>,
}

/// Flow-matching analysis speedup over the 100-step reverse SDE at matched
/// RMSE, scaled against the ≥5× acceptance target and clamped at 1.0: the
/// headline requirement is "at least 5×", not a particular margin above it.
fn flow_speedup_at_matched_rmse(doc: &Json) -> Option<f64> {
    let raw = doc.get("results")?.get("flow")?.get("speedup_at_matched_rmse")?.as_f64()?;
    Some((raw / 5.0).min(1.0))
}

/// Accuracy side of the matched-RMSE headline: 1.0 when the matched flow
/// RMSE is within 10% of the 100-step SDE baseline (ratio ≤ 1.1), falling
/// off as the corridor is missed.
fn flow_matched_rmse_ratio(doc: &Json) -> Option<f64> {
    let ratio = doc.get("results")?.get("flow")?.get("matched_rmse_ratio")?.as_f64()?;
    (ratio > 0.0).then(|| (1.1 / ratio).min(1.0))
}

/// Strong-scaling speedup at a fixed rank count (rank counts shared by the
/// quick and full ladders, so the ratio is comparable across shapes).
fn strong_speedup_at(doc: &Json, ranks: i64) -> Option<f64> {
    let rows = doc.get("results")?.get("strong")?.as_arr()?;
    rows.iter()
        .find(|r| r.get("ranks").and_then(Json::as_i64) == Some(ranks))?
        .get("speedup")?
        .as_f64()
}

fn strong_speedup_2(doc: &Json) -> Option<f64> {
    strong_speedup_at(doc, 2)
}

fn strong_speedup_4(doc: &Json) -> Option<f64> {
    strong_speedup_at(doc, 4)
}

/// The perf-suite metrics, the flow-matching headline: the committed
/// baseline must demonstrate ≥5× analysis speedup (scaled metric = 1.0) at
/// RMSE within 10% of the 100-step SDE. The fresh-run tolerances are loose
/// because the quick OSSE is tiny and its matched step count jitters; the
/// acceptance floors bind on the committed artifact.
const PERF_METRICS: &[Metric] = &[
    Metric {
        name: "flow.speedup_at_matched_rmse",
        tolerance: 0.60,
        min_baseline: Some(1.0),
        extract: flow_speedup_at_matched_rmse,
    },
    Metric {
        name: "flow.matched_rmse_ratio",
        tolerance: 0.30,
        min_baseline: Some(1.0),
        extract: flow_matched_rmse_ratio,
    },
];

/// The scaling-suite metrics.
const SCALING_METRICS: &[Metric] = &[
    Metric {
        name: "scaling.strong_speedup@2",
        tolerance: 0.40,
        min_baseline: None,
        extract: strong_speedup_2,
    },
    Metric {
        name: "scaling.strong_speedup@4",
        tolerance: 0.60,
        min_baseline: None,
        extract: strong_speedup_4,
    },
];

/// A named field of one elastic-suite scenario row.
fn elastic_scenario_field(doc: &Json, scenario: &str, field: &str) -> Option<f64> {
    let rows = doc.get("results")?.get("scenarios")?.as_arr()?;
    rows.iter()
        .find(|r| r.get("name").and_then(Json::as_str) == Some(scenario))?
        .get(field)?
        .as_f64()
}

fn elastic_hit_rate_clean(doc: &Json) -> Option<f64> {
    elastic_scenario_field(doc, "clean", "hit_rate")
}

fn elastic_hit_rate_kill(doc: &Json) -> Option<f64> {
    elastic_scenario_field(doc, "one_kill", "hit_rate")
}

fn elastic_hit_rate_straggler(doc: &Json) -> Option<f64> {
    elastic_scenario_field(doc, "straggler", "hit_rate")
}

/// Fraction of scripted cycles the killed run still completed — survival
/// of the cycling loop, independent of the analysis ladder's rungs.
fn elastic_kill_completion(doc: &Json) -> Option<f64> {
    let done = elastic_scenario_field(doc, "one_kill", "completed_cycles")?;
    let cycles = elastic_scenario_field(doc, "one_kill", "cycles")?;
    (cycles > 0.0).then(|| done / cycles)
}

/// The elastic-suite metrics. Hit-rates are genuine ratios in `[0, 1]` and
/// shape-independent, so the tolerances are tight: with a baseline of 1.0
/// the 5% tolerance on the killed run is exactly the ≥ 0.95 acceptance
/// floor of the fault-tolerance study.
const ELASTIC_METRICS: &[Metric] = &[
    Metric {
        name: "elastic.hit_rate_clean",
        tolerance: 0.01,
        min_baseline: None,
        extract: elastic_hit_rate_clean,
    },
    Metric {
        name: "elastic.hit_rate_kill",
        tolerance: 0.05,
        min_baseline: None,
        extract: elastic_hit_rate_kill,
    },
    Metric {
        name: "elastic.hit_rate_straggler",
        tolerance: 0.25,
        min_baseline: None,
        extract: elastic_hit_rate_straggler,
    },
    Metric {
        name: "elastic.kill_completion",
        tolerance: 0.01,
        min_baseline: None,
        extract: elastic_kill_completion,
    },
];

/// A named field of one scenario-suite `(scenario, method)` row.
fn scenario_field(doc: &Json, scenario: &str, method: &str, field: &str) -> Option<f64> {
    let rows = doc.get("results")?.get("scenarios")?.as_arr()?;
    rows.iter()
        .find(|r| {
            r.get("scenario").and_then(Json::as_str) == Some(scenario)
                && r.get("method").and_then(Json::as_str) == Some(method)
        })?
        .get(field)?
        .as_f64()
}

/// Unobserved-region RMSE advantage of the inpainting EnSF over the
/// mask-ignoring baseline on the headline 25 % block outage, scaled
/// against the ≥1.25× acceptance target and clamped at 1.0 (the
/// requirement is "at least 25 % better", not a particular margin; in
/// practice the ratio is ~10×, and a diverged baseline serializes its
/// RMSE as `null` ⇒ skip, caught by the divergence of the ratio itself
/// on the committed artifact).
fn scenario_inpaint_advantage(doc: &Json) -> Option<f64> {
    let inpaint = scenario_field(doc, "block25", "ensf_inpaint", "rmse_unobserved")?;
    let ignore = scenario_field(doc, "block25", "ensf_ignore", "rmse_unobserved")?;
    (inpaint > 0.0).then(|| (ignore / inpaint / 1.25).min(1.0))
}

/// The same unobserved-region advantage for the few-step probability-flow
/// inpainting variant.
fn scenario_flow_advantage(doc: &Json) -> Option<f64> {
    let inpaint = scenario_field(doc, "block25", "flow_inpaint", "rmse_unobserved")?;
    let ignore = scenario_field(doc, "block25", "ensf_ignore", "rmse_unobserved")?;
    (inpaint > 0.0).then(|| (ignore / inpaint / 1.25).min(1.0))
}

/// Latency side of the headline: the inpainting analysis must fit the
/// masked-LETKF latency budget. Scaled `letkf_secs / inpaint_secs`,
/// clamped at 1.0 (≥1 ⇒ inpainting is at least as fast).
fn scenario_inpaint_latency(doc: &Json) -> Option<f64> {
    let inpaint = scenario_field(doc, "block25", "ensf_inpaint", "analysis_secs")?;
    let letkf = scenario_field(doc, "block25", "letkf_masked", "analysis_secs")?;
    (inpaint > 0.0).then(|| (letkf / inpaint).min(1.0))
}

/// The scenario-suite metrics. The advantage ratios clamp at their
/// acceptance targets, so the committed baseline must demonstrate the
/// full headline (scaled 1.0) while quick fresh runs only need to stay
/// within tolerance of it.
const SCENARIO_METRICS: &[Metric] = &[
    Metric {
        name: "scenario.inpaint_advantage",
        tolerance: 0.50,
        min_baseline: Some(1.0),
        extract: scenario_inpaint_advantage,
    },
    Metric {
        name: "scenario.flow_advantage",
        tolerance: 0.50,
        min_baseline: Some(1.0),
        extract: scenario_flow_advantage,
    },
    Metric {
        name: "scenario.inpaint_latency_vs_letkf",
        tolerance: 0.50,
        min_baseline: Some(1.0),
        extract: scenario_inpaint_latency,
    },
];

/// Outcome of one metric comparison.
#[derive(Debug, PartialEq)]
enum Verdict {
    Ok { fresh: f64, baseline: f64 },
    Regressed { fresh: f64, baseline: f64, floor: f64 },
    /// The committed baseline itself fails the metric's absolute
    /// acceptance floor — a stale or regressed artifact, not a fresh-run
    /// problem.
    BaselineBelowFloor { baseline: f64, floor: f64 },
    Skipped,
}

fn judge(metric: &Metric, fresh: &Json, baseline: &Json) -> Verdict {
    match ((metric.extract)(fresh), (metric.extract)(baseline)) {
        (Some(f), Some(b)) => {
            if let Some(min) = metric.min_baseline {
                if b < min {
                    return Verdict::BaselineBelowFloor { baseline: b, floor: min };
                }
            }
            let floor = b * (1.0 - metric.tolerance);
            if f < floor {
                Verdict::Regressed { fresh: f, baseline: b, floor }
            } else {
                Verdict::Ok { fresh: f, baseline: b }
            }
        }
        _ => Verdict::Skipped,
    }
}

/// Judges every metric of one suite pair; returns the number of failures.
fn gate_suite(label: &str, metrics: &[Metric], fresh: &Json, baseline: &Json) -> usize {
    println!("{label}:");
    let mut failures = 0;
    for m in metrics {
        match judge(m, fresh, baseline) {
            Verdict::Ok { fresh, baseline } => {
                println!(
                    "  {:<28} fresh {:>10.4}  baseline {:>10.4}  (tol {:.0}%)  ok",
                    m.name,
                    fresh,
                    baseline,
                    m.tolerance * 100.0
                );
            }
            Verdict::Regressed { fresh, baseline, floor } => {
                println!(
                    "  {:<28} fresh {:>10.4}  baseline {:>10.4}  floor {:.4}  REGRESSED",
                    m.name, fresh, baseline, floor
                );
                failures += 1;
            }
            Verdict::BaselineBelowFloor { baseline, floor } => {
                println!(
                    "  {:<28} baseline {:>10.4} below acceptance floor {:.4}  BASELINE FAILS",
                    m.name, baseline, floor
                );
                failures += 1;
            }
            Verdict::Skipped => {
                println!("  {:<28} skipped (missing from fresh or baseline)", m.name);
            }
        }
    }
    failures
}

/// One gated suite: its console label, the `<key>` of its
/// `--fresh-<key>` / `--baseline-<key>` flags and committed
/// `BENCH_<key>.json`, and its metrics.
struct Suite {
    label: &'static str,
    key: &'static str,
    metrics: &'static [Metric],
}

const SUITES: &[Suite] = &[
    Suite { label: "perf_suite", key: "perf", metrics: PERF_METRICS },
    Suite { label: "scaling_suite", key: "scaling", metrics: SCALING_METRICS },
    Suite { label: "elastic_suite", key: "elastic", metrics: ELASTIC_METRICS },
    Suite { label: "scenario_suite", key: "scenarios", metrics: SCENARIO_METRICS },
];

/// Parses the JSON file at `path`; `what` names it in the panic message.
fn read_json(path: &str, what: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {what} {path}: {e}"));
    telemetry::json::parse(&text).unwrap_or_else(|e| panic!("{what} {path} is not valid JSON: {e}"))
}

fn load(args: &[String], flag: &str) -> Option<Json> {
    let path = args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1))?;
    Some(read_json(path, flag))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    println!("bench_gate: fresh-vs-baseline regression check on derived ratios\n");

    let mut failures = 0;
    let mut compared = 0;
    for suite in SUITES {
        let fresh = load(&args, &format!("--fresh-{}", suite.key));
        let base = load(&args, &format!("--baseline-{}", suite.key));
        if let (Some(fresh), Some(base)) = (fresh, base) {
            failures += gate_suite(suite.label, suite.metrics, &fresh, &base);
            compared += 1;
        }
    }
    if compared == 0 {
        eprintln!(
            "bench_gate: nothing to compare; pass --fresh-perf/--baseline-perf, \
             --fresh-scaling/--baseline-scaling, --fresh-elastic/--baseline-elastic \
             and/or --fresh-scenarios/--baseline-scenarios"
        );
        std::process::exit(2);
    }
    if failures > 0 {
        eprintln!("\nbench_gate: {failures} metric(s) regressed");
        std::process::exit(1);
    }
    println!("\nbench_gate: all compared metrics within tolerance");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow_doc(speedup: f64, ratio: f64) -> Json {
        Json::obj(vec![(
            "results",
            Json::obj(vec![(
                "flow",
                Json::obj(vec![
                    ("speedup_at_matched_rmse", Json::Num(speedup)),
                    ("matched_rmse_ratio", Json::Num(ratio)),
                ]),
            )]),
        )])
    }

    fn scaling_doc(speedups: &[(i64, f64)]) -> Json {
        let rows: Vec<Json> = speedups
            .iter()
            .map(|&(r, s)| {
                Json::obj(vec![("ranks", Json::Int(r)), ("speedup", Json::Num(s))])
            })
            .collect();
        Json::obj(vec![("results", Json::obj(vec![("strong", Json::Arr(rows))]))])
    }

    fn elastic_doc(rows: &[(&str, f64, f64, f64)]) -> Json {
        let scenarios: Vec<Json> = rows
            .iter()
            .map(|&(name, hit, done, cycles)| {
                Json::obj(vec![
                    ("name", Json::from(name)),
                    ("hit_rate", Json::Num(hit)),
                    ("completed_cycles", Json::Num(done)),
                    ("cycles", Json::Num(cycles)),
                ])
            })
            .collect();
        Json::obj(vec![(
            "results",
            Json::obj(vec![("scenarios", Json::Arr(scenarios))]),
        )])
    }

    /// `(scenario, method, rmse_unobserved, analysis_secs)` rows.
    fn scenario_doc(rows: &[(&str, &str, f64, f64)]) -> Json {
        let scenarios: Vec<Json> = rows
            .iter()
            .map(|&(scenario, method, unobs, secs)| {
                Json::obj(vec![
                    ("scenario", Json::from(scenario)),
                    ("method", Json::from(method)),
                    ("rmse_unobserved", Json::Num(unobs)),
                    ("analysis_secs", Json::Num(secs)),
                ])
            })
            .collect();
        Json::obj(vec![(
            "results",
            Json::obj(vec![("scenarios", Json::Arr(scenarios))]),
        )])
    }

    #[test]
    fn scenario_extractors_scale_against_the_acceptance_targets() {
        let doc = scenario_doc(&[
            ("block25", "ensf_inpaint", 0.0626, 0.02),
            ("block25", "flow_inpaint", 0.1228, 0.02),
            ("block25", "ensf_ignore", 1.0856, 0.018),
            ("block25", "letkf_masked", 0.0065, 0.41),
        ]);
        // 17.3× and 8.8× against the 1.25× target clamp to 1.0; LETKF is
        // 20× slower, so the latency ratio clamps too.
        assert_eq!(scenario_inpaint_advantage(&doc), Some(1.0));
        assert_eq!(scenario_flow_advantage(&doc), Some(1.0));
        assert_eq!(scenario_inpaint_latency(&doc), Some(1.0));
        // A narrow 1.1× win scales below the clamp.
        let narrow = scenario_doc(&[
            ("block25", "ensf_inpaint", 1.0, 0.02),
            ("block25", "ensf_ignore", 1.1, 0.018),
        ]);
        let v = scenario_inpaint_advantage(&narrow).unwrap();
        assert!((v - 1.1 / 1.25).abs() < 1e-12);
        // Missing rows and degenerate values are skips, not failures.
        assert_eq!(scenario_flow_advantage(&narrow), None);
        assert_eq!(scenario_inpaint_advantage(&Json::Null), None);
        let degenerate = scenario_doc(&[
            ("block25", "ensf_inpaint", 0.0, 0.02),
            ("block25", "ensf_ignore", 1.0, 0.018),
        ]);
        assert_eq!(scenario_inpaint_advantage(&degenerate), None);
    }

    #[test]
    fn scenario_advantage_floor_binds_on_the_committed_artifact() {
        let m =
            SCENARIO_METRICS.iter().find(|m| m.name == "scenario.inpaint_advantage").unwrap();
        // A committed baseline that fails the ≥1.25× headline fails the
        // gate outright, even against an identical fresh run.
        let weak = scenario_doc(&[
            ("block25", "ensf_inpaint", 1.0, 0.02),
            ("block25", "ensf_ignore", 1.1, 0.018),
        ]);
        assert!(matches!(judge(m, &weak, &weak), Verdict::BaselineBelowFloor { .. }));
        // A strong baseline with a jittery quick fresh run inside the 50 %
        // tolerance passes; a fresh run that loses the advantage fails.
        let strong = scenario_doc(&[
            ("block25", "ensf_inpaint", 0.06, 0.02),
            ("block25", "ensf_ignore", 1.08, 0.018),
        ]);
        let jittery = scenario_doc(&[
            ("block25", "ensf_inpaint", 1.0, 0.02),
            ("block25", "ensf_ignore", 0.6, 0.018),
        ]);
        assert!(matches!(judge(m, &strong, &strong), Verdict::Ok { .. }));
        assert!(matches!(judge(m, &jittery, &strong), Verdict::Regressed { .. }));
    }

    #[test]
    fn extractors_pull_the_right_numbers() {
        let sc = scaling_doc(&[(1, 1.0), (2, 1.9), (4, 3.4)]);
        assert_eq!(strong_speedup_2(&sc), Some(1.9));
        assert_eq!(strong_speedup_4(&sc), Some(3.4));
        assert_eq!(strong_speedup_at(&sc, 16), None, "absent rank row is a skip");
    }

    #[test]
    fn elastic_extractors_pull_scenario_rows() {
        let doc = elastic_doc(&[
            ("clean", 1.0, 10.0, 10.0),
            ("one_kill", 0.97, 10.0, 10.0),
            ("straggler", 0.9, 10.0, 10.0),
        ]);
        assert_eq!(elastic_hit_rate_clean(&doc), Some(1.0));
        assert_eq!(elastic_hit_rate_kill(&doc), Some(0.97));
        assert_eq!(elastic_hit_rate_straggler(&doc), Some(0.9));
        assert_eq!(elastic_kill_completion(&doc), Some(1.0));
        // Absent scenario rows are skips, not failures.
        let partial = elastic_doc(&[("clean", 1.0, 10.0, 10.0)]);
        assert_eq!(elastic_hit_rate_kill(&partial), None);
        assert_eq!(elastic_kill_completion(&partial), None);
    }

    #[test]
    fn kill_hit_rate_gate_encodes_the_acceptance_floor() {
        let m = ELASTIC_METRICS.iter().find(|m| m.name == "elastic.hit_rate_kill").unwrap();
        let base = elastic_doc(&[("one_kill", 1.0, 10.0, 10.0)]);
        let passing = elastic_doc(&[("one_kill", 0.95, 10.0, 10.0)]);
        assert!(matches!(judge(m, &passing, &base), Verdict::Ok { .. }));
        let failing = elastic_doc(&[("one_kill", 0.90, 10.0, 10.0)]);
        assert!(matches!(judge(m, &failing, &base), Verdict::Regressed { .. }));
    }

    #[test]
    fn within_tolerance_passes_and_regression_fails() {
        let m = &SCALING_METRICS[0]; // strong_speedup@2, tol 0.40
        let base = scaling_doc(&[(2, 1.9)]);
        // 60% of baseline is exactly the floor: not a regression.
        let at_floor = scaling_doc(&[(2, 1.9 * (1.0 - m.tolerance))]);
        assert!(matches!(judge(m, &at_floor, &base), Verdict::Ok { .. }));
        let below = scaling_doc(&[(2, 1.9 * (1.0 - m.tolerance) - 0.01)]);
        assert!(matches!(judge(m, &below, &base), Verdict::Regressed { .. }));
        let better = scaling_doc(&[(2, 2.0)]);
        assert!(matches!(judge(m, &better, &base), Verdict::Ok { .. }));
    }

    #[test]
    fn missing_metrics_are_skipped_not_failed() {
        let m = &SCALING_METRICS[1]; // strong_speedup@4
        let base = scaling_doc(&[(1, 1.0), (2, 1.9)]); // no rank-4 row
        let fresh = scaling_doc(&[(1, 1.0), (2, 1.8), (4, 3.0)]);
        assert_eq!(judge(m, &fresh, &base), Verdict::Skipped);
        // Entirely malformed documents also skip.
        assert_eq!(judge(m, &Json::Null, &fresh), Verdict::Skipped);
    }

    #[test]
    fn gate_suite_counts_failures() {
        let base = scaling_doc(&[(2, 1.9), (4, 3.4)]);
        let bad = scaling_doc(&[(2, 0.5), (4, 3.3)]); // only @2 regresses
        assert_eq!(gate_suite("t", SCALING_METRICS, &bad, &base), 1);
        assert_eq!(gate_suite("t", SCALING_METRICS, &base, &base), 0);
    }

    #[test]
    fn flow_extractors_scale_against_the_acceptance_targets() {
        // 27.3× against the 5× target clamps to 1.0; 2.6× scales to 0.52.
        let strong = flow_doc(27.3, 0.978);
        assert_eq!(flow_speedup_at_matched_rmse(&strong), Some(1.0));
        assert_eq!(flow_matched_rmse_ratio(&strong), Some(1.0));
        let weak = flow_doc(2.6, 1.2);
        assert_eq!(flow_speedup_at_matched_rmse(&weak), Some(2.6 / 5.0));
        let ratio = flow_matched_rmse_ratio(&weak).unwrap();
        assert!((ratio - 1.1 / 1.2).abs() < 1e-12);
        // Degenerate / absent values are skips, not failures.
        let degenerate = flow_doc(5.0, 0.0);
        assert_eq!(flow_matched_rmse_ratio(&degenerate), None);
        assert_eq!(flow_speedup_at_matched_rmse(&Json::Null), None);
    }

    #[test]
    fn flow_baseline_floor_binds_on_the_committed_artifact() {
        let m = PERF_METRICS
            .iter()
            .find(|m| m.name == "flow.speedup_at_matched_rmse")
            .unwrap();
        // Committed baseline below 5×: the gate fails even when the fresh
        // run matches it exactly — the headline is absolute, not relative.
        let weak_base = flow_doc(4.0, 0.98);
        assert!(matches!(
            judge(m, &weak_base, &weak_base),
            Verdict::BaselineBelowFloor { .. }
        ));
        // Committed baseline at 27× with a jittery quick fresh run at 2.6×:
        // scaled 0.52 against floor 1.0·(1−0.60) = 0.40 — passes.
        let base = flow_doc(27.3, 0.978);
        let fresh = flow_doc(2.6, 1.05);
        assert!(matches!(judge(m, &fresh, &base), Verdict::Ok { .. }));
        // But a fresh run whose scaled speedup collapses below the floor fails.
        let dead = flow_doc(1.5, 1.05);
        assert!(matches!(judge(m, &dead, &base), Verdict::Regressed { .. }));
    }

    #[test]
    fn flow_rmse_corridor_floor_rejects_inaccurate_baselines() {
        let m = PERF_METRICS
            .iter()
            .find(|m| m.name == "flow.matched_rmse_ratio")
            .unwrap();
        // Ratio 1.2 > 1.1: scaled 0.917 < 1.0 floor → the baseline itself
        // fails the accuracy corridor.
        let off = flow_doc(27.3, 1.2);
        assert!(matches!(
            judge(m, &off, &off),
            Verdict::BaselineBelowFloor { .. }
        ));
        let good = flow_doc(27.3, 0.978);
        assert!(matches!(judge(m, &good, &good), Verdict::Ok { .. }));
    }

    /// A metric missing from a file is a skip, never a failure, so a
    /// trimmed artifact could silently drop a gate: every committed
    /// baseline must carry every row of its suite's table, at or above the
    /// row's acceptance floor.
    #[test]
    fn committed_baselines_carry_every_gated_metric() {
        for suite in SUITES {
            let path =
                format!("{}/../../BENCH_{}.json", env!("CARGO_MANIFEST_DIR"), suite.key);
            let doc = read_json(&path, suite.label);
            for m in suite.metrics {
                let value = (m.extract)(&doc)
                    .unwrap_or_else(|| panic!("{path} lacks gated metric {}", m.name));
                if let Some(min) = m.min_baseline {
                    assert!(value >= min, "{path}: {} = {value} below floor {min}", m.name);
                }
            }
        }
    }
}
