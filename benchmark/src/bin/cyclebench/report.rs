//! What is reported and how it is judged: the end-to-end metric table with
//! its bounds, the result file, and the `compare` of two result files.

use crate::adapter::Json;
use crate::bench::{Layers, Measured, Metric};
use crate::stat::iqr_share;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// An end-to-end metric and the share of the base value by which it may
/// worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Relative bound; 0 means any worsening counts (`failed_share`).
    pub bound: f64,
}

/// The end-to-end metrics, reported per workload. The timing bounds are wide
/// because the sandbox's own speed wanders by that much (see the README).
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "cycle_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cycles_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "steady_rmse",
        unit: "state",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "spread_skill_ln",
        unit: "ln",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "failed_share",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// The end-to-end metrics `BENCHMARK.json` leaves out. `failed_share` is zero
/// on a healthy tree and the contract's metrics must never be zero; it is
/// carried by the output line's `failed`/`attempted`. `spread_skill_ln` moves
/// with the seed (IQR 8-36% of the median over ten seeds), and the contract
/// varies the seed between runs.
pub const NOT_IN_CONTRACT: [&str; 2] = ["failed_share", "spread_skill_ln"];

/// The per-layer metrics `BENCHMARK.json` lists: the ones defined on all four
/// workloads. The result file carries more (tails, cross-workload ratios).
pub const CONTRACT_PER_LAYER: [&str; 33] = [
    "core.cycle_s_p50",
    "core.forecast_s_p50",
    "core.analysis_s_p50",
    "core.verify_s_p50",
    "core.loop_self_s_p50",
    "core.forecast_share",
    "core.analysis_share",
    "core.other_share",
    "core.driver_gap_share",
    "sqg.rk4_step_s_p50",
    "sqg.convert_s_p50",
    "sqg.member_forecast_s_p50",
    "sqg.steps_per_cycle",
    "sqg.step_share_of_forecast",
    "fft.fft2_s_p50",
    "fft.share_of_step",
    "fft.plan_cache_misses",
    "ensf.step_s",
    "ensf.gflops_achieved",
    "linalg.abt_gflops",
    "linalg.slices_gflops",
    "stats.normal_fill_ns",
    "stats.mean_spread_s_p50",
    "dist.analyze_s_p50",
    "dist.gather_s_p50",
    "dist.forecast_skew_s_p50",
    "dist.redundant_forecast_cpu_s",
    "dist.collectives_per_cycle",
    "dist.bytes_per_cycle",
    "dist.tile_kernel_1r_s",
    "hpc.allgather_step_s_p50",
    "hpc.allgather_block_s_p50",
    "trace.overhead_share",
];

/// A metric or workload name: `[A-Za-z0-9_.-]+`, first character a letter
/// or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// `{"value": .., "unit": ..}` of one metric.
fn value_unit(m: &Metric) -> Vec<(&'static str, Json)> {
    vec![
        ("value", Json::Num(m.value)),
        ("unit", Json::from(m.unit.as_str())),
    ]
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut pairs = value_unit(m);
                if !m.how.is_empty() {
                    pairs.push(("how", Json::from(m.how.as_str())));
                }
                (m.name.clone(), Json::obj(pairs))
            })
            .collect(),
    )
}

fn nums(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
}

/// The last line the benchmark contract asks for: exactly the named metrics.
///
/// # Errors
/// Names a metric that was not measured (for example the wall-clock metrics
/// of a 2-rank workload on a single core), or an invalid name.
pub fn contract_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[&str],
    measured: &[Metric],
) -> Result<Json, String> {
    let metrics = names
        .iter()
        .map(|&name| {
            if !valid_name(name) {
                return Err(format!("{name:?} is not a valid metric name"));
            }
            let m = measured
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| format!("metric {name} was not measured on this machine"))?;
            Ok((name.to_string(), Json::obj(value_unit(m))))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

/// One workload's entry of the result file.
pub fn workload_json(m: &Measured, layers: Option<&Layers>) -> Json {
    let mut failures: Vec<Json> = m.failures.iter().map(|f| Json::from(f.as_str())).collect();
    let mut pairs = vec![
        ("name", Json::from(m.workload.name)),
        ("reps", Json::from(m.reps)),
        ("cycles", Json::from(m.workload.cycles)),
        ("attempted", Json::from(m.attempted)),
        ("failed", Json::from(m.failed)),
        ("end_to_end", metrics_json(&m.metrics)),
        (
            "samples",
            Json::obj(vec![
                ("cycle_s", nums(&m.rep_cycle_s)),
                ("setup_s", nums(&m.setup_samples)),
            ]),
        ),
    ];
    if let Some(l) = layers {
        failures.extend(l.failures.iter().map(|f| Json::from(f.as_str())));
        pairs.push(("trace_cycles", Json::from(l.cycles)));
        pairs.push(("per_layer", metrics_json(&l.metrics)));
    }
    pairs.push(("failures", Json::Arr(failures)));
    Json::obj(pairs)
}

/// The result file: provenance and one entry per workload.
pub fn result_json(env: Json, workloads: Vec<Json>) -> Json {
    Json::obj(vec![
        ("schema", Json::from("cyclebench/1")),
        ("env", env),
        ("workloads", Json::Arr(workloads)),
    ])
}

/// How one (metric, workload) pair of two result files compares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Not worse than the bound allows.
    Ok,
    /// Worse by more than the bound.
    Worse,
    /// The base's own run-to-run spread is wider than the bound.
    Unresolved,
}

fn samples_of(workload: &Json, metric: &str) -> Vec<f64> {
    workload
        .get("samples")
        .and_then(|s| s.get(metric))
        .and_then(Json::as_arr)
        .map(|xs| xs.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Judges `b` against the base `a` for one metric.
pub fn judge(spec: &EndToEnd, a: f64, b: f64, a_samples: &[f64], b_samples: &[f64]) -> Verdict {
    let worse_by = match spec.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if spec.bound > 0.0 && iqr_share(a_samples).is_some_and(|spread| spread > spec.bound) {
        // Too noisy to call, unless every run of b beats every run of a
        // (the samples of both timing metrics are seconds: lower wins).
        let a_best = a_samples.iter().copied().fold(f64::INFINITY, f64::min);
        let clean_win = !b_samples.is_empty() && b_samples.iter().all(|&x| x < a_best);
        return if clean_win {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > spec.bound * a.abs() {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Compares two result files row by row; returns the table and how many
/// rows are worse.
///
/// # Errors
/// A file that is not a cyclebench result.
pub fn compare(a: &Json, b: &Json) -> Result<(String, usize), String> {
    let workloads = |doc: &Json| -> Result<Vec<Json>, String> {
        if doc.get("schema").and_then(Json::as_str) != Some("cyclebench/1") {
            return Err("not a cyclebench/1 result file".to_string());
        }
        Ok(doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut table = format!(
        "{:<12} {:<16} {:>14} {:>14} {:>9}  {:<6} verdict\n",
        "workload", "metric", "a", "b", "b/a", "bound"
    );
    let mut worse = 0;
    for base in &wa {
        let name = base.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(other) = wb
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            table.push_str(&format!("{name:<12} missing from b\n"));
            worse += 1;
            continue;
        };
        for spec in &END_TO_END {
            let value = |w: &Json| w.get("end_to_end")?.get(spec.name)?.get("value")?.as_f64();
            let (Some(va), Some(vb)) = (value(base), value(other)) else {
                continue;
            };
            // Both timing metrics are judged on the per-rep cycle times.
            let key = if spec.name == "cycles_per_s" {
                "cycle_s"
            } else {
                spec.name
            };
            let verdict = judge(
                spec,
                va,
                vb,
                &samples_of(base, key),
                &samples_of(other, key),
            );
            worse += usize::from(verdict == Verdict::Worse);
            let ratio = if va == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}", vb / va)
            };
            table.push_str(&format!(
                "{name:<12} {:<16} {va:>14.6} {vb:>14.6} {ratio:>9}  {:<6} {}\n",
                spec.name,
                format!("{}%", spec.bound * 100.0),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                },
            ));
        }
    }
    Ok((table, worse))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::parse_json;

    fn m(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            how: String::new(),
        }
    }

    #[test]
    fn names_are_validated() {
        for good in [
            "cycle_s",
            "core.cycle_s_p50",
            "paper_dist2",
            "a-b.c_d",
            "9lives",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "has space",
            "slash/",
            "_lead",
            ".lead",
            "é",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(END_TO_END.iter().all(|e| valid_name(e.name)));
        assert!(CONTRACT_PER_LAYER.iter().all(|n| valid_name(n)));
    }

    #[test]
    fn contract_line_has_exactly_the_named_metrics_and_round_trips() {
        let measured = [
            m("cycle_s", 2.7031, "s"),
            m("setup_s", 4.5, "s"),
            m("extra", 1.0, "count"),
        ];
        let line = contract_line(true, 12, 0, &["cycle_s", "setup_s"], &measured).unwrap();
        let back = parse_json(&line.to_string()).unwrap();
        assert_eq!(back, line);
        assert_eq!(back.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(back.get("attempted").and_then(Json::as_i64), Some(12));
        let Some(Json::Obj(metrics)) = back.get("metrics") else {
            panic!("metrics object")
        };
        assert_eq!(metrics.len(), 2);
        assert_eq!(
            metrics[0].1.get("value").and_then(Json::as_f64),
            Some(2.7031)
        );
        assert_eq!(metrics[1].1.get("unit").and_then(Json::as_str), Some("s"));
        assert!(contract_line(true, 1, 0, &["absent"], &measured).is_err());
    }

    fn result_with(cycle_s: f64, samples: &[f64], failed_share: f64) -> Json {
        let e2e = vec![
            m("cycle_s", cycle_s, "s"),
            m("failed_share", failed_share, "ratio"),
        ];
        let w = Json::obj(vec![
            ("name", Json::from("paper_sde")),
            ("end_to_end", metrics_json(&e2e)),
            ("samples", Json::obj(vec![("cycle_s", nums(samples))])),
        ]);
        result_json(Json::obj(vec![("seed", Json::from(1u64))]), vec![w])
    }

    #[test]
    fn result_file_round_trips_and_compares() {
        let bound = END_TO_END[0].bound;
        let steady = [2.70, 2.71, 2.69, 2.70];
        let a = result_with(2.70, &steady, 0.0);
        assert_eq!(parse_json(&a.to_string()).unwrap(), a);

        let inside = 2.70 * (1.0 + 0.8 * bound);
        let (table, worse) = compare(&a, &result_with(inside, &steady, 0.0)).unwrap();
        assert_eq!(worse, 0, "{table}");
        assert!(
            table.contains(&format!("{:.4}", inside / 2.70)),
            "ratio with base a: {table}"
        );

        let outside = 2.70 * (1.0 + 1.2 * bound);
        let (table, worse) = compare(&a, &result_with(outside, &steady, 0.0)).unwrap();
        assert_eq!(worse, 1, "{table}");
        // Any failure is a regression: the bound on failed_share is absolute.
        let (_, worse) = compare(&a, &result_with(2.70, &steady, 0.25)).unwrap();
        assert_eq!(worse, 1);

        // A base noisier than the bound cannot resolve that difference...
        let noisy = [2.70 * (1.0 - bound), 2.70, 2.70 * (1.0 + bound), 2.70];
        let (table, worse) = compare(
            &result_with(2.70, &noisy, 0.0),
            &result_with(outside, &steady, 0.0),
        )
        .unwrap();
        assert_eq!(worse, 0);
        assert!(table.contains("unresolved"), "{table}");
        // ...unless every run of b beats every run of a.
        let fast = [1.5, 1.6, 1.5, 1.6];
        let (table, _) = compare(
            &result_with(2.70, &noisy, 0.0),
            &result_with(1.55, &fast, 0.0),
        )
        .unwrap();
        assert!(!table.contains("unresolved"), "{table}");

        assert!(compare(&Json::Null, &a).is_err());
    }
}
