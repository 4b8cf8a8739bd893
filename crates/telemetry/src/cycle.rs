//! Per-cycle data-assimilation diagnostics.
//!
//! The cycle loop builds one [`CycleRecord`] per executed cycle: cycle
//! index, forecast hours, analysis RMSE, ensemble spread, observation
//! count, per-phase wall-clock timings, the cycle's events and its filter
//! diagnostics. The records belong to the run that made them (its
//! per-cycle log); [`CycleRecord::to_json`] writes one as a JSON line and
//! [`parse_jsonl`] reads such lines back.

use crate::diagnostics::DaDiagnostics;
use crate::json::{self, Json};

/// Diagnostics for one assimilation cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleRecord {
    /// Experiment / scheme label, e.g. `"EnSF"` or `"LETKF"`.
    pub label: String,
    /// Zero-based cycle index.
    pub cycle: usize,
    /// Simulated forecast hours elapsed at this cycle.
    pub hours: f64,
    /// Analysis root-mean-square error against truth.
    pub rmse: f64,
    /// Ensemble spread after analysis.
    pub spread: f64,
    /// Number of observations assimilated this cycle.
    pub obs_count: usize,
    /// `(phase name, wall-clock seconds)` pairs, e.g.
    /// `[("forecast", 0.12), ("analysis", 0.05)]`.
    pub phases: Vec<(String, f64)>,
    /// Resilience events raised during the cycle, e.g.
    /// `["member_quarantined:3", "analysis_retry:1"]` (empty when healthy).
    pub events: Vec<String>,
    /// Statistical filter-health diagnostics (innovation moments, chi²,
    /// rank histogram, spread–skill), when the harness computed them.
    pub diagnostics: Option<DaDiagnostics>,
}

impl CycleRecord {
    /// Serializes to a JSON object. The `diagnostics` key is emitted only
    /// when present, so records from harnesses that don't compute
    /// diagnostics keep their old shape.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("label", Json::from(self.label.as_str())),
            ("cycle", Json::from(self.cycle)),
            ("hours", Json::Num(self.hours)),
            ("rmse", Json::Num(self.rmse)),
            ("spread", Json::Num(self.spread)),
            ("obs_count", Json::from(self.obs_count)),
            (
                "phases",
                Json::Obj(
                    self.phases.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect(),
                ),
            ),
            (
                "events",
                Json::Arr(self.events.iter().map(|e| Json::from(e.as_str())).collect()),
            ),
        ];
        if let Some(d) = &self.diagnostics {
            pairs.push(("diagnostics", d.to_json()));
        }
        Json::obj(pairs)
    }

    /// Deserializes from the object shape produced by [`to_json`].
    ///
    /// `cycle` and `obs_count` must be non-negative integers: a count
    /// written as `-1`, `2.5` or `1e300` is an error naming its key. A
    /// float written as `null` (non-finite, e.g. the NaN `rmse` of a failed
    /// analysis) reads back as NaN.
    pub fn from_json(v: &Json) -> Result<CycleRecord, String> {
        let f = |k: &str| v.get(k).and_then(Json::as_float).ok_or_else(|| format!("missing {k}"));
        let count = |k: &str| match v.get(k) {
            Some(&Json::Int(n)) => usize::try_from(n).map_err(|_| format!("negative {k}: {n}")),
            Some(other) => Err(format!("{k} must be a non-negative integer, got {other}")),
            None => Err(format!("missing {k}")),
        };
        let phases = match v.get("phases") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, pv)| {
                    pv.as_float().map(|s| (k.clone(), s)).ok_or_else(|| format!("bad phase {k}"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing phases".into()),
        };
        // `events` is absent in records written before the resilience layer.
        let events = match v.get("events") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|e| e.as_str().map(str::to_string).ok_or("non-string event"))
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err("events must be an array".into()),
            None => Vec::new(),
        };
        // `diagnostics` is optional (absent from pre-observability records
        // and from harnesses that don't compute it); present-but-malformed
        // is an error, not a silent None.
        let diagnostics = match v.get("diagnostics") {
            Some(d) => Some(DaDiagnostics::from_json(d)?),
            None => None,
        };
        Ok(CycleRecord {
            label: v
                .get("label")
                .and_then(Json::as_str)
                .ok_or("missing label")?
                .to_string(),
            cycle: count("cycle")?,
            hours: f("hours")?,
            rmse: f("rmse")?,
            spread: f("spread")?,
            obs_count: count("obs_count")?,
            phases,
            events,
            diagnostics,
        })
    }
}

/// Parses a JSONL string back into records; errors carry the line number.
// lint: allow(dead-pub, reason="reads back what to_json wrote in jsonl_round_trip, legacy_records_without_events_parse, malformed_diagnostics_are_rejected_not_dropped and bad_lines_report_position")
pub fn parse_jsonl(text: &str) -> Result<Vec<CycleRecord>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            CycleRecord::from_json(&v).map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(cycle: usize) -> CycleRecord {
        CycleRecord {
            label: "EnSF".into(),
            cycle,
            hours: cycle as f64 * 6.0,
            rmse: 0.1 / (cycle + 1) as f64,
            spread: 0.08,
            obs_count: 128,
            phases: vec![("forecast".into(), 0.012), ("analysis".into(), 0.034)],
            events: if cycle % 2 == 1 { vec![format!("member_quarantined:{cycle}")] } else { Vec::new() },
            diagnostics: if cycle.is_multiple_of(2) {
                Some(crate::DaDiagnostics {
                    of_mean: 0.001,
                    of_var: 0.02,
                    oa_mean: 0.0004,
                    oa_var: 0.008,
                    chi2: 1.05,
                    spread_skill: 0.9,
                    rank_hist: vec![2, 4, 6, 4, 2],
                })
            } else {
                None
            },
        }
    }

    #[test]
    fn legacy_records_without_events_parse() {
        // Records written before the resilience layer carry no `events` key.
        let legacy = "{\"label\":\"EnSF\",\"cycle\":0,\"hours\":0,\"rmse\":0.1,\
                      \"spread\":0.08,\"obs_count\":4,\"phases\":{\"analysis\":0.01}}\n";
        let recs = parse_jsonl(legacy).unwrap();
        assert_eq!(recs.len(), 1);
        assert!(recs[0].events.is_empty());
    }

    #[test]
    fn jsonl_round_trip() {
        // A failed analysis carries NaN, which JSON writes as `null`.
        let mut failed = sample(0);
        failed.rmse = f64::NAN;
        let d = failed.diagnostics.as_mut().unwrap();
        (d.chi2, d.oa_mean) = (f64::NAN, f64::NAN);
        let records: Vec<_> = (0..4).map(sample).chain([failed]).collect();
        let write = |records: &[CycleRecord]| -> String {
            records.iter().map(|r| format!("{}\n", r.to_json())).collect()
        };
        let text = write(&records);
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back[..4], records[..4]);
        // NaN != NaN, so the failed record is compared by what it writes.
        assert_eq!(write(&back), text);
        assert!(back[4].rmse.is_nan());
    }

    #[test]
    fn bad_lines_report_position() {
        let err = parse_jsonl("{\"label\":\"x\"}\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");

        // Impossible counts are errors naming their key, never clamped,
        // truncated or saturated into a usize.
        let good = sample(0).to_json().to_string();
        for (key, bad) in [("cycle", "-1"), ("cycle", "2.5"), ("obs_count", "1e300")] {
            let from = format!("\"{key}\":{}", if key == "cycle" { "0" } else { "128" });
            let line = good.replace(&from, &format!("\"{key}\":{bad}"));
            assert_ne!(line, good, "replacement must have applied");
            let err = parse_jsonl(&format!("{good}\n{line}\n")).unwrap_err();
            assert!(err.starts_with("line 2:") && err.contains(key), "{key}={bad}: {err}");
        }
    }

    #[test]
    fn malformed_diagnostics_are_rejected_not_dropped() {
        // A record with a `diagnostics` key that is not a valid object
        // must fail parsing (absent is fine; corrupt is not).
        let good = sample(0).to_json().to_string();
        let bad = good.replace("\"diagnostics\":{", "\"diagnostics\":[{");
        assert_ne!(good, bad, "replacement must have applied");
        // The mutation breaks JSON nesting, or — if it were balanced —
        // the non-object diagnostics shape; either way line 2 errors.
        let text = format!("{good}\n{bad}\n");
        let err = parse_jsonl(&text).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");

        // Balanced but wrong-typed diagnostics also fail.
        let wrong = good.replace(
            "\"diagnostics\":{",
            "\"diagnostics\":true,\"unused\":{",
        );
        let err2 = parse_jsonl(&wrong).unwrap_err();
        assert!(err2.contains("diagnostics"), "{err2}");
    }
}
