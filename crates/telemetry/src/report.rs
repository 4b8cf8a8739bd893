//! Whole-process telemetry snapshots and the bench `--json` writer.

use crate::json::Json;
use crate::{metrics, span};
use std::path::Path;

/// One JSON object summarizing every span, counter, gauge and histogram
/// collected so far.
///
/// Shape:
/// ```json
/// {
///   "spans":      { "osse.cycle": {"count":5,"total_secs":...,"min_secs":...,"max_secs":...}, ... },
///   "counters":   { "fft.calls": 1234, ... },
///   "gauges":     { "vit.train.loss": 0.73, ... },
///   "histograms": { "ensf.score.secs": {"count":...,"mean":...,"p50":...,"p99":...,"min":...,"max":...}, ... }
/// }
/// ```
pub fn snapshot_json() -> Json {
    let spans = span::span_snapshot()
        .into_iter()
        .map(|s| {
            (
                s.path,
                Json::obj(vec![
                    ("count", Json::from(s.count)),
                    ("total_secs", Json::Num(s.total_secs)),
                    ("min_secs", Json::Num(s.min_secs)),
                    ("max_secs", Json::Num(s.max_secs)),
                ]),
            )
        })
        .collect();
    let counters = metrics::all_counters()
        .into_iter()
        .map(|(name, v)| (name, Json::from(v)))
        .collect();
    let gauges = metrics::all_gauges()
        .into_iter()
        .map(|(name, v)| (name, Json::Num(v)))
        .collect();
    let histograms = metrics::all_histograms()
        .into_iter()
        .map(|h| {
            let mean = h.mean();
            let p50 = h.quantile(0.5);
            let p99 = h.quantile(0.99);
            (
                h.name.clone(),
                Json::obj(vec![
                    ("count", Json::from(h.count)),
                    ("sum", Json::Num(h.sum)),
                    ("mean", mean.map(Json::Num).unwrap_or(Json::Null)),
                    ("p50", p50.map(Json::Num).unwrap_or(Json::Null)),
                    ("p99", p99.map(Json::Num).unwrap_or(Json::Null)),
                    ("min", Json::Num(h.min)),
                    ("max", Json::Num(h.max)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("spans", Json::Obj(spans)),
        ("counters", Json::Obj(counters)),
        ("gauges", Json::Obj(gauges)),
        ("histograms", Json::Obj(histograms)),
    ])
}

/// Writes `payload` (typically a bench result object, optionally merged
/// with [`snapshot_json`]) to `path` as pretty-enough single-line JSON.
pub fn write_json(path: &Path, payload: &Json) -> std::io::Result<()> {
    std::fs::write(path, format!("{payload}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn snapshot_is_valid_json_with_all_sections() {
        let _lock = crate::TEST_LOCK.lock();
        crate::set_enabled(true);
        crate::reset();
        crate::counter_add("snap.counter", 7);
        crate::gauge_set("snap.gauge", 2.5);
        crate::histogram_record("snap.hist", 1.0);
        {
            let _g = crate::span!("snap.span");
        }
        let snap = snapshot_json();
        let back = json::parse(&snap.to_string()).unwrap();
        for key in ["spans", "counters", "gauges", "histograms"] {
            assert!(back.get(key).is_some(), "missing {key}");
        }
        assert_eq!(back.get("counters").unwrap().get("snap.counter").unwrap().as_i64(), Some(7));
    }
}
