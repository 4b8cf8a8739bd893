//! Chrome trace-event timelines.
//!
//! Converts per-rank event streams (forecast, score GEMM, collectives)
//! into the Chrome trace-event JSON Object Format — load the file at
//! `chrome://tracing` or <https://ui.perfetto.dev> to see the cross-rank
//! timeline. Only complete events (`"ph":"X"`) are emitted: one box per
//! event with explicit start and duration, which is all a deterministic
//! replayed timeline needs.

use crate::json::Json;

/// One complete ("X") trace event on some rank's timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name, e.g. `"run_block"` or `"allgather"`.
    pub name: String,
    /// Category: the timeline convention is `"compute"` vs `"comm"` (plus
    /// `"cycle"` for per-cycle envelope rows).
    pub cat: String,
    /// Process id (one pid per experiment).
    pub pid: u32,
    /// Thread id — the rank, so each rank renders as one lane.
    pub tid: u32,
    /// Start timestamp in microseconds.
    pub ts_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Extra `args` shown when the event is selected (byte counts etc.).
    pub args: Vec<(String, Json)>,
}

impl TraceEvent {
    /// Serializes to one Chrome trace-event object.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name".to_string(), Json::from(self.name.as_str())),
            ("cat".to_string(), Json::from(self.cat.as_str())),
            ("ph".to_string(), Json::from("X")),
            ("ts".to_string(), Json::Num(self.ts_us)),
            ("dur".to_string(), Json::Num(self.dur_us)),
            ("pid".to_string(), Json::from(self.pid as u64)),
            ("tid".to_string(), Json::from(self.tid as u64)),
        ];
        if !self.args.is_empty() {
            pairs.push(("args".to_string(), Json::Obj(self.args.clone())));
        }
        Json::Obj(pairs)
    }
}

/// Wraps events in the Chrome trace-event JSON Object Format:
/// `{"traceEvents":[...]}`. Callers may append extra top-level keys
/// (summaries, reconciliation blocks) — the format explicitly allows and
/// ignores unknown keys.
pub fn chrome_trace(events: &[TraceEvent]) -> Json {
    Json::obj(vec![(
        "traceEvents",
        Json::Arr(events.iter().map(TraceEvent::to_json).collect()),
    )])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, cat: &str, tid: u32, ts: f64, dur: f64) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            pid: 1,
            tid,
            ts_us: ts,
            dur_us: dur,
            args: vec![("bytes".to_string(), Json::Int(4096))],
        }
    }

    #[test]
    fn chrome_object_format_round_trips() {
        let events = [ev("run_block", "compute", 0, 0.0, 12.5), ev("allgather", "comm", 1, 12.5, 3.0)];
        let doc = chrome_trace(&events);
        let back = crate::json::parse(&doc.to_string()).unwrap();
        let arr = back.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 2);
        for e in arr {
            assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
            for key in ["name", "cat", "ts", "dur", "pid", "tid"] {
                assert!(e.get(key).is_some(), "missing {key}");
            }
        }
        assert_eq!(arr[1].get("cat").and_then(Json::as_str), Some("comm"));
        assert_eq!(arr[1].get("args").unwrap().get("bytes").and_then(Json::as_i64), Some(4096));
    }

    #[test]
    fn empty_args_key_is_omitted() {
        let mut e = ev("x", "compute", 0, 0.0, 1.0);
        e.args.clear();
        assert!(e.to_json().get("args").is_none());
    }
}
