//! Fault flight recorder: a fixed-capacity ring of recent events plus a
//! structured postmortem dump.
//!
//! Long cycling campaigns fail rarely and late; by the time a supervisor
//! leaves `Healthy` the console scrollback is gone. The flight recorder
//! keeps the last [`FLIGHT_CAPACITY`] notable events (state transitions,
//! guardrail firings, analysis-ladder rules, collective shrinks, per-cycle
//! diagnostics summaries) in a pre-allocated ring — recording is
//! allocation-free and disabled-path cheap like every other telemetry
//! call — and [`dump_postmortem`] snapshots the ring together with the
//! most recent cycle records, spans, and counters into one JSON file the
//! moment something goes wrong.
//!
//! The dump destination is `SQG_DA_POSTMORTEM_DIR` (environment) or
//! [`set_postmortem_dir`] (programmatic, wins over the environment). With
//! neither configured, dumps are skipped — instrumented code can call
//! [`dump_postmortem`] unconditionally.

use crate::json::Json;
use crate::{cycle, metrics, span};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};

/// Ring capacity: events kept before the oldest is overwritten.
pub const FLIGHT_CAPACITY: usize = 256;

/// Bytes of label stored inline per event (longer labels are truncated).
const LABEL_CAP: usize = 48;

/// Cycle records included in a postmortem snapshot.
const POSTMORTEM_CYCLES: usize = 16;

/// What kind of event a flight-recorder entry describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// Per-cycle diagnostics summary (`a` = spread–skill, `b` = chi²).
    CycleDiag,
    /// Supervisor state transition (`label` = `"from->to"`).
    Transition,
    /// A health guardrail fired (`label` names it).
    Guardrail,
    /// An analysis-ladder rule fired (`label` = its event, e.g.
    /// `"deadline_degraded"`; `a` = the attempts' modelled seconds, `b` =
    /// the budget).
    Ladder,
    /// The rank group shrank away dead ranks after a failed collective
    /// (`a` = surviving participants, `b` = excluded ranks).
    CollectiveShrink,
    /// A previously dead rank rejoined the communicator from a checkpoint
    /// (`a` = rejoined world rank, `b` = new group size).
    RankRejoin,
    /// Anything else worth keeping in the black box.
    Other,
}

impl FlightKind {
    /// Stable lowercase name used in postmortem JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightKind::CycleDiag => "cycle_diag",
            FlightKind::Transition => "transition",
            FlightKind::Guardrail => "guardrail",
            FlightKind::Ladder => "ladder",
            FlightKind::CollectiveShrink => "collective_shrink",
            FlightKind::RankRejoin => "rank_rejoin",
            FlightKind::Other => "other",
        }
    }
}

/// One recorded event. `Copy` and fixed-size so the ring never allocates.
#[derive(Debug, Clone, Copy)]
pub struct FlightEvent {
    /// Monotonic sequence number (never reused, survives ring wrap).
    pub seq: u64,
    /// Event category.
    pub kind: FlightKind,
    /// Assimilation cycle the event belongs to (`-1` when not cycle-bound).
    pub cycle: i64,
    /// First numeric payload (meaning depends on [`FlightKind`]).
    pub a: f64,
    /// Second numeric payload.
    pub b: f64,
    label: [u8; LABEL_CAP],
    label_len: u8,
}

impl FlightEvent {
    /// The event label (truncated to [`LABEL_CAP`] bytes at record time).
    pub fn label(&self) -> String {
        String::from_utf8_lossy(&self.label[..self.label_len as usize]).into_owned()
    }

    /// Serializes to a JSON object for postmortem snapshots.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seq", Json::from(self.seq)),
            ("kind", Json::from(self.kind.as_str())),
            ("cycle", Json::Int(self.cycle)),
            ("label", Json::from(self.label())),
            ("a", Json::Num(self.a)),
            ("b", Json::Num(self.b)),
        ])
    }
}

const EMPTY_EVENT: FlightEvent = FlightEvent {
    seq: 0,
    kind: FlightKind::Other,
    cycle: -1,
    a: 0.0,
    b: 0.0,
    label: [0; LABEL_CAP],
    label_len: 0,
};

struct Ring {
    events: [FlightEvent; FLIGHT_CAPACITY],
    /// Next write slot.
    head: usize,
    /// Events currently held (saturates at capacity).
    len: usize,
    /// Next sequence number.
    seq: u64,
}

static RING: Mutex<Ring> = Mutex::new(Ring {
    events: [EMPTY_EVENT; FLIGHT_CAPACITY],
    head: 0,
    len: 0,
    seq: 0,
});

static POSTMORTEM_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Records one event into the flight ring (no-op while telemetry is
/// disabled). The label is copied into a fixed inline buffer — truncated
/// past 48 bytes — so the hot path never allocates.
// lint: no_alloc
pub fn flight_record(kind: FlightKind, cycle: i64, label: &str, a: f64, b: f64) {
    if !crate::enabled() {
        return;
    }
    let mut ring = RING.lock();
    let seq = ring.seq;
    ring.seq += 1;
    let idx = ring.head;
    ring.head = (ring.head + 1) % FLIGHT_CAPACITY;
    if ring.len < FLIGHT_CAPACITY {
        ring.len += 1;
    }
    let n = label.len().min(LABEL_CAP);
    let e = &mut ring.events[idx];
    e.seq = seq;
    e.kind = kind;
    e.cycle = cycle;
    e.a = a;
    e.b = b;
    e.label[..n].copy_from_slice(&label.as_bytes()[..n]);
    e.label_len = n as u8;
}

/// The ring's current contents, oldest event first.
pub fn flight_events() -> Vec<FlightEvent> {
    let ring = RING.lock();
    let mut out = Vec::with_capacity(ring.len);
    let start = (ring.head + FLIGHT_CAPACITY - ring.len) % FLIGHT_CAPACITY;
    for k in 0..ring.len {
        out.push(ring.events[(start + k) % FLIGHT_CAPACITY]);
    }
    out
}

/// Empties the ring (sequence numbers keep counting).
pub fn reset_flight() {
    let mut ring = RING.lock();
    ring.head = 0;
    ring.len = 0;
}

/// Sets (or with `None` clears) the programmatic postmortem directory,
/// overriding `SQG_DA_POSTMORTEM_DIR`.
pub fn set_postmortem_dir(dir: Option<&Path>) {
    *POSTMORTEM_DIR.lock() = dir.map(Path::to_path_buf);
}

fn postmortem_dir() -> Option<PathBuf> {
    if let Some(dir) = POSTMORTEM_DIR.lock().clone() {
        return Some(dir);
    }
    match std::env::var("SQG_DA_POSTMORTEM_DIR") {
        Ok(d) if !d.trim().is_empty() => Some(PathBuf::from(d)),
        _ => None,
    }
}

/// Builds the postmortem snapshot object: the flight ring, the most
/// recent cycle records (diagnostics included), span timings, counters,
/// and gauges.
pub fn postmortem_json(reason: &str) -> Json {
    let events: Vec<Json> = flight_events().iter().map(FlightEvent::to_json).collect();
    let records = cycle::cycle_records();
    let skip = records.len().saturating_sub(POSTMORTEM_CYCLES);
    let recent: Vec<Json> = records[skip..].iter().map(cycle::CycleRecord::to_json).collect();
    let spans = span::span_snapshot()
        .into_iter()
        .map(|s| {
            (
                s.path,
                Json::obj(vec![
                    ("count", Json::from(s.count)),
                    ("total_secs", Json::Num(s.total_secs)),
                ]),
            )
        })
        .collect();
    let counters =
        metrics::all_counters().into_iter().map(|(name, v)| (name, Json::from(v))).collect();
    let gauges =
        metrics::all_gauges().into_iter().map(|(name, v)| (name, Json::Num(v))).collect();
    Json::obj(vec![
        ("reason", Json::from(reason)),
        ("flight", Json::Arr(events)),
        ("recent_cycles", Json::Arr(recent)),
        ("spans", Json::Obj(spans)),
        ("counters", Json::Obj(counters)),
        ("gauges", Json::Obj(gauges)),
    ])
}

/// Dumps a postmortem snapshot to the configured directory, returning the
/// file written. Skipped (returning `None`) while telemetry is disabled,
/// when no directory is configured, or if the write fails (reported to
/// stderr — a postmortem must never take the run down with it).
pub fn dump_postmortem(reason: &str) -> Option<PathBuf> {
    if !crate::enabled() {
        return None;
    }
    let dir = postmortem_dir()?;
    let seq = RING.lock().seq;
    let slug: String = reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect();
    let path = dir.join(format!("postmortem-{seq:06}-{slug}.json"));
    let payload = postmortem_json(reason);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("telemetry: cannot create postmortem dir {}: {e}", dir.display());
        return None;
    }
    match crate::report::write_json(&path, &payload) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("telemetry: postmortem write failed for {}: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_records_wraps_and_resets() {
        let _lock = crate::TEST_LOCK.lock();
        crate::set_enabled(true);
        reset_flight();
        for i in 0..(FLIGHT_CAPACITY + 10) {
            flight_record(FlightKind::Guardrail, i as i64, "spread_reinflated", 0.1, 0.2);
        }
        let events = flight_events();
        assert_eq!(events.len(), FLIGHT_CAPACITY, "ring saturates at capacity");
        // Oldest 10 events were overwritten; order is preserved.
        assert_eq!(events[0].cycle, 10);
        assert_eq!(events.last().unwrap().cycle, (FLIGHT_CAPACITY + 9) as i64);
        for w in events.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1, "sequence numbers are contiguous");
        }
        assert_eq!(events[0].label(), "spread_reinflated");
        reset_flight();
        assert!(flight_events().is_empty());
    }

    #[test]
    fn disabled_recording_is_dropped() {
        let _lock = crate::TEST_LOCK.lock();
        crate::set_enabled(true);
        reset_flight();
        crate::set_enabled(false);
        flight_record(FlightKind::Transition, 0, "healthy->degraded", 0.0, 0.0);
        crate::set_enabled(true);
        assert!(flight_events().is_empty());
    }

    #[test]
    fn long_labels_truncate_without_allocation_growth() {
        let _lock = crate::TEST_LOCK.lock();
        crate::set_enabled(true);
        reset_flight();
        let long = "x".repeat(500);
        flight_record(FlightKind::Other, 3, &long, 1.0, 2.0);
        let events = flight_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].label().len(), 48);
        assert_eq!(events[0].a, 1.0);
    }

    #[test]
    fn postmortem_writes_structured_json() {
        let _lock = crate::TEST_LOCK.lock();
        crate::set_enabled(true);
        crate::reset();
        let dir = std::env::temp_dir().join("sqg_da_flight_test");
        std::fs::remove_dir_all(&dir).ok();
        set_postmortem_dir(Some(&dir));
        flight_record(FlightKind::Transition, 2, "healthy->degraded", 0.0, 1.0);
        crate::counter_add("flight.test.counter", 4);
        let path = dump_postmortem("unit test: left healthy").expect("dump must happen");
        set_postmortem_dir(None);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let doc = crate::json::parse(&text).unwrap();
        assert_eq!(doc.get("reason").and_then(Json::as_str), Some("unit test: left healthy"));
        let flight = doc.get("flight").and_then(Json::as_arr).unwrap();
        assert_eq!(flight.len(), 1);
        assert_eq!(flight[0].get("kind").and_then(Json::as_str), Some("transition"));
        assert_eq!(flight[0].get("label").and_then(Json::as_str), Some("healthy->degraded"));
        assert!(doc.get("counters").unwrap().get("flight.test.counter").is_some());
        assert!(path.file_name().unwrap().to_string_lossy().contains("unit_test"));
    }

    #[test]
    fn elastic_kinds_have_stable_names() {
        let _lock = crate::TEST_LOCK.lock();
        assert_eq!(FlightKind::RankRejoin.as_str(), "rank_rejoin");
        assert_eq!(FlightKind::Ladder.as_str(), "ladder");
        crate::set_enabled(true);
        reset_flight();
        flight_record(FlightKind::Ladder, 4, "deadline_blown", 2.0, 2.5);
        flight_record(FlightKind::RankRejoin, 5, "rank_rejoin", 3.0, 8.0);
        let events = flight_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, FlightKind::Ladder);
        assert_eq!(events[1].label(), "rank_rejoin");
        reset_flight();
    }

    #[test]
    fn postmortem_without_sink_or_telemetry_is_skipped() {
        let _lock = crate::TEST_LOCK.lock();
        crate::set_enabled(true);
        set_postmortem_dir(None);
        // No directory configured (ignore any ambient env override).
        if std::env::var("SQG_DA_POSTMORTEM_DIR").is_err() {
            assert_eq!(dump_postmortem("nowhere"), None);
        }
        crate::set_enabled(false);
        assert_eq!(dump_postmortem("disabled"), None);
        crate::set_enabled(true);
    }
}
