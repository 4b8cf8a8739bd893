//! Whole-process telemetry snapshots and the bench `--json` writer.

use crate::json::Json;
use crate::span;
use std::path::Path;

/// One JSON object summarizing every span collected so far.
///
/// Shape:
/// ```json
/// {
///   "spans": { "osse.cycle": {"count":5,"total_secs":...,"min_secs":...,"max_secs":...}, ... }
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
    Json::obj(vec![("spans", Json::Obj(spans))])
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
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        crate::reset();
        {
            let _g = crate::span!("snap.span");
        }
        let snap = snapshot_json();
        let back = json::parse(&snap.to_string()).unwrap();
        let Json::Obj(sections) = &back else { panic!("snapshot is not an object: {back}") };
        let keys: Vec<&str> = sections.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["spans"]);
        let span = back.get("spans").unwrap().get("snap.span").expect("the opened span");
        assert_eq!(span.get("count").unwrap().as_i64(), Some(1));
    }
}
