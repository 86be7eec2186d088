//! Span extraction from a validated telemetry JSONL stream.

use std::path::Path;

use graphrare_telemetry::json::{self, get_u64, Json};

/// One closed span, as reconstructed from a `span` event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Process-unique id, allocated at guard creation.
    pub span_id: u64,
    /// Enclosing span's id; `None` for roots.
    pub parent_id: Option<u64>,
    /// Leaf name, e.g. `rewire.apply`.
    pub name: String,
    /// `/`-joined call path from its root, e.g.
    /// `driver.run/driver.step/rewire.apply`.
    pub path: String,
    /// Wall time.
    pub ns: u64,
    /// Wall time minus the wall time of direct children.
    pub self_ns: u64,
    /// Start offset from the process telemetry epoch.
    pub start_ns: u64,
    /// Allocations attributed to this span (0 without the counting
    /// allocator installed in the emitting binary).
    pub alloc_count: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// The run this span belongs to when the stream multiplexes
    /// several (the serving daemon's `run_id` tag); `None` for solo-run
    /// streams.
    pub run_id: Option<u64>,
}

impl Span {
    /// Call depth: roots are 0.
    pub fn depth(&self) -> usize {
        self.path.matches('/').count()
    }
}

/// Builds a span from an event that passed [`json::validate_event_line`],
/// which guarantees every field read here except the optional
/// `parent_id`, `alloc_n`, `alloc_bytes` and `run_id`.
fn span_from_event(event: &Json) -> Span {
    let num = |key: &str| get_u64(event, key).unwrap_or(0);
    let text = |key: &str| event.get(key).and_then(Json::as_str).unwrap_or_default().to_owned();
    Span {
        span_id: num("span_id"),
        parent_id: get_u64(event, "parent_id"),
        name: text("name"),
        path: text("path"),
        ns: num("ns"),
        self_ns: num("self_ns"),
        start_ns: num("start_ns"),
        alloc_count: num("alloc_n"),
        alloc_bytes: num("alloc_bytes"),
        run_id: get_u64(event, "run_id"),
    }
}

/// Keeps only the spans tagged with `run_id` — how the analyzers
/// separate one run out of a daemon-multiplexed stream. Untagged spans
/// (solo-run streams) never match a filter.
pub fn filter_run(spans: &[Span], run_id: u64) -> Vec<Span> {
    spans.iter().filter(|s| s.run_id == Some(run_id)).cloned().collect()
}

/// Parses a telemetry JSONL stream and returns its spans, in stream
/// order. The whole stream must pass [`json::validate_jsonl`] — the
/// same check `telemetry_lint` applies, including the closed-forest
/// rule (a `parent_id` that never appears as a `span_id` is the
/// signature of a truncated trace); non-span events are skipped.
pub fn parse_spans(text: &str) -> Result<Vec<Span>, String> {
    let events = json::validate_jsonl(text)?;
    Ok(events
        .iter()
        .filter(|e| e.get("event").and_then(Json::as_str) == Some("span"))
        .map(span_from_event)
        .collect())
}

/// [`parse_spans`] over a file.
pub fn parse_spans_file(path: &Path) -> Result<Vec<Span>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("failed to read {}: {e}", path.display()))?;
    parse_spans(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(id: u64, parent: Option<u64>, path: &str, ns: u64) -> String {
        let name = path.rsplit('/').next().unwrap();
        let parent = parent.map(|p| format!("\"parent_id\":{p},")).unwrap_or_default();
        format!(
            "{{\"v\":3,\"event\":\"span\",\"name\":\"{name}\",\"span_id\":{id},{parent}\"path\":\"{path}\",\"ns\":{ns},\"self_ns\":{ns},\"start_ns\":0}}"
        )
    }

    #[test]
    fn parses_spans_and_skips_other_events() {
        let text = format!(
            "{{\"v\":3,\"event\":\"run_start\",\"seed\":7}}\n{}\n{}\n",
            line(1, None, "a", 100),
            line(2, Some(1), "a/b", 40)
        );
        let spans = parse_spans(&text).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].path, "a");
        assert_eq!(spans[1].parent_id, Some(1));
        assert_eq!(spans[1].depth(), 1);
    }

    #[test]
    fn rejects_orphaned_parents() {
        let text = format!("{}\n", line(5, Some(99), "a/b", 10));
        let err = parse_spans(&text).unwrap_err();
        assert!(err.contains("orphaned parent_id 99"), "{err}");
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_spans("not json\n").is_err());
        assert!(parse_spans("{\"v\":3,\"event\":\"span\",\"name\":\"x\"}\n").is_err());
    }
}
