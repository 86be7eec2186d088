//! The structured event schema emitted to telemetry sinks.
//!
//! Every event serialises to one JSON object per line (JSONL). The
//! schema is versioned: each line carries `"v"` ([`SCHEMA_VERSION`])
//! and an `"event"` discriminator, followed by flat key/value fields.
//! Consumers must ignore unknown keys; producers may add keys but
//! never remove or retype existing ones within a schema version.

use std::fmt::Write as _;

/// Version stamped into every JSONL line as the `"v"` field.
///
/// Bump only when an existing key is removed or changes type; adding
/// keys or event kinds is backwards-compatible within a version.
///
/// History: v1 — flat events (`iter`, `run_end`, `entropy_*`, …);
/// v2 — adds the hierarchical `span` event (`span_id`, optional
/// `parent_id`, `path`, `ns`, `self_ns`, `start_ns`, optional
/// `alloc_n`/`alloc_bytes`); v3 — adds the optional `run_id` field on
/// every event kind, tagging events of a run multiplexed through the
/// serving daemon. Consumers accept v3 only.
pub const SCHEMA_VERSION: u32 = 3;

/// A single telemetry field value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer (counters, sizes, step indices).
    U64(u64),
    /// Signed integer (deltas).
    I64(i64),
    /// Floating-point metric. Non-finite values serialise as `null`.
    F64(f64),
    /// Short string (names, phases).
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

/// One structured telemetry event: a kind plus flat key/value fields.
///
/// Built with the chainable setters and serialised with
/// [`Event::to_json_line`]; construction is only worth paying for when
/// telemetry is enabled, so call sites go through
/// [`crate::emit_with`], which skips the builder closure entirely when
/// the registry is off.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    kind: &'static str,
    fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Starts an event of the given kind (e.g. `"iter"`).
    pub fn new(kind: &'static str) -> Self {
        Self { kind, fields: Vec::new() }
    }

    /// The event kind.
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// The fields in insertion order.
    pub fn fields(&self) -> &[(&'static str, Value)] {
        &self.fields
    }

    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Adds an unsigned-integer field.
    pub fn u64(mut self, key: &'static str, value: u64) -> Self {
        self.fields.push((key, Value::U64(value)));
        self
    }

    /// Adds a signed-integer field.
    pub fn i64(mut self, key: &'static str, value: i64) -> Self {
        self.fields.push((key, Value::I64(value)));
        self
    }

    /// Adds a floating-point field.
    pub fn f64(mut self, key: &'static str, value: f64) -> Self {
        self.fields.push((key, Value::F64(value)));
        self
    }

    /// Adds a string field.
    pub fn str(mut self, key: &'static str, value: impl Into<String>) -> Self {
        self.fields.push((key, Value::Str(value.into())));
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &'static str, value: bool) -> Self {
        self.fields.push((key, Value::Bool(value)));
        self
    }

    /// Serialises the event as one JSONL line (no trailing newline):
    /// `{"v":3,"event":"<kind>",...fields...}`.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(64 + 16 * self.fields.len());
        self.write_json_line(&mut out);
        out
    }

    /// Appends [`to_json_line`](Event::to_json_line)'s line to `out`.
    pub fn write_json_line(&self, out: &mut String) {
        let _ = write!(out, "{{\"v\":{SCHEMA_VERSION},\"event\":");
        escape_json_str(self.kind, out);
        for (key, value) in &self.fields {
            out.push(',');
            escape_json_str(key, out);
            out.push(':');
            match value {
                Value::U64(n) => {
                    let _ = write!(out, "{n}");
                }
                Value::I64(n) => {
                    let _ = write!(out, "{n}");
                }
                Value::F64(x) if x.is_finite() => {
                    let _ = write!(out, "{x}");
                }
                Value::F64(_) => out.push_str("null"),
                Value::Str(s) => escape_json_str(s, out),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            }
        }
        out.push('}');
    }
}

/// Appends `s` as a JSON string literal (quoted, escaped) to `out`.
/// Public so ad-hoc JSON writers (e.g. the bench harness) can share the
/// event encoder's escaping rules.
pub fn escape_json_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_is_stable() {
        // Golden encoding: pins the field order, version stamp and
        // number formatting of the current schema.
        let e = Event::new("iter")
            .u64("step", 3)
            .f64("reward", 0.5)
            .i64("edge_delta", -2)
            .bool("finetuned", true)
            .str("phase", "drl");
        assert_eq!(
            e.to_json_line(),
            "{\"v\":3,\"event\":\"iter\",\"step\":3,\"reward\":0.5,\
             \"edge_delta\":-2,\"finetuned\":true,\"phase\":\"drl\"}"
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let e = Event::new("x").f64("nan", f64::NAN).f64("inf", f64::INFINITY);
        assert_eq!(e.to_json_line(), "{\"v\":3,\"event\":\"x\",\"nan\":null,\"inf\":null}");
    }

    #[test]
    fn strings_are_escaped() {
        let e = Event::new("x").str("s", "a\"b\\c\nd\u{1}");
        assert_eq!(e.to_json_line(), "{\"v\":3,\"event\":\"x\",\"s\":\"a\\\"b\\\\c\\nd\\u0001\"}");
    }

    #[test]
    fn field_lookup_finds_values() {
        let e = Event::new("x").u64("a", 1).f64("b", 2.0);
        assert_eq!(e.field("a"), Some(&Value::U64(1)));
        assert_eq!(e.field("b"), Some(&Value::F64(2.0)));
        assert_eq!(e.field("c"), None);
        assert_eq!(e.kind(), "x");
    }

    #[test]
    fn floats_round_trip_shortest() {
        // Rust's `{}` float Display prints the shortest representation
        // that round-trips; pin a couple of awkward values.
        let e = Event::new("x").f64("a", 0.1).f64("b", 1.0 / 3.0);
        let line = e.to_json_line();
        assert!(line.contains("\"a\":0.1,"), "{line}");
        assert!(line.contains("\"b\":0.3333333333333333}"), "{line}");
    }
}
