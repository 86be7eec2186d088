//! Minimal recursive-descent JSON parser.
//!
//! Exists so the JSONL event stream can be validated — by the golden
//! schema tests, the `telemetry_lint` tool and the `scripts/check.sh`
//! smoke gate — without pulling a serde stack into the offline build.
//! It accepts exactly RFC 8259 JSON; numbers are parsed as `f64`, which
//! is lossless for every integer the schema emits (all well below
//! 2^53).

use std::path::Path;

use crate::event::SCHEMA_VERSION;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, preserving key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one complete JSON document, rejecting trailing garbage.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected character at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs: decode when a low half
                            // follows; lone surrogates are rejected.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((code - 0xD800) << 10)
                                        + low.checked_sub(0xDC00).ok_or("bad surrogate pair")?;
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or("invalid \\u escape")?);
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control character at byte {}", self.pos))
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos.checked_add(4).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or("truncated \\u escape")?;
        let hex = std::str::from_utf8(&self.bytes[self.pos..end]).map_err(|e| e.to_string())?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }
}

/// Reads a field as a non-negative integer (the schema emits all ids,
/// counts and durations as u64, well below 2^53).
pub fn get_u64(value: &Json, key: &str) -> Option<u64> {
    let x = value.get(key)?.as_f64()?;
    (x.is_finite() && x >= 0.0 && x.fract() == 0.0).then_some(x as u64)
}

/// Validates one JSONL event line: parses it, checks it is an object
/// carrying the `"v"` schema version [`SCHEMA_VERSION`] (the only one
/// accepted) and an `"event"` string, checks the optional `run_id` tag
/// (when present it must be a positive integer on any event kind), and
/// — for `span` events — checks the span fields every consumer reads:
/// `name` and `path` strings, a positive `span_id`, integer `ns`,
/// `self_ns` and `start_ns`, and a positive `parent_id` when present.
pub fn validate_event_line(line: &str) -> Result<Json, String> {
    let value = parse(line)?;
    match value.get("v").and_then(Json::as_f64) {
        Some(v) if v == f64::from(SCHEMA_VERSION) => {}
        Some(v) => return Err(format!("schema version {v} is not v{SCHEMA_VERSION}")),
        None => return Err("missing \"v\" schema-version field".into()),
    }
    let kind = match value.get("event").and_then(Json::as_str) {
        Some(kind) => kind,
        None => return Err("missing \"event\" kind field".into()),
    };
    if value.get("run_id").is_some() && get_u64(&value, "run_id").is_none_or(|r| r == 0) {
        return Err("\"run_id\" must be a positive integer".into());
    }
    if kind == "span" {
        if value.get("name").and_then(Json::as_str).is_none() {
            return Err("span event: missing string \"name\"".into());
        }
        match get_u64(&value, "span_id") {
            Some(id) if id > 0 => {}
            Some(_) => return Err("span event: \"span_id\" must be positive".into()),
            None => return Err("span event: missing integer \"span_id\"".into()),
        }
        if value.get("parent_id").is_some() && get_u64(&value, "parent_id").is_none_or(|p| p == 0) {
            return Err("span event: \"parent_id\" must be a positive integer".into());
        }
        if value.get("path").and_then(Json::as_str).is_none() {
            return Err("span event: missing string \"path\"".into());
        }
        for key in ["ns", "self_ns", "start_ns"] {
            if get_u64(&value, key).is_none() {
                return Err(format!("span event: missing integer \"{key}\""));
            }
        }
    }
    Ok(value)
}

/// Validates a whole JSONL event stream (already split into parsed
/// lines by [`validate_jsonl`]): every `parent_id` must refer to a
/// `span_id` that appears somewhere in the stream. Children drop (and
/// therefore emit) before their parents, so a truncated trace — parent
/// never emitted — is detected here as an orphaned parent id.
fn validate_span_stream(events: &[Json]) -> Result<(), String> {
    let mut ids = std::collections::BTreeSet::new();
    for e in events {
        if e.get("event").and_then(Json::as_str) == Some("span") {
            ids.extend(get_u64(e, "span_id"));
        }
    }
    for (idx, e) in events.iter().enumerate() {
        if e.get("event").and_then(Json::as_str) != Some("span") {
            continue;
        }
        if let Some(parent) = get_u64(e, "parent_id") {
            if !ids.contains(&parent) {
                return Err(format!(
                    "line {}: orphaned parent_id {parent} (no such span_id in stream)",
                    idx + 1
                ));
            }
        }
    }
    Ok(())
}

/// Validates a whole JSONL stream — every line an accepted event, no
/// blank lines, no orphaned span parent ids — and returns the parsed
/// events in stream order, or the first offending line's error.
pub fn validate_jsonl(text: &str) -> Result<Vec<Json>, String> {
    let events = text
        .lines()
        .enumerate()
        .map(|(idx, line)| validate_event_line(line).map_err(|e| format!("line {}: {e}", idx + 1)))
        .collect::<Result<Vec<_>, _>>()?;
    validate_span_stream(&events)?;
    Ok(events)
}

/// [`validate_jsonl`] over a file that must hold at least one event;
/// returns the number of events.
pub fn validate_jsonl_file(path: &Path) -> Result<usize, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let events = validate_jsonl(&text)?;
    if events.is_empty() {
        return Err(format!("{}: no events", path.display()));
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(parse(" \"a\\nb\" ").unwrap(), Json::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": false}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        match v.get("a").unwrap() {
            Json::Arr(items) => {
                assert_eq!(items[0], Json::Num(1.0));
                assert_eq!(items[1].get("b"), Some(&Json::Bool(false)));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "{\"a\":}", "[1,]", "\"unterminated", "1 2", "{'a':1}", ""] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse(r#""é😀""#).unwrap(), Json::Str("é😀".into()));
        assert!(parse(r#""\ud800""#).is_err(), "lone surrogate accepted");
    }

    #[test]
    fn event_lines_round_trip_through_the_parser() {
        let line = Event::new("iter")
            .u64("step", 7)
            .f64("reward", -0.125)
            .str("phase", "a\"b")
            .to_json_line();
        let v = validate_event_line(&line).unwrap();
        assert_eq!(v.get("event").and_then(Json::as_str), Some("iter"));
        assert_eq!(v.get("step").and_then(Json::as_f64), Some(7.0));
        assert_eq!(v.get("reward").and_then(Json::as_f64), Some(-0.125));
        assert_eq!(v.get("phase").and_then(Json::as_str), Some("a\"b"));
    }

    #[test]
    fn validate_rejects_wrong_version_and_missing_kind() {
        assert!(validate_event_line("{\"v\":999,\"event\":\"x\"}").is_err());
        assert!(validate_event_line("{\"event\":\"x\"}").is_err());
        assert!(validate_event_line("{\"v\":3}").is_err());
        assert!(validate_event_line("not json").is_err());
    }

    #[test]
    fn validate_accepts_only_the_current_schema_version() {
        assert!(validate_event_line("{\"v\":3,\"event\":\"iter\",\"step\":3}").is_ok());
        for old in [1, 2] {
            let line = format!("{{\"v\":{old},\"event\":\"iter\",\"step\":3}}");
            let err = validate_event_line(&line).unwrap_err();
            assert!(err.contains("is not v3"), "v{old}: {err}");
        }
    }

    #[test]
    fn validate_checks_run_id_tags() {
        assert!(validate_event_line("{\"v\":3,\"event\":\"iter\",\"run_id\":7}").is_ok());
        let span = "{\"v\":3,\"event\":\"span\",\"name\":\"a\",\"span_id\":1,\
                    \"path\":\"a\",\"ns\":1,\"self_ns\":1,\"start_ns\":0,\"run_id\":2}";
        assert!(validate_event_line(span).is_ok());
        for (bad, why) in [
            ("{\"v\":3,\"event\":\"iter\",\"run_id\":0}", "zero run_id"),
            ("{\"v\":3,\"event\":\"iter\",\"run_id\":1.5}", "fractional run_id"),
            ("{\"v\":3,\"event\":\"iter\",\"run_id\":\"x\"}", "string run_id"),
            ("{\"v\":3,\"event\":\"iter\",\"run_id\":-1}", "negative run_id"),
        ] {
            assert!(validate_event_line(bad).is_err(), "accepted event with {why}");
        }
    }

    /// A span line with every required field, minus the field `drop`.
    fn span_line_without(drop: &str) -> String {
        let fields = [
            ("name", "\"a\""),
            ("span_id", "1"),
            ("path", "\"a\""),
            ("ns", "100"),
            ("self_ns", "100"),
            ("start_ns", "0"),
        ];
        let body: Vec<String> = fields
            .iter()
            .filter(|(k, _)| *k != drop)
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{\"v\":3,\"event\":\"span\",{}}}", body.join(","))
    }

    #[test]
    fn validate_checks_span_event_fields() {
        let ok = "{\"v\":3,\"event\":\"span\",\"name\":\"a\",\"span_id\":3,\
                  \"parent_id\":1,\"path\":\"r/a\",\"ns\":42,\"self_ns\":42,\"start_ns\":7}";
        assert!(validate_event_line(ok).is_ok());
        assert!(validate_event_line(&span_line_without("")).is_ok(), "parent_id is optional");
        for key in ["name", "span_id", "path", "ns", "self_ns", "start_ns"] {
            let err = validate_event_line(&span_line_without(key)).unwrap_err();
            assert!(err.contains(key), "missing {key}: {err}");
        }
        for (bad, why) in [
            (
                "{\"v\":3,\"event\":\"span\",\"name\":\"a\",\"span_id\":0,\"path\":\"a\",\
                 \"ns\":1,\"self_ns\":1,\"start_ns\":0}",
                "zero span_id",
            ),
            (
                "{\"v\":3,\"event\":\"span\",\"name\":\"a\",\"span_id\":1,\"parent_id\":1.5,\
                 \"path\":\"a\",\"ns\":1,\"self_ns\":1,\"start_ns\":0}",
                "fractional parent_id",
            ),
            (
                "{\"v\":3,\"event\":\"span\",\"name\":\"a\",\"span_id\":1,\"path\":\"a\",\
                 \"ns\":1,\"self_ns\":-1,\"start_ns\":0}",
                "negative self_ns",
            ),
        ] {
            assert!(validate_event_line(bad).is_err(), "accepted span with {why}");
        }
    }

    #[test]
    fn span_stream_validation_rejects_orphans() {
        let span = |id: u64, parent: &str, path: &str| {
            format!(
                "{{\"v\":3,\"event\":\"span\",\"name\":\"x\",\"span_id\":{id},{parent}\
                 \"path\":\"{path}\",\"ns\":5,\"self_ns\":5,\"start_ns\":0}}"
            )
        };
        let complete = [
            span(2, "\"parent_id\":1,", "a/b"),
            span(1, "", "a"),
            "{\"v\":3,\"event\":\"run_end\",\"steps\":1}".to_owned(),
        ];
        assert_eq!(validate_jsonl(&complete.join("\n")).map(|e| e.len()), Ok(3));
        // Truncated trace: the parent span never emitted (still open at
        // the crash), so its id appears only as a parent_id.
        let err = validate_jsonl(&span(2, "\"parent_id\":1,", "a/b")).unwrap_err();
        assert!(err.contains("orphaned parent_id 1"), "{err}");
    }
}
