//! Pluggable event sinks.
//!
//! Two implementations ship with the workspace: a structured
//! [`JsonlSink`] (one schema-versioned JSON object per line, for
//! machines) and a human-readable [`StderrSink`] (a compact progress
//! line per interesting event, for terminals). Both receive every
//! event the registry emits; a sink decides itself what to render.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use crate::event::{Event, Value};

/// Receives structured events from the registry.
///
/// Implementations must be cheap relative to the instrumented work and
/// must never panic on well-formed events; I/O errors are swallowed
/// (telemetry is strictly best-effort and must not perturb the run).
pub trait Sink: Send {
    /// Handles one event.
    fn emit(&mut self, event: &Event);
    /// Flushes buffered output (end of run, or before process exit).
    fn flush(&mut self) {}
}

/// Writes every event as one JSON line to a file.
///
/// Writes are buffered (hierarchical spans emit one event per guard, a
/// much higher volume than the other event kinds), so producers must call
/// [`crate::flush`] / [`crate::clear_sinks`] before reading the file or
/// exiting — statics never drop. The registry's panic hook
/// ([`crate::install_panic_hook`]) flushes on crashes, keeping traces
/// from dying runs whole-line valid.
pub struct JsonlSink {
    file: BufWriter<File>,
    /// One line buffer for every event, sized at creation: formatting a
    /// line allocates nothing, so a run's allocation counts do not
    /// depend on how many digits its timings have.
    line: String,
}

impl JsonlSink {
    /// Creates (truncating) the output file.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let line = String::with_capacity(4096);
        Ok(Self { file: BufWriter::new(File::create(path)?), line })
    }
}

impl Sink for JsonlSink {
    fn emit(&mut self, event: &Event) {
        self.line.clear();
        event.write_json_line(&mut self.line);
        self.line.push('\n');
        let _ = self.file.write_all(self.line.as_bytes());
    }

    fn flush(&mut self) {
        let _ = self.file.flush();
    }
}

/// Renders a compact human-readable line per event to stderr.
///
/// High-frequency kinds (`epoch`, and `span` — one event per completed
/// guard) are summarised by the span/counter/path aggregates instead of
/// being printed, so a `--telemetry` terminal session stays readable
/// even on long runs.
pub struct StderrSink;

impl StderrSink {
    /// Event kinds skipped by the human-readable rendering.
    const SKIP: [&'static str; 2] = ["epoch", "span"];
}

impl Sink for StderrSink {
    fn emit(&mut self, event: &Event) {
        if Self::SKIP.contains(&event.kind()) {
            return;
        }
        let mut line = format!("[telemetry] {}", event.kind());
        for (key, value) in event.fields() {
            match value {
                Value::U64(n) => line.push_str(&format!(" {key}={n}")),
                Value::I64(n) => line.push_str(&format!(" {key}={n:+}")),
                Value::F64(x) => line.push_str(&format!(" {key}={x:.4}")),
                Value::Str(s) => line.push_str(&format!(" {key}={s}")),
                Value::Bool(b) => line.push_str(&format!(" {key}={b}")),
            }
        }
        eprintln!("{line}");
    }
}

/// Test helper: captures events in memory.
#[derive(Default)]
pub struct VecSink {
    events: std::sync::Arc<std::sync::Mutex<Vec<Event>>>,
}

impl VecSink {
    /// Creates a sink plus a shared handle to the captured events.
    pub fn new() -> (Self, std::sync::Arc<std::sync::Mutex<Vec<Event>>>) {
        let events = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        (Self { events: events.clone() }, events)
    }
}

impl Sink for VecSink {
    fn emit(&mut self, event: &Event) {
        self.events.lock().unwrap().push(event.clone());
    }
}
