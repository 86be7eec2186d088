//! # graphrare-telemetry
//!
//! Zero-dependency (std-only) observability for the GraphRARE
//! workspace: lightweight spans with wall-clock timing and counters
//! aggregated per span, and structured training/kernel event streams
//! with a stable, versioned JSONL schema.
//!
//! ## Model
//!
//! * **Spans** ([`span`], [`SpanGuard`]) measure wall time with RAII
//!   guards, aggregate per name (count / total / min / max), and are
//!   **hierarchical**: a per-thread span
//!   stack gives every span a `span_id`/`parent_id` and a call *path*
//!   aggregated in per-path profiles with self time and exact
//!   reservoir-sampled p50/p90/p99 percentiles.
//! * **Counters** ([`counter`], [`gauge_max`]) are monotonic `u64`
//!   aggregates keyed by static names — the tensor runtime counts
//!   kernel calls, rows and threads through them.
//! * **Allocation accounting** ([`alloc`],
//!   [`install_counting_allocator!`]) is an opt-in counting
//!   `#[global_allocator]` wrapper; when a binary installs it, span
//!   paths carry allocation count/bytes/peak attribution.
//! * **Events** ([`Event`], [`emit_with`]) are structured records
//!   fanned out to pluggable [`Sink`]s: a human-readable stderr sink
//!   and a machine-readable JSONL sink with schema version
//!   [`SCHEMA_VERSION`]; completed spans emit `span` events consumed
//!   offline by the `graphrare-trace` CLI (flamegraphs, timelines,
//!   percentile tables, run diffs). Threads driving one of many
//!   multiplexed runs (the serving daemon) tag every event with a
//!   `run_id` via [`set_run_id`].
//! * The **registry** ([`registry`]) is global and thread-safe,
//!   controlled by the `GRAPHRARE_TELEMETRY` environment variable
//!   ([`init_from_env`]) or CLI flags, and costs one relaxed atomic
//!   load per instrumentation point while disabled. Its
//!   [`install_panic_hook`] flushes sinks on crashes so traces are
//!   never truncated mid-record.
//!
//! ## Contract
//!
//! Telemetry is strictly observational: enabling it must not change
//! any numeric result. Instrumentation only reads values the
//! computation already produced and never touches an RNG, so a run
//! with telemetry on is bit-identical to the same run with telemetry
//! off (asserted by `crates/core/tests/telemetry.rs`).

#![warn(missing_docs)]

pub mod alloc;
pub mod event;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod sink;

pub use alloc::{AllocSnapshot, CountingAlloc};
pub use event::{escape_json_str, Event, Value, SCHEMA_VERSION};
pub use metrics::{
    MetricsStore, PathStats, PathSummary, Reservoir, SpanStats, SpanSummary, Summary,
};
pub use registry::{
    add_sink, clear_sinks, counter, current_run_id, emit, emit_with, enabled, flush, gauge_max,
    init_from_env, install_panic_hook, progress_args, quiet, record_span, reset, set_enabled,
    set_quiet, set_run_id, snapshot, span, SpanGuard, Stopwatch,
};
pub use sink::{JsonlSink, Sink, StderrSink, VecSink};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// The registry is process-global; tests that flip it on must not
    /// interleave.
    fn exclusive() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let _x = exclusive();
        set_enabled(false);
        reset();
        counter("test.disabled", 5);
        {
            let _span = span("test.disabled.span");
        }
        let s = snapshot();
        assert_eq!(s.counter("test.disabled"), 0);
        assert!(s.span("test.disabled.span").is_none());
    }

    #[test]
    fn enabled_registry_aggregates_counters_and_spans() {
        let _x = exclusive();
        set_enabled(true);
        reset();
        counter("test.calls", 2);
        counter("test.calls", 3);
        gauge_max("test.max", 7);
        gauge_max("test.max", 4);
        {
            let _span = span("test.span");
            std::hint::black_box(());
        }
        record_span("test.span", 1_000);
        let s = snapshot();
        set_enabled(false);
        assert_eq!(s.counter("test.calls"), 5);
        assert_eq!(s.counter("test.max"), 7);
        let sp = s.span("test.span").unwrap();
        assert_eq!(sp.count, 2);
        assert!(sp.total_ns >= 1_000);
    }

    #[test]
    fn nested_spans_each_record_once() {
        let _x = exclusive();
        set_enabled(true);
        reset();
        {
            let _outer = span("test.outer");
            {
                let _inner = span("test.inner");
            }
            {
                let _inner = span("test.inner");
            }
        }
        let s = snapshot();
        set_enabled(false);
        assert_eq!(s.span("test.outer").unwrap().count, 1);
        assert_eq!(s.span("test.inner").unwrap().count, 2);
        // The outer span covers both inner spans.
        assert!(
            s.span("test.outer").unwrap().total_ns >= s.span("test.inner").unwrap().total_ns,
            "outer shorter than the inners it encloses"
        );
    }

    #[test]
    fn events_reach_installed_sinks_only_while_enabled() {
        let _x = exclusive();
        set_enabled(false);
        reset();
        clear_sinks();
        let (sink, events) = VecSink::new();
        add_sink(Box::new(sink));
        emit_with(|| Event::new("dropped"));
        set_enabled(true);
        emit_with(|| Event::new("kept").u64("n", 1));
        set_enabled(false);
        clear_sinks();
        let events = events.lock().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind(), "kept");
    }

    #[test]
    fn stopwatch_reads_zero_while_disabled() {
        let _x = exclusive();
        set_enabled(false);
        let mut sw = Stopwatch::start();
        assert_eq!(sw.ns(), 0);
        assert_eq!(sw.lap_ns(), 0);
        set_enabled(true);
        let sw = Stopwatch::start();
        set_enabled(false);
        // Enabled at construction: the clock is live regardless of the
        // flag afterwards.
        let _ = sw.ns();
    }

    #[test]
    fn concurrent_counting_is_lossless() {
        let _x = exclusive();
        set_enabled(true);
        reset();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..250 {
                        counter("test.concurrent", 1);
                    }
                });
            }
        });
        let s = snapshot();
        set_enabled(false);
        assert_eq!(s.counter("test.concurrent"), 1000);
    }

    #[test]
    fn jsonl_sink_writes_validatable_lines() {
        let _x = exclusive();
        set_enabled(false);
        reset();
        clear_sinks();
        let path = std::env::temp_dir().join("graphrare-telemetry-unit.jsonl");
        add_sink(Box::new(JsonlSink::create(&path).unwrap()));
        set_enabled(true);
        emit_with(|| Event::new("a").u64("x", 1));
        emit_with(|| Event::new("b").f64("y", -0.5).str("s", "multi\nline"));
        set_enabled(false);
        clear_sinks();
        let n = json::validate_jsonl_file(&path).unwrap();
        assert_eq!(n, 2);
        let _ = std::fs::remove_file(path);
    }

    fn event_u64(e: &Event, key: &str) -> Option<u64> {
        match e.field(key) {
            Some(Value::U64(n)) => Some(*n),
            _ => None,
        }
    }

    fn event_str<'e>(e: &'e Event, key: &str) -> Option<&'e str> {
        match e.field(key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    #[test]
    fn nested_guards_build_paths_self_time_and_span_events() {
        let _x = exclusive();
        set_enabled(true);
        reset();
        clear_sinks();
        let (sink, events) = VecSink::new();
        add_sink(Box::new(sink));
        {
            let _root = span("test.h.root");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _child = span("test.h.child");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            // A self-measured duration counts as a child of the open span.
            record_span("test.h.direct", 500);
        }
        let s = snapshot();
        set_enabled(false);
        clear_sinks();

        let root = s.path("test.h.root").expect("root path recorded");
        let child = s.path("test.h.root/test.h.child").expect("child path recorded");
        let direct = s.path("test.h.root/test.h.direct").expect("direct path recorded");
        assert_eq!((root.count, child.count, direct.count), (1, 1, 1));
        assert!(root.total_ns >= child.total_ns, "parent covers its child");
        // Self time excludes both the nested guard and the direct span.
        assert!(
            root.self_ns <= root.total_ns - child.total_ns - 500,
            "self {} vs total {} child {}",
            root.self_ns,
            root.total_ns,
            child.total_ns
        );
        assert_eq!(direct.self_ns, 500);
        // One observation: the percentiles are that observation, exactly.
        assert_eq!(child.p50_ns, child.total_ns);
        assert_eq!(child.p99_ns, child.total_ns);
        assert_eq!(child.sampled, 1);
        assert_eq!(s.paths_named("test.h.child").count(), 1);

        let events = events.lock().unwrap();
        let spans: Vec<&Event> = events.iter().filter(|e| e.kind() == "span").collect();
        assert_eq!(spans.len(), 3, "one span event per completed span");
        // Children complete (and emit) before their parent.
        assert_eq!(event_str(spans[0], "name"), Some("test.h.child"));
        assert_eq!(event_str(spans[1], "name"), Some("test.h.direct"));
        assert_eq!(event_str(spans[2], "name"), Some("test.h.root"));
        let root_id = event_u64(spans[2], "span_id").unwrap();
        assert!(root_id > 0);
        assert_eq!(event_u64(spans[2], "parent_id"), None, "roots omit parent_id");
        assert_eq!(event_u64(spans[0], "parent_id"), Some(root_id));
        assert_eq!(event_u64(spans[1], "parent_id"), Some(root_id));
        assert_eq!(event_str(spans[0], "path"), Some("test.h.root/test.h.child"));
        for e in &spans {
            assert!(event_u64(e, "ns").is_some());
            assert!(event_u64(e, "self_ns").is_some());
            assert!(event_u64(e, "start_ns").is_some());
            assert!(json::validate_event_line(&e.to_json_line()).is_ok());
        }
        // Sibling roots opened later get fresh root paths.
        assert!(s.path("test.h.child").is_none(), "child must not appear as a root path");
    }

    #[test]
    fn run_id_tags_events_and_spans_per_thread() {
        let _x = exclusive();
        set_enabled(true);
        reset();
        clear_sinks();
        let (sink, events) = VecSink::new();
        add_sink(Box::new(sink));
        assert_eq!(current_run_id(), None);
        set_run_id(Some(42));
        assert_eq!(current_run_id(), Some(42));
        emit_with(|| Event::new("tagged").u64("n", 1));
        {
            let _s = span("test.run.tagged");
        }
        record_span("test.run.direct", 10);
        // Another thread is untagged: run ids never leak across workers.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                assert_eq!(current_run_id(), None);
                emit_with(|| Event::new("untagged"));
            });
        });
        set_run_id(None);
        emit_with(|| Event::new("cleared"));
        set_enabled(false);
        clear_sinks();
        let events = events.lock().unwrap();
        let run_of = |kind: &str| {
            events.iter().find(|e| e.kind() == kind).and_then(|e| event_u64(e, "run_id"))
        };
        assert_eq!(run_of("tagged"), Some(42));
        assert_eq!(run_of("span"), Some(42), "span events carry the worker's run_id");
        assert_eq!(run_of("untagged"), None);
        assert_eq!(run_of("cleared"), None);
        for e in events.iter() {
            assert!(json::validate_event_line(&e.to_json_line()).is_ok());
        }
    }

    #[test]
    fn sequential_roots_do_not_nest() {
        let _x = exclusive();
        set_enabled(true);
        reset();
        {
            let _a = span("test.seq.a");
        }
        {
            let _b = span("test.seq.b");
        }
        let s = snapshot();
        set_enabled(false);
        assert!(s.path("test.seq.a").is_some());
        assert!(s.path("test.seq.b").is_some(), "closed roots must not parent later spans");
        assert!(s.path("test.seq.a/test.seq.b").is_none());
    }

    #[test]
    fn panic_hook_flushes_buffered_sink_and_records_the_panic() {
        let _x = exclusive();
        set_enabled(false);
        reset();
        clear_sinks();
        install_panic_hook();
        let path = std::env::temp_dir().join("graphrare-telemetry-panic.jsonl");
        add_sink(Box::new(JsonlSink::create(&path).unwrap()));
        set_enabled(true);
        let result = std::panic::catch_unwind(|| {
            emit_with(|| Event::new("before_crash").u64("x", 1));
            panic!("induced panic for telemetry test");
        });
        assert!(result.is_err());
        set_enabled(false);
        // No explicit flush: only the panic hook can have drained the
        // BufWriter. Drop the sink without flushing again.
        with_sinks_cleared_unflushed();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"event\":\"before_crash\""), "pre-panic event lost: {text:?}");
        assert!(text.contains("\"event\":\"panic\""), "panic event missing: {text:?}");
        assert!(text.contains("induced panic for telemetry test"));
        assert!(text.ends_with('\n'), "stream truncated mid-record");
        let _ = std::fs::remove_file(path);
    }

    /// Drops all sinks without flushing them first (the panic-hook test
    /// must prove the *hook* flushed, not `clear_sinks`). `JsonlSink`'s
    /// `BufWriter` flushes on drop, so swap the sinks out and leak them.
    fn with_sinks_cleared_unflushed() {
        let sinks: Vec<Box<dyn Sink>> = Vec::new();
        let old = registry_swap_sinks(sinks);
        std::mem::forget(old);
    }

    fn registry_swap_sinks(new: Vec<Box<dyn Sink>>) -> Vec<Box<dyn Sink>> {
        registry::swap_sinks_for_tests(new)
    }
}
