//! The global, thread-safe telemetry registry.
//!
//! One process-wide registry aggregates counters and spans and fans
//! events out to the installed sinks. It is **off by default**: every
//! recording entry point first checks a relaxed atomic flag and
//! returns immediately when disabled, so instrumentation in hot
//! kernels costs one predictable branch. Enabling telemetry only adds
//! observation — it never touches RNG streams, accumulation order or
//! any other numeric state, so results are bit-identical with
//! telemetry on or off.
//!
//! Spans are **hierarchical**: each thread keeps a stack of open
//! spans, so a [`SpanGuard`] knows its parent and its call *path*
//! (`driver.run/driver.step/rewire.apply`). On drop it folds wall time
//! into the per-path profile (with *self time* — wall time minus
//! enclosed children — exact reservoir percentiles, and allocation
//! deltas from [`crate::alloc`] when the counting allocator is
//! installed), and emits a `span` event carrying
//! `span_id`/`parent_id`/`path` for offline analysis by
//! `graphrare-trace`.
//!
//! Control surface:
//! * programmatic — [`set_enabled`], [`add_sink`], [`reset`];
//! * environment — [`init_from_env`] reads `GRAPHRARE_TELEMETRY`
//!   (`0`/unset = off, `1` = aggregate only, `stderr` = aggregate +
//!   human-readable progress sink, anything else = path of a JSONL
//!   event file);
//! * CLI — the `graphrare` binary maps `--telemetry` /
//!   `--telemetry-out PATH` onto the same calls.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

use crate::alloc::{self, AllocSnapshot};
use crate::event::Event;
use crate::metrics::{MetricsStore, Summary};
use crate::sink::{JsonlSink, Sink, StderrSink};

/// Fast-path gate; all recording is skipped while this is `false`.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Gate for the human-readable progress stream (`progress!`).
static QUIET: AtomicBool = AtomicBool::new(false);

/// Process-wide span id allocator; ids are unique within a process and
/// strictly positive (0 is reserved for "no span").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

struct State {
    metrics: MetricsStore,
    sinks: Vec<Box<dyn Sink>>,
}

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(State { metrics: MetricsStore::default(), sinks: Vec::new() }))
}

fn with_state<R>(f: impl FnOnce(&mut State) -> R) -> R {
    // A poisoned mutex means a panic mid-record; telemetry is
    // best-effort, so keep serving the remaining threads.
    let mut guard = state().lock().unwrap_or_else(|p| p.into_inner());
    f(&mut guard)
}

/// The process trace epoch: all `start_ns` offsets in span events are
/// relative to this instant (first telemetry touch), which lets the
/// offline timeline order spans without wall-clock timestamps.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One open span on the current thread's stack.
struct Frame {
    span_id: u64,
    parent_id: Option<u64>,
    path: String,
    /// Wall time already consumed by completed child spans; the span's
    /// self time is its own wall time minus this.
    child_ns: u64,
    start_offset_ns: u64,
    alloc_start: AllocSnapshot,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };

    /// The run this thread's events belong to, when it executes one of
    /// many multiplexed runs (the serving daemon sets it per worker).
    static RUN_ID: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Tags every event emitted from this thread with `run_id` (schema-v3
/// optional field), or clears the tag with `None`. Scoped to the
/// calling thread: a daemon worker sets it once before driving a run
/// so multiplexed JSONL streams stay separable per run.
pub fn set_run_id(id: Option<u64>) {
    RUN_ID.with(|cell| cell.set(id));
}

/// The calling thread's run tag, if any. Reads `None` once the
/// thread-local has been torn down (the panic hook may fire during
/// thread exit), so tagging never aborts a crashing process.
pub fn current_run_id() -> Option<u64> {
    RUN_ID.try_with(Cell::get).unwrap_or(None)
}

/// Appends the thread's `run_id` field when a run tag is set.
fn tag_run(event: Event) -> Event {
    match current_run_id() {
        Some(id) => event.u64("run_id", id),
        None => event,
    }
}

/// Whether telemetry recording is on. One relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns telemetry recording on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the human-readable progress stream is suppressed.
#[inline]
pub fn quiet() -> bool {
    QUIET.load(Ordering::Relaxed)
}

/// Suppresses (or restores) the progress stream; the CLI's `--quiet`.
pub fn set_quiet(on: bool) {
    QUIET.store(on, Ordering::Relaxed);
}

/// Configures the registry from `GRAPHRARE_TELEMETRY`:
/// unset/empty/`0` leaves it off; `1` enables aggregation; `stderr`
/// additionally installs the human-readable sink; any other value is
/// treated as the path of a JSONL event file. Returns whether
/// telemetry ended up enabled.
pub fn init_from_env() -> bool {
    match std::env::var("GRAPHRARE_TELEMETRY") {
        Err(_) => false,
        Ok(v) => {
            let v = v.trim();
            match v {
                "" | "0" => false,
                "1" => {
                    set_enabled(true);
                    true
                }
                "stderr" => {
                    add_sink(Box::new(StderrSink));
                    set_enabled(true);
                    true
                }
                path => {
                    match JsonlSink::create(std::path::Path::new(path)) {
                        Ok(sink) => add_sink(Box::new(sink)),
                        Err(e) => eprintln!("telemetry: cannot open {path}: {e}"),
                    }
                    set_enabled(true);
                    true
                }
            }
        }
    }
}

/// Installs a sink; it receives every event emitted from now on.
pub fn add_sink(sink: Box<dyn Sink>) {
    with_state(|s| s.sinks.push(sink));
}

/// Flushes and removes every installed sink.
pub fn clear_sinks() {
    with_state(|s| {
        for sink in &mut s.sinks {
            sink.flush();
        }
        s.sinks.clear();
    });
}

/// Swaps out the installed sinks without flushing them (in-crate test
/// support: the panic-hook test must prove the *hook* drained the
/// buffers, so it cannot go through `clear_sinks`).
#[cfg(test)]
pub(crate) fn swap_sinks_for_tests(new: Vec<Box<dyn Sink>>) -> Vec<Box<dyn Sink>> {
    with_state(|s| std::mem::replace(&mut s.sinks, new))
}

/// Flushes every installed sink (e.g. before reading an output file).
pub fn flush() {
    with_state(|s| {
        for sink in &mut s.sinks {
            sink.flush();
        }
    });
}

/// Installs a process panic hook that emits a `panic` event and
/// flushes every sink before the default hook runs, so JSONL traces
/// from crashed runs end on a complete line instead of being truncated
/// mid-record. Idempotent; chains to the previously installed hook.
pub fn install_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // The panicking thread may already hold the registry mutex
            // (a sink panicked mid-emit); a blocking lock would
            // deadlock inside the hook, so only flush when the lock is
            // free. Poisoning cannot have happened yet — we are still
            // unwinding — so a failed try_lock means "held", not
            // "poisoned".
            if let Ok(mut guard) = state().try_lock() {
                if enabled() {
                    let message = if let Some(s) = info.payload().downcast_ref::<&str>() {
                        (*s).to_string()
                    } else if let Some(s) = info.payload().downcast_ref::<String>() {
                        s.clone()
                    } else {
                        "non-string panic payload".to_string()
                    };
                    let mut ev = Event::new("panic").str("message", message);
                    if let Some(loc) = info.location() {
                        ev = ev.str("file", loc.file()).u64("line", u64::from(loc.line()));
                    }
                    let ev = tag_run(ev);
                    for sink in &mut guard.sinks {
                        sink.emit(&ev);
                    }
                }
                for sink in &mut guard.sinks {
                    sink.flush();
                }
            }
            prev(info);
        }));
    });
}

/// Zeroes all counters and path aggregates. Sinks stay installed.
pub fn reset() {
    with_state(|s| s.metrics = MetricsStore::default());
}

/// Adds `delta` to a counter. No-op while disabled.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if enabled() {
        with_state(|s| s.metrics.add(name, delta));
    }
}

/// Raises a max-gauge to `value` if it is currently lower. No-op while
/// disabled.
#[inline]
pub fn gauge_max(name: &'static str, value: u64) {
    if enabled() {
        with_state(|s| s.metrics.raise(name, value));
    }
}

/// Sends a pre-built event to every sink. Prefer [`emit_with`], which
/// skips event construction while disabled.
pub fn emit(event: Event) {
    if !enabled() {
        return;
    }
    let event = tag_run(event);
    with_state(|s| {
        for sink in &mut s.sinks {
            sink.emit(&event);
        }
    });
}

/// Builds and emits an event only when telemetry is enabled; the
/// closure (and all its field formatting/allocation) is skipped
/// entirely otherwise.
#[inline]
pub fn emit_with(build: impl FnOnce() -> Event) {
    if enabled() {
        emit(build());
    }
}

/// Point-in-time copy of all counters and path profiles.
pub fn snapshot() -> Summary {
    with_state(|s| s.metrics.summary())
}

/// RAII span: measures wall time from construction to drop, tracks its
/// position in the per-thread span stack, and on drop folds the
/// duration into the per-path profile (self time, percentile
/// reservoir, allocation deltas) while emitting a `span` event. When
/// telemetry is disabled at construction the guard holds no clock and
/// drop is a no-op.
#[must_use = "a span measures until it is dropped"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
    span_id: u64,
}

impl SpanGuard {
    /// This span's process-unique id (0 when the guard is inert).
    pub fn span_id(&self) -> u64 {
        self.span_id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start.take() else { return };
        let ns = start.elapsed().as_nanos() as u64;
        // Pop our frame. Guards are stack-shaped by construction
        // (RAII), so our frame is the top one; if it is not — the guard
        // migrated threads or a child was leaked — record nothing rather
        // than corrupting the stack.
        let frame = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if stack.last().is_some_and(|f| f.span_id == self.span_id) {
                let frame = stack.pop();
                if let Some(parent) = stack.last_mut() {
                    parent.child_ns = parent.child_ns.saturating_add(ns);
                }
                frame
            } else {
                None
            }
        });
        let Some(frame) = frame.filter(|_| enabled()) else { return };
        let self_ns = ns.saturating_sub(frame.child_ns);
        let alloc_now = alloc::snapshot();
        let alloc_n = alloc_now.count.saturating_sub(frame.alloc_start.count);
        let alloc_bytes = alloc_now.bytes.saturating_sub(frame.alloc_start.bytes);
        // Attribute the process-wide live-heap peak to this path only if
        // a new peak was set while we were open.
        let peak =
            (alloc_now.peak_bytes > frame.alloc_start.peak_bytes).then_some(alloc_now.peak_bytes);
        let mut event = Event::new("span").str("name", self.name).u64("span_id", frame.span_id);
        if let Some(pid) = frame.parent_id {
            event = event.u64("parent_id", pid);
        }
        event = event
            .str("path", frame.path.as_str())
            .u64("ns", ns)
            .u64("self_ns", self_ns)
            .u64("start_ns", frame.start_offset_ns);
        if alloc_n > 0 || alloc_bytes > 0 {
            event = event.u64("alloc_n", alloc_n).u64("alloc_bytes", alloc_bytes);
        }
        let event = tag_run(event);
        with_state(|s| {
            s.metrics.record_path(&frame.path, ns, self_ns, alloc_n, alloc_bytes, peak);
            for sink in &mut s.sinks {
                sink.emit(&event);
            }
        });
    }
}

/// Opens a named span; see [`SpanGuard`].
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { name, start: None, span_id: 0 };
    }
    let epoch = epoch();
    let start = Instant::now();
    let span_id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let (parent_id, path) = match stack.last() {
            Some(top) => (Some(top.span_id), format!("{}/{name}", top.path)),
            None => (None, name.to_string()),
        };
        stack.push(Frame {
            span_id,
            parent_id,
            path,
            child_ns: 0,
            start_offset_ns: start.saturating_duration_since(epoch).as_nanos() as u64,
            alloc_start: alloc::snapshot(),
        });
    });
    SpanGuard { name, start: Some(start), span_id }
}

/// A manual wall-clock; reads 0 while telemetry is disabled so timing
/// fields can be computed unconditionally at instrumented call sites.
pub struct Stopwatch {
    start: Option<Instant>,
}

impl Stopwatch {
    /// Starts the clock (a no-op clock when telemetry is disabled).
    pub fn start() -> Self {
        Self { start: enabled().then(Instant::now) }
    }

    /// Nanoseconds since start (0 while disabled).
    pub fn ns(&self) -> u64 {
        self.start.map_or(0, |s| s.elapsed().as_nanos() as u64)
    }

    /// Nanoseconds since start or the previous `lap_ns` call
    /// (0 while disabled).
    pub fn lap_ns(&mut self) -> u64 {
        match self.start {
            None => 0,
            Some(prev) => {
                let now = Instant::now();
                let ns = now.duration_since(prev).as_nanos() as u64;
                self.start = Some(now);
                ns
            }
        }
    }
}

/// Writes a human-readable progress line to stderr unless `--quiet`
/// ([`set_quiet`]) is in effect. This is the uniform progress channel
/// of the CLI and the repro binaries — stdout stays machine-parseable.
pub fn progress_args(args: std::fmt::Arguments<'_>) {
    if !quiet() {
        eprintln!("{args}");
    }
}

/// `println!`-style progress output routed through the progress sink
/// (stderr, suppressed by `--quiet`).
#[macro_export]
macro_rules! progress {
    ($($arg:tt)*) => {
        $crate::progress_args(::std::format_args!($($arg)*))
    };
}
