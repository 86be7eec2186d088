//! Offline analysis of GraphRARE telemetry JSONL streams.
//!
//! The registry's `SpanGuard` emits one `span` event per closed span,
//! carrying its identity (`span_id`/`parent_id`), its `/`-joined call
//! path, wall time, self time (wall minus direct children) and — when
//! the counting allocator is installed — allocation attribution. This
//! crate reconstructs the span forest from such a stream and renders it
//! four ways, matching the `graphrare-trace` subcommands:
//!
//! - [`timeline`]: spans in start order, indented by call depth, with
//!   wall/self durations — the "what ran when" view.
//! - [`flame`]: folded stacks (`a;b;c SELF_NS` lines) aggregating self
//!   time per path, directly consumable by standard flamegraph
//!   renderers. Because self times telescope, the folded total under
//!   any root equals that root span's wall time.
//! - [`percentiles`]: per-path rows with exact p50/p90/p99 over *all*
//!   durations in the stream (the offline analyzer holds every sample,
//!   so unlike the in-process reservoir there is no sampling cap). The
//!   rows are the registry's own [`graphrare_telemetry::PathSummary`],
//!   printed by the same [`graphrare_telemetry::render_paths`] table.
//! - [`diff`]: per-path total-time comparison of two runs with a
//!   configurable regression threshold — the CI perf gate.
//!
//! Parsing is strict: the whole stream must pass
//! [`graphrare_telemetry::json::validate_jsonl`] — the schema-v3 check
//! `telemetry_lint` applies, including the closed-forest rule (no
//! orphaned `parent_id`).

pub mod diff;
pub mod flame;
pub mod model;
pub mod percentiles;
pub mod timeline;

pub use diff::{diff, filter_by_prefix, render_diff, DiffReport, DiffRow};
pub use flame::{folded_stacks, render_folded, root_totals};
pub use model::{filter_run, parse_spans, parse_spans_file, Span};
pub use percentiles::percentile_rows;
pub use timeline::render_timeline;
