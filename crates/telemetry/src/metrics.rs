//! Aggregated metrics: counters, per-span duration statistics and
//! hierarchical per-path profiles.
//!
//! Everything here is plain data — the global registry
//! ([`crate::registry`]) owns one [`MetricsStore`] behind a mutex and
//! the driver surfaces run-scoped [`Summary`] diffs in its report.
//!
//! Two aggregation granularities coexist:
//!
//! * **flat spans** ([`SpanStats`], keyed by the span's static name) —
//!   the schema-v1 view, cheap and allocation-free;
//! * **paths** ([`PathStats`], keyed by the call path the hierarchical
//!   span stack produces, e.g. `driver.run/driver.step/rewire.apply`)
//!   — carrying *self time* (total minus enclosed child spans), an
//!   exact-duration reservoir for true p50/p90/p99 percentiles, and
//!   allocation attribution from the opt-in counting allocator
//!   ([`crate::alloc`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Capacity of the per-path duration reservoir. Percentiles are exact
/// while a path has at most this many observations and an unbiased
/// uniform sample beyond it.
pub const RESERVOIR_CAP: usize = 512;

/// Fixed-capacity uniform reservoir of exact span durations
/// (Vitter's Algorithm R with a deterministic splitmix64 stream, so two
/// identical observation sequences keep identical samples).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reservoir {
    samples: Vec<u64>,
    seen: u64,
    rng: u64,
}

impl Default for Reservoir {
    fn default() -> Self {
        Self { samples: Vec::new(), seen: 0, rng: 0x9E37_79B9_7F4A_7C15 }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Reservoir {
    /// Folds one observation into the reservoir.
    pub fn record(&mut self, ns: u64) {
        self.seen = self.seen.saturating_add(1);
        if self.samples.len() < RESERVOIR_CAP {
            self.samples.push(ns);
        } else {
            let j = splitmix64(&mut self.rng) % self.seen;
            if (j as usize) < RESERVOIR_CAP {
                self.samples[j as usize] = ns;
            }
        }
    }

    /// Observations folded in so far (may exceed the sample count).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The retained samples, unsorted.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// Nearest-rank percentile (`q` in 0..=100) over the retained
    /// samples. Exact while `seen() <= RESERVOIR_CAP`; 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        percentile_of(&mut self.samples.clone(), q)
    }
}

/// Nearest-rank percentile of a scratch slice (sorted in place).
///
/// For several quantiles over the same samples, sort once and query
/// [`percentile_of_sorted`] repeatedly instead — this entry point
/// re-sorts on every call.
pub fn percentile_of(samples: &mut [u64], q: f64) -> u64 {
    samples.sort_unstable();
    percentile_of_sorted(samples, q)
}

/// Nearest-rank percentile (`q` in 0..=100) of an already **ascending**
/// slice: rank `⌈q/100·n⌉` clamped into `1..=n`, so `q = 0` reads the
/// minimum and `q = 100` the maximum; 0 when empty. Callers needing
/// several quantiles sort once and query this repeatedly.
pub fn percentile_of_sorted(sorted: &[u64], q: f64) -> u64 {
    debug_assert!(sorted.is_sorted(), "percentile_of_sorted needs ascending samples");
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Aggregated statistics of one named span.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Number of completed spans (saturating).
    pub count: u64,
    /// Summed wall time (saturating — a saturated total under-reports,
    /// it never wraps).
    pub total_ns: u64,
    /// Shortest observation (0 when `count == 0`).
    pub min_ns: u64,
    /// Longest observation.
    pub max_ns: u64,
}

impl SpanStats {
    /// Folds one completed span into the stats.
    pub fn record(&mut self, ns: u64) {
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count = self.count.saturating_add(1);
        self.total_ns = self.total_ns.saturating_add(ns);
    }

    /// Mean duration in nanoseconds (0 when empty; an under-estimate
    /// once `total_ns` has saturated, never a panic or a wrap).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Aggregated statistics of one span *path* (the `/`-joined call chain
/// the hierarchical span stack produces).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PathStats {
    /// Completed spans at this path (saturating).
    pub count: u64,
    /// Summed wall time, children included (saturating).
    pub total_ns: u64,
    /// Summed *self* time: wall time minus the time spent in enclosed
    /// child spans (saturating).
    pub self_ns: u64,
    /// Shortest observation (0 when `count == 0`).
    pub min_ns: u64,
    /// Longest observation.
    pub max_ns: u64,
    /// Heap allocations attributed to spans at this path (children
    /// included; 0 unless the counting allocator is installed).
    pub alloc_count: u64,
    /// Heap bytes allocated during spans at this path (children
    /// included).
    pub alloc_bytes: u64,
    /// Largest process-wide live-heap peak *set* while a span at this
    /// path was active (see `crate::alloc` for the attribution caveat).
    pub alloc_peak_bytes: u64,
    /// Exact-duration reservoir behind the percentile queries.
    pub reservoir: Reservoir,
}

impl PathStats {
    /// Folds one completed span (plus its allocation deltas) in.
    pub fn record(&mut self, ns: u64, self_ns: u64, alloc_count: u64, alloc_bytes: u64) {
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count = self.count.saturating_add(1);
        self.total_ns = self.total_ns.saturating_add(ns);
        self.self_ns = self.self_ns.saturating_add(self_ns);
        self.alloc_count = self.alloc_count.saturating_add(alloc_count);
        self.alloc_bytes = self.alloc_bytes.saturating_add(alloc_bytes);
        self.reservoir.record(ns);
    }
}

/// The mutable aggregation state: counters and flat spans keyed by
/// static names (hot paths never allocate for them), plus per-path
/// profiles keyed by owned path strings (built only when a span
/// completes with telemetry enabled).
#[derive(Clone, Debug, Default)]
pub struct MetricsStore {
    /// Monotonic counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// Per-span aggregates (flat, by name).
    pub spans: BTreeMap<&'static str, SpanStats>,
    /// Per-path aggregates (hierarchical).
    pub paths: BTreeMap<String, PathStats>,
}

impl MetricsStore {
    /// Adds `delta` to a counter.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        let slot = self.counters.entry(name).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Raises a counter to `value` if it is currently lower (a
    /// max-gauge; used for "threads used" style facts).
    pub fn raise(&mut self, name: &'static str, value: u64) {
        let slot = self.counters.entry(name).or_insert(0);
        *slot = (*slot).max(value);
    }

    /// Records a completed span duration into the flat aggregate.
    pub fn record_span(&mut self, name: &'static str, ns: u64) {
        self.spans.entry(name).or_default().record(ns);
    }

    /// Records a completed span into the per-path profile.
    pub fn record_path(
        &mut self,
        path: &str,
        ns: u64,
        self_ns: u64,
        alloc_count: u64,
        alloc_bytes: u64,
        peak_bytes: Option<u64>,
    ) {
        let stats = match self.paths.get_mut(path) {
            Some(stats) => stats,
            None => self.paths.entry(path.to_string()).or_default(),
        };
        stats.record(ns, self_ns, alloc_count, alloc_bytes);
        if let Some(peak) = peak_bytes {
            stats.alloc_peak_bytes = stats.alloc_peak_bytes.max(peak);
        }
    }

    /// Immutable summary copy of the current state.
    pub fn summary(&self) -> Summary {
        Summary {
            counters: self.counters.iter().map(|(&k, &v)| (k.to_string(), v)).collect(),
            spans: self
                .spans
                .iter()
                .map(|(&k, &v)| SpanSummary {
                    name: k.to_string(),
                    count: v.count,
                    total_ns: v.total_ns,
                    min_ns: v.min_ns,
                    max_ns: v.max_ns,
                })
                .collect(),
            paths: self
                .paths
                .iter()
                .map(|(k, v)| {
                    let mut scratch = v.reservoir.samples().to_vec();
                    scratch.sort_unstable();
                    let pick = |q: f64| percentile_of_sorted(&scratch, q);
                    PathSummary {
                        path: k.clone(),
                        count: v.count,
                        total_ns: v.total_ns,
                        self_ns: v.self_ns,
                        min_ns: v.min_ns,
                        max_ns: v.max_ns,
                        p50_ns: pick(50.0),
                        p90_ns: pick(90.0),
                        p99_ns: pick(99.0),
                        sampled: v.reservoir.samples().len() as u64,
                        alloc_count: v.alloc_count,
                        alloc_bytes: v.alloc_bytes,
                        alloc_peak_bytes: v.alloc_peak_bytes,
                    }
                })
                .collect(),
        }
    }
}

/// Read-only summary of one span, as surfaced in [`Summary`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanSummary {
    /// Span name.
    pub name: String,
    /// Completed spans.
    pub count: u64,
    /// Summed wall time.
    pub total_ns: u64,
    /// Shortest observation (from the later snapshot when diffed).
    pub min_ns: u64,
    /// Longest observation (from the later snapshot when diffed).
    pub max_ns: u64,
}

/// Read-only summary of one span path, as surfaced in [`Summary`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathSummary {
    /// The `/`-joined call path, e.g. `driver.run/driver.step`.
    pub path: String,
    /// Completed spans at this path.
    pub count: u64,
    /// Summed wall time (children included).
    pub total_ns: u64,
    /// Summed self time (children excluded).
    pub self_ns: u64,
    /// Shortest observation (from the later snapshot when diffed).
    pub min_ns: u64,
    /// Longest observation (from the later snapshot when diffed).
    pub max_ns: u64,
    /// Median duration (exact while `sampled == count`).
    pub p50_ns: u64,
    /// 90th-percentile duration.
    pub p90_ns: u64,
    /// 99th-percentile duration.
    pub p99_ns: u64,
    /// Reservoir samples behind the percentiles; `sampled == count`
    /// means they are exact, not estimates.
    pub sampled: u64,
    /// Attributed heap allocations (0 without the counting allocator).
    pub alloc_count: u64,
    /// Attributed heap bytes allocated.
    pub alloc_bytes: u64,
    /// Largest live-heap peak set during spans at this path.
    pub alloc_peak_bytes: u64,
}

impl PathSummary {
    /// The last path component (the span's own name).
    pub fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }
}

/// A point-in-time (or run-scoped, when diffed) copy of every counter,
/// span aggregate and path profile, sorted by name/path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    /// `(name, value)` counter pairs.
    pub counters: Vec<(String, u64)>,
    /// Per-span aggregates (flat, by name).
    pub spans: Vec<SpanSummary>,
    /// Per-path aggregates (hierarchical) with exact percentiles and
    /// allocation attribution.
    pub paths: Vec<PathSummary>,
}

impl Summary {
    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v).unwrap_or(0)
    }

    /// Span summary by name.
    pub fn span(&self, name: &str) -> Option<&SpanSummary> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Path summary by exact path.
    pub fn path(&self, path: &str) -> Option<&PathSummary> {
        self.paths.iter().find(|p| p.path == path)
    }

    /// Path summaries whose final component equals `name` (a span can
    /// appear under several parents).
    pub fn paths_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a PathSummary> {
        self.paths.iter().filter(move |p| p.name() == name)
    }

    /// Run-scoped view: this snapshot minus an `earlier` baseline.
    /// Counters, span counts, totals, self times and allocation totals
    /// subtract; `min_ns`/`max_ns`, percentiles and
    /// peak bytes are kept from `self` (extrema, reservoirs and peaks
    /// are not diffable). Entries that did not change are dropped.
    pub fn since(&self, earlier: &Summary) -> Summary {
        let counters = self
            .counters
            .iter()
            .filter_map(|(name, value)| {
                let delta = value.saturating_sub(earlier.counter(name));
                (delta > 0).then(|| (name.clone(), delta))
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .filter_map(|s| {
                let base = earlier.span(&s.name);
                let count = s.count.saturating_sub(base.map_or(0, |b| b.count));
                if count == 0 {
                    return None;
                }
                Some(SpanSummary {
                    name: s.name.clone(),
                    count,
                    total_ns: s.total_ns.saturating_sub(base.map_or(0, |b| b.total_ns)),
                    min_ns: s.min_ns,
                    max_ns: s.max_ns,
                })
            })
            .collect();
        let paths = self
            .paths
            .iter()
            .filter_map(|p| {
                let base = earlier.path(&p.path);
                let count = p.count.saturating_sub(base.map_or(0, |b| b.count));
                if count == 0 {
                    return None;
                }
                Some(PathSummary {
                    count,
                    total_ns: p.total_ns.saturating_sub(base.map_or(0, |b| b.total_ns)),
                    self_ns: p.self_ns.saturating_sub(base.map_or(0, |b| b.self_ns)),
                    alloc_count: p.alloc_count.saturating_sub(base.map_or(0, |b| b.alloc_count)),
                    alloc_bytes: p.alloc_bytes.saturating_sub(base.map_or(0, |b| b.alloc_bytes)),
                    ..p.clone()
                })
            })
            .collect();
        Summary { counters, spans, paths }
    }

    /// Renders the summary as an aligned, human-readable text table
    /// (paths first, then flat spans, then counters) for the repro
    /// binaries.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.paths.is_empty() {
            let _ = writeln!(
                out,
                "{:<52} {:>7} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>10}",
                "path",
                "count",
                "total_ms",
                "self_ms",
                "p50_us",
                "p90_us",
                "p99_us",
                "allocs",
                "alloc_kb"
            );
            for p in &self.paths {
                let _ = writeln!(
                    out,
                    "{:<52} {:>7} {:>10.3} {:>10.3} {:>9.1} {:>9.1} {:>9.1} {:>9} {:>10.1}",
                    p.path,
                    p.count,
                    p.total_ns as f64 / 1e6,
                    p.self_ns as f64 / 1e6,
                    p.p50_ns as f64 / 1e3,
                    p.p90_ns as f64 / 1e3,
                    p.p99_ns as f64 / 1e3,
                    p.alloc_count,
                    p.alloc_bytes as f64 / 1e3,
                );
            }
        }
        if !self.spans.is_empty() {
            let _ = writeln!(
                out,
                "{:<28} {:>9} {:>12} {:>12} {:>12}",
                "span", "count", "total_ms", "mean_us", "max_us"
            );
            for s in &self.spans {
                let _ = writeln!(
                    out,
                    "{:<28} {:>9} {:>12.3} {:>12.1} {:>12.1}",
                    s.name,
                    s.count,
                    s.total_ns as f64 / 1e6,
                    if s.count == 0 { 0.0 } else { s.total_ns as f64 / s.count as f64 / 1e3 },
                    s.max_ns as f64 / 1e3,
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "{:<42} {:>16}", "counter", "value");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "{name:<42} {value:>16}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_stats_track_extrema_and_mean() {
        let mut s = SpanStats::default();
        s.record(100);
        s.record(300);
        s.record(200);
        assert_eq!(s.count, 3);
        assert_eq!(s.total_ns, 600);
        assert_eq!(s.min_ns, 100);
        assert_eq!(s.max_ns, 300);
        assert_eq!(s.mean_ns(), 200);
    }

    #[test]
    fn span_stats_saturate_near_u64_max() {
        let mut s = SpanStats::default();
        s.record(u64::MAX);
        s.record(u64::MAX);
        // Totals saturate (no wrap to a tiny number), extrema stay exact,
        // and the mean under-reports instead of panicking.
        assert_eq!(s.count, 2);
        assert_eq!(s.total_ns, u64::MAX);
        assert_eq!(s.max_ns, u64::MAX);
        assert_eq!(s.mean_ns(), u64::MAX / 2);
    }

    #[test]
    fn zero_count_mean_is_zero() {
        assert_eq!(SpanStats::default().mean_ns(), 0);
        let saturated = SpanStats { count: 0, total_ns: u64::MAX, ..Default::default() };
        assert_eq!(saturated.mean_ns(), 0, "zero-count mean must not divide");
    }

    #[test]
    fn reservoir_is_exact_below_capacity() {
        let mut r = Reservoir::default();
        for ns in (1..=100).rev() {
            r.record(ns);
        }
        assert_eq!(r.seen(), 100);
        assert_eq!(r.samples().len(), 100);
        assert_eq!(r.percentile(50.0), 50);
        assert_eq!(r.percentile(90.0), 90);
        assert_eq!(r.percentile(99.0), 99);
        assert_eq!(r.percentile(100.0), 100);
    }

    #[test]
    fn reservoir_samples_uniformly_past_capacity() {
        let mut r = Reservoir::default();
        for ns in 0..10_000u64 {
            r.record(ns);
        }
        assert_eq!(r.samples().len(), RESERVOIR_CAP);
        assert_eq!(r.seen(), 10_000);
        // A uniform sample of 0..10000 has a median near 5000; allow a
        // generous tolerance (the RNG stream is deterministic, so this
        // cannot flake).
        let p50 = r.percentile(50.0);
        assert!((3_500..=6_500).contains(&p50), "median {p50} implausible for uniform sample");
    }

    #[test]
    fn reservoir_stream_is_deterministic() {
        let mut a = Reservoir::default();
        let mut b = Reservoir::default();
        for ns in 0..5_000u64 {
            a.record(ns);
            b.record(ns);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn percentile_of_empty_is_zero() {
        assert_eq!(percentile_of(&mut [], 50.0), 0);
        assert_eq!(percentile_of_sorted(&[], 50.0), 0);
        assert_eq!(Reservoir::default().percentile(99.0), 0);
    }

    #[test]
    fn nearest_rank_is_pinned_at_small_counts() {
        // Nearest-rank: element at ceil(q/100 * n), clamped to 1..=n.
        // n = 1: every quantile is the single sample.
        for q in [0.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(percentile_of_sorted(&[7], q), 7, "n=1 q={q}");
        }
        // n = 2: p50 -> first (rank ceil(1.0) = 1), anything above -> second.
        assert_eq!(percentile_of_sorted(&[10, 20], 0.0), 10);
        assert_eq!(percentile_of_sorted(&[10, 20], 50.0), 10);
        assert_eq!(percentile_of_sorted(&[10, 20], 50.1), 20);
        assert_eq!(percentile_of_sorted(&[10, 20], 90.0), 20);
        assert_eq!(percentile_of_sorted(&[10, 20], 99.0), 20);
        assert_eq!(percentile_of_sorted(&[10, 20], 100.0), 20);
        // n = 3: rank boundaries at 33.3% and 66.6%.
        assert_eq!(percentile_of_sorted(&[1, 2, 3], 0.0), 1);
        assert_eq!(percentile_of_sorted(&[1, 2, 3], 33.0), 1);
        assert_eq!(percentile_of_sorted(&[1, 2, 3], 34.0), 2);
        assert_eq!(percentile_of_sorted(&[1, 2, 3], 50.0), 2);
        assert_eq!(percentile_of_sorted(&[1, 2, 3], 66.0), 2);
        assert_eq!(percentile_of_sorted(&[1, 2, 3], 67.0), 3);
        assert_eq!(percentile_of_sorted(&[1, 2, 3], 90.0), 3);
        assert_eq!(percentile_of_sorted(&[1, 2, 3], 99.0), 3);
    }

    #[test]
    fn percentile_of_sorts_then_matches_sorted_variant() {
        let mut unsorted = [90u64, 10, 50, 70, 30];
        let sorted = [10u64, 30, 50, 70, 90];
        for q in [0.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
            let mut scratch = unsorted;
            assert_eq!(percentile_of(&mut scratch, q), percentile_of_sorted(&sorted, q), "q={q}");
        }
        // The in-place sort is part of the contract.
        percentile_of(&mut unsorted, 50.0);
        assert_eq!(unsorted, sorted);
    }

    #[test]
    fn path_stats_accumulate_self_time_and_allocs() {
        let mut m = MetricsStore::default();
        m.record_path("a/b", 1_000, 400, 3, 256, Some(1_024));
        m.record_path("a/b", 3_000, 3_000, 1, 64, None);
        let s = m.summary();
        let p = s.path("a/b").unwrap();
        assert_eq!(p.count, 2);
        assert_eq!(p.total_ns, 4_000);
        assert_eq!(p.self_ns, 3_400);
        assert_eq!(p.alloc_count, 4);
        assert_eq!(p.alloc_bytes, 320);
        assert_eq!(p.alloc_peak_bytes, 1_024);
        assert_eq!(p.p50_ns, 1_000);
        assert_eq!(p.p99_ns, 3_000);
        assert_eq!(p.sampled, 2, "percentiles are exact below reservoir capacity");
        assert_eq!(p.name(), "b");
        assert_eq!(s.paths_named("b").count(), 1);
    }

    #[test]
    fn store_counters_and_gauges() {
        let mut m = MetricsStore::default();
        m.add("calls", 2);
        m.add("calls", 3);
        m.raise("threads", 4);
        m.raise("threads", 2);
        let s = m.summary();
        assert_eq!(s.counter("calls"), 5);
        assert_eq!(s.counter("threads"), 4);
        assert_eq!(s.counter("absent"), 0);
    }

    #[test]
    fn counters_saturate() {
        let mut m = MetricsStore::default();
        m.add("c", u64::MAX - 1);
        m.add("c", 5);
        assert_eq!(m.summary().counter("c"), u64::MAX);
    }

    #[test]
    fn summary_since_subtracts_and_drops_unchanged() {
        let mut m = MetricsStore::default();
        m.add("a", 1);
        m.add("b", 2);
        m.record_span("s", 50);
        m.record_path("s", 50, 50, 0, 0, None);
        let before = m.summary();
        m.add("a", 4);
        m.record_span("s", 150);
        m.record_span("t", 9);
        m.record_path("s", 150, 100, 2, 32, None);
        let delta = m.summary().since(&before);
        assert_eq!(delta.counter("a"), 4);
        assert!(delta.counters.iter().all(|(k, _)| k != "b"), "unchanged counter kept");
        let s = delta.span("s").unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.total_ns, 150);
        assert_eq!(delta.span("t").unwrap().count, 1);
        let p = delta.path("s").unwrap();
        assert_eq!(p.count, 1);
        assert_eq!(p.total_ns, 150);
        assert_eq!(p.self_ns, 100);
        assert_eq!(p.alloc_count, 2);
        assert_eq!(p.alloc_bytes, 32);
    }

    #[test]
    fn render_table_mentions_every_entry() {
        let mut m = MetricsStore::default();
        m.add("kernel.matmul.calls", 7);
        m.record_span("train.epoch", 1_500);
        m.record_path("driver.run/train.epoch", 1_500, 1_500, 0, 0, None);
        let text = m.summary().render_table();
        assert!(text.contains("kernel.matmul.calls"));
        assert!(text.contains("train.epoch"));
        assert!(text.contains("driver.run/train.epoch"));
        assert!(text.contains("p99_us"));
    }
}
