//! Exact per-path statistics over a full trace.

use std::collections::BTreeMap;

use graphrare_telemetry::metrics::percentile_of_sorted;
use graphrare_telemetry::PathSummary;

use crate::model::Span;

/// Groups spans by path into the same [`PathSummary`] rows the
/// in-process registry reports, sorted by path. The offline analyzer
/// holds the full stream, so — unlike the in-process reservoir, which
/// is capped — p50/p90/p99 are exact nearest-rank values over every
/// sample (`sampled == count`). Counts, sums, extrema and allocation
/// totals come from the stream; `alloc_peak_bytes` is not in it and
/// reads 0.
pub fn percentile_rows(spans: &[Span]) -> Vec<PathSummary> {
    let mut by_path: BTreeMap<&str, Vec<&Span>> = BTreeMap::new();
    for span in spans {
        by_path.entry(&span.path).or_default().push(span);
    }
    by_path
        .into_iter()
        .map(|(path, group)| {
            let sum = |field: fn(&Span) -> u64| {
                group.iter().fold(0u64, |acc, s| acc.saturating_add(field(s)))
            };
            // One sort per path; every order statistic reads it.
            let mut durations: Vec<u64> = group.iter().map(|s| s.ns).collect();
            durations.sort_unstable();
            let count = durations.len() as u64;
            PathSummary {
                path: path.to_owned(),
                count,
                total_ns: sum(|s| s.ns),
                self_ns: sum(|s| s.self_ns),
                min_ns: percentile_of_sorted(&durations, 0.0),
                max_ns: percentile_of_sorted(&durations, 100.0),
                p50_ns: percentile_of_sorted(&durations, 50.0),
                p90_ns: percentile_of_sorted(&durations, 90.0),
                p99_ns: percentile_of_sorted(&durations, 99.0),
                sampled: count,
                alloc_count: sum(|s| s.alloc_count),
                alloc_bytes: sum(|s| s.alloc_bytes),
                alloc_peak_bytes: 0,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_over_all_samples() {
        let spans: Vec<Span> = (1..=100)
            .map(|i| Span {
                span_id: i,
                parent_id: None,
                name: "step".into(),
                path: "step".into(),
                ns: i * 1000,
                self_ns: i * 500,
                start_ns: i,
                alloc_count: i % 2,
                alloc_bytes: 64,
                run_id: None,
            })
            .collect();
        let rows = percentile_rows(&spans);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.count, 100);
        assert_eq!(r.sampled, r.count, "offline percentiles are exact");
        assert_eq!(r.p50_ns, 50_000);
        assert_eq!(r.p90_ns, 90_000);
        assert_eq!(r.p99_ns, 99_000);
        assert_eq!((r.min_ns, r.max_ns), (1_000, 100_000));
        assert_eq!(r.total_ns, 5_050_000);
        assert_eq!(r.self_ns, 2_525_000);
        assert_eq!((r.alloc_count, r.alloc_bytes, r.alloc_peak_bytes), (50, 6_400, 0));
        assert!(graphrare_telemetry::render_paths(&rows).contains("step"));
    }
}
