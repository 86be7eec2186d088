//! Run-to-run regression gate over per-path totals.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::model::Span;
use crate::percentiles::percentile_rows;

/// One path's baseline-vs-candidate comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffRow {
    /// `/`-joined call path.
    pub path: String,
    /// Summed wall time in the baseline run (0 when the path is new).
    pub base_ns: u64,
    /// Summed wall time in the candidate run (0 when it disappeared).
    pub cand_ns: u64,
    /// `(cand - base) / base`; `None` when the path exists in only one
    /// run (no ratio to take).
    pub delta: Option<f64>,
    /// True when this row trips the gate.
    pub regressed: bool,
}

/// The gate's verdict over two runs.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffReport {
    /// Every path seen in either run, sorted, with its comparison.
    pub rows: Vec<DiffRow>,
    /// Threshold the gate ran at, as a fraction (0.10 = +10%).
    pub max_regress: f64,
    /// Paths below this baseline total were exempt from the gate.
    pub min_total_ns: u64,
}

impl DiffReport {
    /// Rows that tripped the gate.
    pub fn regressions(&self) -> impl Iterator<Item = &DiffRow> {
        self.rows.iter().filter(|r| r.regressed)
    }

    /// True when the candidate passes (no path regressed).
    pub fn passed(&self) -> bool {
        !self.rows.iter().any(|r| r.regressed)
    }
}

/// Narrows a span set to paths involving `prefix`: a span is kept when
/// any `/`-separated frame of its path *starts with* the prefix, so
/// `rewire.` matches `driver.step/rewire.apply/rewire.guard` at every
/// depth. Used to scope the diff gate to one subsystem's spans without
/// the surrounding (noisier) driver paths diluting or tripping it.
pub fn filter_by_prefix(spans: Vec<Span>, prefix: &str) -> Vec<Span> {
    spans.into_iter().filter(|s| s.path.split('/').any(|f| f.starts_with(prefix))).collect()
}

/// Compares per-path summed wall time of a candidate run against a
/// baseline. A path regresses when its baseline total is at least
/// `min_total_ns` (noise floor — sub-threshold paths jitter too much
/// to gate on) and the candidate total exceeds the baseline by
/// *strictly more* than `max_regress` (a fraction; 0.0 gates on any
/// slowdown but still passes an identical run). Paths present in only
/// one run are reported but never gate.
pub fn diff(
    baseline: &[Span],
    candidate: &[Span],
    max_regress: f64,
    min_total_ns: u64,
) -> DiffReport {
    let totals = |spans: &[Span]| -> BTreeMap<String, u64> {
        percentile_rows(spans).into_iter().map(|row| (row.path, row.total_ns)).collect()
    };
    let base = totals(baseline);
    let cand = totals(candidate);
    let mut paths: Vec<&String> = base.keys().chain(cand.keys()).collect();
    paths.sort();
    paths.dedup();
    let rows = paths
        .into_iter()
        .map(|path| {
            let base_ns = base.get(path).copied().unwrap_or(0);
            let cand_ns = cand.get(path).copied().unwrap_or(0);
            let both = base.contains_key(path) && cand.contains_key(path);
            let delta = both.then(|| (cand_ns as f64 - base_ns as f64) / (base_ns as f64).max(1.0));
            let regressed =
                both && base_ns >= min_total_ns && delta.is_some_and(|d| d > max_regress);
            DiffRow { path: path.clone(), base_ns, cand_ns, delta, regressed }
        })
        .collect();
    DiffReport { rows, max_regress, min_total_ns }
}

/// Aligned table plus a one-line verdict.
pub fn render_diff(report: &DiffReport) -> String {
    let width = report.rows.iter().map(|r| r.path.len()).max().unwrap_or(4).max(4);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<width$} {:>12} {:>12} {:>9}  gate",
        "path", "base_ms", "cand_ms", "delta"
    );
    for r in &report.rows {
        let delta = match r.delta {
            Some(d) => format!("{:>+8.1}%", d * 100.0),
            None if r.base_ns == 0 => "     new".to_owned(),
            None => "    gone".to_owned(),
        };
        let _ = writeln!(
            out,
            "{:<width$} {:>12.3} {:>12.3} {:>9}  {}",
            r.path,
            r.base_ns as f64 / 1e6,
            r.cand_ns as f64 / 1e6,
            delta,
            if r.regressed { "REGRESSED" } else { "ok" }
        );
    }
    let n = report.regressions().count();
    if n == 0 {
        let _ =
            writeln!(out, "PASS: no path regressed more than {:.1}%", report.max_regress * 100.0);
    } else {
        let _ = writeln!(
            out,
            "FAIL: {n} path(s) regressed more than {:.1}%",
            report.max_regress * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, path: &str, ns: u64) -> Span {
        Span {
            span_id: id,
            parent_id: None,
            name: path.rsplit('/').next().unwrap().to_owned(),
            path: path.to_owned(),
            ns,
            self_ns: ns,
            start_ns: 0,
            alloc_count: 0,
            alloc_bytes: 0,
            run_id: None,
        }
    }

    #[test]
    fn identical_runs_pass_even_at_zero_threshold() {
        let run = vec![span(1, "a", 100), span(2, "a/b", 50)];
        let report = diff(&run, &run, 0.0, 0);
        assert!(report.passed());
        assert!(render_diff(&report).contains("PASS"));
    }

    #[test]
    fn slowdown_past_threshold_trips_the_gate() {
        let base = vec![span(1, "a", 1000)];
        let slow = vec![span(1, "a", 1200)];
        let report = diff(&base, &slow, 0.10, 0);
        assert!(!report.passed());
        assert_eq!(report.regressions().count(), 1);
        // 20% slower but the gate allows 25%.
        assert!(diff(&base, &slow, 0.25, 0).passed());
    }

    #[test]
    fn prefix_filter_matches_frames_at_any_depth() {
        let spans = vec![
            span(1, "driver.run/driver.step/rewire.apply", 10),
            span(2, "driver.run/driver.step/rewire.apply/rewire.guard", 20),
            span(3, "driver.run/driver.step", 30),
            span(4, "rewire.entropy_refresh", 40),
        ];
        let kept = filter_by_prefix(spans, "rewire.");
        let paths: Vec<&str> = kept.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "driver.run/driver.step/rewire.apply",
                "driver.run/driver.step/rewire.apply/rewire.guard",
                "rewire.entropy_refresh",
            ]
        );
    }

    #[test]
    fn noise_floor_and_one_sided_paths_never_gate() {
        let base = vec![span(1, "tiny", 10), span(2, "gone", 500)];
        let cand = vec![span(1, "tiny", 100), span(3, "new", 900)];
        let report = diff(&base, &cand, 0.0, 1000);
        assert!(report.passed(), "sub-floor and one-sided paths must not gate");
        let rendered = render_diff(&report);
        assert!(rendered.contains("new") && rendered.contains("gone"), "{rendered}");
    }
}
