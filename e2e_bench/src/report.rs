//! Metric records, order statistics, the run envelope and the final
//! JSON line.

use std::fmt::Write as _;
use std::path::Path;

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// An ordered list of metrics as one mode prints them.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push(Metric { name, unit, value });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Tally of checked operations: a run, a served request, an artifact
/// comparison. Every failure is kept with its reason.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; `Err` records it as failed.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            eprintln!("e2e_bench: FAILED {what}: {e}");
            self.failures.push(format!("{what}: {e}"));
        }
    }

    /// Counts one operation that yields a value; failures yield `None`.
    pub fn take<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        match outcome {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.check(what, Err(e));
                None
            }
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Nearest-rank percentile (`q` in 0..=100) of unsorted samples.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The highest of the standard tail percentiles that still has at least
/// ten samples beyond it; 50 when there are too few samples for any.
pub fn tail_percentile(n: usize) -> f64 {
    [99.9, 99.0, 90.0].into_iter().find(|q| n as f64 * (1.0 - q / 100.0) >= 10.0).unwrap_or(50.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/self/mountinfo`), or `"unknown"`.
pub fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else { return "unknown".into() };
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else { continue };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else { continue };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// The commit the checkout was taken from, read from `.git` without
/// spawning `git`; `"unknown"` outside a git work tree.
pub fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown".into() } else { head.to_string() };
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    let packed = std::fs::read_to_string(".git/packed-refs").unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// Context every result is read against: where and how it was taken.
pub struct Envelope {
    pub fields: Vec<(&'static str, String)>,
}

impl Envelope {
    pub fn new(workload: &str, seed: u64, seconds: u64, trace: bool) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut env = Envelope { fields: Vec::new() };
        env.text("bench", "e2e_bench");
        env.text("git_rev", &git_rev());
        env.num("nproc", nproc as f64);
        env.text("workload", workload);
        env.num("seed", seed as f64);
        env.num("seconds", seconds as f64);
        env.text("mode", if trace { "per_layer" } else { "end_to_end" });
        env
    }

    pub fn num(&mut self, key: &'static str, value: f64) {
        self.fields.push((key, json_num(value)));
    }

    pub fn text(&mut self, key: &'static str, value: &str) {
        self.fields.push((key, json_str(value)));
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> =
            self.fields.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
        format!("{{{}}}", body.join(", "))
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::new();
    graphrare_telemetry::escape_json_str(s, &mut out);
    out
}

/// A finite number with every digit `Display` gives; non-finite values
/// (a failed measurement) become `null`.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    let mut body = String::new();
    for (i, m) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(m.name),
            json_num(m.value),
            json_str(m.unit)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.failures.is_empty(),
        tally.attempted.max(1),
        tally.failed()
    )
}

/// Fixed-width table of the metrics, for people reading the log.
pub fn render_table(metrics: &Metrics) -> String {
    let mut out = String::new();
    for m in &metrics.0 {
        let _ = writeln!(out, "  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    out
}
