//! The run envelope a committed `BENCH_*.json` carries: the fields of
//! `e2e_bench`'s `envelope:` line that say where and how the numbers
//! were taken.

use std::fmt::Write as _;
use std::path::Path;

/// The commit the checkout was taken from, read from `.git` in the
/// working directory without spawning `git`; `"unknown"` outside a git
/// work tree.
fn git_rev() -> String {
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

/// The envelope as a JSON object: `git_rev`, `nproc` (hardware
/// threads), `threads` (worker threads the run used) and `seed`.
pub fn envelope_json(threads: usize, seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::from("{\"git_rev\": ");
    graphrare_telemetry::escape_json_str(&git_rev(), &mut out);
    let _ = write!(out, ", \"nproc\": {nproc}, \"threads\": {threads}, \"seed\": {seed}}}");
    out
}
