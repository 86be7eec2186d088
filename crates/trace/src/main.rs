//! `graphrare-trace` — offline analyzer for telemetry JSONL streams.
//!
//! ```text
//! graphrare-trace timeline RUN.jsonl [--run-id N]
//! graphrare-trace flame RUN.jsonl [--out STACKS.folded] [--run-id N]
//! graphrare-trace percentiles RUN.jsonl [--run-id N]
//! graphrare-trace diff BASE.jsonl CAND.jsonl [--max-regress PCT[%]] [--min-total-ns NS]
//! ```
//!
//! `flame` writes folded stacks (`a;b;c SELF_NS`) for flamegraph
//! renderers; `percentiles` prints exact per-path p50/p90/p99 (and
//! attributed allocations) over the whole stream, in the same table the
//! CLI's `--telemetry` summary uses; `diff` compares per-path totals of
//! two runs and exits non-zero when any path regresses past the
//! threshold (default 10%), which is how `scripts/check.sh` uses it as
//! a perf gate. `--run-id`
//! keeps only spans tagged with that run, separating one run out of a
//! daemon-multiplexed stream.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use graphrare_telemetry::render_paths;
use graphrare_trace::{
    diff, filter_by_prefix, filter_run, folded_stacks, parse_spans_file, percentile_rows,
    render_diff, render_folded, render_timeline, Span,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: graphrare-trace timeline RUN.jsonl [--run-id N]\n       graphrare-trace flame RUN.jsonl [--out FILE] [--run-id N]\n       graphrare-trace percentiles RUN.jsonl [--run-id N]\n       graphrare-trace diff BASE.jsonl CAND.jsonl [--max-regress PCT[%]] [--min-total-ns NS] [--path-prefix PFX]"
    );
    ExitCode::from(2)
}

/// Splits `--run-id N` out of an option list, leaving the rest for the
/// subcommand's own parser.
fn take_run_id(opts: &[String]) -> Result<(Option<u64>, Vec<String>), String> {
    let mut run_id = None;
    let mut rest = Vec::new();
    let mut i = 0;
    while i < opts.len() {
        if opts[i] == "--run-id" {
            let v = opts.get(i + 1).ok_or("--run-id needs a value")?;
            match v.parse::<u64>() {
                Ok(id) if id > 0 => run_id = Some(id),
                _ => return Err(format!("bad --run-id {v:?} (positive integer required)")),
            }
            i += 2;
        } else {
            rest.push(opts[i].clone());
            i += 1;
        }
    }
    Ok((run_id, rest))
}

/// Parses a stream (full-stream schema and forest validation first),
/// then optionally narrows to one run's spans.
fn load_spans(file: &str, run_id: Option<u64>) -> Result<Vec<Span>, String> {
    let spans = parse_spans_file(Path::new(file))?;
    match run_id {
        Some(id) => {
            let kept = filter_run(&spans, id);
            if kept.is_empty() {
                return Err(format!("{file}: no spans tagged run_id {id}"));
            }
            Ok(kept)
        }
        None => Ok(spans),
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("graphrare-trace: {msg}");
    ExitCode::FAILURE
}

/// Writes to stdout treating a closed pipe as success — the reports
/// are routinely piped into `head` or flamegraph renderers, and
/// `print!` would abort on the resulting `EPIPE`.
fn emit(text: &str) -> Result<(), String> {
    use std::io::Write as _;
    match std::io::stdout().write_all(text.as_bytes()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        Err(e) => Err(format!("failed to write to stdout: {e}")),
    }
}

/// Accepts `10`, `10%` or `12.5%`; the number is a percentage.
fn parse_percent(arg: &str) -> Result<f64, String> {
    let digits = arg.strip_suffix('%').unwrap_or(arg);
    let pct: f64 = digits.parse().map_err(|_| format!("bad percentage {arg:?}"))?;
    if !pct.is_finite() || pct < 0.0 {
        return Err(format!("bad percentage {arg:?}"));
    }
    Ok(pct / 100.0)
}

fn run_diff(base: &Path, cand: &Path, opts: &[String]) -> Result<ExitCode, String> {
    let mut max_regress = 0.10;
    let mut min_total_ns = 0u64;
    let mut path_prefix: Option<String> = None;
    let mut i = 0;
    while i < opts.len() {
        let value =
            |i: usize| opts.get(i + 1).cloned().ok_or_else(|| format!("{} needs a value", opts[i]));
        match opts[i].as_str() {
            "--max-regress" => max_regress = parse_percent(&value(i)?)?,
            "--min-total-ns" => {
                min_total_ns = value(i)?
                    .parse()
                    .map_err(|_| format!("bad --min-total-ns {:?}", opts[i + 1]))?
            }
            // Scope the gate to paths with a frame starting with the
            // prefix (e.g. `rewire.`), at any depth.
            "--path-prefix" => path_prefix = Some(value(i)?),
            other => return Err(format!("unknown diff option {other}")),
        }
        i += 2;
    }
    let mut base_spans = parse_spans_file(base)?;
    let mut cand_spans = parse_spans_file(cand)?;
    if let Some(prefix) = &path_prefix {
        base_spans = filter_by_prefix(base_spans, prefix);
        cand_spans = filter_by_prefix(cand_spans, prefix);
        if base_spans.is_empty() {
            return Err(format!("no baseline span path has a frame starting with {prefix:?}"));
        }
    }
    let report = diff(&base_spans, &cand_spans, max_regress, min_total_ns);
    emit(&render_diff(&report))?;
    Ok(if report.passed() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result: Result<ExitCode, String> = match argv.as_slice() {
        [cmd, file, rest @ ..] if cmd == "timeline" => {
            take_run_id(rest).and_then(|(run_id, rest)| {
                if !rest.is_empty() {
                    return Err(format!("unknown timeline option {}", rest[0]));
                }
                emit(&render_timeline(&load_spans(file, run_id)?))?;
                Ok(ExitCode::SUCCESS)
            })
        }
        [cmd, file, rest @ ..] if cmd == "flame" => take_run_id(rest).and_then(|(run_id, rest)| {
            let out = match rest.as_slice() {
                [] => None,
                [flag, path] if flag == "--out" => Some(PathBuf::from(path)),
                _ => return Err(format!("unknown flame option {}", rest[0])),
            };
            let folded = render_folded(&folded_stacks(&load_spans(file, run_id)?));
            match out {
                Some(path) => std::fs::write(&path, &folded)
                    .map_err(|e| format!("failed to write {}: {e}", path.display()))?,
                None => emit(&folded)?,
            }
            Ok(ExitCode::SUCCESS)
        }),
        [cmd, file, rest @ ..] if cmd == "percentiles" => {
            take_run_id(rest).and_then(|(run_id, rest)| {
                if !rest.is_empty() {
                    return Err(format!("unknown percentiles option {}", rest[0]));
                }
                emit(&render_paths(&percentile_rows(&load_spans(file, run_id)?)))?;
                Ok(ExitCode::SUCCESS)
            })
        }
        [cmd, base, cand, rest @ ..] if cmd == "diff" => {
            run_diff(Path::new(base), Path::new(cand), rest)
        }
        _ => return usage(),
    };
    result.unwrap_or_else(|e| fail(&e))
}
