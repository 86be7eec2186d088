//! Golden-fixture contract for the trace analyzer: a checked-in v3
//! JSONL stream with a known span tree must reconstruct exactly, fold
//! into stacks whose root totals telescope to the root span's wall
//! time, yield exact percentiles, and drive the diff gate's exit code
//! through the `graphrare-trace` binary.

use std::path::Path;
use std::process::Command;

use graphrare_telemetry::{json, render_paths};
use graphrare_trace::{
    diff, folded_stacks, parse_spans, parse_spans_file, percentile_rows, root_totals,
};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden_v3.jsonl");
const SLOW: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden_v3_slow.jsonl");

#[test]
fn golden_fixture_reconstructs_the_span_tree() {
    let spans = parse_spans_file(Path::new(GOLDEN)).expect("fixture parses");
    assert_eq!(spans.len(), 10, "non-span events must be skipped");

    // Tree shape: three precompute roots, then driver.run with two
    // steps each nesting apply/operators.
    let by_id = |id: u64| spans.iter().find(|s| s.span_id == id).unwrap();
    assert_eq!(by_id(10).parent_id, None);
    assert_eq!(by_id(11).parent_id, Some(10));
    assert_eq!(by_id(12).parent_id, Some(11));
    assert_eq!(by_id(13).parent_id, Some(12));
    assert_eq!(by_id(13).path, "driver.run/driver.step/rewire.apply/rewire.operators");
    assert_eq!(by_id(13).depth(), 3);
    assert_eq!(by_id(1).parent_id, None, "precompute spans are roots");
    assert_eq!(by_id(11).alloc_count, 120);
    assert_eq!(by_id(11).alloc_bytes, 4096);
}

#[test]
fn folded_root_total_equals_driver_run_wall_time() {
    let spans = parse_spans_file(Path::new(GOLDEN)).unwrap();
    let folded = folded_stacks(&spans);
    assert_eq!(folded.get("driver.run"), Some(&750_000));
    assert_eq!(folded.get("driver.run;driver.step"), Some(&130_000));
    assert_eq!(folded.get("driver.run;driver.step;rewire.apply"), Some(&50_000));
    assert_eq!(folded.get("driver.run;driver.step;rewire.apply;rewire.operators"), Some(&70_000));
    // Self times telescope: the folded total under the run root is the
    // run span's wall time, exactly.
    let run_ns = spans.iter().find(|s| s.path == "driver.run").unwrap().ns;
    assert_eq!(root_totals(&folded).get("driver.run"), Some(&run_ns));
}

#[test]
fn percentiles_are_exact_nearest_rank() {
    let spans = parse_spans_file(Path::new(GOLDEN)).unwrap();
    let rows = percentile_rows(&spans);
    let step = rows.iter().find(|r| r.path == "driver.run/driver.step").unwrap();
    assert_eq!(step.count, 2);
    assert_eq!(step.total_ns, 250_000);
    assert_eq!(step.self_ns, 130_000);
    assert_eq!(step.p50_ns, 100_000);
    assert_eq!(step.p99_ns, 150_000);
    assert_eq!((step.min_ns, step.max_ns), (100_000, 150_000));
    assert_eq!(step.sampled, step.count, "offline percentiles are exact");
    assert_eq!(step.alloc_count, 120 + 90, "allocations sum over the stream");
    assert_eq!(step.alloc_bytes, 4096 + 2048);
}

#[test]
fn diff_gates_on_the_injected_slowdown() {
    let base = parse_spans_file(Path::new(GOLDEN)).unwrap();
    let slow = parse_spans_file(Path::new(SLOW)).unwrap();
    // Identical runs pass even at a 0% threshold.
    assert!(diff(&base, &base, 0.0, 0).passed());
    // rewire.apply is ~21% slower in the slow fixture: trips 10%,
    // clears 25%.
    let at_10 = diff(&base, &slow, 0.10, 0);
    assert!(!at_10.passed());
    let tripped: Vec<&str> = at_10.regressions().map(|r| r.path.as_str()).collect();
    assert_eq!(tripped, ["driver.run/driver.step/rewire.apply"]);
    assert!(diff(&base, &slow, 0.25, 0).passed());
}

#[test]
fn binary_exit_codes_implement_the_perf_gate() {
    let bin = env!("CARGO_BIN_EXE_graphrare-trace");
    let run = |args: &[&str]| Command::new(bin).args(args).output().expect("binary runs");

    let flame = run(&["flame", GOLDEN]);
    assert!(flame.status.success());
    let stdout = String::from_utf8(flame.stdout).unwrap();
    // Every folded line is `stack;frames SELF_NS`.
    for line in stdout.lines() {
        let (stack, n) = line.rsplit_once(' ').expect("folded line has a count");
        assert!(!stack.is_empty() && n.parse::<u64>().is_ok(), "bad folded line: {line}");
    }
    assert!(stdout.contains("driver.run;driver.step;rewire.apply 50000"), "{stdout}");

    // The percentile table is the registry's own path table.
    let pct = run(&["percentiles", GOLDEN]);
    assert!(pct.status.success());
    let rows = percentile_rows(&parse_spans_file(Path::new(GOLDEN)).unwrap());
    assert_eq!(String::from_utf8(pct.stdout).unwrap(), render_paths(&rows));

    let timeline = run(&["timeline", GOLDEN]);
    assert!(timeline.status.success());

    // The gate: self-diff passes at 0%; the injected slowdown fails at
    // 10% with a non-zero exit.
    assert!(run(&["diff", GOLDEN, GOLDEN, "--max-regress", "0%"]).status.success());
    let gate = run(&["diff", GOLDEN, SLOW, "--max-regress", "10%"]);
    assert!(!gate.status.success(), "injected slowdown must fail the gate");
    assert!(String::from_utf8(gate.stdout).unwrap().contains("REGRESSED"));

    // Malformed input is a hard error, not a pass.
    assert!(!run(&["flame", "/nonexistent.jsonl"]).status.success());
}

#[test]
fn trace_and_lint_validators_agree() {
    // `telemetry_lint` and the analyzer accept exactly the same streams:
    // schema v3 only, with the `self_ns`/`start_ns` the analyzer reads
    // on every span, and no orphaned parent.
    let good = "{\"v\":3,\"event\":\"span\",\"name\":\"a\",\"span_id\":1,\"path\":\"a\",\
                \"ns\":100,\"self_ns\":100,\"start_ns\":0}";
    let streams = [
        good.to_owned(),
        good.replace(",\"self_ns\":100", ""),
        good.replace(",\"start_ns\":0", ""),
        good.replace("\"v\":3", "\"v\":2"),
        good.replace("\"span_id\":1,", "\"span_id\":2,\"parent_id\":1,"),
    ];
    for (i, text) in streams.iter().enumerate() {
        let lint = json::validate_jsonl(text);
        let trace = parse_spans(text);
        assert_eq!(lint.is_ok(), trace.is_ok(), "validators disagree on {text}");
        assert_eq!(lint.is_ok(), i == 0, "only the complete v3 span is valid: {text}");
    }
}
