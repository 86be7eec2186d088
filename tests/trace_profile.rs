//! End-to-end profiling contract: a real Algorithm-1 run's JSONL
//! stream, fed through the `graphrare-trace` analysis pipeline, must
//! reconstruct a closed span forest whose folded flamegraph telescopes
//! to the `driver.run` span's wall time within 1%.

use std::path::PathBuf;

use graphrare::{run, GraphRareConfig};
use graphrare_datasets::{generate_spec, stratified_split, DatasetSpec};
use graphrare_gnn::Backbone;
use graphrare_telemetry as telemetry;
use graphrare_trace::{diff, folded_stacks, parse_spans_file, percentile_rows, root_totals};

#[test]
fn flame_root_total_matches_driver_run_within_one_percent() {
    let spec = DatasetSpec {
        name: "trace-profile-test",
        num_nodes: 50,
        num_edges: 120,
        feat_dim: 16,
        num_classes: 3,
        homophily: 0.2,
        degree_exponent: 0.4,
        feature_signal: 0.8,
        feature_density: 0.05,
    };
    let g = generate_spec(&spec, 9);
    let split = stratified_split(g.labels(), g.num_classes(), 0);
    let cfg = GraphRareConfig::fast().with_seed(17);

    let path: PathBuf = std::env::temp_dir().join("graphrare-trace-profile.jsonl");
    let _ = std::fs::remove_file(&path);
    telemetry::reset();
    telemetry::clear_sinks();
    telemetry::add_sink(Box::new(telemetry::JsonlSink::create(&path).unwrap()));
    telemetry::set_enabled(true);
    run(&g, &split, Backbone::Gcn, &cfg).unwrap();
    telemetry::set_enabled(false);
    telemetry::clear_sinks();

    // The stream parses as a closed span forest (no orphaned parents).
    let spans = parse_spans_file(&path).expect("driver stream parses into a span forest");
    let run_span = spans.iter().find(|s| s.path == "driver.run").expect("driver.run span");

    // Self times telescope: the folded total under the driver.run root
    // reproduces the run span's wall time. Spans the registry dropped
    // to flat-only recording (none expected on this single-threaded
    // path) would show up here as a deficit.
    let folded = folded_stacks(&spans);
    let root = *root_totals(&folded).get("driver.run").expect("driver.run folded root");
    let tolerance = run_span.ns / 100;
    assert!(
        root.abs_diff(run_span.ns) <= tolerance,
        "folded root {root} vs driver.run {} exceeds 1%",
        run_span.ns
    );

    // The per-step percentile row covers every step, exactly.
    let rows = percentile_rows(&spans);
    let step = rows.iter().find(|r| r.path == "driver.run/driver.step").expect("step row");
    assert_eq!(step.count, cfg.steps as u64);
    assert!(step.p50_ns > 0 && step.p50_ns <= step.p99_ns);

    // A run diffed against itself passes the gate at a 0% threshold.
    assert!(diff(&spans, &spans, 0.0, 0).passed());

    let _ = std::fs::remove_file(&path);
}
