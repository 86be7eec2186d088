//! Telemetry integration contract: the registry is strictly
//! observational (bit-identical reports on/off — including with the
//! counting allocator and hierarchical spans active), the JSONL stream
//! carries one schema-stable `iter` event per outer DRL iteration plus
//! v2 `span` events, and the run-scoped aggregate lands in
//! [`RareReport::telemetry`] with per-path self time and exact
//! percentiles.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

use graphrare::{run, GraphRareConfig, RareReport};
use graphrare_datasets::{generate_spec, stratified_split, DatasetSpec, Split};
use graphrare_gnn::Backbone;
use graphrare_graph::Graph;
use graphrare_telemetry as telemetry;
use graphrare_telemetry::json::{self, Json};

// This test binary opts into allocation accounting, so the bit-identity
// assertions below also prove the counting allocator perturbs nothing.
graphrare_telemetry::install_counting_allocator!();

/// The registry is process-global; tests that flip it on must not
/// interleave with each other.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|p| p.into_inner())
}

fn heterophilic_fixture() -> (Graph, Split) {
    let spec = DatasetSpec {
        name: "telemetry-test",
        num_nodes: 60,
        num_edges: 140,
        feat_dim: 20,
        num_classes: 3,
        homophily: 0.15,
        degree_exponent: 0.4,
        feature_signal: 0.8,
        feature_density: 0.04,
    };
    let g = generate_spec(&spec, 3);
    let split = stratified_split(g.labels(), g.num_classes(), 0);
    (g, split)
}

/// Every numeric field of two reports must agree exactly; `telemetry`
/// itself is the only field allowed to differ.
fn assert_reports_bit_identical(a: &RareReport, b: &RareReport) {
    assert_eq!(a.backbone, b.backbone);
    assert_eq!(a.test_acc, b.test_acc);
    assert_eq!(a.best_val_acc, b.best_val_acc);
    assert_eq!(a.original_homophily, b.original_homophily);
    assert_eq!(a.optimized_homophily, b.optimized_homophily);
    assert_eq!(a.traces.train_acc, b.traces.train_acc);
    assert_eq!(a.traces.val_acc, b.traces.val_acc);
    assert_eq!(a.traces.homophily, b.traces.homophily);
    assert_eq!(a.traces.episode_rewards, b.traces.episode_rewards);
    assert_eq!(a.traces.ppo_stats.len(), b.traces.ppo_stats.len());
    for (x, y) in a.traces.ppo_stats.iter().zip(&b.traces.ppo_stats) {
        assert_eq!(x.policy_loss, y.policy_loss);
        assert_eq!(x.value_loss, y.value_loss);
        assert_eq!(x.entropy, y.entropy);
        assert_eq!(x.approx_kl, y.approx_kl);
    }
    assert_eq!(a.optimized_graph.edge_vec(), b.optimized_graph.edge_vec());
}

#[test]
fn reports_are_bit_identical_with_telemetry_on_and_off() {
    let _x = exclusive();
    let (g, split) = heterophilic_fixture();
    let cfg = GraphRareConfig::fast().with_seed(11);

    telemetry::set_enabled(false);
    telemetry::clear_sinks();
    let off = run(&g, &split, Backbone::Gcn, &cfg).unwrap();
    assert!(off.telemetry.is_none(), "disabled run must not carry an aggregate");

    telemetry::reset();
    let (sink, events) = telemetry::VecSink::new();
    telemetry::add_sink(Box::new(sink));
    telemetry::set_enabled(true);
    let on = run(&g, &split, Backbone::Gcn, &cfg).unwrap();
    telemetry::set_enabled(false);
    telemetry::clear_sinks();

    assert_reports_bit_identical(&off, &on);

    // The enabled run carries a run-scoped aggregate covering the whole
    // of Algorithm 1: one outer iteration per DRL step, one driver.run
    // span, and kernel counters from the GNN's matmul/spmm calls.
    let summary = on.telemetry.as_ref().expect("enabled run records an aggregate");
    assert_eq!(summary.counter("driver.iters"), cfg.steps as u64);
    assert_eq!(summary.span("driver.run").expect("driver.run span").count, 1);
    assert_eq!(summary.span("driver.step").expect("driver.step span").count, cfg.steps as u64);
    assert!(summary.counter("kernel.matmul.calls") > 0, "no matmul kernel events");
    assert!(summary.counter("kernel.spmm.calls") > 0, "no spmm kernel events");
    assert!(summary.counter("train.epochs") > 0, "no trainer epochs recorded");
    assert!(summary.span("entropy.sequence_build").is_some(), "entropy build not spanned");

    // Hierarchical profile: spans aggregate per call path with self
    // time, exact percentiles (count < reservoir capacity here) and —
    // since this binary installs the counting allocator — allocation
    // attribution.
    let step = summary.path("driver.run/driver.step").expect("driver.step path");
    assert_eq!(step.count, cfg.steps as u64);
    assert_eq!(step.sampled, step.count, "percentiles must be exact at this count");
    assert!(step.p50_ns > 0 && step.p50_ns <= step.p90_ns && step.p90_ns <= step.p99_ns);
    assert!(step.self_ns <= step.total_ns);
    let apply = summary.path("driver.run/driver.step/rewire.apply").expect("rewire.apply path");
    assert_eq!(apply.count, cfg.steps as u64);
    assert!(apply.self_ns <= apply.total_ns && apply.p99_ns > 0);
    assert!(
        summary
            .path("driver.run/driver.step/rewire.apply/rewire.operators")
            .is_some_and(|p| p.count == cfg.steps as u64),
        "rewire.operators must nest under rewire.apply"
    );
    // The entropy precompute runs before the driver.run span opens, so
    // its spans are roots; the feature/structural tables nest nowhere.
    let build =
        summary.paths_named("entropy.sequence_build").next().expect("entropy.sequence_build path");
    assert!(build.p50_ns > 0 && build.self_ns > 0);
    assert!(summary.path("entropy.feature_table").is_some(), "precompute spans are roots");
    // Allocation accounting is live in this binary and attributed.
    assert!(graphrare_telemetry::alloc::active(), "counting allocator not installed");
    assert!(step.alloc_count > 0, "driver.step attributed no allocations");
    assert!(step.alloc_bytes > 0);

    // One iter event per outer iteration, with the Algorithm-1 fields.
    let events = events.lock().unwrap();
    let iters: Vec<_> = events.iter().filter(|e| e.kind() == "iter").collect();
    assert_eq!(iters.len(), cfg.steps);
    for e in &iters {
        for key in
            ["step", "reward", "train_acc", "val_acc", "loss", "homophily", "edge_delta", "wall_ns"]
        {
            assert!(e.field(key).is_some(), "iter event missing {key}");
        }
    }
    assert_eq!(events.iter().filter(|e| e.kind() == "run_start").count(), 1);
    assert_eq!(events.iter().filter(|e| e.kind() == "run_end").count(), 1);
    assert_eq!(
        events.iter().filter(|e| e.kind() == "ppo_update").count(),
        cfg.steps / cfg.update_every
    );
}

#[test]
fn jsonl_stream_is_schema_valid_with_one_iter_event_per_step() {
    let _x = exclusive();
    let (g, split) = heterophilic_fixture();
    let cfg = GraphRareConfig::fast().with_seed(5);
    let path: PathBuf = std::env::temp_dir().join("graphrare-telemetry-driver.jsonl");
    let _ = std::fs::remove_file(&path);

    telemetry::reset();
    telemetry::clear_sinks();
    telemetry::add_sink(Box::new(telemetry::JsonlSink::create(&path).unwrap()));
    telemetry::set_enabled(true);
    let report = run(&g, &split, Backbone::Gcn, &cfg).unwrap();
    telemetry::set_enabled(false);
    telemetry::clear_sinks();

    // Every line is a versioned event object.
    let total = json::validate_jsonl_file(&path).expect("JSONL stream validates");
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<Json> =
        text.lines().map(|l| json::validate_event_line(l).expect("valid event line")).collect();
    assert_eq!(lines.len(), total);

    // Golden schema: the version stamp and event kind lead every line.
    for line in text.lines() {
        assert!(
            line.starts_with("{\"v\":3,\"event\":\""),
            "line does not lead with schema header: {line}"
        );
    }

    let kind = |j: &Json| j.get("event").and_then(Json::as_str).map(str::to_owned).unwrap();
    let iters: Vec<&Json> = lines.iter().filter(|j| kind(j) == "iter").collect();
    assert_eq!(iters.len(), cfg.steps, "one iter event per outer DRL iteration");
    for (i, e) in iters.iter().enumerate() {
        assert_eq!(e.get("step").and_then(Json::as_f64), Some(i as f64));
        for key in ["reward", "train_acc", "val_acc", "loss", "homophily"] {
            assert!(e.get(key).and_then(Json::as_f64).is_some(), "iter missing numeric {key}");
        }
        assert!(e.get("edge_delta").and_then(Json::as_f64).is_some());
        // Cross-check the stream against the in-memory traces: the
        // JSONL fields are copies of the same values, not re-derived.
        assert_eq!(e.get("val_acc").and_then(Json::as_f64), Some(report.traces.val_acc[i]));
        assert_eq!(e.get("homophily").and_then(Json::as_f64), Some(report.traces.homophily[i]));
    }

    // The precompute and run lifecycle events are all present.
    let kinds: Vec<String> = lines.iter().map(kind).collect();
    for expected in ["entropy_table", "entropy_sequences", "run_start", "run_end"] {
        assert!(kinds.iter().any(|k| k == expected), "missing {expected} event");
    }
    // The `driver.run` guard drops after the run_end event (so the
    // aggregate includes it), making its span event the final line.
    assert_eq!(kinds.last().map(String::as_str), Some("span"));
    let last = lines.last().unwrap();
    assert_eq!(last.get("name").and_then(Json::as_str), Some("driver.run"));
    assert_eq!(last.get("path").and_then(Json::as_str), Some("driver.run"));
    assert!(last.get("parent_id").is_none(), "driver.run is a root span");

    // Span events form a complete tree: every driver.step span is a
    // child of the driver.run span, and validate_jsonl_file above
    // already proved no parent_id is orphaned.
    let spans: Vec<&Json> = lines.iter().filter(|j| kind(j) == "span").collect();
    let run_id = last.get("span_id").and_then(Json::as_f64).unwrap();
    let steps: Vec<&&Json> = spans
        .iter()
        .filter(|j| j.get("name").and_then(Json::as_str) == Some("driver.step"))
        .collect();
    assert_eq!(steps.len(), cfg.steps, "one span event per driver.step");
    for s in &steps {
        assert_eq!(s.get("parent_id").and_then(Json::as_f64), Some(run_id));
        assert_eq!(s.get("path").and_then(Json::as_str), Some("driver.run/driver.step"));
        let ns = s.get("ns").and_then(Json::as_f64).unwrap();
        let self_ns = s.get("self_ns").and_then(Json::as_f64).unwrap();
        assert!(self_ns <= ns, "self time exceeds wall time");
        assert!(s.get("start_ns").and_then(Json::as_f64).is_some());
    }

    let _ = std::fs::remove_file(&path);
}
