//! End-to-end test of the `graphrare` CLI binary: write a graph bundle,
//! run the tool, read the optimised bundle back.

use std::path::PathBuf;
use std::process::Command;

use graphrare::{persist, RunSpec};
use graphrare_datasets::{generate_spec, stratified_split, DatasetSpec};
use graphrare_graph::{io, metrics};

fn fixture_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("graphrare-cli-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_graph() -> graphrare_graph::Graph {
    generate_spec(
        &DatasetSpec {
            name: "cli",
            num_nodes: 50,
            num_edges: 110,
            feat_dim: 16,
            num_classes: 3,
            homophily: 0.15,
            degree_exponent: 0.3,
            feature_signal: 0.8,
            feature_density: 0.05,
        },
        1,
    )
}

#[test]
fn cli_optimizes_a_graph_bundle() {
    let dir = fixture_dir("roundtrip");
    let input = dir.join("toy");
    let output = dir.join("toy-optimized");
    let g = small_graph();
    io::write_graph(&g, &input).unwrap();

    let status = Command::new(env!("CARGO_BIN_EXE_graphrare"))
        .args([
            "--input",
            input.to_str().unwrap(),
            "--output",
            output.to_str().unwrap(),
            "--steps",
            "16",
            "--seed",
            "3",
        ])
        .output()
        .expect("CLI binary runs");
    assert!(status.status.success(), "CLI failed: {}", String::from_utf8_lossy(&status.stderr));
    let stdout = String::from_utf8_lossy(&status.stdout);
    assert!(stdout.contains("test accuracy"), "missing summary: {stdout}");

    let optimized = io::read_graph(&output).unwrap();
    assert_eq!(optimized.num_nodes(), g.num_nodes());
    assert_eq!(optimized.labels(), g.labels());
    let h = metrics::homophily_ratio(&optimized);
    assert!((0.0..=1.0).contains(&h));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn cli_telemetry_out_writes_valid_jsonl_and_quiet_stderr() {
    let dir = fixture_dir("telemetry");
    let input = dir.join("toy");
    let events = dir.join("events.jsonl");
    io::write_graph(&small_graph(), &input).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_graphrare"))
        .args([
            "--input",
            input.to_str().unwrap(),
            "--steps",
            "8",
            "--seed",
            "3",
            "--quiet",
            "--telemetry-out",
            events.to_str().unwrap(),
        ])
        .output()
        .expect("CLI binary runs");
    assert!(out.status.success(), "CLI failed: {}", String::from_utf8_lossy(&out.stderr));
    // --quiet suppresses the progress stream entirely.
    assert!(out.stderr.is_empty(), "stderr not quiet: {}", String::from_utf8_lossy(&out.stderr));
    // The result summary stays machine-parseable on stdout.
    assert!(String::from_utf8_lossy(&out.stdout).contains("test accuracy"));

    let n = graphrare_telemetry::json::validate_jsonl_file(&events)
        .expect("telemetry stream is valid JSONL");
    assert!(n >= 8, "expected >= 8 events (one per DRL step), got {n}");
    let text = std::fs::read_to_string(&events).unwrap();
    let iter_lines = text.lines().filter(|l| l.starts_with("{\"v\":3,\"event\":\"iter\"")).count();
    assert_eq!(iter_lines, 8, "one iter event per --steps iteration");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn cli_rejects_missing_input() {
    let out = Command::new(env!("CARGO_BIN_EXE_graphrare"))
        .args(["--input", "/nonexistent/prefix"])
        .output()
        .expect("CLI binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("failed to read"));
}

#[test]
fn cli_usage_on_bad_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_graphrare"))
        .args(["--frobnicate"])
        .output()
        .expect("CLI binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    // A λ the serve protocol refuses is refused here too, before any
    // input is read, with the same message.
    for lambda in ["nan", "inf", "-1"] {
        let out = Command::new(env!("CARGO_BIN_EXE_graphrare"))
            .args(["--input", "/nonexistent/prefix", "--lambda", lambda])
            .output()
            .expect("CLI binary runs");
        assert_eq!(out.status.code(), Some(2), "--lambda {lambda} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("must be finite and non-negative"), "--lambda {lambda}: {stderr}");
        assert!(stderr.contains("usage:"), "--lambda {lambda}: {stderr}");
    }
}

#[test]
fn cli_model_equals_the_library_run_of_its_spec() {
    let dir = fixture_dir("spec");
    let input = dir.join("toy");
    let cli_model = dir.join("cli.grrs");
    let lib_model = dir.join("lib.grrs");
    io::write_graph(&small_graph(), &input).unwrap();

    // Every shared run flag away from its default, names in mixed case.
    let input_arg = input.to_str().unwrap();
    #[rustfmt::skip]
    let flags = [
        "--input", input_arg, "--backbone", "Gat", "--lambda", "0.5", "--steps", "6",
        "--seed", "4", "--split-seed", "2", "--k-cap", "6", "--threads", "1",
        "--algo", "A2C", "--rewirer", "DHGR",
    ];
    let out = Command::new(env!("CARGO_BIN_EXE_graphrare"))
        .args(flags)
        .args(["--quiet", "--save-model", cli_model.to_str().unwrap()])
        .output()
        .expect("CLI binary runs");
    assert!(out.status.success(), "CLI failed: {}", String::from_utf8_lossy(&out.stderr));

    let mut spec = RunSpec::default();
    let mut rest = flags.iter().map(|s| s.to_string());
    while let Some(flag) = rest.next() {
        assert_eq!(spec.parse_flag(&flag, &mut rest), Ok(true), "{flag}");
    }
    let graph = io::read_graph(&input).unwrap();
    let split = stratified_split(graph.labels(), graph.num_classes(), spec.split_seed);
    let report = graphrare::run(&graph, &split, spec.backbone, &spec.to_config()).unwrap();
    persist::save_model(&lib_model, &report).unwrap();
    assert!(
        std::fs::read(&cli_model).unwrap() == std::fs::read(&lib_model).unwrap(),
        "the CLI's model differs from the library run of the same spec"
    );
    let _ = std::fs::remove_dir_all(dir);
}
