//! Smoke tests of the benchmark itself, at tiny scale:
//! `cargo test --release --manifest-path e2e_bench/Cargo.toml`.

use std::path::PathBuf;

use graphrare::RewirerKind;
use graphrare_datasets::DatasetSpec;
use graphrare_gnn::Backbone;
use graphrare_telemetry::json::{self, Json};

use super::*;

const TINY: DatasetSpec = DatasetSpec {
    name: "tiny",
    num_nodes: 40,
    num_edges: 90,
    feat_dim: 12,
    num_classes: 3,
    homophily: 0.2,
    degree_exponent: 0.3,
    feature_signal: 0.8,
    feature_density: 0.08,
};

fn tiny(served: bool) -> Workload {
    Workload {
        name: if served { "serve" } else { "drl-loop" },
        shape: TINY,
        backbone: Backbone::Gcn,
        rewirers: &[RewirerKind::Ppo, RewirerKind::Dhgr],
        steps: 6,
        threads: 1,
        nominal_run_s: 0.5,
        served,
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("e2e-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn names(metrics: &Metrics) -> Vec<&'static str> {
    metrics.0.iter().map(|m| m.name).collect()
}

#[test]
fn inputs_are_a_pure_function_of_the_seed() {
    let dir = scratch("inputs");
    let read = |sub: &str, seed: u64| -> Vec<Vec<u8>> {
        let prefixes = workload::write_inputs(&dir.join(sub), &TINY, seed, 2).unwrap();
        let mut bytes = Vec::new();
        for prefix in prefixes {
            for ext in ["edges", "features", "labels"] {
                bytes.push(std::fs::read(prefix.with_extension(ext)).unwrap());
            }
        }
        bytes
    };
    let a = read("a", 7);
    assert_eq!(a, read("b", 7), "one seed must give identical bundles");
    assert_ne!(a, read("c", 8), "another seed must give other bundles");
    assert_ne!(a[0], a[3], "the runs of one invocation use distinct graphs");
    let _ = std::fs::remove_dir_all(&dir);
}

fn entries<'a>(doc: &'a Json, key: &str) -> Vec<(&'a str, Option<&'a str>)> {
    let Some(Json::Arr(items)) = doc.get(key) else { panic!("BENCHMARK.json lacks {key}") };
    items
        .iter()
        .map(|item| {
            (
                item.get("name").and_then(Json::as_str).unwrap(),
                item.get("unit").and_then(Json::as_str),
            )
        })
        .collect()
}

/// Every workload and metric the benchmark prints, in each mode, is the
/// one `BENCHMARK.json` declares, with the same unit and order.
#[test]
fn printed_names_match_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();

    let workloads: Vec<&str> = entries(&doc, "workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, workload::NAMES);
    for name in workload::NAMES {
        assert_eq!(Workload::by_name(name).map(|w| w.name), Some(name));
    }
    let declared = |key| -> Vec<(&str, &str)> {
        entries(&doc, key).into_iter().map(|(n, u)| (n, u.unwrap())).collect()
    };
    assert_eq!(declared("end_to_end"), END_TO_END);
    assert_eq!(declared("per_layer"), PER_LAYER);

    let args = |served| Args { workload: tiny(served), seed: 3, seconds: 1, trace: false };
    let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    let layer: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    for served in [false, true] {
        let a = args(served);
        let dir = scratch(if served { "names-serve" } else { "names-solo" });
        let (mut tally, mut env, mut m) =
            (Tally::default(), Envelope::new("t", 3, 1, false), Metrics::default());
        let run = if served { serve_e2e } else { solo_e2e };
        run(&a.workload, &a, &dir, &mut tally, &mut env, &mut m).unwrap();
        assert!(tally.failures.is_empty(), "{:?}", tally.failures);
        assert_eq!(names(&m), e2e);
        assert!(m.0.iter().all(|x| x.value.is_finite() && x.value > 0.0), "{:?}", m.0);

        let mut m = Metrics::default();
        per_layer(&a.workload, &a, &dir, &mut tally, &mut env, &mut m).unwrap();
        assert!(tally.failures.is_empty(), "{:?}", tally.failures);
        assert_eq!(names(&m), layer);
        assert!(m.0.iter().all(|x| x.value.is_finite()), "{:?}", m.0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A changed artifact byte fails the check of the run that wrote it, and
/// the comparison of a served artifact against its solo reference.
#[test]
fn altered_artifact_is_a_failed_operation() {
    let dir = scratch("altered");
    let w = tiny(false);
    let input = workload::write_inputs(&dir.join("in"), &TINY, 5, 1).unwrap();
    let spec = w.spec(&input[0], 5, 0);
    let out = dir.join("run.grrs");
    let run = solo::run(&spec, &out, None).unwrap();
    let (graph, split, _) = solo::load(&spec).unwrap();

    let mut tally = Tally::default();
    tally.check("intact", solo::verify_artifact(&out, &graph, &split, &spec, run.test_acc));
    assert_eq!((tally.attempted, tally.failed()), (1, 0));

    let mut bytes = run.artifact.clone();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&out, &bytes).unwrap();
    tally.check("altered", solo::verify_artifact(&out, &graph, &split, &spec, run.test_acc));
    assert_eq!((tally.attempted, tally.failed()), (2, 1));

    let window = served::Window {
        runs: vec![Ok(served::ServedRun {
            spec: 0,
            submit_s: 0.0,
            queue_wait_s: 0.0,
            turnaround_s: 0.0,
            test_acc: run.test_acc,
            artifact: bytes,
            status_rtt_s: Vec::new(),
        })],
        wall_s: 1.0,
        steps: 0,
    };
    let passed = check_served(window, std::slice::from_ref(&run), &mut tally);
    assert!(passed.is_empty());
    assert_eq!(tally.failed(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}
