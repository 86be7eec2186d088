//! `telemetry_lint` — validates a GraphRARE telemetry JSONL stream.
//!
//! ```text
//! telemetry_lint EVENTS.jsonl           # validate; exit 1 on any bad line
//! telemetry_lint --make-fixture PREFIX  # write a small graph bundle
//! ```
//!
//! The validator is [`graphrare_telemetry::json::validate_jsonl`], the
//! same check `graphrare-trace` runs before analysing a stream: every
//! line must parse as RFC 8259 JSON and carry the schema version `"v":3`
//! plus an `"event"` kind. `span` events additionally must carry
//! well-formed `name`/`span_id`/`parent_id`/`path`/`ns`/`self_ns`/
//! `start_ns` fields, the optional `run_id` tag must be a positive
//! integer, and the stream as a whole must form a closed span tree — a
//! `parent_id` that never appears as a `span_id` (a truncated trace)
//! fails the lint. `--make-fixture`
//! exists so `scripts/check.sh` can smoke the CLI's `--telemetry-out`
//! flag without shipping a data file.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use graphrare_datasets::{generate_spec, DatasetSpec};
use graphrare_graph::io;
use graphrare_telemetry::{json, SCHEMA_VERSION};

fn usage() -> ! {
    eprintln!("usage: telemetry_lint EVENTS.jsonl | telemetry_lint --make-fixture PREFIX");
    std::process::exit(2);
}

fn make_fixture(prefix: &Path) -> ExitCode {
    let spec = DatasetSpec {
        name: "lint-fixture",
        num_nodes: 50,
        num_edges: 110,
        feat_dim: 16,
        num_classes: 3,
        homophily: 0.15,
        degree_exponent: 0.3,
        feature_signal: 0.8,
        feature_density: 0.05,
    };
    let g = generate_spec(&spec, 1);
    match io::write_graph(&g, prefix) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("failed to write {}: {e}", prefix.display());
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.as_slice() {
        [flag, prefix] if flag == "--make-fixture" => make_fixture(&PathBuf::from(prefix)),
        [path] if !path.starts_with("--") => match json::validate_jsonl_file(Path::new(path)) {
            Ok(n) => {
                println!("{path}: {n} events, span tree closed, schema v{SCHEMA_VERSION}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        _ => usage(),
    }
}
