//! `graphrare` — command-line interface to the framework.
//!
//! Runs GraphRARE on a user-supplied attributed graph and writes back the
//! optimised topology plus a metrics summary. Input is the plain-text
//! bundle format of [`graphrare_graph::io`]: `<prefix>.edges`,
//! `<prefix>.features`, `<prefix>.labels`.
//!
//! ```text
//! graphrare --input data/mygraph --output out/mygraph-optimized \
//!           [--backbone gcn|sage|gat|h2gcn|mlp] [--lambda 1.0] [--steps 160]
//!           [--seed 42] [--split-seed 0] [--k-cap 10] [--algo ppo|a2c]
//!           [--rewirer ppo|dhgr|reference|none]
//!           [--entropy-refresh-every N]
//!           [--threads N] [--quiet] [--telemetry] [--telemetry-out PATH]
//!           [--checkpoint-every N --checkpoint-dir DIR] [--resume]
//!           [--save-model PATH | --load-model PATH] [--run-id N]
//! ```
//!
//! The ten run flags, `--input` through `--rewirer`, are
//! [`graphrare::RunSpec`]'s: `graphrare-client submit` parses them with
//! the same code and the same defaults (GCN, λ 1.0, 160 steps, seed 42,
//! split seed 0, k-cap 10, `--algo ppo`, `--rewirer ppo`, threads 0), and
//! [`graphrare::RunSpec::to_config`] builds the run's config for both.
//!
//! `--rewirer` selects the strategy that proposes per-step topology
//! edits: `ppo` (the paper's DRL module, default), `dhgr`
//! (feature/label-similarity rewiring), `reference` (feature-kNN
//! reference-graph rewiring) or `none` (train the backbone on the
//! untouched graph through the same loop). All strategies share the
//! incremental apply pipeline, so runs stay bit-reproducible.
//!
//! `--entropy-refresh-every N` re-ranks the candidate sequences against
//! the current rewired graph every `N` DRL steps (default 0 = the
//! paper's frozen sequences).
//!
//! `--threads 0` (the default) resolves the worker count from
//! `GRAPHRARE_THREADS`, falling back to the machine's available
//! parallelism; `--threads 1` forces serial execution. Results are
//! bit-identical either way.
//!
//! Checkpointing: `--checkpoint-every N` writes a `step-NNNNNN.grrs`
//! container into `--checkpoint-dir` after every `N` DRL steps (atomic
//! temp-then-rename writes — a kill mid-write never corrupts an earlier
//! checkpoint). `--resume` picks up the highest-step checkpoint in the
//! directory and continues; a resumed run produces output bit-identical
//! to an uninterrupted one, in every mode. A checkpoint written under
//! another `--algo`, `--rewirer`, `--lambda`, `--seed`, `--steps` or
//! `--entropy-refresh-every` is refused. `--save-model` persists the
//! trained model (best-validation parameters + optimised topology) as
//! one artifact file; `--load-model` skips training and re-evaluates
//! such an artifact on the input graph's split.
//!
//! Observability: progress lines go to **stderr** (suppressed by
//! `--quiet`); the machine-parseable result summary goes to stdout.
//! `--telemetry` enables the registry with the human-readable stderr
//! sink; `--telemetry-out PATH` streams structured JSONL events to
//! `PATH`. `GRAPHRARE_TELEMETRY` configures the same switches from the
//! environment. `--run-id N` tags every emitted event with the given
//! run id (the schema-v3 field the serving daemon uses to multiplex
//! streams). Telemetry is observational only — enabling it never
//! changes a numeric result.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use graphrare::{persist, GraphRareConfig, RareDriver, RareReport, RewireError, RunSpec};
use graphrare_datasets::{stratified_split, Split};
use graphrare_gnn::metrics::accuracy;
use graphrare_gnn::{build_model, evaluate, Backbone, GraphTensors, Trainer};
use graphrare_graph::{io, metrics, Graph};
use graphrare_store::write_atomic;
use graphrare_telemetry::{self as telemetry, progress};

// Opt into allocation accounting: span paths in `--telemetry` output
// carry alloc count/bytes/peak attribution.
graphrare_telemetry::install_counting_allocator!();

/// The run's shared flags, plus the ones only the CLI takes.
#[derive(Default)]
struct Args {
    spec: RunSpec,
    output: Option<PathBuf>,
    entropy_refresh_every: usize,
    quiet: bool,
    telemetry: bool,
    telemetry_out: Option<PathBuf>,
    checkpoint_every: usize,
    checkpoint_dir: Option<PathBuf>,
    resume: bool,
    save_model: Option<PathBuf>,
    load_model: Option<PathBuf>,
    run_id: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: graphrare --input <prefix> [--output <prefix>] \
         [--backbone gcn|sage|gat|h2gcn|mlp] [--lambda F] [--steps N] \
         [--seed N] [--split-seed N] [--k-cap N] [--algo ppo|a2c] \
         [--rewirer ppo|dhgr|reference|none] [--entropy-refresh-every N] \
         [--threads N] [--quiet] [--telemetry] [--telemetry-out PATH] \
         [--checkpoint-every N --checkpoint-dir DIR] [--resume] \
         [--save-model PATH | --load-model PATH] [--run-id N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut argv = std::env::args().skip(1);
    // `--input ""` counts as given: it fails when the bundle is read.
    let mut have_input = false;
    while let Some(flag) = argv.next() {
        have_input |= flag == "--input";
        match args.spec.parse_flag(&flag, &mut argv) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => {
                eprintln!("{e}");
                usage()
            }
        }
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--output" => args.output = Some(PathBuf::from(value())),
            "--entropy-refresh-every" => {
                args.entropy_refresh_every = value().parse().unwrap_or_else(|_| usage())
            }
            "--quiet" => args.quiet = true,
            "--telemetry" => args.telemetry = true,
            "--telemetry-out" => args.telemetry_out = Some(PathBuf::from(value())),
            "--checkpoint-every" => {
                args.checkpoint_every = value().parse().unwrap_or_else(|_| usage())
            }
            "--checkpoint-dir" => args.checkpoint_dir = Some(PathBuf::from(value())),
            "--resume" => args.resume = true,
            "--save-model" => args.save_model = Some(PathBuf::from(value())),
            "--load-model" => args.load_model = Some(PathBuf::from(value())),
            "--run-id" => match value().parse() {
                Ok(id) if id > 0 => args.run_id = Some(id),
                _ => {
                    eprintln!("--run-id must be a positive integer");
                    usage()
                }
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other}");
                usage()
            }
        }
    }
    if !have_input {
        usage();
    }
    if let Err(e) = graphrare::validate_lambda(args.spec.lambda) {
        eprintln!("{e}");
        usage();
    }
    if (args.checkpoint_every > 0 || args.resume) && args.checkpoint_dir.is_none() {
        eprintln!("--checkpoint-every and --resume require --checkpoint-dir");
        usage();
    }
    if args.load_model.is_some() && args.save_model.is_some() {
        eprintln!("--load-model and --save-model are mutually exclusive");
        usage();
    }
    args
}

/// Evaluates a saved model artifact on the input graph without training.
fn eval_saved_model(path: &Path, graph: &Graph, split: &Split) -> Result<(), String> {
    let artifact = persist::load_model(path).map_err(|e| e.to_string())?;
    let backbone = Backbone::parse(&artifact.backbone)
        .ok_or_else(|| format!("artifact names unknown backbone {:?}", artifact.backbone))?;
    let opt_graph = artifact.topology.to_graph(graph).map_err(|e| e.to_string())?;
    let cfg = GraphRareConfig::default();
    let model = build_model(backbone, graph.feat_dim(), graph.num_classes(), &cfg.model);
    let trainer = Trainer::new(model.as_ref(), &cfg.train);
    persist::apply_model_params(&trainer, &artifact.params).map_err(|e| e.to_string())?;

    // One eval forward scores both masks.
    let gt = GraphTensors::new(&opt_graph);
    let test = evaluate(model.as_ref(), &gt, graph.labels(), &split.test);
    let val_acc = accuracy(&test.logits, graph.labels(), &split.val);
    progress!(
        "loaded {} model from {} (saved test acc {:.2}%)",
        artifact.backbone,
        path.display(),
        100.0 * artifact.test_acc
    );
    println!("test accuracy (saved model):                {:.2}%", 100.0 * test.accuracy);
    println!("validation accuracy (saved model):          {:.2}%", 100.0 * val_acc);
    println!(
        "homophily ratio:                            {:.3} -> {:.3}",
        metrics::homophily_ratio(graph),
        metrics::homophily_ratio(&opt_graph)
    );
    println!(
        "edges:                                      {} -> {}",
        graph.num_edges(),
        opt_graph.num_edges()
    );
    Ok(())
}

fn rewire_failed(e: RewireError) -> String {
    format!("rewire failed: {e}")
}

/// Runs the DRL loop stepwise and returns the final report. With
/// `--resume` the driver comes from the newest checkpoint in
/// `--checkpoint-dir` when there is one; with `--checkpoint-every N` a
/// checkpoint is written there after every `N`th step.
fn run(
    graph: &Graph,
    split: &Split,
    args: &Args,
    cfg: &GraphRareConfig,
) -> Result<RareReport, String> {
    let backbone = args.spec.backbone;
    let mut driver = match &args.checkpoint_dir {
        Some(dir) if args.resume => persist::open_driver(dir, graph, split, backbone, cfg)?,
        _ => RareDriver::new(graph, split, backbone, cfg),
    };
    while driver.try_step().map_err(rewire_failed)? {
        let done = driver.step_index();
        match &args.checkpoint_dir {
            Some(dir) if args.checkpoint_every > 0 && done % args.checkpoint_every == 0 => {
                let path = persist::checkpoint_path(dir, done);
                let bytes = persist::save_checkpoint(&path, &driver)
                    .map_err(|e| format!("cannot write checkpoint {}: {e}", path.display()))?;
                progress!("checkpoint written: {} ({bytes} bytes)", path.display());
            }
            _ => {}
        }
    }
    driver.try_finish().map_err(rewire_failed)
}

fn main() -> ExitCode {
    // Crash-safe traces: the hook flushes JSONL sinks before unwinding.
    telemetry::install_panic_hook();
    let code = run_main();
    // Sinks are buffered and live in statics (never dropped): flush on
    // every exit path so --telemetry-out files are complete.
    telemetry::clear_sinks();
    code
}

fn run_main() -> ExitCode {
    let args = parse_args();
    telemetry::init_from_env();
    // Tag this process's events with a caller-assigned run id (the
    // serving daemon's per-run streams use the same schema-v3 field).
    telemetry::set_run_id(args.run_id);
    if args.quiet {
        telemetry::set_quiet(true);
    }
    if args.telemetry {
        telemetry::add_sink(Box::new(telemetry::StderrSink));
        telemetry::set_enabled(true);
    }
    if let Some(path) = &args.telemetry_out {
        match telemetry::JsonlSink::create(path) {
            Ok(sink) => {
                telemetry::add_sink(Box::new(sink));
                telemetry::set_enabled(true);
            }
            Err(e) => {
                eprintln!("failed to open telemetry output {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    let spec = &args.spec;
    let graph = match io::read_graph(Path::new(&spec.input)) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("failed to read {}: {e}", spec.input);
            return ExitCode::FAILURE;
        }
    };
    progress!(
        "loaded {}: {} nodes, {} edges, {} classes, {} features, homophily {:.3}",
        spec.input,
        graph.num_nodes(),
        graph.num_edges(),
        graph.num_classes(),
        graph.feat_dim(),
        metrics::homophily_ratio(&graph)
    );

    let split = stratified_split(graph.labels(), graph.num_classes(), spec.split_seed);

    if let Some(model_path) = &args.load_model {
        return match eval_saved_model(model_path, &graph, &split) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("failed to evaluate {}: {e}", model_path.display());
                ExitCode::FAILURE
            }
        };
    }

    let mut cfg = spec.to_config();
    cfg.entropy_refresh_every = args.entropy_refresh_every;

    progress!(
        "running {}-RARE ({:?}, rewirer {}, {} DRL steps, lambda {}, k-cap {}) ...",
        spec.backbone.name(),
        spec.algo,
        spec.rewirer.name(),
        cfg.steps,
        spec.lambda,
        spec.k_cap
    );
    let report = match run(&graph, &split, &args, &cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(summary) = &report.telemetry {
        if !telemetry::quiet() {
            eprint!("{}", summary.render_table());
        }
    }

    println!("test accuracy (best-validation checkpoint): {:.2}%", 100.0 * report.test_acc);
    println!("best validation accuracy:                   {:.2}%", 100.0 * report.best_val_acc);
    println!(
        "homophily ratio:                            {:.3} -> {:.3}",
        report.original_homophily, report.optimized_homophily
    );
    println!(
        "edges:                                      {} -> {}",
        graph.num_edges(),
        report.optimized_graph.num_edges()
    );

    if let Some(model_path) = &args.save_model {
        match persist::save_model(model_path, &report) {
            Ok(bytes) => {
                progress!("model artifact written to {} ({bytes} bytes)", model_path.display())
            }
            Err(e) => {
                eprintln!("failed to write model {}: {e}", model_path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(out) = args.output {
        // Route the bundle through the store's atomic temp+rename writer
        // so a kill mid-write cannot leave a torn half-bundle behind.
        let result = io::write_graph_via(&report.optimized_graph, &out, &mut |path, bytes| {
            write_atomic(path, bytes).map(|_| ()).map_err(std::io::Error::other)
        });
        if let Err(e) = result {
            eprintln!("failed to write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
        progress!("optimised graph written to {}.{{edges,features,labels}}", out.display());
    }
    ExitCode::SUCCESS
}
