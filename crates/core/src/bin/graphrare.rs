//! `graphrare` — command-line interface to the framework.
//!
//! Runs GraphRARE on a user-supplied attributed graph and writes back the
//! optimised topology plus a metrics summary. Input is the plain-text
//! bundle format of [`graphrare_graph::io`]: `<prefix>.edges`,
//! `<prefix>.features`, `<prefix>.labels`.
//!
//! ```text
//! graphrare --input data/mygraph --output out/mygraph-optimized \
//!           [--backbone gcn|sage|gat|h2gcn] [--lambda 1.0] [--steps 160]
//!           [--seed 42] [--split-seed 0] [--k-cap 10] [--algo ppo|a2c]
//!           [--rewirer ppo|dhgr|reference|none]
//!           [--entropy-refresh-every N]
//!           [--threads N] [--quiet] [--telemetry] [--telemetry-out PATH]
//!           [--checkpoint-every N --checkpoint-dir DIR] [--resume]
//!           [--save-model PATH | --load-model PATH] [--run-id N]
//! ```
//!
//! `--rewirer` selects the strategy that proposes per-step topology
//! edits: `ppo` (the paper's DRL module, default), `dhgr`
//! (feature/label-similarity rewiring), `reference` (feature-kNN
//! reference-graph rewiring) or `none` (train the backbone on the
//! untouched graph through the same loop). All strategies share the
//! incremental apply pipeline, so runs stay bit-reproducible.
//!
//! `--entropy-refresh-every N` re-ranks the candidate sequences against
//! the current rewired graph every `N` DRL steps via the incremental
//! entropy engine (default 0 = the paper's frozen sequences). The mode
//! is incompatible with checkpointing, which snapshots neither the
//! engine nor the re-anchored optimiser.
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
//! to an uninterrupted one. A checkpoint written under another `--algo`
//! or `--rewirer` is refused. `--save-model` persists the trained model
//! (best-validation parameters + optimised topology) as one artifact
//! file; `--load-model` skips training and re-evaluates such an
//! artifact on the input graph's split.
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

use graphrare::{
    persist, GraphRareConfig, RareDriver, RareReport, RewireError, RewirerKind, RlAlgo,
};
use graphrare_datasets::{stratified_split, Split};
use graphrare_gnn::{build_model, evaluate, Backbone, GraphTensors, Trainer};
use graphrare_graph::{io, metrics, Graph};
use graphrare_store::write_atomic;
use graphrare_telemetry::{self as telemetry, progress};

// Opt into allocation accounting: span paths in `--telemetry` output
// carry alloc count/bytes/peak attribution.
graphrare_telemetry::install_counting_allocator!();

struct Args {
    input: PathBuf,
    output: Option<PathBuf>,
    backbone: Backbone,
    lambda: f64,
    steps: usize,
    seed: u64,
    split_seed: u64,
    k_cap: usize,
    algo: RlAlgo,
    rewirer: RewirerKind,
    entropy_refresh_every: usize,
    threads: usize,
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
         [--backbone gcn|sage|gat|h2gcn] [--lambda F] [--steps N] \
         [--seed N] [--split-seed N] [--k-cap N] [--algo ppo|a2c] \
         [--rewirer ppo|dhgr|reference|none] [--entropy-refresh-every N] \
         [--threads N] [--quiet] [--telemetry] [--telemetry-out PATH] \
         [--checkpoint-every N --checkpoint-dir DIR] [--resume] \
         [--save-model PATH | --load-model PATH] [--run-id N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        input: PathBuf::new(),
        output: None,
        backbone: Backbone::Gcn,
        lambda: 1.0,
        steps: 160,
        seed: 42,
        split_seed: 0,
        k_cap: 10,
        algo: RlAlgo::Ppo,
        rewirer: RewirerKind::Ppo,
        entropy_refresh_every: 0,
        threads: 0,
        quiet: false,
        telemetry: false,
        telemetry_out: None,
        checkpoint_every: 0,
        checkpoint_dir: None,
        resume: false,
        save_model: None,
        load_model: None,
        run_id: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let mut have_input = false;
    while i < argv.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match argv[i].as_str() {
            "--input" => {
                args.input = PathBuf::from(value(&mut i));
                have_input = true;
            }
            "--output" => args.output = Some(PathBuf::from(value(&mut i))),
            "--backbone" => {
                args.backbone = match value(&mut i).to_lowercase().as_str() {
                    "gcn" => Backbone::Gcn,
                    "sage" | "graphsage" => Backbone::Sage,
                    "gat" => Backbone::Gat,
                    "h2gcn" => Backbone::H2gcn,
                    other => {
                        eprintln!("unknown backbone {other}");
                        usage()
                    }
                }
            }
            "--lambda" => args.lambda = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--steps" => args.steps = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--split-seed" => args.split_seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--k-cap" => args.k_cap = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--entropy-refresh-every" => {
                args.entropy_refresh_every = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--threads" => args.threads = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--quiet" => args.quiet = true,
            "--telemetry" => args.telemetry = true,
            "--telemetry-out" => args.telemetry_out = Some(PathBuf::from(value(&mut i))),
            "--checkpoint-every" => {
                args.checkpoint_every = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--checkpoint-dir" => args.checkpoint_dir = Some(PathBuf::from(value(&mut i))),
            "--resume" => args.resume = true,
            "--save-model" => args.save_model = Some(PathBuf::from(value(&mut i))),
            "--load-model" => args.load_model = Some(PathBuf::from(value(&mut i))),
            "--run-id" => match value(&mut i).parse() {
                Ok(id) if id > 0 => args.run_id = Some(id),
                _ => {
                    eprintln!("--run-id must be a positive integer");
                    usage()
                }
            },
            "--algo" => {
                args.algo = match value(&mut i).to_lowercase().as_str() {
                    "ppo" => RlAlgo::Ppo,
                    "a2c" => RlAlgo::A2c,
                    other => {
                        eprintln!("unknown algorithm {other}");
                        usage()
                    }
                }
            }
            "--rewirer" => {
                let v = value(&mut i).to_lowercase();
                args.rewirer = match RewirerKind::parse(&v) {
                    Some(kind) => kind,
                    None => {
                        eprintln!("unknown rewirer {v}");
                        usage()
                    }
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other}");
                usage()
            }
        }
        i += 1;
    }
    if !have_input {
        usage();
    }
    if (args.checkpoint_every > 0 || args.resume) && args.checkpoint_dir.is_none() {
        eprintln!("--checkpoint-every and --resume require --checkpoint-dir");
        usage();
    }
    if args.entropy_refresh_every > 0 && (args.checkpoint_every > 0 || args.resume) {
        eprintln!(
            "--entropy-refresh-every is incompatible with checkpointing (the incremental \
             entropy engine's state is not captured by snapshots)"
        );
        usage();
    }
    if args.load_model.is_some() && args.save_model.is_some() {
        eprintln!("--load-model and --save-model are mutually exclusive");
        usage();
    }
    args
}

/// Checkpoint file name for one step count.
fn checkpoint_name(step: usize) -> String {
    format!("step-{step:06}.grrs")
}

/// Finds the highest-step `step-NNNNNN.grrs` in `dir`, if any.
fn latest_checkpoint(dir: &Path) -> Option<(usize, PathBuf)> {
    let entries = std::fs::read_dir(dir).ok()?;
    let mut best: Option<(usize, PathBuf)> = None;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let step: usize = match name.strip_prefix("step-").and_then(|s| s.strip_suffix(".grrs")) {
            Some(digits) => match digits.parse() {
                Ok(s) => s,
                Err(_) => continue,
            },
            None => continue,
        };
        match best {
            Some((b, _)) if step <= b => {}
            _ => best = Some((step, entry.path())),
        }
    }
    best
}

/// Evaluates a saved model artifact on the input graph without training.
fn eval_saved_model(path: &Path, graph: &Graph, split: &Split) -> Result<(), String> {
    let artifact = persist::load_model(path).map_err(|e| e.to_string())?;
    let backbone = match artifact.backbone.to_lowercase().as_str() {
        "mlp" => Backbone::Mlp,
        "gcn" => Backbone::Gcn,
        "graphsage" | "sage" => Backbone::Sage,
        "gat" => Backbone::Gat,
        "h2gcn" => Backbone::H2gcn,
        other => return Err(format!("artifact names unknown backbone {other:?}")),
    };
    let opt_graph = artifact.topology.to_graph(graph).map_err(|e| e.to_string())?;
    let cfg = GraphRareConfig::default();
    let model = build_model(backbone, graph.feat_dim(), graph.num_classes(), &cfg.model);
    let trainer = Trainer::new(model.as_ref(), &cfg.train);
    persist::apply_model_params(&trainer, &artifact.params).map_err(|e| e.to_string())?;

    let gt = GraphTensors::new(&opt_graph);
    let test = evaluate(model.as_ref(), &gt, graph.labels(), &split.test);
    let val = evaluate(model.as_ref(), &gt, graph.labels(), &split.val);
    progress!(
        "loaded {} model from {} (saved test acc {:.2}%)",
        artifact.backbone,
        path.display(),
        100.0 * artifact.test_acc
    );
    println!("test accuracy (saved model):                {:.2}%", 100.0 * test.accuracy);
    println!("validation accuracy (saved model):          {:.2}%", 100.0 * val.accuracy);
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

/// Runs the DRL loop stepwise, checkpointing every `every` steps, and
/// returns the final report. `resume` starts from the newest checkpoint
/// in `dir` when one exists.
fn run_checkpointed(
    graph: &Graph,
    split: &Split,
    args: &Args,
    cfg: &GraphRareConfig,
    dir: &Path,
) -> Result<RareReport, String> {
    let mut driver = match (args.resume, latest_checkpoint(dir)) {
        (true, Some((step, path))) => {
            progress!("resuming from {} (step {step})", path.display());
            persist::resume_driver(&path, graph, split, args.backbone, cfg)
                .map_err(|e| format!("cannot resume from {}: {e}", path.display()))?
        }
        (true, None) => {
            progress!("no checkpoint found in {}, starting fresh", dir.display());
            RareDriver::new(graph, split, args.backbone, cfg)
        }
        (false, _) => RareDriver::new(graph, split, args.backbone, cfg),
    };
    while driver.try_step().map_err(rewire_failed)? {
        let done = driver.step_index();
        if args.checkpoint_every > 0 && done % args.checkpoint_every == 0 {
            let path = dir.join(checkpoint_name(done));
            let bytes = persist::save_checkpoint(&path, &driver)
                .map_err(|e| format!("cannot write checkpoint {}: {e}", path.display()))?;
            progress!("checkpoint written: {} ({bytes} bytes)", path.display());
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

    let graph = match io::read_graph(&args.input) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("failed to read {}: {e}", args.input.display());
            return ExitCode::FAILURE;
        }
    };
    progress!(
        "loaded {}: {} nodes, {} edges, {} classes, {} features, homophily {:.3}",
        args.input.display(),
        graph.num_nodes(),
        graph.num_edges(),
        graph.num_classes(),
        graph.feat_dim(),
        metrics::homophily_ratio(&graph)
    );

    let split = stratified_split(graph.labels(), graph.num_classes(), args.split_seed);

    if let Some(model_path) = &args.load_model {
        return match eval_saved_model(model_path, &graph, &split) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("failed to evaluate {}: {e}", model_path.display());
                ExitCode::FAILURE
            }
        };
    }

    let mut cfg = GraphRareConfig::default().with_seed(args.seed);
    cfg.entropy.lambda = args.lambda;
    cfg.steps = args.steps;
    cfg.k_cap = args.k_cap;
    cfg.algo = args.algo;
    cfg.rewirer = args.rewirer;
    cfg.entropy_refresh_every = args.entropy_refresh_every;
    cfg.threads = args.threads;

    progress!(
        "running {}-RARE ({:?}, rewirer {}, {} DRL steps, lambda {}, k-cap {}) ...",
        args.backbone.name(),
        args.algo,
        args.rewirer.name(),
        cfg.steps,
        args.lambda,
        args.k_cap
    );
    let result = match &args.checkpoint_dir {
        Some(dir) => run_checkpointed(&graph, &split, &args, &cfg, dir),
        None => graphrare::run(&graph, &split, args.backbone, &cfg).map_err(rewire_failed),
    };
    let report = match result {
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
