//! One solo run, through the public calls the `graphrare` CLI makes,
//! timed at each call boundary; and the artifact check that re-reads
//! its output.

use std::path::Path;
use std::time::Instant;

use graphrare::{persist, GraphRareConfig, RareDriver};
use graphrare_datasets::{stratified_split, Split};
use graphrare_gnn::{build_model, evaluate, GraphTensors, Trainer};
use graphrare_graph::{io, Graph};
use graphrare_serve::RunSpec;

/// Timings and outputs of one whole solo run.
pub struct SoloRun {
    /// `io::read_graph` + `stratified_split` + config.
    pub load_s: f64,
    /// `RareDriver::new`: entropy precompute and warm-up.
    pub new_s: f64,
    /// One entry per `try_step` that ran a step.
    pub step_s: Vec<f64>,
    pub finish_s: f64,
    pub save_s: f64,
    pub test_acc: f64,
    /// The `save_model` artifact as written.
    pub artifact: Vec<u8>,
    /// `(seconds per save, bytes)` of `persist::save_checkpoint` on the
    /// run's driver after its last step, when asked for.
    pub checkpoint: Option<(Vec<f64>, u64)>,
}

impl SoloRun {
    pub fn setup_s(&self) -> f64 {
        self.load_s + self.new_s
    }

    /// Input load to artifact written.
    pub fn run_s(&self) -> f64 {
        self.setup_s() + self.step_s.iter().sum::<f64>() + self.finish_s + self.save_s
    }
}

/// The config the `graphrare` CLI builds from its flags, field for field.
pub fn cli_config(spec: &RunSpec) -> GraphRareConfig {
    let mut cfg = GraphRareConfig::default().with_seed(spec.seed);
    cfg.entropy.lambda = spec.lambda;
    cfg.steps = spec.steps as usize;
    cfg.k_cap = spec.k_cap as usize;
    cfg.algo = spec.algo;
    cfg.rewirer = spec.rewirer;
    cfg.threads = spec.threads as usize;
    cfg
}

/// The CLI's input path: bundle read, split, config.
pub fn load(spec: &RunSpec) -> Result<(Graph, Split, GraphRareConfig), String> {
    let graph =
        io::read_graph(Path::new(&spec.input)).map_err(|e| format!("read {}: {e}", spec.input))?;
    let split = stratified_split(graph.labels(), graph.num_classes(), spec.split_seed);
    Ok((graph, split, cli_config(spec)))
}

/// Set-up only: load plus `RareDriver::new`, then drop the driver.
pub fn setup_only(spec: &RunSpec) -> Result<f64, String> {
    let t = Instant::now();
    let (graph, split, cfg) = load(spec)?;
    let driver = RareDriver::new(&graph, &split, spec.backbone, &cfg);
    let s = t.elapsed().as_secs_f64();
    drop(driver);
    Ok(s)
}

/// Runs `spec` to a `save_model` artifact at `out`, then checks the
/// artifact by reloading it. `checkpoint_probe` names a scratch file for
/// timing `save_checkpoint` outside the run's own timings.
pub fn run(spec: &RunSpec, out: &Path, checkpoint_probe: Option<&Path>) -> Result<SoloRun, String> {
    let t = Instant::now();
    let (graph, split, cfg) = load(spec)?;
    let load_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut driver = RareDriver::new(&graph, &split, spec.backbone, &cfg);
    let new_s = t.elapsed().as_secs_f64();

    let mut step_s = Vec::with_capacity(cfg.steps);
    loop {
        let t = Instant::now();
        let stepped = driver.try_step().map_err(|e| format!("try_step: {e}"))?;
        if !stepped {
            break;
        }
        step_s.push(t.elapsed().as_secs_f64());
    }
    if step_s.len() != cfg.steps {
        return Err(format!("ran {} of {} steps", step_s.len(), cfg.steps));
    }

    let checkpoint = match checkpoint_probe {
        Some(path) => Some(time_checkpoints(&driver, path)?),
        None => None,
    };

    let t = Instant::now();
    let report = driver.try_finish().map_err(|e| format!("try_finish: {e}"))?;
    let finish_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    persist::save_model(out, &report).map_err(|e| format!("save_model: {e}"))?;
    let save_s = t.elapsed().as_secs_f64();

    verify_artifact(out, &graph, &split, spec, report.test_acc)?;
    let artifact = std::fs::read(out).map_err(|e| format!("read {}: {e}", out.display()))?;
    Ok(SoloRun {
        load_s,
        new_s,
        step_s,
        finish_s,
        save_s,
        test_acc: report.test_acc,
        artifact,
        checkpoint,
    })
}

fn time_checkpoints(driver: &RareDriver, path: &Path) -> Result<(Vec<f64>, u64), String> {
    let mut times = Vec::new();
    let mut bytes = 0;
    for _ in 0..3 {
        let t = Instant::now();
        bytes = persist::save_checkpoint(path, driver).map_err(|e| format!("checkpoint: {e}"))?;
        times.push(t.elapsed().as_secs_f64());
    }
    let _ = std::fs::remove_file(path);
    Ok((times, bytes))
}

/// The CLI's `--load-model` path as a check: the artifact must load,
/// record `expected_test_acc`, and reproduce it bit for bit when its
/// parameters are re-evaluated on its topology.
pub fn verify_artifact(
    path: &Path,
    graph: &Graph,
    split: &Split,
    spec: &RunSpec,
    expected_test_acc: f64,
) -> Result<(), String> {
    let artifact = persist::load_model(path).map_err(|e| format!("load_model: {e}"))?;
    if artifact.test_acc.to_bits() != expected_test_acc.to_bits() {
        return Err(format!(
            "artifact records test acc {} but the run reported {expected_test_acc}",
            artifact.test_acc
        ));
    }
    let cfg = cli_config(spec);
    let topology = artifact.topology.to_graph(graph).map_err(|e| format!("topology: {e}"))?;
    let model = build_model(spec.backbone, graph.feat_dim(), graph.num_classes(), &cfg.model);
    let trainer = Trainer::new(model.as_ref(), &cfg.train);
    persist::apply_model_params(&trainer, &artifact.params).map_err(|e| format!("params: {e}"))?;
    let test = evaluate(model.as_ref(), &GraphTensors::new(&topology), graph.labels(), &split.test);
    if test.accuracy.to_bits() != expected_test_acc.to_bits() {
        return Err(format!(
            "re-evaluated test acc {} differs from the recorded {expected_test_acc}",
            test.accuracy
        ));
    }
    Ok(())
}
