//! Checkpoint and model-artifact files.
//!
//! This module maps the plain-data [`DriverSnapshot`] and the final
//! [`RareReport`] onto `graphrare-store` containers and back:
//!
//! * **Checkpoints** (`save_checkpoint` / `load_snapshot` /
//!   [`resume_driver`]) carry every mutable piece of the Algorithm-1
//!   loop. A run killed between steps and resumed from its last
//!   checkpoint produces a final report **bit-identical** to an
//!   uninterrupted run — floats travel as raw IEEE-754 bits and both
//!   RNG streams resume mid-sequence.
//! * **Model artifacts** (`save_model` / `load_model`) carry the
//!   best-validation parameters and optimised topology of a finished
//!   run, enough to re-evaluate the model without retraining.
//!
//! Every load validates magic, version, CRCs (in the store layer) and
//! then cross-checks the artifact against the config/graph it is being
//! restored into; all failures are typed [`StoreError`]s, never panics.

use std::path::Path;

use graphrare_datasets::Split;
use graphrare_gnn::{Backbone, Trainer, TrainerState};
use graphrare_graph::Graph;
use graphrare_rl::{AgentState, PpoStats, RolloutBuffer};
use graphrare_store::{Container, ContainerWriter, StoreError, TopologyRecord};
use graphrare_telemetry as telemetry;
use graphrare_tensor::Matrix;

use crate::config::GraphRareConfig;
use crate::driver::{DriverSnapshot, RareDriver, RareReport, RunTraces};
use crate::reward::PerfSnapshot;

/// `kind` section contents of a checkpoint container. v2 added the
/// required `strategy` section.
const CHECKPOINT_KIND: &[u8] = b"graphrare.checkpoint.v2";
/// `kind` section contents of a model-artifact container.
const MODEL_KIND: &[u8] = b"graphrare.model.v1";

fn named(params: &[Matrix]) -> Vec<(String, Matrix)> {
    params.iter().enumerate().map(|(i, m)| (format!("p{i}"), m.clone())).collect()
}

fn unnamed(params: Vec<(String, Matrix)>) -> Vec<Matrix> {
    params.into_iter().map(|(_, m)| m).collect()
}

/// `strategy` section contents: the RL algorithm and the rewiring
/// strategy whose learned state and rollout buffer the checkpoint holds.
/// PPO and A2C share one agent type, so nothing else tells their
/// checkpoints apart.
fn strategy_tag(cfg: &GraphRareConfig) -> String {
    format!("algo={} rewirer={}", cfg.algo.name(), cfg.rewirer.name())
}

fn expect_kind(c: &Container, expected: &[u8]) -> Result<(), StoreError> {
    let found = c.bytes("kind")?;
    if found != expected {
        return Err(StoreError::Mismatch {
            context: format!(
                "artifact kind is {:?}, expected {:?}",
                String::from_utf8_lossy(found),
                String::from_utf8_lossy(expected)
            ),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

/// Writes a checkpoint of `driver`'s current loop state to `path`
/// (atomically — a crash mid-write leaves any previous file intact).
/// Returns the number of bytes written.
pub fn save_checkpoint(path: &Path, driver: &RareDriver) -> Result<u64, StoreError> {
    let clock = telemetry::Stopwatch::start();
    let snap = driver.snapshot();
    let cfg = driver.config();

    let mut w = ContainerWriter::new();
    w.put_bytes("kind", CHECKPOINT_KIND);
    w.put_bytes("strategy", strategy_tag(cfg).as_bytes());
    w.put_u64_vec(
        "meta",
        &[
            snap.step,
            cfg.steps as u64,
            cfg.update_every as u64,
            cfg.seed,
            snap.topo_k.len() as u64,
            snap.window_steps,
        ],
    );
    w.put_scalars(
        "floats",
        &[
            ("prev.accuracy".into(), snap.prev.accuracy),
            ("prev.loss".into(), snap.prev.loss),
            ("prev.auc".into(), snap.prev.auc),
            ("max_acc".into(), snap.max_acc),
            ("best_val".into(), snap.best_val),
            ("window_reward".into(), snap.window_reward as f64),
        ],
    );

    w.put_param_set("trainer/params", &named(&snap.trainer.params));
    w.put_adam("trainer/adam", &snap.trainer.adam);
    w.put_rng("trainer/rng", snap.trainer.rng);
    w.put_param_set("agent/params", &named(&snap.agent.params));
    w.put_adam("agent/adam", &snap.agent.adam);
    w.put_rng("agent/rng", snap.agent.rng);
    w.put_param_set("warm/params", &named(&snap.warm_params));
    w.put_param_set("best/params", &named(&snap.best_params));

    w.put_topology(
        "best/graph",
        &TopologyRecord {
            n: snap.topo_k.len() as u32,
            num_classes: driver.num_classes() as u32,
            edges: snap.best_graph_edges.clone(),
        },
    );
    w.put_u16_vec("topo/k", &snap.topo_k);
    w.put_u16_vec("topo/d", &snap.topo_d);
    w.put_u16_vec("topo/kmax", &snap.topo_k_max);
    w.put_u16_vec("topo/dmax", &snap.topo_d_max);

    // The rollout buffer: states are uniform 2n-wide rows, so they pack
    // into one matrix; actions/dones pack into raw bytes.
    let n2 = 2 * snap.topo_k.len();
    let rows = snap.buffer.states.len();
    let states = Matrix::from_vec(rows, n2, snap.buffer.states.concat());
    w.put_matrix("buffer/states", &states);
    w.put_bytes("buffer/actions", &snap.buffer.actions.concat());
    w.put_f32_vec("buffer/logp", &snap.buffer.log_probs);
    w.put_f32_vec("buffer/values", &snap.buffer.values);
    w.put_f32_vec("buffer/rewards", &snap.buffer.rewards);
    let dones: Vec<u8> = snap.buffer.dones.iter().map(|&d| d as u8).collect();
    w.put_bytes("buffer/dones", &dones);

    w.put_f64_vec("traces/train_acc", &snap.traces.train_acc);
    w.put_f64_vec("traces/val_acc", &snap.traces.val_acc);
    w.put_f64_vec("traces/homophily", &snap.traces.homophily);
    w.put_f32_vec("traces/episode_rewards", &snap.traces.episode_rewards);
    let ppo_flat: Vec<f32> = snap
        .traces
        .ppo_stats
        .iter()
        .flat_map(|s| [s.policy_loss, s.value_loss, s.entropy, s.approx_kl])
        .collect();
    w.put_f32_vec("traces/ppo", &ppo_flat);

    let bytes = w.write_atomic(path)?;
    telemetry::emit_with(|| {
        telemetry::Event::new("checkpoint.save")
            .u64("step", snap.step)
            .u64("bytes", bytes)
            .u64("wall_ns", clock.ns())
            .str("path", path.display().to_string())
    });
    Ok(bytes)
}

/// Reads a checkpoint written by [`save_checkpoint`] and cross-checks it
/// against `cfg` (step budget, update window, seed, RL algorithm and
/// rewiring strategy). The returned
/// snapshot still has to pass [`RareDriver::restore`]'s structural
/// validation — [`resume_driver`] bundles both.
pub fn load_snapshot(path: &Path, cfg: &GraphRareConfig) -> Result<DriverSnapshot, StoreError> {
    let clock = telemetry::Stopwatch::start();
    let c = Container::read(path)?;
    expect_kind(&c, CHECKPOINT_KIND)?;

    let meta = c.u64_vec("meta")?;
    let [step, steps, update_every, seed, _num_nodes, window_steps] = meta[..] else {
        return Err(StoreError::Corrupt {
            context: format!("checkpoint meta has {} entries, expected 6", meta.len()),
        });
    };
    if steps != cfg.steps as u64 || update_every != cfg.update_every as u64 || seed != cfg.seed {
        return Err(StoreError::Mismatch {
            context: format!(
                "checkpoint was taken with steps={steps} update-every={update_every} \
                 seed={seed}, current config has steps={} update-every={} seed={}",
                cfg.steps, cfg.update_every, cfg.seed
            ),
        });
    }
    let strategy = c.bytes("strategy")?;
    let expected = strategy_tag(cfg);
    if strategy != expected.as_bytes() {
        return Err(StoreError::Mismatch {
            context: format!(
                "checkpoint was taken with {}, current config has {expected}",
                String::from_utf8_lossy(strategy)
            ),
        });
    }

    let prev = PerfSnapshot {
        accuracy: c.scalar("floats", "prev.accuracy")?,
        loss: c.scalar("floats", "prev.loss")?,
        auc: c.scalar("floats", "prev.auc")?,
    };

    let trainer = TrainerState {
        params: unnamed(c.param_set("trainer/params")?),
        adam: c.adam("trainer/adam")?,
        rng: c.rng("trainer/rng")?,
    };
    let agent = AgentState {
        params: unnamed(c.param_set("agent/params")?),
        adam: c.adam("agent/adam")?,
        rng: c.rng("agent/rng")?,
    };

    let best_graph = c.topology("best/graph")?;

    let buffer = decode_buffer(&c)?;
    let traces = decode_traces(&c)?;

    let snap = DriverSnapshot {
        step,
        trainer,
        agent,
        topo_k: c.u16_vec("topo/k")?,
        topo_d: c.u16_vec("topo/d")?,
        topo_k_max: c.u16_vec("topo/kmax")?,
        topo_d_max: c.u16_vec("topo/dmax")?,
        prev,
        max_acc: c.scalar("floats", "max_acc")?,
        best_val: c.scalar("floats", "best_val")?,
        warm_params: unnamed(c.param_set("warm/params")?),
        best_params: unnamed(c.param_set("best/params")?),
        best_graph_edges: best_graph.edges,
        buffer,
        traces,
        window_reward: c.scalar("floats", "window_reward")? as f32,
        window_steps,
    };
    telemetry::emit_with(|| {
        telemetry::Event::new("checkpoint.load")
            .u64("step", snap.step)
            .u64("wall_ns", clock.ns())
            .str("path", path.display().to_string())
    });
    Ok(snap)
}

fn decode_buffer(c: &Container) -> Result<RolloutBuffer, StoreError> {
    let states = c.matrix("buffer/states")?;
    let (rows, cols) = states.shape();
    let states: Vec<Vec<f32>> =
        (0..rows).map(|r| states.as_slice()[r * cols..(r + 1) * cols].to_vec()).collect();
    let actions_flat = c.bytes("buffer/actions")?;
    if actions_flat.len() != rows * cols {
        return Err(StoreError::Corrupt {
            context: format!(
                "buffer actions hold {} entries, states imply {}",
                actions_flat.len(),
                rows * cols
            ),
        });
    }
    let actions: Vec<Vec<u8>> =
        (0..rows).map(|r| actions_flat[r * cols..(r + 1) * cols].to_vec()).collect();
    let dones_raw = c.bytes("buffer/dones")?;
    if let Some(&bad) = dones_raw.iter().find(|&&b| b > 1) {
        return Err(StoreError::Corrupt {
            context: format!("buffer dones contain non-boolean byte {bad}"),
        });
    }
    let buffer = RolloutBuffer {
        states,
        actions,
        log_probs: c.f32_vec("buffer/logp")?,
        values: c.f32_vec("buffer/values")?,
        rewards: c.f32_vec("buffer/rewards")?,
        dones: dones_raw.iter().map(|&b| b == 1).collect(),
    };
    if buffer.log_probs.len() != rows
        || buffer.values.len() != rows
        || buffer.rewards.len() != rows
        || buffer.dones.len() != rows
    {
        return Err(StoreError::Corrupt {
            context: "buffer columns disagree in length".to_string(),
        });
    }
    Ok(buffer)
}

fn decode_traces(c: &Container) -> Result<RunTraces, StoreError> {
    let ppo_flat = c.f32_vec("traces/ppo")?;
    if ppo_flat.len() % 4 != 0 {
        return Err(StoreError::Corrupt {
            context: format!("ppo trace length {} is not a multiple of 4", ppo_flat.len()),
        });
    }
    let ppo_stats = ppo_flat
        .chunks_exact(4)
        .map(|c| PpoStats { policy_loss: c[0], value_loss: c[1], entropy: c[2], approx_kl: c[3] })
        .collect();
    Ok(RunTraces {
        train_acc: c.f64_vec("traces/train_acc")?,
        val_acc: c.f64_vec("traces/val_acc")?,
        homophily: c.f64_vec("traces/homophily")?,
        episode_rewards: c.f32_vec("traces/episode_rewards")?,
        ppo_stats,
    })
}

/// Loads a checkpoint and builds a driver ready to continue from it:
/// [`RareDriver::new_for_resume`] (which skips warm-up) followed by a
/// fully validated [`RareDriver::restore`].
pub fn resume_driver(
    path: &Path,
    graph: &Graph,
    split: &Split,
    backbone: Backbone,
    cfg: &GraphRareConfig,
) -> Result<RareDriver, StoreError> {
    let snap = load_snapshot(path, cfg)?;
    if snap.topo_k.len() != graph.num_nodes() {
        return Err(StoreError::Mismatch {
            context: format!(
                "checkpoint covers {} nodes, graph has {}",
                snap.topo_k.len(),
                graph.num_nodes()
            ),
        });
    }
    let mut driver = RareDriver::new_for_resume(graph, split, backbone, cfg);
    driver.restore(&snap).map_err(|context| StoreError::Mismatch { context })?;
    Ok(driver)
}

// ---------------------------------------------------------------------------
// Model artifacts
// ---------------------------------------------------------------------------

/// A trained GraphRARE model as loaded from disk: the best-validation
/// parameters, the optimised topology and the headline metrics.
#[derive(Clone, Debug)]
pub struct ModelArtifact {
    /// Backbone name (`"GCN"`, `"GAT"`, ...).
    pub backbone: String,
    /// Model parameters at the best-validation checkpoint.
    pub params: Vec<Matrix>,
    /// Optimised topology (features/labels come from the base graph).
    pub topology: TopologyRecord,
    /// Test accuracy recorded at save time.
    pub test_acc: f64,
    /// Best validation accuracy recorded at save time.
    pub best_val_acc: f64,
    /// Homophily of the original graph.
    pub original_homophily: f64,
    /// Homophily of the optimised graph.
    pub optimized_homophily: f64,
}

/// Persists a finished run's model (best-validation parameters +
/// optimised topology + metrics) to `path`. Returns bytes written.
pub fn save_model(path: &Path, report: &RareReport) -> Result<u64, StoreError> {
    let mut w = ContainerWriter::new();
    w.put_bytes("kind", MODEL_KIND);
    w.put_bytes("backbone", report.backbone.as_bytes());
    w.put_param_set("model/params", &named(&report.model_params));
    w.put_topology("graph", &TopologyRecord::from_graph(&report.optimized_graph));
    w.put_scalars(
        "metrics",
        &[
            ("test_acc".into(), report.test_acc),
            ("best_val_acc".into(), report.best_val_acc),
            ("original_homophily".into(), report.original_homophily),
            ("optimized_homophily".into(), report.optimized_homophily),
        ],
    );
    w.write_atomic(path)
}

/// Reads a model artifact written by [`save_model`].
pub fn load_model(path: &Path) -> Result<ModelArtifact, StoreError> {
    let c = Container::read(path)?;
    expect_kind(&c, MODEL_KIND)?;
    let backbone = String::from_utf8(c.bytes("backbone")?.to_vec()).map_err(|_| {
        StoreError::Corrupt { context: "backbone name is not valid utf-8".to_string() }
    })?;
    Ok(ModelArtifact {
        backbone,
        params: unnamed(c.param_set("model/params")?),
        topology: c.topology("graph")?,
        test_acc: c.scalar("metrics", "test_acc")?,
        best_val_acc: c.scalar("metrics", "best_val_acc")?,
        original_homophily: c.scalar("metrics", "original_homophily")?,
        optimized_homophily: c.scalar("metrics", "optimized_homophily")?,
    })
}

/// Restores saved parameters into a trainer after validating shapes —
/// the typed-error counterpart of [`Trainer::restore`], which panics on
/// mismatch.
pub fn apply_model_params(trainer: &Trainer, params: &[Matrix]) -> Result<(), StoreError> {
    let cur = trainer.snapshot();
    if cur.len() != params.len() {
        return Err(StoreError::Mismatch {
            context: format!(
                "artifact has {} parameter tensors, model expects {}",
                params.len(),
                cur.len()
            ),
        });
    }
    for (i, (p, c)) in params.iter().zip(&cur).enumerate() {
        if p.shape() != c.shape() {
            return Err(StoreError::Mismatch {
                context: format!(
                    "artifact parameter {i} is {:?}, model expects {:?}",
                    p.shape(),
                    c.shape()
                ),
            });
        }
    }
    trainer.restore(params);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run;
    use graphrare_datasets::{generate_spec, stratified_split, DatasetSpec};
    use graphrare_gnn::{build_model, evaluate, GraphTensors};

    fn fixture() -> (Graph, Split) {
        let spec = DatasetSpec {
            name: "persist-test",
            num_nodes: 50,
            num_edges: 110,
            feat_dim: 16,
            num_classes: 3,
            homophily: 0.2,
            degree_exponent: 0.4,
            feature_signal: 0.8,
            feature_density: 0.05,
        };
        let g = generate_spec(&spec, 9);
        let split = stratified_split(g.labels(), g.num_classes(), 0);
        (g, split)
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir()
            .join(format!("grr-persist-{tag}-{}", std::process::id()))
            .join("file.grrs")
    }

    #[test]
    fn checkpoint_roundtrip_resumes_bit_identically() {
        let (g, split) = fixture();
        let cfg = GraphRareConfig::fast().with_seed(23);
        let uninterrupted = run(&g, &split, Backbone::Gcn, &cfg).unwrap();

        let mut driver = RareDriver::new(&g, &split, Backbone::Gcn, &cfg);
        for _ in 0..2 {
            driver.try_step().unwrap();
        }
        let path = temp_path("ckpt");
        save_checkpoint(&path, &driver).unwrap();
        drop(driver);

        let mut resumed = resume_driver(&path, &g, &split, Backbone::Gcn, &cfg).unwrap();
        assert_eq!(resumed.step_index(), 2);
        while resumed.try_step().unwrap() {}
        let report = resumed.try_finish().unwrap();
        assert_eq!(report.test_acc.to_bits(), uninterrupted.test_acc.to_bits());
        assert_eq!(report.traces.train_acc, uninterrupted.traces.train_acc);
        assert_eq!(report.traces.episode_rewards, uninterrupted.traces.episode_rewards);
        assert_eq!(report.optimized_graph.edge_vec(), uninterrupted.optimized_graph.edge_vec());
        assert_eq!(report.model_params, uninterrupted.model_params);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn load_rejects_config_mismatch() {
        let (g, split) = fixture();
        let cfg = GraphRareConfig::fast().with_seed(29);
        let mut driver = RareDriver::new(&g, &split, Backbone::Gcn, &cfg);
        driver.try_step().unwrap();
        let path = temp_path("cfg-mismatch");
        save_checkpoint(&path, &driver).unwrap();

        let other = GraphRareConfig::fast().with_seed(31);
        assert!(matches!(load_snapshot(&path, &other), Err(StoreError::Mismatch { .. })));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn load_rejects_checkpoint_without_strategy() {
        // A checkpoint that does not record its strategy (the v1 layout)
        // is a typed error, never read as whatever the caller configured.
        let cfg = GraphRareConfig::fast().with_seed(43);
        let meta = [1, cfg.steps as u64, cfg.update_every as u64, cfg.seed, 50, 1];
        let path = temp_path("no-strategy");
        let write = |kind: &[u8]| {
            let mut w = ContainerWriter::new();
            w.put_bytes("kind", kind);
            w.put_u64_vec("meta", &meta);
            w.write_atomic(&path).unwrap();
        };
        write(b"graphrare.checkpoint.v1");
        assert!(matches!(load_snapshot(&path, &cfg), Err(StoreError::Mismatch { .. })));
        write(CHECKPOINT_KIND);
        assert!(matches!(
            load_snapshot(&path, &cfg),
            Err(StoreError::MissingSection { section }) if section == "strategy"
        ));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn model_artifact_reproduces_saved_test_accuracy() {
        let (g, split) = fixture();
        let cfg = GraphRareConfig::fast().with_seed(37);
        let report = run(&g, &split, Backbone::Gcn, &cfg).unwrap();
        let path = temp_path("model");
        save_model(&path, &report).unwrap();

        let artifact = load_model(&path).unwrap();
        assert_eq!(artifact.backbone, report.backbone);
        assert_eq!(artifact.test_acc.to_bits(), report.test_acc.to_bits());

        // Rebuild the model and graph and confirm the stored parameters
        // really evaluate to the stored test accuracy.
        let opt_graph = artifact.topology.to_graph(&g).unwrap();
        let model = build_model(Backbone::Gcn, g.feat_dim(), g.num_classes(), &cfg.model);
        let trainer = Trainer::new(model.as_ref(), &cfg.train);
        apply_model_params(&trainer, &artifact.params).unwrap();
        let eval =
            evaluate(model.as_ref(), &GraphTensors::new(&opt_graph), g.labels(), &split.test);
        assert_eq!(eval.accuracy.to_bits(), report.test_acc.to_bits());
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn model_file_is_not_a_checkpoint() {
        let (g, split) = fixture();
        let cfg = GraphRareConfig::fast().with_seed(41);
        let report = run(&g, &split, Backbone::Gcn, &cfg).unwrap();
        let path = temp_path("kind");
        save_model(&path, &report).unwrap();
        assert!(matches!(
            load_snapshot(&path, &cfg),
            Err(StoreError::Mismatch { .. }) | Err(StoreError::MissingSection { .. })
        ));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
