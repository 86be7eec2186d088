//! The resume contract: a run killed after 3 steps, checkpointed with
//! `persist::save_checkpoint` and resumed with `persist::resume_driver`,
//! finishes with a `RareReport` bit-identical to the uninterrupted run —
//! under PPO, under its A2C preset and under a heuristic rewirer. A
//! checkpoint taken under one strategy refuses to resume under another
//! with a typed `StoreError::Mismatch`.

use std::path::PathBuf;

use graphrare::{persist, GraphRareConfig, RareDriver, RareReport, RewirerKind, RlAlgo};
use graphrare_datasets::{generate_spec, stratified_split, DatasetSpec, Split};
use graphrare_gnn::Backbone;
use graphrare_graph::Graph;
use graphrare_store::StoreError;

fn fixture() -> (Graph, Split) {
    let spec = DatasetSpec {
        name: "resume-contract",
        num_nodes: 50,
        num_edges: 110,
        feat_dim: 16,
        num_classes: 3,
        homophily: 0.15,
        degree_exponent: 0.4,
        feature_signal: 0.8,
        feature_density: 0.05,
    };
    let g = generate_spec(&spec, 13);
    let split = stratified_split(g.labels(), g.num_classes(), 0);
    (g, split)
}

fn config(algo: RlAlgo, rewirer: RewirerKind) -> GraphRareConfig {
    let mut cfg = GraphRareConfig::fast().with_seed(21);
    cfg.algo = algo;
    cfg.rewirer = rewirer;
    cfg
}

fn checkpoint_path(tag: &str) -> PathBuf {
    std::env::temp_dir()
        .join(format!("graphrare-resume-contract-{tag}-{}", std::process::id()))
        .join("step-000003.grrs")
}

/// Runs `cfg` for 3 steps and checkpoints it, as a run killed right
/// after its step-3 checkpoint would have left it.
fn killed_after_three_steps(g: &Graph, split: &Split, cfg: &GraphRareConfig, tag: &str) -> PathBuf {
    let mut driver = RareDriver::new(g, split, Backbone::Gcn, cfg);
    for _ in 0..3 {
        assert!(driver.try_step().unwrap());
    }
    let path = checkpoint_path(tag);
    persist::save_checkpoint(&path, &driver).unwrap();
    path
}

fn assert_reports_identical(a: &RareReport, b: &RareReport) {
    assert_eq!(a.backbone, b.backbone);
    assert_eq!(a.test_acc.to_bits(), b.test_acc.to_bits());
    assert_eq!(a.best_val_acc.to_bits(), b.best_val_acc.to_bits());
    assert_eq!(a.original_homophily.to_bits(), b.original_homophily.to_bits());
    assert_eq!(a.optimized_homophily.to_bits(), b.optimized_homophily.to_bits());
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.traces.train_acc), bits(&b.traces.train_acc));
    assert_eq!(bits(&a.traces.val_acc), bits(&b.traces.val_acc));
    assert_eq!(bits(&a.traces.homophily), bits(&b.traces.homophily));
    let bits32 = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits32(&a.traces.episode_rewards), bits32(&b.traces.episode_rewards));
    let stats = |r: &RareReport| {
        r.traces
            .ppo_stats
            .iter()
            .flat_map(|s| [s.policy_loss, s.value_loss, s.entropy, s.approx_kl])
            .map(f32::to_bits)
            .collect::<Vec<_>>()
    };
    assert_eq!(stats(a), stats(b));
    assert_eq!(a.optimized_graph.edge_vec(), b.optimized_graph.edge_vec());
    let params = |r: &RareReport| {
        r.model_params
            .iter()
            .flat_map(|m| m.as_slice().iter().map(|x| x.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(params(a), params(b));
}

fn assert_resume_is_bit_identical(algo: RlAlgo, rewirer: RewirerKind, tag: &str) {
    let (g, split) = fixture();
    let cfg = config(algo, rewirer);
    let uninterrupted = graphrare::run(&g, &split, Backbone::Gcn, &cfg).unwrap();

    let path = killed_after_three_steps(&g, &split, &cfg, tag);
    let mut resumed = persist::resume_driver(&path, &g, &split, Backbone::Gcn, &cfg).unwrap();
    assert_eq!(resumed.step_index(), 3);
    while resumed.try_step().unwrap() {}
    let report = resumed.try_finish().unwrap();

    assert_eq!(report.traces.train_acc.len(), cfg.steps);
    assert_reports_identical(&uninterrupted, &report);
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

/// A checkpoint taken under `taken` must not resume under `resumed`.
fn assert_resume_refused(taken: GraphRareConfig, resumed: GraphRareConfig, tag: &str) {
    let (g, split) = fixture();
    let path = killed_after_three_steps(&g, &split, &taken, tag);
    let result = persist::resume_driver(&path, &g, &split, Backbone::Gcn, &resumed);
    match result {
        Err(StoreError::Mismatch { context }) => {
            assert!(context.contains("algo=") && context.contains("rewirer="), "{context}");
        }
        Err(other) => panic!("expected a strategy mismatch, got {other}"),
        Ok(_) => panic!("a checkpoint resumed under another strategy"),
    }
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

#[test]
fn ppo_run_resumes_bit_identically() {
    assert_resume_is_bit_identical(RlAlgo::Ppo, RewirerKind::Ppo, "ppo");
}

#[test]
fn a2c_run_resumes_bit_identically() {
    assert_resume_is_bit_identical(RlAlgo::A2c, RewirerKind::Ppo, "a2c");
}

#[test]
fn dhgr_run_resumes_bit_identically() {
    assert_resume_is_bit_identical(RlAlgo::Ppo, RewirerKind::Dhgr, "dhgr");
}

#[test]
fn ppo_checkpoint_refuses_a2c_resume() {
    let taken = config(RlAlgo::Ppo, RewirerKind::Ppo);
    assert_resume_refused(taken, config(RlAlgo::A2c, RewirerKind::Ppo), "ppo-to-a2c");
}

#[test]
fn dhgr_checkpoint_refuses_reference_resume() {
    let taken = config(RlAlgo::Ppo, RewirerKind::Dhgr);
    assert_resume_refused(taken, config(RlAlgo::Ppo, RewirerKind::Reference), "dhgr-to-reference");
}

#[test]
fn dhgr_checkpoint_refuses_none_resume() {
    let taken = config(RlAlgo::Ppo, RewirerKind::Dhgr);
    assert_resume_refused(taken, config(RlAlgo::Ppo, RewirerKind::None), "dhgr-to-none");
}
