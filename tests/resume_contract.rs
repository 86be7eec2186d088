//! The resume contract: a run killed after 3 steps, checkpointed with
//! `persist::save_checkpoint` and resumed with `persist::resume_driver`,
//! finishes with a `RareReport` bit-identical to the uninterrupted run —
//! under PPO, under its A2C preset and under a heuristic rewirer. With
//! entropy refreshes on, the same holds for kills before the first
//! refresh boundary, on one and after one, under every strategy that
//! edits. A checkpoint taken under one strategy or refresh cadence
//! refuses to resume under another with a typed `StoreError::Mismatch`.

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

/// Runs `cfg` for `steps` steps and checkpoints it, as a run killed
/// right after its step-`steps` checkpoint would have left it.
fn killed_after(
    g: &Graph,
    split: &Split,
    cfg: &GraphRareConfig,
    steps: usize,
    tag: &str,
) -> PathBuf {
    let mut driver = RareDriver::new(g, split, Backbone::Gcn, cfg);
    for _ in 0..steps {
        assert!(driver.try_step().unwrap());
    }
    let dir = std::env::temp_dir()
        .join(format!("graphrare-resume-contract-{tag}-{}", std::process::id()));
    let path = persist::checkpoint_path(&dir, steps);
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

/// Kills `cfg`'s run after each of `kills` steps and checks that every
/// resumed run matches the uninterrupted one bit for bit.
fn assert_resumes_are_bit_identical(cfg: &GraphRareConfig, kills: &[usize], tag: &str) {
    let (g, split) = fixture();
    let uninterrupted = graphrare::run(&g, &split, Backbone::Gcn, cfg).unwrap();
    for &kill in kills {
        let path = killed_after(&g, &split, cfg, kill, &format!("{tag}-{kill}"));
        // The checkpoint's anchor has left G_0 exactly when a refresh
        // boundary has passed.
        let anchor = persist::load_snapshot(&path, cfg).unwrap().anchor_edges;
        let g0: Vec<(u32, u32)> = g.edges().map(|(u, v)| (u as u32, v as u32)).collect();
        let refreshed = cfg.entropy_refresh_every > 0 && kill >= cfg.entropy_refresh_every;
        assert_eq!(anchor != g0, refreshed, "kill at {kill}");
        let mut resumed = persist::resume_driver(&path, &g, &split, Backbone::Gcn, cfg).unwrap();
        assert_eq!(resumed.step_index(), kill);
        while resumed.try_step().unwrap() {}
        let report = resumed.try_finish().unwrap();

        assert_eq!(report.traces.train_acc.len(), cfg.steps);
        assert_reports_identical(&uninterrupted, &report);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}

fn assert_resume_is_bit_identical(algo: RlAlgo, rewirer: RewirerKind, tag: &str) {
    assert_resumes_are_bit_identical(&config(algo, rewirer), &[3], tag);
}

/// Refresh every 3 steps; kills before the first boundary, on the first
/// boundary (its checkpoint already holds the re-anchored state) and
/// after it.
fn assert_refresh_resumes_are_bit_identical(algo: RlAlgo, rewirer: RewirerKind, tag: &str) {
    let mut cfg = config(algo, rewirer);
    cfg.entropy_refresh_every = 3;
    assert_resumes_are_bit_identical(&cfg, &[2, 3, 5], tag);
}

/// A checkpoint taken under `taken` must not resume under `resumed`,
/// and the refusal must name each of `names`.
fn assert_resume_refused(
    taken: GraphRareConfig,
    resumed: GraphRareConfig,
    names: &[&str],
    tag: &str,
) {
    let (g, split) = fixture();
    let path = killed_after(&g, &split, &taken, 3, tag);
    let result = persist::resume_driver(&path, &g, &split, Backbone::Gcn, &resumed);
    match result {
        Err(StoreError::Mismatch { context }) => {
            assert!(names.iter().all(|name| context.contains(name)), "{context}");
        }
        Err(other) => panic!("expected a config mismatch, got {other}"),
        Ok(_) => panic!("a checkpoint resumed under another config"),
    }
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

fn assert_strategy_refused(taken: GraphRareConfig, resumed: GraphRareConfig, tag: &str) {
    assert_resume_refused(taken, resumed, &["algo=", "rewirer="], tag);
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
    assert_strategy_refused(taken, config(RlAlgo::A2c, RewirerKind::Ppo), "ppo-to-a2c");
}

#[test]
fn dhgr_checkpoint_refuses_reference_resume() {
    let taken = config(RlAlgo::Ppo, RewirerKind::Dhgr);
    assert_strategy_refused(
        taken,
        config(RlAlgo::Ppo, RewirerKind::Reference),
        "dhgr-to-reference",
    );
}

#[test]
fn dhgr_checkpoint_refuses_none_resume() {
    let taken = config(RlAlgo::Ppo, RewirerKind::Dhgr);
    assert_strategy_refused(taken, config(RlAlgo::Ppo, RewirerKind::None), "dhgr-to-none");
}

#[test]
fn refresh_ppo_run_resumes_bit_identically() {
    assert_refresh_resumes_are_bit_identical(RlAlgo::Ppo, RewirerKind::Ppo, "refresh-ppo");
}

#[test]
fn refresh_a2c_run_resumes_bit_identically() {
    assert_refresh_resumes_are_bit_identical(RlAlgo::A2c, RewirerKind::Ppo, "refresh-a2c");
}

#[test]
fn refresh_dhgr_run_resumes_bit_identically() {
    assert_refresh_resumes_are_bit_identical(RlAlgo::Ppo, RewirerKind::Dhgr, "refresh-dhgr");
}

#[test]
fn refresh_reference_run_resumes_bit_identically() {
    assert_refresh_resumes_are_bit_identical(
        RlAlgo::Ppo,
        RewirerKind::Reference,
        "refresh-reference",
    );
}

#[test]
fn refresh_checkpoint_refuses_another_cadence() {
    let mut taken = config(RlAlgo::Ppo, RewirerKind::Ppo);
    taken.entropy_refresh_every = 3;
    for (every, tag) in [(2, "refresh-3-to-2"), (0, "refresh-3-to-0")] {
        let mut resumed = taken;
        resumed.entropy_refresh_every = every;
        let names = ["entropy-refresh-every=3", &format!("entropy-refresh-every={every}")];
        assert_resume_refused(taken, resumed, &names, tag);
    }
}
