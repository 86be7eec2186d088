//! Extension ablation (beyond the paper's tables): the strategy arena.
//! Which strategy drives the topology optimisation best?
//!
//! Sec. IV-B claims that "other reinforcement learning algorithms can
//! also be conveniently applied to the proposed framework". This bench
//! substantiates that: the same GraphRARE loop is driven by PPO (the
//! paper's choice), by A2C, and — as a floor — by random per-node `k, d`
//! (no learning at all). Beside them run the fixed rewiring heuristics
//! the paper argues learned rewiring beats, each through the same loop
//! via `--rewirer`: DHGR-style similarity rewiring (`dhgr`),
//! reference-graph rewiring (`reference`) and no rewiring (`none`).

use graphrare::{run_random_kd, RewirerKind, RlAlgo};
use graphrare_bench::{accuracy_grid, publish, Budget, GridRow, HarnessOptions, Reads};
use graphrare_datasets::Dataset;
use graphrare_gnn::Backbone;

fn main() {
    let mut opts = HarnessOptions::from_args(Reads::ALL);
    if opts.datasets.len() == Dataset::ALL.len() {
        opts.datasets = Dataset::HETEROPHILIC.to_vec();
    }
    let budget = Budget::default();
    let gcn = Backbone::Gcn;
    let mut rows = vec![
        GridRow::rare(vec!["GCN-RARE (PPO)".into()], gcn, budget, |_| {}),
        GridRow::rare(vec!["GCN-RARE (A2C)".into()], gcn, budget, |cfg| cfg.algo = RlAlgo::A2c),
        GridRow::new(vec!["GCN-RE[0..10] (random)".into()], move |g, s, seed| {
            run_random_kd(g, s, gcn, 10, seed, &budget.config(seed)).test_acc
        }),
    ];
    for kind in [RewirerKind::Dhgr, RewirerKind::Reference, RewirerKind::None] {
        let label = format!("GCN ({})", kind.name());
        rows.push(GridRow::rare(vec![label], gcn, budget, move |cfg| cfg.rewirer = kind));
    }
    let (table, _) = accuracy_grid(&opts, &["Agent"], rows);
    publish(
        &format!(
            "Extension ablation — RL algorithm choice ({:?} scale, {} splits, seed {})",
            opts.scale, opts.splits, opts.seed
        ),
        &table,
        "results/ablation_rl.csv",
    );
}
