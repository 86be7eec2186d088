//! Extension ablation (beyond the paper's tables): which RL algorithm
//! drives the topology optimisation?
//!
//! Sec. IV-B claims that "other reinforcement learning algorithms can
//! also be conveniently applied to the proposed framework". This bench
//! substantiates that: the same GraphRARE loop is driven by PPO (the
//! paper's choice), by A2C, and — as a floor — by random per-node `k, d`
//! (no learning at all).

use graphrare::{run, run_random_kd, GraphRareConfig, RlAlgo};
use graphrare_bench::{mean, mean_std_pct, Budget, HarnessOptions, TextTable};
use graphrare_datasets::Dataset;
use graphrare_gnn::Backbone;

fn main() {
    let mut opts = HarnessOptions::from_args();
    if opts.datasets.len() == Dataset::ALL.len() {
        opts.datasets = Dataset::HETEROPHILIC.to_vec();
    }
    let budget = Budget::default();
    let agents = ["GCN-RARE (PPO)", "GCN-RARE (A2C)", "GCN-RE[0..10] (random)"];

    let mut table = TextTable::new(
        &std::iter::once("Agent")
            .chain(opts.datasets.iter().map(|d| d.name()))
            .chain(std::iter::once("Average"))
            .collect::<Vec<_>>(),
    );

    for agent in agents {
        let mut cells = vec![agent.to_string()];
        let mut dataset_means = Vec::new();
        for d in &opts.datasets {
            let g = opts.graph(*d);
            let splits = opts.splits_for(&g);
            let accs: Vec<f64> = splits
                .iter()
                .enumerate()
                .map(|(i, split)| {
                    let seed = opts.seed + i as u64;
                    let mut cfg = GraphRareConfig::default().with_seed(seed);
                    cfg.steps = budget.rare_steps;
                    cfg.train.epochs = budget.epochs;
                    cfg.train.patience = budget.patience;
                    match agent {
                        "GCN-RARE (PPO)" => {
                            run(&g, split, Backbone::Gcn, &cfg)
                                .expect("GraphRARE run failed")
                                .test_acc
                        }
                        "GCN-RARE (A2C)" => {
                            cfg.algo = RlAlgo::A2c;
                            run(&g, split, Backbone::Gcn, &cfg)
                                .expect("GraphRARE run failed")
                                .test_acc
                        }
                        _ => run_random_kd(&g, split, Backbone::Gcn, 10, seed, &cfg).test_acc,
                    }
                })
                .collect();
            graphrare_telemetry::progress!("{agent:<24} {:<10} {}", d.name(), mean_std_pct(&accs));
            dataset_means.push(mean(&accs));
            cells.push(mean_std_pct(&accs));
        }
        cells.push(format!("{:.2}", 100.0 * mean(&dataset_means)));
        table.row(cells);
    }

    println!(
        "\nExtension ablation — RL algorithm choice ({:?} scale, {} splits, seed {})\n",
        opts.scale, opts.splits, opts.seed
    );
    println!("{}", table.render());
    table.write_csv(std::path::Path::new("results/ablation_rl.csv")).expect("write csv");
    println!("CSV written to results/ablation_rl.csv");
}
