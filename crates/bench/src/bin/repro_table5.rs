//! Reproduces **Table V**: the ablation study on the relative entropy and
//! the DRL module, all with the GCN backbone:
//!
//! * `GCN` — the plain backbone;
//! * `GCN-RE[0..max]` — random per-node k, d in `0..=max` for
//!   max ∈ {5, 10, 15, 20} (no DRL);
//! * `GCN-RA` — DRL but shuffled (entropy-free) candidate rankings;
//! * `GCN-RARE-add` / `GCN-RARE-remove` — only one edit direction;
//! * `GCN-RARE-reward` — AUC reward instead of Eq. 11;
//! * `GCN-RARE` — the full framework.

use graphrare::{
    run, run_plain, run_random_kd, EditMode, GraphRareConfig, RewardKind, SequenceMode,
};
use graphrare_bench::{mean, mean_std_pct, Budget, HarnessOptions, TextTable};
use graphrare_datasets::Split;
use graphrare_gnn::Backbone;
use graphrare_graph::Graph;

fn base_cfg(budget: &Budget, seed: u64) -> GraphRareConfig {
    let mut cfg = GraphRareConfig::default().with_seed(seed);
    cfg.steps = budget.rare_steps;
    cfg.train.epochs = budget.epochs;
    cfg.train.patience = budget.patience;
    cfg
}

fn run_variant(name: &str, g: &Graph, split: &Split, seed: u64, budget: &Budget) -> f64 {
    let cfg = base_cfg(budget, seed);
    match name {
        "GCN" => run_plain(g, split, Backbone::Gcn, &cfg).test_acc,
        "GCN-RE[0..5]" => run_random_kd(g, split, Backbone::Gcn, 5, seed, &cfg).test_acc,
        "GCN-RE[0..10]" => run_random_kd(g, split, Backbone::Gcn, 10, seed, &cfg).test_acc,
        "GCN-RE[0..15]" => run_random_kd(g, split, Backbone::Gcn, 15, seed, &cfg).test_acc,
        "GCN-RE[0..20]" => run_random_kd(g, split, Backbone::Gcn, 20, seed, &cfg).test_acc,
        "GCN-RA" => {
            let mut cfg = cfg;
            cfg.sequence_mode = SequenceMode::Shuffled { seed: seed.wrapping_add(5) };
            run(g, split, Backbone::Gcn, &cfg).expect("GraphRARE run failed").test_acc
        }
        "GCN-RARE-add" => {
            let mut cfg = cfg;
            cfg.edit_mode = EditMode::AddOnly;
            run(g, split, Backbone::Gcn, &cfg).expect("GraphRARE run failed").test_acc
        }
        "GCN-RARE-remove" => {
            let mut cfg = cfg;
            cfg.edit_mode = EditMode::RemoveOnly;
            run(g, split, Backbone::Gcn, &cfg).expect("GraphRARE run failed").test_acc
        }
        "GCN-RARE-reward" => {
            let mut cfg = cfg;
            cfg.reward = RewardKind::Auc;
            run(g, split, Backbone::Gcn, &cfg).expect("GraphRARE run failed").test_acc
        }
        "GCN-RARE" => run(g, split, Backbone::Gcn, &cfg).expect("GraphRARE run failed").test_acc,
        other => panic!("unknown variant {other}"),
    }
}

fn main() {
    let opts = HarnessOptions::from_args();
    let budget = Budget::default();
    let variants = [
        "GCN",
        "GCN-RE[0..5]",
        "GCN-RE[0..10]",
        "GCN-RE[0..15]",
        "GCN-RE[0..20]",
        "GCN-RA",
        "GCN-RARE-add",
        "GCN-RARE-remove",
        "GCN-RARE-reward",
        "GCN-RARE",
    ];

    let mut table = TextTable::new(
        &std::iter::once("Method")
            .chain(opts.datasets.iter().map(|d| d.name()))
            .chain(std::iter::once("Average"))
            .collect::<Vec<_>>(),
    );

    for variant in variants {
        let mut cells = vec![variant.to_string()];
        let mut dataset_means = Vec::new();
        for d in &opts.datasets {
            let g = opts.graph(*d);
            let splits = opts.splits_for(&g);
            let accs: Vec<f64> = splits
                .iter()
                .enumerate()
                .map(|(i, split)| run_variant(variant, &g, split, opts.seed + i as u64, &budget))
                .collect();
            graphrare_telemetry::progress!(
                "{variant:<18} {:<10} {}",
                d.name(),
                mean_std_pct(&accs)
            );
            dataset_means.push(mean(&accs));
            cells.push(mean_std_pct(&accs));
        }
        cells.push(format!("{:.2}", 100.0 * mean(&dataset_means)));
        table.row(cells);
    }

    println!(
        "\nTable V — ablation study on relative entropy and the DRL module \
         ({:?} scale, {} splits, seed {})\n",
        opts.scale, opts.splits, opts.seed
    );
    println!("{}", table.render());
    table.write_csv(std::path::Path::new("results/table5.csv")).expect("write csv");
    println!("CSV written to results/table5.csv");
}
