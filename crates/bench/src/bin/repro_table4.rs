//! Reproduces **Table IV**: the λ hyper-parameter sweep
//! ({0.1, 0.5, 1.0, 10.0}) weighting structural entropy in Eq. (9), for
//! the four GraphRARE-enhanced backbones on every dataset.

use graphrare::{run, GraphRareConfig};
use graphrare_bench::{mean, mean_std_pct, Budget, HarnessOptions, TextTable};
use graphrare_gnn::Backbone;

const LAMBDAS: [f64; 4] = [0.1, 0.5, 1.0, 10.0];

fn main() {
    let opts = HarnessOptions::from_args();
    let budget = Budget::default();
    let backbones = [Backbone::Gcn, Backbone::Sage, Backbone::Gat, Backbone::H2gcn];

    let mut table = TextTable::new(
        &std::iter::once("Method")
            .chain(std::iter::once("lambda"))
            .chain(opts.datasets.iter().map(|d| d.name()))
            .chain(std::iter::once("Average"))
            .collect::<Vec<_>>(),
    );

    for backbone in backbones {
        for lambda in LAMBDAS {
            let mut cells = vec![format!("{}-RARE", backbone.name()), format!("{lambda}")];
            let mut dataset_means = Vec::new();
            for d in &opts.datasets {
                let g = opts.graph(*d);
                let splits = opts.splits_for(&g);
                let accs: Vec<f64> = splits
                    .iter()
                    .enumerate()
                    .map(|(i, split)| {
                        let mut cfg = GraphRareConfig::default().with_seed(opts.seed + i as u64);
                        cfg.steps = budget.rare_steps;
                        cfg.train.epochs = budget.epochs;
                        cfg.train.patience = budget.patience;
                        cfg.entropy.lambda = lambda;
                        run(&g, split, backbone, &cfg).expect("GraphRARE run failed").test_acc
                    })
                    .collect();
                graphrare_telemetry::progress!(
                    "{}-RARE lambda={lambda:<4} {:<10} {}",
                    backbone.name(),
                    d.name(),
                    mean_std_pct(&accs)
                );
                dataset_means.push(mean(&accs));
                cells.push(mean_std_pct(&accs));
            }
            cells.push(format!("{:.2}", 100.0 * mean(&dataset_means)));
            table.row(cells);
        }
    }

    println!(
        "\nTable IV — lambda sweep ({:?} scale, {} splits, seed {})\n",
        opts.scale, opts.splits, opts.seed
    );
    println!("{}", table.render());
    table.write_csv(std::path::Path::new("results/table4.csv")).expect("write csv");
    println!("CSV written to results/table4.csv");
}
