//! Reproduces **Figure 5**: the ablation on the DRL module's
//! contribution. For each backbone × dataset it evaluates a grid of fixed
//! `(k, d)` values (every node gets the same counts, no DRL) and compares
//! against the full DRL-driven GraphRARE. The printed matrix holds the
//! accuracy *degradation* versus GraphRARE (deeper = worse in the paper's
//! heatmaps; here: larger positive numbers).

use graphrare::run_fixed_kd;
use graphrare_bench::{mean, rare_report, Budget, HarnessOptions, Reads, TextTable};
use graphrare_datasets::Dataset;
use graphrare_gnn::Backbone;

fn main() {
    let mut opts = HarnessOptions::from_args(Reads::ALL);
    // The paper shows Chameleon, Squirrel and Cora; keep that default but
    // honour an explicit --datasets flag.
    if opts.datasets.len() == Dataset::ALL.len() {
        opts.datasets = vec![Dataset::Chameleon, Dataset::Squirrel, Dataset::Cora];
    }
    let budget = Budget::default();
    let grid: Vec<usize> = vec![0, 2, 4, 6, 8, 10];
    let backbones = [Backbone::Gcn, Backbone::Sage, Backbone::Gat, Backbone::H2gcn];

    for backbone in backbones {
        for d in &opts.datasets {
            let g = opts.graph(*d);
            let splits = opts.splits_for(&g);
            // DRL reference accuracy.
            let rare_accs: Vec<f64> = splits
                .iter()
                .enumerate()
                .map(|(i, s)| rare_report(backbone, &g, s, opts.seed + i as u64, &budget).test_acc)
                .collect();
            let rare_acc = mean(&rare_accs);

            let mut table = TextTable::new(
                &std::iter::once("k\\d".to_string())
                    .chain(grid.iter().map(|d| d.to_string()))
                    .collect::<Vec<String>>()
                    .iter()
                    .map(String::as_str)
                    .collect::<Vec<&str>>(),
            );
            for &k in &grid {
                let mut cells = vec![k.to_string()];
                for &del in &grid {
                    let accs: Vec<f64> = splits
                        .iter()
                        .enumerate()
                        .map(|(i, s)| {
                            let cfg = budget.config(opts.seed + i as u64);
                            run_fixed_kd(&g, s, backbone, k, del, &cfg).test_acc
                        })
                        .collect();
                    // Degradation vs the DRL module, in accuracy points.
                    cells.push(format!("{:+.1}", 100.0 * (rare_acc - mean(&accs))));
                }
                table.row(cells);
                graphrare_telemetry::progress!("{} {} k={k} done", backbone.name(), d.name());
            }
            println!(
                "\nFig. 5 — {} on {}: degradation (accuracy points) of fixed (k, d) vs \
                 GraphRARE's DRL ({}-RARE = {:.2}%)",
                backbone.name(),
                d.name(),
                backbone.name(),
                100.0 * rare_acc
            );
            println!("{}", table.render());
            let path = format!(
                "results/fig5_{}_{}.csv",
                backbone.name().to_lowercase(),
                d.name().to_lowercase()
            );
            table.write_csv(std::path::Path::new(&path)).expect("write csv");
        }
    }
    println!("CSV matrices written under results/fig5_*.csv");
}
