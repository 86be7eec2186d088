//! Reproduces **Figure 6**: the training process of GCN-RARE on Cornell —
//! (a) node-classification accuracy (min/mean/max over runs), (b) the
//! homophily ratio of the evolving topology, and (c) the mean episode
//! reward of the DRL module.

use graphrare_bench::{rare_report, Budget, HarnessOptions, Reads, TextTable};
use graphrare_datasets::Dataset;
use graphrare_gnn::Backbone;

fn main() {
    let mut opts = HarnessOptions::from_args(Reads { datasets: 1, ..Reads::ALL });
    if opts.datasets.len() == Dataset::ALL.len() {
        opts.datasets = vec![Dataset::Cornell];
    }
    let budget = Budget { rare_steps: 48, ..Default::default() };
    let dataset = opts.datasets[0];
    let g = opts.graph(dataset);
    let splits = opts.splits_for(&g);

    let reports: Vec<_> = splits
        .iter()
        .enumerate()
        .map(|(i, s)| {
            graphrare_telemetry::progress!("run {i} ...");
            rare_report(Backbone::Gcn, &g, s, opts.seed + i as u64, &budget)
        })
        .collect();

    // (a) accuracy curve: min / mean / max across runs per step.
    let steps = reports[0].traces.val_acc.len();
    let mut acc_table = TextTable::new(&["step", "val_acc_min", "val_acc_mean", "val_acc_max"]);
    for t in 0..steps {
        let vals: Vec<f64> = reports.iter().map(|r| r.traces.val_acc[t]).collect();
        let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        acc_table.row(vec![
            t.to_string(),
            format!("{min:.4}"),
            format!("{mean:.4}"),
            format!("{max:.4}"),
        ]);
    }

    // (b) homophily-ratio curve (mean across runs).
    let mut hom_table = TextTable::new(&["step", "homophily_mean"]);
    for t in 0..steps {
        let mean: f64 =
            reports.iter().map(|r| r.traces.homophily[t]).sum::<f64>() / reports.len() as f64;
        hom_table.row(vec![t.to_string(), format!("{mean:.4}")]);
    }

    // (c) mean episode reward.
    let episodes = reports[0].traces.episode_rewards.len();
    let mut rew_table = TextTable::new(&["episode", "mean_reward"]);
    for e in 0..episodes {
        let mean: f64 = reports.iter().map(|r| r.traces.episode_rewards[e] as f64).sum::<f64>()
            / reports.len() as f64;
        rew_table.row(vec![e.to_string(), format!("{mean:+.4}")]);
    }

    println!(
        "\nFig. 6 — GCN-RARE training on {} ({:?} scale, {} runs)\n",
        dataset.name(),
        opts.scale,
        reports.len()
    );
    println!("(a) node classification accuracy per DRL step");
    println!("{}", acc_table.render());
    println!(
        "(b) homophily ratio of the evolving topology (original = {:.3})",
        reports[0].original_homophily
    );
    println!("{}", hom_table.render());
    println!("(c) mean episode reward of the DRL module");
    println!("{}", rew_table.render());

    acc_table.write_csv(std::path::Path::new("results/fig6a_accuracy.csv")).expect("csv");
    hom_table.write_csv(std::path::Path::new("results/fig6b_homophily.csv")).expect("csv");
    rew_table.write_csv(std::path::Path::new("results/fig6c_reward.csv")).expect("csv");
    println!("CSV written to results/fig6a_accuracy.csv, fig6b_homophily.csv, fig6c_reward.csv");
}
