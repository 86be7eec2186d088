//! Reproduces **Figure 7**: homophily ratios of the original graphs
//! versus the graphs optimised by the four GraphRARE models, on all seven
//! datasets.

use graphrare_bench::{mean, publish, rare_report, Budget, HarnessOptions, Reads, TextTable};
use graphrare_gnn::Backbone;

fn main() {
    let opts = HarnessOptions::from_args(Reads::ALL);
    let budget = Budget::default();
    let backbones = [Backbone::Gcn, Backbone::Sage, Backbone::Gat, Backbone::H2gcn];

    let mut table = TextTable::new(
        &std::iter::once("Graph")
            .chain(opts.datasets.iter().map(|d| d.name()))
            .chain(std::iter::once("Avg lift"))
            .collect::<Vec<_>>(),
    );

    // Original homophily row.
    let mut originals = Vec::new();
    let mut row = vec!["Original".to_string()];
    for d in &opts.datasets {
        let g = opts.graph(*d);
        let h = graphrare_graph::metrics::homophily_ratio(&g);
        originals.push(h);
        row.push(format!("{h:.3}"));
    }
    row.push("-".to_string());
    table.row(row);

    for backbone in backbones {
        let mut row = vec![format!("{}-RARE", backbone.name())];
        let mut lifts = Vec::new();
        for (di, d) in opts.datasets.iter().enumerate() {
            let g = opts.graph(*d);
            let splits = opts.splits_for(&g);
            let hs: Vec<f64> = splits
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    rare_report(backbone, &g, s, opts.seed + i as u64, &budget).optimized_homophily
                })
                .collect();
            let h = mean(&hs);
            lifts.push(h - originals[di]);
            row.push(format!("{h:.3}"));
            graphrare_telemetry::progress!("{}-RARE on {} done", backbone.name(), d.name());
        }
        row.push(format!("{:+.3}", mean(&lifts)));
        table.row(row);
    }

    publish(
        &format!(
            "Fig. 7 — homophily ratio: original vs optimised graphs ({:?} scale, {} splits)",
            opts.scale, opts.splits
        ),
        &table,
        "results/fig7.csv",
    );
}
