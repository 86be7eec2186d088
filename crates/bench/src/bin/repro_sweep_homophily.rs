//! Extension sweep (beyond the paper's tables): how does the GraphRARE
//! advantage vary with the homophily ratio of the input graph?
//!
//! The paper's Table III samples seven fixed datasets; this sweep holds
//! every other generator parameter constant and varies only `H` from
//! strongly heterophilic to strongly homophilic, measuring GCN and
//! GCN-RARE on each point. The expected shape: a large RARE advantage at
//! low `H` that shrinks toward parity as `H` grows (the paper's
//! observation (1) vs (2) in Sec. V-D).

use graphrare::{run, run_plain, GraphRareConfig};
use graphrare_bench::{mean, mean_std_pct, Budget, HarnessOptions, TextTable};
use graphrare_datasets::{generate_spec, stratified_split, DatasetSpec};
use graphrare_gnn::Backbone;

const HOMOPHILY_GRID: [f64; 7] = [0.05, 0.15, 0.25, 0.4, 0.55, 0.7, 0.85];

fn main() {
    let opts = HarnessOptions::from_args();
    let budget = Budget::default();

    let mut table =
        TextTable::new(&["H target", "H generated", "GCN", "GCN-RARE", "RARE - GCN (points)"]);

    for h in HOMOPHILY_GRID {
        let spec = DatasetSpec {
            name: "sweep",
            num_nodes: 220,
            num_edges: 900,
            feat_dim: 96,
            num_classes: 4,
            homophily: h,
            degree_exponent: 0.4,
            feature_signal: 0.6,
            feature_density: 0.03,
        };
        let g = generate_spec(&spec, opts.seed);
        let generated_h = graphrare_graph::metrics::homophily_ratio(&g);
        let mut gcn_accs = Vec::new();
        let mut rare_accs = Vec::new();
        for i in 0..opts.splits as u64 {
            let split = stratified_split(g.labels(), g.num_classes(), opts.seed + i);
            let mut cfg = GraphRareConfig::default().with_seed(opts.seed + i);
            cfg.steps = budget.rare_steps;
            cfg.train.epochs = budget.epochs;
            cfg.train.patience = budget.patience;
            gcn_accs.push(run_plain(&g, &split, Backbone::Gcn, &cfg).test_acc);
            rare_accs
                .push(run(&g, &split, Backbone::Gcn, &cfg).expect("GraphRARE run failed").test_acc);
        }
        graphrare_telemetry::progress!("H={h:.2} done");
        table.row(vec![
            format!("{h:.2}"),
            format!("{generated_h:.3}"),
            mean_std_pct(&gcn_accs),
            mean_std_pct(&rare_accs),
            format!("{:+.2}", 100.0 * (mean(&rare_accs) - mean(&gcn_accs))),
        ]);
    }

    println!(
        "\nExtension sweep — GraphRARE advantage vs homophily ratio ({} splits, seed {})\n",
        opts.splits, opts.seed
    );
    println!("{}", table.render());
    table.write_csv(std::path::Path::new("results/sweep_homophily.csv")).expect("write csv");
    println!("CSV written to results/sweep_homophily.csv");
}
