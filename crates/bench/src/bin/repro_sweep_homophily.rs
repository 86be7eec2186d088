//! Extension sweep (beyond the paper's tables): how does the GraphRARE
//! advantage vary with the homophily ratio of the input graph?
//!
//! The paper's Table III samples seven fixed datasets; this sweep holds
//! every other generator parameter constant and varies only `H` from
//! strongly heterophilic to strongly homophilic, measuring GCN and
//! GCN-RARE on each point. The expected shape: a large RARE advantage at
//! low `H` that shrinks toward parity as `H` grows (the paper's
//! observation (1) vs (2) in Sec. V-D).

use graphrare_bench::{
    mean, mean_std_pct, publish, run_method, Budget, HarnessOptions, Method, Reads, TextTable,
};
use graphrare_datasets::{generate_spec, stratified_split, DatasetSpec};
use graphrare_gnn::Backbone;

const HOMOPHILY_GRID: [f64; 7] = [0.05, 0.15, 0.25, 0.4, 0.55, 0.7, 0.85];

fn main() {
    let opts = HarnessOptions::from_args(Reads { full: false, datasets: 0, ..Reads::ALL });
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
            let seed = opts.seed + i;
            let split = stratified_split(g.labels(), g.num_classes(), seed);
            gcn_accs.push(run_method(Method::Plain(Backbone::Gcn), &g, &split, seed, &budget));
            rare_accs.push(run_method(Method::Rare(Backbone::Gcn), &g, &split, seed, &budget));
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

    publish(
        &format!(
            "Extension sweep — GraphRARE advantage vs homophily ratio ({} splits, seed {})",
            opts.splits, opts.seed
        ),
        &table,
        "results/sweep_homophily.csv",
    );
}
