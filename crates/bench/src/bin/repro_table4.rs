//! Reproduces **Table IV**: the λ hyper-parameter sweep
//! ({0.1, 0.5, 1.0, 10.0}) weighting structural entropy in Eq. (9), for
//! the four GraphRARE-enhanced backbones on every dataset.

use graphrare_bench::{accuracy_grid, publish, Budget, GridRow, HarnessOptions, Reads};
use graphrare_gnn::Backbone;

const LAMBDAS: [f64; 4] = [0.1, 0.5, 1.0, 10.0];

fn main() {
    let opts = HarnessOptions::from_args(Reads::ALL);
    let budget = Budget::default();
    let mut rows = Vec::new();
    for backbone in [Backbone::Gcn, Backbone::Sage, Backbone::Gat, Backbone::H2gcn] {
        for lambda in LAMBDAS {
            let labels = vec![format!("{}-RARE", backbone.name()), format!("{lambda}")];
            rows.push(GridRow::rare(labels, backbone, budget, move |cfg| {
                cfg.entropy.lambda = lambda;
            }));
        }
    }
    let (table, _) = accuracy_grid(&opts, &["Method", "lambda"], rows);
    publish(
        &format!(
            "Table IV — lambda sweep ({:?} scale, {} splits, seed {})",
            opts.scale, opts.splits, opts.seed
        ),
        &table,
        "results/table4.csv",
    );
}
