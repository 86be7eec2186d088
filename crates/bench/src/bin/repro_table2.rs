//! Reproduces **Table II**: statistics and properties of the seven
//! datasets (nodes, edges, features, classes, homophily ratio), comparing
//! the paper's reported values against the generated graphs.

use graphrare_bench::{HarnessOptions, Reads, Scale, TextTable};
use graphrare_graph::metrics::homophily_ratio;

fn main() {
    let opts = HarnessOptions::from_args(Reads { splits: false, ..Reads::ALL });
    let mut table = TextTable::new(&[
        "Datasets",
        "#Nodes",
        "#Edges",
        "#Features",
        "#Classes",
        "H (paper)",
        "H (generated)",
    ]);
    for d in &opts.datasets {
        let spec = match opts.scale {
            Scale::Mini => d.spec_mini(),
            Scale::Full => d.spec(),
        };
        let g = opts.graph(*d);
        table.row(vec![
            d.name().to_string(),
            g.num_nodes().to_string(),
            g.num_edges().to_string(),
            g.feat_dim().to_string(),
            g.num_classes().to_string(),
            format!("{:.2}", spec.homophily),
            format!("{:.2}", homophily_ratio(&g)),
        ]);
    }
    println!("Table II — dataset statistics ({:?} scale, seed {})\n", opts.scale, opts.seed);
    println!("{}", table.render());
    let path = std::path::Path::new("results/table2.csv");
    table.write_csv(path).expect("write results/table2.csv");
    println!("CSV written to {}", path.display());
}
