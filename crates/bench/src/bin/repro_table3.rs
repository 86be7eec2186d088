//! Reproduces **Table III**: mean test accuracy ± std over data splits
//! for all seventeen methods on the seven datasets, plus the per-backbone
//! improvement rows of the GraphRARE variants.

use graphrare_bench::{
    accuracy_grid, mean, run_method, Budget, GridRow, HarnessOptions, Method, Reads, TextTable,
};
use graphrare_gnn::Backbone;

fn main() {
    let opts = HarnessOptions::from_args(Reads::ALL);
    let budget = Budget::default();
    let methods = Method::table3_rows();
    let rows = methods
        .iter()
        .map(|&m| {
            GridRow::new(vec![m.name()], move |g, s, seed| run_method(m, g, s, seed, &budget))
        })
        .collect();
    let (table, accs) = accuracy_grid(&opts, &["Method"], rows);

    println!(
        "\nTable III — node classification accuracy ({:?} scale, {} splits, seed {})\n",
        opts.scale, opts.splits, opts.seed
    );
    println!("{}", table.render());

    // Improvement rows: RARE vs its own backbone, averaged over datasets.
    let average = |method: Method| {
        let row = methods.iter().position(|&m| m == method).expect("a Table III row");
        100.0 * mean(&accs[row].iter().map(|v| mean(v)).collect::<Vec<_>>())
    };
    let mut improvements = TextTable::new(&["Enhanced model", "Backbone avg", "RARE avg", "Δ"]);
    for backbone in [Backbone::Gcn, Backbone::Sage, Backbone::Gat, Backbone::H2gcn] {
        let plain_avg = average(Method::Plain(backbone));
        let rare_avg = average(Method::Rare(backbone));
        improvements.row(vec![
            Method::Rare(backbone).name(),
            format!("{plain_avg:.2}"),
            format!("{rare_avg:.2}"),
            format!("{:+.2}", rare_avg - plain_avg),
        ]);
    }
    println!("{}", improvements.render());

    table.write_csv(std::path::Path::new("results/table3.csv")).expect("write csv");
    improvements
        .write_csv(std::path::Path::new("results/table3_improvements.csv"))
        .expect("write csv");
    println!("CSV written to results/table3.csv and results/table3_improvements.csv");
}
