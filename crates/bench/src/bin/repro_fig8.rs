//! Reproduces **Figure 8**: visualisation of the node relative entropy on
//! Wisconsin and Cora. The paper's qualitative claim is that same-label
//! node pairs exhibit higher relative entropy; this binary quantifies it
//! (mean entropy of same-label vs cross-label pairs plus a coarse ASCII
//! heat matrix over label-sorted nodes).

use graphrare_bench::{HarnessOptions, Reads, TextTable};
use graphrare_datasets::Dataset;
use graphrare_entropy::{RelativeEntropyConfig, RelativeEntropyTable};

fn main() {
    let mut opts = HarnessOptions::from_args(Reads { splits: false, ..Reads::ALL });
    if opts.datasets.len() == Dataset::ALL.len() {
        opts.datasets = vec![Dataset::Wisconsin, Dataset::Cora];
    }

    let mut summary = TextTable::new(&[
        "Dataset",
        "H same-label (mean)",
        "H cross-label (mean)",
        "same/cross ratio",
    ]);

    for d in &opts.datasets {
        let g = opts.graph(*d);
        let table = RelativeEntropyTable::new(&g, &RelativeEntropyConfig::default());
        let n = g.num_nodes();

        let mut same_sum = 0.0;
        let mut same_count = 0usize;
        let mut cross_sum = 0.0;
        let mut cross_count = 0usize;
        for v in 0..n {
            for u in (v + 1)..n {
                let h = table.entropy(v, u);
                if g.label(v) == g.label(u) {
                    same_sum += h;
                    same_count += 1;
                } else {
                    cross_sum += h;
                    cross_count += 1;
                }
            }
        }
        let same_mean = same_sum / same_count.max(1) as f64;
        let cross_mean = cross_sum / cross_count.max(1) as f64;
        summary.row(vec![
            d.name().to_string(),
            format!("{same_mean:.4}"),
            format!("{cross_mean:.4}"),
            format!("{:.3}", same_mean / cross_mean.max(1e-12)),
        ]);

        // Coarse heat matrix: nodes sorted by label, bucketed into a
        // 24x24 grid; darker glyph = higher mean entropy in the bucket.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| g.label(v));
        let buckets = 24.min(n);
        let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
        let mut grid = vec![vec![0f64; buckets]; buckets];
        for (bi, row) in grid.iter_mut().enumerate() {
            for (bj, cell) in row.iter_mut().enumerate() {
                let vi = order[bi * n / buckets];
                let vj = order[bj * n / buckets];
                *cell = table.entropy(vi, vj);
            }
        }
        let lo = grid.iter().flatten().copied().fold(f64::INFINITY, f64::min);
        let hi = grid.iter().flatten().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "\nFig. 8 — relative-entropy heat matrix on {} (nodes sorted by label):",
            d.name()
        );
        for row in &grid {
            let line: String = row
                .iter()
                .map(|&h| {
                    let t = if hi > lo { (h - lo) / (hi - lo) } else { 0.0 };
                    glyphs[((t * (glyphs.len() - 1) as f64).round() as usize).min(glyphs.len() - 1)]
                })
                .collect();
            println!("  {line}");
        }

        // Export the full matrix for small graphs.
        if n <= 600 {
            let dense = table.dense_matrix();
            let mut csv = TextTable::new(
                &(0..n)
                    .map(|i| i.to_string())
                    .collect::<Vec<_>>()
                    .iter()
                    .map(String::as_str)
                    .collect::<Vec<_>>(),
            );
            for v in 0..n {
                csv.row(dense.row(v).iter().map(|x| format!("{x:.5}")).collect());
            }
            let path = format!("results/fig8_{}_matrix.csv", d.name().to_lowercase());
            csv.write_csv(std::path::Path::new(&path)).expect("write csv");
        }
        graphrare_telemetry::progress!("{} done", d.name());
    }

    println!("\nFig. 8 — same-label vs cross-label relative entropy\n");
    println!("{}", summary.render());
    println!("The paper's claim reproduces when same/cross ratio > 1.");
    summary.write_csv(std::path::Path::new("results/fig8_summary.csv")).expect("write csv");
    println!("CSV written to results/fig8_summary.csv (+ per-dataset matrices)");
}
