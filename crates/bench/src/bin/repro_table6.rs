//! Reproduces **Table VI**: real running time. Each method is trained for
//! a fixed number of epochs on each heterophilic dataset and the average
//! time per epoch is reported, together with the one-off relative-entropy
//! computation time: the entropy table and the ranked candidate
//! sequences, built once before training as `RareDriver::new` builds
//! them.

use std::time::Instant;

use graphrare::{run, GraphRareConfig};
use graphrare_baselines::{run_baseline, BaselineConfig, BaselineKind};
use graphrare_bench::{HarnessOptions, Reads, TextTable};
use graphrare_datasets::Dataset;
use graphrare_entropy::{EntropySequences, RelativeEntropyTable};
use graphrare_gnn::{build_model, Backbone, GraphTensors, ModelConfig, TrainConfig, Trainer};

/// Epochs used for the per-epoch timing average. The paper uses 500; the
/// mini harness defaults to 50 (the ratio between methods is what Table VI
/// compares, not the absolute count).
fn timing_epochs(full: bool) -> usize {
    if full {
        500
    } else {
        50
    }
}

fn time_backbone(b: Backbone, g: &graphrare_graph::Graph, epochs: usize, seed: u64) -> f64 {
    let model_cfg = ModelConfig { seed, ..Default::default() };
    let model = build_model(b, g.feat_dim(), g.num_classes(), &model_cfg);
    let labels = g.labels().to_vec();
    let train_mask: Vec<usize> = (0..g.num_nodes()).step_by(2).collect();
    let gt = GraphTensors::new(g);
    let mut trainer = Trainer::new(model.as_ref(), &TrainConfig::default());
    let start = Instant::now();
    trainer.train_epochs(model.as_ref(), &gt, &labels, &train_mask, epochs);
    start.elapsed().as_secs_f64() / epochs as f64
}

fn main() {
    let opts = HarnessOptions::from_args(Reads { splits: false, ..Reads::ALL });
    let datasets: Vec<Dataset> =
        opts.datasets.iter().copied().filter(|d| Dataset::HETEROPHILIC.contains(d)).collect();
    let epochs = timing_epochs(matches!(opts.scale, graphrare_bench::Scale::Full));

    let mut table = TextTable::new(
        &std::iter::once("Method").chain(datasets.iter().map(|d| d.name())).collect::<Vec<_>>(),
    );

    let fmt_ms = |secs: f64| format!("{:.2}ms", 1000.0 * secs);

    // Plain backbones: average seconds per epoch.
    for b in [Backbone::Gcn, Backbone::Gat, Backbone::Sage, Backbone::H2gcn] {
        let mut cells = vec![b.name().to_string()];
        for d in &datasets {
            let g = opts.graph(*d);
            cells.push(fmt_ms(time_backbone(b, &g, epochs, opts.seed)));
            graphrare_telemetry::progress!("{} timed on {}", b.name(), d.name());
        }
        table.row(cells);
    }

    // SOTA baselines the paper times (SimP-GCN, HOG-GCN): full fit wall
    // clock divided by epochs run.
    for kind in [BaselineKind::SimpGcn, BaselineKind::HogGcn] {
        let mut cells = vec![format!("{}*", kind.name())];
        for d in &datasets {
            let g = opts.graph(*d);
            let split = &opts.splits_for(&g)[0];
            let cfg = BaselineConfig {
                train: TrainConfig { epochs, patience: epochs, ..Default::default() },
                seed: opts.seed,
                ..Default::default()
            };
            let start = Instant::now();
            let report = run_baseline(kind, &g, split, &cfg);
            cells.push(fmt_ms(start.elapsed().as_secs_f64() / report.epochs_run.max(1) as f64));
            graphrare_telemetry::progress!("{} timed on {}", kind.name(), d.name());
        }
        table.row(cells);
    }

    // GraphRARE variants: wall clock of the full run divided by its DRL
    // steps (each step is one evaluate+optimise cycle on the graph).
    for b in [Backbone::Gcn, Backbone::Gat, Backbone::Sage, Backbone::H2gcn] {
        let mut cells = vec![format!("{}-RARE (ours)", b.name())];
        for d in &datasets {
            let g = opts.graph(*d);
            let split = &opts.splits_for(&g)[0];
            let mut cfg = GraphRareConfig::default().with_seed(opts.seed);
            cfg.steps = 16;
            let start = Instant::now();
            run(&g, split, b, &cfg).expect("GraphRARE run failed");
            cells.push(fmt_ms(start.elapsed().as_secs_f64() / cfg.steps as f64));
            graphrare_telemetry::progress!("{}-RARE timed on {}", b.name(), d.name());
        }
        table.row(cells);
    }

    // One-off entropy computation: the table and the sequences ranked
    // from it, with the run's default configuration.
    let mut cells = vec!["Entropy Computation".to_string()];
    let cfg = GraphRareConfig::default();
    for d in &datasets {
        let g = opts.graph(*d);
        let start = Instant::now();
        let table = RelativeEntropyTable::new(&g, &cfg.entropy);
        let _ = EntropySequences::build(&g, &table, &cfg.sequences);
        cells.push(format!("{:.3}s", start.elapsed().as_secs_f64()));
        graphrare_telemetry::progress!("entropy timed on {}", d.name());
    }
    table.row(cells);

    println!(
        "\nTable VI — running time per epoch / per DRL step ({:?} scale, {} epochs)\n",
        opts.scale, epochs
    );
    println!("{}", table.render());
    println!("[*] denotes SOTA models; entropy is computed once before training.");
    table.write_csv(std::path::Path::new("results/table6.csv")).expect("write csv");
    println!("CSV written to results/table6.csv");
}
