//! Quickstart: wrap a GCN with GraphRARE on a heterophilic graph.
//!
//! Generates the Texas benchmark (the most heterophilic dataset of the
//! paper, H = 0.11), trains a plain GCN and a GraphRARE-enhanced GCN on
//! the same split, and prints the accuracy and homophily comparison.
//!
//! Run with: `cargo run --release --example quickstart`

use graphrare::{run, GraphRareConfig};
use graphrare_datasets::{generate_mini, stratified_split, Dataset};
use graphrare_gnn::{build_model, fit, Backbone, GraphTensors, ModelConfig, TrainConfig};

fn main() -> Result<(), graphrare::RewireError> {
    let seed = 42;
    println!("Generating the Texas benchmark (Table II: 183 nodes, H = 0.11)...");
    let graph = generate_mini(Dataset::Texas, seed);
    let split = stratified_split(graph.labels(), graph.num_classes(), seed);
    println!(
        "  {} nodes, {} edges, homophily {:.3}\n",
        graph.num_nodes(),
        graph.num_edges(),
        graphrare_graph::metrics::homophily_ratio(&graph)
    );

    // 1. Plain GCN baseline.
    println!("Training plain GCN...");
    let model_cfg = ModelConfig { seed, ..Default::default() };
    let gcn = build_model(Backbone::Gcn, graph.feat_dim(), graph.num_classes(), &model_cfg);
    let labels = graph.labels().to_vec();
    let plain =
        fit(gcn.as_ref(), &GraphTensors::new(&graph), &labels, &split, &TrainConfig::default());
    println!("  test accuracy: {:.2}%\n", 100.0 * plain.test_acc);

    // 2. GraphRARE-enhanced GCN: entropy ranking + PPO topology edits.
    println!("Training GCN-RARE (joint GNN + PPO topology optimisation)...");
    let cfg = GraphRareConfig::default().with_seed(seed);
    let report = run(&graph, &split, Backbone::Gcn, &cfg)?;
    println!("  test accuracy: {:.2}%", 100.0 * report.test_acc);
    println!(
        "  homophily ratio: {:.3} -> {:.3}",
        report.original_homophily, report.optimized_homophily
    );
    println!(
        "  mean episode reward trace: {:?}",
        report.traces.episode_rewards.iter().map(|r| format!("{r:+.3}")).collect::<Vec<_>>()
    );

    let delta = 100.0 * (report.test_acc - plain.test_acc);
    println!("\nGCN-RARE vs GCN: {delta:+.2} accuracy points on this split.");
    Ok(())
}
