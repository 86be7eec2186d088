//! Extending GraphRARE with a custom backbone.
//!
//! The framework is generic over [`GnnModel`]; the paper stresses that it
//! "can be easily adapted to any existing GNN model". This example
//! implements a small APPNP-style model (predict-then-propagate:
//! Gasteiger et al. 2019) from scratch against the public trait and runs
//! it through the full Algorithm-1 loop via `run_with_sequences`.
//!
//! Run with: `cargo run --release --example custom_backbone`

use graphrare::{run_with_sequences, GraphRareConfig};
use graphrare_datasets::{generate_mini, stratified_split, Dataset};
use graphrare_entropy::{EntropySequences, RelativeEntropyTable, SequenceConfig};
use graphrare_gnn::linear::Linear;
use graphrare_gnn::{fit, GnnModel, GraphTensors, TrainConfig};
use graphrare_tensor::{Param, Tape, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// APPNP-lite: an MLP prediction followed by K steps of personalised
/// PageRank propagation `h ← (1−α)·Â·h + α·h₀` (no weights in the
/// propagation, so depth is decoupled from parameters).
struct Appnp {
    l1: Linear,
    l2: Linear,
    hops: usize,
    alpha: f32,
    dropout: f32,
}

impl Appnp {
    fn new(in_dim: usize, hidden: usize, out_dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            l1: Linear::new("appnp.l1", in_dim, hidden, &mut rng),
            l2: Linear::new("appnp.l2", hidden, out_dim, &mut rng),
            hops: 4,
            alpha: 0.15,
            dropout: 0.5,
        }
    }
}

impl GnnModel for Appnp {
    fn forward(&self, tape: &mut Tape, gt: &GraphTensors, train: bool, rng: &mut StdRng) -> Var {
        let a_hat = gt.gcn_norm();
        let mut x = tape.constant((*gt.features()).clone());
        if train && self.dropout > 0.0 {
            x = tape.dropout(x, self.dropout, rng);
        }
        let h = self.l1.forward(tape, x);
        let h = tape.relu(h);
        let h0 = self.l2.forward(tape, h);
        // Personalised-PageRank propagation of the predictions.
        let mut h = h0;
        for _ in 0..self.hops {
            let propagated = tape.spmm(a_hat.clone(), h);
            let damped = tape.scale(propagated, 1.0 - self.alpha);
            let teleport = tape.scale(h0, self.alpha);
            h = tape.add(damped, teleport);
        }
        h
    }

    fn params(&self) -> Vec<Param> {
        let mut p = self.l1.params();
        p.extend(self.l2.params());
        p
    }

    fn name(&self) -> &'static str {
        "APPNP"
    }
}

fn main() -> Result<(), graphrare::RewireError> {
    let seed = 3;
    let graph = generate_mini(Dataset::Chameleon, seed);
    let split = stratified_split(graph.labels(), graph.num_classes(), seed);
    let labels = graph.labels().to_vec();
    println!(
        "Chameleon-mini: {} nodes, {} edges, homophily {:.3}",
        graph.num_nodes(),
        graph.num_edges(),
        graphrare_graph::metrics::homophily_ratio(&graph)
    );

    // Plain custom backbone.
    let model = Appnp::new(graph.feat_dim(), 48, graph.num_classes(), seed);
    let plain = fit(&model, &GraphTensors::new(&graph), &labels, &split, &TrainConfig::default());
    println!("\nPlain APPNP test accuracy:  {:.2}%", 100.0 * plain.test_acc);

    // GraphRARE around the custom backbone. The convenience `run()` only
    // knows the built-in backbones, but the lower-level entry point takes
    // precomputed sequences, and the driver itself builds models through
    // the same trait — so we wrap manually: rewire with the ablation-grade
    // fixed pipeline, then fine-tune the custom model on the optimised
    // graph found by a GCN-driven search.
    let cfg = GraphRareConfig::default().with_seed(seed);
    let table = RelativeEntropyTable::new(&graph, &cfg.entropy);
    let seqs = EntropySequences::build(&graph, &table, &SequenceConfig::default());
    let search = run_with_sequences(&graph, seqs, &split, graphrare_gnn::Backbone::Gcn, &cfg)?;
    println!(
        "GCN-driven topology search: homophily {:.3} -> {:.3}",
        search.original_homophily, search.optimized_homophily
    );

    let model2 = Appnp::new(graph.feat_dim(), 48, graph.num_classes(), seed);
    let enhanced = fit(
        &model2,
        &GraphTensors::new(&search.optimized_graph),
        &labels,
        &split,
        &TrainConfig::default(),
    );
    println!(
        "APPNP on the optimised graph: {:.2}% ({:+.2} points)",
        100.0 * enhanced.test_acc,
        100.0 * (enhanced.test_acc - plain.test_acc)
    );
    Ok(())
}
