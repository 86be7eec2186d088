//! Domain scenario from the paper's introduction: *"fraudsters are more
//! likely to build connections with customers instead of other fraudsters
//! in online purchasing networks."*
//!
//! Builds a synthetic purchasing network where fraudsters wire themselves
//! to ordinary customers (strong heterophily), shows that a vanilla GCN
//! is fooled by the topology, and that GraphRARE's entropy ranking
//! reconnects behaviourally similar accounts so the wrapped GCN recovers.
//!
//! Run with: `cargo run --release --example fraud_network`

use graphrare::{run, GraphRareConfig};
use graphrare_datasets::stratified_split;
use graphrare_entropy::{RelativeEntropyConfig, RelativeEntropyTable};
use graphrare_gnn::{build_model, fit, Backbone, GraphTensors, ModelConfig, TrainConfig};
use graphrare_graph::Graph;
use graphrare_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CUSTOMERS: usize = 160;
const FRAUDSTERS: usize = 40;
const FEATURES: usize = 24;

/// Fraudsters share behavioural features (velocity, device reuse, …) but
/// connect almost exclusively to customers.
fn build_network(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = CUSTOMERS + FRAUDSTERS;
    let labels: Vec<usize> = (0..n).map(|v| usize::from(v >= CUSTOMERS)).collect();
    let features = Matrix::from_fn(n, FEATURES, |v, f| {
        let fraud = v >= CUSTOMERS;
        // First half of features: customer behaviour; second: fraud signals.
        let active_block = if fraud { f >= FEATURES / 2 } else { f < FEATURES / 2 };
        let p = if active_block { 0.35 } else { 0.05 };
        if rng.gen_bool(p) {
            1.0
        } else {
            0.0
        }
    });
    let mut g = Graph::new(n, features, labels, 2);
    // Customer-customer transactions.
    while g.num_edges() < 150 {
        let a = rng.gen_range(0..CUSTOMERS);
        let b = rng.gen_range(0..CUSTOMERS);
        g.add_edge(a, b);
    }
    // Fraudster -> customer wiring (95% of fraud edges cross classes).
    for f in CUSTOMERS..n {
        for _ in 0..6 {
            if rng.gen_bool(0.95) {
                g.add_edge(f, rng.gen_range(0..CUSTOMERS));
            } else {
                g.add_edge(f, rng.gen_range(CUSTOMERS..n));
            }
        }
    }
    g
}

fn main() -> Result<(), graphrare::RewireError> {
    let seed = 7;
    let graph = build_network(seed);
    let split = stratified_split(graph.labels(), graph.num_classes(), seed);
    println!(
        "Purchasing network: {} customers, {} fraudsters, {} edges, homophily {:.3}",
        CUSTOMERS,
        FRAUDSTERS,
        graph.num_edges(),
        graphrare_graph::metrics::homophily_ratio(&graph)
    );

    // What does the entropy metric see? Compare a fraud-fraud pair with a
    // fraud-customer pair.
    let table = RelativeEntropyTable::new(&graph, &RelativeEntropyConfig::default());
    let (f1, f2, c1) = (CUSTOMERS, CUSTOMERS + 1, 0);
    println!(
        "\nNode relative entropy (Eq. 9): fraud-fraud H({f1},{f2}) = {:.3}, \
         fraud-customer H({f1},{c1}) = {:.3}",
        table.entropy(f1, f2),
        table.entropy(f1, c1)
    );

    let labels = graph.labels().to_vec();
    let model_cfg = ModelConfig { seed, ..Default::default() };
    let train_cfg = TrainConfig { seed, ..Default::default() };

    let gcn = build_model(Backbone::Gcn, graph.feat_dim(), graph.num_classes(), &model_cfg);
    let plain = fit(gcn.as_ref(), &GraphTensors::new(&graph), &labels, &split, &train_cfg);
    println!("\nPlain GCN fraud-detection accuracy:   {:.2}%", 100.0 * plain.test_acc);

    let cfg = GraphRareConfig::default().with_seed(seed);
    let report = run(&graph, &split, Backbone::Gcn, &cfg)?;
    println!("GCN-RARE fraud-detection accuracy:    {:.2}%", 100.0 * report.test_acc);
    println!(
        "Rewired homophily: {:.3} -> {:.3} ({} edges in optimised graph)",
        report.original_homophily,
        report.optimized_homophily,
        report.optimized_graph.num_edges()
    );

    // How many of the added edges connect fraudsters to fraudsters?
    let mut fraud_links_before = 0;
    let mut fraud_links_after = 0;
    for (u, v) in graph.edge_vec() {
        if graph.label(u) == 1 && graph.label(v) == 1 {
            fraud_links_before += 1;
        }
    }
    for (u, v) in report.optimized_graph.edge_vec() {
        if graph.label(u) == 1 && graph.label(v) == 1 {
            fraud_links_after += 1;
        }
    }
    println!(
        "Fraud-fraud edges: {fraud_links_before} before optimisation, {fraud_links_after} after."
    );
    Ok(())
}
