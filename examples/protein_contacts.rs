//! Domain scenario from the paper's introduction: *"different types of
//! amino acids are more likely to connect together in protein
//! structures"* — contact graphs are heterophilic because chemistry
//! favours complementary (different-type) residue contacts.
//!
//! Builds a synthetic residue-contact graph over four amino-acid
//! categories (hydrophobic / polar / acidic / basic) where contacts
//! prefer complementary categories, then uses the entropy module directly
//! to find each residue's most related *remote* residues and compares all
//! four GraphRARE-enhanced backbones on the classification task.
//!
//! Run with: `cargo run --release --example protein_contacts`

use graphrare::{run, GraphRareConfig};
use graphrare_datasets::stratified_split;
use graphrare_entropy::{
    EntropySequences, RelativeEntropyConfig, RelativeEntropyTable, SequenceConfig,
};
use graphrare_gnn::Backbone;
use graphrare_graph::Graph;
use graphrare_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const RESIDUES: usize = 180;
const CATEGORIES: usize = 4;
const FEATURES: usize = 20; // one-hot-ish amino-acid composition profile

fn build_contact_graph(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let labels: Vec<usize> = (0..RESIDUES).map(|v| v % CATEGORIES).collect();
    // Residues of the same category share a chemical feature profile.
    let features = Matrix::from_fn(RESIDUES, FEATURES, |v, f| {
        let cat = v % CATEGORIES;
        let block = FEATURES / CATEGORIES;
        let in_block = f >= cat * block && f < (cat + 1) * block;
        let p = if in_block { 0.5 } else { 0.06 };
        if rng.gen_bool(p) {
            1.0
        } else {
            0.0
        }
    });
    let mut g = Graph::new(RESIDUES, features, labels, CATEGORIES);
    // Complementary-contact wiring: hydrophobic<->polar, acidic<->basic
    // contacts dominate (85%); same-category contacts are rare.
    let complement = |c: usize| match c {
        0 => 1,
        1 => 0,
        2 => 3,
        _ => 2,
    };
    while g.num_edges() < 450 {
        let a = rng.gen_range(0..RESIDUES);
        let target_cat =
            if rng.gen_bool(0.85) { complement(a % CATEGORIES) } else { a % CATEGORIES };
        let b = rng.gen_range(0..RESIDUES / CATEGORIES) * CATEGORIES + target_cat;
        if b < RESIDUES {
            g.add_edge(a, b);
        }
    }
    g
}

fn main() -> Result<(), graphrare::RewireError> {
    let seed = 11;
    let graph = build_contact_graph(seed);
    println!(
        "Residue contact graph: {} residues, {} contacts, homophily {:.3}",
        graph.num_nodes(),
        graph.num_edges(),
        graphrare_graph::metrics::homophily_ratio(&graph)
    );

    // Direct use of the entropy API: who are residue 0's most related
    // remote residues?
    let table = RelativeEntropyTable::new(&graph, &RelativeEntropyConfig::default());
    let seqs = EntropySequences::build(&graph, &table, &SequenceConfig::default());
    println!("\nresidue 0 (category {}): top remote candidates by H(v,u):", graph.label(0));
    for &(u, h) in seqs.additions(0).iter().take(5) {
        println!("  residue {:>3} (category {}): H = {:.3}", u, graph.label(u as usize), h);
    }
    let same_cat = seqs
        .additions(0)
        .iter()
        .take(5)
        .filter(|&&(u, _)| graph.label(u as usize) == graph.label(0))
        .count();
    println!("  {same_cat}/5 of the top candidates share residue 0's category");

    // Compare all four GraphRARE-enhanced backbones.
    let split = stratified_split(graph.labels(), graph.num_classes(), seed);
    println!("\nCategory classification with GraphRARE-enhanced backbones:");
    for backbone in [Backbone::Gcn, Backbone::Sage, Backbone::Gat, Backbone::H2gcn] {
        let cfg = GraphRareConfig::default().with_seed(seed);
        let report = run(&graph, &split, backbone, &cfg)?;
        println!(
            "  {:<10} test acc {:.2}%   homophily {:.3} -> {:.3}",
            format!("{}-RARE", backbone.name()),
            100.0 * report.test_acc,
            report.original_homophily,
            report.optimized_homophily
        );
    }
    Ok(())
}
