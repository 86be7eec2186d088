//! Integration tests of the entropy pipeline's *ranking quality* — the
//! property GraphRARE actually consumes: same-class nodes must rank above
//! cross-class nodes in each node's candidate sequence.

use graphrare_datasets::{generate_spec, DatasetSpec};
use graphrare_entropy::{
    CandidatePool, EntropySequences, RelativeEntropyConfig, RelativeEntropyTable, SequenceConfig,
};
use graphrare_graph::Graph;

fn strong_signal_graph(seed: u64) -> Graph {
    let spec = DatasetSpec {
        name: "ranking",
        num_nodes: 90,
        num_edges: 220,
        feat_dim: 32,
        num_classes: 3,
        homophily: 0.15,
        degree_exponent: 0.3,
        feature_signal: 0.9,
        feature_density: 0.04,
    };
    generate_spec(&spec, seed)
}

/// Fraction of top-5 addition candidates sharing the ego node's label.
fn precision_at_5(g: &Graph, seqs: &EntropySequences) -> f64 {
    let mut hits = 0usize;
    let mut total = 0usize;
    for v in 0..g.num_nodes() {
        for &(u, _) in seqs.additions(v).iter().take(5) {
            total += 1;
            if g.label(u as usize) == g.label(v) {
                hits += 1;
            }
        }
    }
    hits as f64 / total.max(1) as f64
}

#[test]
fn entropy_ranking_beats_class_base_rate() {
    let g = strong_signal_graph(1);
    let table = RelativeEntropyTable::new(&g, &RelativeEntropyConfig::default());
    let seqs = EntropySequences::build(&g, &table, &SequenceConfig::default());
    let p5 = precision_at_5(&g, &seqs);
    // Base rate for 3 balanced classes is ~1/3.
    assert!(p5 > 0.6, "precision@5 = {p5:.3}, barely above base rate");
}

#[test]
fn entropy_ranking_beats_shuffled_ranking() {
    let g = strong_signal_graph(2);
    let table = RelativeEntropyTable::new(&g, &RelativeEntropyConfig::default());
    let seqs = EntropySequences::build(&g, &table, &SequenceConfig::default());
    let shuffled = seqs.shuffled(7);
    let real = precision_at_5(&g, &seqs);
    let random = precision_at_5(&g, &shuffled);
    assert!(
        real > random + 0.1,
        "entropy ranking ({real:.3}) not clearly above shuffled ({random:.3})"
    );
}

#[test]
fn feature_only_and_structure_only_bracket_the_default() {
    // λ = 0 is pure feature ranking: with informative features it must
    // still beat chance.
    let g = strong_signal_graph(3);
    let cfg = RelativeEntropyConfig { lambda: 0.0 };
    let table = RelativeEntropyTable::new(&g, &cfg);
    let seqs = EntropySequences::build(&g, &table, &SequenceConfig::default());
    assert!(precision_at_5(&g, &seqs) > 0.5);
}

#[test]
fn global_sample_pool_matches_ring_quality_on_small_graphs() {
    let g = strong_signal_graph(5);
    let table = RelativeEntropyTable::new(&g, &RelativeEntropyConfig::default());
    let ring = EntropySequences::build(&g, &table, &SequenceConfig::default());
    let sample = EntropySequences::build(
        &g,
        &table,
        &SequenceConfig {
            pool: CandidatePool::GlobalSample { per_node: 40, seed: 3 },
            max_additions: 16,
        },
    );
    let ring_p = precision_at_5(&g, &ring);
    let sample_p = precision_at_5(&g, &sample);
    assert!(
        (ring_p - sample_p).abs() < 0.3,
        "pools disagree wildly: ring {ring_p:.3}, sample {sample_p:.3}"
    );
    assert!(sample_p > 0.5);
}

#[test]
fn dense_matrix_diagonal_is_maximal_per_row() {
    // H(v, v) combines maximal feature similarity (clamped 1.0 after
    // rescale) and maximal structural similarity (JS = 0), so the diagonal
    // should dominate its row.
    let g = strong_signal_graph(6);
    let table = RelativeEntropyTable::new(&g, &RelativeEntropyConfig::default());
    let m = table.dense_matrix();
    for v in 0..g.num_nodes() {
        let diag = m.get(v, v);
        for u in 0..g.num_nodes() {
            assert!(
                diag >= m.get(v, u) - 1e-4,
                "H({v},{v}) = {diag} < H({v},{u}) = {}",
                m.get(v, u)
            );
        }
    }
}
