//! Property-based tests of the dataset generators and split protocol.

use proptest::prelude::*;

use graphrare_datasets::{generate_spec, stratified_split, DatasetSpec};
use graphrare_graph::metrics::homophily_ratio;

fn arb_spec() -> impl Strategy<Value = DatasetSpec> {
    (20usize..120, 1usize..6, 2usize..5, 0.05f64..0.95, 0.0f64..1.0).prop_map(
        |(n, degree, classes, homophily, signal)| DatasetSpec {
            name: "prop",
            num_nodes: n,
            num_edges: n * degree,
            feat_dim: 24,
            num_classes: classes,
            homophily,
            degree_exponent: 0.5,
            feature_signal: signal,
            feature_density: 0.05,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every generated graph is structurally valid: requested node count,
    /// no self-loops (by construction), binary features, labels in range.
    #[test]
    fn generated_graphs_are_valid(spec in arb_spec(), seed in 0u64..1000) {
        let g = generate_spec(&spec, seed);
        prop_assert_eq!(g.num_nodes(), spec.num_nodes);
        prop_assert_eq!(g.num_classes(), spec.num_classes);
        prop_assert_eq!(g.feat_dim(), spec.feat_dim);
        prop_assert!(g.labels().iter().all(|&l| l < spec.num_classes));
        prop_assert!(g.features().to_dense().as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
        for (u, v) in g.edges() {
            prop_assert_ne!(u, v, "self-loop generated");
        }
    }

    /// Homophily tracks the requested target within sampling tolerance.
    ///
    /// Only asserted in the sparse regime (≤ 15% of all possible pairs):
    /// at high density the per-class same-label pair pool saturates and
    /// rejected duplicates push extra edges cross-class, biasing `H`
    /// downward. All Table II benchmarks are far below this density.
    #[test]
    fn homophily_tracks_target(spec in arb_spec(), seed in 0u64..1000) {
        let g = generate_spec(&spec, seed);
        let possible = g.num_nodes() * (g.num_nodes() - 1) / 2;
        if g.num_edges() >= 50 && g.num_edges() * 100 <= possible * 15 {
            let h = homophily_ratio(&g);
            prop_assert!(
                (h - spec.homophily).abs() < 0.15,
                "H = {h:.3} vs target {:.3} ({} edges)",
                spec.homophily,
                g.num_edges()
            );
        }
    }

    /// Splits are always partitions with train the largest part.
    #[test]
    fn splits_partition_any_label_vector(
        labels in proptest::collection::vec(0usize..4, 10..80),
        seed in 0u64..1000,
    ) {
        let s = stratified_split(&labels, 4, seed);
        prop_assert_eq!(s.len(), labels.len());
        let mut all: Vec<usize> = s.train.iter().chain(&s.val).chain(&s.test).copied().collect();
        all.sort_unstable();
        let expect: Vec<usize> = (0..labels.len()).collect();
        prop_assert_eq!(all, expect);
        prop_assert!(s.train.len() >= s.val.len());
        prop_assert!(s.train.len() >= s.test.len());
    }

    /// Distinct seeds give distinct graphs (collision would break the
    /// ten-splits protocol's independence assumption).
    #[test]
    fn seeds_give_distinct_graphs(spec in arb_spec(), seed in 0u64..1000) {
        let a = generate_spec(&spec, seed);
        let b = generate_spec(&spec, seed + 1);
        // Either edges or features must differ.
        let same_edges = a.edge_vec() == b.edge_vec();
        let same_feats = a.features() == b.features();
        prop_assert!(!(same_edges && same_feats), "seed collision");
    }
}
