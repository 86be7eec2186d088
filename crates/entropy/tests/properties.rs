//! Property-based tests of the entropy equations over arbitrary graphs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use graphrare_entropy::structural::{degree_distribution, js_divergence};
use graphrare_entropy::{
    EntropySequences, RelativeEntropyConfig, RelativeEntropyTable, SequenceConfig,
};
use graphrare_graph::Graph;
use graphrare_tensor::Matrix;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..14, any::<u64>()).prop_flat_map(|(n, seed)| {
        proptest::collection::vec((0..n, 0..n), 0..28).prop_map(move |pairs| {
            let mut rng = StdRng::seed_from_u64(seed);
            let features = Matrix::from_fn(n, 5, |_, _| if rng.gen_bool(0.3) { 1.0 } else { 0.0 });
            let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
            Graph::from_edges(n, &pairs, features, labels, 2)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Degree distributions are valid probability vectors, descending.
    #[test]
    fn degree_distributions_are_descending_distributions(g in arb_graph()) {
        for v in 0..g.num_nodes() {
            let p = degree_distribution(&g, v);
            let sum: f64 = p.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9, "node {v} sums to {sum}");
            prop_assert!(p.windows(2).all(|w| w[0] >= w[1]), "node {v} not descending");
            prop_assert!(p.iter().all(|&x| x >= 0.0));
        }
    }

    /// JS divergence is a bounded symmetric divergence.
    #[test]
    fn js_divergence_axioms(
        p_raw in proptest::collection::vec(0.0f64..1.0, 1..8),
        q_raw in proptest::collection::vec(0.0f64..1.0, 1..8),
    ) {
        let norm = |v: &[f64]| -> Vec<f64> {
            let s: f64 = v.iter().sum();
            if s == 0.0 {
                let mut out = vec![0.0; v.len()];
                out[0] = 1.0;
                out
            } else {
                v.iter().map(|x| x / s).collect()
            }
        };
        let p = norm(&p_raw);
        let q = norm(&q_raw);
        let js = js_divergence(&p, &q);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&js), "JS = {js}");
        prop_assert!((js - js_divergence(&q, &p)).abs() < 1e-12);
        prop_assert!(js_divergence(&p, &p).abs() < 1e-12);
    }

    /// The combined metric is symmetric, finite and monotone in λ for
    /// structurally identical pairs.
    #[test]
    fn relative_entropy_lambda_monotonicity(g in arb_graph()) {
        let low = RelativeEntropyTable::new(
            &g,
            &RelativeEntropyConfig { lambda: 0.1 },
        );
        let high = RelativeEntropyTable::new(
            &g,
            &RelativeEntropyConfig { lambda: 10.0 },
        );
        for v in 0..g.num_nodes() {
            for u in 0..g.num_nodes() {
                // H_s >= 0, so raising λ can never lower the total.
                prop_assert!(high.entropy(v, u) >= low.entropy(v, u) - 1e-9);
            }
        }
    }

    /// Sequence construction is deterministic and stable under rebuild.
    #[test]
    fn sequences_are_stable(g in arb_graph()) {
        let t = RelativeEntropyTable::new(&g, &RelativeEntropyConfig::default());
        let a = EntropySequences::build(&g, &t, &SequenceConfig::default());
        let b = EntropySequences::build(&g, &t, &SequenceConfig::default());
        for v in 0..g.num_nodes() {
            prop_assert_eq!(a.additions(v), b.additions(v));
            prop_assert_eq!(a.deletions(v), b.deletions(v));
        }
    }
}
