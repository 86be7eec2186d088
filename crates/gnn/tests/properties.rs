//! Property-based tests of the GNN layer semantics: invariances that must
//! hold for arbitrary graphs and features.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use graphrare_gnn::{build_model, Backbone, GraphTensors, ModelConfig};
use graphrare_graph::Graph;
use graphrare_tensor::{Matrix, Tape};

fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..12, any::<u64>()).prop_flat_map(|(n, seed)| {
        proptest::collection::vec((0..n, 0..n), 0..30).prop_map(move |pairs| {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(seed);
            let features = Matrix::from_fn(n, 5, |_, _| rng.gen_range(-1.0..1.0));
            let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
            Graph::from_edges(n, &pairs, features, labels, 2)
        })
    })
}

fn logits_of(backbone: Backbone, gt: &GraphTensors, in_dim: usize, classes: usize) -> Matrix {
    let model =
        build_model(backbone, in_dim, classes, &ModelConfig { seed: 7, ..Default::default() });
    let mut tape = Tape::new();
    let mut rng = StdRng::seed_from_u64(0);
    let y = model.forward(&mut tape, gt, false, &mut rng);
    tape.value(y).clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every backbone produces finite logits of the right shape on any
    /// graph, including graphs with isolated nodes and no edges at all.
    #[test]
    fn all_backbones_finite_on_arbitrary_graphs(g in arb_graph()) {
        let gt = GraphTensors::new(&g);
        for backbone in Backbone::ALL {
            let y = logits_of(backbone, &gt, g.feat_dim(), g.num_classes());
            prop_assert_eq!(y.shape(), (g.num_nodes(), g.num_classes()));
            prop_assert!(y.all_finite(), "{} produced non-finite logits", backbone.name());
        }
    }

    /// Evaluation-mode forwards are deterministic (no hidden state).
    #[test]
    fn eval_forward_is_pure(g in arb_graph()) {
        let gt = GraphTensors::new(&g);
        for backbone in [Backbone::Gcn, Backbone::Gat, Backbone::H2gcn] {
            let a = logits_of(backbone, &gt, g.feat_dim(), g.num_classes());
            let b = logits_of(backbone, &gt, g.feat_dim(), g.num_classes());
            prop_assert_eq!(a, b);
        }
    }

    /// The MLP ignores topology entirely: any rewiring leaves its logits
    /// bit-identical.
    #[test]
    fn mlp_is_topology_invariant(g in arb_graph(), extra_u in 0usize..12, extra_v in 0usize..12) {
        let gt1 = GraphTensors::new(&g);
        let mut g2 = g.clone();
        let n = g2.num_nodes();
        g2.add_edge(extra_u % n, extra_v % n);
        let gt2 = GraphTensors::new(&g2);
        let a = logits_of(Backbone::Mlp, &gt1, g.feat_dim(), g.num_classes());
        let b = logits_of(Backbone::Mlp, &gt2, g.feat_dim(), g.num_classes());
        prop_assert_eq!(a, b);
    }

    /// Node-id relabelling equivariance of GCN: permuting nodes permutes
    /// logits identically (message passing has no positional dependence).
    #[test]
    fn gcn_is_permutation_equivariant(g in arb_graph(), rot in 1usize..11) {
        let n = g.num_nodes();
        let rot = rot % n;
        if rot == 0 {
            return Ok(());
        }
        // Rotation permutation: v -> (v + rot) mod n.
        let perm: Vec<usize> = (0..n).map(|v| (v + rot) % n).collect();
        let features =
            Matrix::from_fn(n, g.feat_dim(), |r, c| {
                let src = perm.iter().position(|&p| p == r).unwrap();
                g.features().get(src, c).unwrap_or(0.0)
            });
        let edges: Vec<(usize, usize)> =
            g.edge_vec().into_iter().map(|(u, v)| (perm[u], perm[v])).collect();
        let labels: Vec<usize> = {
            let mut l = vec![0; n];
            for (v, &p) in perm.iter().enumerate() {
                l[p] = g.label(v);
            }
            l
        };
        let permuted = Graph::from_edges(n, &edges, features, labels, g.num_classes());

        let y1 = logits_of(Backbone::Gcn, &GraphTensors::new(&g), g.feat_dim(), g.num_classes());
        let y2 = logits_of(
            Backbone::Gcn,
            &GraphTensors::new(&permuted),
            g.feat_dim(),
            g.num_classes(),
        );
        for (v, &p) in perm.iter().enumerate() {
            for c in 0..g.num_classes() {
                prop_assert!(
                    (y1.get(v, c) - y2.get(p, c)).abs() < 1e-3,
                    "logit mismatch after permutation at node {v} class {c}"
                );
            }
        }
    }
}
