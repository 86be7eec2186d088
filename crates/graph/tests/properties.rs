//! Property-based tests of the graph substrate: edit algebra, operator
//! stochasticity and traversal consistency on arbitrary graphs.

use proptest::prelude::*;

use graphrare_graph::{metrics, ops, traversal, Graph};
use graphrare_tensor::Matrix;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..16).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..40)
            .prop_map(move |pairs| Graph::from_edges(n, &pairs, Matrix::zeros(n, 2), vec![0; n], 1))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Edge count equals half the degree sum (handshake lemma).
    #[test]
    fn handshake_lemma(g in arb_graph()) {
        let degree_sum: usize = (0..g.num_nodes()).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
    }

    /// Adjacency is symmetric and edges() lists each edge exactly once.
    #[test]
    fn adjacency_symmetry(g in arb_graph()) {
        for v in 0..g.num_nodes() {
            for u in g.neighbors(v) {
                prop_assert!(g.has_edge(u, v));
            }
        }
        let listed = g.edge_vec();
        let mut dedup = listed.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(listed.len(), dedup.len());
        prop_assert_eq!(listed.len(), g.num_edges());
    }

    /// The GCN operator has self-loop entries everywhere and is symmetric.
    #[test]
    fn gcn_norm_structure(g in arb_graph()) {
        let m = ops::gcn_norm(&g);
        prop_assert!(m.is_symmetric(1e-5));
        for v in 0..g.num_nodes() {
            prop_assert!(m.get(v, v).is_some(), "missing self-loop at {v}");
        }
        prop_assert_eq!(m.nnz(), 2 * g.num_edges() + g.num_nodes());
    }

    /// Row-normalised adjacency rows sum to 1 (or are empty).
    #[test]
    fn row_norm_is_row_stochastic(g in arb_graph()) {
        let m = ops::row_norm_adj(&g);
        for v in 0..g.num_nodes() {
            let s: f32 = m.row_entries(v).map(|(_, w)| w).sum();
            if g.degree(v) > 0 {
                prop_assert!((s - 1.0).abs() < 1e-5, "row {v}: {s}");
            } else {
                prop_assert_eq!(m.row_nnz(v), 0);
            }
        }
    }

    /// Two-hop rows never include the node itself or its one-hop
    /// neighbours, and every listed node really is at distance two.
    #[test]
    fn two_hop_is_distance_two(g in arb_graph()) {
        let m = ops::row_norm_two_hop(&g);
        for v in 0..g.num_nodes() {
            let hops = traversal::k_hop_neighbors(&g, v, 2);
            let at_two: std::collections::BTreeSet<usize> =
                hops.iter().filter(|&&(_, d)| d == 2).map(|&(u, _)| u).collect();
            let listed: std::collections::BTreeSet<usize> =
                m.row_entries(v).map(|(u, _)| u).collect();
            prop_assert_eq!(listed, at_two, "node {}", v);
        }
    }

    /// BFS distances are consistent: remote ring ∪ one-hop ∪ {self} and
    /// unreachable nodes partition V.
    #[test]
    fn bfs_partition(g in arb_graph()) {
        let n = g.num_nodes();
        let v = 0usize;
        let hops = traversal::k_hop_neighbors(&g, v, n);
        let mut seen = std::collections::HashSet::new();
        seen.insert(v);
        for &(u, d) in &hops {
            prop_assert!(d >= 1 && d <= n);
            prop_assert!(seen.insert(u), "node {u} visited twice");
        }
        // Connected component of v must match BFS reach.
        let comps = traversal::connected_components(&g);
        let reach: std::collections::HashSet<usize> =
            (0..n).filter(|&u| comps[u] == comps[v]).collect();
        prop_assert_eq!(seen, reach);
    }

    /// Removing all edges of a node brings homophily metrics along
    /// gracefully (no panics, still in range).
    #[test]
    fn edits_keep_metrics_in_range(g in arb_graph(), target in 0usize..16) {
        let mut g = g;
        let n = g.num_nodes();
        let v = target % n;
        let nbrs: Vec<usize> = g.neighbors(v).collect();
        for u in nbrs {
            g.remove_edge(v, u);
        }
        prop_assert_eq!(g.degree(v), 0);
        let h = metrics::homophily_ratio(&g);
        prop_assert!((0.0..=1.0).contains(&h));
    }
}
