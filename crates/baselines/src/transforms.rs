//! Graph/operator transforms underlying the heterophily baselines.
//!
//! Every baseline in the paper's Table III boils down to training a
//! message-passing network over one or more *derived* propagation
//! operators (kNN feature graphs, similarity-gated kernels, signed
//! adjacency, latent-geometry buckets, label-propagated homophily
//! weights). This module builds those operators; `kinds` assembles them
//! into models.
//!
//! Feature similarities are the graph's shared CSR features under the
//! tensor crate's one cosine primitive ([`CsrMatrix::cosine`],
//! [`CsrMatrix::cosine_knn`]), the same one the `dhgr` and `reference`
//! rewiring strategies use.

use graphrare_graph::{ops, Graph};
use graphrare_tensor::{init, CsrMatrix, DenseRow, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// SimP-GCN's blended propagation: `γ·Â + (1−γ)·S` where `S` is the
/// row-normalised kNN feature graph.
pub fn blended_operator(g: &Graph, knn_k: usize, gamma: f32) -> CsrMatrix {
    let n = g.num_nodes();
    let a_hat = ops::gcn_norm(g);
    let s = ops::row_norm_adj(&g.with_edges(g.features().cosine_knn(knn_k, |_, _| true)));
    let mut triplets = Vec::new();
    for r in 0..n {
        for (c, w) in a_hat.row_entries(r) {
            triplets.push((r, c, gamma * w));
        }
        for (c, w) in s.row_entries(r) {
            triplets.push((r, c, (1.0 - gamma) * w));
        }
    }
    CsrMatrix::from_triplets(n, n, &triplets)
}

/// Polar-GNN's signed aggregation operator: neighbours with feature
/// cosine above `threshold` contribute positively, others negatively;
/// rows are normalised by degree.
pub fn signed_operator(g: &Graph, threshold: f32) -> CsrMatrix {
    let n = g.num_nodes();
    let (feats, mut row) = (g.features(), DenseRow::default());
    let norms = feats.row_norms();
    let mut triplets = Vec::new();
    for v in 0..n {
        let deg = g.degree(v);
        if deg == 0 {
            continue;
        }
        let w = 1.0 / deg as f32;
        feats.load_row(v, &mut row);
        for u in g.neighbors(v) {
            let sign = if feats.cosine(u, v, &row, &norms) >= threshold { 1.0 } else { -1.0 };
            triplets.push((v, u, sign * w));
        }
    }
    CsrMatrix::from_triplets(n, n, &triplets)
}

/// GBK-GNN's similarity-gated kernel pair: edge gate
/// `g_ij = σ(4·cos(x_i, x_j))`; the homophilic kernel carries weight
/// `g_ij`, the heterophilic kernel `1 − g_ij`, each row-normalised by
/// degree.
pub fn gated_operators(g: &Graph) -> (CsrMatrix, CsrMatrix) {
    let n = g.num_nodes();
    let (feats, mut row) = (g.features(), DenseRow::default());
    let norms = feats.row_norms();
    let mut sim = Vec::new();
    let mut dis = Vec::new();
    for v in 0..n {
        let deg = g.degree(v);
        if deg == 0 {
            continue;
        }
        let w = 1.0 / deg as f32;
        feats.load_row(v, &mut row);
        for u in g.neighbors(v) {
            let gate = 1.0 / (1.0 + (-4.0 * feats.cosine(u, v, &row, &norms)).exp());
            sim.push((v, u, gate * w));
            dis.push((v, u, (1.0 - gate) * w));
        }
    }
    (CsrMatrix::from_triplets(n, n, &sim), CsrMatrix::from_triplets(n, n, &dis))
}

/// Geom-GCN-style geometric buckets: nodes are embedded in a latent space
/// (seeded random projection of features to 2D); each node's neighbours
/// are split into a "near" and a "far" bucket by latent distance relative
/// to the node's median neighbour distance. Both buckets are
/// row-normalised.
pub fn geometric_bucket_operators(g: &Graph, seed: u64) -> (CsrMatrix, CsrMatrix) {
    let n = g.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    let proj = init::normal(&mut rng, g.feat_dim(), 2, 1.0 / (g.feat_dim().max(1) as f32).sqrt());
    let latent = g.features().spmm(&proj);
    let dist = |v: usize, u: usize| -> f32 {
        let (a, b) = (latent.row(v), latent.row(u));
        ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2)).sqrt()
    };
    let mut near = Vec::new();
    let mut far = Vec::new();
    for v in 0..n {
        let nbrs: Vec<usize> = g.neighbors(v).collect();
        if nbrs.is_empty() {
            continue;
        }
        let mut ds: Vec<f32> = nbrs.iter().map(|&u| dist(v, u)).collect();
        let mut sorted = ds.clone();
        sorted.sort_by(f32::total_cmp);
        let median = sorted[sorted.len() / 2];
        let mut near_nodes = Vec::new();
        let mut far_nodes = Vec::new();
        for (u, d) in nbrs.iter().zip(ds.drain(..)) {
            if d <= median {
                near_nodes.push(*u);
            } else {
                far_nodes.push(*u);
            }
        }
        for (bucket, list) in [(&mut near, near_nodes), (&mut far, far_nodes)] {
            if !list.is_empty() {
                let w = 1.0 / list.len() as f32;
                for u in list {
                    bucket.push((v, u, w));
                }
            }
        }
    }
    (CsrMatrix::from_triplets(n, n, &near), CsrMatrix::from_triplets(n, n, &far))
}

/// HOG-GCN's homophily-degree-weighted operator: soft labels are
/// initialised one-hot on the training nodes (uniform elsewhere),
/// propagated `steps` times over `D⁻¹A`, and edge `(i, j)` is weighted by
/// the dot product of the propagated label distributions; rows are then
/// normalised.
pub fn label_prop_homophily_operator(g: &Graph, train: &[usize], steps: usize) -> CsrMatrix {
    let n = g.num_nodes();
    let c = g.num_classes();
    let mut q = Matrix::filled(n, c, 1.0 / c as f32);
    for &i in train {
        for j in 0..c {
            q.set(i, j, if j == g.label(i) { 1.0 } else { 0.0 });
        }
    }
    let row_norm = ops::row_norm_adj(g);
    for _ in 0..steps {
        let mut next = row_norm.spmm(&q);
        // Keep training nodes clamped to their labels.
        for &i in train {
            for j in 0..c {
                next.set(i, j, if j == g.label(i) { 1.0 } else { 0.0 });
            }
        }
        q = next;
    }
    let mut triplets = Vec::new();
    for v in 0..n {
        let mut weights: Vec<(usize, f32)> = g
            .neighbors(v)
            .map(|u| {
                let w: f32 =
                    q.row(v).iter().zip(q.row(u)).map(|(&a, &b)| a * b).sum::<f32>().max(1e-4);
                (u, w)
            })
            .collect();
        let total: f32 = weights.iter().map(|&(_, w)| w).sum();
        if total > 0.0 {
            for (u, w) in weights.drain(..) {
                triplets.push((v, u, w / total));
            }
        }
    }
    CsrMatrix::from_triplets(n, n, &triplets)
}

/// MI-GCN/UGCN-style fixed rewiring: adds each node's top-`k_add` most
/// feature-similar non-neighbours and removes its `d_del` least similar
/// neighbours (keeping at least one neighbour).
pub fn similarity_rewire(g: &Graph, k_add: usize, d_del: usize) -> Graph {
    let n = g.num_nodes();
    let feats = g.features();
    let mut out = g.clone();
    // Deletions first, computed on the original topology. A removal is
    // skipped when it would leave either endpoint isolated.
    if d_del > 0 {
        let (norms, mut row) = (feats.row_norms(), DenseRow::default());
        for v in 0..n {
            feats.load_row(v, &mut row);
            let mut nbrs: Vec<(f32, usize)> =
                g.neighbors(v).map(|u| (feats.cosine(u, v, &row, &norms), u)).collect();
            nbrs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut removed = 0usize;
            for &(_, u) in &nbrs {
                if removed == d_del {
                    break;
                }
                if out.degree(v) > 1 && out.degree(u) > 1 && out.remove_edge(v, u) {
                    removed += 1;
                }
            }
        }
    }
    if k_add > 0 {
        for (u, v) in feats.cosine_knn(k_add, |v, u| !g.has_edge(v, u)) {
            out.add_edge(u, v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocky_graph() -> Graph {
        // Two feature blocks {0,1,2} and {3,4,5}, heterophilic wiring.
        let mut feats = Matrix::zeros(6, 4);
        for v in 0..3 {
            feats.set(v, 0, 1.0);
            feats.set(v, 1, 1.0);
        }
        for v in 3..6 {
            feats.set(v, 2, 1.0);
            feats.set(v, 3, 1.0);
        }
        Graph::from_edges(6, &[(0, 3), (1, 4), (2, 5), (0, 4)], feats, vec![0, 0, 0, 1, 1, 1], 2)
    }

    #[test]
    fn knn_connects_same_block() {
        let g = blocky_graph();
        let edges = g.features().cosine_knn(2, |_, _| true);
        for &(u, v) in &edges {
            assert_eq!(g.label(u), g.label(v), "kNN edge ({u},{v}) crosses blocks");
        }
    }

    #[test]
    fn blended_operator_rows_bounded() {
        let g = blocky_graph();
        let b = blended_operator(&g, 2, 0.5);
        for r in 0..6 {
            let s: f32 = b.row_entries(r).map(|(_, w)| w).sum();
            // gcn_norm rows sum to at most ~1.1 (symmetric normalisation);
            // the blend must stay in the same ballpark and positive.
            assert!(s > 0.0 && s <= 1.2, "row {r} sums to {s}");
        }
    }

    #[test]
    fn signed_operator_marks_cross_block_negative() {
        let g = blocky_graph();
        let s = signed_operator(&g, 0.5);
        // Edge (0,3) crosses feature blocks: cosine 0 < 0.5 => negative.
        assert!(s.get(0, 3).unwrap() < 0.0);
    }

    #[test]
    fn gated_operators_complement() {
        let g = blocky_graph();
        let (sim, dis) = gated_operators(&g);
        for r in 0..6 {
            let total: f32 = sim.row_entries(r).map(|(_, w)| w).sum::<f32>()
                + dis.row_entries(r).map(|(_, w)| w).sum::<f32>();
            if g.degree(r) > 0 {
                assert!((total - 1.0).abs() < 1e-5, "row {r}: {total}");
            }
        }
    }

    #[test]
    fn geometric_buckets_cover_neighbors() {
        let g = blocky_graph();
        let (near, far) = geometric_bucket_operators(&g, 3);
        for v in 0..6 {
            let covered = near.row_nnz(v) + far.row_nnz(v);
            assert_eq!(covered, g.degree(v), "node {v}");
        }
    }

    #[test]
    fn label_prop_weights_rows_normalised() {
        let g = blocky_graph();
        let op = label_prop_homophily_operator(&g, &[0, 3], 2);
        for v in 0..6 {
            if g.degree(v) > 0 {
                let s: f32 = op.row_entries(v).map(|(_, w)| w).sum();
                assert!((s - 1.0).abs() < 1e-5, "row {v} sums to {s}");
            }
        }
    }

    #[test]
    fn similarity_rewire_adds_same_block_edges() {
        let g = blocky_graph();
        let rewired = similarity_rewire(&g, 1, 0);
        assert!(rewired.num_edges() > g.num_edges());
        for (u, v) in rewired.edge_vec() {
            if !g.has_edge(u, v) {
                assert_eq!(rewired.label(u), rewired.label(v), "added cross-block edge");
            }
        }
    }

    #[test]
    fn similarity_rewire_keeps_one_neighbor() {
        let g = blocky_graph();
        let rewired = similarity_rewire(&g, 0, 10);
        for v in 0..6 {
            if g.degree(v) > 0 {
                assert!(rewired.degree(v) >= 1, "node {v} fully disconnected");
            }
        }
    }

    #[test]
    fn nan_features_do_not_panic_transforms() {
        // A NaN feature row drives every cosine similarity (and latent
        // distance) involving that node to NaN, which used to panic the
        // `partial_cmp(..).unwrap()` comparators of the kNN graph,
        // `similarity_rewire` and the `geometric_bucket_operators`
        // median. `total_cmp` keeps the orderings total and the outputs
        // deterministic.
        let mut feats = Matrix::zeros(4, 2);
        feats.set(0, 0, f32::NAN);
        feats.set(1, 0, 1.0);
        feats.set(2, 1, 1.0);
        feats.set(3, 0, 1.0);
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)], feats, vec![0, 1, 0, 1], 2);
        assert_eq!(
            g.features().cosine_knn(1, |_, _| true),
            g.features().cosine_knn(1, |_, _| true)
        );
        let rewired = similarity_rewire(&g, 1, 1);
        assert!(rewired.num_edges() > 0);
        let (near, far) = geometric_bucket_operators(&g, 3);
        assert_eq!(near.rows(), 4);
        assert_eq!(far.rows(), 4);
    }
}
