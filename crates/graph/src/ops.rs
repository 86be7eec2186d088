//! Propagation operators derived from a [`Graph`]'s topology.
//!
//! GNN layers do not consume adjacency directly; they consume normalised
//! sparse operators (`Â`, `D⁻¹A`, two-hop masks, attention neighbour
//! lists). Each operator has one builder; its `*_into` form refills an
//! existing operator's storage in place, which is how the GNN crate's
//! cached operators follow the rewired topology after every flip batch.

use graphrare_tensor::{AdjList, CsrMatrix};

use crate::graph::Graph;

/// Reusable scratch for the `*_into` operator builders. Holding one of
/// these across topology updates lets the operator refresh rebuild every
/// cached operator without heap allocation once the buffers have warmed
/// up to the graph's size.
#[derive(Clone, Debug, Default)]
pub struct OperatorScratch {
    /// Per-row `(col, value)` assembly buffer shared by all CSR builders.
    row: Vec<(usize, f32)>,
    /// Node marks for the two-hop ring walk (always reset to `false`).
    seen: Vec<bool>,
    /// Two-hop ring discovery buffer.
    ring: Vec<usize>,
}

/// `d̂_v^{-1/2} = 1/sqrt(deg(v) + 1)` — the per-node factor of the GCN
/// normalisation. Public so callers that maintain degrees incrementally
/// (`GraphTensors`) can patch a cached vector instead of re-deriving it.
#[inline]
pub fn inv_sqrt_degree(g: &Graph, v: usize) -> f32 {
    1.0 / ((g.degree(v) + 1) as f32).sqrt()
}

/// The full `d̂^{-1/2}` vector — the from-scratch degree pass [`gcn_norm`]
/// runs when no cached copy is supplied.
pub fn inv_sqrt_degrees(g: &Graph) -> Vec<f32> {
    (0..g.num_nodes()).map(|v| inv_sqrt_degree(g, v)).collect()
}

/// Symmetric GCN normalisation `D̂^{-1/2} (A + I) D̂^{-1/2}` with self-loops
/// (Kipf & Welling 2017), the operator used by GCN and as the default
/// propagation matrix elsewhere.
///
/// The build precomputes `d̂^{-1/2}` per node ([`inv_sqrt_degrees`]) and
/// assembles rows directly into CSR storage.
pub fn gcn_norm(g: &Graph) -> CsrMatrix {
    gcn_norm_with_inv(g, &inv_sqrt_degrees(g))
}

/// [`gcn_norm`] fed by a caller-supplied `d̂^{-1/2}` vector (must equal
/// [`inv_sqrt_degrees`] of `g`), skipping the from-scratch degree pass —
/// `GraphTensors` maintains that vector incrementally across edits.
pub fn gcn_norm_with_inv(g: &Graph, inv: &[f32]) -> CsrMatrix {
    let mut out = CsrMatrix::empty();
    gcn_norm_with_inv_into(g, inv, &mut out, &mut OperatorScratch::default());
    out
}

/// [`gcn_norm_with_inv`] rebuilt **in place** into `out`, reusing its CSR
/// storage and the caller's scratch — allocation-free once warmed up.
pub fn gcn_norm_with_inv_into(
    g: &Graph,
    inv: &[f32],
    out: &mut CsrMatrix,
    scratch: &mut OperatorScratch,
) {
    let n = g.num_nodes();
    debug_assert_eq!(inv.len(), n, "inv_sqrt vector length mismatch");
    out.rebuild_from_row_builder(n, n, &mut scratch.row, |v, row| {
        let iv = inv[v];
        let mut self_placed = false;
        for &u in g.neighbor_slice(v) {
            let u = u as usize;
            if !self_placed && u > v {
                row.push((v, iv * iv));
                self_placed = true;
            }
            row.push((u, iv * inv[u]));
        }
        if !self_placed {
            row.push((v, iv * iv));
        }
    });
}

/// Row-normalised adjacency `D^{-1} A` (mean aggregation without the ego
/// node), used by GraphSAGE's mean aggregator and by H2GCN's hop operators.
/// Isolated nodes get an all-zero row.
pub fn row_norm_adj(g: &Graph) -> CsrMatrix {
    let mut out = CsrMatrix::empty();
    row_norm_adj_into(g, &mut out, &mut OperatorScratch::default());
    out
}

/// [`row_norm_adj`] rebuilt **in place** into `out`, reusing its CSR
/// storage and the caller's scratch — allocation-free once warmed up.
pub fn row_norm_adj_into(g: &Graph, out: &mut CsrMatrix, scratch: &mut OperatorScratch) {
    let n = g.num_nodes();
    out.rebuild_from_row_builder(n, n, &mut scratch.row, |v, row| {
        let deg = g.degree(v);
        if deg == 0 {
            return;
        }
        let w = 1.0 / deg as f32;
        row.extend(g.neighbor_slice(v).iter().map(|&u| (u as usize, w)));
    });
}

/// Strict two-hop neighbourhood operator used by H2GCN: `N_2(v)` contains
/// nodes at distance exactly 2 (neighbours-of-neighbours, excluding `v` and
/// its one-hop neighbours), row-normalised.
pub fn row_norm_two_hop(g: &Graph) -> CsrMatrix {
    let mut out = CsrMatrix::empty();
    row_norm_two_hop_into(g, &mut out, &mut OperatorScratch::default());
    out
}

/// [`row_norm_two_hop`] rebuilt **in place** into `out`, reusing its CSR
/// storage and the caller's scratch — allocation-free once warmed up.
pub fn row_norm_two_hop_into(g: &Graph, out: &mut CsrMatrix, scratch: &mut OperatorScratch) {
    let n = g.num_nodes();
    let OperatorScratch { row, seen, ring } = scratch;
    // Marks are reset to `false` after every row, so a warm buffer only
    // needs resizing when the node count changed.
    if seen.len() != n {
        seen.clear();
        seen.resize(n, false);
    }
    out.rebuild_from_row_builder(n, n, row, |v, out_row| {
        ring.clear();
        seen[v] = true;
        for u in g.neighbors(v) {
            seen[u] = true;
        }
        for u in g.neighbors(v) {
            for w in g.neighbors(u) {
                if !seen[w] {
                    seen[w] = true;
                    ring.push(w);
                }
            }
        }
        if !ring.is_empty() {
            // Discovery order is not sorted; CSR rows must be.
            ring.sort_unstable();
            let w = 1.0 / ring.len() as f32;
            out_row.extend(ring.iter().map(|&r| (r, w)));
        }
        // Reset the scratch marks.
        seen[v] = false;
        for u in g.neighbors(v) {
            seen[u] = false;
        }
        for &r in ring.iter() {
            seen[r] = false;
        }
    });
}

/// Powers-of-adjacency operator `Â^k` built by repeated sparsified
/// squaring on the GCN-normalised matrix; used by MixHop. Entries below
/// `threshold` are dropped to keep the operator sparse.
pub fn gcn_norm_power(g: &Graph, k: usize, threshold: f32) -> CsrMatrix {
    let base = gcn_norm(g);
    if k <= 1 {
        return base;
    }
    let n = g.num_nodes();
    let mut current = base.clone();
    for _ in 1..k {
        // current = current * base, kept sparse row by row.
        let mut triplets = Vec::new();
        let mut acc = vec![0f32; n];
        let mut touched: Vec<usize> = Vec::new();
        for r in 0..n {
            for (mid, w1) in current.row_entries(r) {
                for (c, w2) in base.row_entries(mid) {
                    if acc[c] == 0.0 {
                        touched.push(c);
                    }
                    acc[c] += w1 * w2;
                }
            }
            for &c in &touched {
                if acc[c].abs() >= threshold {
                    triplets.push((r, c, acc[c]));
                }
                acc[c] = 0.0;
            }
            touched.clear();
        }
        current = CsrMatrix::from_triplets(n, n, &triplets);
    }
    current
}

/// Neighbour lists with self-loops for GAT attention: node `i` attends over
/// `{i} ∪ N_1(i)`.
pub fn attention_lists(g: &Graph) -> AdjList {
    let mut out = AdjList::from_neighbor_lists(&[]);
    attention_lists_into(g, &mut out);
    out
}

/// [`attention_lists`] rebuilt **in place** into `out`, reusing its
/// offset/target storage — allocation-free once warmed up.
pub fn attention_lists_into(g: &Graph, out: &mut AdjList) {
    out.rebuild_from_row_builder(g.num_nodes(), |v, targets| {
        targets.push(v);
        targets.extend(g.neighbor_slice(v).iter().map(|&u| u as usize));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrare_tensor::Matrix;

    fn triangle_plus_tail() -> Graph {
        // Triangle 0-1-2 plus edge 2-3.
        Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)], Matrix::zeros(4, 1), vec![0; 4], 1)
    }

    #[test]
    fn gcn_norm_is_symmetric_with_known_entries() {
        let g = triangle_plus_tail();
        let m = gcn_norm(&g);
        assert!(m.is_symmetric(1e-6));
        // Self-loop entry for node 3: 1/(d+1) = 1/2.
        assert!((m.get(3, 3).unwrap() - 0.5).abs() < 1e-6);
        // Entry (0,1): 1/sqrt(3)/sqrt(3) = 1/3.
        assert!((m.get(0, 1).unwrap() - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn row_norm_rows_sum_to_one() {
        let g = triangle_plus_tail();
        let m = row_norm_adj(&g);
        for r in 0..4 {
            let s: f32 = m.row_entries(r).map(|(_, v)| v).sum();
            assert!((s - 1.0).abs() < 1e-6, "row {r} sums to {s}");
        }
        // No self entries.
        for r in 0..4 {
            assert_eq!(m.get(r, r), None);
        }
    }

    #[test]
    fn row_norm_isolated_node_zero_row() {
        let g = Graph::from_edges(3, &[(0, 1)], Matrix::zeros(3, 1), vec![0; 3], 1);
        let m = row_norm_adj(&g);
        assert_eq!(m.row_nnz(2), 0);
    }

    #[test]
    fn two_hop_excludes_self_and_one_hop() {
        let g = triangle_plus_tail();
        let m = row_norm_two_hop(&g);
        // Node 3's two-hop set is {0, 1} (via 2).
        let entries: Vec<usize> = m.row_entries(3).map(|(c, _)| c).collect();
        assert_eq!(entries, vec![0, 1]);
        // Node 0 is adjacent to 1,2; two-hop is {3} (via 2).
        let entries0: Vec<usize> = m.row_entries(0).map(|(c, _)| c).collect();
        assert_eq!(entries0, vec![3]);
    }

    #[test]
    fn power_one_is_base() {
        let g = triangle_plus_tail();
        let p1 = gcn_norm_power(&g, 1, 0.0);
        assert_eq!(p1, gcn_norm(&g));
    }

    #[test]
    fn power_two_matches_dense_square() {
        let g = triangle_plus_tail();
        let base = gcn_norm(&g).to_dense();
        let want = base.matmul(&base);
        let got = gcn_norm_power(&g, 2, 0.0).to_dense();
        assert!(got.max_abs_diff(&want) < 1e-5);
    }

    #[test]
    fn with_inv_variants_match_base_builders() {
        let g = triangle_plus_tail();
        let inv = inv_sqrt_degrees(&g);
        for (v, &iv) in inv.iter().enumerate() {
            assert_eq!(iv.to_bits(), inv_sqrt_degree(&g, v).to_bits());
        }
        assert_eq!(gcn_norm_with_inv(&g, &inv), gcn_norm(&g));
    }

    #[test]
    fn into_builders_match_fresh_builds_on_warm_buffers() {
        let a = triangle_plus_tail();
        // A different topology the warm buffers were first sized for.
        let b = Graph::from_edges(5, &[(0, 4), (1, 3), (2, 4)], Matrix::zeros(5, 1), vec![0; 5], 1);
        let mut scratch = OperatorScratch::default();
        let mut gcn = CsrMatrix::empty();
        let mut row = CsrMatrix::empty();
        let mut two = CsrMatrix::empty();
        let mut attn = AdjList::from_neighbor_lists(&[]);
        for g in [&b, &a, &b] {
            let inv = inv_sqrt_degrees(g);
            gcn_norm_with_inv_into(g, &inv, &mut gcn, &mut scratch);
            row_norm_adj_into(g, &mut row, &mut scratch);
            row_norm_two_hop_into(g, &mut two, &mut scratch);
            attention_lists_into(g, &mut attn);
            assert_eq!(gcn, gcn_norm(g));
            assert_eq!(row, row_norm_adj(g));
            assert_eq!(two, row_norm_two_hop(g));
            assert_eq!(attn, attention_lists(g));
        }
    }

    #[test]
    fn attention_lists_include_self_first() {
        let g = triangle_plus_tail();
        let al = attention_lists(&g);
        assert_eq!(al.neighbors(3), &[3, 2]);
        assert_eq!(al.neighbors(0), &[0, 1, 2]);
    }
}
