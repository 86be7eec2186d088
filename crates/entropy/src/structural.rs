//! Node structural entropy (Eqs. 5–8).
//!
//! The structural similarity of two nodes is measured on their *degree
//! profiles*: the descending sequence of degrees of the node and its
//! one-hop neighbours (Eq. 5), normalised to a distribution (Eq. 6). The
//! paper replaces the unbounded KL divergence of Zhang et al. with the
//! Jensen–Shannon divergence (Eq. 7), whose base-2 form lies in `[0, 1]`,
//! and defines `H_s(v, u) = 1 − JS(p(v) ‖ p(u))` (Eq. 8): larger values
//! mean more similar local structure.

use graphrare_graph::Graph;

/// Normalised degree profile `p(v)` of Eq. (6): the descending degree
/// sequence of `v` and its one-hop neighbours divided by its sum. An
/// isolated node yields the singleton distribution `[1.0]` over its own
/// (zero-padded) profile.
pub fn degree_distribution(g: &Graph, v: usize) -> Vec<f64> {
    let profile = g.degree_profile(v);
    let total: usize = profile.iter().sum();
    if total == 0 {
        // Isolated node: degenerate profile; treat as a point mass.
        return vec![1.0];
    }
    profile.iter().map(|&d| d as f64 / total as f64).collect()
}

/// `D_KL(p ‖ (p+q)/2)` in bits, over implicitly zero-padded sequences
/// (Eq. 7). Terms with `p_i = 0` contribute nothing.
pub fn kl_to_mixture(p: &[f64], q: &[f64]) -> f64 {
    let len = p.len().max(q.len());
    let mut total = 0.0;
    for i in 0..len {
        let pi = p.get(i).copied().unwrap_or(0.0);
        if pi <= 0.0 {
            continue;
        }
        let qi = q.get(i).copied().unwrap_or(0.0);
        let m = 0.5 * (pi + qi);
        total += pi * (pi / m).log2();
    }
    total
}

/// Jensen–Shannon divergence in bits: `JS(p, q) ∈ [0, 1]`.
pub fn js_divergence(p: &[f64], q: &[f64]) -> f64 {
    0.5 * (kl_to_mixture(p, q) + kl_to_mixture(q, p))
}

/// Node structural entropy `H_s(v, u) = 1 − JS(p(v) ‖ p(u))` (Eq. 8).
///
/// Symmetric, in `[0, 1]`; `1.0` means identical degree profiles.
pub fn structural_entropy(g: &Graph, v: usize, u: usize) -> f64 {
    let pv = degree_distribution(g, v);
    let pu = degree_distribution(g, u);
    1.0 - js_divergence(&pv, &pu)
}

/// Precomputed degree distributions for repeated pairwise queries.
///
/// GraphRARE evaluates `H_s` for every candidate pair once before
/// training; caching the `N` profiles turns that into `O(Σ pairs · M)`
/// without repeated BFS work.
pub struct StructuralEntropyTable {
    distributions: Vec<Vec<f64>>,
}

impl StructuralEntropyTable {
    /// Builds the table for all nodes of `g`.
    ///
    /// Per-node degree profiles are independent, so the build is
    /// parallelised over nodes ([`graphrare_tensor::parallel`]); the
    /// resulting table is identical for any thread count.
    pub fn new(g: &Graph) -> Self {
        let distributions =
            graphrare_tensor::parallel::par_map(g.num_nodes(), |v| degree_distribution(g, v));
        Self { distributions }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.distributions.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.distributions.is_empty()
    }

    /// `H_s(v, u)` from the cached profiles.
    pub fn entropy(&self, v: usize, u: usize) -> f64 {
        1.0 - js_divergence(&self.distributions[v], &self.distributions[u])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrare_tensor::Matrix;

    fn graph(edges: &[(usize, usize)], n: usize) -> Graph {
        Graph::from_edges(n, edges, Matrix::zeros(n, 1), vec![0; n], 1)
    }

    #[test]
    fn identical_distributions_have_unit_entropy() {
        // Two symmetric endpoints of a path of 4: nodes 0 and 3.
        let g = graph(&[(0, 1), (1, 2), (2, 3)], 4);
        let h = structural_entropy(&g, 0, 3);
        assert!((h - 1.0).abs() < 1e-12, "h = {h}");
    }

    #[test]
    fn js_divergence_bounds() {
        let p = vec![1.0, 0.0];
        let q = vec![0.0, 1.0];
        // Disjoint supports: JS = 1 bit.
        assert!((js_divergence(&p, &q) - 1.0).abs() < 1e-12);
        assert_eq!(js_divergence(&p, &p), 0.0);
    }

    #[test]
    fn js_symmetry() {
        let p = vec![0.7, 0.2, 0.1];
        let q = vec![0.3, 0.3, 0.4];
        assert!((js_divergence(&p, &q) - js_divergence(&q, &p)).abs() < 1e-12);
    }

    #[test]
    fn structural_entropy_symmetric_and_bounded() {
        let g = graph(&[(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)], 6);
        for v in 0..6 {
            for u in 0..6 {
                let h = structural_entropy(&g, v, u);
                assert!((0.0..=1.0).contains(&h), "H_s({v},{u}) = {h}");
                let h2 = structural_entropy(&g, u, v);
                assert!((h - h2).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn hub_vs_leaf_less_similar_than_leaf_vs_leaf() {
        // Star with center 0: leaves have identical profiles.
        let g = graph(&[(0, 1), (0, 2), (0, 3), (0, 4)], 5);
        let leaf_leaf = structural_entropy(&g, 1, 2);
        let hub_leaf = structural_entropy(&g, 0, 1);
        assert!(leaf_leaf > hub_leaf, "{leaf_leaf} vs {hub_leaf}");
        assert!((leaf_leaf - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_padding_handles_different_profile_lengths() {
        let g = graph(&[(0, 1), (1, 2), (1, 3)], 4);
        // Node 1 has profile length 4, node 0 length 2 — must not panic.
        let h = structural_entropy(&g, 0, 1);
        assert!((0.0..=1.0).contains(&h));
    }

    #[test]
    fn table_matches_direct_computation() {
        let g = graph(&[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], 4);
        let table = StructuralEntropyTable::new(&g);
        for v in 0..4 {
            for u in 0..4 {
                assert!((table.entropy(v, u) - structural_entropy(&g, v, u)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn isolated_nodes_do_not_panic() {
        let g = graph(&[(0, 1)], 3);
        let h = structural_entropy(&g, 2, 0);
        assert!((0.0..=1.0).contains(&h));
        assert!((structural_entropy(&g, 2, 2) - 1.0).abs() < 1e-12);
    }
}
