//! Graph-level statistics: homophily ratios (Eq. 1) and class counts.

use crate::graph::Graph;

/// Number of edges whose endpoints share a label — the numerator of
/// [`homophily_ratio`]. Exposed so incremental topology trackers can seed
/// a counter once and update it per edit instead of rescanning every edge.
pub fn same_label_edges(g: &Graph) -> usize {
    g.edges().filter(|&(u, v)| g.label(u) == g.label(v)).count()
}

/// Edge homophily ratio `H` (Eq. 1 of the paper, following Zhu et al. 2020):
/// the fraction of edges whose endpoints share a label. Returns `1.0` for a
/// graph without edges (the vacuous case).
pub fn homophily_ratio(g: &Graph) -> f64 {
    if g.num_edges() == 0 {
        return 1.0;
    }
    same_label_edges(g) as f64 / g.num_edges() as f64
}

/// Node homophily: mean over nodes of the fraction of same-label
/// neighbours (nodes without neighbours are skipped). Reported alongside
/// edge homophily in the heterophily literature; used by tests to
/// cross-check generators.
pub fn node_homophily(g: &Graph) -> f64 {
    let mut total = 0.0;
    let mut counted = 0usize;
    for v in 0..g.num_nodes() {
        let deg = g.degree(v);
        if deg == 0 {
            continue;
        }
        let same = g.neighbors(v).filter(|&u| g.label(u) == g.label(v)).count();
        total += same as f64 / deg as f64;
        counted += 1;
    }
    if counted == 0 {
        1.0
    } else {
        total / counted as f64
    }
}

/// Per-class node counts.
pub fn class_counts(g: &Graph) -> Vec<usize> {
    let mut counts = vec![0usize; g.num_classes()];
    for &l in g.labels() {
        counts[l] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrare_tensor::Matrix;

    fn labeled(edges: &[(usize, usize)], labels: Vec<usize>, classes: usize) -> Graph {
        let n = labels.len();
        Graph::from_edges(n, edges, Matrix::zeros(n, 1), labels, classes)
    }

    #[test]
    fn homophily_all_same_label() {
        let g = labeled(&[(0, 1), (1, 2)], vec![0, 0, 0], 1);
        assert_eq!(homophily_ratio(&g), 1.0);
        assert_eq!(node_homophily(&g), 1.0);
    }

    #[test]
    fn homophily_fully_heterophilic() {
        let g = labeled(&[(0, 1), (1, 2)], vec![0, 1, 0], 2);
        assert_eq!(homophily_ratio(&g), 0.0);
        assert_eq!(node_homophily(&g), 0.0);
    }

    #[test]
    fn homophily_mixed() {
        // Edges: (0,1) same, (1,2) diff, (2,3) diff, (0,3) diff => 0.25.
        let g = labeled(&[(0, 1), (1, 2), (2, 3), (0, 3)], vec![0, 0, 1, 2], 3);
        assert!((homophily_ratio(&g) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_vacuous() {
        let g = labeled(&[], vec![0, 1], 2);
        assert_eq!(homophily_ratio(&g), 1.0);
        assert_eq!(node_homophily(&g), 1.0);
    }

    #[test]
    fn class_counts_tally() {
        let g = labeled(&[], vec![0, 1, 1, 2, 2, 2], 3);
        assert_eq!(class_counts(&g), vec![1, 2, 3]);
    }
}
