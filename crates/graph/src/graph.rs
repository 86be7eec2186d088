//! The attributed graph type `G = (V, E, X, A)` from the paper's Table I.

use std::sync::Arc;

use graphrare_tensor::{CsrMatrix, Matrix};

use crate::adjacency::{edge_key, unkey, CsrAdjacency, EdgeEdit};

/// An undirected attributed graph with node labels.
///
/// Matches the paper's formulation `G = (V, E, X, A)`: `n` nodes, an
/// undirected edge set, an `n x d` feature matrix and per-node class
/// labels. The features are held once, as a shared CSR matrix
/// ([`features`](Graph::features)): bag-of-words rows are mostly zeros,
/// every consumer reads that one matrix, and cloning a graph or giving
/// it new edges ([`with_edges`](Graph::with_edges)) copies no feature
/// values. Adjacency is CSR-backed ([`CsrAdjacency`]): neighbour lists are
/// sorted slices of one flat array, so iteration is contiguous, membership
/// is a binary search, clones are `memcpy`s, and a whole batch of topology
/// edits — the core operation of GraphRARE's optimisation module — is
/// applied in one sorted-merge splice via [`Graph::apply_edits`].
/// Single-edge [`add_edge`](Graph::add_edge) /
/// [`remove_edge`](Graph::remove_edge) are `O(V + E)` each and meant for
/// construction and tests; hot paths batch.
#[derive(Clone, Debug)]
pub struct Graph {
    adj: CsrAdjacency,
    num_edges: usize,
    features: Arc<CsrMatrix>,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Graph {
    /// Creates a graph with `n` isolated nodes. The dense `features`
    /// are stored as their nonzero entries ([`CsrMatrix::from_dense`]).
    ///
    /// # Panics
    /// Panics if `features` does not have `n` rows, `labels` does not have
    /// `n` entries, or a label is `>= num_classes`.
    pub fn new(n: usize, features: Matrix, labels: Vec<usize>, num_classes: usize) -> Self {
        assert_eq!(features.rows(), n, "feature matrix must have n rows");
        assert_eq!(labels.len(), n, "labels must have n entries");
        assert!(labels.iter().all(|&l| l < num_classes), "labels must be < num_classes");
        let features = Arc::new(CsrMatrix::from_dense(&features));
        Self { adj: CsrAdjacency::new(n), num_edges: 0, features, labels, num_classes }
    }

    /// Creates a graph from an undirected edge list (duplicates and
    /// self-loops are ignored). Built in one bulk pass — much faster than
    /// repeated [`add_edge`](Graph::add_edge).
    pub fn from_edges(
        n: usize,
        edges: &[(usize, usize)],
        features: Matrix,
        labels: Vec<usize>,
        num_classes: usize,
    ) -> Self {
        let mut g = Self::new(n, features, labels, num_classes);
        (g.adj, g.num_edges) = CsrAdjacency::from_edges(n, edges.iter().copied());
        g
    }

    /// This graph's nodes, features and labels over a new undirected
    /// edge list (duplicates and self-loops ignored, as in
    /// [`from_edges`](Graph::from_edges)). The features are shared, not
    /// copied.
    pub fn with_edges(&self, edges: impl IntoIterator<Item = (usize, usize)>) -> Graph {
        let (adj, num_edges) = CsrAdjacency::from_edges(self.num_nodes(), edges);
        Graph {
            adj,
            num_edges,
            features: Arc::clone(&self.features),
            labels: self.labels.clone(),
            num_classes: self.num_classes,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The `n x d` node feature matrix, shared by every clone of this
    /// graph and every graph [`with_edges`](Graph::with_edges) made.
    #[inline]
    pub fn features(&self) -> &Arc<CsrMatrix> {
        &self.features
    }

    /// Node feature dimensionality `d`.
    #[inline]
    pub fn feat_dim(&self) -> usize {
        self.features.cols()
    }

    /// Per-node class labels.
    #[inline]
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of classes.
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Label of node `v`.
    #[inline]
    pub fn label(&self, v: usize) -> usize {
        self.labels[v]
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.adj.degree(v)
    }

    /// Maximum degree over all nodes (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.adj.len()).map(|v| self.adj.degree(v)).max().unwrap_or(0)
    }

    /// Mean degree.
    pub fn mean_degree(&self) -> f64 {
        if self.adj.is_empty() {
            0.0
        } else {
            2.0 * self.num_edges as f64 / self.adj.len() as f64
        }
    }

    /// Sorted iterator over the one-hop neighbours of `v` (the paper's
    /// `N_1(v)`).
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.adj.neighbors(v).iter().map(|&u| u as usize)
    }

    /// Sorted neighbour slice of `v` in the compact `u32` representation,
    /// for allocation-free hot loops.
    #[inline]
    pub fn neighbor_slice(&self, v: usize) -> &[u32] {
        self.adj.neighbors(v)
    }

    /// Whether the undirected edge `{u, v}` exists.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj.contains(u, v)
    }

    /// Adds the undirected edge `{u, v}`. Returns `true` if the edge was
    /// newly inserted; self-loops are rejected. `O(V + E)` — hot paths
    /// batch via [`apply_edits`](Graph::apply_edits).
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        if u == v || u >= self.adj.len() || v >= self.adj.len() {
            return false;
        }
        if self.adj.insert(u, v) {
            self.num_edges += 1;
            true
        } else {
            false
        }
    }

    /// Removes the undirected edge `{u, v}`. Returns `true` if it existed.
    /// `O(V + E)` — hot paths batch via [`apply_edits`](Graph::apply_edits).
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        if u >= self.adj.len() || v >= self.adj.len() {
            return false;
        }
        if self.adj.remove(u, v) {
            self.num_edges -= 1;
            true
        } else {
            false
        }
    }

    /// Applies a batch of undirected edits in one sorted-merge splice of
    /// the CSR adjacency. Returns `(added, removed)` undirected-edge
    /// counts.
    ///
    /// Semantics match applying the edits one by one with
    /// [`add_edge`](Graph::add_edge) / [`remove_edge`](Graph::remove_edge)
    /// in order: when the same pair appears more than once, the **last**
    /// edit decides its final presence; adds of present edges and removes
    /// of absent edges are no-ops; self-loops and out-of-bounds pairs are
    /// dropped. Cost is `O(V + E + B log B)` for `B` edits, independent of
    /// how the batch is ordered.
    pub fn apply_edits(&mut self, edits: &[(usize, usize, EdgeEdit)]) -> (usize, usize) {
        let n = self.adj.len();
        let mut keyed: Vec<(u64, u32, bool)> = edits
            .iter()
            .enumerate()
            .filter(|&(_, &(u, v, _))| u != v && u < n && v < n)
            .map(|(i, &(u, v, e))| (edge_key(u, v), i as u32, e == EdgeEdit::Add))
            .collect();
        keyed.sort_unstable();
        let mut flips: Vec<(usize, usize, bool)> = Vec::new();
        let mut i = 0;
        while i < keyed.len() {
            let key = keyed[i].0;
            while i + 1 < keyed.len() && keyed[i + 1].0 == key {
                i += 1; // the last edit for this pair wins
            }
            let want = keyed[i].2;
            i += 1;
            let (u, v) = unkey(key);
            if want != self.adj.contains(u, v) {
                flips.push((u, v, want));
            }
        }
        self.apply_flips_sorted(&flips)
    }

    /// Applies a batch of *known* presence flips in one CSR splice,
    /// skipping [`apply_edits`](Graph::apply_edits)'s dedup sort and
    /// per-edge membership checks. Returns `(added, removed)`.
    ///
    /// Callers must pass distinct in-bounds non-loop edges in ascending
    /// [`edge_key`] order, each of which genuinely changes presence
    /// (`add` absent edges, `remove` present ones) — the incremental
    /// rewiring engine establishes all of this during reconciliation.
    /// Violations are caught by debug assertions (and corrupt the
    /// adjacency in release builds).
    pub fn apply_flips_sorted(&mut self, flips: &[(usize, usize, bool)]) -> (usize, usize) {
        debug_assert!(
            flips.windows(2).all(|w| edge_key(w[0].0, w[0].1) < edge_key(w[1].0, w[1].1)),
            "flips must be distinct and ascending by edge key"
        );
        let (mut added, mut removed) = (0usize, 0usize);
        for &(u, v, want) in flips {
            debug_assert!(u != v && u < self.adj.len() && v < self.adj.len(), "flip out of bounds");
            debug_assert!(want != self.adj.contains(u, v), "flip {u}-{v} does not change presence");
            if want {
                added += 1;
            } else {
                removed += 1;
            }
        }
        // Direction expansion happens inside the adjacency on reused
        // scratch, so steady-state batches allocate nothing here.
        self.adj.apply_flips(flips, added, removed);
        self.num_edges = self.num_edges + added - removed;
        (added, removed)
    }

    /// Iterator over undirected edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.adj.len()).flat_map(move |u| {
            self.adj
                .neighbors(u)
                .iter()
                .map(|&v| v as usize)
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// All undirected edges collected into a `Vec`.
    pub fn edge_vec(&self) -> Vec<(usize, usize)> {
        self.edges().collect()
    }

    /// The descending degree sequence `d(v)` of Eq. (5): degrees of `v` and
    /// its one-hop neighbours, sorted in descending order.
    pub fn degree_profile(&self, v: usize) -> Vec<usize> {
        let mut seq: Vec<usize> = std::iter::once(self.degree(v))
            .chain(self.neighbors(v).map(|u| self.degree(u)))
            .collect();
        seq.sort_unstable_by(|a, b| b.cmp(a));
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges, Matrix::zeros(n, 2), vec![0; n], 1)
    }

    #[test]
    fn add_remove_edge_roundtrip() {
        let mut g = Graph::new(4, Matrix::zeros(4, 1), vec![0; 4], 1);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0), "duplicate undirected edge");
        assert!(g.has_edge(1, 0));
        assert_eq!(g.num_edges(), 1);
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn self_loops_rejected() {
        let mut g = Graph::new(2, Matrix::zeros(2, 1), vec![0; 2], 1);
        assert!(!g.add_edge(1, 1));
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn out_of_bounds_edges_rejected() {
        let mut g = Graph::new(2, Matrix::zeros(2, 1), vec![0; 2], 1);
        assert!(!g.add_edge(0, 5));
        assert!(!g.remove_edge(0, 5));
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = path_graph(4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(g.max_degree(), 2);
        assert!((g.mean_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn edges_listed_once() {
        let g = path_graph(5);
        let edges = g.edge_vec();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
    }

    #[test]
    fn batched_edits_match_sequential() {
        let mut a = path_graph(6);
        let mut b = a.clone();
        use EdgeEdit::{Add, Remove};
        let edits =
            [(1, 2, Remove), (0, 5, Add), (3, 4, Remove), (3, 4, Add), (0, 5, Add), (9, 1, Add)];
        let (added, removed) = a.apply_edits(&edits);
        for &(u, v, e) in &edits {
            match e {
                Add => {
                    b.add_edge(u, v);
                }
                Remove => {
                    b.remove_edge(u, v);
                }
            }
        }
        assert_eq!(a.edge_vec(), b.edge_vec());
        assert_eq!(a.num_edges(), b.num_edges());
        // (3,4) was removed then re-added: the last edit wins, net no-op.
        assert_eq!((added, removed), (1, 1));
    }

    #[test]
    fn batched_edits_last_wins_over_earlier_add() {
        let mut g = path_graph(4);
        use EdgeEdit::{Add, Remove};
        g.apply_edits(&[(0, 2, Add), (0, 2, Remove)]);
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn sorted_flips_match_generic_edits() {
        let mut a = path_graph(6);
        let mut b = a.clone();
        use EdgeEdit::{Add, Remove};
        // Same batch through both entry points: flips are key-sorted and
        // all presence-changing, as the rewiring engine guarantees.
        let (added, removed) = a.apply_flips_sorted(&[(0, 3, true), (1, 2, false), (4, 5, false)]);
        b.apply_edits(&[(0, 3, Add), (1, 2, Remove), (4, 5, Remove)]);
        assert_eq!((added, removed), (1, 2));
        assert_eq!(a.edge_vec(), b.edge_vec());
        assert_eq!(a.num_edges(), b.num_edges());
    }

    #[test]
    fn degree_profile_is_descending_and_includes_self() {
        // Star: center 0 connected to 1..4.
        let edges = [(0, 1), (0, 2), (0, 3), (0, 4)];
        let g = Graph::from_edges(5, &edges, Matrix::zeros(5, 1), vec![0; 5], 1);
        assert_eq!(g.degree_profile(0), vec![4, 1, 1, 1, 1]);
        assert_eq!(g.degree_profile(1), vec![4, 1]);
    }

    #[test]
    fn with_edges_shares_the_features_and_labels() {
        let feats =
            Matrix::from_fn(5, 3, |r, c| if (r + c) % 2 == 0 { r as f32 - 1.5 } else { 0.0 });
        let g = Graph::from_edges(5, &[(0, 1), (1, 2)], feats.clone(), vec![0, 1, 0, 1, 0], 2);
        let h = g.with_edges([(3, 4), (4, 3), (2, 2), (0, 9), (0, 4)]);
        assert!(Arc::ptr_eq(h.features(), g.features()));
        assert_eq!(h.features().to_dense(), feats);
        assert_eq!(h.edge_vec(), vec![(0, 4), (3, 4)]);
        assert_eq!((h.labels(), h.num_classes()), (g.labels(), 2));
        assert!(Arc::ptr_eq(g.clone().features(), g.features()), "a clone copies features");
    }

    #[test]
    #[should_panic(expected = "labels must be < num_classes")]
    fn label_bounds_checked() {
        let _ = Graph::new(1, Matrix::zeros(1, 1), vec![3], 2);
    }
}
