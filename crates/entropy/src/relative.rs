//! Node relative entropy `H(v, u) = H_f(v, u) + λ·H_s(v, u)` (Eq. 9).
//!
//! The feature entropy of Eq. 4, `−P log P` with `P` a softmax over all
//! pairwise feature dots (Eq. 3, `φ = id`), is monotone in `P` (every pair's
//! `P` is far below `1/e`) and `P` is monotone in the pair's dot. So
//! `H_f` is taken as the dot's min–max rescale to `[0, 1]` over the
//! graph's off-diagonal pairs: the same order as Eq. 4, spread evenly so
//! that `λ` weighs it against `H_s ∈ [0, 1]` as Table IV's sweep assumes.
//! A rescale of `log P` would be the same thing, because the softmax
//! normaliser is one constant shift that the rescale cancels; it is
//! therefore never computed.
//!
//! The table reads the graph's own CSR features (it keeps a handle on
//! them, not a copy) and every dot goes through [`CsrMatrix::row_dot`]:
//! only stored entries are multiplied, and the result equals the dense
//! loop's bit for bit on finite features.

use std::sync::Arc;

use graphrare_graph::Graph;
use graphrare_tensor::{CsrMatrix, DenseRow, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::structural::StructuralEntropyTable;

/// Configuration of the relative-entropy computation.
#[derive(Clone, Copy, Debug)]
pub struct RelativeEntropyConfig {
    /// The paper's `λ` (Eq. 9) weighting structural entropy; Table IV
    /// sweeps {0.1, 0.5, 1.0, 10.0} and settles on 1.0.
    pub lambda: f64,
}

impl Default for RelativeEntropyConfig {
    fn default() -> Self {
        Self { lambda: 1.0 }
    }
}

/// How far a computed Jensen–Shannon divergence may stray outside its
/// mathematical range `[0, 1]`. It is a sum of one term per profile
/// entry, each term and their absolute sum at most about 1, so its
/// rounding error stays below `len · 2⁻⁵²` — under 1e-9 for any profile
/// shorter than ten million entries. The margin is far wider than that.
const JS_ROUNDING_MARGIN: f64 = 1e-6;

/// Precomputed pairwise node relative entropy.
///
/// Built once before training (Algorithm 1, lines 1–5); a query costs
/// the stored features of the two nodes plus `O(M)` for `H_s`.
pub struct RelativeEntropyTable {
    features: Arc<CsrMatrix>,
    structural: StructuralEntropyTable,
    lambda: f64,
    f_offset: f64,
    f_scale: f64,
}

impl RelativeEntropyTable {
    /// Computes both entropy components for `g`.
    pub fn new(g: &Graph, cfg: &RelativeEntropyConfig) -> Self {
        // Scoped guards give each build phase its own node in the span
        // tree; the stopwatch laps only feed the summary event below.
        let mut clock = graphrare_telemetry::Stopwatch::start();
        let features = Arc::clone(g.features());
        let structural = {
            let _span = graphrare_telemetry::span("entropy.structural_table");
            StructuralEntropyTable::new(g)
        };
        let structural_ns = clock.lap_ns();
        let (f_offset, f_scale) = {
            let _span = graphrare_telemetry::span("entropy.feature_range");
            feature_range(&features)
        };
        let range_ns = clock.lap_ns();
        graphrare_telemetry::emit_with(|| {
            graphrare_telemetry::Event::new("entropy_table")
                .u64("nodes", g.num_nodes() as u64)
                .u64("structural_ns", structural_ns)
                .u64("range_ns", range_ns)
        });
        Self { features, structural, lambda: cfg.lambda, f_offset, f_scale }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.structural.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.structural.is_empty()
    }

    /// The λ in use.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Feature entropy `H_f(v, u) ∈ [0, 1]` (Eq. 4 under the rescale in
    /// the module docs). Symmetric; larger means more similar features.
    pub fn feature_entropy(&self, v: usize, u: usize) -> f64 {
        let mut row = DenseRow::default();
        self.load_features(v, &mut row);
        self.feature_entropy_from(&row, u)
    }

    /// Loads node `v`'s feature row into `row`, for
    /// [`Self::feature_entropy_from`].
    pub(crate) fn load_features(&self, v: usize, row: &mut DenseRow) {
        self.features.load_row(v, row);
    }

    /// `H_f(v, u)`, with node `v`'s features loaded in `row`.
    pub(crate) fn feature_entropy_from(&self, row: &DenseRow, u: usize) -> f64 {
        let d: f64 = self.features.row_dot(u, row);
        ((d - self.f_offset) * self.f_scale).clamp(0.0, 1.0)
    }

    /// Structural entropy `H_s(v, u)` (Eq. 8).
    pub fn structural_entropy(&self, v: usize, u: usize) -> f64 {
        self.structural.entropy(v, u)
    }

    /// Node relative entropy `H(v, u)` (Eq. 9).
    pub fn entropy(&self, v: usize, u: usize) -> f64 {
        self.with_structure(self.feature_entropy(v, u), v, u)
    }

    /// `H(v, u)` from its feature part `hf = H_f(v, u)`.
    pub(crate) fn with_structure(&self, hf: f64, v: usize, u: usize) -> f64 {
        hf + self.lambda * self.structural_entropy(v, u)
    }

    /// An upper bound on `H(v, u)`, as computed, that needs only `hf =
    /// H_f(v, u)`: [`Self::with_structure`] with `H_s` replaced by its
    /// largest possible contribution, `1 + margin` for `λ ≥ 0` and
    /// `−margin` below. `JS_ROUNDING_MARGIN` allows for a divergence
    /// that rounds outside `[0, 1]`. The structure of the sum is the
    /// same, and float addition and multiplication are monotone, so the
    /// bound is never below the computed `H`, nor is its `f32` rounding
    /// below `H`'s. A NaN `λ` gives a NaN bound, an infinite one `+∞`.
    pub(crate) fn entropy_bound(&self, hf: f64) -> f64 {
        // The `H_s` that maximises `λ·H_s`.
        let hs = if self.lambda >= 0.0 { 1.0 + JS_ROUNDING_MARGIN } else { -JS_ROUNDING_MARGIN };
        hf + self.lambda * hs
    }

    /// The structural component table.
    pub fn structural_table(&self) -> &StructuralEntropyTable {
        &self.structural
    }

    /// Rebuilds the structural component on `g`'s topology, as a refresh
    /// boundary does when it re-anchors on a rewired graph. The feature
    /// component depends only on node features, which edge edits never
    /// touch, so it and its rescale range stay valid verbatim: the table
    /// afterwards equals [`Self::new`] on `g`.
    pub fn rebuild_structural(&mut self, g: &Graph) {
        self.structural = StructuralEntropyTable::new(g);
    }

    /// Dense `N x N` matrix of `H(v, u)` values (Fig. 8 visualisation;
    /// intended for small graphs).
    ///
    /// The upper triangle is computed row-parallel (each output row is
    /// owned by one thread), then mirrored serially; results are
    /// bit-identical for any thread count.
    pub fn dense_matrix(&self) -> Matrix {
        let n = self.len();
        let mut m = Matrix::zeros(n, n);
        graphrare_tensor::parallel::par_for_each_row(m.as_mut_slice(), n, |v, row| {
            let mut features = DenseRow::default();
            self.load_features(v, &mut features);
            for (u, slot) in row.iter_mut().enumerate().skip(v) {
                let hf = self.feature_entropy_from(&features, u);
                *slot = self.with_structure(hf, v, u) as f32;
            }
        });
        for v in 0..n {
            for u in (v + 1)..n {
                let h = m.get(v, u);
                m.set(u, v, h);
            }
        }
        m
    }
}

/// Min–max range of the feature dots over the graph's off-diagonal pairs:
/// exact for small graphs, estimated from 100k sampled pairs otherwise.
/// Returns `(offset, scale)` such that `(dot - offset) * scale ∈ [0, 1]`;
/// a degenerate range gives `(0, 0)`, so every pair's `H_f` is 0.
///
/// The exact branch is a parallel min/max fold over the row index; min
/// and max are exactly associative, so the result is bit-identical for
/// any thread count. The sampled branch keeps its single sequential RNG
/// stream (it is cheap and its determinism depends on draw order).
fn feature_range(features: &CsrMatrix) -> (f64, f64) {
    let n = features.rows();
    // The diagonal is excluded: self-dots of sparse bag-of-words features
    // are far larger than any cross-pair dot and would squash every real
    // candidate pair into a sliver of the unit interval.
    let (lo, hi) = if n <= 1200 {
        let (lo, hi, _) = graphrare_tensor::parallel::par_fold(
            n,
            || (f64::INFINITY, f64::NEG_INFINITY, DenseRow::default()),
            |(mut lo, mut hi, mut row), v| {
                features.load_row(v, &mut row);
                for u in (v + 1)..n {
                    let d: f64 = features.row_dot(u, &row);
                    lo = lo.min(d);
                    hi = hi.max(d);
                }
                (lo, hi, row)
            },
            |(lo_a, hi_a, row), (lo_b, hi_b, _)| (lo_a.min(lo_b), hi_a.max(hi_b), row),
        );
        (lo, hi)
    } else {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut rng = StdRng::seed_from_u64(0xfea7);
        let mut row = DenseRow::default();
        for _ in 0..100_000 {
            let v = rng.gen_range(0..n);
            let u = rng.gen_range(0..n);
            if v != u {
                features.load_row(v, &mut row);
                let d: f64 = features.row_dot(u, &row);
                lo = lo.min(d);
                hi = hi.max(d);
            }
        }
        (lo, hi)
    };
    if !lo.is_finite() || !hi.is_finite() || hi - lo < 1e-300 {
        (0.0, 0.0)
    } else {
        (lo, 1.0 / (hi - lo))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrare_tensor::Matrix;

    fn two_block_graph() -> Graph {
        // Nodes 0-2 share features & labels; 3-5 share different ones.
        let mut feats = Matrix::zeros(6, 4);
        for v in 0..3 {
            feats.set(v, 0, 1.0);
            feats.set(v, 1, 1.0);
        }
        for v in 3..6 {
            feats.set(v, 2, 1.0);
            feats.set(v, 3, 1.0);
        }
        Graph::from_edges(
            6,
            &[(0, 3), (1, 4), (2, 5), (0, 1), (3, 4)],
            feats,
            vec![0, 0, 0, 1, 1, 1],
            2,
        )
    }

    /// Nodes 0 and 1 nearly identical, node 2 different, node 3 zero;
    /// 0 and 1 (and 0 and 2) are structurally alike.
    fn near_duplicate_graph() -> Graph {
        let feats = Matrix::from_vec(
            4,
            3,
            vec![
                1.0, 1.0, 0.0, //
                1.0, 0.9, 0.1, //
                0.0, 0.0, 1.0, //
                0.0, 0.0, 0.0,
            ],
        );
        Graph::from_edges(4, &[(0, 2), (1, 3)], feats, vec![0, 0, 1, 1], 2)
    }

    /// A bag-of-words row whose self-dot dwarfs every other dot.
    fn huge_dot_graph() -> Graph {
        let feats = Matrix::from_vec(3, 2, vec![1e4, 1e4, 1.0, 0.0, 0.0, 1.0]);
        Graph::from_edges(3, &[(0, 1)], feats, vec![0, 1, 1], 2)
    }

    #[test]
    fn entropy_combines_components_linearly() {
        let g = two_block_graph();
        let cfg = RelativeEntropyConfig { lambda: 2.0 };
        let t = RelativeEntropyTable::new(&g, &cfg);
        let h = t.entropy(0, 1);
        let want = t.feature_entropy(0, 1) + 2.0 * t.structural_entropy(0, 1);
        assert!((h - want).abs() < 1e-12);
    }

    #[test]
    fn same_block_pairs_rank_higher() {
        // (graph, similar pair, dissimilar pair)
        let cases = [(two_block_graph(), (0, 1), (0, 4)), (near_duplicate_graph(), (0, 1), (0, 2))];
        for (g, similar, dissimilar) in cases {
            let t = RelativeEntropyTable::new(&g, &RelativeEntropyConfig::default());
            let (hs, hd) = (t.entropy(similar.0, similar.1), t.entropy(dissimilar.0, dissimilar.1));
            assert!(hs > hd, "similar {similar:?} {hs} vs dissimilar {dissimilar:?} {hd}");
        }
    }

    #[test]
    fn rescaled_feature_entropy_in_unit_interval() {
        for g in [two_block_graph(), near_duplicate_graph(), huge_dot_graph()] {
            let t = RelativeEntropyTable::new(&g, &RelativeEntropyConfig::default());
            let n = g.num_nodes();
            for v in 0..n {
                for u in 0..n {
                    let f = t.feature_entropy(v, u);
                    assert!((0.0..=1.0).contains(&f), "H_f({v},{u}) = {f}");
                    assert_eq!(f.to_bits(), t.feature_entropy(u, v).to_bits(), "({v},{u})");
                }
            }
        }
    }

    #[test]
    fn degenerate_feature_ranges_give_zero_feature_entropy() {
        let cases = [
            ("all rows equal", Matrix::from_fn(5, 3, |_, c| c as f32 + 0.5)),
            ("one-hot rows", Matrix::from_fn(4, 4, |r, c| if r == c { 1.0 } else { 0.0 })),
            ("single node", Matrix::from_vec(1, 3, vec![2.0, 0.0, 1.0])),
        ];
        for (name, feats) in cases {
            let n = feats.rows();
            let g = Graph::from_edges(n, &[], feats, vec![0; n], 1);
            let t = RelativeEntropyTable::new(&g, &RelativeEntropyConfig::default());
            for v in 0..n {
                for u in 0..n {
                    let f = t.feature_entropy(v, u);
                    assert_eq!(f.to_bits(), 0, "{name}: H_f({v},{u}) = {f}");
                }
            }
        }
    }

    #[test]
    fn lambda_zero_is_feature_only() {
        let g = two_block_graph();
        let cfg = RelativeEntropyConfig { lambda: 0.0 };
        let t = RelativeEntropyTable::new(&g, &cfg);
        for v in 0..6 {
            for u in 0..6 {
                assert_eq!(t.entropy(v, u), t.feature_entropy(v, u));
            }
        }
    }

    #[test]
    fn dense_matrix_is_symmetric() {
        let g = two_block_graph();
        let t = RelativeEntropyTable::new(&g, &RelativeEntropyConfig::default());
        let m = t.dense_matrix();
        assert_eq!(m.shape(), (6, 6));
        for v in 0..6 {
            for u in 0..6 {
                assert_eq!(m.get(v, u), m.get(u, v));
            }
        }
    }
}
