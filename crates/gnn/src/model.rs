//! The [`GnnModel`] trait and the per-topology operator cache.

use std::cell::OnceCell;
use std::rc::Rc;
use std::sync::Arc;

use rand::rngs::StdRng;

use graphrare_graph::{ops, Graph};
use graphrare_tensor::{AdjList, CsrMatrix, Param, Tape, Var};

/// One graph topology with lazily built propagation operators, over the
/// graph's own node features.
///
/// GraphRARE re-trains the GNN on a *changing* topology (`G_t`, `G_{t+1}`,
/// …). A `GraphTensors` either snapshots one topology, or follows the
/// rewired graph through [`apply_flips`](GraphTensors::apply_flips), which
/// rebuilds every operator built so far in place after each flip batch.
/// Operators are built on first use: a GCN never pays for the two-hop
/// operator H2GCN needs.
///
/// Models read the features only through [`input`](GraphTensors::input),
/// which hands out the graph's shared CSR matrix ([`Graph::features`]):
/// bag-of-words features are mostly zeros, so a model's first projection
/// `X · W` is `tape.spmm(input, W)`, and building a `GraphTensors`
/// copies no feature values.
pub struct GraphTensors {
    graph: Graph,
    /// Incrementally maintained `d̂^{-1/2}` vector: only edit endpoints
    /// change degree, so [`apply_flips`](GraphTensors::apply_flips)
    /// re-derives just those entries and `gcn_norm` (re)builds skip
    /// their from-scratch degree pass.
    inv_sqrt: Vec<f32>,
    gcn: OnceCell<Arc<CsrMatrix>>,
    row: OnceCell<Arc<CsrMatrix>>,
    two_hop: OnceCell<Arc<CsrMatrix>>,
    attn: OnceCell<Rc<AdjList>>,
    /// Reusable scratch for the in-place operator rebuilds, so warm
    /// topology updates allocate nothing.
    op_scratch: ops::OperatorScratch,
}

impl GraphTensors {
    /// Snapshots `g`'s topology; the features stay shared with `g`.
    pub fn new(g: &Graph) -> Self {
        Self {
            graph: g.clone(),
            inv_sqrt: ops::inv_sqrt_degrees(g),
            gcn: OnceCell::new(),
            row: OnceCell::new(),
            two_hop: OnceCell::new(),
            attn: OnceCell::new(),
            op_scratch: ops::OperatorScratch::default(),
        }
    }

    /// Re-derives the cached `d̂^{-1/2}` entries of the given endpoint
    /// pairs from the (already mutated) snapshot graph. Idempotent for
    /// unchanged degrees, so no-op edits in a batch are harmless.
    fn refresh_inv_sqrt(&mut self, pairs: impl Iterator<Item = (usize, usize)>) {
        let n = self.graph.num_nodes();
        for (u, v) in pairs {
            if u < n {
                self.inv_sqrt[u] = ops::inv_sqrt_degree(&self.graph, u);
            }
            if v < n {
                self.inv_sqrt[v] = ops::inv_sqrt_degree(&self.graph, v);
            }
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// The snapshotted graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The node features a forward pass starts from.
    ///
    /// Evaluation (`train == false`) and `p == 0` get the graph's own
    /// matrix, so eval forwards copy no features. Training with `p > 0`
    /// gets a fresh [`CsrMatrix::dropout`] copy, which draws from `rng`
    /// exactly what `Tape::dropout` draws on the dense features; its
    /// projection `tape.spmm(input, W)` is bit-identical to the dense
    /// `matmul` (see [`CsrMatrix::from_dense`]).
    pub fn input(&self, train: bool, p: f32, rng: &mut StdRng) -> Arc<CsrMatrix> {
        let features = self.graph.features();
        if train && p > 0.0 {
            Arc::new(features.dropout(p, rng))
        } else {
            Arc::clone(features)
        }
    }

    /// GCN-normalised operator `D̂^{-1/2}(A+I)D̂^{-1/2}`.
    pub fn gcn_norm(&self) -> Arc<CsrMatrix> {
        self.gcn
            .get_or_init(|| Arc::new(ops::gcn_norm_with_inv(&self.graph, &self.inv_sqrt)))
            .clone()
    }

    /// Row-normalised adjacency `D^{-1}A`.
    pub fn row_norm(&self) -> Arc<CsrMatrix> {
        self.row.get_or_init(|| Arc::new(ops::row_norm_adj(&self.graph))).clone()
    }

    /// Row-normalised strict two-hop operator (H2GCN's `N_2`).
    pub fn two_hop(&self) -> Arc<CsrMatrix> {
        self.two_hop.get_or_init(|| Arc::new(ops::row_norm_two_hop(&self.graph))).clone()
    }

    /// Attention neighbour lists (self + one-hop) for GAT.
    pub fn attention(&self) -> Rc<AdjList> {
        self.attn.get_or_init(|| Rc::new(ops::attention_lists(&self.graph))).clone()
    }

    /// Applies a batch of edge presence flips in place. `flips` must be
    /// distinct in-bounds non-loop edges in ascending edge-key order, each
    /// genuinely changing presence (see [`Graph::apply_flips_sorted`]);
    /// the incremental rewiring engine's reconciliation produces exactly
    /// this, so the hot path skips any dedup sort or per-edge membership
    /// check.
    ///
    /// This is the incremental-rewiring counterpart of building a fresh
    /// `GraphTensors` from the edited graph, with bit-identical operators:
    /// the snapshot graph applies the whole batch in one CSR splice, the
    /// `d̂^{-1/2}` entries of the flip endpoints are re-derived, and every
    /// *already built* operator is rebuilt by its `ops::*_into` builder.
    /// Each rebuild goes through `Arc::make_mut` (`Rc::make_mut` for the
    /// attention lists): at refcount 1 (the steady state — tapes drop
    /// their operator handles between steps) the cached storage is
    /// refilled in place with zero allocations, while an outstanding
    /// handle from before the call triggers a copy-on-write clone first
    /// and keeps observing the pre-edit operator. Operators
    /// not built yet stay lazy and build from the edited graph on first
    /// use. Features are untouched — rewiring never changes `X`.
    pub fn apply_flips(&mut self, flips: &[(usize, usize, bool)]) {
        if flips.is_empty() {
            return;
        }
        self.graph.apply_flips_sorted(flips);
        self.refresh_inv_sqrt(flips.iter().map(|&(u, v, _)| (u, v)));
        let mut rebuilds = 0u64;
        if let Some(rc) = self.gcn.get_mut() {
            rebuilds += 1;
            ops::gcn_norm_with_inv_into(
                &self.graph,
                &self.inv_sqrt,
                Arc::make_mut(rc),
                &mut self.op_scratch,
            );
        }
        if let Some(rc) = self.two_hop.get_mut() {
            rebuilds += 1;
            ops::row_norm_two_hop_into(&self.graph, Arc::make_mut(rc), &mut self.op_scratch);
        }
        if let Some(rc) = self.row.get_mut() {
            rebuilds += 1;
            ops::row_norm_adj_into(&self.graph, Arc::make_mut(rc), &mut self.op_scratch);
        }
        if let Some(rc) = self.attn.get_mut() {
            rebuilds += 1;
            ops::attention_lists_into(&self.graph, Rc::make_mut(rc));
        }
        graphrare_telemetry::counter("rewire.operator_rebuilds", rebuilds);
    }
}

/// A trainable node-classification GNN.
///
/// Models are topology-agnostic: `forward` receives the operator cache for
/// whatever snapshot the caller is currently training on, which is how the
/// same weights continue training across GraphRARE's rewiring steps.
pub trait GnnModel {
    /// Runs a forward pass and returns `n x num_classes` logits.
    ///
    /// `train` enables dropout (using `rng` for masks); evaluation passes
    /// run deterministically with `train = false`.
    fn forward(&self, tape: &mut Tape, gt: &GraphTensors, train: bool, rng: &mut StdRng) -> Var;

    /// All trainable parameters.
    fn params(&self) -> Vec<Param>;

    /// Short display name (matches the paper's tables).
    fn name(&self) -> &'static str;

    /// Total number of scalar weights.
    fn num_weights(&self) -> usize {
        self.params().iter().map(Param::len).sum()
    }
}

/// Backbone selector used by experiment harnesses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backbone {
    /// Feature-only multilayer perceptron.
    Mlp,
    /// Graph convolutional network (Kipf & Welling 2017).
    Gcn,
    /// GraphSAGE with mean aggregation (Hamilton et al. 2017).
    Sage,
    /// Graph attention network (Veličković et al. 2018).
    Gat,
    /// H2GCN (Zhu et al. 2020).
    H2gcn,
}

impl Backbone {
    /// The four backbones the paper wraps with GraphRARE, plus MLP.
    pub const ALL: [Backbone; 5] =
        [Backbone::Mlp, Backbone::Gcn, Backbone::Sage, Backbone::Gat, Backbone::H2gcn];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Backbone::Mlp => "MLP",
            Backbone::Gcn => "GCN",
            Backbone::Sage => "GraphSAGE",
            Backbone::Gat => "GAT",
            Backbone::H2gcn => "H2GCN",
        }
    }

    /// Parses a [`name`](Backbone::name) case-insensitively; `sage` is
    /// accepted as short for `graphsage`.
    pub fn parse(s: &str) -> Option<Self> {
        if s.eq_ignore_ascii_case("sage") {
            return Some(Backbone::Sage);
        }
        Backbone::ALL.into_iter().find(|b| b.name().eq_ignore_ascii_case(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrare_tensor::Matrix;

    fn toy() -> Graph {
        Graph::from_edges(
            4,
            &[(0, 1), (1, 2), (2, 3)],
            Matrix::from_fn(4, 3, |r, c| ((r + c) % 2) as f32),
            vec![0, 1, 0, 1],
            2,
        )
    }

    #[test]
    fn tensors_cache_is_shared() {
        let gt = GraphTensors::new(&toy());
        let a = gt.gcn_norm();
        let b = gt.gcn_norm();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn snapshot_isolated_from_source_mutation() {
        let mut g = toy();
        let gt = GraphTensors::new(&g);
        let before = gt.gcn_norm();
        g.add_edge(0, 3);
        // The snapshot's operator is unaffected by later edits.
        assert_eq!(*before, *GraphTensors::new(&toy()).gcn_norm());
    }

    #[test]
    fn eval_input_is_the_graphs_feature_matrix() {
        use rand::{Rng, SeedableRng};
        let g = toy();
        let gt = GraphTensors::new(&g);
        let mut rng = StdRng::seed_from_u64(5);
        let a = gt.input(false, 0.5, &mut rng);
        assert!(Arc::ptr_eq(&a, g.features()), "eval forwards copy features");
        assert!(Arc::ptr_eq(&a, &gt.input(true, 0.0, &mut rng)), "p = 0 copies features");
        assert_eq!(rng.gen::<u64>(), StdRng::seed_from_u64(5).gen::<u64>(), "eval drew from rng");
        assert_eq!(a.to_dense(), Matrix::from_fn(4, 3, |r, c| ((r + c) % 2) as f32));
    }

    #[test]
    fn training_input_matches_dense_tape_dropout() {
        use rand::{Rng, SeedableRng};
        // An empty row (3), an empty column (1) and negative entries.
        let feats = Matrix::from_fn(4, 5, |r, c| match (r, c) {
            (3, _) | (_, 1) => 0.0,
            _ if (r + c) % 2 == 0 => -(1.0 + r as f32) * 0.75,
            _ => 0.5 + c as f32,
        });
        let g = Graph::from_edges(4, &[(0, 1), (1, 2)], feats.clone(), vec![0, 1, 0, 1], 2);
        let gt = GraphTensors::new(&g);
        for p in [0.2, 0.5] {
            for seed in 0..6 {
                let (mut dense_rng, mut sparse_rng) =
                    (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let mut t = Tape::new();
                let x = t.constant(feats.clone());
                let x = t.dropout(x, p, &mut dense_rng);
                let input = gt.input(true, p, &mut sparse_rng);
                assert_eq!(input.to_dense(), *t.value(x), "p={p} seed={seed}");
                assert_eq!(dense_rng.gen::<u64>(), sparse_rng.gen::<u64>(), "p={p} seed={seed}");
            }
        }
    }

    #[test]
    fn backbone_names() {
        assert_eq!(Backbone::Gcn.name(), "GCN");
        assert_eq!(Backbone::ALL.len(), 5);
    }

    #[test]
    fn backbone_names_round_trip() {
        for b in Backbone::ALL {
            assert_eq!(Backbone::parse(b.name()), Some(b));
            assert_eq!(Backbone::parse(&b.name().to_lowercase()), Some(b));
        }
        assert_eq!(Backbone::parse("sage"), Some(Backbone::Sage));
        assert_eq!(Backbone::parse("gin"), None);
    }

    fn assert_matches_fresh(gt: &GraphTensors) {
        let fresh = GraphTensors::new(gt.graph());
        assert_eq!(*gt.gcn_norm(), *fresh.gcn_norm(), "gcn_norm");
        assert_eq!(*gt.row_norm(), *fresh.row_norm(), "row_norm");
        assert_eq!(*gt.two_hop(), *fresh.two_hop(), "two_hop");
        assert_eq!(*gt.attention(), *fresh.attention(), "attention");
    }

    #[test]
    fn apply_flips_patches_all_built_operators() {
        let mut gt = GraphTensors::new(&toy());
        // Build every cache so all four are rebuilt by each batch.
        gt.gcn_norm();
        gt.row_norm();
        gt.two_hop();
        gt.attention();
        gt.apply_flips(&[(0, 2, true), (2, 3, false)]);
        assert_eq!(gt.graph().num_edges(), 3);
        assert_matches_fresh(&gt);
        // Successive batches refill the already-rebuilt caches.
        gt.apply_flips(&[(0, 3, true), (1, 2, false)]);
        assert_eq!(gt.graph().num_edges(), 3);
        assert_matches_fresh(&gt);
        gt.apply_flips(&[(0, 2, false), (1, 3, true), (2, 3, true)]);
        assert_eq!(gt.graph().num_edges(), 4);
        assert_matches_fresh(&gt);
    }

    #[test]
    fn apply_flips_leaves_unbuilt_operators_lazy() {
        let mut gt = GraphTensors::new(&toy());
        gt.gcn_norm(); // only this one is built
        gt.apply_flips(&[(0, 3, true)]);
        assert!(gt.row.get().is_none() && gt.two_hop.get().is_none() && gt.attn.get().is_none());
        // Built cache was rebuilt; the rest build lazily from the edited graph.
        assert_matches_fresh(&gt);
    }

    #[test]
    fn inv_sqrt_cache_tracks_degrees_bit_exactly() {
        let mut gt = GraphTensors::new(&toy());
        gt.gcn_norm();
        // Two successive batches; the cached vector must always equal
        // the from-scratch pass.
        gt.apply_flips(&[(0, 3, true), (1, 2, false)]);
        let check = |gt: &GraphTensors| {
            let fresh = graphrare_graph::ops::inv_sqrt_degrees(gt.graph());
            assert_eq!(gt.inv_sqrt.len(), fresh.len());
            for (v, (a, b)) in gt.inv_sqrt.iter().zip(&fresh).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "inv_sqrt[{v}]");
            }
        };
        check(&gt);
        gt.apply_flips(&[(0, 2, true), (1, 2, true), (2, 3, false)]);
        check(&gt);
        assert_matches_fresh(&gt);
    }

    #[test]
    fn apply_flips_empty_batch_keeps_cache_pointers() {
        let mut gt = GraphTensors::new(&toy());
        let before = gt.gcn_norm();
        gt.apply_flips(&[]);
        assert!(Arc::ptr_eq(&before, &gt.gcn_norm()));
    }

    #[test]
    fn apply_flips_preserves_outstanding_snapshots() {
        // An Arc handed out before the batch must keep observing the
        // pre-edit operator (Arc::make_mut clones the shared cache).
        let mut gt = GraphTensors::new(&toy());
        let before = gt.gcn_norm();
        let before_bits = (*before).clone();
        gt.apply_flips(&[(0, 2, true)]);
        assert_eq!(*before, before_bits, "outstanding snapshot changed");
        assert!(!Arc::ptr_eq(&before, &gt.gcn_norm()));
        assert_matches_fresh(&gt);
    }

    #[test]
    fn apply_flips_isolating_and_reconnecting_node() {
        // Remove node 3's only edge (isolated row), then reconnect it.
        let mut gt = GraphTensors::new(&toy());
        gt.gcn_norm();
        gt.row_norm();
        gt.two_hop();
        gt.attention();
        gt.apply_flips(&[(2, 3, false)]);
        assert_eq!(gt.graph().degree(3), 0);
        assert_matches_fresh(&gt);
        gt.apply_flips(&[(1, 3, true)]);
        assert_matches_fresh(&gt);
    }
}
