//! Ablation variants of GraphRARE (Table V and Fig. 5).
//!
//! These strip out the DRL module: `k` and `d` are set to a fixed value
//! for every node (Fig. 5's grid) or drawn uniformly per node (the
//! "GCN-RE[·]" rows of Table V). The rest of the pipeline — entropy
//! sequences, topology materialisation, GNN training with early stopping
//! — is identical to the full framework.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use graphrare_datasets::Split;
use graphrare_entropy::{EntropySequences, RelativeEntropyTable};
use graphrare_gnn::{build_model, fit, Backbone, GraphTensors};
use graphrare_graph::{metrics, Graph};

use crate::config::GraphRareConfig;
use crate::rewire::RewiredGraph;
use crate::state::TopoState;
use crate::topology::TopologyOptimizer;

/// Result of a DRL-free ablation run.
#[derive(Clone, Debug)]
pub struct VariantReport {
    /// Test accuracy at the best-validation checkpoint.
    pub test_acc: f64,
    /// Best validation accuracy.
    pub best_val_acc: f64,
    /// Homophily of the rewired graph actually trained on.
    pub rewired_homophily: f64,
}

fn build_optimizer(graph: &Graph, cfg: &GraphRareConfig) -> TopologyOptimizer {
    let table = RelativeEntropyTable::new(graph, &cfg.entropy);
    let seqs = EntropySequences::build(graph, &table, &cfg.sequences);
    TopologyOptimizer::new(graph.clone(), cfg.sequence_mode.apply(seqs), cfg.edit_mode)
}

fn train_on_state(
    topo: &TopologyOptimizer,
    state: &TopoState,
    split: &Split,
    backbone: Backbone,
    cfg: &GraphRareConfig,
) -> VariantReport {
    // Ablations ride the same incremental engine as the full framework:
    // one `apply` from the base graph is `materialize` minus the
    // clone-and-replay (the bit-identity is pinned by
    // `ablation_path_matches_materialize` below and the equivalence
    // suite).
    let mut rw = RewiredGraph::new(topo);
    rw.apply(topo, state).expect("ablation state was built against this optimizer");
    let g = rw.graph();
    let labels = g.labels().to_vec();
    let model = build_model(backbone, g.feat_dim(), g.num_classes(), &cfg.model);
    let fit_report = fit(model.as_ref(), rw.tensors(), &labels, split, &cfg.train);
    VariantReport {
        test_acc: fit_report.test_acc,
        best_val_acc: fit_report.best_val_acc,
        rewired_homophily: rw.homophily_ratio(),
    }
}

/// Fixed `k`/`d` for every node (Fig. 5 heatmap cells): the topology is
/// rewired once with `k_v = k`, `d_v = d` (clamped per node) and the
/// backbone is trained on it.
pub fn run_fixed_kd(
    graph: &Graph,
    split: &Split,
    backbone: Backbone,
    k: usize,
    d: usize,
    cfg: &GraphRareConfig,
) -> VariantReport {
    let topo = build_optimizer(graph, cfg);
    let mut state =
        TopoState::new(topo.k_bounds(cfg.k_cap.max(k)), topo.d_bounds(cfg.k_cap.max(d)));
    for v in 0..graph.num_nodes() {
        state.set_k(v, k);
        state.set_d(v, d);
    }
    train_on_state(&topo, &state, split, backbone, cfg)
}

/// Random per-node `k`/`d` drawn uniformly from `0..=max_kd` (Table V's
/// "GCN-RE[0‥max]" rows).
pub fn run_random_kd(
    graph: &Graph,
    split: &Split,
    backbone: Backbone,
    max_kd: usize,
    seed: u64,
    cfg: &GraphRareConfig,
) -> VariantReport {
    let topo = build_optimizer(graph, cfg);
    let mut state =
        TopoState::new(topo.k_bounds(cfg.k_cap.max(max_kd)), topo.d_bounds(cfg.k_cap.max(max_kd)));
    let mut rng = StdRng::seed_from_u64(seed);
    for v in 0..graph.num_nodes() {
        state.set_k(v, rng.gen_range(0..=max_kd));
        state.set_d(v, rng.gen_range(0..=max_kd));
    }
    train_on_state(&topo, &state, split, backbone, cfg)
}

/// The plain backbone with no rewiring at all (the `k = d = 0` reference).
pub fn run_plain(
    graph: &Graph,
    split: &Split,
    backbone: Backbone,
    cfg: &GraphRareConfig,
) -> VariantReport {
    let gt = GraphTensors::new(graph);
    let labels = graph.labels().to_vec();
    let model = build_model(backbone, graph.feat_dim(), graph.num_classes(), &cfg.model);
    let fit_report = fit(model.as_ref(), &gt, &labels, split, &cfg.train);
    VariantReport {
        test_acc: fit_report.test_acc,
        best_val_acc: fit_report.best_val_acc,
        rewired_homophily: metrics::homophily_ratio(graph),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrare_datasets::{generate_spec, stratified_split, DatasetSpec};

    fn fixture() -> (Graph, Split) {
        let spec = DatasetSpec {
            name: "variant-test",
            num_nodes: 50,
            num_edges: 110,
            feat_dim: 16,
            num_classes: 2,
            homophily: 0.2,
            degree_exponent: 0.4,
            feature_signal: 0.8,
            feature_density: 0.05,
        };
        let g = generate_spec(&spec, 5);
        let split = stratified_split(g.labels(), g.num_classes(), 0);
        (g, split)
    }

    fn fast_cfg() -> GraphRareConfig {
        let mut cfg = GraphRareConfig::fast().with_seed(1);
        cfg.train.epochs = 40;
        cfg
    }

    #[test]
    fn fixed_kd_zero_equals_plain_topology() {
        let (g, split) = fixture();
        let cfg = fast_cfg();
        let fixed = run_fixed_kd(&g, &split, Backbone::Gcn, 0, 0, &cfg);
        assert!((fixed.rewired_homophily - metrics::homophily_ratio(&g)).abs() < 1e-12);
    }

    #[test]
    fn fixed_k_adds_edges_and_raises_homophily() {
        let (g, split) = fixture();
        let cfg = fast_cfg();
        let rewired = run_fixed_kd(&g, &split, Backbone::Gcn, 3, 0, &cfg);
        // Entropy-ranked additions prefer same-class pairs.
        assert!(
            rewired.rewired_homophily > metrics::homophily_ratio(&g),
            "homophily {} not above original {}",
            rewired.rewired_homophily,
            metrics::homophily_ratio(&g)
        );
    }

    #[test]
    fn ablation_path_matches_materialize() {
        // The incremental path the variants now train on must be
        // bit-identical to the old clone-and-replay `materialize` path:
        // same edges, same homophily bits, same gcn operator bits.
        let (g, _split) = fixture();
        let cfg = fast_cfg();
        let topo = build_optimizer(&g, &cfg);
        let mut state = TopoState::new(topo.k_bounds(5), topo.d_bounds(5));
        let mut rng = StdRng::seed_from_u64(3);
        for v in 0..g.num_nodes() {
            state.set_k(v, rng.gen_range(0..=3));
            state.set_d(v, rng.gen_range(0..=3));
        }
        let mut rw = RewiredGraph::new(&topo);
        rw.apply(&topo, &state).unwrap();
        let old = topo.materialize(&state);
        assert_eq!(rw.graph().edge_vec(), old.edge_vec());
        assert_eq!(rw.homophily_ratio().to_bits(), metrics::homophily_ratio(&old).to_bits());
        let fresh = GraphTensors::new(&old);
        assert_eq!(*rw.tensors().gcn_norm(), *fresh.gcn_norm());
    }

    #[test]
    fn random_kd_is_seed_deterministic() {
        let (g, split) = fixture();
        let cfg = fast_cfg();
        let a = run_random_kd(&g, &split, Backbone::Gcn, 5, 9, &cfg);
        let b = run_random_kd(&g, &split, Backbone::Gcn, 5, 9, &cfg);
        assert_eq!(a.test_acc, b.test_acc);
        assert_eq!(a.rewired_homophily, b.rewired_homophily);
    }

    #[test]
    fn plain_run_reports_original_homophily() {
        let (g, split) = fixture();
        let cfg = fast_cfg();
        let plain = run_plain(&g, &split, Backbone::Mlp, &cfg);
        assert_eq!(plain.rewired_homophily, metrics::homophily_ratio(&g));
        assert!((0.0..=1.0).contains(&plain.test_acc));
    }
}
