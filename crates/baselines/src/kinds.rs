//! The nine SOTA baselines of Table III, assembled from transforms and
//! the generic operator GNN.
//!
//! Each implementation keeps the defining mechanism of its paper and
//! drops ancillary engineering (custom schedulers, auxiliary losses),
//! uniformly across methods — see DESIGN.md for the substitution table.

use std::rc::Rc;

use graphrare_datasets::Split;
use graphrare_gnn::{fit, FitReport, Gcn, GraphTensors, TrainConfig};
use graphrare_graph::{ops, Graph};

use crate::operator_gnn::{Combine, Operator, OperatorGnn};
use crate::transforms;

/// Identifier of one heterophily-baseline method.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BaselineKind {
    /// MixHop (Abu-El-Haija et al. 2019): concatenated powers of `Â`.
    MixHop,
    /// UGCN (Jin et al. 2021): kNN feature-similarity rewiring + GCN.
    Ugcn,
    /// SimP-GCN (Jin et al. 2021): blended structure/feature propagation.
    SimpGcn,
    /// Geom-GCN (Pei et al. 2020): latent-geometry bucketed aggregation.
    GeomGcn,
    /// GBK-GNN (Du et al. 2022): similarity-gated bi-kernel aggregation.
    GbkGnn,
    /// Polar-GNN (Fang et al. 2022): signed (polarised) aggregation.
    PolarGnn,
    /// HOG-GCN (Wang et al. 2022): label-propagated homophily weighting.
    HogGcn,
    /// MI-GCN (Tian & Wu 2022): fixed top-k/top-d similarity rewiring.
    MiGcn,
    /// OTGNet (Feng et al. 2023), static-graph variant: class-aware
    /// bottlenecked propagation.
    OtgNet,
}

impl BaselineKind {
    /// All nine baselines in the paper's Table III order.
    pub const ALL: [BaselineKind; 9] = [
        BaselineKind::MixHop,
        BaselineKind::Ugcn,
        BaselineKind::SimpGcn,
        BaselineKind::GeomGcn,
        BaselineKind::GbkGnn,
        BaselineKind::PolarGnn,
        BaselineKind::HogGcn,
        BaselineKind::MiGcn,
        BaselineKind::OtgNet,
    ];

    /// Display name as printed in the paper.
    pub fn name(self) -> &'static str {
        match self {
            BaselineKind::MixHop => "MixHop",
            BaselineKind::Ugcn => "UGCN",
            BaselineKind::SimpGcn => "SimP-GCN",
            BaselineKind::GeomGcn => "Geom-GCN",
            BaselineKind::GbkGnn => "GBK-GNN",
            BaselineKind::PolarGnn => "Polar-GNN",
            BaselineKind::HogGcn => "HOG-GCN",
            BaselineKind::MiGcn => "MI-GCN",
            BaselineKind::OtgNet => "OTGNet",
        }
    }
}

/// Hyper-parameters of a baseline run.
#[derive(Clone, Copy, Debug)]
pub struct BaselineConfig {
    /// Hidden width.
    pub hidden: usize,
    /// Dropout rate.
    pub dropout: f32,
    /// kNN degree for the feature-graph methods (UGCN, SimP-GCN).
    pub knn_k: usize,
    /// SimP-GCN's structure/feature blend γ.
    pub blend_gamma: f32,
    /// Polar-GNN's polarisation threshold.
    pub polar_threshold: f32,
    /// MI-GCN's fixed additions and deletions per node.
    pub mi_k: usize,
    /// MI-GCN's deletions per node.
    pub mi_d: usize,
    /// HOG-GCN's label-propagation steps.
    pub label_prop_steps: usize,
    /// GNN training hyper-parameters.
    pub train: TrainConfig,
    /// Weight-init / transform seed.
    pub seed: u64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self {
            hidden: 48,
            dropout: 0.5,
            knn_k: 5,
            blend_gamma: 0.7,
            polar_threshold: 0.3,
            mi_k: 2,
            mi_d: 1,
            label_prop_steps: 2,
            train: TrainConfig::default(),
            seed: 0,
        }
    }
}

/// Trains one baseline on one split and reports test accuracy at the best
/// validation checkpoint (the same protocol as every other method).
pub fn run_baseline(
    kind: BaselineKind,
    graph: &Graph,
    split: &Split,
    cfg: &BaselineConfig,
) -> FitReport {
    let labels = graph.labels().to_vec();
    let (in_dim, out_dim) = (graph.feat_dim(), graph.num_classes());
    match kind {
        BaselineKind::MixHop => {
            let ops = vec![
                Operator::Identity,
                Operator::Sparse(Rc::new(ops::gcn_norm(graph))),
                Operator::Sparse(Rc::new(ops::gcn_norm_power(graph, 2, 1e-4))),
            ];
            let model = OperatorGnn::new(
                "MixHop",
                ops,
                Combine::Concat,
                in_dim,
                cfg.hidden.max(3),
                out_dim,
                cfg.dropout,
                cfg.seed,
            );
            fit(&model, &GraphTensors::new(graph), &labels, split, &cfg.train)
        }
        BaselineKind::Ugcn => {
            let extra = transforms::cosine_knn_edges(graph.features(), cfg.knn_k);
            let rewired = transforms::union_graph(graph, &extra);
            let model = Gcn::new(in_dim, cfg.hidden, out_dim, cfg.dropout, cfg.seed);
            fit(&model, &GraphTensors::new(&rewired), &labels, split, &cfg.train)
        }
        BaselineKind::SimpGcn => {
            let blended = transforms::blended_operator(graph, cfg.knn_k, cfg.blend_gamma);
            let ops = vec![Operator::Sparse(Rc::new(blended)), Operator::Identity];
            let model = OperatorGnn::new(
                "SimP-GCN",
                ops,
                Combine::Sum,
                in_dim,
                cfg.hidden,
                out_dim,
                cfg.dropout,
                cfg.seed,
            );
            fit(&model, &GraphTensors::new(graph), &labels, split, &cfg.train)
        }
        BaselineKind::GeomGcn => {
            let (near, far) = transforms::geometric_bucket_operators(graph, cfg.seed);
            let ops = vec![
                Operator::Identity,
                Operator::Sparse(Rc::new(near)),
                Operator::Sparse(Rc::new(far)),
            ];
            let model = OperatorGnn::new(
                "Geom-GCN",
                ops,
                Combine::Concat,
                in_dim,
                cfg.hidden.max(3),
                out_dim,
                cfg.dropout,
                cfg.seed,
            );
            fit(&model, &GraphTensors::new(graph), &labels, split, &cfg.train)
        }
        BaselineKind::GbkGnn => {
            let (sim, dis) = transforms::gated_operators(graph);
            let ops = vec![
                Operator::Sparse(Rc::new(sim)),
                Operator::Sparse(Rc::new(dis)),
                Operator::Identity,
            ];
            let model = OperatorGnn::new(
                "GBK-GNN",
                ops,
                Combine::Sum,
                in_dim,
                cfg.hidden,
                out_dim,
                cfg.dropout,
                cfg.seed,
            );
            fit(&model, &GraphTensors::new(graph), &labels, split, &cfg.train)
        }
        BaselineKind::PolarGnn => {
            let signed = transforms::signed_operator(graph, cfg.polar_threshold);
            let ops = vec![Operator::Sparse(Rc::new(signed)), Operator::Identity];
            let model = OperatorGnn::new(
                "Polar-GNN",
                ops,
                Combine::Sum,
                in_dim,
                cfg.hidden,
                out_dim,
                cfg.dropout,
                cfg.seed,
            );
            fit(&model, &GraphTensors::new(graph), &labels, split, &cfg.train)
        }
        BaselineKind::HogGcn => {
            let weighted = transforms::label_prop_homophily_operator(
                graph,
                &split.train,
                cfg.label_prop_steps,
            );
            let ops = vec![Operator::Sparse(Rc::new(weighted)), Operator::Identity];
            let model = OperatorGnn::new(
                "HOG-GCN",
                ops,
                Combine::Sum,
                in_dim,
                cfg.hidden,
                out_dim,
                cfg.dropout,
                cfg.seed,
            );
            fit(&model, &GraphTensors::new(graph), &labels, split, &cfg.train)
        }
        BaselineKind::MiGcn => {
            let rewired = transforms::similarity_rewire(graph, cfg.mi_k, cfg.mi_d);
            let model = Gcn::new(in_dim, cfg.hidden, out_dim, cfg.dropout, cfg.seed);
            fit(&model, &GraphTensors::new(&rewired), &labels, split, &cfg.train)
        }
        BaselineKind::OtgNet => {
            // Static-graph variant: class-aware propagation squeezed through
            // a narrow information bottleneck (quarter hidden width).
            let ops = vec![Operator::Sparse(Rc::new(ops::row_norm_adj(graph))), Operator::Identity];
            let model = OperatorGnn::new(
                "OTGNet",
                ops,
                Combine::Sum,
                in_dim,
                (cfg.hidden / 4).max(2),
                out_dim,
                cfg.dropout,
                cfg.seed,
            );
            fit(&model, &GraphTensors::new(graph), &labels, split, &cfg.train)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrare_datasets::{generate_spec, stratified_split, DatasetSpec};

    fn fixture() -> (Graph, Split) {
        let spec = DatasetSpec {
            name: "baseline-test",
            num_nodes: 40,
            num_edges: 90,
            feat_dim: 12,
            num_classes: 2,
            homophily: 0.25,
            degree_exponent: 0.3,
            feature_signal: 0.8,
            feature_density: 0.06,
        };
        let g = generate_spec(&spec, 7);
        let split = stratified_split(g.labels(), g.num_classes(), 1);
        (g, split)
    }

    #[test]
    fn every_baseline_runs_and_reports() {
        let (g, split) = fixture();
        let cfg = BaselineConfig {
            train: TrainConfig { epochs: 15, patience: 15, ..Default::default() },
            ..Default::default()
        };
        for kind in BaselineKind::ALL {
            let report = run_baseline(kind, &g, &split, &cfg);
            assert!(
                (0.0..=1.0).contains(&report.test_acc),
                "{}: test acc {}",
                kind.name(),
                report.test_acc
            );
            assert!(report.epochs_run > 0, "{}: no epoch ran", kind.name());
        }
    }

    #[test]
    fn baselines_are_deterministic() {
        let (g, split) = fixture();
        let cfg = BaselineConfig {
            train: TrainConfig { epochs: 8, ..Default::default() },
            ..Default::default()
        };
        for kind in [BaselineKind::MixHop, BaselineKind::HogGcn, BaselineKind::Ugcn] {
            let a = run_baseline(kind, &g, &split, &cfg);
            let b = run_baseline(kind, &g, &split, &cfg);
            assert_eq!(a.test_acc, b.test_acc, "{} not deterministic", kind.name());
        }
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<_> =
            BaselineKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), BaselineKind::ALL.len());
    }
}
