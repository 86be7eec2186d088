//! Shared experiment orchestration for the `repro_*` binaries.

use std::time::Instant;

use graphrare::{run, GraphRareConfig, RareReport};
use graphrare_baselines::{run_baseline, BaselineConfig, BaselineKind};
use graphrare_datasets::{generate_spec, ten_splits, Dataset, Split};
use graphrare_gnn::{build_model, fit, Backbone, GraphTensors, ModelConfig, TrainConfig};
use graphrare_graph::Graph;

/// Experiment scale: `Mini` uses the scaled-down dataset specs (default),
/// `Full` the exact Table II sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down datasets for CPU-friendly runs.
    Mini,
    /// Exact Table II sizes (slow on CPU; provided for completeness).
    Full,
}

/// Command-line options shared by all repro binaries.
#[derive(Clone, Debug)]
pub struct HarnessOptions {
    /// Dataset scale.
    pub scale: Scale,
    /// Number of data splits evaluated per cell (the paper uses 10).
    pub splits: usize,
    /// Base seed.
    pub seed: u64,
    /// Restrict to these datasets (empty = all seven).
    pub datasets: Vec<Dataset>,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        Self { scale: Scale::Mini, splits: 3, seed: 42, datasets: Dataset::ALL.to_vec() }
    }
}

impl HarnessOptions {
    /// Parses options from the process arguments:
    /// `--full`, `--splits N`, `--seed N`, `--datasets name,name`,
    /// `--quiet`.
    ///
    /// Also initialises the telemetry registry from
    /// `GRAPHRARE_TELEMETRY`, so every repro binary honours the same
    /// observability switches as the `graphrare` CLI. Progress lines go
    /// to stderr (suppressed by `--quiet`); stdout carries only the
    /// machine-parseable tables.
    pub fn from_args() -> Self {
        graphrare_telemetry::init_from_env();
        let mut opts = Self::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--full" => opts.scale = Scale::Full,
                "--quiet" => graphrare_telemetry::set_quiet(true),
                "--splits" => {
                    i += 1;
                    opts.splits = args[i].parse().expect("--splits needs a number");
                }
                "--seed" => {
                    i += 1;
                    opts.seed = args[i].parse().expect("--seed needs a number");
                }
                "--datasets" => {
                    i += 1;
                    opts.datasets = args[i]
                        .split(',')
                        .map(|name| {
                            Dataset::ALL
                                .into_iter()
                                .find(|d| d.name().eq_ignore_ascii_case(name))
                                .unwrap_or_else(|| panic!("unknown dataset {name}"))
                        })
                        .collect();
                }
                other => panic!("unknown argument {other}"),
            }
            i += 1;
        }
        opts
    }

    /// Generates a dataset graph at the configured scale.
    pub fn graph(&self, d: Dataset) -> Graph {
        match self.scale {
            Scale::Mini => generate_spec(&d.spec_mini(), self.seed),
            Scale::Full => generate_spec(&d.spec(), self.seed),
        }
    }

    /// The first `self.splits` of the paper's ten-splits protocol.
    pub fn splits_for(&self, g: &Graph) -> Vec<Split> {
        let mut all = ten_splits(g.labels(), g.num_classes(), self.seed);
        all.truncate(self.splits.clamp(1, 10));
        all
    }
}

/// Everything Table III compares: MLP, the four backbones, the nine SOTA
/// baselines and the four GraphRARE-enhanced models.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// A plain backbone (or MLP).
    Plain(Backbone),
    /// A published heterophily baseline.
    Sota(BaselineKind),
    /// GraphRARE wrapping a backbone.
    Rare(Backbone),
}

impl Method {
    /// All seventeen Table III rows, in paper order.
    pub fn table3_rows() -> Vec<Method> {
        let mut rows = vec![
            Method::Plain(Backbone::Mlp),
            Method::Plain(Backbone::Gcn),
            Method::Plain(Backbone::Sage),
            Method::Plain(Backbone::Gat),
        ];
        rows.push(Method::Sota(BaselineKind::MixHop));
        rows.push(Method::Plain(Backbone::H2gcn));
        rows.extend(
            [
                BaselineKind::GeomGcn,
                BaselineKind::Ugcn,
                BaselineKind::SimpGcn,
                BaselineKind::OtgNet,
                BaselineKind::GbkGnn,
                BaselineKind::PolarGnn,
                BaselineKind::HogGcn,
            ]
            .map(Method::Sota),
        );
        rows.extend(
            [Backbone::Gcn, Backbone::Sage, Backbone::Gat, Backbone::H2gcn].map(Method::Rare),
        );
        rows
    }

    /// Display name matching the paper's tables.
    pub fn name(&self) -> String {
        match self {
            Method::Plain(b) => b.name().to_string(),
            Method::Sota(k) => k.name().to_string(),
            Method::Rare(b) => format!("{}-RARE", b.name()),
        }
    }

    /// Whether this is one of "our" GraphRARE rows.
    pub fn is_rare(&self) -> bool {
        matches!(self, Method::Rare(_))
    }
}

/// Per-run budget knobs for the harness.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Max epochs for plain/baseline fits.
    pub epochs: usize,
    /// Early-stopping patience.
    pub patience: usize,
    /// DRL steps for RARE runs.
    pub rare_steps: usize,
}

impl Default for Budget {
    fn default() -> Self {
        Self { epochs: 120, patience: 25, rare_steps: 160 }
    }
}

/// Result of one (method, dataset, split) cell.
#[derive(Clone, Copy, Debug)]
pub struct CellResult {
    /// Test accuracy at the best-validation checkpoint.
    pub test_acc: f64,
    /// Wall-clock seconds spent.
    pub seconds: f64,
}

/// Runs one method on one split.
pub fn run_method(
    method: Method,
    graph: &Graph,
    split: &Split,
    seed: u64,
    budget: &Budget,
) -> CellResult {
    let start = Instant::now();
    let train = TrainConfig {
        epochs: budget.epochs,
        patience: budget.patience,
        seed: seed.wrapping_add(101),
        ..Default::default()
    };
    let test_acc = match method {
        Method::Plain(backbone) => {
            let model_cfg = ModelConfig { seed, ..Default::default() };
            let model = build_model(backbone, graph.feat_dim(), graph.num_classes(), &model_cfg);
            let labels = graph.labels().to_vec();
            fit(model.as_ref(), &GraphTensors::new(graph), &labels, split, &train).test_acc
        }
        Method::Sota(kind) => {
            let cfg = BaselineConfig { train, seed, ..Default::default() };
            run_baseline(kind, graph, split, &cfg).test_acc
        }
        Method::Rare(backbone) => rare_report(backbone, graph, split, seed, budget).test_acc,
    };
    CellResult { test_acc, seconds: start.elapsed().as_secs_f64() }
}

/// Runs GraphRARE wrapping `backbone` and returns the full report (used
/// by the figure binaries that need traces and graphs, not just accuracy).
pub fn rare_report(
    backbone: Backbone,
    graph: &Graph,
    split: &Split,
    seed: u64,
    budget: &Budget,
) -> RareReport {
    let mut cfg = GraphRareConfig::default().with_seed(seed);
    cfg.steps = budget.rare_steps;
    cfg.train.epochs = budget.epochs;
    cfg.train.patience = budget.patience;
    run(graph, split, backbone, &cfg).expect("GraphRARE run failed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_rows_match_paper_count() {
        let rows = Method::table3_rows();
        assert_eq!(rows.len(), 17, "4 traditional + MLP + 9 SOTA - overlap + 4 RARE");
        assert_eq!(rows.iter().filter(|m| m.is_rare()).count(), 4);
        let names: std::collections::HashSet<String> = rows.iter().map(Method::name).collect();
        assert_eq!(names.len(), rows.len(), "duplicate method row");
    }

    #[test]
    fn method_names_follow_paper() {
        assert_eq!(Method::Rare(Backbone::Gcn).name(), "GCN-RARE");
        assert_eq!(Method::Plain(Backbone::Mlp).name(), "MLP");
        assert_eq!(Method::Sota(BaselineKind::HogGcn).name(), "HOG-GCN");
    }

    #[test]
    fn options_generate_consistent_datasets() {
        let opts = HarnessOptions::default();
        let g = opts.graph(Dataset::Cornell);
        assert_eq!(g.num_nodes(), 183);
        let splits = opts.splits_for(&g);
        assert_eq!(splits.len(), 3);
    }

    #[test]
    fn run_method_smoke_plain() {
        let opts = HarnessOptions { splits: 1, ..Default::default() };
        let g = opts.graph(Dataset::Cornell);
        let splits = opts.splits_for(&g);
        let budget = Budget { epochs: 10, patience: 10, rare_steps: 4 };
        let cell = run_method(Method::Plain(Backbone::Mlp), &g, &splits[0], 0, &budget);
        assert!((0.0..=1.0).contains(&cell.test_acc));
        assert!(cell.seconds >= 0.0);
    }
}
