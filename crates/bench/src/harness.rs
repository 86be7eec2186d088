//! Shared experiment orchestration for the `repro_*` binaries: the
//! options they parse, the one budgeted run config, the one method
//! runner and the one accuracy grid that runs their tables.

use std::path::Path;

use graphrare::{run, run_plain, GraphRareConfig, RareReport};
use graphrare_baselines::{run_baseline, BaselineConfig, BaselineKind};
use graphrare_datasets::{generate_spec, ten_splits, Dataset, Split};
use graphrare_gnn::{Backbone, TrainConfig};
use graphrare_graph::Graph;

use crate::table::{mean, mean_std_pct, TextTable};

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
#[derive(Clone, Debug, PartialEq)]
pub struct HarnessOptions {
    /// Dataset scale.
    pub scale: Scale,
    /// Number of data splits evaluated per cell, 1 to 10 (the paper
    /// uses 10).
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

/// The flags a repro binary reads besides `--seed` and `--quiet`, which
/// every one reads. Passing a flag the binary does not read is a usage
/// error, not a silent no-op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reads {
    /// `--full`.
    pub full: bool,
    /// `--splits N`.
    pub splits: bool,
    /// The most names `--datasets` takes; 0 when the binary reads no
    /// `--datasets`.
    pub datasets: usize,
}

impl Reads {
    /// Every flag, `--datasets` with any number of names.
    pub const ALL: Reads = Reads { full: true, splits: true, datasets: usize::MAX };

    /// The usage line's flags.
    fn usage(self) -> String {
        let flags = [
            (self.full, "[--full] "),
            (self.splits, "[--splits 1..=10] "),
            (true, "[--seed N] "),
            (self.datasets == 1, "[--datasets name] "),
            (self.datasets > 1, "[--datasets name,name,...] "),
        ];
        flags.iter().filter(|(read, _)| *read).map(|(_, flag)| *flag).collect::<String>()
            + "[--quiet]"
    }
}

impl HarnessOptions {
    /// Parses `--full`, `--splits N` (1 to 10), `--seed N`,
    /// `--datasets name,name` (case-insensitive) and `--quiet` (accepted
    /// here, applied by [`HarnessOptions::from_args`]), each only if
    /// `reads` says the binary reads it. An error names the flag at
    /// fault.
    pub fn parse(args: &[String], reads: Reads) -> Result<Self, String> {
        let mut opts = Self::default();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--full" if reads.full => opts.scale = Scale::Full,
                "--quiet" => {}
                "--splits" if reads.splits => {
                    let v = value()?;
                    opts.splits = v
                        .parse()
                        .ok()
                        .filter(|n| (1..=10).contains(n))
                        .ok_or_else(|| format!("--splits takes 1 to 10, got `{v}`"))?;
                }
                "--seed" => {
                    let v = value()?;
                    opts.seed =
                        v.parse().map_err(|_| format!("--seed takes a number, got `{v}`"))?;
                }
                "--datasets" if reads.datasets > 0 => {
                    opts.datasets = value()?
                        .split(',')
                        .map(|name| {
                            Dataset::ALL
                                .into_iter()
                                .find(|d| d.name().eq_ignore_ascii_case(name))
                                .ok_or_else(|| format!("--datasets: unknown dataset `{name}`"))
                        })
                        .collect::<Result<_, _>>()?;
                    if opts.datasets.len() > reads.datasets {
                        return Err(format!(
                            "--datasets: this binary runs at most {} dataset(s), got {}",
                            reads.datasets,
                            opts.datasets.len()
                        ));
                    }
                }
                "--full" | "--splits" | "--datasets" => {
                    return Err(format!("{flag}: this binary does not read it"));
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(opts)
    }

    /// Parses the process arguments with [`HarnessOptions::parse`]; on
    /// an error prints it and the usage line of the flags in `reads`,
    /// and exits with status 2 before running anything.
    ///
    /// Also initialises the telemetry registry from
    /// `GRAPHRARE_TELEMETRY`, so every repro binary honours the same
    /// observability switches as the `graphrare` CLI. Progress lines go
    /// to stderr (suppressed by `--quiet`); stdout carries only the
    /// machine-parseable tables.
    pub fn from_args(reads: Reads) -> Self {
        graphrare_telemetry::init_from_env();
        let mut argv = std::env::args();
        let program = argv.next().unwrap_or_default();
        let args: Vec<String> = argv.collect();
        match Self::parse(&args, reads) {
            Ok(opts) => {
                // Every flag value parsed as a number or a dataset name,
                // so a `--quiet` argument is the flag itself.
                if args.iter().any(|a| a == "--quiet") {
                    graphrare_telemetry::set_quiet(true);
                }
                opts
            }
            Err(e) => {
                let name = Path::new(&program)
                    .file_name()
                    .map_or(program.clone(), |n| n.to_string_lossy().into_owned());
                eprintln!("{name}: {e}\nusage: {name} {}", reads.usage());
                std::process::exit(2);
            }
        }
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
        all.truncate(self.splits);
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

impl Budget {
    /// The run config of one cell: [`GraphRareConfig::with_seed`] plus
    /// this budget's DRL steps, epochs and patience. GraphRARE, its
    /// ablations and the plain backbones all run under it, so a backbone
    /// row shares its init and dropout seeds with the RARE run it is
    /// compared against.
    pub fn config(&self, seed: u64) -> GraphRareConfig {
        let mut cfg = GraphRareConfig::default().with_seed(seed);
        cfg.steps = self.rare_steps;
        cfg.train.epochs = self.epochs;
        cfg.train.patience = self.patience;
        cfg
    }
}

/// Runs one method on one split and returns its test accuracy.
pub fn run_method(method: Method, graph: &Graph, split: &Split, seed: u64, budget: &Budget) -> f64 {
    match method {
        Method::Plain(backbone) => run_plain(graph, split, backbone, &budget.config(seed)).test_acc,
        Method::Sota(kind) => {
            let train = TrainConfig {
                epochs: budget.epochs,
                patience: budget.patience,
                seed: seed.wrapping_add(101),
                ..Default::default()
            };
            let cfg = BaselineConfig { train, seed, ..Default::default() };
            run_baseline(kind, graph, split, &cfg).test_acc
        }
        Method::Rare(backbone) => rare_report(backbone, graph, split, seed, budget).test_acc,
    }
}

/// Runs GraphRARE wrapping `backbone` under `budget.config(seed)` and
/// returns the full report (used by the figure binaries that need
/// traces and graphs, not just accuracy).
pub fn rare_report(
    backbone: Backbone,
    graph: &Graph,
    split: &Split,
    seed: u64,
    budget: &Budget,
) -> RareReport {
    run(graph, split, backbone, &budget.config(seed)).expect("GraphRARE run failed")
}

/// The run that scores one split of a grid row, called as
/// `cell(graph, split, seed)`.
type Cell<'a> = Box<dyn Fn(&Graph, &Split, u64) -> f64 + 'a>;

/// One row of an [`accuracy_grid`]: its label cells and the run that
/// scores one split.
pub struct GridRow<'a> {
    labels: Vec<String>,
    cell: Cell<'a>,
}

impl<'a> GridRow<'a> {
    /// A row labelled `labels` whose cells `cell` scores.
    pub fn new(labels: Vec<String>, cell: impl Fn(&Graph, &Split, u64) -> f64 + 'a) -> Self {
        Self { labels, cell: Box::new(cell) }
    }

    /// A row running GraphRARE on `backbone` under `budget.config(seed)`
    /// as `tweak` edits it.
    pub fn rare(
        labels: Vec<String>,
        backbone: Backbone,
        budget: Budget,
        tweak: impl Fn(&mut GraphRareConfig) + 'a,
    ) -> Self {
        Self::new(labels, move |g, s, seed| {
            let mut cfg = budget.config(seed);
            tweak(&mut cfg);
            run(g, s, backbone, &cfg).expect("GraphRARE run failed").test_acc
        })
    }
}

/// Runs every row on every split of every dataset in `opts`, building
/// each dataset's graph and splits once; split `i` runs with seed
/// `opts.seed + i`.
///
/// Returns the table (`label_header`, one `mean±std` column per dataset,
/// and `Average`, the mean of the dataset means) and the per-split
/// accuracies as `accs[row][dataset][split]`.
pub fn accuracy_grid(
    opts: &HarnessOptions,
    label_header: &[&str],
    rows: Vec<GridRow>,
) -> (TextTable, Vec<Vec<Vec<f64>>>) {
    let data: Vec<(Dataset, Graph, Vec<Split>)> = opts
        .datasets
        .iter()
        .map(|&d| {
            let g = opts.graph(d);
            let splits = opts.splits_for(&g);
            (d, g, splits)
        })
        .collect();
    let header: Vec<&str> = label_header
        .iter()
        .copied()
        .chain(data.iter().map(|(d, _, _)| d.name()))
        .chain(std::iter::once("Average"))
        .collect();
    let mut table = TextTable::new(&header);
    let mut accs = Vec::with_capacity(rows.len());
    for row in rows {
        let per_dataset: Vec<Vec<f64>> = data
            .iter()
            .map(|(d, g, splits)| {
                let cells: Vec<f64> = (0u64..)
                    .zip(splits)
                    .map(|(i, split)| (row.cell)(g, split, opts.seed + i))
                    .collect();
                graphrare_telemetry::progress!(
                    "{:<24} {:<10} {}",
                    row.labels.join(" "),
                    d.name(),
                    mean_std_pct(&cells)
                );
                cells
            })
            .collect();
        let dataset_means: Vec<f64> = per_dataset.iter().map(|v| mean(v)).collect();
        let mut cells = row.labels;
        cells.extend(per_dataset.iter().map(|v| mean_std_pct(v)));
        cells.push(format!("{:.2}", 100.0 * mean(&dataset_means)));
        table.row(cells);
        accs.push(per_dataset);
    }
    (table, accs)
}

/// Prints `heading` and `table`, writes the table as CSV to `csv` and
/// says so.
pub fn publish(heading: &str, table: &TextTable, csv: &str) {
    println!("\n{heading}\n");
    println!("{}", table.render());
    table.write_csv(Path::new(csv)).expect("write csv");
    println!("CSV written to {csv}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_rows_match_paper_count() {
        let rows = Method::table3_rows();
        assert_eq!(rows.len(), 17, "4 traditional + MLP + 9 SOTA - overlap + 4 RARE");
        assert_eq!(rows.iter().filter(|m| matches!(m, Method::Rare(_))).count(), 4);
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
        let acc = run_method(Method::Plain(Backbone::Mlp), &g, &splits[0], 0, &budget);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn budget_config_is_the_hand_built_run_config() {
        let budget = Budget { epochs: 33, patience: 7, rare_steps: 19 };
        for seed in [0, 42, u64::MAX] {
            let cfg = budget.config(seed);
            let mut want = GraphRareConfig::default().with_seed(seed);
            want.steps = 19;
            want.train.epochs = 33;
            want.train.patience = 7;
            assert_eq!(cfg.steps, want.steps);
            assert_eq!(cfg.train.epochs, want.train.epochs);
            assert_eq!(cfg.train.patience, want.train.patience);
            assert_eq!(cfg.seed, want.seed);
            assert_eq!(cfg.model.seed, want.model.seed);
            assert_eq!(cfg.train.seed, want.train.seed);
            assert_eq!(cfg.ppo.seed, want.ppo.seed);
            assert_eq!(cfg.sequence_mode, want.sequence_mode);
            // And every other field.
            assert_eq!(format!("{cfg:?}"), format!("{want:?}"));
        }
    }

    #[test]
    fn accuracy_grid_tabulates_each_cell() {
        let opts = HarnessOptions {
            splits: 3,
            seed: 10,
            datasets: vec![Dataset::Cornell, Dataset::Texas],
            ..Default::default()
        };
        // accuracy = f(row, dataset, seed), with the dataset read off the
        // graph it was handed.
        let cornell = opts.graph(Dataset::Cornell).edge_vec();
        let acc = |row: f64, g: &Graph, seed: u64| {
            let dataset = if g.edge_vec() == cornell { 0.0 } else { 0.2 };
            0.1 * row + dataset + 0.01 * (seed - 10) as f64
        };
        let rows = vec![
            GridRow::new(vec!["A".into(), "x".into()], |g, _, seed| acc(0.0, g, seed)),
            GridRow::new(vec!["B".into(), "y".into()], |g, _, seed| acc(1.0, g, seed)),
        ];
        let (table, accs) = accuracy_grid(&opts, &["Row", "Tag"], rows);

        // Each split's seed is opts.seed + i: the accuracies step by 0.01.
        assert_eq!(accs.len(), 2);
        assert!(accs.iter().all(|per_dataset| per_dataset.len() == 2));
        assert!(accs.iter().flatten().all(|splits| splits.len() == 3));
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(accs[1][1][2], 0.1 + 0.2 + 0.02));
        assert!(close(accs[0][0][0], 0.0));

        let csv =
            std::env::temp_dir().join(format!("graphrare-grid-test-{}.csv", std::process::id()));
        table.write_csv(&csv).unwrap();
        let text = std::fs::read_to_string(&csv).unwrap();
        let _ = std::fs::remove_file(&csv);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "Row,Tag,Cornell,Texas,Average");
        // Row A: Cornell 0, 1, 2 %; Texas 20, 21, 22 %; population std
        // sqrt(2/3) %; Average (1 + 21) / 2 = 11 %.
        assert_eq!(lines[1], "A,x,1.00±0.82,21.00±0.82,11.00");
        assert_eq!(lines[2], "B,y,11.00±0.82,31.00±0.82,21.00");
        assert_eq!(lines.len(), 3);
    }
}
