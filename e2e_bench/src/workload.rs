//! Workload definitions and seeded input generation.
//!
//! A workload fixes the graph shape, backbone, rewiring strategy, step
//! count and thread count; the `--seed` argument picks the concrete
//! graphs and run seeds. Inputs are written as `.edges/.features/.labels`
//! bundles, so the program under test only ever reads files.

use std::path::{Path, PathBuf};

use graphrare::{RewirerKind, RlAlgo};
use graphrare_datasets::{generate_spec, Dataset, DatasetSpec};
use graphrare_gnn::Backbone;
use graphrare_graph::io;
use graphrare_serve::RunSpec;

/// Every workload, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["drl-loop", "wide-gat", "serve"];

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub shape: DatasetSpec,
    pub backbone: Backbone,
    /// Strategies cycled over the runs of one client (`serve` alternates).
    pub rewirers: &'static [RewirerKind],
    pub steps: u64,
    pub threads: u64,
    /// Expected wall time of one whole run on a 2-core machine; sizes the
    /// number of runs that fill `--seconds`.
    pub nominal_run_s: f64,
    /// Whether runs go through the in-process daemon.
    pub served: bool,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let chameleon = Dataset::Chameleon.spec();
        let w = match name {
            "drl-loop" => Workload {
                name: "drl-loop",
                shape: chameleon.scaled(600, 128),
                backbone: Backbone::Gcn,
                rewirers: &[RewirerKind::Ppo],
                steps: 160,
                threads: 1,
                nominal_run_s: 3.0,
                served: false,
            },
            "wide-gat" => Workload {
                name: "wide-gat",
                shape: Dataset::Wisconsin.spec(),
                backbone: Backbone::Gat,
                rewirers: &[RewirerKind::Ppo],
                steps: 160,
                threads: 1,
                nominal_run_s: 7.5,
                served: false,
            },
            "serve" => Workload {
                name: "serve",
                shape: chameleon.scaled(300, 128),
                backbone: Backbone::Gcn,
                rewirers: &[RewirerKind::Ppo, RewirerKind::Dhgr],
                steps: 40,
                threads: 1,
                nominal_run_s: 0.9,
                served: true,
            },
            _ => return None,
        };
        Some(w)
    }

    /// Runs per invocation: as many whole runs as fit in `seconds`, at
    /// least two. A pure function of its arguments, so two invocations
    /// with one seed do the same work.
    pub fn runs_for(&self, seconds: u64) -> usize {
        ((seconds as f64 / self.nominal_run_s).floor() as usize).max(2)
    }

    /// The spec of run `index` over the bundle at `input`: the CLI's
    /// defaults plus this workload's fields.
    pub fn spec(&self, input: &Path, seed: u64, index: usize) -> RunSpec {
        RunSpec {
            input: input.to_string_lossy().into_owned(),
            backbone: self.backbone,
            steps: self.steps,
            seed: mix(seed, 2 * index as u64 + 1),
            split_seed: 0,
            k_cap: 10,
            lambda: 1.0,
            algo: RlAlgo::Ppo,
            threads: self.threads,
            paced: false,
            rewirer: self.rewirers[index % self.rewirers.len()],
        }
    }
}

/// SplitMix64 over `seed ^ salt`: independent sub-seeds per run.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z =
        (seed ^ salt.wrapping_mul(0xd6e8_feb8_6659_fd93)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Writes `count` graph bundles `dir/g<i>` generated from `seed` and
/// returns their prefixes. The bytes are a pure function of
/// `(shape, seed, i)`.
pub fn write_inputs(
    dir: &Path,
    shape: &DatasetSpec,
    seed: u64,
    count: usize,
) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    (0..count)
        .map(|i| {
            let prefix = dir.join(format!("g{i}"));
            let graph = generate_spec(shape, mix(seed, 2 * i as u64));
            io::write_graph(&graph, &prefix)
                .map_err(|e| format!("cannot write {}: {e}", prefix.display()))?;
            Ok(prefix)
        })
        .collect()
}
