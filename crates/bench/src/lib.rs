//! # graphrare-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! GraphRARE paper's evaluation (Sec. V). Each artefact has a dedicated
//! binary:
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `repro_table2` | Table II — dataset statistics |
//! | `repro_table3` | Table III — node classification, 17 methods × 7 datasets |
//! | `repro_table4` | Table IV — λ sweep {0.1, 0.5, 1.0, 10.0} |
//! | `repro_table5` | Table V — ablations (RE/RA/add/remove/reward) |
//! | `repro_table6` | Table VI — per-epoch runtime + entropy cost |
//! | `repro_fig5` | Fig. 5 — fixed (k, d) grids vs the DRL module |
//! | `repro_fig6` | Fig. 6 — training curves (accuracy, homophily, reward) |
//! | `repro_fig7` | Fig. 7 — homophily: original vs optimised graphs |
//! | `repro_fig8` | Fig. 8 — pairwise relative-entropy heat matrices |
//! | `repro_ablation_rl` | extension — strategy arena: PPO, A2C, random k,d, `dhgr`, `reference`, `none` |
//! | `repro_sweep_homophily` | extension — GraphRARE advantage vs homophily ratio |
//!
//! The flags are `--full` (exact Table II sizes), `--splits N` (1 to
//! 10), `--seed N`, `--datasets a,b,...` and `--quiet`; each binary
//! accepts only the ones it reads ([`Reads`]). Defaults run the
//! mini-scaled datasets with 3 splits, and a malformed line or an unread
//! flag exits 2 with a usage line. Every run is configured by [`Budget::config`], every
//! accuracy table (Tables III–V, the arena) is run by [`accuracy_grid`],
//! and a plain backbone always trains through [`run_method`]'s
//! `graphrare::run_plain` call. Outputs are printed as aligned text
//! tables and written as CSV under `results/`.
//!
//! `bench_rewire` is the one component bench: it times incremental
//! rewiring against a full rebuild per strategy and regime, checks the
//! two bit-identical, and writes `BENCH_rewire.json`.

#![warn(missing_docs)]

pub mod envelope;
pub mod harness;
pub mod table;

pub use envelope::envelope_json;
pub use harness::{
    accuracy_grid, publish, rare_report, run_method, Budget, GridRow, HarnessOptions, Method,
    Reads, Scale,
};
pub use table::{mean, mean_std_pct, TextTable};
