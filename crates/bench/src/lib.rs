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
//!
//! All binaries accept `--full` (exact Table II sizes), `--splits N`,
//! `--seed N` and `--datasets a,b,...`; defaults run the mini-scaled
//! datasets with 3 splits. Outputs are printed as aligned text tables and
//! written as CSV under `results/`.

#![warn(missing_docs)]

pub mod envelope;
pub mod harness;
pub mod table;

pub use envelope::envelope_json;
pub use harness::{rare_report, run_method, Budget, CellResult, HarnessOptions, Method, Scale};
pub use table::{mean, mean_std_pct, TextTable};
