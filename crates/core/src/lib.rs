//! # graphrare
//!
//! The GraphRARE framework (Peng et al., ICDE 2024): reinforcement-learning
//! enhanced graph topology optimisation with node relative entropy.
//!
//! GraphRARE wraps any message-passing GNN and improves it on heterophilic
//! graphs by (1) ranking node pairs with a relative entropy combining
//! feature and structural similarity, and (2) letting a PPO agent pick
//! per-node counts of edges to add (`k_v`) and delete (`d_v`), trained
//! jointly with the GNN whose training-set accuracy/loss improvements are
//! the reward (Algorithm 1).
//!
//! * [`state`] — the multi-discrete MDP state `S = [k, d]`.
//! * [`topology`] — the topology optimisation module (Fig. 4).
//! * [`rewire`] — incremental rewiring: the persistent `G_t` the driver
//!   updates in `O(changed)` per step instead of rebuilding.
//! * [`rewirer`] — pluggable edit-proposal strategies: the paper's DRL
//!   policy plus deterministic heuristic baselines, all behind one
//!   [`Rewirer`] trait and one shared apply pipeline.
//! * [`reward`] — Eq. 11 and the AUC-reward ablation.
//! * [`config`] — all knobs of a run.
//! * [`driver`] — Algorithm 1 end-to-end ([`run`]) and stepwise
//!   ([`RareDriver`], for checkpoint/resume).
//! * [`persist`] — checkpoint and model-artifact files (`graphrare-store`
//!   containers); a killed run resumes bit-identically.
//! * [`variants`] — DRL-free ablations (fixed/random `k`, `d`).
//!
//! ```no_run
//! use graphrare::{run, GraphRareConfig};
//! use graphrare_datasets::{generate_mini, stratified_split, Dataset};
//! use graphrare_gnn::Backbone;
//!
//! let g = generate_mini(Dataset::Texas, 42);
//! let split = stratified_split(g.labels(), g.num_classes(), 0);
//! let report = run(&g, &split, Backbone::Gcn, &GraphRareConfig::fast())?;
//! println!("GCN-RARE test accuracy: {:.3}", report.test_acc);
//! println!(
//!     "homophily {:.2} -> {:.2}",
//!     report.original_homophily, report.optimized_homophily
//! );
//! # Ok::<(), graphrare::RewireError>(())
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod driver;
pub mod fxmap;
pub mod persist;
pub mod reward;
pub mod rewire;
pub mod rewirer;
pub mod state;
pub mod topology;
pub mod variants;

pub use config::{GraphRareConfig, PolicyKind, RlAlgo, SequenceMode};
pub use driver::{run, run_with_sequences, DriverSnapshot, RareDriver, RareReport, RunTraces};
pub use persist::{
    load_model, load_snapshot, resume_driver, save_checkpoint, save_model, ModelArtifact,
};
pub use reward::{PerfSnapshot, RewardKind};
pub use rewire::{RewireDelta, RewireError, RewiredGraph};
pub use rewirer::{build_rewirer, Rewirer, RewirerKind};
pub use state::TopoState;
pub use topology::{EditMode, TopologyOptimizer};
pub use variants::{run_fixed_kd, run_plain, run_random_kd, VariantReport};
