//! # graphrare-datasets
//!
//! Synthetic stand-ins for the seven benchmark graphs of the GraphRARE
//! paper (Table II): Chameleon, Squirrel, Cornell, Texas, Wisconsin, Cora
//! and Pubmed.
//!
//! The raw benchmark files are not redistributable, so each dataset is
//! regenerated from the statistics the paper reports — node/edge counts,
//! feature dimensionality, class count and edge homophily — via a
//! label-aware degree-corrected stochastic block model with
//! class-conditional sparse binary features (see [`generator`]). Splits
//! follow the paper's ten stratified 60/20/20 protocol ([`splits`]).
//!
//! ```
//! use graphrare_datasets::{generator, spec::Dataset, splits};
//! use graphrare_graph::metrics::homophily_ratio;
//!
//! let g = generator::generate_mini(Dataset::Texas, 42);
//! assert_eq!(g.num_classes(), 5);
//! // Texas is strongly heterophilic (H = 0.11 in Table II).
//! assert!(homophily_ratio(&g) < 0.2);
//! let ten = splits::ten_splits(g.labels(), g.num_classes(), 42);
//! assert_eq!(ten.len(), 10);
//! ```

#![warn(missing_docs)]

pub mod generator;
pub mod spec;
pub mod splits;

pub use generator::{generate, generate_mini, generate_spec};
pub use spec::{Dataset, DatasetSpec};
pub use splits::{stratified_split, ten_splits, Split};
