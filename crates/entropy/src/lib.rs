//! # graphrare-entropy
//!
//! The node relative entropy of the GraphRARE paper (Sec. IV-A):
//!
//! * [`structural`] — node structural entropy `H_s` (Eqs. 5–8):
//!   `1 − JS(p(v) ‖ p(u))` over normalised local degree profiles.
//! * [`relative`] — the combined metric `H = H_f + λ·H_s` (Eq. 9),
//!   precomputed once before training. The feature entropy `H_f` (Eqs.
//!   3–4) is the min–max rescale of the pairwise feature dots, which
//!   orders pairs exactly as Eq. 4's `−P log P` does.
//! * [`sequences`] — per-node ranked addition/deletion candidate lists
//!   (Sec. IV-A.4), the interface consumed by the topology optimiser.
//!
//! Re-ranking against a rewired graph (the driver's refresh mode) is
//! the same build on the new topology: flips never touch features, so
//! [`RelativeEntropyTable::rebuild_structural`] keeps the feature rows
//! and their rescale range and recomputes only `H_s`, and
//! [`EntropySequences::build`] ranks on the new graph.
//!
//! ```
//! use graphrare_entropy::prelude::*;
//! use graphrare_graph::Graph;
//! use graphrare_tensor::Matrix;
//!
//! let mut feats = Matrix::zeros(4, 2);
//! feats.set(0, 0, 1.0);
//! feats.set(1, 0, 1.0); // nodes 0 and 1 share features
//! feats.set(2, 1, 1.0);
//! feats.set(3, 1, 1.0);
//! let g = Graph::from_edges(4, &[(0, 2), (2, 1), (1, 3)], feats, vec![0, 0, 1, 1], 2);
//!
//! let table = RelativeEntropyTable::new(&g, &RelativeEntropyConfig::default());
//! let seqs = EntropySequences::build(&g, &table, &SequenceConfig::default());
//! // Node 0's remote candidates are ranked by descending entropy.
//! assert!(!seqs.additions(0).is_empty());
//! ```

#![warn(missing_docs)]

pub mod relative;
pub mod sequences;
pub mod structural;

/// Convenient re-exports of the main types.
pub mod prelude {
    pub use crate::relative::{RelativeEntropyConfig, RelativeEntropyTable};
    pub use crate::sequences::{CandidatePool, EntropySequences, SequenceConfig};
    pub use crate::structural::{structural_entropy, StructuralEntropyTable};
}

pub use prelude::*;
