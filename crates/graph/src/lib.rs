//! # graphrare-graph
//!
//! Graph data structures and topology utilities for the GraphRARE
//! workspace: the attributed [`Graph`] type (`G = (V, E, X, A)` of the
//! paper's Table I), propagation operators for GNN layers ([`ops`]),
//! homophily and class statistics ([`metrics`], including Eq. 1's edge
//! homophily ratio), and BFS candidate enumeration ([`traversal`]).
//!
//! Topology edits are the primitive that GraphRARE's
//! reinforcement-learning module drives. Adjacency is CSR-backed
//! ([`adjacency::CsrAdjacency`]): a whole batch of edits is applied in one
//! sorted-merge splice ([`Graph::apply_edits`]), which is what the
//! incremental rewiring engine and `materialize` ride; single-edge
//! `add_edge` / `remove_edge` remain for construction and tests.
//!
//! ```
//! use graphrare_graph::{Graph, metrics};
//! use graphrare_tensor::Matrix;
//!
//! let mut g = Graph::from_edges(
//!     3,
//!     &[(0, 1), (1, 2)],
//!     Matrix::zeros(3, 4),
//!     vec![0, 1, 0],
//!     2,
//! );
//! assert_eq!(metrics::homophily_ratio(&g), 0.0); // fully heterophilic
//! g.add_edge(0, 2); // connect the two same-label nodes
//! assert!((metrics::homophily_ratio(&g) - 1.0 / 3.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod adjacency;
pub mod graph;
pub mod io;
pub mod metrics;
pub mod ops;
pub mod traversal;

pub use adjacency::{edge_key, unkey, CsrAdjacency, EdgeEdit};
pub use graph::Graph;
