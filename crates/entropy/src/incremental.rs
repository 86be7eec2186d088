//! Incremental relative-entropy maintenance under edge flips.
//!
//! `H = H_f + λ·H_s` (Eq. 9) splits cleanly under topology edits:
//! feature entropy `H_f` depends only on node features, which flips
//! never touch, while structural entropy `H_s` (Eqs. 5–8) depends only
//! on *one-hop degree profiles*. A batch of edge flips therefore dirties
//! a bounded set of `H_s` rows and rankings, and everything else is
//! reusable verbatim — the same sparse-invalidation argument that made
//! rewiring incremental (`RewiredGraph` / `GraphTensors` dirty rows).
//!
//! ## Dirty-set rules
//!
//! With `E` the flipped endpoints (on the normalized batch):
//!
//! * **Profile-dirty** (`H_s` row must be recomputed): `E ∪ N_new(E)`.
//!   A node's profile is its own degree plus its neighbours' degrees;
//!   only endpoint degrees and endpoint neighbour-sets change. A node
//!   that was adjacent to an endpoint *before* the batch but not after
//!   lost that edge, so it is itself an endpoint — old neighbours are
//!   covered without consulting the pre-flip adjacency.
//! * **Sequence-dirty** ([`CandidatePool::RemoteRing`]): the radius
//!   `max(hops + 1, 2)` balls around `E` on **both** the pre- and
//!   post-flip graphs. Ring membership of `v` can only change when a
//!   path of length ≤ `hops` to an endpoint exists on one of the two
//!   graphs; a profile-dirty candidate `u ∈ ring(v)` puts `v` within
//!   `hops + 1` of an endpoint; deletion rankings reach distance 2
//!   (neighbour of a profile-dirty node), hence the radius floor.
//! * **Sequence-dirty** ([`CandidatePool::GlobalSample`]): `E` (the
//!   sample itself must be re-drawn — adjacency of `v` gates the draw) ∪
//!   profile-dirty ∪ `N_new(profile-dirty)` (deletion rankings) ∪ every
//!   node whose stored sample contains a profile-dirty candidate,
//!   found via an inverted `sampled_by` index. Non-endpoint draws are
//!   unchanged because `sample_non_neighbors` depends only on
//!   `has_edge(v, ·)`, `degree(v)` and `n`, all unchanged for them.
//!
//! ## Determinism and bit-identity
//!
//! Dirty rows are rebuilt by the *same* per-row code path the full
//! build runs ([`EntropySequences::build`]'s row closure), and
//! `GlobalSample` re-draws restart the per-node RNG at `seed ^ v`, so
//! the result is independent of visit order and bit-identical to a
//! from-scratch build after every batch — the proptest suite in
//! `tests/incremental_equivalence.rs` enforces exactly that.
//!
//! ## Wholesale fallback
//!
//! When the sequence-dirty fraction exceeds a threshold (default 0.5),
//! per-row bookkeeping costs more than it saves and the engine rebuilds
//! the structural table and sequences outright — still reusing the
//! feature rows and their frozen rescale range, which no flip can
//! invalidate.

use rand::rngs::StdRng;
use rand::SeedableRng;

use graphrare_graph::{edge_key, traversal, unkey, Graph};

use crate::relative::{RelativeEntropyConfig, RelativeEntropyTable};
use crate::sequences::{self, CandidatePool, EntropySequences, SequenceConfig};

/// What one [`IncrementalEntropy::apply_flips`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EntropyRefreshStats {
    /// `H_s` rows (degree profiles) recomputed.
    pub rows_dirty: usize,
    /// Sequence rows (addition + deletion rankings) rebuilt.
    pub rows_rebuilt: usize,
    /// Whether the wholesale-rebuild fallback fired.
    pub wholesale: bool,
}

/// Incrementally-maintained relative-entropy state: a graph mirror, its
/// [`RelativeEntropyTable`] and [`EntropySequences`], kept bit-identical
/// to a from-scratch build across [`apply_flips`](Self::apply_flips)
/// batches.
pub struct IncrementalEntropy {
    graph: Graph,
    table: RelativeEntropyTable,
    sequences: EntropySequences,
    cfg: SequenceConfig,
    wholesale_threshold: f64,
    /// Full (pre-truncation) candidate sample per node; empty unless the
    /// pool is [`CandidatePool::GlobalSample`].
    samples: Vec<Vec<u32>>,
    /// Inverted index: `sampled_by[u]` lists the nodes whose sample
    /// contains `u`.
    sampled_by: Vec<Vec<u32>>,
}

impl IncrementalEntropy {
    /// Builds the engine from scratch: full entropy table, full
    /// sequences, and (for [`CandidatePool::GlobalSample`]) the sample
    /// index.
    pub fn new(g: &Graph, entropy_cfg: &RelativeEntropyConfig, seq_cfg: SequenceConfig) -> Self {
        let table = RelativeEntropyTable::new(g, entropy_cfg);
        let sequences = EntropySequences::build(g, &table, &seq_cfg);
        let mut engine = Self {
            graph: g.clone(),
            table,
            sequences,
            cfg: seq_cfg,
            wholesale_threshold: 0.5,
            samples: Vec::new(),
            sampled_by: Vec::new(),
        };
        engine.rebuild_sample_index();
        engine
    }

    /// Sets the sequence-dirty fraction above which the engine rebuilds
    /// wholesale instead of per row. `0.0` forces wholesale on every
    /// non-empty batch (the benchmark's "full rebuild" baseline);
    /// values ≥ 1 never fall back.
    pub fn set_wholesale_threshold(&mut self, threshold: f64) {
        self.wholesale_threshold = threshold;
    }

    /// The engine's graph mirror (always equal to the sum of applied
    /// flips over the construction-time graph).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The maintained entropy table.
    pub fn table(&self) -> &RelativeEntropyTable {
        &self.table
    }

    /// The maintained sequences.
    pub fn sequences(&self) -> &EntropySequences {
        &self.sequences
    }

    /// The sequence configuration in use.
    pub fn config(&self) -> &SequenceConfig {
        &self.cfg
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Whether the engine covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.graph.num_nodes() == 0
    }

    /// Applies a batch of undirected edge flips (`(u, v, added)`) to the
    /// graph mirror and refreshes exactly the dirty entropy rows and
    /// sequence rankings.
    ///
    /// Flip semantics match [`Graph::apply_edits`]: self-loops and
    /// out-of-bounds pairs are dropped, the last flip per pair wins, and
    /// flips that do not change presence are no-ops. After the call,
    /// [`table`](Self::table) and [`sequences`](Self::sequences) are
    /// bit-identical to from-scratch builds on the flipped graph.
    pub fn apply_flips(&mut self, flips: &[(usize, usize, bool)]) -> EntropyRefreshStats {
        let clock = graphrare_telemetry::Stopwatch::start();
        let n = self.graph.num_nodes();
        let genuine = normalize_flips(&self.graph, flips);
        if genuine.is_empty() {
            return EntropyRefreshStats::default();
        }
        // Open the guard only once genuine work is known to happen, so
        // no-op calls record no refresh span. A wholesale fallback's
        // full sequence rebuild nests under this span in the trace.
        let _span = graphrare_telemetry::span("entropy.incremental_refresh");

        let mut endpoints: Vec<usize> = genuine.iter().flat_map(|&(u, v, _)| [u, v]).collect();
        endpoints.sort_unstable();
        endpoints.dedup();

        // RemoteRing dirtiness needs the ball on the *pre-flip* graph
        // too: a node whose ring lost members is reachable within the
        // radius only on the old adjacency.
        let ring_radius = match self.cfg.pool {
            CandidatePool::RemoteRing { hops } => Some((hops + 1).max(2)),
            CandidatePool::GlobalSample { .. } => None,
        };
        let old_ball =
            ring_radius.map(|r| traversal::multi_source_ball(&self.graph, &endpoints, r));

        self.graph.apply_flips_sorted(&genuine);

        // Profile-dirty: endpoints and their post-flip neighbours.
        let mut profile_dirty = endpoints.clone();
        for &e in &endpoints {
            profile_dirty.extend(self.graph.neighbors(e));
        }
        profile_dirty.sort_unstable();
        profile_dirty.dedup();

        let mut seq_dirty: Vec<usize> = match self.cfg.pool {
            CandidatePool::RemoteRing { .. } => {
                let r = ring_radius.expect("radius set for RemoteRing");
                let mut d = old_ball.expect("old ball computed for RemoteRing");
                d.extend(traversal::multi_source_ball(&self.graph, &endpoints, r));
                d
            }
            CandidatePool::GlobalSample { .. } => {
                let mut d = profile_dirty.clone();
                for &u in &profile_dirty {
                    d.extend(self.graph.neighbors(u));
                    d.extend(self.sampled_by[u].iter().map(|&v| v as usize));
                }
                d.extend(endpoints.iter().copied());
                d
            }
        };
        seq_dirty.sort_unstable();
        seq_dirty.dedup();

        let wholesale = seq_dirty.len() as f64 > self.wholesale_threshold * n as f64;
        let stats = if wholesale {
            self.table.rebuild_structural(&self.graph);
            self.sequences = EntropySequences::build(&self.graph, &self.table, &self.cfg);
            self.rebuild_sample_index();
            graphrare_telemetry::counter("entropy.wholesale_fallbacks", 1);
            EntropyRefreshStats { rows_dirty: profile_dirty.len(), rows_rebuilt: n, wholesale }
        } else {
            self.table.refresh_structural_rows(&self.graph, &profile_dirty);
            if matches!(self.cfg.pool, CandidatePool::GlobalSample { .. }) {
                for &e in &endpoints {
                    self.redraw_sample(e);
                }
            }
            self.sequences.rebuild_rows(&self.graph, &self.table, &self.cfg, &seq_dirty);
            EntropyRefreshStats {
                rows_dirty: profile_dirty.len(),
                rows_rebuilt: seq_dirty.len(),
                wholesale,
            }
        };
        graphrare_telemetry::counter("entropy.rows_dirty", stats.rows_dirty as u64);
        graphrare_telemetry::counter("entropy.rows_rebuilt", stats.rows_rebuilt as u64);
        let refresh_ns = clock.ns();
        graphrare_telemetry::emit_with(|| {
            graphrare_telemetry::Event::new("entropy_refresh")
                .u64("flips", genuine.len() as u64)
                .u64("rows_dirty", stats.rows_dirty as u64)
                .u64("rows_rebuilt", stats.rows_rebuilt as u64)
                .bool("wholesale", stats.wholesale)
                .u64("refresh_ns", refresh_ns)
        });
        stats
    }

    /// Re-draws node `v`'s candidate sample from its per-node RNG
    /// (`seed ^ v`, same stream as the full build) and patches the
    /// inverted index.
    fn redraw_sample(&mut self, v: usize) {
        let CandidatePool::GlobalSample { per_node, seed } = self.cfg.pool else {
            return;
        };
        let old = std::mem::take(&mut self.samples[v]);
        for &u in &old {
            let list = &mut self.sampled_by[u as usize];
            if let Some(pos) = list.iter().position(|&x| x as usize == v) {
                list.swap_remove(pos);
            }
        }
        let mut rng = StdRng::seed_from_u64(seed ^ v as u64);
        let fresh: Vec<u32> = sequences::sample_non_neighbors(&self.graph, v, per_node, &mut rng)
            .into_iter()
            .map(|u| u as u32)
            .collect();
        for &u in &fresh {
            self.sampled_by[u as usize].push(v as u32);
        }
        self.samples[v] = fresh;
    }

    /// Rebuilds the per-node samples and the inverted index from the
    /// current graph; a no-op (clears both) for [`CandidatePool::RemoteRing`].
    fn rebuild_sample_index(&mut self) {
        let CandidatePool::GlobalSample { per_node, seed } = self.cfg.pool else {
            self.samples.clear();
            self.sampled_by.clear();
            return;
        };
        let n = self.graph.num_nodes();
        let g = &self.graph;
        self.samples = graphrare_tensor::parallel::par_map(n, |v| {
            let mut rng = StdRng::seed_from_u64(seed ^ v as u64);
            sequences::sample_non_neighbors(g, v, per_node, &mut rng)
                .into_iter()
                .map(|u| u as u32)
                .collect()
        });
        self.sampled_by = vec![Vec::new(); n];
        for v in 0..n {
            for i in 0..self.samples[v].len() {
                let u = self.samples[v][i] as usize;
                self.sampled_by[u].push(v as u32);
            }
        }
    }
}

/// Normalizes a raw flip batch to [`Graph::apply_flips_sorted`]'s
/// contract: in-bounds non-loop pairs, ascending by edge key, last flip
/// per pair winning, and only genuine presence changes kept — the same
/// semantics `Graph::apply_edits` implements internally.
fn normalize_flips(g: &Graph, flips: &[(usize, usize, bool)]) -> Vec<(usize, usize, bool)> {
    let n = g.num_nodes();
    let mut keyed: Vec<(u64, u32, bool)> = flips
        .iter()
        .enumerate()
        .filter(|&(_, &(u, v, _))| u != v && u < n && v < n)
        .map(|(i, &(u, v, add))| (edge_key(u, v), i as u32, add))
        .collect();
    keyed.sort_unstable();
    let mut out = Vec::new();
    let mut i = 0;
    while i < keyed.len() {
        let key = keyed[i].0;
        while i + 1 < keyed.len() && keyed[i + 1].0 == key {
            i += 1; // the last flip for this pair wins
        }
        let want = keyed[i].2;
        i += 1;
        let (u, v) = unkey(key);
        if want != g.has_edge(u, v) {
            out.push((u, v, want));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrare_tensor::Matrix;

    fn fixture() -> Graph {
        let n = 10;
        let feats = Matrix::from_fn(n, 4, |r, c| ((r * 7 + c * 3 + r * c) % 5) as f32 / 4.0);
        let edges: Vec<(usize, usize)> =
            (0..n - 1).map(|i| (i, i + 1)).chain([(0, 5), (2, 7)]).collect();
        Graph::from_edges(n, &edges, feats, (0..n).map(|v| v % 3).collect(), 3)
    }

    fn assert_matches_fresh(engine: &IncrementalEntropy, ecfg: &RelativeEntropyConfig) {
        let g = engine.graph();
        let fresh_table = RelativeEntropyTable::new(g, ecfg);
        for v in 0..g.num_nodes() {
            for u in 0..g.num_nodes() {
                assert_eq!(
                    engine.table().entropy(v, u).to_bits(),
                    fresh_table.entropy(v, u).to_bits(),
                    "H({v},{u}) diverged"
                );
            }
        }
        let fresh = EntropySequences::build(g, &fresh_table, engine.config());
        assert_eq!(engine.sequences(), &fresh);
    }

    #[test]
    fn incremental_matches_fresh_after_each_batch() {
        let ecfg = RelativeEntropyConfig::default();
        for pool in [
            CandidatePool::RemoteRing { hops: 3 },
            CandidatePool::GlobalSample { per_node: 4, seed: 11 },
        ] {
            let g = fixture();
            let mut engine =
                IncrementalEntropy::new(&g, &ecfg, SequenceConfig { pool, max_additions: 8 });
            let batches: Vec<Vec<(usize, usize, bool)>> = vec![
                vec![(0, 3, true)],
                vec![(1, 2, false), (4, 9, true)],
                vec![(0, 3, false), (0, 3, true), (5, 6, false)],
            ];
            for batch in &batches {
                engine.apply_flips(batch);
                assert_matches_fresh(&engine, &ecfg);
            }
        }
    }

    #[test]
    fn degenerate_batches_are_noops() {
        let g = fixture();
        let mut engine = IncrementalEntropy::new(
            &g,
            &RelativeEntropyConfig::default(),
            SequenceConfig::default(),
        );
        let before = engine.sequences().clone();
        // Self-loop, out-of-bounds, add-present, remove-absent, and a
        // pair that flips back to its original state.
        let stats = engine.apply_flips(&[
            (2, 2, true),
            (0, 99, true),
            (0, 1, true),
            (0, 9, false),
            (3, 8, true),
            (3, 8, false),
        ]);
        assert_eq!(stats, EntropyRefreshStats::default());
        assert_eq!(engine.sequences(), &before);
        assert_eq!(engine.graph().edge_vec(), g.edge_vec());
    }

    /// Regression for sequence staleness: a frozen pre-flip build keeps
    /// serving deleted edges in `deletions(v)`, while the engine's
    /// refreshed rankings track the current graph exactly. This is the
    /// failure mode the driver's refresh boundary exists to fix.
    #[test]
    fn frozen_sequences_go_stale_but_engine_does_not() {
        let ecfg = RelativeEntropyConfig::default();
        let g = fixture();
        let mut engine = IncrementalEntropy::new(&g, &ecfg, SequenceConfig::default());
        let frozen = engine.sequences().clone();

        // Remove the (2,3) path edge and add a chord at node 2.
        engine.apply_flips(&[(2, 3, false), (2, 9, true)]);

        // The frozen deletion ranking still offers the removed edge…
        assert!(
            frozen.deletions(2).iter().any(|&(u, _)| u == 3),
            "fixture must start with edge (2,3) ranked for deletion"
        );
        // …while the engine's ranking lists exactly the current neighbours.
        let engine_del: Vec<u32> = {
            let mut d: Vec<u32> = engine.sequences().deletions(2).iter().map(|&(u, _)| u).collect();
            d.sort_unstable();
            d
        };
        let current: Vec<u32> = engine.graph().neighbors(2).map(|u| u as u32).collect();
        let mut current_sorted = current;
        current_sorted.sort_unstable();
        assert_eq!(engine_del, current_sorted);
        assert!(!engine_del.contains(&3));
        assert!(engine_del.contains(&9));
        assert_ne!(engine.sequences(), &frozen, "flips must invalidate the frozen build");
        assert_matches_fresh(&engine, &ecfg);
    }

    #[test]
    fn zero_threshold_forces_wholesale_and_stays_identical() {
        let ecfg = RelativeEntropyConfig::default();
        let g = fixture();
        let mut engine = IncrementalEntropy::new(&g, &ecfg, SequenceConfig::default());
        engine.set_wholesale_threshold(0.0);
        let stats = engine.apply_flips(&[(0, 4, true)]);
        assert!(stats.wholesale);
        assert_eq!(stats.rows_rebuilt, g.num_nodes());
        assert_matches_fresh(&engine, &ecfg);
    }
}
