//! Incremental relative-entropy maintenance under edge flips.
//!
//! `H = H_f + λ·H_s` (Eq. 9) splits cleanly under topology edits:
//! feature entropy `H_f` depends only on node features, which flips
//! never touch, while structural entropy `H_s` (Eqs. 5–8) depends only
//! on *one-hop degree profiles*. Moving the engine's anchor graph to a
//! new target ([`IncrementalEntropy::reanchor`]) flips the edges the two
//! graphs disagree on, which dirties a bounded set of `H_s` rows and
//! rankings; everything else is reusable verbatim — the same
//! sparse-invalidation argument that made rewiring incremental
//! (`RewiredGraph` / `GraphTensors` dirty rows).
//!
//! ## Dirty-set rules
//!
//! With `E` the flipped endpoints (of the anchor-to-target diff):
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
//! from-scratch build after every re-anchor — the proptest suite in
//! `tests/incremental_equivalence.rs` enforces exactly that.
//!
//! ## Wholesale fallback
//!
//! When the sequence-dirty fraction exceeds a threshold (default 0.5),
//! per-row bookkeeping costs more than it saves and the engine rebuilds
//! the structural table and sequences outright — still reusing the
//! feature rows and their frozen rescale range, which no flip can
//! invalidate.

use std::cmp::Ordering;

use rand::rngs::StdRng;
use rand::SeedableRng;

use graphrare_graph::{traversal, Graph};

use crate::relative::{RelativeEntropyConfig, RelativeEntropyTable};
use crate::sequences::{self, CandidatePool, EntropySequences, SequenceConfig};

/// What one [`IncrementalEntropy::reanchor`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EntropyRefreshStats {
    /// `H_s` rows (degree profiles) recomputed.
    pub rows_dirty: usize,
    /// Sequence rows (addition + deletion rankings) rebuilt.
    pub rows_rebuilt: usize,
    /// Whether the wholesale-rebuild fallback fired.
    pub wholesale: bool,
}

/// Incrementally-maintained relative-entropy state: an anchor graph, its
/// [`RelativeEntropyTable`] and [`EntropySequences`], kept bit-identical
/// to a from-scratch build across [`reanchor`](Self::reanchor) calls.
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
    /// re-anchor that changes an edge (the benchmark's "full rebuild"
    /// baseline); values ≥ 1 never fall back.
    pub fn set_wholesale_threshold(&mut self, threshold: f64) {
        self.wholesale_threshold = threshold;
    }

    /// The anchor graph: the last [`reanchor`](Self::reanchor) target, or
    /// the construction-time graph.
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

    /// Moves the anchor to `target`'s topology and refreshes exactly the
    /// dirty entropy rows and sequence rankings.
    ///
    /// `target` must have the anchor's nodes and features; only its
    /// edges are read. After the call, [`table`](Self::table) and
    /// [`sequences`](Self::sequences) are bit-identical to from-scratch
    /// builds on `target`. An equal topology is a no-op.
    pub fn reanchor(&mut self, target: &Graph) -> EntropyRefreshStats {
        let clock = graphrare_telemetry::Stopwatch::start();
        let n = self.graph.num_nodes();
        assert_eq!(target.num_nodes(), n, "re-anchor target must cover the anchor's nodes");
        let genuine = edge_diff(&self.graph, target);
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

/// The flips that turn `from` into `to`: one sorted merge of the two
/// edge lists, so the result is ascending by edge key and every flip
/// genuinely changes presence ([`Graph::apply_flips_sorted`]'s contract).
fn edge_diff(from: &Graph, to: &Graph) -> Vec<(usize, usize, bool)> {
    // `edges()` yields `(u, v)` with `u < v` in edge-key order, so tuple
    // order is key order; `END` sorts after every real edge.
    const END: (usize, usize) = (usize::MAX, usize::MAX);
    let mut out = Vec::new();
    let (mut old, mut new) = (from.edges().peekable(), to.edges().peekable());
    loop {
        let a = old.peek().copied().unwrap_or(END);
        let b = new.peek().copied().unwrap_or(END);
        match a.cmp(&b) {
            Ordering::Less => {
                out.push((a.0, a.1, false));
                old.next();
            }
            Ordering::Greater => {
                out.push((b.0, b.1, true));
                new.next();
            }
            Ordering::Equal if a == END => return out,
            Ordering::Equal => {
                old.next();
                new.next();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrare_graph::EdgeEdit;
    use graphrare_tensor::Matrix;

    fn fixture() -> Graph {
        let n = 10;
        let feats = Matrix::from_fn(n, 4, |r, c| ((r * 7 + c * 3 + r * c) % 5) as f32 / 4.0);
        let edges: Vec<(usize, usize)> =
            (0..n - 1).map(|i| (i, i + 1)).chain([(0, 5), (2, 7)]).collect();
        Graph::from_edges(n, &edges, feats, (0..n).map(|v| v % 3).collect(), 3)
    }

    /// `g` after a raw batch of `(u, v, present)` flips.
    fn flipped(g: &Graph, flips: &[(usize, usize, bool)]) -> Graph {
        let edits: Vec<(usize, usize, EdgeEdit)> = flips
            .iter()
            .map(|&(u, v, add)| (u, v, if add { EdgeEdit::Add } else { EdgeEdit::Remove }))
            .collect();
        let mut out = g.clone();
        out.apply_edits(&edits);
        out
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
    fn incremental_matches_fresh_after_each_reanchor() {
        let ecfg = RelativeEntropyConfig::default();
        for pool in [
            CandidatePool::RemoteRing { hops: 3 },
            CandidatePool::GlobalSample { per_node: 4, seed: 11 },
        ] {
            let mut reference = fixture();
            let mut engine = IncrementalEntropy::new(
                &reference,
                &ecfg,
                SequenceConfig { pool, max_additions: 8 },
            );
            let batches: Vec<Vec<(usize, usize, bool)>> = vec![
                vec![(0, 3, true)],
                vec![(1, 2, false), (4, 9, true)],
                vec![(0, 3, false), (0, 3, true), (5, 6, false)],
            ];
            for batch in &batches {
                reference = flipped(&reference, batch);
                engine.reanchor(&reference);
                assert_eq!(engine.graph().edge_vec(), reference.edge_vec());
                assert_matches_fresh(&engine, &ecfg);
            }
        }
    }

    #[test]
    fn reanchoring_onto_an_equal_graph_is_a_noop() {
        let g = fixture();
        let mut engine = IncrementalEntropy::new(
            &g,
            &RelativeEntropyConfig::default(),
            SequenceConfig::default(),
        );
        let before = engine.sequences().clone();
        // The same topology, reached through a batch whose flips cancel.
        let same = flipped(&g, &[(0, 1, true), (0, 9, false), (3, 8, true), (3, 8, false)]);
        let stats = engine.reanchor(&same);
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
        engine.reanchor(&flipped(&g, &[(2, 3, false), (2, 9, true)]));

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
        let stats = engine.reanchor(&flipped(&g, &[(0, 4, true)]));
        assert!(stats.wholesale);
        assert_eq!(stats.rows_rebuilt, g.num_nodes());
        assert_matches_fresh(&engine, &ecfg);
    }

    #[test]
    fn edge_diff_is_sorted_and_genuine() {
        let g = fixture();
        let target = flipped(&g, &[(8, 9, false), (0, 9, true), (0, 1, false), (3, 7, true)]);
        assert_eq!(
            edge_diff(&g, &target),
            vec![(0, 1, false), (0, 9, true), (3, 7, true), (8, 9, false)]
        );
        assert!(edge_diff(&g, &g).is_empty());
    }
}
