//! Property suite: the incremental entropy engine, re-anchored after
//! every batch of a random flip trace, is bit-identical to a
//! from-scratch build (`RelativeEntropyTable::new` +
//! `EntropySequences::build`) over random graphs, for both candidate
//! pools — the same correctness contract `rewire_equivalence.rs`
//! enforces for the rewiring engine.

use proptest::prelude::*;

use graphrare_entropy::{
    CandidatePool, EntropySequences, IncrementalEntropy, RelativeEntropyConfig,
    RelativeEntropyTable, SequenceConfig,
};
use graphrare_graph::{EdgeEdit, Graph};
use graphrare_tensor::Matrix;

/// Deterministic pseudo-features: enough variation for non-trivial entropy
/// rankings without an RNG in the strategy.
fn features(n: usize) -> Matrix {
    Matrix::from_fn(n, 4, |r, c| ((r * 7 + c * 3 + r * c) % 5) as f32 / 4.0)
}

fn graph(n: usize, edges: &[(usize, usize)]) -> Graph {
    let labels: Vec<usize> = (0..n).map(|v| v % 3).collect();
    Graph::from_edges(n, edges, features(n), labels, 3)
}

fn pool_of(idx: u8) -> CandidatePool {
    if idx.is_multiple_of(2) {
        CandidatePool::RemoteRing { hops: 3 }
    } else {
        CandidatePool::GlobalSample { per_node: 4, seed: 11 }
    }
}

/// The engine's full contract against the reference path: its graph
/// mirror, every `H(v, u)` bit, and both rankings of every node must
/// equal a from-scratch build on the reference graph.
fn assert_matches_fresh(
    engine: &IncrementalEntropy,
    reference: &Graph,
    ecfg: &RelativeEntropyConfig,
) {
    assert_eq!(engine.graph().edge_vec(), reference.edge_vec(), "graph mirror diverged");
    let fresh_table = RelativeEntropyTable::new(reference, ecfg);
    let n = reference.num_nodes();
    for v in 0..n {
        for u in 0..n {
            assert_eq!(
                engine.table().entropy(v, u).to_bits(),
                fresh_table.entropy(v, u).to_bits(),
                "H({v},{u}) diverged"
            );
        }
    }
    let fresh = EntropySequences::build(reference, &fresh_table, engine.config());
    assert_eq!(engine.sequences(), &fresh, "rankings diverged from fresh build");
}

/// Applies a trace of raw (possibly degenerate) flip batches to a
/// reference graph with `apply_edits`, re-anchors the engine on it after
/// every batch, and checks the contract each time.
fn run_trace(
    n: usize,
    edges: &[(usize, usize)],
    pool: CandidatePool,
    trace: &[Vec<(usize, usize, bool)>],
    threshold: f64,
) {
    let ecfg = RelativeEntropyConfig::default();
    let cfg = SequenceConfig { pool, max_additions: 8 };
    let mut reference = graph(n, edges);
    let mut engine = IncrementalEntropy::new(&reference, &ecfg, cfg);
    engine.set_wholesale_threshold(threshold);
    for batch in trace {
        let edits: Vec<(usize, usize, EdgeEdit)> = batch
            .iter()
            .map(|&(u, v, add)| (u, v, if add { EdgeEdit::Add } else { EdgeEdit::Remove }))
            .collect();
        reference.apply_edits(&edits);
        engine.reanchor(&reference);
        assert_matches_fresh(&engine, &reference, &ecfg);
    }
}

/// `(n, edges, pool, trace)` — one random replay instance. Flip batches
/// are raw: duplicates, no-op flips and self-loops are all legal
/// `apply_edits` inputs, so some batches leave the graph unchanged.
type Instance = (usize, Vec<(usize, usize)>, u8, Vec<Vec<(usize, usize, bool)>>);

fn arb_instance() -> impl Strategy<Value = Instance> {
    (8usize..24).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0..n, 0..n), n / 2..3 * n),
            0u8..2,
            proptest::collection::vec(
                proptest::collection::vec((0..n, 0..n, any::<bool>()), 1..2 * n),
                1..6,
            ),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random graphs x random flip traces x both candidate pools at the
    /// default fallback threshold. Small `n` with batches up to `2n`
    /// flips crosses the wholesale threshold naturally, so both the
    /// per-row path and the fallback are exercised.
    #[test]
    fn incremental_matches_fresh_build((n, edges, pool_idx, trace) in arb_instance()) {
        run_trace(n, &edges, pool_of(pool_idx), &trace, 0.5);
    }

    /// Never-fallback variant: threshold above 1 forces the per-row path
    /// even for batches that dirty every node, the hardest case for the
    /// dirty-set rules.
    #[test]
    fn per_row_path_matches_fresh_build((n, edges, pool_idx, trace) in arb_instance()) {
        run_trace(n, &edges, pool_of(pool_idx), &trace, 2.0);
    }
}

/// Deterministic cross-check of the two extreme thresholds: the per-row
/// path and the wholesale fallback must agree with each other (both are
/// pinned to the fresh build by `run_trace`'s assertion).
#[test]
fn thresholds_agree_on_fixed_trace() {
    let n = 12;
    let edges: Vec<(usize, usize)> =
        (0..n - 1).map(|i| (i, i + 1)).chain([(0, 6), (3, 9)]).collect();
    let trace: Vec<Vec<(usize, usize, bool)>> = vec![
        vec![(0, 4, true), (5, 6, false)],
        vec![(2, 10, true), (2, 10, false), (2, 10, true)],
        vec![(1, 2, false), (8, 9, false), (0, 11, true)],
    ];
    for pool in [
        CandidatePool::RemoteRing { hops: 3 },
        CandidatePool::GlobalSample { per_node: 4, seed: 7 },
    ] {
        run_trace(n, &edges, pool, &trace, 0.0); // always wholesale
        run_trace(n, &edges, pool, &trace, 2.0); // never wholesale
    }
}
