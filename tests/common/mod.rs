//! Fixtures shared by the rewiring test binaries (`rewire_equivalence`,
//! `rewire_alloc`): the optimisers they rewire and the strategy traces
//! they replay.

use graphrare::rewirer::build_rewirer;
use graphrare::topology::{EditMode, TopologyOptimizer};
use graphrare::{GraphRareConfig, RewirerKind, TopoState};
use graphrare_entropy::{
    CandidatePool, EntropySequences, RelativeEntropyConfig, RelativeEntropyTable, SequenceConfig,
};
use graphrare_graph::Graph;
use graphrare_tensor::Matrix;

/// An optimiser over `edges` with deterministic pseudo-features: enough
/// variation for non-trivial entropy rankings without an RNG.
pub fn optimizer(n: usize, edges: &[(usize, usize)], mode: EditMode) -> TopologyOptimizer {
    let feats = Matrix::from_fn(n, 4, |r, c| ((r * 7 + c * 3 + r * c) % 5) as f32 / 4.0);
    let labels: Vec<usize> = (0..n).map(|v| v % 3).collect();
    anchored(Graph::from_edges(n, edges, feats, labels, 3), mode)
}

/// An optimiser over `g` with rankings freshly built on it: what a
/// refresh boundary re-anchors on when `g` is the live graph.
pub fn anchored(g: Graph, mode: EditMode) -> TopologyOptimizer {
    let table = RelativeEntropyTable::new(&g, &RelativeEntropyConfig::default());
    let seqs = EntropySequences::build(
        &g,
        &table,
        &SequenceConfig { pool: CandidatePool::RemoteRing { hops: 3 }, max_additions: 8 },
    );
    TopologyOptimizer::new(g, seqs, mode)
}

/// Deterministic pseudo-random edge list dense enough that most rewiring
/// steps dirty a large share of operator rows (the bench's Dense regime).
pub fn dense_edges(n: usize) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    for v in 0..n {
        edges.push((v, (v + 1) % n)); // ring keeps every degree >= 2
        edges.push((v, (v * v + 3 * v + 1) % n));
        edges.push((v, (v * 7 + 5) % n));
    }
    edges
}

/// A ring over the first `n - 2` nodes plus a few chords and two pendant
/// nodes: plenty of degree-1 and degree-2 endpoints for deletions to
/// threaten.
pub fn guard_cascade_edges(n: usize) -> Vec<(usize, usize)> {
    let mut edges: Vec<(usize, usize)> = (0..n - 2).map(|v| (v, (v + 1) % (n - 2))).collect();
    edges.extend([(0, 5), (2, 8), (n - 2, 3), (n - 1, 7)]);
    edges
}

/// `d` bounds covering every neighbour — more than the driver allows, so
/// deletion prefixes can threaten to isolate an endpoint.
pub fn guard_state(topo: &TopologyOptimizer, k_cap: usize) -> TopoState {
    let base = topo.base();
    let d_max: Vec<u16> = (0..base.num_nodes()).map(|v| base.degree(v) as u16).collect();
    TopoState::new(topo.k_bounds(k_cap), d_max)
}

/// Records the action trace one strategy actually proposes against `topo`,
/// mirroring the driver's loop (propose → apply → feedback, episodic reset
/// at window ends).
pub fn strategy_trace(
    topo: &TopologyOptimizer,
    cfg: &GraphRareConfig,
    kind: RewirerKind,
    mut state: TopoState,
    steps: usize,
    reset_every: usize,
) -> Vec<Vec<u8>> {
    let mut c = *cfg;
    c.rewirer = kind;
    // Every other node "training-labelled", like a transductive split.
    let train: Vec<usize> = (0..topo.base().num_nodes()).step_by(2).collect();
    let mut rw = build_rewirer(topo, &c, &train);
    let mut trace = Vec::new();
    for i in 0..steps {
        let actions = rw.propose(&state);
        state.apply(&actions);
        let window_end = reset_every > 0 && (i + 1) % reset_every == 0;
        rw.feedback(0.05, window_end, reset_every > 0, &state);
        if window_end {
            state.reset();
        }
        trace.push(actions);
    }
    trace
}
