//! Steady-state allocation regression: a warmed-up [`RewiredGraph`]
//! must run transitions — delta scan, guard (including the localized
//! replay and kept-cache), reconcile and the in-place operator rebuild —
//! with **zero** heap allocations, both for dense batches that flip most
//! of the graph and for batches that flip a single edge.
//!
//! The counting allocator's counters are process-wide, so this file
//! holds exactly one `#[test]`: the test binary is effectively
//! single-threaded and every allocation observed inside the measured
//! window is attributable to the engine under test. (The wider
//! bit-identity matrix lives in `rewire_equivalence.rs`; this binary
//! only pins the allocator contract.)

graphrare_telemetry::install_counting_allocator!();

use graphrare::rewire::{RewireDelta, RewiredGraph};
use graphrare::topology::{EditMode, TopologyOptimizer};
use graphrare::TopoState;
use graphrare_entropy::{
    CandidatePool, EntropySequences, RelativeEntropyConfig, RelativeEntropyTable, SequenceConfig,
};
use graphrare_gnn::GraphTensors;
use graphrare_graph::{metrics, Graph};
use graphrare_telemetry::alloc;
use graphrare_tensor::Matrix;

/// Deterministic pseudo-random dense-ish graph (ring keeps degrees >= 2),
/// same shape as the equivalence suite's dense regime.
fn dense_optimizer(n: usize) -> TopologyOptimizer {
    let mut edges = Vec::new();
    for v in 0..n {
        edges.push((v, (v + 1) % n));
        edges.push((v, (v * v + 3 * v + 1) % n));
        edges.push((v, (v * 7 + 5) % n));
    }
    let feats = Matrix::from_fn(n, 4, |r, c| ((r * 7 + c * 3 + r * c) % 5) as f32 / 4.0);
    let labels: Vec<usize> = (0..n).map(|v| v % 3).collect();
    let g = Graph::from_edges(n, &edges, feats, labels, 3);
    let table = RelativeEntropyTable::new(&g, &RelativeEntropyConfig::default());
    let seqs = EntropySequences::build(
        &g,
        &table,
        &SequenceConfig { pool: CandidatePool::RemoteRing { hops: 3 }, max_additions: 8 },
    );
    TopologyOptimizer::new(g, seqs, EditMode::Both)
}

type StateEdit = Box<dyn Fn(&mut TopoState)>;

/// Runs `cycle` once and returns the `(allocations, bytes)` it made.
fn measure_cycle(
    topo: &TopologyOptimizer,
    rw: &mut RewiredGraph,
    state: &mut TopoState,
    delta: &mut RewireDelta,
    cycle: &[StateEdit],
) -> (u64, u64) {
    let before = alloc::snapshot();
    for set in cycle {
        set(state);
        rw.apply_into(topo, state, delta).unwrap();
    }
    let after = alloc::snapshot();
    (after.count - before.count, after.bytes - before.bytes)
}

#[test]
fn warm_dense_and_single_flip_steps_do_not_allocate() {
    assert!(alloc::active(), "counting allocator must be installed in this binary");

    let n = 40;
    let topo = dense_optimizer(n);
    let base = topo.base();
    let k_max = topo.k_bounds(6);
    let d_max: Vec<u16> = (0..n).map(|v| base.degree(v) as u16).collect();
    let mut state = TopoState::new(k_max, d_max);

    let mut rw = RewiredGraph::new(&topo);
    // Build all four operators up-front and drop the handles: with a
    // refcount of one, the operator rebuild refills the cached storage
    // in place instead of cloning.
    rw.tensors().gcn_norm();
    rw.tensors().row_norm();
    rw.tensors().two_hop();
    rw.tensors().attention();

    // A three-state cycle. Deletion prefixes stay maxed throughout, so
    // the risky census never empties (the kept-cache is never dropped)
    // and every step takes the resimulation path; state B additionally
    // shrinks one node's prefix so the cycle exercises both kept-cache
    // hits and in-place re-derivations. The k swings flip more than
    // half the node count in edges per step.
    let cycle: Vec<StateEdit> = vec![
        Box::new(|s: &mut TopoState| {
            for v in 0..40 {
                s.set_k(v, s.k_max(v).min(4));
                s.set_d(v, s.d_max(v));
            }
        }),
        Box::new(|s: &mut TopoState| {
            for v in 0..40 {
                s.set_k(v, 0);
                s.set_d(v, s.d_max(v));
            }
            s.set_d(0, s.d_max(0).saturating_sub(1));
        }),
        Box::new(|s: &mut TopoState| {
            for v in 0..40 {
                s.set_k(v, s.k_max(v).min(2));
                s.set_d(v, s.d_max(v));
            }
        }),
    ];

    let mut delta = RewireDelta::default();
    // Two warm-up cycles grow every scratch buffer, cache entry and
    // operator store to its steady-state capacity.
    for _ in 0..2 {
        for set in &cycle {
            set(&mut state);
            rw.apply_into(&topo, &state, &mut delta).unwrap();
            assert!(delta.resimulated, "trace must keep the risky census populated");
            assert!(
                2 * (delta.added.len() + delta.removed.len()) > n,
                "trace must flip more than half the node count in edges"
            );
        }
    }

    // Measured window: one full steady-state cycle.
    let (count, bytes) = measure_cycle(&topo, &mut rw, &mut state, &mut delta, &cycle);
    assert_eq!(count, 0, "steady-state dense apply allocated ({count} allocs, {bytes} bytes)");

    // A four-state single-flip cycle on top of the last dense state:
    // deletion prefixes stay maxed, and each step moves one node's
    // addition prefix by one, so every batch flips exactly one edge —
    // the batch size sparse rewirers produce.
    let (a, b) = (3, 20);
    let single: Vec<StateEdit> = vec![
        Box::new(move |s: &mut TopoState| s.set_k(a, s.k(a) + 1)),
        Box::new(move |s: &mut TopoState| s.set_k(b, s.k(b) + 1)),
        Box::new(move |s: &mut TopoState| s.set_k(a, s.k(a) - 1)),
        Box::new(move |s: &mut TopoState| s.set_k(b, s.k(b) - 1)),
    ];
    for _ in 0..2 {
        for set in &single {
            set(&mut state);
            rw.apply_into(&topo, &state, &mut delta).unwrap();
            assert_eq!(delta.added.len() + delta.removed.len(), 1, "trace must flip one edge");
        }
    }
    let (count, bytes) = measure_cycle(&topo, &mut rw, &mut state, &mut delta, &single);
    assert_eq!(
        count, 0,
        "steady-state single-flip apply allocated ({count} allocs, {bytes} bytes)"
    );

    // And the allocation-free path still lands on the reference output.
    let want = topo.materialize(&state);
    assert_eq!(rw.graph().edge_vec(), want.edge_vec(), "edge sets diverge");
    assert_eq!(
        rw.homophily_ratio().to_bits(),
        metrics::homophily_ratio(&want).to_bits(),
        "homophily diverges"
    );
    let fresh = GraphTensors::new(&want);
    assert_eq!(*rw.tensors().gcn_norm(), *fresh.gcn_norm(), "gcn_norm diverges");
    assert_eq!(*rw.tensors().row_norm(), *fresh.row_norm(), "row_norm diverges");
    assert_eq!(*rw.tensors().two_hop(), *fresh.two_hop(), "two_hop diverges");
    assert_eq!(*rw.tensors().attention(), *fresh.attention(), "attention diverges");
}
