//! Steady-state allocation regression: a warmed-up [`RewiredGraph`]
//! must run transitions — the deletion and addition passes, the
//! comparison with the previous step and the in-place operator rebuild —
//! with **zero** heap allocations: for dense batches that flip most of
//! the graph, for batches that flip a single edge, and on the trace each
//! `--rewirer` strategy proposes, with and without episodic resets,
//! before and after a refresh boundary re-anchors the engine.
//!
//! The counting allocator's counters are process-wide, so this file
//! holds exactly one `#[test]`: the test binary is effectively
//! single-threaded and every allocation observed inside the measured
//! window is attributable to the engine under test. (The wider
//! bit-identity matrix lives in `rewire_equivalence.rs`; this binary
//! only pins the allocator contract.)

graphrare_telemetry::install_counting_allocator!();

mod common;

use common::{anchored, dense_edges, guard_cascade_edges, guard_state, optimizer, strategy_trace};
use graphrare::rewire::RewiredGraph;
use graphrare::topology::{EditMode, TopologyOptimizer};
use graphrare::{GraphRareConfig, RewirerKind, TopoState};
use graphrare_gnn::GraphTensors;
use graphrare_graph::metrics;
use graphrare_telemetry::alloc;

/// Builds every operator and drops the handles: with a refcount of one,
/// the operator rebuild refills the cached storage in place instead of
/// cloning.
fn build_operators(rw: &RewiredGraph) {
    rw.tensors().gcn_norm();
    rw.tensors().row_norm();
    rw.tensors().two_hop();
    rw.tensors().attention();
}

/// Slated base edges still present in the live graph: the ones the
/// isolation guard kept.
fn guard_kept(rw: &RewiredGraph, topo: &TopologyOptimizer, state: &TopoState) -> usize {
    (0..state.num_nodes())
        .flat_map(|v| {
            topo.sequences().deletions(v).iter().take(state.d(v)).map(move |&(u, _)| (v, u))
        })
        .filter(|&(v, u)| rw.graph().has_edge(v, u as usize))
        .count()
}

type StateEdit = Box<dyn Fn(&mut TopoState)>;

/// Runs `cycle` once and returns the `(allocations, bytes)` it made.
fn measure_cycle(
    topo: &TopologyOptimizer,
    rw: &mut RewiredGraph,
    state: &mut TopoState,
    cycle: &[StateEdit],
) -> (u64, u64) {
    let before = alloc::snapshot();
    for set in cycle {
        set(state);
        rw.apply(topo, state).unwrap();
    }
    let after = alloc::snapshot();
    (after.count - before.count, after.bytes - before.bytes)
}

/// Jumps the engine back to `S_0`, then replays `trace` like the driver
/// (episodic reset every `reset_every` steps) and returns the
/// `(allocations, bytes)` the replay made, the jump excluded.
fn replay_from_s0(
    topo: &TopologyOptimizer,
    rw: &mut RewiredGraph,
    state: &mut TopoState,
    trace: &[Vec<u8>],
    reset_every: usize,
) -> (u64, u64) {
    state.reset();
    rw.apply(topo, state).unwrap();
    let before = alloc::snapshot();
    for (i, actions) in trace.iter().enumerate() {
        state.apply(actions);
        rw.apply(topo, state).unwrap();
        if reset_every > 0 && (i + 1) % reset_every == 0 {
            state.reset();
        }
    }
    let after = alloc::snapshot();
    (after.count - before.count, after.bytes - before.bytes)
}

#[test]
fn warm_dense_and_single_flip_steps_do_not_allocate() {
    assert!(alloc::active(), "counting allocator must be installed in this binary");

    let n = 40;
    let topo = optimizer(n, &dense_edges(n), EditMode::Both);
    let mut state = guard_state(&topo, 6);
    let mut rw = RewiredGraph::new(&topo);
    build_operators(&rw);

    // A three-state cycle. Deletion prefixes stay maxed throughout, so
    // the isolation guard keeps slated edges on every step; state B
    // additionally shrinks one node's prefix. The k swings flip more
    // than half the node count in edges per step.
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

    // Two warm-up cycles grow every scratch buffer and operator store to
    // its steady-state capacity.
    for _ in 0..2 {
        for set in &cycle {
            set(&mut state);
            let flips = rw.apply(&topo, &state).unwrap().len();
            assert!(2 * flips > n, "trace must flip more than half the node count in edges");
            assert!(guard_kept(&rw, &topo, &state) > 0, "the guard must keep a slated edge");
        }
    }

    // Measured window: one full steady-state cycle.
    let (count, bytes) = measure_cycle(&topo, &mut rw, &mut state, &cycle);
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
            assert_eq!(rw.apply(&topo, &state).unwrap().len(), 1, "trace must flip one edge");
        }
    }
    let (count, bytes) = measure_cycle(&topo, &mut rw, &mut state, &single);
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

    // Every strategy's own trace on the equivalence suite's guard-cascade
    // graph (a ring plus chords and two pendant nodes) and on the dense
    // graph: once replayed to warm the engine, a second replay from S_0
    // allocates nothing. Then a refresh boundary: the engine rebases onto
    // an optimiser anchored on the live graph with freshly built
    // rankings, and the strategy's trace from that new S_0, replayed
    // twice, allocates nothing the second time.
    let mut cfg = GraphRareConfig::fast().with_seed(23);
    cfg.k_cap = 64;
    for (fixture, n, edges) in
        [("guard-cascade", 14, guard_cascade_edges(14)), ("dense", 40, dense_edges(40))]
    {
        for kind in RewirerKind::ALL {
            for reset_every in [0usize, 4] {
                let name = kind.name();
                let mut topo = optimizer(n, &edges, EditMode::Both);
                let mut rw = RewiredGraph::new(&topo);
                build_operators(&rw);
                for anchoring in ["initial", "refreshed"] {
                    if anchoring == "refreshed" {
                        topo = anchored(rw.graph().clone(), EditMode::Both);
                        rw.rebase(&topo);
                    }
                    let mut state = guard_state(&topo, cfg.k_cap);
                    let trace = strategy_trace(&topo, &cfg, kind, state.clone(), 10, reset_every);
                    replay_from_s0(&topo, &mut rw, &mut state, &trace, reset_every);
                    let (count, bytes) =
                        replay_from_s0(&topo, &mut rw, &mut state, &trace, reset_every);
                    assert_eq!(
                        count, 0,
                        "warm {name} replay on the {fixture} graph, {anchoring} anchor (reset \
                         every {reset_every}) allocated ({count} allocs, {bytes} bytes)"
                    );
                    assert_eq!(rw.graph().edge_vec(), topo.materialize(&state).edge_vec());
                }
            }
        }
    }
}
