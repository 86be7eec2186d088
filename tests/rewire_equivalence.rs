//! Property suite: the incremental rewiring engine is bit-identical to the
//! reference path (`TopologyOptimizer::materialize` + a fresh
//! `GraphTensors`) over random graphs, random action traces and all three
//! edit modes — including traces engineered to trip the deletion pass's
//! "never isolate an endpoint" guard, and traces proposed by every
//! first-class [`Rewirer`](graphrare::Rewirer) strategy (the driver's
//! actual access pattern per `--rewirer` value).

mod common;

use proptest::prelude::*;

use common::{dense_edges, guard_cascade_edges, guard_state, optimizer, strategy_trace};
use graphrare::rewire::RewiredGraph;
use graphrare::topology::{EditMode, TopologyOptimizer};
use graphrare::{GraphRareConfig, RewirerKind, TopoState};
use graphrare_gnn::GraphTensors;
use graphrare_graph::metrics;

fn mode_of(idx: u8) -> EditMode {
    match idx % 3 {
        0 => EditMode::Both,
        1 => EditMode::AddOnly,
        _ => EditMode::RemoveOnly,
    }
}

/// The full equivalence contract for one state: graph, edge count,
/// homophily bits and all four propagation operators.
fn assert_equivalent(rw: &RewiredGraph, topo: &TopologyOptimizer, state: &TopoState) {
    let want = topo.materialize(state);
    assert_eq!(rw.graph().edge_vec(), want.edge_vec(), "edge sets diverge");
    assert_eq!(rw.num_edges(), want.num_edges(), "edge counts diverge");
    assert_eq!(
        rw.homophily_ratio().to_bits(),
        metrics::homophily_ratio(&want).to_bits(),
        "homophily bits diverge"
    );
    let fresh = GraphTensors::new(&want);
    assert_eq!(*rw.tensors().gcn_norm(), *fresh.gcn_norm(), "gcn_norm diverges");
    assert_eq!(*rw.tensors().row_norm(), *fresh.row_norm(), "row_norm diverges");
    assert_eq!(*rw.tensors().two_hop(), *fresh.two_hop(), "two_hop diverges");
    assert_eq!(*rw.tensors().attention(), *fresh.attention(), "attention diverges");
}

/// Drives one engine through a trace of ±1 action vectors (the driver's
/// access pattern), checking the contract after every transition.
fn run_trace(
    topo: &TopologyOptimizer,
    mut state: TopoState,
    trace: &[Vec<u8>],
    reset_every: usize,
) {
    let mut rw = RewiredGraph::new(topo);
    // Build all operators up-front so each step refreshes all four.
    rw.tensors().gcn_norm();
    rw.tensors().row_norm();
    rw.tensors().two_hop();
    rw.tensors().attention();
    for (i, actions) in trace.iter().enumerate() {
        state.apply(actions);
        rw.apply(topo, &state).unwrap();
        assert_equivalent(&rw, topo, &state);
        if reset_every > 0 && (i + 1) % reset_every == 0 {
            // Episodic reset: the next apply must absorb the jump to S0.
            state.reset();
        }
    }
    // Resync after a possibly trailing reset, like the driver's finish().
    rw.apply(topo, &state).unwrap();
    assert_equivalent(&rw, topo, &state);
}

/// `(n, edges, mode, trace, reset_every)` — one random replay instance.
type Instance = (usize, Vec<(usize, usize)>, u8, Vec<Vec<u8>>, usize);

fn arb_instance() -> impl Strategy<Value = Instance> {
    (8usize..24).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0..n, 0..n), n / 2..3 * n),
            0u8..3,
            proptest::collection::vec(proptest::collection::vec(0u8..3, 2 * n), 1..8),
            0usize..4,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random graphs x random ±1 action traces x all edit modes, with the
    /// driver's bounds (`d_bounds` keeps one neighbour per ego node but
    /// neighbours' deletions can still cascade into the guard).
    #[test]
    fn incremental_matches_materialize((n, edges, mode_idx, trace, reset_every) in arb_instance()) {
        let mode = mode_of(mode_idx);
        let topo = optimizer(n, &edges, mode);
        let state = TopoState::new(topo.k_bounds(6), topo.d_bounds(6));
        run_trace(&topo, state, &trace, reset_every);
    }

    /// Guard-heavy variant: `d` bounds cover every neighbour (more than the
    /// driver ever allows), so deletion traces routinely threaten to
    /// isolate degree-1 endpoints and the sequential guard keeps edges.
    #[test]
    fn guard_cascades_match_materialize((n, edges, _, trace, reset_every) in arb_instance()) {
        let topo = optimizer(n, &edges, EditMode::Both);
        let state = guard_state(&topo, 6);
        run_trace(&topo, state, &trace, reset_every);
    }
}

/// Dense-regime trace: every node's `k` **and** `d` counter moves every
/// step (no holds), the same shape `bench_rewire`'s Dense regime drives.
/// With `d` bounds covering every neighbour the guard keeps edges on
/// most steps, and which ones it keeps moves with the prefixes. Episodic
/// resets slam every deletion prefix to zero and grow it back. The
/// per-step assertion is byte-identity of graph, homophily and all four
/// operators against from-scratch builds.
#[test]
fn dense_traces_match_materialize() {
    let n = 40;
    for reset_every in [0usize, 2] {
        let topo = optimizer(n, &dense_edges(n), EditMode::Both);
        let state = guard_state(&topo, 6);
        let trace: Vec<Vec<u8>> = (0..6u16)
            .map(|s| {
                (0..2 * n)
                    .map(|i| {
                        // Only up/down actions — every counter moves.
                        if (i as u16 * 7 + s * 11 + i as u16 * s).is_multiple_of(2) {
                            2
                        } else {
                            0
                        }
                    })
                    .collect()
            })
            .collect();
        run_trace(&topo, state, &trace, reset_every);
    }
}

/// Every `--rewirer` strategy's own proposals (recorded by
/// `common::strategy_trace`) replay bit-identically through
/// [`run_trace`], with and without episodic resets, under the driver's
/// default bounds — so each strategy is validated on the exact edit
/// patterns it emits, not just on random vectors.
#[test]
fn strategy_proposed_traces_match_materialize() {
    let n = 18;
    let edges = dense_edges(n);
    let cfg = GraphRareConfig::fast().with_seed(11);
    for kind in RewirerKind::ALL {
        for reset_every in [0usize, 3] {
            let topo = optimizer(n, &edges, EditMode::Both);
            let state = TopoState::new(topo.k_bounds(cfg.k_cap), topo.d_bounds(cfg.k_cap));
            let trace = strategy_trace(&topo, &cfg, kind, state.clone(), 9, reset_every);
            run_trace(&topo, state, &trace, reset_every);
        }
    }
}

/// Guard-cascade variant of the strategy harness: a sparse graph with
/// `d` bounds covering every neighbour, so strategy-proposed deletion
/// prefixes routinely threaten to isolate degree-1 endpoints, so the
/// sequential guard decides edges on both the incremental and the
/// reference path.
#[test]
fn strategy_traces_survive_guard_cascades() {
    let n = 14;
    let edges = guard_cascade_edges(n);
    let mut cfg = GraphRareConfig::fast().with_seed(23);
    cfg.k_cap = 64; // heuristic targets may reach deep into the rankings
    for kind in RewirerKind::ALL {
        for reset_every in [0usize, 4] {
            let topo = optimizer(n, &edges, EditMode::Both);
            let state = guard_state(&topo, cfg.k_cap);
            let trace = strategy_trace(&topo, &cfg, kind, state.clone(), 10, reset_every);
            run_trace(&topo, state, &trace, reset_every);
        }
    }
}

/// Arbitrary counter jumps (checkpoint restores) rather than ±1 walks.
#[test]
fn checkpoint_jumps_match_materialize() {
    let edges: Vec<(usize, usize)> =
        vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4), (6, 0), (7, 6)];
    let topo = optimizer(8, &edges, EditMode::Both);
    let mut state = guard_state(&topo, 8);
    let mut rw = RewiredGraph::new(&topo);
    rw.tensors().gcn_norm();
    rw.tensors().two_hop();
    let jumps: &[&[(usize, usize, usize)]] = &[
        &[(0, 2, 1), (3, 1, 0), (6, 0, 1)],
        &[(0, 0, 3), (1, 0, 2), (2, 0, 2), (7, 0, 1)], // deletion-heavy: guards fire
        &[(4, 3, 0), (5, 2, 0)],
        &[],
        &[(0, 1, 1), (1, 1, 1), (2, 1, 1), (3, 1, 1), (4, 1, 1), (5, 1, 1)],
    ];
    for jump in jumps {
        state.reset();
        for &(v, k, d) in *jump {
            state.set_k(v, k);
            state.set_d(v, d);
        }
        rw.apply(&topo, &state).unwrap();
        assert_equivalent(&rw, &topo, &state);
    }
}
