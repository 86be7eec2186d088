//! Incremental-rewiring benchmark: times the Algorithm-1 hot path —
//! per-step rewire + propagation-operator refresh + homophily — through
//! the reference full-rebuild pipeline (`TopologyOptimizer::materialize`
//! plus a fresh `GraphTensors`) and through the persistent
//! [`graphrare::rewire::RewiredGraph`], and writes `BENCH_rewire.json`.
//!
//! ```text
//! bench_rewire [--quick] [--check-only] [--output BENCH_rewire.json]
//! ```
//!
//! The timed matrix is **strategy × regime** (× graph size): the action
//! traces come from the real [`Rewirer`](graphrare::Rewirer) strategies
//! (`ppo`, `dhgr`, `reference`, `none`) driven exactly like the driver
//! drives them, under two proposal-intensity regimes:
//!
//! * `dense` — the strategy's natural proposals (PPO's exploration phase
//!   moves most counters; heuristics march every node toward its
//!   target);
//! * `sparse` — a seeded ~2% per-step node mask on top of the proposals,
//!   the converged-policy regime where almost every counter holds. Both
//!   paths replay the deletion and addition passes at O(N + Σk + Σd) and
//!   rebuild `gcn_norm` at O(N + E) per step, so the incremental path
//!   wins by skipping `materialize`'s graph clone and edit splice and the
//!   fresh `GraphTensors`, not by touching fewer edges or operator rows.
//!
//! Every cell first replays its whole trace once with *both* engines in
//! lock-step and asserts bit-identical results (edge sets, edge counts,
//! homophily bits, `gcn_norm` rows); a mismatch exits non-zero, which is
//! what `scripts/check.sh` relies on for its smoke. `--quick` shrinks
//! the graphs for that smoke; `--check-only` skips the timed passes (the
//! equivalence replays still run).
//!
//! The report opens with the run envelope (git rev, hardware threads,
//! worker threads, seed), the fields `e2e_bench` prints. The bench only
//! times and checks equivalence; the strategies' accuracies are compared
//! over data splits by `repro_ablation_rl`'s strategy arena.
//!
//! Graphs are heterophilic by construction (target homophily 0.15, the
//! regime GraphRARE targets) so deletion prefixes are non-trivial and
//! the "never isolate an endpoint" guard is exercised.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use graphrare_telemetry as telemetry;

use graphrare::rewire::RewiredGraph;
use graphrare::rewirer::build_rewirer;
use graphrare::topology::{EditMode, TopologyOptimizer};
use graphrare::{GraphRareConfig, RewirerKind, TopoState};
use graphrare_datasets::{generate_spec, DatasetSpec};
use graphrare_entropy::{
    CandidatePool, EntropySequences, RelativeEntropyConfig, RelativeEntropyTable, SequenceConfig,
};
use graphrare_gnn::GraphTensors;
use graphrare_graph::metrics;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// Heap accounting for the benchmark report: `BENCH_rewire.json` carries
// allocation count/bytes/peak alongside the timing numbers.
graphrare_telemetry::install_counting_allocator!();

/// Per-node candidate cap for the timed matrix (the reduced-budget
/// driver configuration's `k_cap`).
const CAP: usize = 6;

/// Seed of every timed matrix cell.
const SEED: u64 = 7;

struct CellRecord {
    strategy: &'static str,
    regime: &'static str,
    n: usize,
    edges: usize,
    steps: usize,
    full_ns_per_step: u128,
    incremental_ns_per_step: u128,
}

/// Median total wall time of `runs` full replays of `f`.
fn median_ns(runs: usize, mut f: impl FnMut()) -> u128 {
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos());
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn heterophilic_spec(n: usize) -> DatasetSpec {
    DatasetSpec {
        name: "synthetic-hetero",
        num_nodes: n,
        num_edges: 4 * n,
        feat_dim: 32,
        num_classes: 5,
        homophily: 0.15,
        degree_exponent: 0.25,
        feature_signal: 6.0,
        feature_density: 0.05,
    }
}

struct Instance {
    topo: TopologyOptimizer,
    /// Per-step ±1 action vectors, the driver's access pattern.
    trace: Vec<Vec<u8>>,
}

/// Proposal-intensity regimes over a strategy's trace (see module doc).
#[derive(Clone, Copy, PartialEq)]
enum Regime {
    Dense,
    Sparse,
}

impl Regime {
    fn name(self) -> &'static str {
        match self {
            Regime::Dense => "dense",
            Regime::Sparse => "sparse",
        }
    }
}

/// Builds one matrix cell: the optimiser plus the action trace the given
/// strategy actually proposes against it, mirroring the driver's loop
/// (propose → apply → feedback) with the regime's node mask applied
/// between propose and apply.
fn build_instance(
    n: usize,
    steps: usize,
    seed: u64,
    kind: RewirerKind,
    regime: Regime,
) -> Instance {
    let g = generate_spec(&heterophilic_spec(n), seed);
    let table = RelativeEntropyTable::new(&g, &RelativeEntropyConfig::default());
    let seqs = EntropySequences::build(
        &g,
        &table,
        &SequenceConfig {
            pool: CandidatePool::GlobalSample { per_node: 16, seed: seed ^ 0xBE7C },
            max_additions: 8,
        },
    );
    let topo = TopologyOptimizer::new(g, seqs, EditMode::Both);

    let mut cfg = GraphRareConfig::fast().with_seed(seed);
    cfg.rewirer = kind;
    cfg.k_cap = CAP;
    // The bench has no GNN split; let every other node count as
    // training-labelled (only DHGR's label term reads it).
    let train: Vec<usize> = (0..n).step_by(2).collect();
    let mut rewirer = build_rewirer(&topo, &cfg, &train);

    let mut state = fresh_state(&topo);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
    let mut trace = Vec::with_capacity(steps);
    for i in 0..steps {
        let mut actions = rewirer.propose(&state);
        if regime == Regime::Sparse {
            // Keep ~2% of the nodes' proposals, hold everything else.
            let mut mask = vec![false; n];
            for _ in 0..(n / 50).max(1) {
                mask[rng.gen_range(0..n)] = true;
            }
            for v in 0..n {
                if !mask[v] {
                    actions[2 * v] = 1;
                    actions[2 * v + 1] = 1;
                }
            }
        }
        state.apply(&actions);
        let window_end = (i + 1) % cfg.update_every == 0;
        rewirer.feedback(0.01, window_end, false, &state);
        trace.push(actions);
    }
    Instance { topo, trace }
}

fn fresh_state(topo: &TopologyOptimizer) -> TopoState {
    TopoState::new(topo.k_bounds(CAP), topo.d_bounds(CAP))
}

/// Lock-step replay of both engines; returns an error message on the
/// first divergence.
fn verify(inst: &Instance) -> Result<(), String> {
    let mut state = fresh_state(&inst.topo);
    let mut rw = RewiredGraph::new(&inst.topo);
    rw.tensors().gcn_norm();
    for (i, actions) in inst.trace.iter().enumerate() {
        state.apply(actions);
        rw.apply(&inst.topo, &state).map_err(|e| format!("step {i}: rewire rejected: {e}"))?;
        let want = inst.topo.materialize(&state);
        if rw.graph().edge_vec() != want.edge_vec() {
            return Err(format!("step {i}: edge sets diverge"));
        }
        if rw.num_edges() != want.num_edges() {
            return Err(format!("step {i}: edge counts diverge"));
        }
        if rw.homophily_ratio().to_bits() != metrics::homophily_ratio(&want).to_bits() {
            return Err(format!("step {i}: homophily bits diverge"));
        }
        let fresh = GraphTensors::new(&want);
        if *rw.tensors().gcn_norm() != *fresh.gcn_norm() {
            return Err(format!("step {i}: gcn_norm diverges"));
        }
    }
    Ok(())
}

fn main() {
    let mut output = PathBuf::from("BENCH_rewire.json");
    let mut quick = false;
    let mut check_only = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => quick = true,
            "--check-only" => check_only = true,
            "--output" => {
                i += 1;
                output = PathBuf::from(argv.get(i).map(String::as_str).unwrap_or_else(|| {
                    eprintln!("usage: bench_rewire [--quick] [--check-only] [--output FILE]");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!(
                    "unknown argument {other}; usage: bench_rewire [--quick] [--check-only] [--output FILE]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    telemetry::install_panic_hook();
    telemetry::init_from_env();
    telemetry::set_enabled(true);
    let counter_base = telemetry::snapshot();
    let alloc_base = telemetry::alloc::snapshot();

    let sizes: &[usize] = if quick { &[300] } else { &[500, 2_000] };
    let steps = if quick { 8 } else { 20 };
    let runs = if quick { 3 } else { 5 };

    let mut records = Vec::new();
    for &n in sizes {
        for kind in RewirerKind::ALL {
            for regime in [Regime::Dense, Regime::Sparse] {
                let strategy = kind.name();
                let regime_name = regime.name();
                let inst = build_instance(n, steps, SEED, kind, regime);
                let base_edges = inst.topo.base().num_edges();
                telemetry::progress!(
                    "n={n} edges={base_edges} strategy={strategy} regime={regime_name}: verifying full-vs-incremental lock-step"
                );
                if let Err(e) = verify(&inst) {
                    eprintln!(
                        "bench_rewire: equivalence FAILED at n={n} strategy={strategy} regime={regime_name}: {e}"
                    );
                    std::process::exit(1);
                }
                if check_only {
                    records.push(CellRecord {
                        strategy,
                        regime: regime_name,
                        n,
                        edges: base_edges,
                        steps,
                        full_ns_per_step: 0,
                        incremental_ns_per_step: 0,
                    });
                    continue;
                }

                // Reference path: every step rebuilds the graph and its
                // operators from scratch, exactly what RareDriver::try_step
                // did before the incremental engine.
                let full_total = median_ns(runs, || {
                    let mut state = fresh_state(&inst.topo);
                    for actions in &inst.trace {
                        state.apply(actions);
                        let g = inst.topo.materialize(&state);
                        let t = GraphTensors::new(&g);
                        std::hint::black_box(t.gcn_norm());
                        std::hint::black_box(metrics::homophily_ratio(&g));
                        std::hint::black_box(g.num_edges());
                    }
                });

                // Incremental path: one persistent engine absorbing
                // per-step deltas. The engine is rebuilt per run (outside
                // nothing is reused), so each sample covers the same
                // trace from the same start state.
                let pre_inc = telemetry::snapshot();
                let inc_total = median_ns(runs, || {
                    let mut state = fresh_state(&inst.topo);
                    let mut rw = RewiredGraph::new(&inst.topo);
                    rw.tensors().gcn_norm();
                    for actions in &inst.trace {
                        state.apply(actions);
                        rw.apply(&inst.topo, &state)
                            .expect("bench state was built against this optimizer");
                        std::hint::black_box(rw.tensors().gcn_norm());
                        std::hint::black_box(rw.homophily_ratio());
                        std::hint::black_box(rw.num_edges());
                    }
                });

                // Where the incremental path spends its time, summed over
                // all timed replays of this cell and over the paths that
                // end in each span name (the `rewire.apply` total is the
                // whole engine; the sub-spans partition it).
                let delta = telemetry::snapshot().since(&pre_inc);
                let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
                for p in delta.paths.iter().filter(|p| p.name().starts_with("rewire.")) {
                    let slot = by_name.entry(p.name()).or_default();
                    *slot = (slot.0.saturating_add(p.count), slot.1.saturating_add(p.total_ns));
                }
                for (name, (count, total_ns)) in by_name {
                    telemetry::progress!(
                        "    {name:<20} count {count:>5}  total {:>8.2} ms",
                        total_ns as f64 / 1e6
                    );
                }

                let full_ns_per_step = full_total / steps as u128;
                let incremental_ns_per_step = inc_total / steps as u128;
                let speedup = full_ns_per_step as f64 / incremental_ns_per_step.max(1) as f64;
                telemetry::progress!(
                    "n={n:<6} {strategy:<9} {regime_name:<7} full {full_ns_per_step:>12} ns/step   incremental {incremental_ns_per_step:>10} ns/step   speedup {speedup:.1}x"
                );
                records.push(CellRecord {
                    strategy,
                    regime: regime_name,
                    n,
                    edges: base_edges,
                    steps,
                    full_ns_per_step,
                    incremental_ns_per_step,
                });
            }
        }
    }

    let counters = telemetry::snapshot().since(&counter_base);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"rewire\",");
    let threads = graphrare_tensor::parallel::current_threads();
    let _ = writeln!(json, "  \"envelope\": {},", graphrare_bench::envelope_json(threads, SEED));
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"check_only\": {check_only},");
    let _ = writeln!(json, "  \"equivalence_checked\": true,");
    json.push_str("  \"rewire_counters\": {");
    let rewire_counters: Vec<_> =
        counters.counters.iter().filter(|(name, _)| name.starts_with("rewire.")).collect();
    for (i, (name, value)) in rewire_counters.iter().enumerate() {
        json.push_str(if i == 0 { "\n" } else { ",\n" });
        json.push_str("    ");
        telemetry::escape_json_str(name, &mut json);
        let _ = write!(json, ": {value}");
    }
    json.push_str("\n  },\n");
    // Heap traffic across the whole benchmark (counting allocator; peak
    // is the process high-water mark, not a delta), or `null` if the
    // wrapper is somehow absent.
    let _ = writeln!(json, "  \"alloc\": {},", telemetry::alloc::delta_json(&alloc_base));
    json.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        let speedup = r.full_ns_per_step as f64 / r.incremental_ns_per_step.max(1) as f64;
        let _ = writeln!(
            json,
            "    {{\"strategy\": \"{}\", \"regime\": \"{}\", \"n\": {}, \"base_edges\": {}, \"steps\": {}, \"full_ns_per_step\": {}, \"incremental_ns_per_step\": {}, \"speedup\": {:.2}}}{comma}",
            r.strategy, r.regime, r.n, r.edges, r.steps, r.full_ns_per_step,
            r.incremental_ns_per_step, speedup
        );
    }
    json.push_str("  ]\n}\n");

    if let Err(e) = std::fs::write(&output, json) {
        eprintln!("failed to write {}: {e}", output.display());
        std::process::exit(1);
    }
    telemetry::progress!("wrote {}", output.display());
    // Flush any GRAPHRARE_TELEMETRY-configured JSONL sink before exit.
    telemetry::clear_sinks();
}
