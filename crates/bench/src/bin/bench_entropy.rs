//! Incremental-entropy benchmark: times the sequence-refresh hot path —
//! `H_s` table + per-node rankings after a batch of edge flips — through
//! the reference full-rebuild pipeline (`StructuralEntropyTable` +
//! `EntropySequences::build`, i.e. the engine's wholesale fallback) and
//! through the per-row path of
//! [`graphrare_entropy::IncrementalEntropy`], and writes
//! `BENCH_entropy.json`. Each batch is one
//! [`reanchor`](graphrare_entropy::IncrementalEntropy::reanchor) onto the
//! graph after that batch, built before any timer starts.
//!
//! ```text
//! bench_entropy [--quick] [--check-only] [--output BENCH_entropy.json]
//! ```
//!
//! Every run first replays the whole flip trace once with *both* engines
//! in lock-step and asserts bit-identical results (anchor graphs, `H`
//! bits, rankings); a mismatch exits non-zero, which is what
//! `scripts/check.sh` relies on for its smoke. `--quick` shrinks the
//! graphs for that smoke; `--check-only` skips the timed passes.
//!
//! Flip batches are sparse (a handful of flips per batch on graphs of
//! thousands of nodes) — the converged-policy regime of the DRL loop,
//! where per-step rewiring deltas are small and the dirty-rows
//! asymptotics show. Both paths rank through the same pruned per-row
//! build, so the speedup measures the dirty-rows saving alone.
//!
//! The file opens with the run envelope (git rev, hardware threads,
//! worker threads, seed), the fields `e2e_bench` prints.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use graphrare_telemetry as telemetry;

// Attribute the refresh pipeline's allocation traffic (count/bytes/peak)
// into BENCH_entropy.json alongside the timings.
telemetry::install_counting_allocator!();

use graphrare_datasets::{generate_spec, DatasetSpec};
use graphrare_entropy::{CandidatePool, IncrementalEntropy, RelativeEntropyConfig, SequenceConfig};
use graphrare_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed of every generated graph and flip trace.
const SEED: u64 = 7;

struct SizeRecord {
    pool: &'static str,
    n: usize,
    edges: usize,
    batches: usize,
    flips_per_batch: usize,
    full_ns_per_batch: u128,
    incremental_ns_per_batch: u128,
}

/// Average degree 4, the citation-graph regime GraphRARE evaluates on
/// (Cora/Citeseer): sparse enough that the RemoteRing dirty balls stay a
/// small fraction of the graph, which is the precondition for per-row
/// refresh to win (denser graphs push the engine into its wholesale
/// fallback instead).
fn heterophilic_spec(n: usize) -> DatasetSpec {
    DatasetSpec {
        name: "synthetic-hetero",
        num_nodes: n,
        num_edges: 2 * n,
        feat_dim: 32,
        num_classes: 5,
        homophily: 0.15,
        degree_exponent: 0.25,
        feature_signal: 6.0,
        feature_density: 0.05,
    }
}

fn pool_name(pool: CandidatePool) -> &'static str {
    match pool {
        CandidatePool::RemoteRing { .. } => "remote_ring",
        CandidatePool::GlobalSample { .. } => "global_sample",
    }
}

struct Instance {
    graph: Graph,
    cfg: SequenceConfig,
    /// The graph after each batch of the flip trace.
    targets: Vec<Graph>,
}

/// Sparse flip trace: each batch flips `flips_per_batch` distinct random
/// pairs, each a genuine presence change against the graph as of that
/// batch; the graph after each batch is kept, so the trace is replayable
/// from the start graph any number of times.
fn build_instance(
    n: usize,
    batches: usize,
    flips_per_batch: usize,
    seed: u64,
    pool: CandidatePool,
) -> Instance {
    let graph = generate_spec(&heterophilic_spec(n), seed);
    let mut mirror = graph.clone();
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
    let targets = (0..batches)
        .map(|_| {
            let mut batch: Vec<(usize, usize, bool)> = Vec::with_capacity(flips_per_batch);
            while batch.len() < flips_per_batch {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u == v || batch.iter().any(|&(a, b, _)| (a, b) == (u, v) || (b, a) == (u, v)) {
                    continue;
                }
                batch.push((u, v, !mirror.has_edge(u, v)));
            }
            let (added, removed) = {
                use graphrare_graph::EdgeEdit;
                let edits: Vec<(usize, usize, EdgeEdit)> = batch
                    .iter()
                    .map(|&(u, v, add)| (u, v, if add { EdgeEdit::Add } else { EdgeEdit::Remove }))
                    .collect();
                mirror.apply_edits(&edits)
            };
            assert_eq!(added + removed, batch.len(), "trace batches must be genuine flips");
            mirror.clone()
        })
        .collect();
    Instance { graph, cfg: SequenceConfig { pool, max_additions: 8 }, targets }
}

/// Threshold ≥ 1 pins the benchmarked engine to its per-row path even
/// when a dirty ball covers most of a (small, quick-mode) graph; the
/// shipping default (0.5) would fall back to the very baseline being
/// compared against, which is safe but not what this bench measures.
const PER_ROW: f64 = 2.0;

/// Lock-step replay of the per-row path against the wholesale fallback
/// (threshold 0 → every batch is a from-scratch rebuild); returns an
/// error message on the first divergence. `H` bits are compared all-pairs
/// up to 1000 nodes and over a deterministic 200-node sample above that;
/// the ranking comparison (`EntropySequences` equality, entropy values
/// included) always covers every node.
fn verify(inst: &Instance) -> Result<(), String> {
    let ecfg = RelativeEntropyConfig::default();
    let mut inc = IncrementalEntropy::new(&inst.graph, &ecfg, inst.cfg);
    inc.set_wholesale_threshold(PER_ROW);
    let mut full = IncrementalEntropy::new(&inst.graph, &ecfg, inst.cfg);
    full.set_wholesale_threshold(0.0);
    let n = inst.graph.num_nodes();
    let probe: Vec<usize> =
        if n <= 1000 { (0..n).collect() } else { (0..200).map(|i| (i * 9973) % n).collect() };
    for (i, target) in inst.targets.iter().enumerate() {
        let stats = inc.reanchor(target);
        let full_stats = full.reanchor(target);
        if !full_stats.wholesale {
            return Err(format!("batch {i}: baseline engine skipped its wholesale rebuild"));
        }
        if stats.wholesale {
            return Err(format!("batch {i}: per-row engine fell back despite threshold {PER_ROW}"));
        }
        if inc.graph().edge_vec() != full.graph().edge_vec() {
            return Err(format!("batch {i}: anchor graphs diverge"));
        }
        for &v in &probe {
            for &u in &probe {
                if inc.table().entropy(v, u).to_bits() != full.table().entropy(v, u).to_bits() {
                    return Err(format!("batch {i}: H({v},{u}) diverges"));
                }
            }
        }
        if inc.sequences() != full.sequences() {
            return Err(format!("batch {i}: rankings diverge"));
        }
    }
    Ok(())
}

/// Median over `runs` of the trace replay through an engine at the given
/// wholesale threshold; engine construction stays outside the timer.
fn median_replay_ns(inst: &Instance, threshold: f64, runs: usize) -> u128 {
    let ecfg = RelativeEntropyConfig::default();
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let mut engine = IncrementalEntropy::new(&inst.graph, &ecfg, inst.cfg);
        engine.set_wholesale_threshold(threshold);
        let t = Instant::now();
        for target in &inst.targets {
            std::hint::black_box(engine.reanchor(target));
        }
        samples.push(t.elapsed().as_nanos());
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn main() {
    let mut output = PathBuf::from("BENCH_entropy.json");
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
                    eprintln!("usage: bench_entropy [--quick] [--check-only] [--output FILE]");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!(
                    "unknown argument {other}; usage: bench_entropy [--quick] [--check-only] [--output FILE]"
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

    let sizes: &[usize] = if quick { &[300] } else { &[500, 2_000, 5_000] };
    let pools: &[CandidatePool] = &[
        CandidatePool::RemoteRing { hops: 2 },
        CandidatePool::GlobalSample { per_node: 16, seed: 0xBE7C },
    ];
    let batches = if quick { 6 } else { 16 };
    let runs = if quick { 2 } else { 3 };

    let mut records = Vec::new();
    for &n in sizes {
        for &pool in pools {
            // A couple of flips per batch: the converged-policy regime,
            // where most DRL steps barely move the topology. The full
            // baseline's cost is batch-size independent (it always
            // rebuilds everything), so this isolates the dirty-rows
            // asymptotics the engine exists for.
            let flips_per_batch = 2;
            let inst = build_instance(n, batches, flips_per_batch, SEED, pool);
            let base_edges = inst.graph.num_edges();
            let name = pool_name(pool);
            telemetry::progress!(
                "n={n} edges={base_edges} pool={name}: verifying incremental-vs-full lock-step"
            );
            if let Err(e) = verify(&inst) {
                eprintln!("bench_entropy: equivalence FAILED at n={n} pool={name}: {e}");
                std::process::exit(1);
            }
            if check_only {
                records.push(SizeRecord {
                    pool: name,
                    n,
                    edges: base_edges,
                    batches,
                    flips_per_batch,
                    full_ns_per_batch: 0,
                    incremental_ns_per_batch: 0,
                });
                continue;
            }

            // Reference path: threshold 0 forces the wholesale fallback on
            // every batch — a from-scratch structural-table + sequence
            // rebuild, what a frozen-sequence refresh would have to pay.
            let full_total = median_replay_ns(&inst, 0.0, runs);
            // Per-row path, pinned past the fallback (see PER_ROW).
            let inc_total = median_replay_ns(&inst, PER_ROW, runs);

            let full_ns_per_batch = full_total / batches as u128;
            let incremental_ns_per_batch = inc_total / batches as u128;
            let speedup = full_ns_per_batch as f64 / incremental_ns_per_batch.max(1) as f64;
            telemetry::progress!(
                "n={n:<6} {name:<13} full {full_ns_per_batch:>12} ns/batch   incremental {incremental_ns_per_batch:>10} ns/batch   speedup {speedup:.1}x"
            );
            records.push(SizeRecord {
                pool: name,
                n,
                edges: base_edges,
                batches,
                flips_per_batch,
                full_ns_per_batch,
                incremental_ns_per_batch,
            });
        }
    }

    let counters = telemetry::snapshot().since(&counter_base);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"entropy\",");
    let threads = graphrare_tensor::parallel::current_threads();
    let _ = writeln!(json, "  \"envelope\": {},", graphrare_bench::envelope_json(threads, SEED));
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"check_only\": {check_only},");
    let _ = writeln!(json, "  \"equivalence_checked\": true,");
    json.push_str("  \"entropy_counters\": {");
    let entropy_counters: Vec<_> =
        counters.counters.iter().filter(|(name, _)| name.starts_with("entropy.")).collect();
    for (i, (name, value)) in entropy_counters.iter().enumerate() {
        json.push_str(if i == 0 { "\n" } else { ",\n" });
        json.push_str("    ");
        telemetry::escape_json_str(name, &mut json);
        let _ = write!(json, ": {value}");
    }
    json.push_str("\n  },\n");
    let _ = writeln!(json, "  \"alloc\": {},", telemetry::alloc::delta_json(&alloc_base));
    json.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        let speedup = r.full_ns_per_batch as f64 / r.incremental_ns_per_batch.max(1) as f64;
        let _ = writeln!(
            json,
            "    {{\"pool\": \"{}\", \"n\": {}, \"base_edges\": {}, \"batches\": {}, \"flips_per_batch\": {}, \"full_ns_per_batch\": {}, \"incremental_ns_per_batch\": {}, \"speedup\": {:.2}}}{comma}",
            r.pool,
            r.n,
            r.edges,
            r.batches,
            r.flips_per_batch,
            r.full_ns_per_batch,
            r.incremental_ns_per_batch,
            speedup
        );
    }
    json.push_str("  ]\n}\n");

    if let Err(e) = std::fs::write(&output, json) {
        eprintln!("failed to write {}: {e}", output.display());
        std::process::exit(1);
    }
    telemetry::progress!("wrote {}", output.display());
    telemetry::clear_sinks();
}
