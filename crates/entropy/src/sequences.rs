//! Node entropy sequences (Sec. IV-A.4).
//!
//! For every node GraphRARE maintains two ranked lists built from the
//! relative entropy:
//!
//! * **additions** — remote candidates (distance ≥ 2) sorted by
//!   *descending* `H`; connecting the top-`k_v` of them is how the
//!   topology optimiser adds edges;
//! * **deletions** — current one-hop neighbours sorted by *ascending* `H`;
//!   removing the first `d_v` discards the least-related neighbours.
//!
//! The candidate pool is configurable: a BFS remote ring (the common case;
//! "semantically related nodes might be multi-hop away") or a global
//! sample for graphs whose rings explode.
//!
//! A node keeps only its best `max_additions` candidates, so the build
//! computes the cheap `H_f` of every candidate but the structural `H_s`
//! (a Jensen–Shannon divergence) only for a candidate that could still
//! enter the list: one whose upper bound on `H` is not below the `H` of
//! the worst entry of a full list.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use graphrare_graph::{traversal, Graph};
use graphrare_tensor::DenseRow;

use crate::relative::RelativeEntropyTable;

/// Where addition candidates come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CandidatePool {
    /// Nodes at BFS distance in `[2, hops]` from the ego node.
    RemoteRing {
        /// Maximum hop distance considered.
        hops: usize,
    },
    /// A seeded uniform sample of non-neighbour nodes (used when rings are
    /// too dense, e.g. Squirrel-like graphs).
    GlobalSample {
        /// Candidates sampled per node.
        per_node: usize,
        /// Sampling seed.
        seed: u64,
    },
}

/// Configuration of sequence construction.
#[derive(Clone, Copy, Debug)]
pub struct SequenceConfig {
    /// Candidate pool for additions.
    pub pool: CandidatePool,
    /// Keep at most this many ranked addition candidates per node (the DRL
    /// agent's `k` can never exceed it).
    pub max_additions: usize,
}

impl Default for SequenceConfig {
    fn default() -> Self {
        Self { pool: CandidatePool::RemoteRing { hops: 3 }, max_additions: 16 }
    }
}

/// One node's ranked `(candidate id, entropy)` list.
type Ranking = Vec<(u32, f32)>;

/// Descending entropy; node id breaks ties deterministically. Ids are
/// unique within a pool, so this is a strict total order and unstable
/// sorting/selection cannot reorder "equal" elements. `total_cmp` keeps
/// the order total even when degenerate features drive an entropy to NaN
/// (NaN ranks above every finite value in descending order —
/// deterministic, never a panic).
fn by_entropy_desc(a: &(u32, f32), b: &(u32, f32)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Ascending entropy: least-related first; ids ascending on ties.
fn by_entropy_asc(a: &(u32, f32), b: &(u32, f32)) -> std::cmp::Ordering {
    a.1.total_cmp(&b.1).then(a.0.cmp(&b.0))
}

/// A held addition candidate `(id, H)`. It orders like
/// [`by_entropy_desc`], so the top of a max-heap of them is the
/// worst-ranked entry.
struct Held(u32, f32);

impl Ord for Held {
    fn cmp(&self, other: &Self) -> Ordering {
        by_entropy_desc(&(self.0, self.1), &(other.0, other.1))
    }
}

impl PartialOrd for Held {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Held {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Held {}

/// Per-thread scratch for [`build_row`]: the BFS ring state, the
/// candidate id buffer, the ego node's loaded feature row, the
/// candidates' `(H_f, id)` and the running top list, reused across nodes
/// so the node-parallel build allocates only its output rankings.
struct BuildScratch {
    ring: traversal::RingScratch,
    candidates: Vec<usize>,
    features: DenseRow,
    scored: Vec<(f64, usize)>,
    top: BinaryHeap<Held>,
}

impl BuildScratch {
    fn new() -> Self {
        Self {
            ring: traversal::RingScratch::new(),
            candidates: Vec::new(),
            features: DenseRow::default(),
            scored: Vec::new(),
            top: BinaryHeap::new(),
        }
    }
}

/// Node `v`'s `(additions, deletions)` rankings, plus how many addition
/// candidates it scored and for how many of them it computed `H_s`.
struct RowBuild {
    additions: Ranking,
    deletions: Ranking,
    pairs: u64,
    js_evals: u64,
}

/// Fills `scratch.candidates` with node `v`'s addition-candidate pool.
fn candidates_into(g: &Graph, pool: CandidatePool, v: usize, scratch: &mut BuildScratch) {
    scratch.candidates.clear();
    match pool {
        CandidatePool::RemoteRing { hops } => {
            traversal::remote_ring_into(g, v, hops, &mut scratch.ring, &mut scratch.candidates);
        }
        CandidatePool::GlobalSample { per_node, seed } => {
            let mut rng = StdRng::seed_from_u64(seed ^ v as u64);
            scratch.candidates.extend(sample_non_neighbors(g, v, per_node, &mut rng));
        }
    }
}

/// Builds node `v`'s rankings, one row of [`EntropySequences::build`].
///
/// The additions are the best `max_additions` candidates under the
/// strict total order [`by_entropy_desc`], held in a max-heap whose top
/// is the worst of them. Once the heap is full, a candidate whose bound
/// ([`RelativeEntropyTable::entropy_bound`], rounded to `f32`) is
/// strictly below the top's stored `H` ranks strictly below `max_additions`
/// held entries whatever its `H_s`, so its `H_s` is never computed. The
/// top only improves, so no skipped candidate belongs in the final list,
/// which therefore equals a full sort truncated to `max_additions`. A NaN
/// or infinite bound compares below nothing and never skips. Deletions
/// keep every neighbour and are always computed in full.
fn build_row(
    g: &Graph,
    table: &RelativeEntropyTable,
    cfg: &SequenceConfig,
    v: usize,
    scratch: &mut BuildScratch,
) -> RowBuild {
    candidates_into(g, cfg.pool, v, scratch);
    table.load_features(v, &mut scratch.features);
    let features = &scratch.features;
    let scored = &mut scratch.scored;
    scored.clear();
    scored.extend(scratch.candidates.iter().map(|&u| (table.feature_entropy_from(features, u), u)));
    // Visit the `max_additions` largest `H_f` first, so the cut-off starts
    // near its final value and bounds the rest tightly. The list does
    // not depend on the visit order.
    if cfg.max_additions > 0 && scored.len() > cfg.max_additions {
        scored.select_nth_unstable_by(cfg.max_additions - 1, |a, b| b.0.total_cmp(&a.0));
    }
    let top = &mut scratch.top;
    let mut js_evals = 0;
    for &(hf, u) in scored.iter() {
        let full = top.len() == cfg.max_additions;
        if full && top.peek().is_some_and(|worst| (table.entropy_bound(hf) as f32) < worst.1) {
            continue;
        }
        js_evals += 1;
        let held = Held(u as u32, table.with_structure(hf, v, u) as f32);
        if !full {
            top.push(held);
        } else if let Some(mut worst) = top.peek_mut() {
            if held < *worst {
                *worst = held;
            }
        }
    }
    let mut additions: Ranking = top.drain().map(|Held(u, h)| (u, h)).collect();
    additions.sort_unstable_by(by_entropy_desc);

    let mut deletions: Ranking = g
        .neighbors(v)
        .map(|u| {
            (u as u32, table.with_structure(table.feature_entropy_from(features, u), v, u) as f32)
        })
        .collect();
    deletions.sort_unstable_by(by_entropy_asc);
    RowBuild { additions, deletions, pairs: scratch.candidates.len() as u64, js_evals }
}

/// Per-node ranked addition and deletion candidates.
#[derive(Clone, Debug, PartialEq)]
pub struct EntropySequences {
    additions: Vec<Ranking>,
    deletions: Vec<Ranking>,
}

impl EntropySequences {
    /// Builds sequences for every node of `g` from a precomputed entropy
    /// table.
    ///
    /// Nodes are independent, so the build runs node-parallel
    /// ([`graphrare_tensor::parallel`]). [`CandidatePool::GlobalSample`]
    /// draws from a per-node RNG seeded `seed ^ v`, making the sample
    /// independent of visit order — the output is identical for any
    /// thread count.
    ///
    /// The `entropy_sequences` event and the `entropy.pairs` /
    /// `entropy.js_evals` counters report how many addition candidates
    /// were scored and for how many `H_s` was computed (the rest were
    /// ruled out by a bound, see the module docs); both counts are the
    /// same for any thread count.
    pub fn build(g: &Graph, table: &RelativeEntropyTable, cfg: &SequenceConfig) -> Self {
        let _span = graphrare_telemetry::span("entropy.sequence_build");
        let clock = graphrare_telemetry::Stopwatch::start();
        let n = g.num_nodes();
        let rows =
            graphrare_tensor::parallel::par_map_scratch(n, BuildScratch::new, |scratch, v| {
                build_row(g, table, cfg, v, scratch)
            });
        let (mut pairs, mut js_evals) = (0, 0);
        let mut seqs = Self { additions: Vec::with_capacity(n), deletions: Vec::with_capacity(n) };
        for row in rows {
            pairs += row.pairs;
            js_evals += row.js_evals;
            seqs.additions.push(row.additions);
            seqs.deletions.push(row.deletions);
        }
        let build_ns = clock.ns();
        graphrare_telemetry::counter("entropy.pairs", pairs);
        graphrare_telemetry::counter("entropy.js_evals", js_evals);
        graphrare_telemetry::emit_with(|| {
            graphrare_telemetry::Event::new("entropy_sequences")
                .u64("nodes", n as u64)
                .u64("pairs", pairs)
                .u64("js_evals", js_evals)
                .u64("build_ns", build_ns)
        });
        seqs
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.additions.len()
    }

    /// Whether the sequences are empty.
    pub fn is_empty(&self) -> bool {
        self.additions.is_empty()
    }

    /// Ranked addition candidates of node `v` (descending entropy).
    pub fn additions(&self, v: usize) -> &[(u32, f32)] {
        &self.additions[v]
    }

    /// Ranked deletion candidates of node `v` (ascending entropy), as of
    /// sequence-construction time.
    pub fn deletions(&self, v: usize) -> &[(u32, f32)] {
        &self.deletions[v]
    }

    /// Largest usable `k` for node `v`.
    pub fn max_k(&self, v: usize) -> usize {
        self.additions[v].len()
    }

    /// Largest usable `d` for node `v`.
    pub fn max_d(&self, v: usize) -> usize {
        self.deletions[v].len()
    }

    /// The GCN-RA ablation ("GraphRARE without relative entropy"): returns
    /// a copy whose per-node addition and deletion orders are randomly
    /// shuffled, destroying the entropy ranking while keeping the pools.
    pub fn shuffled(&self, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut shuffle = |list: &[(u32, f32)]| {
            let mut l = list.to_vec();
            for i in (1..l.len()).rev() {
                let j = rng.gen_range(0..=i);
                l.swap(i, j);
            }
            l
        };
        Self {
            additions: self.additions.iter().map(|l| shuffle(l)).collect(),
            deletions: self.deletions.iter().map(|l| shuffle(l)).collect(),
        }
    }
}

/// Uniform sample (without replacement) of up to `count` nodes that are
/// neither `v` nor its current neighbours.
///
/// Rejection sampling is capped at `count * 20` attempts so a dense
/// neighbourhood cannot spin forever; when the cap trips with eligible
/// nodes still unsampled (near-complete graphs), a deterministic sweep
/// over the remaining ids tops the sample up, so the function returns
/// exactly `min(count, eligible)` candidates instead of silently
/// under-sampling.
fn sample_non_neighbors(g: &Graph, v: usize, count: usize, rng: &mut StdRng) -> Vec<usize> {
    let n = g.num_nodes();
    let mut out = Vec::with_capacity(count);
    let mut tried = std::collections::HashSet::new();
    let mut attempts = 0;
    while out.len() < count && attempts < count * 20 && tried.len() + g.degree(v) + 1 < n {
        attempts += 1;
        let u = rng.gen_range(0..n);
        if u == v || g.has_edge(v, u) || !tried.insert(u) {
            continue;
        }
        out.push(u);
    }
    if out.len() < count {
        for u in 0..n {
            if out.len() == count {
                break;
            }
            if u == v || g.has_edge(v, u) || tried.contains(&u) {
                continue;
            }
            out.push(u);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relative::{RelativeEntropyConfig, RelativeEntropyTable};
    use graphrare_tensor::Matrix;

    fn sample_graph() -> Graph {
        // Path 0-1-2-3-4 plus a chord 0-4 keeps rings interesting.
        let mut feats = Matrix::zeros(5, 3);
        for v in 0..5 {
            feats.set(v, v % 3, 1.0);
        }
        Graph::from_edges(
            5,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
            feats,
            vec![0, 1, 2, 0, 1],
            3,
        )
    }

    fn build(cfg: &SequenceConfig) -> (Graph, EntropySequences) {
        let g = sample_graph();
        let table = RelativeEntropyTable::new(&g, &RelativeEntropyConfig::default());
        let seqs = EntropySequences::build(&g, &table, cfg);
        (g, seqs)
    }

    #[test]
    fn additions_exclude_self_and_neighbors() {
        let (g, seqs) = build(&SequenceConfig::default());
        for v in 0..g.num_nodes() {
            for &(u, _) in seqs.additions(v) {
                let u = u as usize;
                assert_ne!(u, v);
                assert!(!g.has_edge(v, u), "candidate {u} already adjacent to {v}");
            }
        }
    }

    #[test]
    fn additions_sorted_descending() {
        let (_, seqs) = build(&SequenceConfig::default());
        for v in 0..seqs.len() {
            let adds = seqs.additions(v);
            for w in adds.windows(2) {
                assert!(w[0].1 >= w[1].1);
            }
        }
    }

    #[test]
    fn deletions_cover_neighbors_ascending() {
        let (g, seqs) = build(&SequenceConfig::default());
        for v in 0..g.num_nodes() {
            let dels = seqs.deletions(v);
            assert_eq!(dels.len(), g.degree(v));
            for w in dels.windows(2) {
                assert!(w[0].1 <= w[1].1);
            }
        }
    }

    #[test]
    fn max_additions_truncates() {
        let cfg = SequenceConfig { max_additions: 1, ..Default::default() };
        let (_, seqs) = build(&cfg);
        for v in 0..seqs.len() {
            assert!(seqs.max_k(v) <= 1);
        }
    }

    #[test]
    fn global_sample_respects_constraints() {
        let cfg = SequenceConfig {
            pool: CandidatePool::GlobalSample { per_node: 2, seed: 5 },
            max_additions: 16,
        };
        let (g, seqs) = build(&cfg);
        for v in 0..g.num_nodes() {
            assert!(seqs.additions(v).len() <= 2);
            for &(u, _) in seqs.additions(v) {
                assert!(!g.has_edge(v, u as usize));
                assert_ne!(u as usize, v);
            }
        }
    }

    #[test]
    fn shuffled_preserves_multiset() {
        let (_, seqs) = build(&SequenceConfig::default());
        let shuffled = seqs.shuffled(9);
        for v in 0..seqs.len() {
            let mut a: Vec<u32> = seqs.additions(v).iter().map(|&(u, _)| u).collect();
            let mut b: Vec<u32> = shuffled.additions(v).iter().map(|&(u, _)| u).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn non_finite_entropies_sort_without_panicking() {
        // An infinite feature makes the feature range non-finite, so its
        // scale is 0, and the pair (0, 3) whose dot is infinite gets a
        // feature entropy of inf x 0 = NaN. That used to panic the
        // `partial_cmp(..).unwrap()` ranking comparators; `total_cmp`
        // keeps the order total, and a NaN bound never skips a
        // candidate: the build must succeed and still cover every
        // neighbour / candidate deterministically.
        let mut feats = Matrix::zeros(4, 2);
        feats.set(0, 0, f32::INFINITY);
        feats.set(3, 0, 1.0);
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)], feats, vec![0, 1, 0, 1], 2);
        let table = RelativeEntropyTable::new(&g, &RelativeEntropyConfig::default());
        let seqs = EntropySequences::build(
            &g,
            &table,
            &SequenceConfig { pool: CandidatePool::RemoteRing { hops: 3 }, max_additions: 8 },
        );
        for v in 0..g.num_nodes() {
            assert_eq!(seqs.max_d(v), g.degree(v), "deletion list of {v} lost neighbours");
        }
        assert!(seqs.additions(0).iter().any(|&(u, h)| u == 3 && h.is_nan()), "no NaN ranked");
        // Building twice yields the same ranking: NaN ordering is total.
        let again = EntropySequences::build(
            &g,
            &table,
            &SequenceConfig { pool: CandidatePool::RemoteRing { hops: 3 }, max_additions: 8 },
        );
        for v in 0..g.num_nodes() {
            let ids =
                |s: &EntropySequences| s.additions(v).iter().map(|&(u, _)| u).collect::<Vec<_>>();
            assert_eq!(ids(&seqs), ids(&again));
        }
    }

    #[test]
    fn sample_non_neighbors_tops_up_on_near_complete_graph() {
        // Node 0 is adjacent to all but two of 200 nodes: the rejection
        // cap (count * 20 draws) almost never finds both eligible ids, so
        // the deterministic sweep must top the sample up.
        let n = 200;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if !(u == 0 && (v == 57 || v == 133)) {
                    edges.push((u, v));
                }
            }
        }
        let g = Graph::from_edges(n, &edges, Matrix::zeros(n, 1), vec![0; n], 1);
        let mut rng = StdRng::seed_from_u64(42);
        let mut got = sample_non_neighbors(&g, 0, 2, &mut rng);
        got.sort_unstable();
        assert_eq!(got, vec![57, 133]);
        // Asking for more than exist returns exactly the eligible set.
        let mut rng = StdRng::seed_from_u64(7);
        let mut all = sample_non_neighbors(&g, 0, 10, &mut rng);
        all.sort_unstable();
        assert_eq!(all, vec![57, 133]);
    }

    #[test]
    fn shuffled_changes_order_somewhere() {
        let (_, seqs) = build(&SequenceConfig::default());
        let shuffled = seqs.shuffled(1);
        let changed = (0..seqs.len()).any(|v| {
            seqs.additions(v).iter().map(|&(u, _)| u).collect::<Vec<_>>()
                != shuffled.additions(v).iter().map(|&(u, _)| u).collect::<Vec<_>>()
        });
        assert!(changed, "shuffle left every sequence identical");
    }
}
