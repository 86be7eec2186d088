//! Incremental rewiring: the Algorithm-1 hot path without full rebuilds.
//!
//! [`TopologyOptimizer::materialize`] reconstructs `G_t` from scratch —
//! clone the base graph, replay every deletion and addition — and the
//! driver then pays `GraphTensors::new` for fresh propagation operators.
//! Both costs are `O(N + E)` (worse for the two-hop operator) even though
//! one DRL step moves each per-node counter by at most one.
//!
//! [`RewiredGraph`] keeps the current `G_t` alive and applies only the
//! *delta* between two [`TopoState`]s: the flip set and the homophily
//! numerator cost `O(changed)`, the graph absorbs the flips in one CSR
//! splice, and [`GraphTensors::apply_flips`] rebuilds every built operator
//! in place into its existing storage. The contract is exactness: after
//! `apply(topo, s)` the held graph is bit-identical to
//! `topo.materialize(&s)` and every operator is bit-identical to a fresh
//! build — enforced by the `rewire_equivalence` property suite.
//!
//! # Table-driven, allocation-free layout
//!
//! The optimiser's base graph and sequences are immutable for the lifetime
//! of an anchoring, so everything the per-step scan needs is precomputed
//! into flat tables when the instance (re-)anchors:
//!
//! * every undirected **base edge** gets an *edge id* (`eid`) assigned in
//!   ascending [`edge_key`] order (`eid_key` maps back), so sorted eid
//!   vectors iterate exactly like the former key-ordered `BTreeSet`s;
//! * the **partner index** `del_off`/`del_eid` maps deletion-sequence
//!   position `(v, i)` straight to the slated edge's eid, and
//!   `add_off`/`add_slot` maps addition-sequence position `(v, i)` to a
//!   canonical per-edge *slot* (`slot_key` maps back) — counter moves
//!   index arrays instead of probing hash maps;
//! * refcounts (`add_cnt`, `slated_cnt`), the removed set (`removed`
//!   bool-vec by eid) and the risky census (`r` plus `risky_count`) are
//!   plain vectors over those id spaces.
//!
//! All per-step working memory lives in [`ApplyScratch`]: sorted-`Vec`
//! buffers reused across steps and epoch-stamped mark arrays (a
//! generation bump replaces clearing), so a steady-state
//! [`apply`](RewiredGraph::apply) performs **zero heap allocations** —
//! including the operator refresh, which rebuilds cached CSR storage in
//! place (see `GraphTensors`). The `rewire_alloc` regression test pins
//! this with the counting allocator.
//!
//! # Why the deletion pass is the hard part
//!
//! Additions are a set union of per-node top-`k_v` prefixes: order never
//! matters, so per-edge reference counts track membership exactly.
//! Deletions are different — `materialize` walks nodes in ascending order
//! and skips a removal whenever it would isolate either endpoint *at that
//! moment* (`degree > 1` on the evolving graph), which makes the outcome
//! order- and state-dependent. Two facts restore incrementality:
//!
//! 1. The pass only ever *decrements* degrees. Call a node *risky* when
//!    every one of its base edges is slated for deletion
//!    (`r[x] == base_deg(x)` where `r[x]` counts distinct slated edges at
//!    `x`). At any attempt on an edge incident to a non-risky `x`, at most
//!    `r[x] − 1` of `x`'s edges are already gone, so
//!    `degree(x) ≥ base_deg(x) − r[x] + 1 ≥ 2` and the guard factor at `x`
//!    provably passes. Hence only edges with a risky endpoint can ever be
//!    *kept* by the guard; every other slated edge is removed
//!    unconditionally and pure refcount bookkeeping suffices.
//! 2. The uncertain edges are resolved by a *localized* re-simulation:
//!    replay, in `materialize`'s global order, only the deletion prefixes
//!    of risky nodes and their base neighbours (every attempt on an
//!    uncertain edge originates there), tracking degrees of risky nodes
//!    alone. Guard outcomes are monotone within a pass (degrees never
//!    increase), so each uncertain edge is decided at its first attempt.
//!    Cost is `O(Σ_{v ∈ risky ∪ N(risky)} d_v)`, not `O(Σ d_v)`.
//!
//! The removed set is maintained as `slated ∖ kept` across transitions,
//! and the final topology is plain set algebra,
//! `G_t = (base ∖ removed) ∪ additions`, reconciled edge-by-edge against
//! the live graph with idempotent edits.
//!
//! # Kept-cache
//!
//! The localized replay itself is memoised per *risky component* — a
//! connected component of the base graph restricted to risky nodes.
//! Components are independent: an uncertain edge has at least one risky
//! endpoint; if both endpoints are risky they are base-adjacent and hence
//! in the same component, and a non-risky replay node's guard factor
//! always passes, so nothing couples two components' verdicts. Each
//! component's verdict depends only on its member set and the deletion
//! prefixes of `members ∪ N(members)`, so a cache entry keyed by the
//! component's smallest member and validated against a `(node, d)`
//! snapshot of exactly those nodes can be reused across transitions that
//! leave the component untouched — the common case when the DRL agent
//! edits one node's counters at a time. Cache-entry storage is updated in
//! place on re-derivation, so steady-state misses reuse the entry's
//! capacity.
//!
//! # Failure
//!
//! The scan validates the passed state/optimizer pair against its
//! anchored tables instead of panicking: a corrupt or version-skewed
//! checkpoint restore surfaces as a typed [`RewireError`] the caller
//! propagates as a per-run failure (under `graphrare-serve`, one tenant's
//! run fails; the worker slot survives).

use graphrare_entropy::EntropySequences;
use graphrare_gnn::GraphTensors;
use graphrare_graph::{edge_key, metrics, unkey, Graph};
use graphrare_telemetry as telemetry;

use crate::fxmap::FxHashMap;
use crate::state::TopoState;
use crate::topology::{EditMode, TopologyOptimizer};

/// What one [`RewiredGraph::apply`] changed on the live graph.
#[derive(Clone, Debug, Default)]
pub struct RewireDelta {
    /// Edges added to the graph by this transition (sorted).
    pub added: Vec<(usize, usize)>,
    /// Edges removed from the graph by this transition (sorted).
    pub removed: Vec<(usize, usize)>,
    /// Whether the deletion pass had to be re-simulated (a node risked
    /// isolation) instead of taking the pure refcount fast path.
    pub resimulated: bool,
}

impl RewireDelta {
    /// True when the transition left the graph untouched.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// Typed failure of [`RewiredGraph::apply`]: the passed state/optimizer
/// pair contradicts the bookkeeping accumulated under the anchored
/// optimizer — the shape a corrupt or version-skewed checkpoint restore
/// (or a caller passing a different optimizer) produces. The instance may
/// be left partially transitioned; treat the run as failed and discard
/// the instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RewireError {
    /// Releasing addition-selected edge `{u, v}` would drive its
    /// refcount negative. Structurally unreachable under the positional
    /// partner index (decrements revisit exactly the incremented
    /// positions); kept as defense-in-depth so corruption surfaces as a
    /// per-run failure instead of silent state damage.
    AdditionUnderflow {
        /// Smaller endpoint of the edge.
        u: usize,
        /// Larger endpoint of the edge.
        v: usize,
    },
    /// Releasing slated edge `{u, v}` would drive its refcount negative
    /// (same defense-in-depth as `AdditionUnderflow`).
    DeletionUnderflow {
        /// Smaller endpoint of the edge.
        u: usize,
        /// Larger endpoint of the edge.
        v: usize,
    },
    /// A node's prefix under the passed optimizer extends beyond the
    /// anchored sequence row — the optimizer is not the one this
    /// instance was anchored on.
    SequenceSkew {
        /// The node whose sequence lengths disagree.
        node: usize,
    },
}

impl std::fmt::Display for RewireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            RewireError::AdditionUnderflow { u, v } => {
                write!(f, "addition refcount underflow on edge {u}-{v}")
            }
            RewireError::DeletionUnderflow { u, v } => {
                write!(f, "deletion refcount underflow on edge {u}-{v}")
            }
            RewireError::SequenceSkew { node } => {
                write!(f, "sequence skew at node {node}: prefix exceeds the anchored sequence row")
            }
        }
    }
}

impl std::error::Error for RewireError {}

/// One memoised risky-component verdict (see the module docs).
struct KeptEntry {
    /// Ascending risky members of the component.
    members: Vec<usize>,
    /// `(node, d)` snapshot of `members ∪ N(members)` — everything the
    /// replay's outcome can depend on besides the immutable sequences.
    dsnap: Vec<(usize, u16)>,
    /// Sorted kept edge ids the guard decided for this component.
    kept: Vec<u32>,
}

/// Epoch-stamped mark state for the localized replay: bumping a
/// generation invalidates every mark in `O(1)`, so per-component replays
/// never clear (or allocate) their working sets.
#[derive(Default)]
struct ReplayMarks {
    /// `member_mark[x] == member_gen` ⟺ `x` is a member of the component
    /// currently being replayed.
    member_mark: Vec<u32>,
    /// Evolving degree of member nodes (valid where `member_mark` hits).
    member_deg: Vec<u32>,
    member_gen: u32,
    /// First-attempt-decisive marks by eid.
    decided_mark: Vec<u32>,
    decided_gen: u32,
}

impl ReplayMarks {
    /// Replays `materialize`'s deletion pass for one risky component:
    /// walks the deletion prefixes of `dsnap`'s nodes in ascending node
    /// order, tracking degrees of the component's members alone. Writes
    /// the component's kept eids, ascending, into `out`.
    fn replay(
        &mut self,
        seqs: &EntropySequences,
        base_deg: &[u32],
        del: (&[u32], &[u32]),
        members: &[usize],
        dsnap: &[(usize, u16)],
        out: &mut Vec<u32>,
    ) {
        let (del_off, del_eid) = del;
        let mgen = next_gen(&mut self.member_mark, &mut self.member_gen);
        for &y in members {
            self.member_mark[y] = mgen;
            self.member_deg[y] = base_deg[y];
        }
        let dgen = next_gen(&mut self.decided_mark, &mut self.decided_gen);
        out.clear();
        for &(v, dv_len) in dsnap {
            let row = &del_eid[del_off[v] as usize..];
            for (i, &(u, _)) in seqs.deletions(v).iter().take(dv_len as usize).enumerate() {
                let u = u as usize;
                let v_member = self.member_mark[v] == mgen;
                let u_member = self.member_mark[u] == mgen;
                if !v_member && !u_member {
                    // Certain edge, or uncertain in some *other* component:
                    // removed unconditionally as far as this replay goes.
                    continue;
                }
                let eid = row[i] as usize;
                if self.decided_mark[eid] == dgen {
                    continue;
                }
                self.decided_mark[eid] = dgen;
                let dv = if v_member { self.member_deg[v] } else { 2 };
                let du = if u_member { self.member_deg[u] } else { 2 };
                if dv > 1 && du > 1 {
                    if v_member {
                        self.member_deg[v] -= 1;
                    }
                    if u_member {
                        self.member_deg[u] -= 1;
                    }
                } else {
                    out.push(eid as u32);
                }
            }
        }
        // Eids ascend with edge keys, so this reproduces the former
        // key-sorted verdict exactly.
        out.sort_unstable();
    }
}

/// Per-step working memory, reused across [`RewiredGraph::apply`] calls.
/// Buffers are cleared (never shrunk) between steps, so a warmed-up
/// instance runs the whole scan without touching the heap.
#[derive(Default)]
struct ApplyScratch {
    /// Edges whose desired presence may have changed this step:
    /// `(edge key, slot-or-eid, is_addition)`.
    candidates: Vec<(u64, u32, bool)>,
    /// Eids that entered the slated set this step.
    slated_in: Vec<u32>,
    /// Eids that left the slated set this step.
    slated_out: Vec<u32>,
    /// This step's guard verdict (sorted eids); swapped with
    /// `RewiredGraph::kept` at the end of the guard phase.
    kept_now: Vec<u32>,
    /// Risky-component BFS output (ascending members).
    members: Vec<usize>,
    /// `members ∪ N(members)` assembly buffer.
    snap_nodes: Vec<usize>,
    /// `(node, d)` snapshot buffer.
    dsnap: Vec<(usize, u16)>,
    /// One component's replay verdict.
    comp_kept: Vec<u32>,
    /// Key-sorted presence flips handed to the operator cache.
    flips: Vec<(usize, usize, bool)>,
    /// BFS visited marks (`visit_mark[x] == visit_gen`), one generation
    /// per `simulate_kept` call.
    visit_mark: Vec<u32>,
    visit_gen: u32,
    /// Replay mark state (one generation per component).
    marks: ReplayMarks,
}

impl ApplyScratch {
    /// Sizes the mark arrays for `n` nodes and `m` base edges and resets
    /// every generation (anchor boundary — allocation is fine here).
    fn reset(&mut self, n: usize, m: usize) {
        self.candidates.clear();
        self.slated_in.clear();
        self.slated_out.clear();
        self.kept_now.clear();
        self.members.clear();
        self.snap_nodes.clear();
        self.dsnap.clear();
        self.comp_kept.clear();
        self.flips.clear();
        self.visit_mark.clear();
        self.visit_mark.resize(n, 0);
        self.visit_gen = 0;
        self.marks.member_mark.clear();
        self.marks.member_mark.resize(n, 0);
        self.marks.member_deg.clear();
        self.marks.member_deg.resize(n, 0);
        self.marks.member_gen = 0;
        self.marks.decided_mark.clear();
        self.marks.decided_mark.resize(m, 0);
        self.marks.decided_gen = 0;
    }
}

/// Advances an epoch counter, clearing `marks` on wraparound so a stale
/// generation can never collide with a live one.
fn next_gen(marks: &mut [u32], gen: &mut u32) -> u32 {
    *gen = gen.wrapping_add(1);
    if *gen == 0 {
        marks.fill(0);
        *gen = 1;
    }
    *gen
}

/// The risky predicate over the raw census fields (free function so scan
/// loops can hold disjoint field borrows).
#[inline]
fn node_is_risky(r: &[u32], base_deg: &[u32], x: usize) -> bool {
    r[x] > 0 && r[x] >= base_deg[x]
}

/// Adjusts `r[x]` and the risky-node count together.
#[inline]
fn bump_r(r: &mut [u32], base_deg: &[u32], risky_count: &mut usize, x: usize, up: bool) {
    let was = node_is_risky(r, base_deg, x);
    if up {
        r[x] += 1;
    } else {
        r[x] -= 1;
    }
    let now = node_is_risky(r, base_deg, x);
    if now && !was {
        *risky_count += 1;
    } else if was && !now {
        *risky_count -= 1;
    }
}

/// A persistent `G_t` with incrementally maintained operators.
///
/// Holds the graph produced by the *last applied* [`TopoState`] together
/// with its [`GraphTensors`] operator cache and homophily numerator.
/// [`apply`](RewiredGraph::apply) transitions to any other state — the
/// driver's ±1 steps, an episodic reset, or an arbitrary checkpoint jump —
/// touching only what changed. Always pass the same [`TopologyOptimizer`]
/// the instance was created from; base graph and sequences are immutable
/// for the lifetime of a run (a mismatched pair surfaces as
/// [`RewireError`]).
pub struct RewiredGraph {
    /// Applied per-node addition counts (mode-gated, sequence-truncated).
    k: Vec<u16>,
    /// Applied per-node deletion counts (mode-gated, sequence-truncated).
    d: Vec<u16>,
    /// Base-graph degrees (the deletion guard reasons about these).
    base_deg: Vec<u32>,
    /// Eid → packed edge key of the base edge, ascending (eid order and
    /// key order coincide by construction).
    eid_key: Vec<u64>,
    /// Deletion partner index: `del_eid[del_off[v] + i]` is the eid of
    /// `sequences.deletions(v)[i]`.
    del_off: Vec<u32>,
    del_eid: Vec<u32>,
    /// Addition partner index: `add_slot[add_off[v] + i]` is the
    /// canonical slot of `sequences.additions(v)[i]`.
    add_off: Vec<u32>,
    add_slot: Vec<u32>,
    /// Slot → packed edge key of the addition candidate.
    slot_key: Vec<u64>,
    /// Reference counts of addition-selected edges, by slot (≤ 2: each
    /// endpoint's prefix can select the edge once).
    add_cnt: Vec<u32>,
    /// Reference counts of slated edges, by eid (≤ 2 likewise).
    slated_cnt: Vec<u32>,
    /// Per-node count of *distinct* slated edges.
    r: Vec<u32>,
    /// How many nodes are currently risky (the census itself is derived
    /// from `r`/`base_deg` on demand).
    risky_count: usize,
    /// Base edges currently removed from the live graph, by eid;
    /// invariant after every `apply`: `removed == slated ∖ kept`.
    removed: Vec<bool>,
    /// Slated eids the isolation guard kept alive on the last transition
    /// (sorted; always incident to a then-risky node; empty in the
    /// common case).
    kept: Vec<u32>,
    /// Memoised per-component replay verdicts, keyed by smallest member.
    kept_cache: FxHashMap<usize, KeptEntry>,
    /// Same-label edge count of the live graph (homophily numerator).
    same_label: usize,
    /// The live graph plus its propagation operators, rebuilt in place
    /// on edits.
    tensors: GraphTensors,
    /// Reused per-step working memory.
    scratch: ApplyScratch,
}

impl RewiredGraph {
    /// Starts at `S_0` (the base graph, no edits).
    pub fn new(topo: &TopologyOptimizer) -> Self {
        let base = topo.base();
        let mut rw = Self {
            k: Vec::new(),
            d: Vec::new(),
            base_deg: Vec::new(),
            eid_key: Vec::new(),
            del_off: Vec::new(),
            del_eid: Vec::new(),
            add_off: Vec::new(),
            add_slot: Vec::new(),
            slot_key: Vec::new(),
            add_cnt: Vec::new(),
            slated_cnt: Vec::new(),
            r: Vec::new(),
            risky_count: 0,
            removed: Vec::new(),
            kept: Vec::new(),
            kept_cache: FxHashMap::default(),
            same_label: metrics::same_label_edges(base),
            tensors: GraphTensors::new(base),
            scratch: ApplyScratch::default(),
        };
        rw.reset_tables(topo);
        rw
    }

    /// Re-anchors the instance on a *new* optimiser whose base graph is
    /// exactly the current live graph (the entropy-refresh boundary: the
    /// driver rebuilds sequences against `G_t` and makes `G_t` the new
    /// `S_0`). All edit bookkeeping resets — counters, refcounts, risky
    /// census, partner tables, caches — while the live graph and its
    /// warmed operator caches carry over untouched, so no operator
    /// rebuild is paid.
    ///
    /// After this call the instance behaves exactly like
    /// `RewiredGraph::new(topo)`: subsequent [`apply`](Self::apply)
    /// calls must pass `topo` (and states sized for it).
    pub fn rebase(&mut self, topo: &TopologyOptimizer) {
        debug_assert_eq!(
            topo.base().edge_vec(),
            self.graph().edge_vec(),
            "rebase: new optimiser base must equal the live graph"
        );
        self.reset_tables(topo);
        // `same_label` and `tensors` describe the live graph, which *is*
        // the new base — nothing to recompute.
    }

    /// (Re)builds the anchored tables from the optimiser's base graph and
    /// sequences, resetting every counter. The one place the engine is
    /// allowed to allocate.
    fn reset_tables(&mut self, topo: &TopologyOptimizer) {
        let base = topo.base();
        let seqs = topo.sequences();
        let n = base.num_nodes();
        self.k.clear();
        self.k.resize(n, 0);
        self.d.clear();
        self.d.resize(n, 0);
        self.base_deg.clear();
        self.base_deg.extend((0..n).map(|v| base.degree(v) as u32));
        // Directed row offsets for the row-aligned `row_eid` table below.
        let mut row_start: Vec<u32> = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        row_start.push(0);
        for v in 0..n {
            acc += self.base_deg[v];
            row_start.push(acc);
        }
        // Eids: scan base rows ascending, keep u < v once — this visits
        // edges in ascending edge_key order, so eid order == key order.
        // `row_eid` mirrors the directed adjacency (both directions), so
        // the deletion index below resolves each sequence entry with one
        // short in-row binary search instead of probing the much larger
        // (and cache-hostile) global `eid_key` array per entry.
        // Reverse entries need no search: `v` ascends, and a node's
        // smaller neighbours are its row's sorted prefix, so each node's
        // reverse slots fill left-to-right behind a cursor.
        let mut row_eid: Vec<u32> = vec![0; acc as usize];
        let mut rev_cursor: Vec<u32> = vec![0; n];
        self.eid_key.clear();
        for v in 0..n {
            let row = base.neighbor_slice(v);
            for (i, &u) in row.iter().enumerate() {
                let u = u as usize;
                if u > v {
                    let eid = self.eid_key.len() as u32;
                    self.eid_key.push(edge_key(v, u));
                    row_eid[row_start[v] as usize + i] = eid;
                    let p = (row_start[u] + rev_cursor[u]) as usize;
                    debug_assert_eq!(
                        base.neighbor_slice(u)[rev_cursor[u] as usize],
                        v as u32,
                        "CSR rows must mirror both directions"
                    );
                    row_eid[p] = eid;
                    rev_cursor[u] += 1;
                }
            }
        }
        debug_assert!(self.eid_key.windows(2).all(|w| w[0] < w[1]), "eids must ascend with keys");
        let m = self.eid_key.len();
        // Deletion partner index: sequences list base neighbours, so
        // every entry resolves to an eid through its row position.
        self.del_off.clear();
        self.del_off.push(0);
        self.del_eid.clear();
        for (v, &off) in row_start.iter().enumerate().take(n) {
            let row = base.neighbor_slice(v);
            let off = off as usize;
            for &(u, _) in seqs.deletions(v) {
                let p = row.binary_search(&u).expect("deletion sequence entry must be a base edge");
                self.del_eid.push(row_eid[off + p]);
            }
            self.del_off.push(self.del_eid.len() as u32);
        }
        // Addition partner index: canonicalize candidate pairs (an edge
        // can appear in both endpoints' rankings) into slots in key
        // order. Candidate pools exclude current neighbours, so addition
        // keys and base-edge keys are disjoint — reconcile relies on it.
        // Key order is recovered by a counting scatter over the key's
        // high word (the min endpoint) plus tiny per-bucket sorts — the
        // `CsrAdjacency::apply_changes` trick, far cheaper than one
        // global comparison sort of every (key, position) pair.
        self.add_off.clear();
        self.add_off.push(0);
        let mut cursor: Vec<u32> = vec![0; n];
        let mut total = 0u32;
        for v in 0..n {
            for &(u, _) in seqs.additions(v) {
                debug_assert!(
                    base.neighbor_slice(v).binary_search(&u).is_err(),
                    "addition candidate {:?} is a base edge",
                    unkey(edge_key(v, u as usize))
                );
                cursor[v.min(u as usize)] += 1;
                total += 1;
            }
            self.add_off.push(total);
        }
        {
            // Counts → per-bucket start cursors, in place.
            let mut s = 0u32;
            for c in cursor.iter_mut() {
                let count = *c;
                *c = s;
                s += count;
            }
        }
        let mut keyed: Vec<(u64, u32)> = vec![(0, 0); total as usize];
        let mut pos = 0u32;
        for v in 0..n {
            for &(u, _) in seqs.additions(v) {
                let key = edge_key(v, u as usize);
                let b = (key >> 32) as usize;
                keyed[cursor[b] as usize] = (key, pos);
                cursor[b] += 1;
                pos += 1;
            }
        }
        // `cursor[b]` is now bucket b's end; buckets are contiguous, so
        // sorting each slice by (key, position) reproduces exactly the
        // old global `sort_unstable` order.
        let mut lo = 0usize;
        for &hi in &cursor {
            keyed[lo..hi as usize].sort_unstable();
            lo = hi as usize;
        }
        self.slot_key.clear();
        self.add_slot.clear();
        self.add_slot.resize(keyed.len(), 0);
        for &(key, pos) in &keyed {
            if self.slot_key.last() != Some(&key) {
                self.slot_key.push(key);
            }
            self.add_slot[pos as usize] = (self.slot_key.len() - 1) as u32;
        }
        self.add_cnt.clear();
        self.add_cnt.resize(self.slot_key.len(), 0);
        self.slated_cnt.clear();
        self.slated_cnt.resize(m, 0);
        self.r.clear();
        self.r.resize(n, 0);
        self.risky_count = 0;
        self.removed.clear();
        self.removed.resize(m, false);
        self.kept.clear();
        self.kept_cache.clear();
        self.scratch.reset(n, m);
    }

    /// The live `G_t`.
    pub fn graph(&self) -> &Graph {
        self.tensors.graph()
    }

    /// The live operator cache (lazy per operator, rebuilt in place on
    /// edits).
    pub fn tensors(&self) -> &GraphTensors {
        &self.tensors
    }

    /// Edge count of the live graph.
    pub fn num_edges(&self) -> usize {
        self.graph().num_edges()
    }

    /// Edge homophily of the live graph; bit-identical to
    /// [`metrics::homophily_ratio`] (same integer numerator, same division).
    pub fn homophily_ratio(&self) -> f64 {
        let m = self.graph().num_edges();
        if m == 0 {
            1.0
        } else {
            self.same_label as f64 / m as f64
        }
    }

    /// Localized replay of `materialize`'s deletion pass: decides which
    /// *uncertain* slated edges (those with a risky endpoint) the
    /// isolation guard keeps, writing the sorted verdict into
    /// `scratch.kept_now`. Only the deletion prefixes of risky nodes
    /// and their base neighbours are walked — every attempt on an
    /// uncertain edge comes from one of them, certain-edge removals never
    /// change a risky node's degree, and a non-risky endpoint's guard
    /// factor always passes, so tracking risky degrees alone reproduces
    /// the sequential pass exactly. Guard outcomes are monotone within a
    /// pass (degrees only decrease), so the first attempt on an edge is
    /// decisive and re-attempts are no-ops.
    /// Decomposed per risky component (see the module docs) and memoised:
    /// a component whose member set and replay-prefix snapshot are
    /// unchanged since its last replay reuses the cached verdict.
    fn simulate_kept(&mut self, topo: &TopologyOptimizer) {
        use std::collections::hash_map::Entry;
        let seqs = topo.sequences();
        let base = topo.base();
        self.scratch.kept_now.clear();
        let mut hits = 0u64;
        let mut misses = 0u64;
        let vgen = next_gen(&mut self.scratch.visit_mark, &mut self.scratch.visit_gen);
        for start in 0..self.r.len() {
            if !node_is_risky(&self.r, &self.base_deg, start)
                || self.scratch.visit_mark[start] == vgen
            {
                continue;
            }
            // BFS over risky nodes only: the component's members.
            self.scratch.members.clear();
            self.scratch.members.push(start);
            self.scratch.visit_mark[start] = vgen;
            let mut qi = 0;
            while qi < self.scratch.members.len() {
                let y = self.scratch.members[qi];
                qi += 1;
                for u in base.neighbors(y) {
                    if node_is_risky(&self.r, &self.base_deg, u)
                        && self.scratch.visit_mark[u] != vgen
                    {
                        self.scratch.visit_mark[u] = vgen;
                        self.scratch.members.push(u);
                    }
                }
            }
            self.scratch.members.sort_unstable();
            // Everything the verdict depends on: the deletion-prefix
            // lengths of members and their base neighbours (a node with
            // `d == 0` contributes no attempts, but its snapshot entry
            // still invalidates the cache when it starts contributing).
            self.scratch.snap_nodes.clear();
            self.scratch.snap_nodes.extend_from_slice(&self.scratch.members);
            for i in 0..self.scratch.members.len() {
                let y = self.scratch.members[i];
                self.scratch.snap_nodes.extend(base.neighbors(y));
            }
            self.scratch.snap_nodes.sort_unstable();
            self.scratch.snap_nodes.dedup();
            self.scratch.dsnap.clear();
            self.scratch.dsnap.extend(self.scratch.snap_nodes.iter().map(|&v| (v, self.d[v])));
            let cache_key = self.scratch.members[0];
            if let Some(entry) = self.kept_cache.get(&cache_key) {
                if entry.members == self.scratch.members && entry.dsnap == self.scratch.dsnap {
                    hits += 1;
                    self.scratch.kept_now.extend_from_slice(&entry.kept);
                    continue;
                }
            }
            misses += 1;
            self.scratch.marks.replay(
                seqs,
                &self.base_deg,
                (&self.del_off, &self.del_eid),
                &self.scratch.members,
                &self.scratch.dsnap,
                &mut self.scratch.comp_kept,
            );
            self.scratch.kept_now.extend_from_slice(&self.scratch.comp_kept);
            // Update the memo in place: steady-state re-derivations reuse
            // the entry's buffers; only brand-new components allocate.
            match self.kept_cache.entry(cache_key) {
                Entry::Occupied(mut occ) => {
                    let e = occ.get_mut();
                    e.members.clear();
                    e.members.extend_from_slice(&self.scratch.members);
                    e.dsnap.clear();
                    e.dsnap.extend_from_slice(&self.scratch.dsnap);
                    e.kept.clear();
                    e.kept.extend_from_slice(&self.scratch.comp_kept);
                }
                Entry::Vacant(vac) => {
                    vac.insert(KeptEntry {
                        members: self.scratch.members.clone(),
                        dsnap: self.scratch.dsnap.clone(),
                        kept: self.scratch.comp_kept.clone(),
                    });
                }
            }
        }
        // Components are edge-disjoint but interleave in key space; the
        // patch step binary-searches this, so restore global order.
        self.scratch.kept_now.sort_unstable();
        telemetry::counter("rewire.kept_cache_hits", hits);
        telemetry::counter("rewire.kept_cache_misses", misses);
    }

    /// Transitions the live graph from the last applied state to `state`,
    /// mirroring `topo.materialize(state)` exactly while touching only the
    /// changed per-node prefixes. Returns the edge-level delta.
    ///
    /// Allocating convenience wrapper around
    /// [`apply_into`](Self::apply_into); hot paths hold a
    /// [`RewireDelta`] and call `apply_into` to stay allocation-free.
    pub fn apply(
        &mut self,
        topo: &TopologyOptimizer,
        state: &TopoState,
    ) -> Result<RewireDelta, RewireError> {
        let mut out = RewireDelta::default();
        self.apply_into(topo, state, &mut out)?;
        Ok(out)
    }

    /// [`apply`](Self::apply) writing the delta into a caller-held
    /// buffer. On a warmed-up instance a steady-state call performs zero
    /// heap allocations end to end (scan, guard, reconcile, operator
    /// refresh).
    ///
    /// # Errors
    /// Returns a [`RewireError`] when the state/optimizer pair is
    /// inconsistent with the anchored tables (corrupt or version-skewed
    /// restore). The instance may then be partially transitioned: treat
    /// the error as fatal for this run and discard the instance.
    pub fn apply_into(
        &mut self,
        topo: &TopologyOptimizer,
        state: &TopoState,
        out: &mut RewireDelta,
    ) -> Result<(), RewireError> {
        let _span = telemetry::span("rewire.apply");
        let n = self.base_deg.len();
        assert_eq!(topo.base().num_nodes(), n, "optimizer/rewired node count mismatch");
        assert_eq!(state.num_nodes(), n, "state size mismatch");
        let mode = topo.mode();
        let seqs = topo.sequences();

        out.added.clear();
        out.removed.clear();
        out.resimulated = false;

        let delta_span = telemetry::span("rewire.delta_scan");
        self.scratch.candidates.clear();
        self.scratch.slated_in.clear();
        self.scratch.slated_out.clear();
        for v in 0..n {
            // Addition prefix delta: per-edge refcounts over the union of
            // top-k prefixes; 0 <-> positive transitions are membership
            // changes. Mirrors materialize's `.take(k)` truncation and
            // RemoveOnly gating. The partner index turns each sequence
            // position into its canonical slot directly.
            let new_k = if mode == EditMode::RemoveOnly {
                0
            } else {
                state.k(v).min(seqs.additions(v).len())
            };
            let old_k = self.k[v] as usize;
            if new_k != old_k {
                let off = self.add_off[v] as usize;
                let row_len = self.add_off[v + 1] as usize - off;
                if new_k.max(old_k) > row_len {
                    return Err(RewireError::SequenceSkew { node: v });
                }
                let slots = &self.add_slot[off..off + row_len];
                if new_k > old_k {
                    for &slot in &slots[old_k..new_k] {
                        let c = &mut self.add_cnt[slot as usize];
                        *c += 1;
                        if *c == 1 {
                            self.scratch.candidates.push((
                                self.slot_key[slot as usize],
                                slot,
                                true,
                            ));
                        }
                    }
                } else {
                    for &slot in &slots[new_k..old_k] {
                        let c = &mut self.add_cnt[slot as usize];
                        if *c == 0 {
                            let (a, b) = unkey(self.slot_key[slot as usize]);
                            return Err(RewireError::AdditionUnderflow { u: a, v: b });
                        }
                        *c -= 1;
                        if *c == 0 {
                            self.scratch.candidates.push((
                                self.slot_key[slot as usize],
                                slot,
                                true,
                            ));
                        }
                    }
                }
                self.k[v] = new_k as u16;
            }

            // Deletion prefix delta: slated refcounts plus the per-node
            // distinct-incidence counters behind the risk census.
            let new_d =
                if mode == EditMode::AddOnly { 0 } else { state.d(v).min(seqs.deletions(v).len()) };
            let old_d = self.d[v] as usize;
            if new_d != old_d {
                let off = self.del_off[v] as usize;
                let row_len = self.del_off[v + 1] as usize - off;
                if new_d.max(old_d) > row_len {
                    return Err(RewireError::SequenceSkew { node: v });
                }
                if new_d > old_d {
                    for i in old_d..new_d {
                        let eid = self.del_eid[off + i];
                        let c = &mut self.slated_cnt[eid as usize];
                        *c += 1;
                        if *c == 1 {
                            self.scratch.slated_in.push(eid);
                            let (a, b) = unkey(self.eid_key[eid as usize]);
                            bump_r(&mut self.r, &self.base_deg, &mut self.risky_count, a, true);
                            bump_r(&mut self.r, &self.base_deg, &mut self.risky_count, b, true);
                        }
                    }
                } else {
                    for i in new_d..old_d {
                        let eid = self.del_eid[off + i];
                        let c = &mut self.slated_cnt[eid as usize];
                        if *c == 0 {
                            let (a, b) = unkey(self.eid_key[eid as usize]);
                            return Err(RewireError::DeletionUnderflow { u: a, v: b });
                        }
                        *c -= 1;
                        if *c == 0 {
                            self.scratch.slated_out.push(eid);
                            let (a, b) = unkey(self.eid_key[eid as usize]);
                            bump_r(&mut self.r, &self.base_deg, &mut self.risky_count, a, false);
                            bump_r(&mut self.r, &self.base_deg, &mut self.risky_count, b, false);
                        }
                    }
                }
                self.d[v] = new_d as u16;
            }
        }
        drop(delta_span);

        let guard_span = telemetry::span("rewire.guard");
        // Resolve the removed set for the new deletion prefixes, keeping
        // the invariant `removed == slated ∖ kept`. First sync every
        // transitioned eid to its *final* slated membership — an edge can
        // transition twice in one scan (leave one node's prefix, enter
        // another's), so replaying the transient events in order would be
        // wrong — then patch in the guard's verdict on uncertain edges.
        for &eid in self.scratch.slated_in.iter().chain(self.scratch.slated_out.iter()) {
            let eid = eid as usize;
            self.removed[eid] = self.slated_cnt[eid] > 0;
            self.scratch.candidates.push((self.eid_key[eid], eid as u32, false));
        }
        let resimulated = self.risky_count > 0;
        if !resimulated && !self.kept_cache.is_empty() {
            // No risky components left: stale verdicts can only waste
            // memory and mask a future component reusing the same key.
            self.kept_cache.clear();
        }
        if resimulated {
            self.simulate_kept(topo);
        } else {
            self.scratch.kept_now.clear();
        }
        for &eid32 in &self.scratch.kept_now {
            let eid = eid32 as usize;
            if self.removed[eid] {
                self.removed[eid] = false;
                self.scratch.candidates.push((self.eid_key[eid], eid as u32, false));
            }
        }
        for &eid32 in &self.kept {
            let eid = eid32 as usize;
            if self.scratch.kept_now.binary_search(&eid32).is_err()
                && self.slated_cnt[eid] > 0
                && !self.removed[eid]
            {
                self.removed[eid] = true;
                self.scratch.candidates.push((self.eid_key[eid], eid as u32, false));
            }
        }
        // Swap the kept buffers: the old verdict becomes next step's
        // scratch, the new one is retained.
        let kept_now = std::mem::take(&mut self.scratch.kept_now);
        self.scratch.kept_now = std::mem::replace(&mut self.kept, kept_now);
        drop(guard_span);

        let reconcile_span = telemetry::span("rewire.reconcile");
        // Reconcile candidate edges against the live graph:
        // present in G_t  <=>  selected for addition, or a surviving base
        // edge. Addition keys and base-edge keys are disjoint, so each
        // candidate resolves through exactly one table. Candidates are
        // sorted and deduplicated (duplicates are bit-identical), so the
        // delta lists are deterministic and the flips ascend by edge key,
        // satisfying the sorted-flips contract of
        // `GraphTensors::apply_flips` by construction.
        self.scratch.candidates.sort_unstable();
        self.scratch.candidates.dedup();
        self.scratch.flips.clear();
        for &(key, idx, is_add) in &self.scratch.candidates {
            let (u, v) = unkey(key);
            let desired =
                if is_add { self.add_cnt[idx as usize] > 0 } else { !self.removed[idx as usize] };
            let current = self.tensors.graph().has_edge(u, v);
            if desired && !current {
                out.added.push((u, v));
                self.scratch.flips.push((u, v, true));
            } else if !desired && current {
                out.removed.push((u, v));
                self.scratch.flips.push((u, v, false));
            }
        }

        let g = self.tensors.graph();
        for &(u, v) in &out.removed {
            if g.label(u) == g.label(v) {
                self.same_label -= 1;
            }
        }
        for &(u, v) in &out.added {
            if g.label(u) == g.label(v) {
                self.same_label += 1;
            }
        }
        drop(reconcile_span);
        {
            let _op_span = telemetry::span("rewire.operators");
            self.tensors.apply_flips(&self.scratch.flips);
        }

        telemetry::counter("rewire.applies", 1);
        telemetry::counter("rewire.edges_added", out.added.len() as u64);
        telemetry::counter("rewire.edges_removed", out.removed.len() as u64);
        if resimulated {
            telemetry::counter("rewire.resimulations", 1);
        } else {
            telemetry::counter("rewire.fast_updates", 1);
        }

        out.resimulated = resimulated;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrare_entropy::{
        CandidatePool, EntropySequences, RelativeEntropyConfig, RelativeEntropyTable,
        SequenceConfig,
    };
    use graphrare_tensor::Matrix;

    fn path_optimizer(mode: EditMode) -> TopologyOptimizer {
        path_optimizer_with(mode, 8)
    }

    fn path_optimizer_with(mode: EditMode, max_additions: usize) -> TopologyOptimizer {
        // Path 0-1-2-3-4-5; features make far nodes {0,5} similar.
        let mut feats = Matrix::zeros(6, 2);
        for v in [0usize, 5] {
            feats.set(v, 0, 1.0);
        }
        for v in 1..5 {
            feats.set(v, 1, 1.0);
        }
        let g = Graph::from_edges(
            6,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
            feats,
            vec![0, 1, 1, 1, 1, 0],
            2,
        );
        let table = RelativeEntropyTable::new(&g, &RelativeEntropyConfig::default());
        let seqs = EntropySequences::build(
            &g,
            &table,
            &SequenceConfig { pool: CandidatePool::RemoteRing { hops: 5 }, max_additions },
        );
        TopologyOptimizer::new(g, seqs, mode)
    }

    /// Full-strength equality check against the reference path.
    fn assert_matches_materialize(rw: &RewiredGraph, topo: &TopologyOptimizer, state: &TopoState) {
        let want = topo.materialize(state);
        assert_eq!(rw.graph().edge_vec(), want.edge_vec(), "edge sets diverge");
        assert_eq!(rw.num_edges(), want.num_edges());
        assert_eq!(
            rw.homophily_ratio().to_bits(),
            metrics::homophily_ratio(&want).to_bits(),
            "homophily diverges"
        );
        let fresh = GraphTensors::new(&want);
        assert_eq!(*rw.tensors().gcn_norm(), *fresh.gcn_norm(), "gcn operator diverges");
        assert_eq!(*rw.tensors().two_hop(), *fresh.two_hop(), "two-hop operator diverges");
    }

    #[test]
    fn fresh_rewired_graph_is_base() {
        let topo = path_optimizer(EditMode::Both);
        let rw = RewiredGraph::new(&topo);
        assert_eq!(rw.graph().edge_vec(), topo.base().edge_vec());
        assert_eq!(rw.homophily_ratio().to_bits(), metrics::homophily_ratio(topo.base()).to_bits());
    }

    #[test]
    fn additions_and_reversal() {
        let topo = path_optimizer(EditMode::Both);
        let mut rw = RewiredGraph::new(&topo);
        // Operators built up-front so every transition refreshes them.
        rw.tensors().gcn_norm();
        rw.tensors().two_hop();
        let mut state = TopoState::new(topo.k_bounds(8), topo.d_bounds(8));
        state.set_k(0, 2);
        state.set_k(3, 1);
        let delta = rw.apply(&topo, &state).unwrap();
        assert!(!delta.added.is_empty());
        assert_matches_materialize(&rw, &topo, &state);
        // Walk back down to S0.
        state.set_k(0, 0);
        state.set_k(3, 0);
        let delta = rw.apply(&topo, &state).unwrap();
        assert!(delta.removed.len() >= delta.added.len());
        assert_matches_materialize(&rw, &topo, &state);
        assert_eq!(rw.graph().edge_vec(), topo.base().edge_vec());
    }

    #[test]
    fn kept_cache_reuses_and_invalidates() {
        let topo = path_optimizer(EditMode::Both);
        let mut rw = RewiredGraph::new(&topo);
        let n = topo.base().num_nodes();
        let k_max = vec![2u16; n];
        let d_max: Vec<u16> = (0..n).map(|v| topo.base().degree(v) as u16).collect();
        let mut state = TopoState::new(k_max, d_max);
        for v in 0..n {
            state.set_d(v, state.d_max(v));
        }
        // Slating every edge makes the whole path one risky component.
        assert!(rw.apply(&topo, &state).unwrap().resimulated);
        assert_matches_materialize(&rw, &topo, &state);
        let entry = rw.kept_cache.get(&0).expect("whole path is one risky component");
        assert_eq!(entry.members, (0..n).collect::<Vec<_>>());
        assert!(!entry.kept.is_empty(), "the leaf guard must keep edges");
        let reused = entry.kept.as_ptr();
        // Addition-only transition: no deletion prefix changed, so the
        // verdict must be served from the cache (entry not rebuilt).
        state.set_k(0, 1);
        rw.apply(&topo, &state).unwrap();
        assert_matches_materialize(&rw, &topo, &state);
        let entry = rw.kept_cache.get(&0).expect("component unchanged");
        assert_eq!(entry.kept.as_ptr(), reused, "unchanged component must hit the cache");
        // Shrinking a member's prefix changes the snapshot: the stale
        // verdict must be re-derived (the entry now carries the new d).
        state.set_d(2, 1);
        rw.apply(&topo, &state).unwrap();
        assert_matches_materialize(&rw, &topo, &state);
        let entry = rw.kept_cache.get(&0).expect("component persists");
        assert!(entry.dsnap.contains(&(2, 1)), "entry must re-derive with the shrunk prefix");
        // Growing the prefix back is a second invalidation.
        state.set_d(2, 2);
        rw.apply(&topo, &state).unwrap();
        assert_matches_materialize(&rw, &topo, &state);
        let entry = rw.kept_cache.get(&0).expect("component persists");
        assert!(entry.dsnap.contains(&(2, 2)), "entry must re-derive with the grown prefix");
        // Releasing every deletion empties the census and clears the cache.
        state.reset();
        rw.apply(&topo, &state).unwrap();
        assert_matches_materialize(&rw, &topo, &state);
        assert!(rw.kept_cache.is_empty(), "cache must clear when the census empties");
    }

    #[test]
    fn deletion_guard_cascade_is_exact() {
        // On a path graph every interior deletion threatens a leaf: slating
        // d(1) = d_max covers both of node 1's edges, making nodes 0 and 1
        // risky, so the engine must fall back to simulation — and still
        // match the sequential guard semantics bit for bit.
        let topo = path_optimizer(EditMode::Both);
        let mut rw = RewiredGraph::new(&topo);
        let n = topo.base().num_nodes();
        let k_max = vec![0u16; n];
        let d_max: Vec<u16> = (0..n).map(|v| topo.base().degree(v) as u16).collect();
        let mut state = TopoState::new(k_max, d_max);
        for v in 0..n {
            state.set_d(v, state.d_max(v));
        }
        let delta = rw.apply(&topo, &state).unwrap();
        assert!(delta.resimulated, "guard-threatening trace must re-simulate");
        assert_matches_materialize(&rw, &topo, &state);
        // Releasing the deletions must recover the base graph through the
        // resync branch (removed != slated on the previous transition).
        state.reset();
        rw.apply(&topo, &state).unwrap();
        assert_matches_materialize(&rw, &topo, &state);
        assert_eq!(rw.graph().edge_vec(), topo.base().edge_vec());
    }

    #[test]
    fn fast_path_used_when_no_isolation_risk() {
        let topo = path_optimizer(EditMode::Both);
        let mut rw = RewiredGraph::new(&topo);
        let mut state = TopoState::new(topo.k_bounds(8), topo.d_bounds(8));
        // Node 2 slates one of two edges: every endpoint keeps a spare.
        state.set_d(2, 1);
        let delta = rw.apply(&topo, &state).unwrap();
        assert!(!delta.resimulated, "guard-free trace must take the fast path");
        assert_eq!(delta.removed.len(), 1);
        assert_matches_materialize(&rw, &topo, &state);
    }

    #[test]
    fn add_only_mode_ignores_deletions() {
        let topo = path_optimizer(EditMode::AddOnly);
        let mut rw = RewiredGraph::new(&topo);
        // Hand-built state with non-zero d: the mode gate must ignore it,
        // exactly as materialize does.
        let n = topo.base().num_nodes();
        let mut state = TopoState::new(vec![4; n], vec![4; n]);
        state.set_k(0, 1);
        state.set_d(2, 1);
        let delta = rw.apply(&topo, &state).unwrap();
        assert!(delta.removed.is_empty());
        assert_matches_materialize(&rw, &topo, &state);
    }

    #[test]
    fn remove_only_mode_ignores_additions() {
        let topo = path_optimizer(EditMode::RemoveOnly);
        let mut rw = RewiredGraph::new(&topo);
        let n = topo.base().num_nodes();
        let mut state = TopoState::new(vec![4; n], vec![4; n]);
        state.set_k(0, 2);
        state.set_d(2, 1);
        let delta = rw.apply(&topo, &state).unwrap();
        assert!(delta.added.is_empty());
        assert_matches_materialize(&rw, &topo, &state);
    }

    #[test]
    fn arbitrary_state_jumps_converge() {
        // Checkpoint restores jump counters arbitrarily; the engine must
        // land on materialize's output regardless of the path taken.
        let topo = path_optimizer(EditMode::Both);
        let mut rw = RewiredGraph::new(&topo);
        let mut state = TopoState::new(topo.k_bounds(8), topo.d_bounds(8));
        let jumps: &[&[(usize, usize, usize)]] = &[
            &[(0, 3, 0), (5, 2, 0)],
            &[(0, 0, 0), (2, 1, 1), (3, 0, 1)],
            &[(1, 2, 0), (4, 1, 1)],
            &[],
        ];
        for jump in jumps {
            state.reset();
            for &(v, k, d) in *jump {
                state.set_k(v, k);
                state.set_d(v, d);
            }
            rw.apply(&topo, &state).unwrap();
            assert_matches_materialize(&rw, &topo, &state);
        }
    }

    #[test]
    fn reapplying_same_state_is_a_noop() {
        let topo = path_optimizer(EditMode::Both);
        let mut rw = RewiredGraph::new(&topo);
        let mut state = TopoState::new(topo.k_bounds(8), topo.d_bounds(8));
        state.set_k(1, 2);
        state.set_d(2, 1);
        rw.apply(&topo, &state).unwrap();
        let delta = rw.apply(&topo, &state).unwrap();
        assert!(delta.is_empty());
        assert!(!delta.resimulated);
        assert_matches_materialize(&rw, &topo, &state);
    }

    #[test]
    fn apply_into_reuses_delta_buffers() {
        let topo = path_optimizer(EditMode::Both);
        let mut rw = RewiredGraph::new(&topo);
        let mut state = TopoState::new(topo.k_bounds(8), topo.d_bounds(8));
        let mut delta = RewireDelta::default();
        state.set_k(0, 2);
        rw.apply_into(&topo, &state, &mut delta).unwrap();
        assert!(!delta.added.is_empty());
        assert_matches_materialize(&rw, &topo, &state);
        // The same buffer absorbs the reverse transition.
        state.set_k(0, 0);
        rw.apply_into(&topo, &state, &mut delta).unwrap();
        assert!(delta.added.is_empty());
        assert!(!delta.removed.is_empty());
        assert_matches_materialize(&rw, &topo, &state);
    }

    #[test]
    fn sequence_skew_is_a_typed_error_not_a_panic() {
        // Anchor on an optimiser with short addition rankings, then apply
        // a state against one with longer rankings for the same graph —
        // the version-skew shape a stale checkpoint restore produces.
        let short = path_optimizer_with(EditMode::Both, 1);
        let long = path_optimizer_with(EditMode::Both, 8);
        let mut rw = RewiredGraph::new(&short);
        let mut state = TopoState::new(long.k_bounds(8), long.d_bounds(8));
        assert!(state.k_max(0) >= 2, "fixture must allow k(0) = 2");
        state.set_k(0, 2);
        let err = rw.apply(&long, &state).unwrap_err();
        assert_eq!(err, RewireError::SequenceSkew { node: 0 });
        assert!(err.to_string().contains("sequence skew"));
    }

    #[test]
    fn rewire_error_messages_name_the_edge() {
        let add = RewireError::AdditionUnderflow { u: 3, v: 7 };
        assert!(add.to_string().contains("3-7"));
        let del = RewireError::DeletionUnderflow { u: 1, v: 2 };
        assert!(del.to_string().contains("deletion refcount underflow"));
    }

    #[test]
    fn rebase_reanchors_on_live_graph() {
        // Drive the engine away from the base, then re-anchor it on a new
        // optimiser whose base IS the live graph (the entropy-refresh
        // boundary). Subsequent transitions must match materialize against
        // the new optimiser exactly, with no operator rebuild in between.
        let topo = path_optimizer(EditMode::Both);
        let mut rw = RewiredGraph::new(&topo);
        rw.tensors().gcn_norm();
        let mut state = TopoState::new(topo.k_bounds(8), topo.d_bounds(8));
        state.set_k(0, 2);
        state.set_d(2, 1);
        rw.apply(&topo, &state).unwrap();
        assert_matches_materialize(&rw, &topo, &state);
        assert_ne!(rw.graph().edge_vec(), topo.base().edge_vec());

        // Fresh sequences against the live graph, as refresh_sequences does.
        let live = rw.graph().clone();
        let table = RelativeEntropyTable::new(&live, &RelativeEntropyConfig::default());
        let seqs = EntropySequences::build(
            &live,
            &table,
            &SequenceConfig { pool: CandidatePool::RemoteRing { hops: 5 }, max_additions: 8 },
        );
        let topo2 = TopologyOptimizer::new(live, seqs, EditMode::Both);
        rw.rebase(&topo2);
        let mut state2 = TopoState::new(topo2.k_bounds(8), topo2.d_bounds(8));
        // S_0 of the new anchoring: the live graph itself.
        assert_matches_materialize(&rw, &topo2, &state2);
        // And transitions resume from there, including walking back to the
        // (new) base.
        state2.set_k(3, 1);
        state2.set_d(0, 1);
        rw.apply(&topo2, &state2).unwrap();
        assert_matches_materialize(&rw, &topo2, &state2);
        state2.reset();
        rw.apply(&topo2, &state2).unwrap();
        assert_matches_materialize(&rw, &topo2, &state2);
        assert_eq!(rw.graph().edge_vec(), topo2.base().edge_vec());
    }
}
