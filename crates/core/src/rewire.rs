//! Incremental rewiring: the Algorithm-1 hot path without full rebuilds.
//!
//! [`TopologyOptimizer::materialize`] reconstructs `G_t` from scratch —
//! clone the base graph, replay every deletion and addition — and the
//! driver would then pay `GraphTensors::new` for fresh propagation
//! operators, feature clone included.
//!
//! [`RewiredGraph`] keeps the current `G_t` and its operator cache alive
//! instead. Each [`apply`](RewiredGraph::apply) replays `materialize`'s
//! two passes over flat tables, compares their outcome with the previous
//! step's, and hands only the flipped edges to the live graph (one CSR
//! splice) and to [`GraphTensors::apply_flips`] (an in-place rebuild of
//! every built operator). The contract is exactness: after
//! `apply(topo, s)` the held graph is bit-identical to
//! `topo.materialize(&s)` and every operator is bit-identical to a fresh
//! build — enforced by the `rewire_equivalence` property suite.
//!
//! # The two passes
//!
//! The optimiser's base graph and sequences are immutable for the
//! lifetime of an anchoring, so `reset_tables` precomputes what the passes
//! walk:
//!
//! * every undirected **base edge** gets an *edge id* (`eid`) assigned in
//!   ascending [`edge_key`] order (`eid_key` maps back);
//! * `del_off`/`del_eid` map deletion-sequence position `(v, i)` to the
//!   slated edge's eid, and `add_off`/`add_slot` map addition-sequence
//!   position `(v, i)` to a canonical per-edge *slot* (`slot_key` maps
//!   back; an edge both endpoints rank shares one slot).
//!
//! The deletion pass is `materialize`'s own loop: walk the nodes in
//! ascending order and remove each prefix edge unless an endpoint's
//! degree, *at that moment*, is down to one. The addition pass is the
//! union of the top-`k_v` prefixes. Both are exact because they are the
//! reference loops in the reference order; the tables only rename each
//! sequence entry to an id. They cost `O(N + Σk_v + Σd_v)` per step. Making them incremental does
//! not pay: a step that flips an edge rebuilds the operators at
//! `O(N + E)` anyway, and a step that flips nothing pays only the passes.
//!
//! All per-step memory — the degree array, the two id sets and the flip
//! list — is reused across steps, so a warmed-up
//! [`apply`](RewiredGraph::apply) performs **zero heap allocations**,
//! operator refresh included. The `rewire_alloc` regression test pins
//! this with the counting allocator.
//!
//! # Failure
//!
//! The passes validate the state/optimizer pair against the anchored
//! tables instead of panicking: a corrupt or version-skewed checkpoint
//! restore surfaces as a typed [`RewireError`] the caller propagates as a
//! per-run failure (under `graphrare-serve`, one tenant's run fails; the
//! worker slot survives). A rejected call leaves the live graph and the
//! last applied state untouched.

use graphrare_gnn::GraphTensors;
use graphrare_graph::{edge_key, metrics, unkey, Graph};
use graphrare_telemetry as telemetry;

use crate::state::TopoState;
use crate::topology::{EditMode, TopologyOptimizer};

/// Typed failure of [`RewiredGraph::apply`]: the passed state/optimizer
/// pair does not fit the tables built from the anchored optimizer — the
/// shape a corrupt or version-skewed checkpoint restore (or a caller
/// passing a different optimizer) produces. The instance stays at the
/// last applied state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RewireError {
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
            RewireError::SequenceSkew { node } => {
                write!(f, "sequence skew at node {node}: prefix exceeds the anchored sequence row")
            }
        }
    }
}

impl std::error::Error for RewireError {}

/// `mark` bit: the id belongs to the last applied state's set.
const LIVE: u8 = 1;
/// `mark` bit: the id belongs to the set the current pass is building.
const NEXT: u8 = 2;

/// One pass's outcome over a dense id space (eids or slots), held next to
/// the last applied state's: each id's `mark` byte says which of the two
/// sets hold it, so a pass tests membership in `O(1)` and the comparison
/// walks only the members.
#[derive(Default)]
struct IdSets {
    mark: Vec<u8>,
    live: Vec<u32>,
    next: Vec<u32>,
}

impl IdSets {
    /// Empties both sets over `len` ids (anchor boundary).
    fn reset(&mut self, len: usize) {
        self.mark.clear();
        self.mark.resize(len, 0);
        self.live.clear();
        self.next.clear();
    }

    /// Starts a new pass, dropping whatever a rejected call left built.
    fn begin(&mut self) {
        for &id in &self.next {
            self.mark[id as usize] &= LIVE;
        }
        self.next.clear();
    }

    /// Adds `id` to the set being built; `false` if it was already there.
    fn insert(&mut self, id: u32) -> bool {
        let m = &mut self.mark[id as usize];
        let fresh = *m & NEXT == 0;
        if fresh {
            *m |= NEXT;
            self.next.push(id);
        }
        fresh
    }

    /// Makes the built set the live one, pushing a flip for every id that
    /// changed membership: an edge is present iff its membership equals
    /// `member_present`. The buffers keep their roles (copy, not swap),
    /// so each one's capacity settles once a trace has been seen.
    fn commit(
        &mut self,
        keys: &[u64],
        member_present: bool,
        flips: &mut Vec<(usize, usize, bool)>,
    ) {
        for &id in &self.next {
            if self.mark[id as usize] & LIVE == 0 {
                let (u, v) = unkey(keys[id as usize]);
                flips.push((u, v, member_present));
            }
        }
        for &id in &self.live {
            let m = &mut self.mark[id as usize];
            if *m & NEXT == 0 {
                let (u, v) = unkey(keys[id as usize]);
                flips.push((u, v, !member_present));
            }
            *m = 0;
        }
        for &id in &self.next {
            self.mark[id as usize] = LIVE;
        }
        self.live.clear();
        self.live.extend_from_slice(&self.next);
        self.next.clear();
    }
}

/// `v`'s row of a partner index cut to a prefix of `len` entries, or
/// [`RewireError::SequenceSkew`] when the prefix overruns the anchored row.
fn prefix<'a>(off: &[u32], ids: &'a [u32], v: usize, len: usize) -> Result<&'a [u32], RewireError> {
    ids[off[v] as usize..off[v + 1] as usize]
        .get(..len)
        .ok_or(RewireError::SequenceSkew { node: v })
}

/// A persistent `G_t` with incrementally maintained operators.
///
/// Holds the graph produced by the *last applied* [`TopoState`] together
/// with its [`GraphTensors`] operator cache and homophily numerator.
/// [`apply`](RewiredGraph::apply) transitions to any other state — the
/// driver's ±1 steps, an episodic reset, or an arbitrary checkpoint jump.
/// Always pass the same [`TopologyOptimizer`] the instance was created
/// from; base graph and sequences are immutable for the lifetime of a run
/// (a mismatched pair surfaces as [`RewireError`]).
pub struct RewiredGraph {
    /// Base-graph degrees, the deletion pass's starting degree array.
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
    /// Base edges the deletion pass removed, by eid.
    removed: IdSets,
    /// Candidate edges the addition pass selected, by slot.
    added: IdSets,
    /// The deletion pass's evolving degree array.
    deg: Vec<u32>,
    /// The last transition's flips, `(u, v, present)` with `u < v`,
    /// ascending by edge key.
    flips: Vec<(usize, usize, bool)>,
    /// Same-label edge count of the live graph (homophily numerator).
    same_label: usize,
    /// The live graph plus its propagation operators, rebuilt in place
    /// on edits.
    tensors: GraphTensors,
}

impl RewiredGraph {
    /// Starts at `S_0` (the base graph, no edits).
    pub fn new(topo: &TopologyOptimizer) -> Self {
        let base = topo.base();
        let mut rw = Self {
            base_deg: Vec::new(),
            eid_key: Vec::new(),
            del_off: Vec::new(),
            del_eid: Vec::new(),
            add_off: Vec::new(),
            add_slot: Vec::new(),
            slot_key: Vec::new(),
            removed: IdSets::default(),
            added: IdSets::default(),
            deg: Vec::new(),
            flips: Vec::new(),
            same_label: metrics::same_label_edges(base),
            tensors: GraphTensors::new(base),
        };
        rw.reset_tables(topo);
        rw
    }

    /// Re-anchors the instance on a *new* optimiser whose base graph is
    /// exactly the current live graph (the entropy-refresh boundary: the
    /// driver rebuilds sequences against `G_t` and makes `G_t` the new
    /// `S_0`). The tables and the applied sets reset, while the live
    /// graph and its warmed operator caches carry over untouched, so no
    /// operator rebuild is paid.
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
    /// sequences and empties the applied sets. The one place the engine
    /// is allowed to allocate.
    fn reset_tables(&mut self, topo: &TopologyOptimizer) {
        let base = topo.base();
        let seqs = topo.sequences();
        let n = base.num_nodes();
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
        // keys and base-edge keys are disjoint — `apply` relies on it.
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
        self.removed.reset(m);
        self.added.reset(self.slot_key.len());
        self.deg.clear();
        self.deg.resize(n, 0);
        self.flips.clear();
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

    /// Transitions the live graph from the last applied state to `state`,
    /// mirroring `topo.materialize(state)` exactly. Returns the edges that
    /// flipped, as `(u, v, present)` with `u < v`, ascending by edge key —
    /// the batch format of [`GraphTensors::apply_flips`]. A warmed-up
    /// instance runs the whole call (passes, comparison, operator
    /// refresh) without touching the heap.
    ///
    /// # Errors
    /// Returns a [`RewireError`] when a prefix under `topo` overruns the
    /// anchored tables (corrupt or version-skewed restore); the live graph
    /// and the last applied state are then left as they were.
    pub fn apply(
        &mut self,
        topo: &TopologyOptimizer,
        state: &TopoState,
    ) -> Result<&[(usize, usize, bool)], RewireError> {
        let _span = telemetry::span("rewire.apply");
        let n = self.base_deg.len();
        assert_eq!(topo.base().num_nodes(), n, "optimizer/rewired node count mismatch");
        assert_eq!(state.num_nodes(), n, "state size mismatch");
        let mode = topo.mode();
        let seqs = topo.sequences();

        let delta_span = telemetry::span("rewire.delta_scan");
        // Deletion pass, `materialize`'s loop: skip a removal that would
        // isolate either endpoint at that moment.
        self.removed.begin();
        self.deg.copy_from_slice(&self.base_deg);
        if mode != EditMode::AddOnly {
            for v in 0..n {
                let d = state.d(v).min(seqs.deletions(v).len());
                for &eid in prefix(&self.del_off, &self.del_eid, v, d)? {
                    let (a, b) = unkey(self.eid_key[eid as usize]);
                    if self.deg[a] > 1 && self.deg[b] > 1 && self.removed.insert(eid) {
                        self.deg[a] -= 1;
                        self.deg[b] -= 1;
                    }
                }
            }
        }
        // Addition pass: the union of the top-k prefixes. Candidate pools
        // exclude base edges, so the two passes never touch one edge.
        self.added.begin();
        if mode != EditMode::RemoveOnly {
            for v in 0..n {
                let k = state.k(v).min(seqs.additions(v).len());
                for &slot in prefix(&self.add_off, &self.add_slot, v, k)? {
                    self.added.insert(slot);
                }
            }
        }
        self.flips.clear();
        self.removed.commit(&self.eid_key, false, &mut self.flips);
        self.added.commit(&self.slot_key, true, &mut self.flips);
        drop(delta_span);

        let reconcile_span = telemetry::span("rewire.reconcile");
        // Keys are unique, so sorting the tuples sorts by edge key: the
        // order `GraphTensors::apply_flips` requires.
        self.flips.sort_unstable();
        let g = self.tensors.graph();
        let mut added = 0u64;
        for &(u, v, present) in &self.flips {
            added += u64::from(present);
            if g.label(u) == g.label(v) {
                if present {
                    self.same_label += 1;
                } else {
                    self.same_label -= 1;
                }
            }
        }
        drop(reconcile_span);
        {
            let _op_span = telemetry::span("rewire.operators");
            self.tensors.apply_flips(&self.flips);
        }

        telemetry::counter("rewire.applies", 1);
        telemetry::counter("rewire.edges_added", added);
        telemetry::counter("rewire.edges_removed", self.flips.len() as u64 - added);
        Ok(&self.flips)
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

    /// Base edges in some node's deletion prefix that are still present:
    /// the edges the isolation guard kept.
    fn guard_kept(rw: &RewiredGraph, topo: &TopologyOptimizer, state: &TopoState) -> usize {
        let mut kept: Vec<(usize, usize)> = (0..state.num_nodes())
            .flat_map(|v| {
                topo.sequences().deletions(v)[..state.d(v)].iter().map(move |&(u, _)| {
                    let u = u as usize;
                    (v.min(u), v.max(u))
                })
            })
            .filter(|&(a, b)| rw.graph().has_edge(a, b))
            .collect();
        kept.sort_unstable();
        kept.dedup();
        kept.len()
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
        let added: Vec<(usize, usize, bool)> = rw.apply(&topo, &state).unwrap().to_vec();
        assert!(!added.is_empty() && added.iter().all(|&(_, _, present)| present));
        assert_matches_materialize(&rw, &topo, &state);
        // Walk back down to S0: exactly the added edges leave again.
        state.set_k(0, 0);
        state.set_k(3, 0);
        let removed: Vec<(usize, usize, bool)> =
            added.iter().map(|&(u, v, _)| (u, v, false)).collect();
        assert_eq!(rw.apply(&topo, &state).unwrap(), &removed[..]);
        assert_matches_materialize(&rw, &topo, &state);
        assert_eq!(rw.graph().edge_vec(), topo.base().edge_vec());
    }

    #[test]
    fn deletion_guard_cascade_is_exact() {
        // On a path graph every interior deletion threatens a leaf: with
        // every prefix at its full degree, the sequential guard must keep
        // edges, and shrinking, growing and releasing one node's prefix
        // must follow the reference pass bit for bit.
        let topo = path_optimizer(EditMode::Both);
        let mut rw = RewiredGraph::new(&topo);
        let n = topo.base().num_nodes();
        let k_max = vec![2u16; n];
        let d_max: Vec<u16> = (0..n).map(|v| topo.base().degree(v) as u16).collect();
        let mut state = TopoState::new(k_max, d_max);
        for v in 0..n {
            state.set_d(v, state.d_max(v));
        }
        rw.apply(&topo, &state).unwrap();
        assert_matches_materialize(&rw, &topo, &state);
        assert!(guard_kept(&rw, &topo, &state) > 0, "the leaf guard must keep edges");
        // An addition-only step, then a member's prefix shrinks and grows.
        for (k0, d2) in [(1, 2), (1, 1), (1, 2)] {
            state.set_k(0, k0);
            state.set_d(2, d2);
            rw.apply(&topo, &state).unwrap();
            assert_matches_materialize(&rw, &topo, &state);
        }
        // Releasing the deletions recovers the base graph plus additions,
        // then the base graph itself.
        for v in 0..n {
            state.set_d(v, 0);
        }
        rw.apply(&topo, &state).unwrap();
        assert_matches_materialize(&rw, &topo, &state);
        state.reset();
        rw.apply(&topo, &state).unwrap();
        assert_matches_materialize(&rw, &topo, &state);
        assert_eq!(rw.graph().edge_vec(), topo.base().edge_vec());
    }

    #[test]
    fn unguarded_deletion_removes_one_edge() {
        let topo = path_optimizer(EditMode::Both);
        let mut rw = RewiredGraph::new(&topo);
        let mut state = TopoState::new(topo.k_bounds(8), topo.d_bounds(8));
        // Node 2 slates one of two edges: every endpoint keeps a spare.
        state.set_d(2, 1);
        let flips = rw.apply(&topo, &state).unwrap();
        assert_eq!(flips.len(), 1);
        assert!(!flips[0].2);
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
        let flips = rw.apply(&topo, &state).unwrap();
        assert!(flips.iter().all(|&(_, _, present)| present));
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
        let flips = rw.apply(&topo, &state).unwrap();
        assert!(flips.iter().all(|&(_, _, present)| !present));
        assert_matches_materialize(&rw, &topo, &state);
    }

    #[test]
    fn arbitrary_state_jumps_converge() {
        // Checkpoint restores jump counters arbitrarily; the engine must
        // land on materialize's output regardless of the path taken, and
        // report exactly the edges that changed, in edge-key order.
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
            let before = rw.graph().edge_vec();
            let after = topo.materialize(&state).edge_vec();
            let mut want: Vec<(usize, usize, bool)> = after
                .iter()
                .filter(|e| !before.contains(e))
                .map(|&(u, v)| (u, v, true))
                .chain(before.iter().filter(|e| !after.contains(e)).map(|&(u, v)| (u, v, false)))
                .collect();
            want.sort_unstable_by_key(|&(u, v, _)| edge_key(u, v));
            assert_eq!(rw.apply(&topo, &state).unwrap(), &want[..]);
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
        assert!(rw.apply(&topo, &state).unwrap().is_empty());
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
    fn rejected_apply_leaves_the_instance_usable() {
        // Node 0's prefix fits the short rows; node 3's does not. The
        // rejection must not keep node 0's half of the transition.
        let short = path_optimizer_with(EditMode::Both, 1);
        let long = path_optimizer_with(EditMode::Both, 8);
        assert!(long.sequences().additions(3).len() > short.sequences().additions(3).len());
        let mut rw = RewiredGraph::new(&short);
        rw.tensors().gcn_norm();
        let mut state = TopoState::new(long.k_bounds(8), long.d_bounds(8));
        state.set_k(0, 1);
        state.set_k(3, 2);
        assert_eq!(rw.apply(&long, &state).unwrap_err(), RewireError::SequenceSkew { node: 3 });
        assert_eq!(rw.graph().edge_vec(), short.base().edge_vec());
        let mut state = TopoState::new(short.k_bounds(8), short.d_bounds(8));
        state.set_k(0, 1);
        state.set_d(2, 1);
        rw.apply(&short, &state).unwrap();
        assert_matches_materialize(&rw, &short, &state);
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
