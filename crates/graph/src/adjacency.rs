//! CSR-backed undirected adjacency with batched edit application.
//!
//! The rewiring hot path (Algorithm 1) edits topology in *batches*: one
//! DRL step produces a list of edge additions and removals that is applied
//! atomically. [`CsrAdjacency`] stores neighbour lists as one flat,
//! row-sorted array (compressed sparse rows) so that
//!
//! * iteration is a contiguous slice walk (no pointer chasing, unlike the
//!   former per-node `BTreeSet`s),
//! * membership tests are a binary search over a small sorted slice,
//! * cloning is three `memcpy`s (the incremental driver snapshots graphs
//!   every improvement step),
//! * a whole batch of edits is applied in **one** sorted-merge splice over
//!   the flat arrays — `O(V + E + B log B)` for `B` edits, instead of
//!   `B` tree edits with their allocator traffic.
//!
//! Single-edge [`insert`](CsrAdjacency::insert) /
//! [`remove`](CsrAdjacency::remove) remain available for construction-time
//! and test callers, but each one is a full splice (`O(V + E)`): hot paths
//! must batch (see `Graph::apply_edits` and
//! `TopologyOptimizer::materialize`).

/// Direction of one topology edit in a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeEdit {
    /// Ensure the undirected edge exists.
    Add,
    /// Ensure the undirected edge is absent.
    Remove,
}

/// Packs an undirected edge into one `u64` key (smaller endpoint in the
/// high half), so edge sets sort in `(min, max)` order.
#[inline]
pub fn edge_key(u: usize, v: usize) -> u64 {
    let (a, b) = if u < v { (u, v) } else { (v, u) };
    ((a as u64) << 32) | b as u64
}

/// Inverse of [`edge_key`]: `(min, max)` endpoints.
#[inline]
pub fn unkey(key: u64) -> (usize, usize) {
    ((key >> 32) as usize, (key & 0xffff_ffff) as usize)
}

/// Most nodes a [`CsrAdjacency`] can hold: neighbour ids are stored as
/// `u32`, so node indices must fit that id space.
pub const MAX_NODES: usize = u32::MAX as usize;

/// Compressed-sparse-row adjacency: `offsets[v]..offsets[v + 1]` indexes
/// the sorted neighbour slice of node `v` inside `targets`.
#[derive(Debug, Default)]
pub struct CsrAdjacency {
    offsets: Vec<usize>,
    targets: Vec<u32>,
    // Reusable splice scratch: double-buffered output arrays, the
    // undirected-flip expansion buffer, and the counting-scatter
    // workspace. Never part of the logical value — excluded from
    // comparisons, and `clone` hands out a cold copy.
    spare_offsets: Vec<usize>,
    spare_targets: Vec<u32>,
    change_buf: Vec<(u32, u32, bool)>,
    scatter_starts: Vec<usize>,
    scatter_buf: Vec<(u32, u32, bool)>,
}

impl Clone for CsrAdjacency {
    fn clone(&self) -> Self {
        Self { offsets: self.offsets.clone(), targets: self.targets.clone(), ..Self::default() }
    }
}

impl PartialEq for CsrAdjacency {
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets && self.targets == other.targets
    }
}

impl Eq for CsrAdjacency {}

impl CsrAdjacency {
    /// Rejects node counts beyond the `u32` id space before anything is
    /// allocated: without this bound the `as u32` casts in the splice
    /// paths would silently truncate ids at N ≥ 2³².
    fn check_node_count(n: usize) {
        assert!(
            n <= MAX_NODES,
            "node count {n} exceeds the CsrAdjacency u32 id space (max {MAX_NODES} nodes)"
        );
    }

    /// Adjacency of `n` isolated nodes.
    ///
    /// # Panics
    /// Panics when `n` exceeds [`MAX_NODES`].
    pub fn new(n: usize) -> Self {
        Self::check_node_count(n);
        Self { offsets: vec![0; n + 1], ..Self::default() }
    }

    /// Builds from an undirected edge list; duplicates, self-loops and
    /// out-of-bounds pairs are dropped. Returns the adjacency and the
    /// number of distinct undirected edges kept.
    ///
    /// # Panics
    /// Panics when `n` exceeds [`MAX_NODES`].
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> (Self, usize) {
        Self::check_node_count(n);
        let mut keys: Vec<u64> = edges
            .into_iter()
            .filter(|&(u, v)| u != v && u < n && v < n)
            .map(|(u, v)| edge_key(u, v))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let num_edges = keys.len();
        // Scatter both directions, then build rows by counting sort.
        let mut counts = vec![0usize; n + 1];
        for &key in &keys {
            let (u, v) = unkey(key);
            counts[u + 1] += 1;
            counts[v + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let mut targets = vec![0u32; 2 * num_edges];
        let mut cursor = counts.clone();
        // Keys ascend in (min, max); writing both directions in key order
        // leaves each row sorted except for the min-side entries, which
        // arrive in max order — they are still ascending per row because
        // keys group by min first. The max-side entries (neighbour < v)
        // also arrive ascending. The two runs interleave, so sort rows.
        for &key in &keys {
            let (u, v) = unkey(key);
            targets[cursor[u]] = v as u32;
            cursor[u] += 1;
            targets[cursor[v]] = u as u32;
            cursor[v] += 1;
        }
        for v in 0..n {
            targets[counts[v]..counts[v + 1]].sort_unstable();
        }
        (Self { offsets: counts, targets, ..Self::default() }, num_edges)
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the adjacency has zero nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted neighbour slice of node `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether the directed entry `v -> u` is present.
    #[inline]
    pub fn contains(&self, v: usize, u: usize) -> bool {
        self.neighbors(v).binary_search(&(u as u32)).is_ok()
    }

    /// Inserts the undirected edge `{u, v}`; returns `true` if new.
    /// `O(V + E)` — batch via [`apply_changes`](Self::apply_changes) on
    /// hot paths.
    pub fn insert(&mut self, u: usize, v: usize) -> bool {
        if self.contains(u, v) {
            return false;
        }
        self.apply_changes(&mut [(u as u32, v as u32, true), (v as u32, u as u32, true)], 2, 0);
        true
    }

    /// Removes the undirected edge `{u, v}`; returns `true` if it existed.
    /// `O(V + E)` — batch via [`apply_changes`](Self::apply_changes) on
    /// hot paths.
    pub fn remove(&mut self, u: usize, v: usize) -> bool {
        if !self.contains(u, v) {
            return false;
        }
        self.apply_changes(&mut [(u as u32, v as u32, false), (v as u32, u as u32, false)], 0, 2);
        true
    }

    /// Applies a batch of *undirected* edge flips in one splice, reusing
    /// internal scratch for the direction expansion: each `(u, v, want)`
    /// flip becomes the two directed half-edge changes
    /// [`apply_changes`](Self::apply_changes) expects. `added`/`removed`
    /// count undirected edges. Allocation-free once the scratch has
    /// warmed up to the batch size.
    pub fn apply_flips(&mut self, flips: &[(usize, usize, bool)], added: usize, removed: usize) {
        if flips.is_empty() {
            return;
        }
        let mut buf = std::mem::take(&mut self.change_buf);
        buf.clear();
        buf.reserve(2 * flips.len());
        for &(u, v, want) in flips {
            buf.push((u as u32, v as u32, want));
            buf.push((v as u32, u as u32, want));
        }
        self.apply_changes(&mut buf, 2 * added, 2 * removed);
        self.change_buf = buf;
    }

    /// Applies a batch of *directed* entry changes in one sorted-merge
    /// splice over the flat arrays.
    ///
    /// `changes` holds `(row, col, add)` half-edges (callers pass both
    /// directions of every undirected edit); it is sorted in place. Every
    /// addition must be absent and every removal present — callers
    /// reconcile against the current structure first. `added`/`removed`
    /// are the directed totals, used to size the new target array.
    ///
    /// Untouched row spans are block-copied; touched rows are merged with
    /// their change list into a double-buffered output array (the old
    /// arrays become the next splice's buffers, so steady-state batches
    /// allocate nothing). Cost is `O(V + E + B log B)`.
    pub fn apply_changes(
        &mut self,
        changes: &mut [(u32, u32, bool)],
        added: usize,
        removed: usize,
    ) {
        if changes.is_empty() {
            return;
        }
        let n = self.len();
        // The merge below needs `changes` sorted by (row, col). Callers
        // emit both directions of key-ordered undirected edits, i.e. two
        // interleaved sorted runs — a pattern the comparison sort cannot
        // exploit — so large batches are ordered by a counting scatter
        // over rows plus tiny per-row sorts, `O(V + B + Σ b_r log b_r)`.
        if 4 * changes.len() >= n {
            let starts = &mut self.scatter_starts;
            starts.clear();
            starts.resize(n + 1, 0);
            for &(r, _, _) in changes.iter() {
                starts[r as usize + 1] += 1;
            }
            for i in 0..n {
                starts[i + 1] += starts[i];
            }
            let scattered = &mut self.scatter_buf;
            scattered.clear();
            scattered.resize(changes.len(), (0, 0, false));
            // `starts[r]` doubles as the write cursor for row `r`; after
            // the scatter it has advanced to the row's end, so row
            // boundaries are still recoverable from the previous row's
            // end — no cloned cursor array needed.
            for &c in changes.iter() {
                let slot = &mut starts[c.0 as usize];
                scattered[*slot] = c;
                *slot += 1;
            }
            for r in 0..n {
                let lo = if r == 0 { 0 } else { starts[r - 1] };
                scattered[lo..starts[r]].sort_unstable();
            }
            changes.copy_from_slice(scattered);
        } else {
            changes.sort_unstable();
        }
        let mut targets = std::mem::take(&mut self.spare_targets);
        let mut offsets = std::mem::take(&mut self.spare_offsets);
        targets.clear();
        targets.reserve(self.targets.len() + added - removed);
        offsets.clear();
        offsets.reserve(n + 1);
        offsets.push(0);
        let mut i = 0; // cursor into `changes`
        let mut r = 0;
        while r < n {
            if i >= changes.len() {
                // Tail: block-copy every remaining row.
                let lo = self.offsets[r];
                targets.extend_from_slice(&self.targets[lo..]);
                let shift = offsets[r] as isize - lo as isize;
                for rr in r..n {
                    offsets.push((self.offsets[rr + 1] as isize + shift) as usize);
                }
                break;
            }
            let next_row = changes[i].0 as usize;
            if next_row > r {
                // Block-copy the untouched span [r, next_row).
                let lo = self.offsets[r];
                let hi = self.offsets[next_row];
                targets.extend_from_slice(&self.targets[lo..hi]);
                let shift = offsets[r] as isize - lo as isize;
                for rr in r..next_row {
                    offsets.push((self.offsets[rr + 1] as isize + shift) as usize);
                }
                r = next_row;
                continue;
            }
            // Merge row `r` with its changes (both sorted by column).
            let row = &self.targets[self.offsets[r]..self.offsets[r + 1]];
            let mut j = 0;
            while i < changes.len() && changes[i].0 as usize == r {
                let (_, col, add) = changes[i];
                while j < row.len() && row[j] < col {
                    targets.push(row[j]);
                    j += 1;
                }
                if add {
                    debug_assert!(
                        j >= row.len() || row[j] != col,
                        "adding present entry {r}->{col}"
                    );
                    targets.push(col);
                } else {
                    debug_assert!(
                        j < row.len() && row[j] == col,
                        "removing absent entry {r}->{col}"
                    );
                    j += 1; // skip the removed column
                }
                i += 1;
            }
            targets.extend_from_slice(&row[j..]);
            offsets.push(targets.len());
            r += 1;
        }
        self.spare_targets = std::mem::replace(&mut self.targets, targets);
        self.spare_offsets = std::mem::replace(&mut self.offsets, offsets);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_dedups_and_sorts() {
        let (adj, m) = CsrAdjacency::from_edges(4, [(1, 0), (0, 1), (2, 2), (3, 1), (9, 0)]);
        assert_eq!(m, 2);
        assert_eq!(adj.neighbors(1), &[0, 3]);
        assert_eq!(adj.neighbors(0), &[1]);
        assert_eq!(adj.degree(2), 0);
        assert!(adj.contains(3, 1) && adj.contains(1, 3));
    }

    #[test]
    fn single_edits_splice() {
        let (mut adj, _) = CsrAdjacency::from_edges(4, [(0, 2)]);
        assert!(adj.insert(0, 1));
        assert!(!adj.insert(1, 0));
        assert_eq!(adj.neighbors(0), &[1, 2]);
        assert!(adj.remove(0, 2));
        assert!(!adj.remove(0, 2));
        assert_eq!(adj.neighbors(0), &[1]);
        assert_eq!(adj.neighbors(2), &[] as &[u32]);
    }

    #[test]
    fn batched_changes_match_singles() {
        let (mut a, _) = CsrAdjacency::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut b = a.clone();
        // Remove (1,2), add (0,4) and (1,3) as one batch on `a` ...
        let mut changes = vec![
            (1u32, 2u32, false),
            (2, 1, false),
            (0, 4, true),
            (4, 0, true),
            (1, 3, true),
            (3, 1, true),
        ];
        a.apply_changes(&mut changes, 4, 2);
        // ... and as single edits on `b`.
        b.remove(1, 2);
        b.insert(0, 4);
        b.insert(1, 3);
        assert_eq!(a, b);
        assert_eq!(a.neighbors(1), &[0, 3]);
    }

    #[test]
    fn small_batch_on_large_graph_matches_singles() {
        // 4 * B < n: the comparison-sort branch (large batches on the
        // small test graphs above all take the counting scatter).
        let (mut a, _) = CsrAdjacency::from_edges(40, [(0, 1), (5, 6), (6, 7)]);
        let mut b = a.clone();
        let mut changes = vec![(2u32, 7u32, true), (7, 2, true), (5, 6, false), (6, 5, false)];
        a.apply_changes(&mut changes, 2, 2);
        b.insert(2, 7);
        b.remove(5, 6);
        assert_eq!(a, b);
        assert_eq!(a.neighbors(7), &[2, 6]);
    }

    #[test]
    fn edge_key_roundtrip() {
        assert_eq!(edge_key(7, 3), edge_key(3, 7));
        assert_eq!(unkey(edge_key(3, 7)), (3, 7));
    }

    #[test]
    fn apply_flips_matches_directed_changes() {
        let (mut a, _) = CsrAdjacency::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut b = a.clone();
        // Twice, so the second batch runs on warm scratch buffers.
        for flips in [
            &[(1usize, 2usize, false), (0, 4, true), (1, 3, true)][..],
            &[(0, 4, false), (2, 4, true)][..],
        ] {
            let added = flips.iter().filter(|f| f.2).count();
            let removed = flips.len() - added;
            a.apply_flips(flips, added, removed);
            for &(u, v, want) in flips {
                if want {
                    b.insert(u, v);
                } else {
                    b.remove(u, v);
                }
            }
            assert_eq!(a, b);
        }
        assert_eq!(a.neighbors(4), &[2, 3]);
    }

    #[test]
    #[should_panic(expected = "exceeds the CsrAdjacency u32 id space")]
    fn new_rejects_node_counts_beyond_u32_ids() {
        let _ = CsrAdjacency::new(MAX_NODES + 1);
    }

    #[test]
    #[should_panic(expected = "exceeds the CsrAdjacency u32 id space")]
    fn from_edges_rejects_node_counts_beyond_u32_ids() {
        let _ = CsrAdjacency::from_edges(MAX_NODES + 7, []);
    }

    #[test]
    fn clone_and_eq_ignore_splice_scratch() {
        let (mut a, _) = CsrAdjacency::from_edges(6, [(0, 1), (2, 3)]);
        // Warm the scratch on `a` only; the logical value is unchanged
        // by a no-op pair of flips.
        a.apply_flips(&[(4, 5, true)], 1, 0);
        a.apply_flips(&[(4, 5, false)], 0, 1);
        let (b, _) = CsrAdjacency::from_edges(6, [(0, 1), (2, 3)]);
        assert_eq!(a, b);
        let c = a.clone();
        assert_eq!(c, a);
        assert!(c.spare_offsets.is_empty() && c.scatter_buf.is_empty());
    }
}
