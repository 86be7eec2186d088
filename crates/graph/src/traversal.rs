//! Breadth-first traversal utilities: k-hop neighbourhoods and rings.
//!
//! GraphRARE's entropy sequences rank *remote* candidates — nodes beyond the
//! one-hop neighbourhood (`N_k(v)` in Table I). These helpers enumerate
//! those candidate pools deterministically.

use std::collections::VecDeque;

use crate::graph::Graph;

/// Nodes within `k` hops of `v`, excluding `v` itself, as
/// `(node, distance)` pairs in BFS order.
pub fn k_hop_neighbors(g: &Graph, v: usize, k: usize) -> Vec<(usize, usize)> {
    let mut dist = vec![usize::MAX; g.num_nodes()];
    let mut out = Vec::new();
    let mut queue = VecDeque::new();
    dist[v] = 0;
    queue.push_back(v);
    while let Some(u) = queue.pop_front() {
        if dist[u] == k {
            continue;
        }
        for w in g.neighbors(u) {
            if dist[w] == usize::MAX {
                dist[w] = dist[u] + 1;
                out.push((w, dist[w]));
                queue.push_back(w);
            }
        }
    }
    out
}

/// The "remote ring" of `v`: nodes at distance in `[2, k]` — the candidate
/// pool from which GraphRARE selects new neighbours.
pub fn remote_ring(g: &Graph, v: usize, k: usize) -> Vec<usize> {
    k_hop_neighbors(g, v, k).into_iter().filter(|&(_, d)| d >= 2).map(|(u, _)| u).collect()
}

/// Reusable state for [`remote_ring_into`]: epoch-stamped visited marks
/// plus a BFS queue, so repeated ring enumerations (one per node in
/// `EntropySequences::build`) allocate nothing after warm-up.
///
/// The marks are compared against a per-call epoch instead of being
/// cleared, so reuse costs O(ring) per call rather than O(n). A single
/// scratch may be shared across graphs of different sizes; the mark
/// vector grows lazily.
#[derive(Debug, Default)]
pub struct RingScratch {
    mark: Vec<u64>,
    epoch: u64,
    queue: VecDeque<(u32, u32)>,
}

impl RingScratch {
    /// A fresh scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Allocation-free [`remote_ring`]: appends the distance-`[2, k]` ring of
/// `v` to `out` in the same BFS discovery order `remote_ring` produces.
/// `out` is *not* cleared — callers truncate or clear as needed.
pub fn remote_ring_into(
    g: &Graph,
    v: usize,
    k: usize,
    scratch: &mut RingScratch,
    out: &mut Vec<usize>,
) {
    let n = g.num_nodes();
    if scratch.mark.len() < n {
        scratch.mark.resize(n, 0);
    }
    scratch.epoch += 1;
    let epoch = scratch.epoch;
    scratch.queue.clear();
    scratch.mark[v] = epoch;
    scratch.queue.push_back((v as u32, 0));
    while let Some((u, d)) = scratch.queue.pop_front() {
        if d as usize == k {
            continue;
        }
        for w in g.neighbors(u as usize) {
            if scratch.mark[w] != epoch {
                scratch.mark[w] = epoch;
                if d + 1 >= 2 {
                    out.push(w);
                }
                scratch.queue.push_back((w as u32, d + 1));
            }
        }
    }
}

/// Connected components as a label vector (component ids are dense,
/// assigned in order of the lowest node id in the component).
pub fn connected_components(g: &Graph) -> Vec<usize> {
    let n = g.num_nodes();
    let mut comp = vec![usize::MAX; n];
    let mut next = 0usize;
    let mut queue = VecDeque::new();
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        comp[start] = next;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for w in g.neighbors(u) {
                if comp[w] == usize::MAX {
                    comp[w] = next;
                    queue.push_back(w);
                }
            }
        }
        next += 1;
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrare_tensor::Matrix;

    fn path(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges, Matrix::zeros(n, 1), vec![0; n], 1)
    }

    #[test]
    fn k_hop_distances_on_path() {
        let g = path(5);
        let hops = k_hop_neighbors(&g, 0, 3);
        assert_eq!(hops, vec![(1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn remote_ring_excludes_one_hop() {
        let g = path(6);
        assert_eq!(remote_ring(&g, 0, 4), vec![2, 3, 4]);
        assert_eq!(remote_ring(&g, 2, 2), vec![0, 4]);
    }

    #[test]
    fn k_zero_is_empty() {
        let g = path(3);
        assert!(k_hop_neighbors(&g, 1, 0).is_empty());
    }

    #[test]
    fn remote_ring_into_matches_remote_ring_across_reuse() {
        let g = path(7);
        let mut scratch = RingScratch::new();
        let mut out = Vec::new();
        for v in 0..7 {
            for k in 0..5 {
                out.clear();
                remote_ring_into(&g, v, k, &mut scratch, &mut out);
                assert_eq!(out, remote_ring(&g, v, k), "v={v} k={k}");
            }
        }
        // The same scratch must stay correct on a different (larger) graph.
        let g2 = path(12);
        out.clear();
        remote_ring_into(&g2, 0, 6, &mut scratch, &mut out);
        assert_eq!(out, remote_ring(&g2, 0, 6));
    }

    #[test]
    fn components_of_disconnected_graph() {
        let g = Graph::from_edges(5, &[(0, 1), (3, 4)], Matrix::zeros(5, 1), vec![0; 5], 1);
        assert_eq!(connected_components(&g), vec![0, 0, 1, 2, 2]);
    }
}
