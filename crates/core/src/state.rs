//! The MDP state `S = [k_1..k_N, d_1..d_N]` (Sec. IV-B).
//!
//! Each node carries two counters: `k_v` — how many of its top entropy
//! candidates are connected — and `d_v` — how many of its lowest-entropy
//! original neighbours are removed. Actions move each counter by
//! `{−1, 0, +1}` (the paper's Δk = 1), clamped to the per-node feasible
//! range.

use graphrare_rl::ACTION_ARITY;

/// Per-node topology counters with per-node bounds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopoState {
    k: Vec<u16>,
    d: Vec<u16>,
    k_max: Vec<u16>,
    d_max: Vec<u16>,
}

impl TopoState {
    /// Creates the all-zero initial state `S_0` with the given per-node
    /// bounds (usually the entropy-sequence lengths, possibly capped).
    pub fn new(k_max: Vec<u16>, d_max: Vec<u16>) -> Self {
        assert_eq!(k_max.len(), d_max.len(), "bound vectors must have equal length");
        let n = k_max.len();
        Self { k: vec![0; n], d: vec![0; n], k_max, d_max }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.k.len()
    }

    /// Whether the state covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.k.is_empty()
    }

    /// `k_v`: edges added for node `v`.
    pub fn k(&self, v: usize) -> usize {
        self.k[v] as usize
    }

    /// `d_v`: edges deleted for node `v`.
    pub fn d(&self, v: usize) -> usize {
        self.d[v] as usize
    }

    /// Upper bound of `k_v`.
    pub fn k_max(&self, v: usize) -> usize {
        self.k_max[v] as usize
    }

    /// Upper bound of `d_v`.
    pub fn d_max(&self, v: usize) -> usize {
        self.d_max[v] as usize
    }

    /// Sets `k_v` directly (clamped); used by the fixed/random ablations.
    pub fn set_k(&mut self, v: usize, k: usize) {
        self.k[v] = (k as u16).min(self.k_max[v]);
    }

    /// Sets `d_v` directly (clamped).
    pub fn set_d(&mut self, v: usize, d: usize) {
        self.d[v] = (d as u16).min(self.d_max[v]);
    }

    /// Resets to `S_0 = [0, 0, …]`.
    pub fn reset(&mut self) {
        self.k.iter_mut().for_each(|v| *v = 0);
        self.d.iter_mut().for_each(|v| *v = 0);
    }

    /// Applies a multi-discrete action (Eq. 10: `S_{t+1} = S_t + A_t`).
    ///
    /// `actions` holds one index per head in node-interleaved layout: head
    /// `2v` adjusts `k_v`, head `2v+1` adjusts `d_v`; index 0 decrements,
    /// 1 keeps, 2 increments. Out-of-range moves saturate.
    pub fn apply(&mut self, actions: &[u8]) {
        assert_eq!(actions.len(), 2 * self.k.len(), "action length mismatch");
        for v in 0..self.k.len() {
            self.k[v] = step(self.k[v], actions[2 * v], self.k_max[v]);
            self.d[v] = step(self.d[v], actions[2 * v + 1], self.d_max[v]);
        }
    }

    /// Policy-network features: node-interleaved `(k_v / k_max_v,
    /// d_v / d_max_v)` pairs, the flat state vector of
    /// policy ([`Mlp::policy`](graphrare_rl::Mlp::policy)).
    pub fn features(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(2 * self.k.len());
        for v in 0..self.k.len() {
            out.push(normalized(self.k[v], self.k_max[v]));
            out.push(normalized(self.d[v], self.d_max[v]));
        }
        out
    }

    /// Raw `k` counters (checkpoint capture).
    pub fn k_vec(&self) -> &[u16] {
        &self.k
    }

    /// Raw `d` counters (checkpoint capture).
    pub fn d_vec(&self) -> &[u16] {
        &self.d
    }

    /// Raw per-node `k` bounds (checkpoint capture).
    pub fn k_max_vec(&self) -> &[u16] {
        &self.k_max
    }

    /// Raw per-node `d` bounds (checkpoint capture).
    pub fn d_max_vec(&self) -> &[u16] {
        &self.d_max
    }

    /// Rebuilds a state from raw vectors captured by the accessors above
    /// (checkpoint restore). Returns `None` if the vectors disagree in
    /// length or a counter exceeds its bound.
    pub fn from_raw(k: Vec<u16>, d: Vec<u16>, k_max: Vec<u16>, d_max: Vec<u16>) -> Option<Self> {
        let n = k.len();
        if d.len() != n || k_max.len() != n || d_max.len() != n {
            return None;
        }
        if k.iter().zip(&k_max).any(|(v, m)| v > m) || d.iter().zip(&d_max).any(|(v, m)| v > m) {
            return None;
        }
        Some(Self { k, d, k_max, d_max })
    }

    /// Total number of added edges implied by the state.
    pub fn total_k(&self) -> usize {
        self.k.iter().map(|&v| v as usize).sum()
    }

    /// Total number of deleted edges implied by the state.
    pub fn total_d(&self) -> usize {
        self.d.iter().map(|&v| v as usize).sum()
    }
}

#[inline]
fn step(current: u16, action: u8, max: u16) -> u16 {
    debug_assert!((action as usize) < ACTION_ARITY);
    match action {
        0 => current.saturating_sub(1),
        1 => current,
        _ => (current + 1).min(max),
    }
}

#[inline]
fn normalized(value: u16, max: u16) -> f32 {
    if max == 0 {
        0.0
    } else {
        value as f32 / max as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> TopoState {
        TopoState::new(vec![3, 0, 2], vec![1, 2, 0])
    }

    #[test]
    fn initial_state_is_zero() {
        let s = state();
        assert_eq!(s.num_nodes(), 3);
        assert_eq!(s.total_k(), 0);
        assert_eq!(s.total_d(), 0);
        assert_eq!(s.features(), vec![0.0; 6]);
    }

    #[test]
    fn apply_increments_and_saturates_at_max() {
        let mut s = state();
        // Increment every head thrice.
        for _ in 0..3 {
            s.apply(&[2, 2, 2, 2, 2, 2]);
        }
        assert_eq!(s.k(0), 3);
        assert_eq!(s.k(1), 0, "k_max = 0 must stay 0");
        assert_eq!(s.k(2), 2);
        assert_eq!(s.d(0), 1);
        assert_eq!(s.d(1), 2);
        assert_eq!(s.d(2), 0);
    }

    #[test]
    fn apply_decrement_saturates_at_zero() {
        let mut s = state();
        s.apply(&[0, 0, 0, 0, 0, 0]);
        assert_eq!(s.total_k() + s.total_d(), 0);
    }

    #[test]
    fn keep_action_is_identity() {
        let mut s = state();
        s.apply(&[2, 2, 2, 2, 2, 2]);
        let before = s.clone();
        s.apply(&[1, 1, 1, 1, 1, 1]);
        assert_eq!(s, before);
    }

    #[test]
    fn features_are_normalized() {
        let mut s = state();
        s.apply(&[2, 2, 2, 2, 2, 2]);
        let f = s.features();
        assert!((f[0] - 1.0 / 3.0).abs() < 1e-6);
        assert_eq!(f[2], 0.0, "max 0 node stays 0");
        assert!((f[1] - 1.0).abs() < 1e-6);
        assert!(f.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn reset_clears_counters() {
        let mut s = state();
        s.apply(&[2, 2, 2, 2, 2, 2]);
        s.reset();
        assert_eq!(s.total_k(), 0);
        assert_eq!(s.total_d(), 0);
    }

    #[test]
    fn raw_roundtrip_preserves_state() {
        let mut s = state();
        s.apply(&[2, 2, 2, 2, 2, 2]);
        let back = TopoState::from_raw(
            s.k_vec().to_vec(),
            s.d_vec().to_vec(),
            s.k_max_vec().to_vec(),
            s.d_max_vec().to_vec(),
        )
        .unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn from_raw_rejects_inconsistent_vectors() {
        assert!(TopoState::from_raw(vec![1], vec![0, 0], vec![2], vec![1]).is_none());
        assert!(TopoState::from_raw(vec![5], vec![0], vec![2], vec![1]).is_none(), "k > k_max");
    }

    #[test]
    fn set_k_clamps() {
        let mut s = state();
        s.set_k(0, 99);
        assert_eq!(s.k(0), 3);
        s.set_d(1, 1);
        assert_eq!(s.d(1), 1);
    }
}
