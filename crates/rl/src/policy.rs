//! The multi-discrete stochastic policy and its critic.
//!
//! GraphRARE's action space is multi-discrete (Sec. IV-B): one
//! `{−1, 0, +1}` head per state component (`k_i` and `d_i` for every
//! node). [`GlobalPolicy`] is an MLP over the *entire* state vector
//! producing all head logits at once; this matches the paper's
//! Stable-Baselines3 `MlpPolicy` over the flattened multi-discrete state.
//!
//! It emits logits in the layout consumed by
//! [`Tape::multi_discrete_log_prob`]: heads are interleaved per node —
//! head `2i` is node `i`'s `k` head, head `2i+1` its `d` head.

use rand::rngs::StdRng;
use rand::SeedableRng;

use graphrare_tensor::{init, Param, Tape, Var};

/// Number of choices per head: decrement, keep, increment.
pub const ACTION_ARITY: usize = 3;

/// MLP over the full state vector (the paper's configuration).
pub struct GlobalPolicy {
    w1: Param,
    b1: Param,
    w2: Param,
    b2: Param,
    heads: usize,
}

impl GlobalPolicy {
    /// Creates a policy for `heads` action heads over `state_dim` inputs.
    pub fn new(state_dim: usize, hidden: usize, heads: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let out = heads * ACTION_ARITY;
        Self {
            w1: Param::new("policy.w1", init::glorot_uniform(&mut rng, state_dim, hidden)),
            b1: Param::new("policy.b1", graphrare_tensor::Matrix::zeros(1, hidden)),
            // Small output gain: near-uniform initial policy (SB3 style).
            w2: Param::new("policy.w2", init::scaled_normal(&mut rng, hidden, out, 0.01)),
            b2: Param::new("policy.b2", graphrare_tensor::Matrix::zeros(1, out)),
            heads,
        }
    }

    /// Produces `B x (heads · ACTION_ARITY)` logits for `B x state_dim`
    /// states already on the tape.
    pub fn logits(&self, tape: &mut Tape, states: Var) -> Var {
        let w1 = tape.param(&self.w1);
        let b1 = tape.param(&self.b1);
        let w2 = tape.param(&self.w2);
        let b2 = tape.param(&self.b2);
        let h = tape.matmul(states, w1);
        let h = tape.add_bias(h, b1);
        let h = tape.tanh(h);
        let o = tape.matmul(h, w2);
        tape.add_bias(o, b2)
    }

    /// Trainable parameters.
    pub fn params(&self) -> Vec<Param> {
        vec![self.w1.clone(), self.b1.clone(), self.w2.clone(), self.b2.clone()]
    }

    /// Number of action heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Dimensionality of the state vector this policy consumes.
    pub fn state_dim(&self) -> usize {
        self.w1.shape().0
    }
}

/// MLP state-value function `V(s)`.
pub struct ValueNet {
    w1: Param,
    b1: Param,
    w2: Param,
    b2: Param,
}

impl ValueNet {
    /// Creates a critic over `state_dim` inputs.
    pub fn new(state_dim: usize, hidden: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            w1: Param::new("value.w1", init::glorot_uniform(&mut rng, state_dim, hidden)),
            b1: Param::new("value.b1", graphrare_tensor::Matrix::zeros(1, hidden)),
            w2: Param::new("value.w2", init::scaled_normal(&mut rng, hidden, 1, 1.0)),
            b2: Param::new("value.b2", graphrare_tensor::Matrix::zeros(1, 1)),
        }
    }

    /// `B x 1` state values.
    pub fn forward(&self, tape: &mut Tape, states: Var) -> Var {
        let w1 = tape.param(&self.w1);
        let b1 = tape.param(&self.b1);
        let w2 = tape.param(&self.w2);
        let b2 = tape.param(&self.b2);
        let h = tape.matmul(states, w1);
        let h = tape.add_bias(h, b1);
        let h = tape.tanh(h);
        let o = tape.matmul(h, w2);
        tape.add_bias(o, b2)
    }

    /// Trainable parameters.
    pub fn params(&self) -> Vec<Param> {
        vec![self.w1.clone(), self.b1.clone(), self.w2.clone(), self.b2.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrare_tensor::Matrix;

    #[test]
    fn global_policy_logit_shape() {
        let p = GlobalPolicy::new(8, 16, 4, 0);
        let mut t = Tape::new();
        let s = t.constant(Matrix::zeros(5, 8));
        let l = p.logits(&mut t, s);
        assert_eq!(t.value(l).shape(), (5, 12));
        assert_eq!(p.heads(), 4);
        assert_eq!(p.state_dim(), 8);
    }

    #[test]
    fn initial_policy_is_near_uniform() {
        let p = GlobalPolicy::new(6, 16, 3, 1);
        let mut t = Tape::new();
        let s = t.constant(Matrix::ones(1, 6));
        let l = p.logits(&mut t, s);
        // Tiny output gain: logits near zero, so distribution near uniform.
        assert!(t.value(l).as_slice().iter().all(|&v| v.abs() < 0.2));
    }

    #[test]
    fn value_net_scalar_output() {
        let v = ValueNet::new(8, 16, 0);
        let mut t = Tape::new();
        let s = t.constant(Matrix::ones(3, 8));
        let out = v.forward(&mut t, s);
        assert_eq!(t.value(out).shape(), (3, 1));
        assert_eq!(v.params().len(), 4);
    }
}
