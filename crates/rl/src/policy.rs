//! The multi-discrete stochastic policy and its critic: two instances of
//! one MLP type.
//!
//! GraphRARE's action space is multi-discrete (Sec. IV-B): one
//! `{−1, 0, +1}` head per state component (`k_i` and `d_i` for every
//! node). The policy ([`Mlp::policy`]) is an MLP over the *entire* state
//! vector producing all head logits at once; this matches the paper's
//! Stable-Baselines3 `MlpPolicy` over the flattened multi-discrete state.
//! The critic ([`Mlp::value`]) is the same MLP with one output.
//!
//! The policy emits logits in the layout consumed by
//! [`Tape::multi_discrete`]: heads are interleaved per node —
//! head `2i` is node `i`'s `k` head, head `2i+1` its `d` head.

use rand::rngs::StdRng;
use rand::SeedableRng;

use graphrare_tensor::{init, Matrix, Param, Tape, Var};

/// Number of choices per head: decrement, keep, increment.
pub const ACTION_ARITY: usize = 3;

/// One-hidden-layer tanh MLP, `tanh(x·W1 + b1)·W2 + b2`.
pub struct Mlp {
    w1: Param,
    b1: Param,
    w2: Param,
    b2: Param,
}

impl Mlp {
    /// The policy: `heads · ACTION_ARITY` logits over `state_dim` inputs.
    /// A small output gain makes the initial policy near-uniform (SB3
    /// style).
    pub fn policy(state_dim: usize, hidden: usize, heads: usize, seed: u64) -> Self {
        Self::new("policy", state_dim, hidden, heads * ACTION_ARITY, 0.01, seed)
    }

    /// The critic: the state value `V(s)` over `state_dim` inputs.
    pub fn value(state_dim: usize, hidden: usize, seed: u64) -> Self {
        Self::new("value", state_dim, hidden, 1, 1.0, seed)
    }

    /// Draws `W1` (Glorot) then `W2` (`N(0, gain / sqrt(hidden))`) from
    /// one seeded stream; the biases start at zero.
    fn new(name: &str, inputs: usize, hidden: usize, outputs: usize, gain: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            w1: Param::new(format!("{name}.w1"), init::glorot_uniform(&mut rng, inputs, hidden)),
            b1: Param::new(format!("{name}.b1"), Matrix::zeros(1, hidden)),
            w2: Param::new(
                format!("{name}.w2"),
                init::scaled_normal(&mut rng, hidden, outputs, gain),
            ),
            b2: Param::new(format!("{name}.b2"), Matrix::zeros(1, outputs)),
        }
    }

    /// `B x outputs` for `B x inputs` states already on the tape.
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

    /// Width of the input (the state dimension).
    pub fn inputs(&self) -> usize {
        self.w1.shape().0
    }

    /// Width of the output.
    pub fn outputs(&self) -> usize {
        self.w2.shape().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_logit_shape() {
        let p = Mlp::policy(8, 16, 4, 0);
        let mut t = Tape::new();
        let s = t.constant(Matrix::zeros(5, 8));
        let l = p.forward(&mut t, s);
        assert_eq!(t.value(l).shape(), (5, 12));
        assert_eq!(p.outputs(), 4 * ACTION_ARITY);
        assert_eq!(p.inputs(), 8);
    }

    #[test]
    fn initial_policy_is_near_uniform() {
        let p = Mlp::policy(6, 16, 3, 1);
        let mut t = Tape::new();
        let s = t.constant(Matrix::ones(1, 6));
        let l = p.forward(&mut t, s);
        // Tiny output gain: logits near zero, so distribution near uniform.
        assert!(t.value(l).as_slice().iter().all(|&v| v.abs() < 0.2));
    }

    #[test]
    fn value_net_scalar_output() {
        let v = Mlp::value(8, 16, 0);
        let mut t = Tape::new();
        let s = t.constant(Matrix::ones(3, 8));
        let out = v.forward(&mut t, s);
        assert_eq!(t.value(out).shape(), (3, 1));
        assert_eq!(v.params().len(), 4);
    }
}
