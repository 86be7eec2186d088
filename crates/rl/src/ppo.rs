//! Proximal Policy Optimization (Schulman et al., 2017).
//!
//! The paper uses Stable-Baselines3's PPO over a multi-discrete action
//! space; this is the same algorithm rebuilt on the workspace autograd:
//! clipped surrogate objective, GAE(λ) advantages, a squared-error value
//! loss and an entropy bonus, optimised with Adam over shuffled
//! minibatches for several epochs per update.
//!
//! The paper remarks that "other reinforcement learning algorithms can
//! also be conveniently applied" to the framework. Synchronous A2C is one
//! of them, and needs no second agent: [`PpoConfig::a2c`] is the PPO
//! configuration that performs A2C's update.

use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use graphrare_tensor::optim::Adam;
use graphrare_tensor::param::{clip_grad_norm, zero_grads, Param};
use graphrare_tensor::{Matrix, Tape};

use crate::buffer::{gae, normalize, RolloutBuffer};
use crate::policy::{GlobalPolicy, ValueNet, ACTION_ARITY};
use crate::snapshot::AgentState;

/// PPO hyper-parameters (defaults follow Stable-Baselines3).
#[derive(Clone, Copy, Debug)]
pub struct PpoConfig {
    /// Discount factor γ.
    pub gamma: f32,
    /// GAE λ.
    pub gae_lambda: f32,
    /// Clipping radius ε of the surrogate objective.
    pub clip: f32,
    /// Learning rate for both actor and critic.
    pub lr: f32,
    /// Optimisation epochs per update.
    pub epochs: usize,
    /// Minibatch size.
    pub minibatch: usize,
    /// Value-loss coefficient.
    pub vf_coef: f32,
    /// Entropy-bonus coefficient.
    pub ent_coef: f32,
    /// Gradient-norm clip.
    pub max_grad_norm: f32,
    /// Action-sampling / shuffling seed.
    pub seed: u64,
}

impl Default for PpoConfig {
    fn default() -> Self {
        Self {
            gamma: 0.99,
            gae_lambda: 0.95,
            clip: 0.2,
            lr: 3e-4,
            epochs: 4,
            minibatch: 16,
            vf_coef: 0.5,
            ent_coef: 0.01,
            max_grad_norm: 0.5,
            seed: 0,
        }
    }
}

impl PpoConfig {
    /// Synchronous advantage actor-critic (A2C) as a PPO preset: one epoch
    /// over a single full-batch minibatch, A2C's customary learning rate
    /// and Monte-Carlo advantages (GAE λ = 1). Every other field keeps its
    /// PPO default.
    ///
    /// With one on-policy pass, the parameters that score the rollout are
    /// the ones that sampled it, so the ratio `π/π_old` is 1 up to
    /// rounding. Clipping never engages and the surrogate's gradient is
    /// A2C's `−mean(logπ(a|s) · Â)`; advantage normalisation, the value
    /// loss, the entropy bonus, gradient-norm clipping and Adam are shared
    /// unchanged.
    pub fn a2c(seed: u64) -> Self {
        Self {
            gae_lambda: 1.0,
            lr: 7e-4,
            epochs: 1,
            minibatch: usize::MAX,
            seed,
            ..Self::default()
        }
    }
}

/// Diagnostics of one [`PpoAgent::update`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PpoStats {
    /// Mean clipped-surrogate policy loss.
    pub policy_loss: f32,
    /// Mean value loss.
    pub value_loss: f32,
    /// Mean policy entropy (summed over heads).
    pub entropy: f32,
    /// Approximate KL divergence between old and new policy.
    pub approx_kl: f32,
}

/// A PPO agent: stochastic multi-discrete policy plus critic.
pub struct PpoAgent {
    policy: GlobalPolicy,
    value: ValueNet,
    cfg: PpoConfig,
    opt: Adam,
    rng: StdRng,
    params: Vec<Param>,
}

impl PpoAgent {
    /// Creates an agent from a policy, a critic and a config.
    pub fn new(policy: GlobalPolicy, value: ValueNet, cfg: PpoConfig) -> Self {
        let mut params = policy.params();
        params.extend(value.params());
        Self {
            opt: Adam::new(cfg.lr, 0.0),
            rng: StdRng::seed_from_u64(cfg.seed),
            policy,
            value,
            cfg,
            params,
        }
    }

    /// Exports the complete mutable state of the agent — policy + critic
    /// parameters, Adam moments and the action-sampling RNG — for
    /// checkpointing (see [`AgentState`]).
    pub fn export_state(&self) -> AgentState {
        AgentState {
            params: self.params.iter().map(Param::value).collect(),
            adam: self.opt.export_state(&self.params),
            rng: self.rng.state(),
        }
    }

    /// Restores state captured by [`PpoAgent::export_state`] onto an agent
    /// built from the same configuration.
    ///
    /// # Panics
    /// Panics on parameter count/shape mismatch — checkpoints are
    /// validated by the store layer before they reach an agent.
    pub fn import_state(&mut self, state: &AgentState) {
        assert_eq!(state.params.len(), self.params.len(), "agent import: param count mismatch");
        for (p, m) in self.params.iter().zip(&state.params) {
            p.set_value(m.clone());
        }
        self.opt.import_state(&self.params, &state.adam);
        self.rng = StdRng::from_state(state.rng);
    }

    /// Samples an action for `state`. Returns the per-head action indices,
    /// the joint log-probability and the critic's value estimate.
    pub fn act(&mut self, state: &[f32]) -> (Vec<u8>, f32, f32) {
        let mut tape = Tape::new();
        let s = tape.constant(Matrix::row_vector(state));
        let l = self.policy.logits(&mut tape, s);
        let v = self.value.forward(&mut tape, s);
        let logits = tape.value(l).row(0);
        let value = tape.value(v).scalar_value();
        let heads = self.policy.heads();
        let mut actions = Vec::with_capacity(heads);
        let mut log_prob = 0.0f32;
        let mut probs = [0f32; ACTION_ARITY];
        for h in 0..heads {
            let row = &logits[h * ACTION_ARITY..(h + 1) * ACTION_ARITY];
            softmax3(row, &mut probs);
            let x: f32 = self.rng.gen();
            let chosen = sample_head(&probs, x);
            actions.push(chosen as u8);
            log_prob += probs[chosen].max(1e-12).ln();
        }
        (actions, log_prob, value)
    }

    /// Critic value of `state`.
    pub fn value_of(&self, state: &[f32]) -> f32 {
        let mut tape = Tape::new();
        let s = tape.constant(Matrix::row_vector(state));
        let v = self.value.forward(&mut tape, s);
        tape.value(v).scalar_value()
    }

    /// Runs the clipped-surrogate update on a collected rollout.
    ///
    /// `last_value` bootstraps GAE past the final transition.
    pub fn update(&mut self, buffer: &RolloutBuffer, last_value: f32) -> PpoStats {
        assert!(!buffer.is_empty(), "update: empty rollout buffer");
        let n = buffer.len();
        let (mut advantages, returns) = gae(
            &buffer.rewards,
            &buffer.values,
            &buffer.dones,
            last_value,
            self.cfg.gamma,
            self.cfg.gae_lambda,
        );
        normalize(&mut advantages);

        let heads = self.policy.heads();
        let state_dim = self.policy.state_dim();
        let mut stats = PpoStats::default();
        let mut updates = 0usize;

        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..self.cfg.epochs {
            // Fisher–Yates shuffle of the minibatch order.
            for i in (1..n).rev() {
                let j = self.rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for chunk in order.chunks(self.cfg.minibatch.max(1)) {
                let b = chunk.len();
                let mut states = Matrix::zeros(b, state_dim);
                let mut actions = Vec::with_capacity(b * heads);
                let mut old_logp = Matrix::zeros(b, 1);
                let mut adv = Matrix::zeros(b, 1);
                let mut ret = Matrix::zeros(b, 1);
                for (r, &i) in chunk.iter().enumerate() {
                    states.row_mut(r).copy_from_slice(&buffer.states[i]);
                    actions.extend_from_slice(&buffer.actions[i]);
                    old_logp.set(r, 0, buffer.log_probs[i]);
                    adv.set(r, 0, advantages[i]);
                    ret.set(r, 0, returns[i]);
                }
                let actions = Rc::new(actions);
                let neg_old = Rc::new(old_logp.map(|v| -v));
                let adv = Rc::new(adv);
                let neg_ret = Rc::new(ret.map(|v| -v));

                zero_grads(&self.params);
                let mut tape = Tape::new();
                let s = tape.constant(states);
                let logits = self.policy.logits(&mut tape, s);
                let logp = tape.multi_discrete_log_prob(logits, ACTION_ARITY, actions);
                let diff = tape.add_const(logp, neg_old);
                let ratio = tape.exp(diff);
                let surr1 = tape.mul_const(ratio, adv.clone());
                let clipped = tape.clamp(ratio, 1.0 - self.cfg.clip, 1.0 + self.cfg.clip);
                let surr2 = tape.mul_const(clipped, adv);
                let surr = tape.min_elem(surr1, surr2);
                let mean_surr = tape.mean_all(surr);
                let policy_loss = tape.neg(mean_surr);

                let value = self.value.forward(&mut tape, s);
                let verr = tape.add_const(value, neg_ret);
                let vsq = tape.square(verr);
                let value_loss = tape.mean_all(vsq);

                let entropy = tape.multi_discrete_entropy(logits, ACTION_ARITY);
                let mean_entropy = tape.mean_all(entropy);

                let scaled_v = tape.scale(value_loss, self.cfg.vf_coef);
                let scaled_e = tape.scale(mean_entropy, -self.cfg.ent_coef);
                let partial = tape.add(policy_loss, scaled_v);
                let total = tape.add(partial, scaled_e);
                tape.backward(total);
                clip_grad_norm(&self.params, self.cfg.max_grad_norm);
                self.opt.step(&self.params);

                stats.policy_loss += tape.value(policy_loss).scalar_value();
                stats.value_loss += tape.value(value_loss).scalar_value();
                stats.entropy += tape.value(mean_entropy).scalar_value();
                // approx KL = mean(old_logp - new_logp).
                stats.approx_kl += -tape.value(diff).mean();
                updates += 1;
            }
        }
        if updates > 0 {
            let k = updates as f32;
            stats.policy_loss /= k;
            stats.value_loss /= k;
            stats.entropy /= k;
            stats.approx_kl /= k;
        }
        stats
    }
}

/// Inverse-CDF sample over one head's softmax probabilities.
///
/// Floating-point rounding can leave the cumulative sum a few ULPs below
/// 1.0; a uniform draw landing in that gap falls through the loop without
/// selecting anything. This used to silently default to the *last* index
/// — an action whose probability can be ~0, with the `.max(1e-12)`
/// log-prob clamp hiding the impossible sample. The fall-through now
/// resolves to the highest-probability action (`total_cmp`: a NaN row
/// still yields a deterministic pick), so every sampled action has
/// nonzero probability.
#[inline]
fn sample_head(probs: &[f32; ACTION_ARITY], x: f32) -> usize {
    let mut acc = 0.0;
    for (a, &p) in probs.iter().enumerate() {
        acc += p;
        if x < acc {
            return a;
        }
    }
    probs.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).unwrap_or(1)
}

#[inline]
fn softmax3(logits: &[f32], out: &mut [f32; ACTION_ARITY]) {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for (o, &l) in out.iter_mut().zip(logits) {
        *o = (l - max).exp();
        sum += *o;
    }
    for o in out.iter_mut() {
        *o /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agent_with(state_dim: usize, heads: usize, cfg: PpoConfig) -> PpoAgent {
        let policy = GlobalPolicy::new(state_dim, 32, heads, cfg.seed);
        let value = ValueNet::new(state_dim, 32, cfg.seed + 1);
        PpoAgent::new(policy, value, cfg)
    }

    fn make_agent(state_dim: usize, heads: usize, seed: u64) -> PpoAgent {
        agent_with(state_dim, heads, PpoConfig { seed, ..Default::default() })
    }

    /// Trains `agent` on a contextual bandit that rewards action 2 on
    /// every head (0 otherwise) and returns the last round's mean reward.
    fn bandit_final_mean(agent: &mut PpoAgent, heads: usize, rounds: usize) -> f32 {
        let state = vec![1.0f32, -1.0];
        let mut final_mean = 0.0;
        for _round in 0..rounds {
            let mut buffer = RolloutBuffer::new();
            for _ in 0..32 {
                let (actions, logp, value) = agent.act(&state);
                let reward = actions.iter().filter(|&&a| a == 2).count() as f32 / heads as f32;
                buffer.push(state.clone(), actions, logp, value, reward, true);
            }
            final_mean = buffer.mean_reward();
            agent.update(&buffer, 0.0);
        }
        final_mean
    }

    #[test]
    fn act_produces_valid_actions_and_logprob() {
        let mut agent = make_agent(4, 3, 0);
        let (actions, logp, _value) = agent.act(&[0.1, 0.2, 0.3, 0.4]);
        assert_eq!(actions.len(), 3);
        assert!(actions.iter().all(|&a| (a as usize) < ACTION_ARITY));
        assert!(logp < 0.0, "log-probability must be negative, got {logp}");
        // Near-uniform initial policy: logp ≈ 3 * ln(1/3).
        assert!((logp - 3.0 * (1.0f32 / 3.0).ln()).abs() < 0.3);
    }

    #[test]
    fn sampling_fall_through_picks_most_probable_action() {
        // A near-degenerate softmax whose cumulative sum rounds below the
        // largest f32 the RNG can draw (0.99999994): the inverse-CDF loop
        // falls through. The old code then silently picked the last head
        // index — here an action with *zero* probability; the fall-through
        // must resolve to the most probable action instead.
        let probs = [0.5f32, 0.499_999_9, 0.0];
        let x = 0.999_999_94f32; // largest value `rng.gen::<f32>()` yields
        assert!(x >= probs.iter().sum(), "fixture no longer exercises the fall-through");
        let chosen = sample_head(&probs, x);
        assert_eq!(chosen, 0, "fall-through must pick the argmax, not the last index");
        assert!(probs[chosen] > 0.0);
    }

    #[test]
    fn sampled_actions_always_have_nonzero_probability() {
        // Sweep a degenerate distribution (one head hogging all mass, one
        // at exactly zero) over the RNG's whole draw range: no draw may
        // ever select the zero-probability action.
        let probs = [0.999_999_9f32, 9.0e-8, 0.0];
        for i in 0..=10_000u32 {
            let x = (i as f32 / 10_000.0) * 0.999_999_94;
            let chosen = sample_head(&probs, x);
            assert!(probs[chosen] > 0.0, "draw x={x} selected impossible action {chosen}");
        }
        // In-distribution draws are untouched by the fix.
        let uniform = [0.25f32, 0.5, 0.25];
        assert_eq!(sample_head(&uniform, 0.0), 0);
        assert_eq!(sample_head(&uniform, 0.3), 1);
        assert_eq!(sample_head(&uniform, 0.8), 2);
    }

    /// PPO must learn to always pick the rewarded action.
    #[test]
    fn ppo_solves_multi_discrete_bandit() {
        let mut agent = make_agent(2, 3, 7);
        let final_mean = bandit_final_mean(&mut agent, 3, 60);
        assert!(final_mean > 0.85, "bandit mean reward only reached {final_mean}");
    }

    /// The A2C preset learns the same bandit with its single, smaller
    /// step per rollout (hence the longer schedule).
    #[test]
    fn a2c_preset_solves_multi_discrete_bandit() {
        let mut agent = agent_with(2, 3, PpoConfig::a2c(5));
        let final_mean = bandit_final_mean(&mut agent, 3, 150);
        assert!(final_mean > 0.8, "bandit mean reward only reached {final_mean}");
    }

    #[test]
    fn export_import_state_resumes_agent_bitwise() {
        let mut a = make_agent(4, 3, 9);
        let state_vec = [0.2f32, 0.4, 0.6, 0.8];
        // Advance: act + one update so RNG, params and Adam all move.
        let mut buffer = RolloutBuffer::new();
        for _ in 0..8 {
            let (actions, logp, value) = a.act(&state_vec);
            buffer.push(state_vec.to_vec(), actions, logp, value, 0.5, false);
        }
        a.update(&buffer, 0.1);
        let snap = a.export_state();

        let mut b = make_agent(4, 3, 9);
        b.import_state(&snap);

        // Both agents must now produce identical streams of actions,
        // log-probs, values and update statistics.
        let mut buf_a = RolloutBuffer::new();
        let mut buf_b = RolloutBuffer::new();
        for _ in 0..8 {
            let (aa, la, va) = a.act(&state_vec);
            let (ab, lb, vb) = b.act(&state_vec);
            assert_eq!(aa, ab);
            assert_eq!(la, lb);
            assert_eq!(va, vb);
            buf_a.push(state_vec.to_vec(), aa, la, va, 0.25, false);
            buf_b.push(state_vec.to_vec(), ab, lb, vb, 0.25, false);
        }
        let sa = a.update(&buf_a, 0.0);
        let sb = b.update(&buf_b, 0.0);
        assert_eq!(sa, sb, "resumed agent update stats diverged");
    }

    #[test]
    fn update_returns_finite_stats() {
        let mut agent = make_agent(3, 2, 3);
        let mut buffer = RolloutBuffer::new();
        let mut state = vec![0.0f32, 0.0, 0.0];
        for t in 0..8 {
            let (actions, logp, value) = agent.act(&state);
            let reward = (t % 3) as f32 * 0.1;
            buffer.push(state.clone(), actions, logp, value, reward, t == 7);
            state[0] += 0.1;
        }
        let stats = agent.update(&buffer, 0.0);
        assert!(stats.policy_loss.is_finite());
        assert!(stats.value_loss.is_finite());
        assert!(stats.entropy.is_finite() && stats.entropy > 0.0);
        assert!(stats.approx_kl.is_finite());
    }

    #[test]
    #[should_panic(expected = "empty rollout buffer")]
    fn update_rejects_empty_buffer() {
        let mut agent = make_agent(2, 1, 0);
        let buffer = RolloutBuffer::new();
        let _ = agent.update(&buffer, 0.0);
    }

    #[test]
    fn value_estimates_move_toward_returns() {
        let mut agent = make_agent(2, 1, 11);
        let state = vec![0.3f32, 0.7];
        let before = agent.value_of(&state);
        for _ in 0..30 {
            let mut buffer = RolloutBuffer::new();
            for _ in 0..16 {
                let (actions, logp, value) = agent.act(&state);
                buffer.push(state.clone(), actions, logp, value, 1.0, true);
            }
            agent.update(&buffer, 0.0);
        }
        let after = agent.value_of(&state);
        assert!(
            (after - 1.0).abs() < (before - 1.0).abs(),
            "critic did not move toward return: {before} -> {after}"
        );
    }
}
