//! # graphrare-rl
//!
//! Deep reinforcement learning for GraphRARE: a from-scratch Proximal
//! Policy Optimization implementation over multi-discrete action spaces,
//! replacing the paper's OpenAI Gym + Stable-Baselines3 stack.
//!
//! * [`policy`] — one MLP type ([`policy::Mlp`]) for the multi-discrete
//!   stochastic policy, the paper's MLP over the whole state, and for the
//!   critic.
//! * [`buffer`] — rollout storage and GAE(λ) advantage estimation.
//! * [`ppo`] — the clipped-surrogate PPO update ([`ppo::PpoAgent`]). The
//!   [`PpoConfig::a2c`] preset turns the same agent into synchronous A2C,
//!   demonstrating the paper's claim that the framework is agnostic to
//!   the RL algorithm.
//!
//! The action convention is GraphRARE's Sec. IV-B: every head picks from
//! `{−1 (decrement), 0 (keep), +1 (increment)}`, encoded as indices
//! `{0, 1, 2}`.

#![warn(missing_docs)]

pub mod buffer;
pub mod policy;
pub mod ppo;
pub mod snapshot;

pub use buffer::{gae, normalize, RolloutBuffer};
pub use policy::{Mlp, ACTION_ARITY};
pub use ppo::{PpoAgent, PpoConfig, PpoStats};
pub use snapshot::AgentState;
