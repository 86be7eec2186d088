//! Checkpointable agent state.
//!
//! A [`PpoAgent`](crate::PpoAgent) carries three pieces of mutable state:
//! the parameter values of the policy and the critic, the Adam moment
//! estimates, and the action-sampling RNG stream. [`AgentState`] captures all three so that an agent rebuilt from
//! the same configuration and restored from a snapshot continues its
//! trajectory — actions sampled, gradients applied — bit-for-bit.

use graphrare_tensor::optim::AdamSnapshot;
use graphrare_tensor::Matrix;

/// Complete serialisable state of an RL agent.
///
/// `params` holds the policy parameters followed by the critic parameters,
/// in the order of the agent's internal parameter list (the same order the
/// optimiser sees). The snapshot is architecture-agnostic: restoring it
/// onto an agent with a different policy shape is a caller error, caught
/// by shape assertions (checkpoints are validated by the store layer
/// before they reach an agent).
#[derive(Clone, Debug)]
pub struct AgentState {
    /// Policy + critic parameter values, in agent parameter order.
    pub params: Vec<Matrix>,
    /// Adam step counter and moment estimates over the same parameters.
    pub adam: AdamSnapshot,
    /// Action-sampling RNG stream state.
    pub rng: [u64; 4],
}
