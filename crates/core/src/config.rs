//! Configuration of the full GraphRARE framework.

use graphrare_entropy::{EntropySequences, RelativeEntropyConfig, SequenceConfig};
use graphrare_gnn::{ModelConfig, TrainConfig};
use graphrare_rl::PpoConfig;

use crate::reward::RewardKind;
use crate::rewirer::RewirerKind;
use crate::topology::EditMode;

/// How the per-node candidate rankings are ordered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SequenceMode {
    /// Rank by node relative entropy (the real framework).
    Entropy,
    /// Randomly shuffle each node's ranking (the "GCN-RA" ablation:
    /// GraphRARE without relative entropy).
    Shuffled {
        /// Shuffle seed.
        seed: u64,
    },
}

impl SequenceMode {
    /// Orders entropy-ranked sequences by this mode: as ranked, or
    /// shuffled per node.
    pub fn apply(self, seqs: EntropySequences) -> EntropySequences {
        match self {
            SequenceMode::Entropy => seqs,
            SequenceMode::Shuffled { seed } => seqs.shuffled(seed),
        }
    }
}

/// Which reinforcement-learning algorithm updates the policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RlAlgo {
    /// Proximal Policy Optimization (the paper's choice), configured by
    /// [`GraphRareConfig::ppo`].
    Ppo,
    /// Synchronous advantage actor-critic: the same agent under the
    /// [`PpoConfig::a2c`] preset, seeded from `ppo.seed`. Exercises the
    /// paper's remark that "other reinforcement learning algorithms can
    /// also be conveniently applied" (Sec. IV-B); compared in the
    /// `repro_ablation_rl` bench.
    A2c,
}

impl RlAlgo {
    /// Stable lowercase name (CLI value, checkpoint tag).
    pub fn name(&self) -> &'static str {
        match self {
            RlAlgo::Ppo => "ppo",
            RlAlgo::A2c => "a2c",
        }
    }

    /// Parses a CLI value produced by [`RlAlgo::name`].
    pub fn parse(s: &str) -> Option<Self> {
        [RlAlgo::Ppo, RlAlgo::A2c].into_iter().find(|a| a.name() == s)
    }
}

/// The λ (Eq. 9) a run accepts from outside, on the CLI or over the
/// serve protocol: finite and non-negative (Table IV sweeps 0.1–10).
pub fn validate_lambda(lambda: f64) -> Result<(), String> {
    if !lambda.is_finite() || lambda < 0.0 {
        return Err(format!("lambda {lambda} must be finite and non-negative"));
    }
    Ok(())
}

/// Full configuration of one GraphRARE run.
#[derive(Clone, Copy, Debug)]
pub struct GraphRareConfig {
    /// Relative-entropy computation (λ).
    pub entropy: RelativeEntropyConfig,
    /// Candidate-pool and ranking construction.
    pub sequences: SequenceConfig,
    /// Backbone hyper-parameters.
    pub model: ModelConfig,
    /// GNN optimisation hyper-parameters.
    pub train: TrainConfig,
    /// PPO hyper-parameters (used as given under [`RlAlgo::Ppo`]; only
    /// the seed carries over to [`RlAlgo::A2c`]).
    pub ppo: PpoConfig,
    /// Reward function (Eq. 11 or the AUC ablation).
    pub reward: RewardKind,
    /// Edit directions enabled.
    pub edit_mode: EditMode,
    /// Entropy vs shuffled rankings.
    pub sequence_mode: SequenceMode,
    /// RL algorithm (PPO per the paper, or its A2C preset).
    pub algo: RlAlgo,
    /// Which strategy proposes the per-step topology edits: the paper's
    /// DRL module (default), one of the deterministic heuristic
    /// baselines, or no rewiring at all (see
    /// [`RewirerKind`](crate::rewirer::RewirerKind)).
    pub rewirer: RewirerKind,
    /// Total DRL steps (graph rewiring iterations).
    pub steps: usize,
    /// PPO update cadence, and the "episode" length reported in traces.
    pub update_every: usize,
    /// Reset the state to `S_0` after each update window (strict
    /// finite-horizon episodes). Off by default: the optimisation
    /// continues from the current topology, which is what the paper's
    /// smooth homophily curves (Fig. 6b) show.
    pub reset_each_episode: bool,
    /// Cap on GNN warm-up epochs on the original graph before the DRL
    /// loop (early-stopped on validation accuracy).
    pub warmup_epochs: usize,
    /// Fine-tune epochs whenever a topology improves training accuracy
    /// (Algorithm 1, line 12).
    pub finetune_epochs: usize,
    /// Per-node cap on both `k` and `d`.
    pub k_cap: usize,
    /// Refresh the entropy sequences against the *current* rewired graph
    /// every this many DRL steps. `0` (the default) keeps the paper's
    /// semantics: sequences are computed once on the original graph and
    /// stay frozen for the whole run. When enabled, each refresh rebuilds
    /// the structural entropy and the rankings on the current graph
    /// (reusing them when the graph has not moved), re-anchors the
    /// topology optimiser on it and resets the DRL counters (see
    /// `RareDriver`), so results differ from the frozen-sequence run by
    /// design.
    pub entropy_refresh_every: usize,
    /// Master seed (PPO exploration noise etc. derive from sub-seeds).
    pub seed: u64,
    /// Worker threads for the tensor/entropy kernels
    /// ([`graphrare_tensor::parallel`]). `0` (the default) resolves from
    /// the `GRAPHRARE_THREADS` environment variable, falling back to the
    /// machine's available parallelism; `1` forces exact serial
    /// execution. Results are bit-identical for any value.
    pub threads: usize,
}

impl Default for GraphRareConfig {
    fn default() -> Self {
        Self {
            entropy: RelativeEntropyConfig::default(),
            sequences: SequenceConfig::default(),
            model: ModelConfig::default(),
            train: TrainConfig::default(),
            ppo: PpoConfig::default(),
            reward: RewardKind::default(),
            edit_mode: EditMode::Both,
            sequence_mode: SequenceMode::Entropy,
            algo: RlAlgo::Ppo,
            rewirer: RewirerKind::Ppo,
            steps: 160,
            update_every: 10,
            reset_each_episode: false,
            warmup_epochs: 40,
            finetune_epochs: 5,
            k_cap: 10,
            entropy_refresh_every: 0,
            seed: 0,
            threads: 0,
        }
    }
}

impl GraphRareConfig {
    /// A reduced-budget configuration for tests and smoke runs.
    pub fn fast() -> Self {
        Self {
            steps: 12,
            update_every: 4,
            warmup_epochs: 15,
            finetune_epochs: 3,
            k_cap: 6,
            ..Default::default()
        }
    }

    /// Derives a copy with every stochastic component reseeded from
    /// `seed` (model init, dropout, PPO, shuffles).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.model.seed = seed.wrapping_mul(0x9e37_79b9).wrapping_add(1);
        self.train.seed = seed.wrapping_mul(0x9e37_79b9).wrapping_add(2);
        self.ppo.seed = seed.wrapping_mul(0x9e37_79b9).wrapping_add(3);
        if let SequenceMode::Shuffled { seed: s } = &mut self.sequence_mode {
            *s = seed.wrapping_mul(0x9e37_79b9).wrapping_add(4);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = GraphRareConfig::default();
        assert!(c.steps >= c.update_every);
        assert!(c.k_cap > 0);
        assert_eq!(c.edit_mode, EditMode::Both);
        assert_eq!(c.sequence_mode, SequenceMode::Entropy);
    }

    #[test]
    fn with_seed_reseeds_components() {
        let a = GraphRareConfig::default().with_seed(1);
        let b = GraphRareConfig::default().with_seed(2);
        assert_ne!(a.model.seed, b.model.seed);
        assert_ne!(a.ppo.seed, b.ppo.seed);
        assert_ne!(a.model.seed, a.ppo.seed);
    }

    #[test]
    fn algo_names_round_trip() {
        for algo in [RlAlgo::Ppo, RlAlgo::A2c] {
            assert_eq!(RlAlgo::parse(algo.name()), Some(algo));
        }
        assert_eq!(RlAlgo::parse("sac"), None);
    }

    #[test]
    fn fast_is_cheaper_than_default() {
        let f = GraphRareConfig::fast();
        let d = GraphRareConfig::default();
        assert!(f.steps < d.steps);
        assert!(f.warmup_epochs < d.warmup_epochs);
    }
}
