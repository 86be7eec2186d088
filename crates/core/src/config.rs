//! Configuration of the full GraphRARE framework: every knob of a run
//! ([`GraphRareConfig`]) and the few a user chooses ([`RunSpec`]).

use graphrare_entropy::{EntropySequences, RelativeEntropyConfig, SequenceConfig};
use graphrare_gnn::{Backbone, ModelConfig, TrainConfig};
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
    /// [`RewirerKind`]).
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

/// A run as its user describes it: the ten value flags the `graphrare`
/// CLI and `graphrare-client submit` share, parsed by
/// [`RunSpec::parse_flag`] and turned into a config by
/// [`RunSpec::to_config`]. The serving daemon receives one over the wire
/// and builds its config the same way, which is what makes a served run
/// bit-identical to a CLI run of the same flags.
///
/// The defaults: no input, GCN, 160 steps, seed 42, split seed 0, k/d
/// cap 10, λ 1.0, `ppo`, 0 threads (resolved from the environment), not
/// paced, rewirer `ppo`.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    /// Graph bundle prefix (`<input>.edges/.features/.labels`).
    pub input: String,
    /// GNN backbone to wrap.
    pub backbone: Backbone,
    /// DRL steps to run.
    pub steps: u64,
    /// Master seed (drives model/train/ppo/shuffle sub-seeds).
    pub seed: u64,
    /// Train/val/test split seed.
    pub split_seed: u64,
    /// Per-node cap on both `k` and `d`.
    pub k_cap: u64,
    /// Relative-entropy mixing weight (Eq. 9).
    pub lambda: f64,
    /// RL algorithm.
    pub algo: RlAlgo,
    /// Worker threads (0 = resolve from the environment).
    pub threads: u64,
    /// Served runs only: the daemon advances a paced run only while the
    /// client has granted it step budget. Pacing changes timing, never
    /// results, so [`RunSpec::to_config`] ignores it; the CLI never sets
    /// it.
    pub paced: bool,
    /// Edit-proposal strategy.
    pub rewirer: RewirerKind,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            input: String::new(),
            backbone: Backbone::Gcn,
            steps: 160,
            seed: 42,
            split_seed: 0,
            k_cap: 10,
            lambda: 1.0,
            algo: RlAlgo::Ppo,
            threads: 0,
            paced: false,
            rewirer: RewirerKind::Ppo,
        }
    }
}

impl RunSpec {
    /// Sets the field of `flag` when it is one of the ten run flags
    /// (`--input --backbone --lambda --steps --seed --split-seed --k-cap
    /// --threads --algo --rewirer`), taking its value from `rest`.
    /// Returns `Ok(false)` and takes nothing for any other flag. Backbone,
    /// algorithm and rewirer names are case-insensitive; a missing or
    /// malformed value is an error that names the flag.
    pub fn parse_flag(
        &mut self,
        flag: &str,
        rest: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        let mut value = || rest.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag {
            "--input" => self.input = value()?,
            "--backbone" => {
                let v = value()?;
                self.backbone =
                    Backbone::parse(&v).ok_or_else(|| format!("unknown backbone {v}"))?;
            }
            "--lambda" => self.lambda = parse_number(&value()?, flag)?,
            "--steps" => self.steps = parse_number(&value()?, flag)?,
            "--seed" => self.seed = parse_number(&value()?, flag)?,
            "--split-seed" => self.split_seed = parse_number(&value()?, flag)?,
            "--k-cap" => self.k_cap = parse_number(&value()?, flag)?,
            "--threads" => self.threads = parse_number(&value()?, flag)?,
            "--algo" => {
                let v = value()?.to_lowercase();
                self.algo = RlAlgo::parse(&v).ok_or_else(|| format!("unknown algorithm {v}"))?;
            }
            "--rewirer" => {
                let v = value()?.to_lowercase();
                self.rewirer =
                    RewirerKind::parse(&v).ok_or_else(|| format!("unknown rewirer {v}"))?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The run's config: the defaults reseeded from `seed`, with λ, the
    /// step budget, the k/d cap, the algorithm, the rewirer and the
    /// thread count from the spec. `entropy_refresh_every` stays 0; the
    /// CLI's `--entropy-refresh-every` sets it afterwards.
    pub fn to_config(&self) -> GraphRareConfig {
        let mut cfg = GraphRareConfig::default().with_seed(self.seed);
        cfg.entropy.lambda = self.lambda;
        cfg.steps = self.steps as usize;
        cfg.k_cap = self.k_cap as usize;
        cfg.algo = self.algo;
        cfg.rewirer = self.rewirer;
        cfg.threads = self.threads as usize;
        cfg
    }

    /// The serving daemon's admission check: refuses the values a
    /// hostile client could abuse.
    pub fn validate(&self) -> Result<(), String> {
        if self.input.is_empty() {
            return Err("empty input prefix".into());
        }
        if self.steps == 0 {
            return Err("steps must be positive".into());
        }
        if self.steps > 1_000_000 {
            return Err(format!("steps {} exceeds serving cap 1000000", self.steps));
        }
        validate_lambda(self.lambda)?;
        if self.k_cap == 0 || self.k_cap > 10_000 {
            return Err(format!("k_cap {} outside 1..=10000", self.k_cap));
        }
        // The count is process-wide and every kernel call spawns up to that
        // many scoped threads, so one client's value reaches every tenant.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if self.threads > cores as u64 {
            return Err(format!(
                "threads {} exceeds the host's {cores} hardware threads",
                self.threads
            ));
        }
        Ok(())
    }
}

fn parse_number<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid value {s:?} for {flag}"))
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
    fn validate_refuses_what_a_client_could_abuse() {
        let sample = RunSpec { input: "data/toy".into(), threads: 1, ..RunSpec::default() };
        assert!(sample.validate().is_ok());
        type Mutator = fn(&mut RunSpec);
        let cases: [(&str, Mutator); 6] = [
            ("empty input", |s| s.input.clear()),
            ("zero steps", |s| s.steps = 0),
            ("huge steps", |s| s.steps = 2_000_000),
            ("nan lambda", |s| s.lambda = f64::NAN),
            ("zero k_cap", |s| s.k_cap = 0),
            ("huge threads", |s| s.threads = 1 << 20),
        ];
        for (why, mutate) in cases {
            let mut spec = sample.clone();
            mutate(&mut spec);
            assert!(spec.validate().is_err(), "accepted spec with {why}");
        }
        let mut spec = sample;
        spec.threads = 1 << 20;
        assert!(spec.validate().unwrap_err().contains("threads"), "message must name the field");
        // 0 resolves from the environment, as on the CLI.
        spec.threads = 0;
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn fast_is_cheaper_than_default() {
        let f = GraphRareConfig::fast();
        let d = GraphRareConfig::default();
        assert!(f.steps < d.steps);
        assert!(f.warmup_epochs < d.warmup_epochs);
    }
}
