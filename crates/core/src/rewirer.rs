//! Pluggable per-step edit-proposal strategies.
//!
//! GraphRARE's central claim is that the RL-driven topology optimisation
//! beats fixed rewiring heuristics. The [`Rewirer`] trait makes that
//! comparison first-class: every strategy proposes one multi-discrete
//! action vector per outer step (the same `{−1, 0, +1}`-per-counter
//! action space the PPO agent uses, Eq. 10), and the driver applies it
//! through the identical [`TopoState`] → [`RewiredGraph`] pipeline. The
//! incremental rewiring engine never knows who proposed the edit, so the
//! bit-identity contract (incremental apply ≡ `materialize`) holds for
//! every strategy by construction — and is pinned for each of them by the
//! `rewire_equivalence` harness.
//!
//! Strategies:
//!
//! * [`RewirerKind::Ppo`] — the paper's DRL module: one PPO agent, run
//!   as PPO or under its A2C preset per `cfg.algo`. This module owns the
//!   agent and its rollout buffer.
//! * [`RewirerKind::Dhgr`] — DHGR-style similarity rewiring ("Make
//!   Heterophily Graphs Better Fit GNN"): a candidate edge is accepted
//!   when its feature/label similarity clears a threshold calibrated on
//!   the original graph's own edges; dissimilar original edges are
//!   dropped.
//! * [`RewirerKind::Reference`] — reference-graph homophily rewiring
//!   ("It Takes a Graph to Know a Graph"): a feature-kNN reference graph
//!   is built once, candidate edges inside the reference relation are
//!   added, original edges outside it are deleted.
//! * [`RewirerKind::None`] — proposes no edits; the baseline that trains
//!   the backbone on the untouched graph through the same loop.
//!
//! The heuristics are RNG-free and fully deterministic in (graph,
//! config); the PPO strategy is deterministic under the config seed.
//!
//! [`RewiredGraph`]: crate::rewire::RewiredGraph

use graphrare_rl::{
    AgentState, GlobalPolicy, Policy, PpoAgent, PpoConfig, PpoStats, RolloutBuffer, SharedPolicy,
    ValueNet,
};
use graphrare_tensor::optim::AdamSnapshot;
use graphrare_tensor::Matrix;

use graphrare_graph::edge_key;

use crate::config::{GraphRareConfig, PolicyKind, RlAlgo};
use crate::fxmap::FxHashSet;
use crate::state::TopoState;
use crate::topology::TopologyOptimizer;

/// Which rewiring strategy proposes the per-step edits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RewirerKind {
    /// The paper's DRL module (PPO, or its A2C preset, per `cfg.algo`).
    Ppo,
    /// DHGR-style feature/label-similarity rewiring.
    Dhgr,
    /// Reference-graph (feature-kNN) homophily rewiring.
    Reference,
    /// No edits: the plain-backbone baseline through the same loop.
    None,
}

impl RewirerKind {
    /// Every strategy, in CLI/bench presentation order.
    pub const ALL: [RewirerKind; 4] =
        [RewirerKind::Ppo, RewirerKind::Dhgr, RewirerKind::Reference, RewirerKind::None];

    /// Stable lowercase name (CLI value, bench/telemetry tag).
    pub fn name(&self) -> &'static str {
        match self {
            RewirerKind::Ppo => "ppo",
            RewirerKind::Dhgr => "dhgr",
            RewirerKind::Reference => "reference",
            RewirerKind::None => "none",
        }
    }

    /// Telemetry span name for this strategy's proposal phase. Static per
    /// strategy so span names stay `&'static str` end to end.
    pub fn span_name(&self) -> &'static str {
        match self {
            RewirerKind::Ppo => "rewire.propose.ppo",
            RewirerKind::Dhgr => "rewire.propose.dhgr",
            RewirerKind::Reference => "rewire.propose.reference",
            RewirerKind::None => "rewire.propose.none",
        }
    }

    /// Parses a CLI value produced by [`RewirerKind::name`].
    pub fn parse(s: &str) -> Option<Self> {
        RewirerKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Stable wire tag (serve protocol).
    pub fn tag(&self) -> u16 {
        match self {
            RewirerKind::Ppo => 0,
            RewirerKind::Dhgr => 1,
            RewirerKind::Reference => 2,
            RewirerKind::None => 3,
        }
    }

    /// Inverse of [`RewirerKind::tag`].
    pub fn from_tag(tag: u16) -> Option<Self> {
        RewirerKind::ALL.into_iter().find(|k| k.tag() == tag)
    }
}

/// One per-step edit-proposal strategy.
///
/// The driver's contract per outer step: exactly one [`propose`] call on
/// the pre-transition state `S_t`, whose action vector the driver applies
/// (`S_{t+1} = S_t + A_t`), followed by exactly one [`feedback`] call
/// carrying the realised reward and the post-transition state. RL-backed
/// strategies learn from the feedback; heuristics ignore it.
///
/// [`propose`]: Rewirer::propose
/// [`feedback`]: Rewirer::feedback
pub trait Rewirer {
    /// The strategy's kind (telemetry/bench tag).
    fn kind(&self) -> RewirerKind;

    /// Proposes one multi-discrete action vector over `S_t`: one index
    /// per head in node-interleaved layout (head `2v` adjusts `k_v`,
    /// head `2v+1` adjusts `d_v`; 0 decrements, 1 keeps, 2 increments),
    /// exactly what [`TopoState::apply`] consumes.
    fn propose(&mut self, state: &TopoState) -> Vec<u8>;

    /// Observes the realised reward of the last proposal. `state` is the
    /// post-transition `S_{t+1}` (pre episodic reset). `window_end`
    /// marks the end of an update window; a strategy that runs a policy
    /// update there returns its stats (driving the `ppo_update`
    /// telemetry event and the `ppo_stats` trace), all others return
    /// `None`.
    fn feedback(
        &mut self,
        reward: f32,
        window_end: bool,
        reset_each_episode: bool,
        state: &TopoState,
    ) -> Option<PpoStats>;

    /// Re-anchors the strategy on a refreshed topology optimiser (the
    /// entropy-refresh boundary swaps candidate rankings, so prefix-based
    /// heuristics recompute their targets). The PPO agent persists its
    /// parameters across refreshes, so its override is a no-op.
    fn rebase(&mut self, topo: &TopologyOptimizer);

    /// Learned state for checkpoints. Heuristics are stateless and
    /// export an empty [`AgentState`] (no parameters, fresh Adam, zero
    /// RNG), which round-trips through the checkpoint container
    /// unchanged.
    fn export_agent(&self) -> AgentState;

    /// Restores state captured by [`export_agent`](Rewirer::export_agent).
    fn import_agent(&mut self, state: &AgentState);

    /// In-flight rollout transitions for checkpoints (empty for
    /// heuristics).
    fn export_buffer(&self) -> RolloutBuffer;

    /// Restores the buffer captured by
    /// [`export_buffer`](Rewirer::export_buffer).
    fn import_buffer(&mut self, buffer: &RolloutBuffer);
}

/// Builds the configured strategy over one topology optimiser.
///
/// `train_mask` carries the training-split node indices: heuristics may
/// use training labels (transductive node classification exposes them),
/// but never validation/test labels.
pub fn build_rewirer(
    topo: &TopologyOptimizer,
    cfg: &GraphRareConfig,
    train_mask: &[usize],
) -> Box<dyn Rewirer> {
    match cfg.rewirer {
        RewirerKind::Ppo => Box::new(PpoRewirer::new(topo.base().num_nodes(), cfg)),
        RewirerKind::Dhgr => Box::new(TargetDriven::dhgr(topo, cfg, train_mask)),
        RewirerKind::Reference => Box::new(TargetDriven::reference(topo, cfg)),
        RewirerKind::None => Box::new(TargetDriven::none(topo)),
    }
}

// ---------------------------------------------------------------------------
// PPO (and its A2C preset)
// ---------------------------------------------------------------------------

/// One in-flight transition between `propose` and `feedback`.
struct Pending {
    features: Vec<f32>,
    actions: Vec<u8>,
    log_prob: f32,
    value: f32,
}

/// The paper's DRL strategy: a PPO agent over the normalised `[k, d]`
/// counters, updated every `update_every` steps from the rollout buffer.
/// `RlAlgo::A2c` runs the same agent under the [`PpoConfig::a2c`] preset.
struct PpoRewirer {
    agent: PpoAgent,
    buffer: RolloutBuffer,
    pending: Option<Pending>,
}

impl PpoRewirer {
    fn new(num_nodes: usize, cfg: &GraphRareConfig) -> Self {
        let state_dim = 2 * num_nodes;
        let seed = cfg.ppo.seed;
        let (policy, hidden): (Box<dyn Policy>, usize) = match cfg.policy {
            PolicyKind::Global { hidden } => {
                (Box::new(GlobalPolicy::new(state_dim, hidden, 2 * num_nodes, seed)), hidden)
            }
            PolicyKind::Shared { hidden } => {
                (Box::new(SharedPolicy::new(num_nodes, 2, hidden, seed)), hidden)
            }
        };
        let value = ValueNet::new(state_dim, hidden, seed.wrapping_add(17));
        let agent_cfg = match cfg.algo {
            RlAlgo::Ppo => cfg.ppo,
            RlAlgo::A2c => PpoConfig::a2c(seed),
        };
        Self {
            agent: PpoAgent::new(policy, value, agent_cfg),
            buffer: RolloutBuffer::new(),
            pending: None,
        }
    }
}

impl Rewirer for PpoRewirer {
    fn kind(&self) -> RewirerKind {
        RewirerKind::Ppo
    }

    fn propose(&mut self, state: &TopoState) -> Vec<u8> {
        let features = state.features();
        let (actions, log_prob, value) = self.agent.act(&features);
        self.pending = Some(Pending { features, actions: actions.clone(), log_prob, value });
        actions
    }

    fn feedback(
        &mut self,
        reward: f32,
        window_end: bool,
        reset_each_episode: bool,
        state: &TopoState,
    ) -> Option<PpoStats> {
        let p = self.pending.take().expect("feedback without a matching propose");
        self.buffer.push(
            p.features,
            p.actions,
            p.log_prob,
            p.value,
            reward,
            window_end && reset_each_episode,
        );
        if !window_end {
            return None;
        }
        // Terminal windows bootstrap from 0, continuing ones from the
        // critic's value of the state the next window starts in.
        let last_value =
            if reset_each_episode { 0.0 } else { self.agent.value_of(&state.features()) };
        let stats = self.agent.update(&self.buffer, last_value);
        self.buffer.clear();
        Some(stats)
    }

    fn rebase(&mut self, _topo: &TopologyOptimizer) {
        // The agent's parameters persist across sequence refreshes; only
        // the state it observes jumps (the driver rebuilds `TopoState`).
    }

    fn export_agent(&self) -> AgentState {
        self.agent.export_state()
    }

    fn import_agent(&mut self, state: &AgentState) {
        self.agent.import_state(state);
        self.pending = None;
    }

    fn export_buffer(&self) -> RolloutBuffer {
        self.buffer.clone()
    }

    fn import_buffer(&mut self, buffer: &RolloutBuffer) {
        self.buffer = buffer.clone();
    }
}

// ---------------------------------------------------------------------------
// Heuristics
// ---------------------------------------------------------------------------

/// Acceptance criteria of a heuristic strategy, kept so prefix targets
/// can be recomputed at entropy-refresh boundaries.
enum Criteria {
    /// Accept nothing (the `none` baseline).
    Hold,
    /// DHGR similarity scoring: cosine feature similarity plus a
    /// training-label agreement term, thresholded at `tau` (the median
    /// score over the original graph's edges).
    Dhgr { feats: Matrix, norms: Vec<f32>, known: Vec<Option<usize>>, tau: f32 },
    /// Reference-graph membership: the symmetric feature-kNN relation.
    Reference { relation: FxHashSet<u64> },
}

impl Criteria {
    /// Whether candidate edge `(v, u)` should be added.
    fn accept_add(&self, v: usize, u: usize) -> bool {
        match self {
            Criteria::Hold => false,
            Criteria::Dhgr { .. } => self.dhgr_score(v, u) > self.dhgr_tau(),
            Criteria::Reference { relation } => relation.contains(&edge_key(v, u)),
        }
    }

    /// Whether original edge `(v, u)` should be deleted.
    fn accept_del(&self, v: usize, u: usize) -> bool {
        match self {
            Criteria::Hold => false,
            Criteria::Dhgr { .. } => self.dhgr_score(v, u) < self.dhgr_tau(),
            Criteria::Reference { relation } => !relation.contains(&edge_key(v, u)),
        }
    }

    fn dhgr_tau(&self) -> f32 {
        match self {
            Criteria::Dhgr { tau, .. } => *tau,
            _ => unreachable!("dhgr_tau on a non-DHGR criteria"),
        }
    }

    /// DHGR pair score: cosine feature similarity, nudged by training
    /// labels when both endpoints have one (+0.25 same class, −0.25
    /// different), mirroring DHGR's combined feature/label similarity.
    fn dhgr_score(&self, v: usize, u: usize) -> f32 {
        let Criteria::Dhgr { feats, norms, known, .. } = self else {
            unreachable!("dhgr_score on a non-DHGR criteria");
        };
        let mut score = cosine(feats.row(v), feats.row(u), norms[v], norms[u]);
        if let (Some(a), Some(b)) = (known[v], known[u]) {
            score += if a == b { 0.25 } else { -0.25 };
        }
        score
    }
}

/// A deterministic heuristic strategy: per-node target counters computed
/// once from the graph, approached one increment per step.
///
/// The candidate *order* is fixed by the entropy rankings (the shared
/// action space: `k_v` connects a prefix of `additions(v)`, `d_v`
/// removes a prefix of `deletions(v)`), so a heuristic expresses itself
/// as the longest candidate prefix its acceptance criteria endorse. The
/// proposals are monotone — once every counter reaches its target the
/// strategy proposes all-holds and the graph is converged.
struct TargetDriven {
    kind: RewirerKind,
    cap: usize,
    criteria: Criteria,
    k_target: Vec<u16>,
    d_target: Vec<u16>,
}

impl TargetDriven {
    fn with_criteria(
        kind: RewirerKind,
        topo: &TopologyOptimizer,
        cap: usize,
        criteria: Criteria,
    ) -> Self {
        let (k_target, d_target) = prefix_targets(topo, cap, &criteria);
        Self { kind, cap, criteria, k_target, d_target }
    }

    fn none(topo: &TopologyOptimizer) -> Self {
        let n = topo.base().num_nodes();
        Self {
            kind: RewirerKind::None,
            cap: 0,
            criteria: Criteria::Hold,
            k_target: vec![0; n],
            d_target: vec![0; n],
        }
    }

    fn dhgr(topo: &TopologyOptimizer, cfg: &GraphRareConfig, train_mask: &[usize]) -> Self {
        let base = topo.base();
        let feats = base.features().clone();
        let norms: Vec<f32> = (0..base.num_nodes())
            .map(|v| feats.row(v).iter().map(|x| x * x).sum::<f32>().sqrt())
            .collect();
        let mut known = vec![None; base.num_nodes()];
        for &v in train_mask {
            known[v] = Some(base.labels()[v]);
        }
        // Calibrate the acceptance threshold on the graph's own edges:
        // additions must look more homophilous than the median existing
        // edge, deletions less. Frozen at G_0 so refresh boundaries keep
        // comparing against the same yardstick.
        let mut criteria = Criteria::Dhgr { feats, norms, known, tau: 0.0 };
        let mut scores: Vec<f32> =
            base.edge_vec().iter().map(|&(u, v)| criteria.dhgr_score(u, v)).collect();
        scores.sort_unstable_by(f32::total_cmp);
        let tau = if scores.is_empty() { 0.0 } else { scores[scores.len() / 2] };
        if let Criteria::Dhgr { tau: t, .. } = &mut criteria {
            *t = tau;
        }
        Self::with_criteria(RewirerKind::Dhgr, topo, cfg.k_cap, criteria)
    }

    fn reference(topo: &TopologyOptimizer, cfg: &GraphRareConfig) -> Self {
        let relation = knn_relation(topo.base());
        Self::with_criteria(
            RewirerKind::Reference,
            topo,
            cfg.k_cap,
            Criteria::Reference { relation },
        )
    }
}

impl Rewirer for TargetDriven {
    fn kind(&self) -> RewirerKind {
        self.kind
    }

    fn propose(&mut self, state: &TopoState) -> Vec<u8> {
        let n = state.num_nodes();
        let mut actions = vec![1u8; 2 * n];
        for v in 0..n {
            if state.k(v) < (self.k_target[v] as usize).min(state.k_max(v)) {
                actions[2 * v] = 2;
            }
            if state.d(v) < (self.d_target[v] as usize).min(state.d_max(v)) {
                actions[2 * v + 1] = 2;
            }
        }
        actions
    }

    fn feedback(
        &mut self,
        _reward: f32,
        _window_end: bool,
        _reset_each_episode: bool,
        _state: &TopoState,
    ) -> Option<PpoStats> {
        None
    }

    fn rebase(&mut self, topo: &TopologyOptimizer) {
        let (k_target, d_target) = prefix_targets(topo, self.cap, &self.criteria);
        self.k_target = k_target;
        self.d_target = d_target;
    }

    fn export_agent(&self) -> AgentState {
        AgentState {
            params: Vec::new(),
            adam: AdamSnapshot { t: 0, moments: Vec::new() },
            rng: [0; 4],
        }
    }

    fn import_agent(&mut self, _state: &AgentState) {
        // Stateless: the driver's shape validation already guaranteed the
        // snapshot carries the empty agent state exported above.
    }

    fn export_buffer(&self) -> RolloutBuffer {
        RolloutBuffer::new()
    }

    fn import_buffer(&mut self, _buffer: &RolloutBuffer) {}
}

/// Longest accepted candidate prefix per node, within the same bounds the
/// driver builds its [`TopoState`] with.
fn prefix_targets(
    topo: &TopologyOptimizer,
    cap: usize,
    criteria: &Criteria,
) -> (Vec<u16>, Vec<u16>) {
    let n = topo.base().num_nodes();
    let k_bounds = topo.k_bounds(cap);
    let d_bounds = topo.d_bounds(cap);
    let seqs = topo.sequences();
    let mut k_target = vec![0u16; n];
    let mut d_target = vec![0u16; n];
    for v in 0..n {
        for &(u, _) in seqs.additions(v).iter().take(k_bounds[v] as usize) {
            if !criteria.accept_add(v, u as usize) {
                break;
            }
            k_target[v] += 1;
        }
        for &(u, _) in seqs.deletions(v).iter().take(d_bounds[v] as usize) {
            if !criteria.accept_del(v, u as usize) {
                break;
            }
            d_target[v] += 1;
        }
    }
    (k_target, d_target)
}

fn cosine(a: &[f32], b: &[f32], norm_a: f32, norm_b: f32) -> f32 {
    if norm_a == 0.0 || norm_b == 0.0 {
        return 0.0;
    }
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    dot / (norm_a * norm_b)
}

/// The symmetric feature-kNN reference relation: for every node, its
/// top-`K` most cosine-similar other nodes (ties broken by node index, so
/// the relation is fully deterministic). `K` tracks the graph's average
/// degree, clamped to a small band.
fn knn_relation(base: &graphrare_graph::Graph) -> FxHashSet<u64> {
    let n = base.num_nodes();
    let k = if n == 0 { 2 } else { (2 * base.num_edges() / n.max(1)).clamp(2, 8) };
    let feats = base.features();
    let norms: Vec<f32> =
        (0..n).map(|v| feats.row(v).iter().map(|x| x * x).sum::<f32>().sqrt()).collect();
    let mut relation = FxHashSet::default();
    let mut sims: Vec<(f32, usize)> = Vec::with_capacity(n.saturating_sub(1));
    for v in 0..n {
        sims.clear();
        for u in 0..n {
            if u != v {
                sims.push((cosine(feats.row(v), feats.row(u), norms[v], norms[u]), u));
            }
        }
        // Highest similarity first; equal similarities prefer the lower
        // node index so the relation never depends on iteration order.
        sims.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        for &(_, u) in sims.iter().take(k) {
            relation.insert(edge_key(v, u));
        }
    }
    relation
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrare_datasets::{generate_spec, stratified_split, DatasetSpec};
    use graphrare_entropy::{EntropySequences, RelativeEntropyTable};
    use graphrare_graph::Graph;

    fn fixture() -> (Graph, Vec<usize>, GraphRareConfig) {
        let spec = DatasetSpec {
            name: "rewirer-test",
            num_nodes: 40,
            num_edges: 90,
            feat_dim: 12,
            num_classes: 3,
            homophily: 0.2,
            degree_exponent: 0.4,
            feature_signal: 0.8,
            feature_density: 0.1,
        };
        let g = generate_spec(&spec, 7);
        let split = stratified_split(g.labels(), g.num_classes(), 0);
        (g, split.train, GraphRareConfig::fast().with_seed(5))
    }

    fn optimizer(g: &Graph, cfg: &GraphRareConfig) -> TopologyOptimizer {
        let table = RelativeEntropyTable::new(g, &cfg.entropy);
        let seqs = EntropySequences::build(g, &table, &cfg.sequences);
        TopologyOptimizer::new(g.clone(), seqs, cfg.edit_mode)
    }

    fn drive(
        rw: &mut dyn Rewirer,
        topo: &TopologyOptimizer,
        cfg: &GraphRareConfig,
        steps: usize,
    ) -> Vec<Vec<u8>> {
        let mut state = TopoState::new(topo.k_bounds(cfg.k_cap), topo.d_bounds(cfg.k_cap));
        let mut trace = Vec::new();
        for t in 0..steps {
            let actions = rw.propose(&state);
            assert_eq!(actions.len(), 2 * state.num_nodes());
            state.apply(&actions);
            let window_end = (t + 1) % cfg.update_every == 0;
            rw.feedback(0.01, window_end, false, &state);
            trace.push(actions);
        }
        trace
    }

    #[test]
    fn kind_name_tag_roundtrip() {
        for kind in RewirerKind::ALL {
            assert_eq!(RewirerKind::parse(kind.name()), Some(kind));
            assert_eq!(RewirerKind::from_tag(kind.tag()), Some(kind));
            assert!(kind.span_name().starts_with("rewire.propose."));
        }
        assert_eq!(RewirerKind::parse("nope"), None);
        assert_eq!(RewirerKind::from_tag(99), None);
    }

    #[test]
    fn every_strategy_is_deterministic_under_seed() {
        let (g, train, cfg) = fixture();
        let topo = optimizer(&g, &cfg);
        for kind in RewirerKind::ALL {
            let mut c = cfg;
            c.rewirer = kind;
            let a = drive(build_rewirer(&topo, &c, &train).as_mut(), &topo, &c, 8);
            let b = drive(build_rewirer(&topo, &c, &train).as_mut(), &topo, &c, 8);
            assert_eq!(a, b, "strategy {} not deterministic", kind.name());
        }
    }

    #[test]
    fn none_strategy_only_holds() {
        let (g, train, mut cfg) = fixture();
        cfg.rewirer = RewirerKind::None;
        let topo = optimizer(&g, &cfg);
        let trace = drive(build_rewirer(&topo, &cfg, &train).as_mut(), &topo, &cfg, 4);
        assert!(trace.iter().all(|step| step.iter().all(|&a| a == 1)));
    }

    #[test]
    fn heuristic_actions_stay_within_bounds_and_converge() {
        let (g, train, cfg) = fixture();
        let topo = optimizer(&g, &cfg);
        for kind in [RewirerKind::Dhgr, RewirerKind::Reference] {
            let mut c = cfg;
            c.rewirer = kind;
            let mut rw = build_rewirer(&topo, &c, &train);
            let mut state = TopoState::new(topo.k_bounds(c.k_cap), topo.d_bounds(c.k_cap));
            // Far more steps than any target: the strategy must settle
            // into all-holds instead of oscillating or overshooting.
            let mut last = Vec::new();
            for _ in 0..64 {
                last = rw.propose(&state);
                state.apply(&last);
                rw.feedback(0.0, false, false, &state);
            }
            assert!(
                last.iter().all(|&a| a == 1),
                "strategy {} still editing after 64 steps",
                kind.name()
            );
            for v in 0..state.num_nodes() {
                assert!(state.k(v) <= state.k_max(v));
                assert!(state.d(v) <= state.d_max(v));
            }
        }
    }

    #[test]
    fn dhgr_proposes_some_edit_on_heterophilic_graph() {
        let (g, train, mut cfg) = fixture();
        cfg.rewirer = RewirerKind::Dhgr;
        let topo = optimizer(&g, &cfg);
        let trace = drive(build_rewirer(&topo, &cfg, &train).as_mut(), &topo, &cfg, 6);
        let edits: usize = trace.iter().map(|s| s.iter().filter(|&&a| a != 1).count()).sum();
        assert!(edits > 0, "DHGR proposed no edits on a heterophilic graph");
    }

    #[test]
    fn heuristics_export_empty_restorable_state() {
        let (g, train, mut cfg) = fixture();
        cfg.rewirer = RewirerKind::Reference;
        let topo = optimizer(&g, &cfg);
        let mut rw = build_rewirer(&topo, &cfg, &train);
        let agent = rw.export_agent();
        assert!(agent.params.is_empty());
        assert!(agent.adam.moments.is_empty());
        assert_eq!(agent.rng, [0; 4]);
        assert_eq!(rw.export_buffer().len(), 0);
        rw.import_agent(&agent);
        rw.import_buffer(&RolloutBuffer::new());
    }

    #[test]
    fn ppo_rewirer_updates_on_window_end_only() {
        let (g, train, cfg) = fixture();
        let topo = optimizer(&g, &cfg);
        let mut rw = build_rewirer(&topo, &cfg, &train);
        assert_eq!(rw.kind(), RewirerKind::Ppo);
        let mut state = TopoState::new(topo.k_bounds(cfg.k_cap), topo.d_bounds(cfg.k_cap));
        for t in 0..cfg.update_every {
            let actions = rw.propose(&state);
            state.apply(&actions);
            let window_end = t + 1 == cfg.update_every;
            let stats = rw.feedback(0.1, window_end, false, &state);
            assert_eq!(stats.is_some(), window_end);
        }
        assert_eq!(rw.export_buffer().len(), 0, "buffer must clear after an update");
    }

    #[test]
    fn rebase_recomputes_targets_against_new_optimizer() {
        let (g, train, mut cfg) = fixture();
        cfg.rewirer = RewirerKind::Reference;
        let topo = optimizer(&g, &cfg);
        let mut rw = build_rewirer(&topo, &cfg, &train);
        // Drive to convergence, then rebase on the same optimiser: the
        // converged state must still propose all-holds (targets are a
        // pure function of the optimiser).
        let mut state = TopoState::new(topo.k_bounds(cfg.k_cap), topo.d_bounds(cfg.k_cap));
        for _ in 0..64 {
            let actions = rw.propose(&state);
            state.apply(&actions);
            rw.feedback(0.0, false, false, &state);
        }
        rw.rebase(&topo);
        let after = rw.propose(&state);
        assert!(after.iter().all(|&a| a == 1));
    }
}
