//! Algorithm 1: joint end-to-end training of the GNN and the DRL module.
//!
//! The loop is exposed at two granularities: [`run`] /
//! [`run_with_sequences`] execute Algorithm 1 end to end, while
//! [`RareDriver`] runs it one outer DRL step at a time so callers can
//! checkpoint between steps ([`RareDriver::snapshot`] /
//! [`RareDriver::restore`]) and resume a killed run with bit-identical
//! results.

use graphrare_datasets::Split;
use graphrare_entropy::{EntropySequences, IncrementalEntropy, RelativeEntropyTable};
use graphrare_gnn::metrics::macro_auc;
use graphrare_gnn::{build_model, evaluate, Backbone, GnnModel, GraphTensors, Trainer};
use graphrare_graph::{metrics, Graph};
use graphrare_rl::{AgentState, PpoStats, RolloutBuffer};
use graphrare_telemetry as telemetry;
use graphrare_tensor::Matrix;

use graphrare_gnn::TrainerState;

use crate::config::{GraphRareConfig, SequenceMode};
use crate::reward::{PerfSnapshot, RewardKind};
use crate::rewire::{RewireDelta, RewireError, RewiredGraph};
use crate::rewirer::{build_rewirer, Rewirer};
use crate::state::TopoState;
use crate::topology::TopologyOptimizer;

/// Per-step traces of one GraphRARE run (Figs. 6a–6c).
#[derive(Clone, Debug, Default)]
pub struct RunTraces {
    /// Training accuracy after each DRL step.
    pub train_acc: Vec<f64>,
    /// Validation accuracy after each DRL step.
    pub val_acc: Vec<f64>,
    /// Homophily ratio of `G_t` at each step (Fig. 6b).
    pub homophily: Vec<f64>,
    /// Mean reward per update window (Fig. 6c).
    pub episode_rewards: Vec<f32>,
    /// PPO diagnostics per update.
    pub ppo_stats: Vec<PpoStats>,
}

/// Result of one GraphRARE run.
#[derive(Clone, Debug)]
pub struct RareReport {
    /// Name of the wrapped backbone.
    pub backbone: &'static str,
    /// Test accuracy at the best-validation checkpoint.
    pub test_acc: f64,
    /// Best validation accuracy observed.
    pub best_val_acc: f64,
    /// Edge homophily of the original graph.
    pub original_homophily: f64,
    /// Edge homophily of the optimised (best-validation) graph (Fig. 7).
    pub optimized_homophily: f64,
    /// Per-step traces.
    pub traces: RunTraces,
    /// The optimised graph itself.
    pub optimized_graph: Graph,
    /// Model parameters at the best-validation checkpoint, in
    /// `model.params()` order (what `--save-model` persists).
    pub model_params: Vec<Matrix>,
    /// Run-scoped telemetry aggregate (spans, paths, counters)
    /// when the global registry was enabled for the run, else `None`.
    /// Strictly observational: every other field is bit-identical
    /// whether or not telemetry was on.
    pub telemetry: Option<telemetry::Summary>,
}

/// Training-set performance snapshot (accuracy, loss and — if the reward
/// needs it — macro AUC).
fn perf_snapshot(
    model: &dyn GnnModel,
    gt: &GraphTensors,
    labels: &[usize],
    train_mask: &[usize],
    num_classes: usize,
    want_auc: bool,
) -> PerfSnapshot {
    let eval = evaluate(model, gt, labels, train_mask);
    let auc = if want_auc { macro_auc(&eval.logits, labels, train_mask, num_classes) } else { 0.5 };
    PerfSnapshot { accuracy: eval.accuracy, loss: eval.loss, auc }
}

/// Every mutable piece of the Algorithm-1 loop, captured as plain data
/// between two outer steps.
///
/// A snapshot restored into a driver built over the same graph, split
/// and config ([`RareDriver::new_for_resume`]) continues the run with
/// bit-identical results — floats are carried verbatim and both RNG
/// streams resume mid-sequence. Produced by [`RareDriver::snapshot`],
/// consumed by [`RareDriver::restore`]; the `graphrare::persist` module
/// maps it onto a `graphrare-store` container.
#[derive(Clone, Debug)]
pub struct DriverSnapshot {
    /// Completed outer DRL steps.
    pub step: u64,
    /// GNN trainer: parameters, Adam moments, dropout RNG.
    pub trainer: TrainerState,
    /// Rewirer's learned state (policy/value parameters, Adam moments,
    /// sampling RNG for the DRL strategy; empty for heuristics).
    pub agent: AgentState,
    /// `TopoState` counters `k_v`.
    pub topo_k: Vec<u16>,
    /// `TopoState` counters `d_v`.
    pub topo_d: Vec<u16>,
    /// Per-node `k` bounds (validated against the rebuilt optimiser).
    pub topo_k_max: Vec<u16>,
    /// Per-node `d` bounds (validated against the rebuilt optimiser).
    pub topo_d_max: Vec<u16>,
    /// Previous-step performance snapshot (reward baseline).
    pub prev: PerfSnapshot,
    /// Best training accuracy seen (fine-tune trigger, line 11).
    pub max_acc: f64,
    /// Best validation accuracy seen.
    pub best_val: f64,
    /// Parameter snapshot at the end of warm-up.
    pub warm_params: Vec<Matrix>,
    /// Parameter snapshot at the best-validation step.
    pub best_params: Vec<Matrix>,
    /// Edge list of the best-validation graph.
    pub best_graph_edges: Vec<(u32, u32)>,
    /// In-flight rollout transitions (between agent updates).
    pub buffer: RolloutBuffer,
    /// Per-step traces accumulated so far.
    pub traces: RunTraces,
    /// Reward accumulated in the current update window.
    pub window_reward: f32,
    /// Steps accumulated in the current update window.
    pub window_steps: u64,
}

/// Stepwise executor of Algorithm 1.
///
/// ```text
/// let mut d = RareDriver::new(&graph, &split, backbone, &cfg);
/// while d.try_step()? { /* checkpoint here if desired */ }
/// let report = d.try_finish()?;
/// ```
///
/// [`run`] is the one-shot equivalent. The driver exists so callers can
/// interleave the loop with checkpointing: [`snapshot`] captures the
/// complete mutable state between steps, [`restore`] puts it back, and
/// a run killed at step `t` and resumed produces a final [`RareReport`]
/// bit-identical to an uninterrupted one.
///
/// [`snapshot`]: RareDriver::snapshot
/// [`restore`]: RareDriver::restore
pub struct RareDriver {
    cfg: GraphRareConfig,
    split: Split,
    labels: Vec<usize>,
    num_classes: usize,
    want_auc: bool,
    topo: TopologyOptimizer,
    rewired: RewiredGraph,
    /// Reused rewire-delta buffer: `step` stays allocation-free on the
    /// steady-state edge path by writing into this instead of returning
    /// a fresh delta.
    delta: RewireDelta,
    model: Box<dyn GnnModel>,
    trainer: Trainer,
    /// The configured edit-proposal strategy (`cfg.rewirer`): the DRL
    /// agent by default, or one of the deterministic heuristics.
    rewirer: Box<dyn Rewirer>,
    base_edges: usize,
    warm_params: Vec<Matrix>,
    state: TopoState,
    prev: PerfSnapshot,
    max_acc: f64,
    best_val: f64,
    best_params: Vec<Matrix>,
    best_graph: Graph,
    traces: RunTraces,
    window_reward: f32,
    window_steps: usize,
    step: usize,
    baseline: Option<telemetry::Summary>,
    run_clock: telemetry::Stopwatch,
    run_span: Option<telemetry::SpanGuard>,
    /// Incremental entropy engine, present iff `entropy_refresh_every > 0`:
    /// fed every rewire delta so its table/sequences mirror `G_t`, and
    /// consulted at refresh boundaries instead of a from-scratch build.
    engine: Option<IncrementalEntropy>,
    /// The construction-time graph, kept only when refreshes can re-anchor
    /// `topo.base()` away from it (for the final report's original
    /// homophily and the finish-phase fallback candidate).
    original: Option<Graph>,
}

impl RareDriver {
    /// Builds a driver over one data split: precomputes the entropy
    /// sequences (lines 1–6) and warm-trains the backbone on the
    /// original graph, leaving the loop ready at step 0.
    pub fn new(graph: &Graph, split: &Split, backbone: Backbone, cfg: &GraphRareConfig) -> Self {
        // Apply the thread knob before the first kernel call; 0 keeps the
        // env-var/auto resolution (see `graphrare_tensor::parallel`).
        graphrare_tensor::parallel::set_threads(cfg.threads);
        // The run-scoped baseline is taken before the entropy precompute so
        // the report's telemetry aggregate covers the whole of Algorithm 1.
        let baseline = telemetry::enabled().then(telemetry::snapshot);
        let (sequences, engine) = Self::init_sequences(graph, cfg);
        Self::build(graph, sequences, engine, split, backbone, cfg, baseline, false)
    }

    /// [`RareDriver::new`] with externally supplied sequences (ablations).
    /// `entropy_refresh_every` is ignored here: external sequences have no
    /// engine to refresh from, so they stay frozen like the default mode.
    pub fn with_sequences(
        graph: &Graph,
        sequences: EntropySequences,
        split: &Split,
        backbone: Backbone,
        cfg: &GraphRareConfig,
    ) -> Self {
        let baseline = telemetry::enabled().then(telemetry::snapshot);
        Self::build(graph, sequences, None, split, backbone, cfg, baseline, false)
    }

    /// Builds a driver destined for [`RareDriver::restore`]: identical to
    /// [`RareDriver::new`] except the warm-up phase and its evaluations
    /// are skipped, since the restored snapshot overwrites everything the
    /// warm-up produced. Using the driver without restoring is incorrect.
    pub fn new_for_resume(
        graph: &Graph,
        split: &Split,
        backbone: Backbone,
        cfg: &GraphRareConfig,
    ) -> Self {
        graphrare_tensor::parallel::set_threads(cfg.threads);
        let baseline = telemetry::enabled().then(telemetry::snapshot);
        let (sequences, engine) = Self::init_sequences(graph, cfg);
        Self::build(graph, sequences, engine, split, backbone, cfg, baseline, true)
    }

    /// Lines 1–6: relative entropy and sequences, computed once. Fully
    /// deterministic in (graph, cfg), which is what lets a resumed run
    /// recompute them instead of storing them.
    fn sequences_for(graph: &Graph, cfg: &GraphRareConfig) -> EntropySequences {
        let table = RelativeEntropyTable::new(graph, &cfg.entropy);
        let seqs = EntropySequences::build(graph, &table, &cfg.sequences);
        match cfg.sequence_mode {
            SequenceMode::Entropy => seqs,
            SequenceMode::Shuffled { seed } => seqs.shuffled(seed),
        }
    }

    /// Sequence construction, plus the incremental entropy engine when
    /// `entropy_refresh_every > 0`. The engine owns its own copy of the
    /// table and sequences and mirrors every edge flip the rewiring
    /// applies, so a refresh boundary can re-rank against the *current*
    /// graph at dirty-rows cost instead of a from-scratch rebuild.
    fn init_sequences(
        graph: &Graph,
        cfg: &GraphRareConfig,
    ) -> (EntropySequences, Option<IncrementalEntropy>) {
        if cfg.entropy_refresh_every == 0 {
            return (Self::sequences_for(graph, cfg), None);
        }
        let engine = IncrementalEntropy::new(graph, &cfg.entropy, cfg.sequences);
        let seqs = match cfg.sequence_mode {
            SequenceMode::Entropy => engine.sequences().clone(),
            SequenceMode::Shuffled { seed } => engine.sequences().shuffled(seed),
        };
        (seqs, Some(engine))
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        graph: &Graph,
        sequences: EntropySequences,
        engine: Option<IncrementalEntropy>,
        split: &Split,
        backbone: Backbone,
        cfg: &GraphRareConfig,
        baseline: Option<telemetry::Summary>,
        skip_warmup: bool,
    ) -> Self {
        graphrare_tensor::parallel::set_threads(cfg.threads);
        let run_clock = telemetry::Stopwatch::start();
        let run_span = telemetry::span("driver.run");
        let labels = graph.labels().to_vec();
        let num_classes = graph.num_classes();
        let want_auc = matches!(cfg.reward, RewardKind::Auc);

        let topo = TopologyOptimizer::new(graph.clone(), sequences, cfg.edit_mode);
        let state = TopoState::new(topo.k_bounds(cfg.k_cap), topo.d_bounds(cfg.k_cap));
        // The persistent G_t: starts at the base graph (S_0) and is edited
        // incrementally per step; its operator caches warm up here and are
        // row-patched from then on.
        let rewired = RewiredGraph::new(&topo);

        let model = build_model(backbone, graph.feat_dim(), num_classes, &cfg.model);
        let mut trainer = Trainer::new(model.as_ref(), &cfg.train);

        telemetry::emit_with(|| {
            telemetry::Event::new("run_start")
                .str("backbone", model.name())
                .str("rewirer", cfg.rewirer.name())
                .u64("nodes", graph.num_nodes() as u64)
                .u64("edges", graph.num_edges() as u64)
                .f64("homophily", metrics::homophily_ratio(graph))
                .u64("steps", cfg.steps as u64)
                .u64("threads", graphrare_tensor::parallel::current_threads() as u64)
        });

        let gt0 = rewired.tensors();
        if !skip_warmup {
            // Warm-up on the original graph so the reward signal and the RL
            // loop's validation comparisons reflect a (near-)converged model.
            // Early-stopped with best-validation restore, like a plain fit.
            let mut warm_best = f64::NEG_INFINITY;
            let mut warm_snap = trainer.snapshot();
            let mut since = 0usize;
            for _ in 0..cfg.warmup_epochs {
                trainer.train_epoch(model.as_ref(), gt0, &labels, &split.train);
                let val = evaluate(model.as_ref(), gt0, &labels, &split.val);
                if val.accuracy > warm_best {
                    warm_best = val.accuracy;
                    warm_snap = trainer.snapshot();
                    since = 0;
                } else {
                    since += 1;
                    if since >= cfg.train.patience {
                        telemetry::emit_with(|| {
                            telemetry::Event::new("early_stop")
                                .str("phase", "warmup")
                                .f64("best_val_acc", warm_best)
                        });
                        break;
                    }
                }
            }
            trainer.restore(&warm_snap);
        }
        let warm_params = trainer.snapshot();

        let rewirer = build_rewirer(&topo, cfg, &split.train);

        // On the resume path these are placeholders: `restore` overwrites
        // every one of them, so the (expensive) evaluations are skipped.
        let (prev, best_val) = if skip_warmup {
            (PerfSnapshot { accuracy: 0.0, loss: 0.0, auc: 0.5 }, 0.0)
        } else {
            let prev =
                perf_snapshot(model.as_ref(), gt0, &labels, &split.train, num_classes, want_auc);
            let val0 = evaluate(model.as_ref(), gt0, &labels, &split.val);
            (prev, val0.accuracy)
        };
        let max_acc = prev.accuracy;
        let best_params = trainer.snapshot();
        let best_graph = topo.base().clone();
        let base_edges = topo.base().num_edges();
        let original = engine.is_some().then(|| graph.clone());

        Self {
            cfg: *cfg,
            split: split.clone(),
            labels,
            num_classes,
            want_auc,
            topo,
            rewired,
            delta: RewireDelta::default(),
            model,
            trainer,
            rewirer,
            base_edges,
            warm_params,
            state,
            prev,
            max_acc,
            best_val,
            best_params,
            best_graph,
            traces: RunTraces::default(),
            window_reward: 0.0,
            window_steps: 0,
            step: 0,
            baseline,
            run_clock,
            run_span: Some(run_span),
            engine,
            original,
        }
    }

    /// The dataset's original graph `G_0`. With entropy refreshes the
    /// optimiser re-anchors its base on rewired graphs, so `topo.base()`
    /// stops being `G_0` after the first boundary; this accessor keeps the
    /// report's `original_homophily` and the convergence guard honest.
    fn original_graph(&self) -> &Graph {
        self.original.as_ref().unwrap_or_else(|| self.topo.base())
    }

    /// Completed outer DRL steps.
    pub fn step_index(&self) -> usize {
        self.step
    }

    /// Whether the configured number of DRL steps has been run.
    pub fn is_done(&self) -> bool {
        self.step >= self.cfg.steps
    }

    /// The configuration the driver was built with.
    pub fn config(&self) -> &GraphRareConfig {
        &self.cfg
    }

    /// Number of classes of the underlying dataset.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Runs one outer DRL step (Algorithm 1 lines 8–16). Returns
    /// `Ok(false)` without doing anything once all configured steps have
    /// run.
    ///
    /// Rewire-engine failures surface as a typed error, never a panic. A
    /// corrupt or version-skewed restored state is the realistic trigger;
    /// the driver must then be discarded (its graph state may be partially
    /// transitioned), but the hosting process — e.g. a `graphrare-serve`
    /// worker — keeps running.
    pub fn try_step(&mut self) -> Result<bool, RewireError> {
        if self.is_done() {
            return Ok(false);
        }
        let t = self.step;
        let iter_clock = telemetry::Stopwatch::start();
        let _iter_span = telemetry::span("driver.step");
        // Proposal step: the configured strategy acts on S_t, the state
        // transitions to S_{t+1} (Eq. 10), and G is rebuilt incrementally.
        let actions = {
            let _span = telemetry::span(self.rewirer.kind().span_name());
            self.rewirer.propose(&self.state)
        };
        self.state.apply(&actions);
        self.rewired.apply_into(&self.topo, &self.state, &mut self.delta)?;
        let delta = &self.delta;
        if let Some(engine) = self.engine.as_mut() {
            if !delta.is_empty() {
                // Mirror the transition into the incremental engine so its
                // H_s table and rankings track G_t at dirty-rows cost.
                let _span = telemetry::span("rewire.entropy_refresh");
                let flips: Vec<(usize, usize, bool)> = delta
                    .removed
                    .iter()
                    .map(|&(u, v)| (u, v, false))
                    .chain(delta.added.iter().map(|&(u, v)| (u, v, true)))
                    .collect();
                engine.apply_flips(&flips);
            }
        }
        let gt = self.rewired.tensors();

        // Lines 9–13: evaluate; fine-tune on improvement.
        let cur = perf_snapshot(
            self.model.as_ref(),
            gt,
            &self.labels,
            &self.split.train,
            self.num_classes,
            self.want_auc,
        );
        let finetuned = cur.accuracy > self.max_acc;
        if finetuned {
            self.max_acc = cur.accuracy;
            self.trainer.train_epochs(
                self.model.as_ref(),
                gt,
                &self.labels,
                &self.split.train,
                self.cfg.finetune_epochs,
            );
        }

        // Lines 14–16: reward and transition bookkeeping.
        let reward = self.cfg.reward.compute(&self.prev, &cur);
        self.prev = cur;
        self.window_reward += reward;
        self.window_steps += 1;
        let window_end = self.window_steps == self.cfg.update_every;

        // Traces + best-checkpoint tracking.
        let val_eval = evaluate(self.model.as_ref(), gt, &self.labels, &self.split.val);
        let hom = self.rewired.homophily_ratio();
        let g_t_edges = self.rewired.num_edges();
        self.traces.train_acc.push(self.prev.accuracy);
        self.traces.val_acc.push(val_eval.accuracy);
        self.traces.homophily.push(hom);
        if val_eval.accuracy > self.best_val {
            self.best_val = val_eval.accuracy;
            self.best_params = self.trainer.snapshot();
            self.best_graph = self.rewired.graph().clone();
        }

        // One structured event per outer iteration. Emitted before the
        // window update so the k/d vector is read pre-reset; fields are
        // copies of values the loop computes anyway — telemetry observes,
        // it never steers.
        telemetry::counter("driver.iters", 1);
        telemetry::emit_with(|| {
            let state = &self.state;
            let n = state.num_nodes();
            let (mut k_max_used, mut d_max_used) = (0usize, 0usize);
            for v in 0..n {
                k_max_used = k_max_used.max(state.k(v));
                d_max_used = d_max_used.max(state.d(v));
            }
            telemetry::Event::new("iter")
                .u64("step", t as u64)
                .f64("reward", reward as f64)
                .f64("train_acc", self.prev.accuracy)
                .f64("val_acc", val_eval.accuracy)
                .f64("loss", self.prev.loss)
                .f64("homophily", hom)
                .u64("edges", g_t_edges as u64)
                .i64("edge_delta", g_t_edges as i64 - self.base_edges as i64)
                .u64("edges_added", state.total_k() as u64)
                .u64("edges_deleted", state.total_d() as u64)
                .f64("k_mean", state.total_k() as f64 / n.max(1) as f64)
                .u64("k_max", k_max_used as u64)
                .f64("d_mean", state.total_d() as f64 / n.max(1) as f64)
                .u64("d_max", d_max_used as u64)
                .bool("finetuned", finetuned)
                .u64("wall_ns", iter_clock.ns())
        });

        // Feed the realised reward back to the strategy. RL-backed
        // strategies buffer the transition and run their policy update at
        // window end (returning its stats); heuristics observe and return
        // `None`, so no `ppo_update` event or trace entry is recorded.
        let stats =
            self.rewirer.feedback(reward, window_end, self.cfg.reset_each_episode, &self.state);
        if window_end {
            let window_mean = self.window_reward / self.cfg.update_every.max(1) as f32;
            self.traces.episode_rewards.push(window_mean);
            self.window_reward = 0.0;
            self.window_steps = 0;
            if let Some(stats) = stats {
                telemetry::counter("driver.ppo_updates", 1);
                telemetry::emit_with(|| {
                    telemetry::Event::new("ppo_update")
                        .u64("step", t as u64)
                        .f64("policy_loss", stats.policy_loss as f64)
                        .f64("value_loss", stats.value_loss as f64)
                        .f64("entropy", stats.entropy as f64)
                        .f64("approx_kl", stats.approx_kl as f64)
                        .f64("window_reward", window_mean as f64)
                });
                self.traces.ppo_stats.push(stats);
            }
            if self.cfg.reset_each_episode {
                self.state.reset();
            }
        }

        self.step += 1;
        if self.cfg.entropy_refresh_every > 0
            && self.step.is_multiple_of(self.cfg.entropy_refresh_every)
            && !self.is_done()
        {
            self.refresh_sequences();
        }
        Ok(true)
    }

    /// Refresh boundary: swap in rankings recomputed against the current
    /// rewired graph (maintained incrementally by the engine) and
    /// re-anchor the topology optimiser on it. The DRL counters reset —
    /// the refreshed deletion sequences list *current* neighbours, so
    /// `G_t` becomes the new `S_0` and the agent observes a state jump.
    fn refresh_sequences(&mut self) {
        let _span = telemetry::span("rewire.entropy_refresh");
        let engine = self.engine.as_ref().expect("refresh_sequences requires the engine");
        debug_assert_eq!(
            engine.graph().edge_vec(),
            self.rewired.graph().edge_vec(),
            "incremental engine fell out of sync with the rewired graph"
        );
        let sequences = match self.cfg.sequence_mode {
            SequenceMode::Entropy => engine.sequences().clone(),
            SequenceMode::Shuffled { seed } => engine.sequences().shuffled(seed),
        };
        self.topo =
            TopologyOptimizer::new(self.rewired.graph().clone(), sequences, self.cfg.edit_mode);
        self.state =
            TopoState::new(self.topo.k_bounds(self.cfg.k_cap), self.topo.d_bounds(self.cfg.k_cap));
        self.rewired.rebase(&self.topo);
        // Prefix-based heuristics recompute their targets against the new
        // rankings; the DRL agent carries its parameters across (no-op).
        self.rewirer.rebase(&self.topo);
        telemetry::counter("rewire.entropy_refreshes", 1);
        telemetry::emit_with(|| {
            telemetry::Event::new("sequence_refresh")
                .u64("step", self.step as u64)
                .u64("edges", self.rewired.num_edges() as u64)
        });
    }

    /// Final convergence phase + report (Algorithm 1's terminal joint
    /// training). Call after the DRL steps; [`try_step`](Self::try_step)
    /// tolerates being exhausted, `try_finish` consumes the driver.
    /// Rewire-engine failures surface as a typed error (the terminal
    /// resync replays the last state transition through the engine).
    pub fn try_finish(mut self) -> Result<RareReport, RewireError> {
        // Algorithm 1 trains the GNN and DRL jointly until convergence, but
        // the compressed DRL loop above only fine-tunes the GNN
        // opportunistically (line 12 fires on accuracy improvements). To
        // give the wrapped model the same optimisation budget as a plain
        // backbone, training continues to convergence — on the selected
        // topology AND, as a guard, on the original topology — and the
        // better-validating (graph, parameters) pair wins. The guard means a
        // mid-training mis-selection of a rewired graph can never leave the
        // enhanced model below its own backbone at convergence.
        let mut winner_graph = self.best_graph.clone();
        let mut winner_params = self.best_params.clone();
        // Each candidate resumes from the checkpoint trained on *its own*
        // topology: the selected graph from the RL loop's best snapshot, the
        // base graph from the warm-up snapshot (so the fallback path is the
        // plain backbone's own trajectory).
        let mut candidates = vec![(self.best_graph.clone(), self.best_params.clone())];
        // The terminal topology G_T carries the most accumulated rewiring
        // (homophily converges late, Fig. 6b); the mid-run best-val snapshot
        // often under-rewires because it was judged with a semi-trained model.
        // Resync first: an episodic reset at the end of the last step can
        // postdate the last incremental apply.
        self.rewired.apply_into(&self.topo, &self.state, &mut self.delta)?;
        let final_graph = self.rewired.graph().clone();
        if final_graph.edge_vec() != self.best_graph.edge_vec() {
            candidates.push((final_graph, self.best_params.clone()));
        }
        if self.best_graph.edge_vec() != self.original_graph().edge_vec() {
            candidates.push((self.original_graph().clone(), self.warm_params.clone()));
        }
        for (candidate, checkpoint) in candidates {
            self.trainer.restore(&checkpoint);
            let gt = GraphTensors::new(&candidate);
            let mut since_best = 0usize;
            for _ in 0..self.cfg.train.epochs {
                self.trainer.train_epoch(self.model.as_ref(), &gt, &self.labels, &self.split.train);
                let val_eval = evaluate(self.model.as_ref(), &gt, &self.labels, &self.split.val);
                if val_eval.accuracy > self.best_val {
                    self.best_val = val_eval.accuracy;
                    winner_params = self.trainer.snapshot();
                    winner_graph = candidate.clone();
                    since_best = 0;
                } else {
                    since_best += 1;
                    if since_best >= self.cfg.train.patience {
                        break;
                    }
                }
            }
        }

        // Test at the best-validation checkpoint (paper Sec. V-C).
        self.trainer.restore(&winner_params);
        let best_gt = GraphTensors::new(&winner_graph);
        let test_eval = evaluate(self.model.as_ref(), &best_gt, &self.labels, &self.split.test);

        let optimized_homophily = metrics::homophily_ratio(&winner_graph);
        telemetry::emit_with(|| {
            telemetry::Event::new("run_end")
                .f64("test_acc", test_eval.accuracy)
                .f64("best_val_acc", self.best_val)
                .f64("optimized_homophily", optimized_homophily)
                .u64("wall_ns", self.run_clock.ns())
        });
        // Close the run span before the snapshot (so the aggregate
        // includes it) and before the flush (its drop emits the
        // `driver.run` span event, which must land in the JSONL stream).
        drop(self.run_span.take());
        telemetry::flush();

        Ok(RareReport {
            backbone: self.model.name(),
            test_acc: test_eval.accuracy,
            best_val_acc: self.best_val,
            original_homophily: metrics::homophily_ratio(self.original_graph()),
            optimized_homophily,
            traces: self.traces,
            optimized_graph: winner_graph,
            model_params: winner_params,
            telemetry: self.baseline.map(|b| telemetry::snapshot().since(&b)),
        })
    }

    /// Captures every mutable piece of the loop as plain data. Call
    /// between steps (the driver is never mid-step from the outside).
    pub fn snapshot(&self) -> DriverSnapshot {
        DriverSnapshot {
            step: self.step as u64,
            trainer: self.trainer.export_state(),
            agent: self.rewirer.export_agent(),
            topo_k: self.state.k_vec().to_vec(),
            topo_d: self.state.d_vec().to_vec(),
            topo_k_max: self.state.k_max_vec().to_vec(),
            topo_d_max: self.state.d_max_vec().to_vec(),
            prev: self.prev,
            max_acc: self.max_acc,
            best_val: self.best_val,
            warm_params: self.warm_params.clone(),
            best_params: self.best_params.clone(),
            best_graph_edges: self
                .best_graph
                .edge_vec()
                .into_iter()
                .map(|(u, v)| (u as u32, v as u32))
                .collect(),
            buffer: self.rewirer.export_buffer(),
            traces: self.traces.clone(),
            window_reward: self.window_reward,
            window_steps: self.window_steps as u64,
        }
    }

    /// Overwrites the loop state with a snapshot taken over the same
    /// graph, split and config. Every structural property is validated
    /// before anything is mutated, so a failed restore usually leaves the
    /// driver untouched — and never panics. The one exception is the
    /// final rewire jump: counters that pass the shape checks but
    /// contradict this run's sequences are rejected by the rewire engine
    /// after the loop state was overwritten, so on that error the driver
    /// must be discarded (the error message says so).
    pub fn restore(&mut self, snap: &DriverSnapshot) -> Result<(), String> {
        if self.cfg.entropy_refresh_every > 0 {
            return Err("snapshot/restore is not supported with entropy_refresh_every > 0 (the \
                 incremental entropy engine's state is not captured by snapshots)"
                .to_string());
        }
        if snap.step > self.cfg.steps as u64 {
            return Err(format!(
                "snapshot is at step {} but the config runs only {} steps",
                snap.step, self.cfg.steps
            ));
        }
        if snap.topo_k_max != self.state.k_max_vec() || snap.topo_d_max != self.state.d_max_vec() {
            return Err(
                "snapshot topology bounds disagree with this graph/config (different dataset, \
                 seed, k-cap or edit mode?)"
                    .to_string(),
            );
        }
        let state = TopoState::from_raw(
            snap.topo_k.clone(),
            snap.topo_d.clone(),
            snap.topo_k_max.clone(),
            snap.topo_d_max.clone(),
        )
        .ok_or_else(|| "snapshot topology counters violate their bounds".to_string())?;

        let cur_trainer = self.trainer.snapshot();
        check_param_shapes("trainer parameters", &snap.trainer.params, &cur_trainer)?;
        check_adam_shapes("trainer Adam state", &snap.trainer.adam.moments, &cur_trainer)?;
        check_param_shapes("warm-up parameters", &snap.warm_params, &cur_trainer)?;
        check_param_shapes("best parameters", &snap.best_params, &cur_trainer)?;

        let cur_agent = self.rewirer.export_agent();
        check_param_shapes("agent parameters", &snap.agent.params, &cur_agent.params)?;
        check_adam_shapes("agent Adam state", &snap.agent.adam.moments, &cur_agent.params)?;

        let n = self.topo.base().num_nodes();
        if let Some(&(u, v)) =
            snap.best_graph_edges.iter().find(|&&(u, v)| u as usize >= n || v as usize >= n)
        {
            return Err(format!("snapshot best-graph edge ({u},{v}) references a node >= {n}"));
        }

        let b = &snap.buffer;
        let len = b.rewards.len();
        if b.states.len() != len
            || b.actions.len() != len
            || b.log_probs.len() != len
            || b.values.len() != len
            || b.dones.len() != len
        {
            return Err("snapshot rollout buffer columns disagree in length".to_string());
        }
        if b.states.iter().any(|s| s.len() != 2 * n) || b.actions.iter().any(|a| a.len() != 2 * n) {
            return Err("snapshot rollout buffer rows disagree with the node count".to_string());
        }
        if self.cfg.update_every > 0 && snap.window_steps >= self.cfg.update_every as u64 {
            return Err(format!(
                "snapshot window progress {} is impossible with update-every {}",
                snap.window_steps, self.cfg.update_every
            ));
        }

        // All checks passed — mutate.
        self.trainer.import_state(&snap.trainer);
        self.rewirer.import_agent(&snap.agent);
        self.rewirer.import_buffer(&snap.buffer);
        self.state = state;
        self.prev = snap.prev;
        self.max_acc = snap.max_acc;
        self.best_val = snap.best_val;
        self.warm_params = snap.warm_params.clone();
        self.best_params = snap.best_params.clone();
        let edges: Vec<(usize, usize)> =
            snap.best_graph_edges.iter().map(|&(u, v)| (u as usize, v as usize)).collect();
        let base = self.topo.base();
        self.best_graph = Graph::from_edges(
            n,
            &edges,
            base.features().clone(),
            base.labels().to_vec(),
            self.num_classes,
        );
        self.traces = snap.traces.clone();
        self.window_reward = snap.window_reward;
        self.window_steps = snap.window_steps as usize;
        self.step = snap.step as usize;
        // Jump the persistent G_t to the restored counters so the next
        // step's incremental apply starts from the right topology. A
        // rewire rejection here is a snapshot the structural checks above
        // could not catch (e.g. counters crafted against other sequences);
        // it surfaces as a restore failure, not a panic.
        self.rewired.apply_into(&self.topo, &self.state, &mut self.delta).map_err(|e| {
            format!("snapshot topology counters rejected by the rewire engine: {e}")
        })?;
        telemetry::emit_with(|| telemetry::Event::new("driver_restore").u64("step", snap.step));
        Ok(())
    }
}

fn check_param_shapes(what: &str, got: &[Matrix], expect: &[Matrix]) -> Result<(), String> {
    if got.len() != expect.len() {
        return Err(format!("snapshot {what}: {} tensors, model has {}", got.len(), expect.len()));
    }
    for (i, (g, e)) in got.iter().zip(expect).enumerate() {
        if g.shape() != e.shape() {
            return Err(format!(
                "snapshot {what}: tensor {i} is {:?}, model expects {:?}",
                g.shape(),
                e.shape()
            ));
        }
    }
    Ok(())
}

fn check_adam_shapes(
    what: &str,
    moments: &[(Matrix, Matrix)],
    params: &[Matrix],
) -> Result<(), String> {
    if moments.len() != params.len() {
        return Err(format!(
            "snapshot {what}: {} moment pairs, model has {} parameters",
            moments.len(),
            params.len()
        ));
    }
    for (i, ((m, v), p)) in moments.iter().zip(params).enumerate() {
        if m.shape() != p.shape() || v.shape() != p.shape() {
            return Err(format!("snapshot {what}: moment pair {i} disagrees with parameter shape"));
        }
    }
    Ok(())
}

/// Runs the full GraphRARE framework (Algorithm 1) on one data split,
/// wrapping `backbone`, and reports test accuracy at the best-validation
/// checkpoint together with the optimised topology.
pub fn run(
    graph: &Graph,
    split: &Split,
    backbone: Backbone,
    cfg: &GraphRareConfig,
) -> Result<RareReport, RewireError> {
    run_driver(RareDriver::new(graph, split, backbone, cfg))
}

/// [`run`] with externally supplied sequences (used by ablations that
/// manipulate the rankings).
pub fn run_with_sequences(
    graph: &Graph,
    sequences: EntropySequences,
    split: &Split,
    backbone: Backbone,
    cfg: &GraphRareConfig,
) -> Result<RareReport, RewireError> {
    run_driver(RareDriver::with_sequences(graph, sequences, split, backbone, cfg))
}

/// Runs every remaining step of `driver`, then its final phase.
fn run_driver(mut driver: RareDriver) -> Result<RareReport, RewireError> {
    while driver.try_step()? {}
    driver.try_finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyKind;
    use crate::rewirer::RewirerKind;
    use graphrare_datasets::{generate_spec, stratified_split, DatasetSpec};

    fn heterophilic_fixture() -> (Graph, Split) {
        let spec = DatasetSpec {
            name: "hetero-test",
            num_nodes: 60,
            num_edges: 140,
            feat_dim: 20,
            num_classes: 3,
            homophily: 0.15,
            degree_exponent: 0.4,
            feature_signal: 0.8,
            feature_density: 0.04,
        };
        let g = generate_spec(&spec, 3);
        let split = stratified_split(g.labels(), g.num_classes(), 0);
        (g, split)
    }

    fn assert_reports_identical(a: &RareReport, b: &RareReport) {
        assert_eq!(a.test_acc.to_bits(), b.test_acc.to_bits());
        assert_eq!(a.best_val_acc.to_bits(), b.best_val_acc.to_bits());
        assert_eq!(a.traces.train_acc, b.traces.train_acc);
        assert_eq!(a.traces.val_acc, b.traces.val_acc);
        assert_eq!(a.traces.homophily, b.traces.homophily);
        assert_eq!(a.traces.episode_rewards, b.traces.episode_rewards);
        assert_eq!(a.optimized_graph.edge_vec(), b.optimized_graph.edge_vec());
        assert_eq!(a.model_params, b.model_params);
    }

    #[test]
    fn run_produces_complete_report() {
        let (g, split) = heterophilic_fixture();
        let cfg = GraphRareConfig::fast().with_seed(1);
        let report = run(&g, &split, Backbone::Gcn, &cfg).unwrap();
        assert_eq!(report.backbone, "GCN");
        assert!((0.0..=1.0).contains(&report.test_acc));
        assert!(report.best_val_acc >= 0.0);
        assert_eq!(report.traces.train_acc.len(), cfg.steps);
        assert_eq!(report.traces.homophily.len(), cfg.steps);
        assert_eq!(report.traces.episode_rewards.len(), cfg.steps / cfg.update_every);
        assert!(report.optimized_graph.num_nodes() == g.num_nodes());
        assert!(!report.model_params.is_empty());
    }

    #[test]
    fn run_is_deterministic_for_fixed_seed() {
        let (g, split) = heterophilic_fixture();
        let cfg = GraphRareConfig::fast().with_seed(7);
        let a = run(&g, &split, Backbone::Gcn, &cfg).unwrap();
        let b = run(&g, &split, Backbone::Gcn, &cfg).unwrap();
        assert_eq!(a.test_acc, b.test_acc);
        assert_eq!(a.traces.episode_rewards, b.traces.episode_rewards);
        assert_eq!(a.optimized_graph.edge_vec(), b.optimized_graph.edge_vec());
    }

    #[test]
    fn optimization_raises_homophily_on_heterophilic_graph() {
        let (g, split) = heterophilic_fixture();
        let mut cfg = GraphRareConfig::fast().with_seed(2);
        cfg.steps = 24;
        let report = run(&g, &split, Backbone::Gcn, &cfg).unwrap();
        // Fig. 7's claim: optimised topology is more homophilic. With the
        // entropy ranking favouring same-class pairs this should hold
        // whenever any edit was kept.
        if report.optimized_graph.edge_vec() != g.edge_vec() {
            assert!(
                report.optimized_homophily >= report.original_homophily - 0.02,
                "homophily dropped: {} -> {}",
                report.original_homophily,
                report.optimized_homophily
            );
        }
    }

    #[test]
    fn episodic_mode_resets_state() {
        let (g, split) = heterophilic_fixture();
        let mut cfg = GraphRareConfig::fast().with_seed(3);
        cfg.reset_each_episode = true;
        let report = run(&g, &split, Backbone::Gcn, &cfg).unwrap();
        assert_eq!(report.traces.train_acc.len(), cfg.steps);
    }

    #[test]
    fn a2c_algorithm_variant_runs() {
        let (g, split) = heterophilic_fixture();
        let mut cfg = GraphRareConfig::fast().with_seed(8);
        cfg.algo = crate::config::RlAlgo::A2c;
        let report = run(&g, &split, Backbone::Gcn, &cfg).unwrap();
        assert!((0.0..=1.0).contains(&report.test_acc));
        // One update per window, each a single on-policy pass: the ratio
        // is 1 up to rounding, so the estimated KL stays near zero.
        assert_eq!(report.traces.ppo_stats.len(), cfg.steps / cfg.update_every);
        for s in &report.traces.ppo_stats {
            assert!(s.approx_kl.abs() < 1e-3, "A2C update moved the policy: {s:?}");
        }
    }

    #[test]
    fn shared_policy_variant_runs() {
        let (g, split) = heterophilic_fixture();
        let mut cfg = GraphRareConfig::fast().with_seed(4);
        cfg.policy = PolicyKind::Shared { hidden: 16 };
        let report = run(&g, &split, Backbone::Gcn, &cfg).unwrap();
        assert!((0.0..=1.0).contains(&report.test_acc));
    }

    #[test]
    fn stepwise_driver_matches_one_shot_run() {
        let (g, split) = heterophilic_fixture();
        let cfg = GraphRareConfig::fast().with_seed(11);
        let one_shot = run(&g, &split, Backbone::Gcn, &cfg).unwrap();
        let mut driver = RareDriver::new(&g, &split, Backbone::Gcn, &cfg);
        let mut steps = 0;
        while driver.try_step().unwrap() {
            steps += 1;
        }
        assert_eq!(steps, cfg.steps);
        assert!(driver.is_done());
        assert!(!driver.try_step().unwrap(), "exhausted driver must refuse further steps");
        let stepped = driver.try_finish().unwrap();
        assert_reports_identical(&one_shot, &stepped);
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let (g, split) = heterophilic_fixture();
        let cfg = GraphRareConfig::fast().with_seed(13);

        let uninterrupted = run(&g, &split, Backbone::Gcn, &cfg).unwrap();

        // Kill the run after 3 steps...
        let mut first = RareDriver::new(&g, &split, Backbone::Gcn, &cfg);
        for _ in 0..3 {
            assert!(first.try_step().unwrap());
        }
        let snap = first.snapshot();
        assert_eq!(snap.step, 3);
        drop(first);

        // ...and resume it in a "fresh process".
        let mut resumed = RareDriver::new_for_resume(&g, &split, Backbone::Gcn, &cfg);
        resumed.restore(&snap).unwrap();
        assert_eq!(resumed.step_index(), 3);
        let report = run_driver(resumed).unwrap();
        assert_reports_identical(&uninterrupted, &report);
    }

    #[test]
    fn snapshot_is_passive_and_repeatable() {
        let (g, split) = heterophilic_fixture();
        let cfg = GraphRareConfig::fast().with_seed(17);
        let mut driver = RareDriver::new(&g, &split, Backbone::Gcn, &cfg);
        driver.try_step().unwrap();
        let a = driver.snapshot();
        let b = driver.snapshot();
        assert_eq!(a.trainer.rng, b.trainer.rng, "snapshot must not advance RNG streams");
        assert_eq!(a.agent.rng, b.agent.rng);
        assert_eq!(a.trainer.params, b.trainer.params);
        // The driver still finishes normally after snapshotting.
        run_driver(driver).unwrap();
    }

    #[test]
    fn restore_rejects_foreign_snapshot() {
        let (g, split) = heterophilic_fixture();
        let cfg = GraphRareConfig::fast().with_seed(19);
        let mut driver = RareDriver::new(&g, &split, Backbone::Gcn, &cfg);
        driver.try_step().unwrap();
        let snap = driver.snapshot();

        // Same dataset family, different size -> bounds disagree.
        let spec = DatasetSpec {
            name: "other",
            num_nodes: 40,
            num_edges: 90,
            feat_dim: 20,
            num_classes: 3,
            homophily: 0.2,
            degree_exponent: 0.4,
            feature_signal: 0.8,
            feature_density: 0.04,
        };
        let g2 = generate_spec(&spec, 5);
        let split2 = stratified_split(g2.labels(), g2.num_classes(), 0);
        let mut other = RareDriver::new_for_resume(&g2, &split2, Backbone::Gcn, &cfg);
        assert!(other.restore(&snap).is_err());

        // Tampered counters are rejected too.
        let mut bad = snap.clone();
        if let Some(first_bound) = bad.topo_k_max.first().copied() {
            bad.topo_k[0] = first_bound + 1;
        }
        let mut same = RareDriver::new_for_resume(&g, &split, Backbone::Gcn, &cfg);
        assert!(same.restore(&bad).is_err());
    }

    #[test]
    fn refresh_boundary_matches_fresh_build() {
        let (g, split) = heterophilic_fixture();
        let mut cfg = GraphRareConfig::fast().with_seed(23);
        cfg.entropy_refresh_every = 1;
        let mut driver = RareDriver::new(&g, &split, Backbone::Gcn, &cfg);
        for _ in 0..3 {
            assert!(driver.try_step().unwrap());
        }
        // After each step a refresh boundary fired (refresh_every = 1), so
        // the optimiser's rankings must equal a from-scratch build against
        // the current rewired graph — the incremental engine's contract.
        let current = driver.rewired.graph();
        let table = RelativeEntropyTable::new(current, &cfg.entropy);
        let fresh = EntropySequences::build(current, &table, &cfg.sequences);
        assert_eq!(driver.topo.sequences(), &fresh);
        assert_eq!(driver.topo.base().edge_vec(), current.edge_vec());
        // And the re-anchored optimiser still drives a full run to completion.
        let report = run_driver(driver).unwrap();
        assert_eq!(report.traces.train_acc.len(), cfg.steps);
        assert_eq!(
            report.original_homophily,
            graphrare_graph::metrics::homophily_ratio(&g),
            "original_homophily must be measured on G_0, not the re-anchored base"
        );
    }

    #[test]
    fn refresh_enabled_run_is_deterministic() {
        let (g, split) = heterophilic_fixture();
        let mut cfg = GraphRareConfig::fast().with_seed(29);
        cfg.entropy_refresh_every = 4;
        let a = run(&g, &split, Backbone::Gcn, &cfg).unwrap();
        let b = run(&g, &split, Backbone::Gcn, &cfg).unwrap();
        assert_reports_identical(&a, &b);
        assert_eq!(a.traces.train_acc.len(), cfg.steps);
    }

    #[test]
    fn heuristic_strategies_run_and_resume_bit_identically() {
        let (g, split) = heterophilic_fixture();
        for kind in [RewirerKind::Dhgr, RewirerKind::Reference, RewirerKind::None] {
            let mut cfg = GraphRareConfig::fast().with_seed(37);
            cfg.rewirer = kind;
            let uninterrupted = run(&g, &split, Backbone::Gcn, &cfg).unwrap();
            assert_eq!(uninterrupted.traces.train_acc.len(), cfg.steps);
            // Heuristics run no policy update, so no ppo_stats rows.
            assert!(uninterrupted.traces.ppo_stats.is_empty());
            // Same reward bookkeeping as the DRL loop.
            assert_eq!(uninterrupted.traces.episode_rewards.len(), cfg.steps / cfg.update_every);

            let mut first = RareDriver::new(&g, &split, Backbone::Gcn, &cfg);
            for _ in 0..3 {
                assert!(first.try_step().unwrap());
            }
            let snap = first.snapshot();
            assert!(snap.agent.params.is_empty(), "{} must export empty agent", kind.name());
            drop(first);
            let mut resumed = RareDriver::new_for_resume(&g, &split, Backbone::Gcn, &cfg);
            resumed.restore(&snap).unwrap();
            let report = run_driver(resumed).unwrap();
            assert_reports_identical(&uninterrupted, &report);
        }
    }

    #[test]
    fn none_strategy_leaves_graph_untouched() {
        let (g, split) = heterophilic_fixture();
        let mut cfg = GraphRareConfig::fast().with_seed(41);
        cfg.rewirer = RewirerKind::None;
        let report = run(&g, &split, Backbone::Gcn, &cfg).unwrap();
        assert_eq!(report.optimized_graph.edge_vec(), g.edge_vec());
        assert_eq!(report.original_homophily, report.optimized_homophily);
    }

    #[test]
    fn dhgr_strategy_raises_homophily() {
        let (g, split) = heterophilic_fixture();
        let mut cfg = GraphRareConfig::fast().with_seed(43);
        cfg.rewirer = RewirerKind::Dhgr;
        cfg.steps = 24;
        let report = run(&g, &split, Backbone::Gcn, &cfg).unwrap();
        if report.optimized_graph.edge_vec() != g.edge_vec() {
            assert!(
                report.optimized_homophily >= report.original_homophily - 0.02,
                "homophily dropped: {} -> {}",
                report.original_homophily,
                report.optimized_homophily
            );
        }
    }

    #[test]
    fn restore_rejects_cross_strategy_snapshot() {
        let (g, split) = heterophilic_fixture();
        let cfg = GraphRareConfig::fast().with_seed(47);
        let mut ppo = RareDriver::new(&g, &split, Backbone::Gcn, &cfg);
        ppo.try_step().unwrap();
        let snap = ppo.snapshot();
        let mut cfg2 = cfg;
        cfg2.rewirer = RewirerKind::Dhgr;
        let mut heuristic = RareDriver::new_for_resume(&g, &split, Backbone::Gcn, &cfg2);
        assert!(
            heuristic.restore(&snap).is_err(),
            "a DRL snapshot must not restore into a heuristic driver"
        );
    }

    #[test]
    fn restore_rejected_when_refresh_enabled() {
        let (g, split) = heterophilic_fixture();
        let mut cfg = GraphRareConfig::fast().with_seed(31);
        cfg.entropy_refresh_every = 2;
        let mut driver = RareDriver::new(&g, &split, Backbone::Gcn, &cfg);
        driver.try_step().unwrap();
        let snap = driver.snapshot();
        let err = driver.restore(&snap).unwrap_err();
        assert!(err.contains("entropy_refresh_every"), "unexpected error: {err}");
    }
}
