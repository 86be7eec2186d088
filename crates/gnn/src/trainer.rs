//! Full-batch training harness with validation-based early stopping.
//!
//! Implements the paper's protocol (Sec. V-C): Adam, dropout 0.5, weight
//! decay, and "launch the testing procedure when the validation accuracy
//! of the trained model achieves a maximum value" — i.e. test accuracy is
//! reported at the best-validation checkpoint.

use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use graphrare_datasets::Split;
use graphrare_tensor::optim::{Adam, AdamSnapshot};
use graphrare_tensor::param::{clip_grad_norm, zero_grads, Param};
use graphrare_tensor::{Matrix, Tape};

use crate::metrics::accuracy;
use crate::model::{GnnModel, GraphTensors};

/// Optimisation hyper-parameters (defaults follow the paper's Sec. V-C).
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Initial learning rate (paper: 0.05).
    pub lr: f32,
    /// Weight decay (paper: {5e-5, 5e-6}).
    pub weight_decay: f32,
    /// Maximum number of epochs.
    pub epochs: usize,
    /// Early-stopping patience on validation accuracy.
    pub patience: usize,
    /// Gradient-norm clip (stabilises the paper's large 0.05 Adam step).
    pub grad_clip: f32,
    /// Dropout-mask RNG seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { lr: 0.05, weight_decay: 5e-5, epochs: 200, patience: 30, grad_clip: 5.0, seed: 0 }
    }
}

/// Outcome of a gradient-free evaluation pass.
#[derive(Clone, Debug)]
pub struct EvalResult {
    /// Accuracy over the evaluated mask.
    pub accuracy: f64,
    /// Mean cross-entropy loss over the mask.
    pub loss: f64,
    /// Raw logits (all nodes).
    pub logits: Matrix,
}

/// Evaluates `model` on one node mask without touching gradients.
pub fn evaluate(
    model: &dyn GnnModel,
    gt: &GraphTensors,
    labels: &[usize],
    mask: &[usize],
) -> EvalResult {
    let mut tape = Tape::new();
    // Dropout disabled: rng is unused but required by the signature.
    let mut rng = StdRng::seed_from_u64(0);
    let logits = model.forward(&mut tape, gt, false, &mut rng);
    let lp = tape.log_softmax_rows(logits);
    let loss = if mask.is_empty() {
        0.0
    } else {
        let lpv = tape.value(lp);
        let total: f64 = mask.iter().map(|&i| -lpv.get(i, labels[i]) as f64).sum();
        total / mask.len() as f64
    };
    let logits = tape.value(logits).clone();
    EvalResult { accuracy: accuracy(&logits, labels, mask), loss, logits }
}

/// Result of a full [`fit`] run.
#[derive(Clone, Debug)]
pub struct FitReport {
    /// Best validation accuracy observed.
    pub best_val_acc: f64,
    /// Test accuracy at the best-validation checkpoint.
    pub test_acc: f64,
    /// Number of epochs actually run (early stopping may cut it short).
    pub epochs_run: usize,
}

/// Stateful trainer owning the optimiser and dropout RNG so that training
/// can be resumed across topology changes (GraphRARE's fine-tune steps).
pub struct Trainer {
    params: Vec<Param>,
    opt: Adam,
    rng: StdRng,
    grad_clip: f32,
}

impl Trainer {
    /// Creates a trainer for `model` with Adam per the config.
    pub fn new(model: &dyn GnnModel, cfg: &TrainConfig) -> Self {
        Self {
            params: model.params(),
            opt: Adam::new(cfg.lr, cfg.weight_decay),
            rng: StdRng::seed_from_u64(cfg.seed),
            grad_clip: cfg.grad_clip,
        }
    }

    /// Runs one full-batch training step; returns the training loss.
    pub fn train_epoch(
        &mut self,
        model: &dyn GnnModel,
        gt: &GraphTensors,
        labels: &[usize],
        train_mask: &[usize],
    ) -> f64 {
        assert!(!train_mask.is_empty(), "train_epoch: empty training mask");
        let _span = graphrare_telemetry::span("train.epoch");
        zero_grads(&self.params);
        let mut tape = Tape::new();
        let logits = model.forward(&mut tape, gt, true, &mut self.rng);
        let lp = tape.log_softmax_rows(logits);
        let loss = tape.nll_masked(lp, Rc::new(labels.to_vec()), Rc::new(train_mask.to_vec()));
        let loss_value = tape.value(loss).scalar_value() as f64;
        tape.backward(loss);
        clip_grad_norm(&self.params, self.grad_clip);
        self.opt.step(&self.params);
        graphrare_telemetry::counter("train.epochs", 1);
        graphrare_telemetry::emit_with(|| {
            graphrare_telemetry::Event::new("epoch").f64("train_loss", loss_value)
        });
        loss_value
    }

    /// Runs `n` training steps (the "train for a few more epochs" of
    /// Algorithm 1 line 12).
    pub fn train_epochs(
        &mut self,
        model: &dyn GnnModel,
        gt: &GraphTensors,
        labels: &[usize],
        train_mask: &[usize],
        n: usize,
    ) -> f64 {
        let mut last = 0.0;
        for _ in 0..n {
            last = self.train_epoch(model, gt, labels, train_mask);
        }
        last
    }

    /// Snapshot of the current parameter values.
    pub fn snapshot(&self) -> Vec<Matrix> {
        self.params.iter().map(Param::value).collect()
    }

    /// Restores a snapshot taken by [`Trainer::snapshot`].
    pub fn restore(&self, snap: &[Matrix]) {
        assert_eq!(snap.len(), self.params.len(), "restore: snapshot size mismatch");
        for (p, m) in self.params.iter().zip(snap) {
            p.set_value(m.clone());
        }
    }

    /// Exports the complete trainer state — parameter values, Adam moments
    /// and the dropout RNG stream — for checkpointing. Unlike
    /// [`Trainer::snapshot`] (parameters only, for best-checkpoint
    /// tracking), importing this state resumes the optimisation trajectory
    /// bit-for-bit.
    pub fn export_state(&self) -> TrainerState {
        TrainerState {
            params: self.snapshot(),
            adam: self.opt.export_state(&self.params),
            rng: self.rng.state(),
        }
    }

    /// Restores state captured by [`Trainer::export_state`] onto the same
    /// model architecture.
    ///
    /// # Panics
    /// Panics on parameter count/shape mismatch — checkpoints are
    /// validated by the store layer before they reach the trainer.
    pub fn import_state(&mut self, state: &TrainerState) {
        self.restore(&state.params);
        self.opt.import_state(&self.params, &state.adam);
        self.rng = StdRng::from_state(state.rng);
    }
}

/// Complete serialisable state of a [`Trainer`] (see
/// [`Trainer::export_state`]).
#[derive(Clone, Debug)]
pub struct TrainerState {
    /// Current parameter values, in `model.params()` order.
    pub params: Vec<Matrix>,
    /// Adam step counter and moment estimates.
    pub adam: AdamSnapshot,
    /// Dropout RNG stream state.
    pub rng: [u64; 4],
}

/// Trains `model` to convergence on one split with early stopping; test
/// accuracy is measured at the best-validation checkpoint.
pub fn fit(
    model: &dyn GnnModel,
    gt: &GraphTensors,
    labels: &[usize],
    split: &Split,
    cfg: &TrainConfig,
) -> FitReport {
    let mut trainer = Trainer::new(model, cfg);
    let mut best_val = f64::NEG_INFINITY;
    let mut best_snap = trainer.snapshot();
    let mut since_best = 0usize;
    let mut epochs_run = 0;
    for _ in 0..cfg.epochs {
        epochs_run += 1;
        trainer.train_epoch(model, gt, labels, &split.train);
        let val_eval = evaluate(model, gt, labels, &split.val);
        if val_eval.accuracy > best_val {
            best_val = val_eval.accuracy;
            best_snap = trainer.snapshot();
            since_best = 0;
        } else {
            since_best += 1;
            if since_best >= cfg.patience {
                graphrare_telemetry::emit_with(|| {
                    graphrare_telemetry::Event::new("early_stop")
                        .str("phase", "fit")
                        .u64("epochs_run", epochs_run as u64)
                        .f64("best_val_acc", best_val)
                });
                break;
            }
        }
    }
    trainer.restore(&best_snap);
    let test_eval = evaluate(model, gt, labels, &split.test);
    FitReport { best_val_acc: best_val.max(0.0), test_acc: test_eval.accuracy, epochs_run }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Backbone;
    use crate::models::{build_model, ModelConfig};
    use graphrare_datasets::{generate_spec, stratified_split, DatasetSpec};

    fn easy_dataset() -> (GraphTensors, Vec<usize>, Split) {
        // Small homophilic graph with informative features: easily learnable.
        let spec = DatasetSpec {
            name: "easy",
            num_nodes: 60,
            num_edges: 150,
            feat_dim: 16,
            num_classes: 3,
            homophily: 0.85,
            degree_exponent: 0.2,
            feature_signal: 0.9,
            feature_density: 0.05,
        };
        let g = generate_spec(&spec, 4);
        let split = stratified_split(g.labels(), g.num_classes(), 1);
        let labels = g.labels().to_vec();
        (GraphTensors::new(&g), labels, split)
    }

    #[test]
    fn loss_decreases_during_training() {
        let (gt, labels, split) = easy_dataset();
        let model = build_model(Backbone::Gcn, 16, 3, &ModelConfig::default());
        let mut trainer = Trainer::new(model.as_ref(), &TrainConfig::default());
        let first = trainer.train_epoch(model.as_ref(), &gt, &labels, &split.train);
        let last = trainer.train_epochs(model.as_ref(), &gt, &labels, &split.train, 30);
        assert!(last < first, "loss went {first} -> {last}");
    }

    #[test]
    fn fit_learns_easy_homophilic_graph() {
        let (gt, labels, split) = easy_dataset();
        let model = build_model(Backbone::Gcn, 16, 3, &ModelConfig::default());
        let cfg = TrainConfig { epochs: 80, ..Default::default() };
        let report = fit(model.as_ref(), &gt, &labels, &split, &cfg);
        assert!(report.test_acc > 0.6, "test accuracy {}", report.test_acc);
    }

    #[test]
    fn early_stopping_cuts_run_short() {
        let (gt, labels, split) = easy_dataset();
        let model = build_model(Backbone::Mlp, 16, 3, &ModelConfig::default());
        let cfg = TrainConfig { epochs: 500, patience: 5, ..Default::default() };
        let report = fit(model.as_ref(), &gt, &labels, &split, &cfg);
        assert!(report.epochs_run < 500, "ran all {} epochs", report.epochs_run);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let (gt, labels, split) = easy_dataset();
        let model = build_model(Backbone::Gcn, 16, 3, &ModelConfig::default());
        let mut trainer = Trainer::new(model.as_ref(), &TrainConfig::default());
        let snap = trainer.snapshot();
        let before = evaluate(model.as_ref(), &gt, &labels, &split.val).loss;
        trainer.train_epochs(model.as_ref(), &gt, &labels, &split.train, 5);
        let after = evaluate(model.as_ref(), &gt, &labels, &split.val).loss;
        assert_ne!(before, after);
        trainer.restore(&snap);
        let restored = evaluate(model.as_ref(), &gt, &labels, &split.val).loss;
        assert!((restored - before).abs() < 1e-9);
    }

    #[test]
    fn export_import_state_resumes_training_bitwise() {
        let (gt, labels, split) = easy_dataset();
        let cfg = TrainConfig::default();
        let model_a = build_model(Backbone::Gcn, 16, 3, &ModelConfig::default());
        let mut a = Trainer::new(model_a.as_ref(), &cfg);
        a.train_epochs(model_a.as_ref(), &gt, &labels, &split.train, 7);
        let state = a.export_state();

        // A model built fresh from the same config, state imported.
        let model_b = build_model(Backbone::Gcn, 16, 3, &ModelConfig::default());
        let mut b = Trainer::new(model_b.as_ref(), &cfg);
        b.import_state(&state);

        for _ in 0..5 {
            let la = a.train_epoch(model_a.as_ref(), &gt, &labels, &split.train);
            let lb = b.train_epoch(model_b.as_ref(), &gt, &labels, &split.train);
            assert_eq!(la, lb, "resumed trainer diverged");
        }
        for (pa, pb) in a.export_state().params.iter().zip(&b.export_state().params) {
            assert_eq!(pa.as_slice(), pb.as_slice());
        }
    }

    #[test]
    fn evaluate_is_side_effect_free() {
        let (gt, labels, split) = easy_dataset();
        let model = build_model(Backbone::Gcn, 16, 3, &ModelConfig::default());
        let a = evaluate(model.as_ref(), &gt, &labels, &split.test);
        let b = evaluate(model.as_ref(), &gt, &labels, &split.test);
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.loss, b.loss);
    }
}
