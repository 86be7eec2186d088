//! The Adam optimiser.
//!
//! The paper trains all GNNs with Adam (Section V-C) and the PPO module with
//! Adam via Stable-Baselines3.

use crate::matrix::Matrix;
use crate::param::Param;

/// Exponential decay rate of the first-moment estimate.
const BETA1: f32 = 0.9;
/// Exponential decay rate of the second-moment estimate.
const BETA2: f32 = 0.999;
/// Denominator guard.
const EPS: f32 = 1e-8;

/// Serializable snapshot of an [`Adam`] optimiser's internal state.
///
/// Captures the global step counter `t` (which drives bias correction)
/// and the first/second moment estimates per parameter, in the order of
/// the `params` slice the snapshot was exported against.
#[derive(Clone, Debug, PartialEq)]
pub struct AdamSnapshot {
    /// Global step count (bias-correction exponent).
    pub t: u64,
    /// Per-parameter `(m, v)` moment pairs, in `params`-slice order.
    pub moments: Vec<(Matrix, Matrix)>,
}

/// Adam (Kingma & Ba, 2015) with bias correction and L2 weight decay applied
/// to the gradient (PyTorch `Adam(weight_decay=...)` semantics, which is
/// what the paper's hyper-parameter table refers to).
///
/// The optimiser keeps no handle on the parameters it trains: every call
/// takes the owner's parameter slice, and the moments line up with it by
/// position. Each owner passes the same slice, in the same order, every
/// time.
pub struct Adam {
    lr: f32,
    weight_decay: f32,
    t: u64,
    /// `(m, v)` of the `i`-th parameter; empty until the first step.
    moments: Vec<(Matrix, Matrix)>,
}

impl Adam {
    /// Creates Adam with the standard betas `(0.9, 0.999)`.
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        Self { lr, weight_decay, t: 0, moments: Vec::new() }
    }

    /// Exports the step counter and moment estimates for `params` (in
    /// slice order); before the first step they export as zero moments.
    pub fn export_state(&self, params: &[Param]) -> AdamSnapshot {
        let moments =
            if self.moments.is_empty() { zero_moments(params) } else { self.moments.clone() };
        AdamSnapshot { t: self.t, moments }
    }

    /// Restores state exported by [`Adam::export_state`] against the same
    /// parameter list (matched by order). A subsequent [`Adam::step`]
    /// continues the original optimisation trajectory bit-for-bit.
    ///
    /// # Panics
    /// Panics on length or shape mismatch — state files are validated by
    /// the store layer before they reach an optimiser.
    pub fn import_state(&mut self, params: &[Param], snap: &AdamSnapshot) {
        check_alignment(params, &snap.moments, "adam import");
        self.t = snap.t;
        self.moments = snap.moments.clone();
    }

    /// Applies one update step using the currently accumulated gradients,
    /// then leaves gradients untouched (call
    /// [`zero_grads`](crate::param::zero_grads) before the next pass).
    ///
    /// # Panics
    /// Panics if `params` does not line up with the slice of earlier
    /// steps: a different length, or a parameter whose shape differs from
    /// its moments.
    pub fn step(&mut self, params: &[Param]) {
        if self.moments.is_empty() {
            self.moments = zero_moments(params);
        }
        check_alignment(params, &self.moments, "adam step");
        self.t += 1;
        let bc1 = 1.0 - BETA1.powi(self.t as i32);
        let bc2 = 1.0 - BETA2.powi(self.t as i32);
        let (lr, weight_decay) = (self.lr, self.weight_decay);
        for (p, (m, v)) in params.iter().zip(&mut self.moments) {
            p.update(|value, g| {
                for (((w, m), v), &gr) in value
                    .as_mut_slice()
                    .iter_mut()
                    .zip(m.as_mut_slice())
                    .zip(v.as_mut_slice())
                    .zip(g.as_slice())
                {
                    let gr = gr + weight_decay * *w;
                    *m = BETA1 * *m + (1.0 - BETA1) * gr;
                    *v = BETA2 * *v + (1.0 - BETA2) * gr * gr;
                    let m_hat = *m / bc1;
                    let v_hat = *v / bc2;
                    *w -= lr * m_hat / (v_hat.sqrt() + EPS);
                }
            });
        }
    }
}

fn zero_moments(params: &[Param]) -> Vec<(Matrix, Matrix)> {
    params
        .iter()
        .map(|p| {
            let (r, c) = p.shape();
            (Matrix::zeros(r, c), Matrix::zeros(r, c))
        })
        .collect()
}

/// Asserts that `moments` lines up with `params`: a zip over a shorter
/// slice would silently leave parameters untrained.
fn check_alignment(params: &[Param], moments: &[(Matrix, Matrix)], what: &str) {
    assert_eq!(params.len(), moments.len(), "{what}: parameter count mismatch");
    for (p, (m, v)) in params.iter().zip(moments) {
        assert_eq!(p.shape(), m.shape(), "{what}: m shape mismatch for {}", p.name());
        assert_eq!(p.shape(), v.shape(), "{what}: v shape mismatch for {}", p.name());
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use super::*;
    use crate::param::zero_grads;
    use crate::tape::Tape;

    /// One full autograd step of `f(w) = (w - 3)^2` for a given parameter.
    fn one_step(opt: &mut Adam, w: &Param) {
        zero_grads(std::slice::from_ref(w));
        let mut t = Tape::new();
        let vw = t.param(w);
        let shifted = t.add_const(vw, Rc::new(Matrix::scalar(-3.0)));
        let loss = t.square(shifted);
        let loss = t.sum_all(loss);
        t.backward(loss);
        opt.step(std::slice::from_ref(w));
    }

    /// Minimise f(w) = (w - 3)^2 from w = 0.
    fn quadratic_descent(opt: &mut Adam, steps: usize) -> f32 {
        let w = Param::new("w", Matrix::scalar(0.0));
        for _ in 0..steps {
            one_step(opt, &w);
        }
        w.value().scalar_value()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1, 0.0);
        let w = quadratic_descent(&mut opt, 300);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn weight_decay_shrinks_solution() {
        // With decay the fixed point of (w-3)^2 + (wd/2)w^2 is below 3.
        let mut opt = Adam::new(0.05, 0.5);
        let w = quadratic_descent(&mut opt, 500);
        assert!(w < 2.9 && w > 1.0, "w = {w}");
    }

    #[test]
    fn adam_export_import_resumes_trajectory_bitwise() {
        let w1 = Param::new("w", Matrix::scalar(0.0));
        let mut opt1 = Adam::new(0.1, 0.01);
        for _ in 0..7 {
            one_step(&mut opt1, &w1);
        }
        let snap = opt1.export_state(std::slice::from_ref(&w1));
        let value_at_snap = w1.value();

        // Fresh optimiser + parameter restored from the snapshot.
        let w2 = Param::new("w", value_at_snap);
        let mut opt2 = Adam::new(0.1, 0.01);
        opt2.import_state(std::slice::from_ref(&w2), &snap);

        for _ in 0..20 {
            one_step(&mut opt1, &w1);
            one_step(&mut opt2, &w2);
        }
        assert_eq!(
            w1.value().as_slice(),
            w2.value().as_slice(),
            "resumed Adam diverged from the uninterrupted trajectory"
        );
    }

    #[test]
    fn adam_export_of_unstepped_params_is_zero() {
        let w = Param::new("w", Matrix::zeros(2, 3));
        let opt = Adam::new(0.1, 0.0);
        let snap = opt.export_state(std::slice::from_ref(&w));
        assert_eq!(snap.t, 0);
        assert_eq!(snap.moments.len(), 1);
        assert_eq!(snap.moments[0].0.as_slice(), &[0.0; 6]);
        assert_eq!(snap.moments[0].1.as_slice(), &[0.0; 6]);
    }

    #[test]
    #[should_panic(expected = "adam step: parameter count mismatch")]
    fn step_rejects_a_shorter_slice() {
        let (a, b) = (Param::new("a", Matrix::zeros(1, 2)), Param::new("b", Matrix::zeros(2, 1)));
        let mut opt = Adam::new(0.1, 0.0);
        opt.step(&[a.clone(), b]);
        opt.step(&[a]);
    }

    #[test]
    #[should_panic(expected = "adam step: m shape mismatch for b")]
    fn step_rejects_a_reordered_slice() {
        let (a, b) = (Param::new("a", Matrix::zeros(1, 2)), Param::new("b", Matrix::zeros(2, 1)));
        let mut opt = Adam::new(0.1, 0.0);
        opt.step(&[a.clone(), b.clone()]);
        opt.step(&[b, a]);
    }
}
