//! Trainable parameters shared between tapes and optimisers.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::matrix::Matrix;

struct ParamInner {
    name: String,
    value: Matrix,
    grad: Matrix,
}

/// A named, trainable matrix with an accumulated gradient.
///
/// `Param` is a cheap `Rc` handle: cloning it shares storage. A forward pass
/// binds the parameter onto a [`Tape`](crate::tape::Tape) with
/// [`Tape::param`](crate::tape::Tape::param); `Tape::backward` then
/// accumulates the parameter's gradient here, where
/// [`Adam::step`](crate::optim::Adam::step) consumes it.
#[derive(Clone)]
pub struct Param {
    inner: Rc<RefCell<ParamInner>>,
}

impl Param {
    /// Creates a parameter from an initial value.
    pub fn new(name: impl Into<String>, value: Matrix) -> Self {
        let grad = Matrix::zeros(value.rows(), value.cols());
        Self { inner: Rc::new(RefCell::new(ParamInner { name: name.into(), value, grad })) }
    }

    /// The parameter's name (used in diagnostics).
    pub fn name(&self) -> String {
        self.inner.borrow().name.clone()
    }

    /// Current value (cloned out of the shared cell).
    pub fn value(&self) -> Matrix {
        self.inner.borrow().value.clone()
    }

    /// Shape of the parameter.
    pub fn shape(&self) -> (usize, usize) {
        self.inner.borrow().value.shape()
    }

    /// Number of scalar weights.
    pub fn len(&self) -> usize {
        self.inner.borrow().value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current accumulated gradient (cloned).
    pub fn grad(&self) -> Matrix {
        self.inner.borrow().grad.clone()
    }

    /// Overwrites the value.
    pub fn set_value(&self, value: Matrix) {
        let mut inner = self.inner.borrow_mut();
        assert_eq!(inner.value.shape(), value.shape(), "set_value: shape mismatch");
        inner.value = value;
    }

    /// Adds `g` into the accumulated gradient.
    pub fn accumulate_grad(&self, g: &Matrix) {
        self.inner.borrow_mut().grad.add_assign(g);
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        self.inner.borrow_mut().grad.fill_zero();
    }

    /// Applies `f(value, grad)` to update the value in place.
    pub fn update(&self, f: impl FnOnce(&mut Matrix, &Matrix)) {
        let mut inner = self.inner.borrow_mut();
        let ParamInner { value, grad, .. } = &mut *inner;
        f(value, grad);
    }
}

impl fmt::Debug for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        write!(f, "Param({}, {}x{})", inner.name, inner.value.rows(), inner.value.cols())
    }
}

/// Zeroes gradients of all parameters in a slice.
pub fn zero_grads(params: &[Param]) {
    for p in params {
        p.zero_grad();
    }
}

/// Global gradient-norm clipping: rescales all gradients so that their joint
/// L2 norm does not exceed `max_norm`. Returns the pre-clip norm.
pub fn clip_grad_norm(params: &[Param], max_norm: f32) -> f32 {
    let mut total = 0.0f32;
    for p in params {
        total += p.inner.borrow().grad.as_slice().iter().map(|v| v * v).sum::<f32>();
    }
    let norm = total.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params {
            p.inner.borrow_mut().grad.map_inplace(|v| v * scale);
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grads_accumulate_and_zero() {
        let p = Param::new("w", Matrix::zeros(2, 2));
        p.accumulate_grad(&Matrix::ones(2, 2));
        p.accumulate_grad(&Matrix::ones(2, 2));
        assert_eq!(p.grad().as_slice(), &[2.0; 4]);
        p.zero_grad();
        assert_eq!(p.grad().as_slice(), &[0.0; 4]);
    }

    #[test]
    fn clones_share_storage() {
        let p = Param::new("w", Matrix::zeros(1, 1));
        let q = p.clone();
        q.accumulate_grad(&Matrix::scalar(5.0));
        assert_eq!(p.grad().scalar_value(), 5.0);
    }

    #[test]
    fn clip_grad_norm_rescales() {
        let p = Param::new("w", Matrix::zeros(1, 2));
        p.accumulate_grad(&Matrix::row_vector(&[3.0, 4.0]));
        let norm = clip_grad_norm(std::slice::from_ref(&p), 1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        let g = p.grad();
        let new_norm = (g.as_slice()[0].powi(2) + g.as_slice()[1].powi(2)).sqrt();
        assert!((new_norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_grad_norm_noop_below_threshold() {
        let p = Param::new("w", Matrix::zeros(1, 2));
        p.accumulate_grad(&Matrix::row_vector(&[0.3, 0.4]));
        clip_grad_norm(std::slice::from_ref(&p), 1.0);
        assert_eq!(p.grad().as_slice(), &[0.3, 0.4]);
    }
}
