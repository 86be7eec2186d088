//! Edge-case integration tests of the tensor substrate: degenerate
//! shapes, extreme values, and autograd corner cases that the unit tests'
//! happy paths don't reach.

use std::sync::Arc;

use graphrare_tensor::matrix::softmax_slice;
use graphrare_tensor::optim::Adam;
use graphrare_tensor::param::zero_grads;
use graphrare_tensor::{CsrMatrix, Matrix, Param, Tape};

#[test]
fn one_by_one_matrices_behave_like_scalars() {
    let a = Matrix::scalar(3.0);
    let b = Matrix::scalar(-2.0);
    assert_eq!(a.matmul(&b).scalar_value(), -6.0);
    assert_eq!(a.add(&b).scalar_value(), 1.0);
    assert_eq!(a.transpose(), a);
}

#[test]
fn empty_matrix_operations() {
    let m = Matrix::zeros(0, 5);
    assert_eq!(m.len(), 0);
    assert!(m.is_empty());
    assert_eq!(m.sum(), 0.0);
    assert_eq!(m.mean(), 0.0);
    assert_eq!(m.transpose().shape(), (5, 0));
    assert!(m.row_argmax().is_empty());
}

#[test]
fn single_column_softmax_is_one() {
    for v in [5.0f32, -2.0, 0.0] {
        let mut row = [v];
        softmax_slice(&mut row);
        assert_eq!(row[0], 1.0);
    }
}

#[test]
fn extreme_logits_stay_finite() {
    let mut s = [1e4f32, -1e4, 0.0];
    softmax_slice(&mut s);
    assert!(s.iter().all(|v| v.is_finite()));
    assert!((s[0] - 1.0).abs() < 1e-6);
    let ls = Matrix::from_vec(1, 3, vec![1e4, -1e4, 0.0]).log_softmax_rows();
    assert!(ls.all_finite());
}

#[test]
fn csr_empty_matrix() {
    let m = CsrMatrix::from_triplets(3, 3, &[]);
    assert_eq!(m.nnz(), 0);
    let x = Matrix::ones(3, 2);
    let y = m.spmm(&x);
    assert!(y.as_slice().iter().all(|&v| v == 0.0));
    assert!(m.is_symmetric(0.0));
}

#[test]
fn csr_zero_sized_dimensions() {
    let m = CsrMatrix::from_triplets(0, 0, &[]);
    assert_eq!(m.rows(), 0);
    let y = m.spmm(&Matrix::zeros(0, 4));
    assert_eq!(y.shape(), (0, 4));
}

#[test]
fn backward_twice_on_fresh_tapes_matches() {
    // Grad accumulation across tapes happens at the Param, not the tape.
    let p = Param::new("w", Matrix::ones(1, 2));
    for _ in 0..2 {
        let mut t = Tape::new();
        let v = t.param(&p);
        let s = t.sum_all(v);
        t.backward(s);
    }
    // Two backward passes accumulate 1 + 1 per element.
    assert_eq!(p.grad().as_slice(), &[2.0, 2.0]);
    p.zero_grad();
    assert_eq!(p.grad().as_slice(), &[0.0, 0.0]);
}

#[test]
fn unused_parameter_gets_no_gradient() {
    let used = Param::new("used", Matrix::ones(1, 1));
    let unused = Param::new("unused", Matrix::ones(1, 1));
    let mut t = Tape::new();
    let v = t.param(&used);
    let _orphan = t.param(&unused);
    let s = t.sum_all(v);
    t.backward(s);
    assert_eq!(used.grad().scalar_value(), 1.0);
    assert_eq!(unused.grad().scalar_value(), 0.0);
}

#[test]
fn diamond_dependency_accumulates_both_paths() {
    // y = relu(x) + tanh(x): both branches contribute to dx.
    let mut t = Tape::new();
    let x = t.leaf(Matrix::scalar(0.5));
    let a = t.relu(x);
    let b = t.tanh(x);
    let y = t.add(a, b);
    let s = t.sum_all(y);
    t.backward(s);
    let want = 1.0 + (1.0 - 0.5f32.tanh().powi(2));
    assert!((t.grad(x).unwrap().scalar_value() - want).abs() < 1e-5);
}

#[test]
fn deep_chain_gradient_is_product() {
    // 30 nested scale(0.9) ops: gradient = 0.9^30.
    let mut t = Tape::new();
    let x = t.leaf(Matrix::scalar(1.0));
    let mut v = x;
    for _ in 0..30 {
        v = t.scale(v, 0.9);
    }
    let s = t.sum_all(v);
    t.backward(s);
    let want = 0.9f32.powi(30);
    assert!((t.grad(x).unwrap().scalar_value() - want).abs() < 1e-6);
}

#[test]
fn spmm_through_two_tapes_is_consistent() {
    // The same CSR operator shared by Arc across tapes gives identical
    // results (no hidden state).
    let m = Arc::new(CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]));
    let x = Matrix::from_vec(2, 1, vec![3.0, 4.0]);
    let run = || {
        let mut t = Tape::new();
        let v = t.constant(x.clone());
        let y = t.spmm(m.clone(), v);
        t.value(y).clone()
    };
    assert_eq!(run(), run());
    assert_eq!(run().as_slice(), &[4.0, 3.0]);
}

#[test]
fn adam_handles_zero_gradients() {
    let p = Param::new("w", Matrix::ones(1, 2));
    let mut opt = Adam::new(0.1, 0.0);
    zero_grads(std::slice::from_ref(&p));
    opt.step(std::slice::from_ref(&p));
    // Zero gradient, zero decay: value unchanged.
    assert_eq!(p.value().as_slice(), &[1.0, 1.0]);
}

#[test]
fn dropout_p_zero_is_identity() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(0);
    let mut t = Tape::new();
    let x = t.constant(Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32));
    let y = t.dropout(x, 0.0, &mut rng);
    assert_eq!(t.value(y), t.value(x));
}

#[test]
#[should_panic(expected = "loss must be a 1x1 scalar")]
fn backward_rejects_non_scalar_loss() {
    let mut t = Tape::new();
    let x = t.leaf(Matrix::ones(2, 2));
    t.backward(x);
}

#[test]
#[should_panic(expected = "dimension mismatch")]
fn matmul_shape_mismatch_panics() {
    let a = Matrix::ones(2, 3);
    let b = Matrix::ones(2, 3);
    let _ = a.matmul(&b);
}
