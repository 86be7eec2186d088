//! Property-based tests of the tensor substrate: algebraic identities
//! that must hold for arbitrary inputs.

use proptest::prelude::*;

use graphrare_tensor::matrix::softmax_slice;
use graphrare_tensor::{CsrMatrix, Matrix, Tape};

fn arb_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

fn arb_square(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim).prop_flat_map(|n| {
        proptest::collection::vec(-5.0f32..5.0, n * n)
            .prop_map(move |data| Matrix::from_vec(n, n, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involution(m in arb_matrix(8)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_identity_left_right(m in arb_square(8)) {
        let id = Matrix::identity(m.rows());
        prop_assert!(m.matmul(&id).max_abs_diff(&m) < 1e-5);
        prop_assert!(id.matmul(&m).max_abs_diff(&m) < 1e-5);
    }

    #[test]
    fn matmul_transpose_fusions_agree(a in arb_matrix(6), b in arb_matrix(6)) {
        // a^T b defined when rows match.
        if a.rows() == b.rows() {
            let fused = a.matmul_tn(&b);
            let explicit = a.transpose().matmul(&b);
            prop_assert!(fused.max_abs_diff(&explicit) < 1e-4);
        }
        if a.cols() == b.cols() {
            let fused = a.matmul_nt(&b);
            let explicit = a.matmul(&b.transpose());
            prop_assert!(fused.max_abs_diff(&explicit) < 1e-4);
        }
    }

    #[test]
    fn softmax_slice_shift_invariant(
        row in proptest::collection::vec(-10.0f32..10.0, 1..7),
        shift in -50.0f32..50.0,
    ) {
        let mut a = row.clone();
        let mut b: Vec<f32> = row.iter().map(|v| v + shift).collect();
        softmax_slice(&mut a);
        softmax_slice(&mut b);
        for (&p, &q) in a.iter().zip(&b) {
            prop_assert!((p - q).abs() < 1e-4);
        }
        let sum: f32 = a.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(a.iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
    }

    #[test]
    fn csr_roundtrip_preserves_values(
        entries in proptest::collection::vec((0usize..6, 0usize..6, -5.0f32..5.0), 0..20)
    ) {
        // Deduplicate coordinates so expectations are unambiguous.
        let mut seen = std::collections::HashSet::new();
        let unique: Vec<(usize, usize, f32)> = entries
            .into_iter()
            .filter(|&(r, c, _)| seen.insert((r, c)))
            .filter(|&(_, _, v)| v != 0.0)
            .collect();
        let m = CsrMatrix::from_triplets(6, 6, &unique);
        for &(r, c, v) in &unique {
            prop_assert_eq!(m.get(r, c), Some(v));
        }
        prop_assert_eq!(m.nnz(), unique.len());
        // Dense roundtrip.
        let dense = m.to_dense();
        for &(r, c, v) in &unique {
            prop_assert_eq!(dense.get(r, c), v);
        }
    }

    #[test]
    fn spmm_linear_in_dense_argument(
        entries in proptest::collection::vec((0usize..5, 0usize..5, -3.0f32..3.0), 1..12),
        x in arb_matrix(5),
        alpha in -3.0f32..3.0,
    ) {
        if x.rows() == 5 {
            let m = CsrMatrix::from_triplets(5, 5, &entries);
            let lhs = m.spmm(&x.scale(alpha));
            let rhs = m.spmm(&x).scale(alpha);
            prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3);
        }
    }

    #[test]
    fn backward_of_sum_gives_ones(m in arb_matrix(6)) {
        let mut tape = Tape::new();
        let x = tape.leaf(m.clone());
        let s = tape.sum_all(x);
        tape.backward(s);
        let g = tape.grad(x).unwrap();
        prop_assert!(g.as_slice().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn chain_rule_scale_compose(m in arb_matrix(5), a in -4.0f32..4.0, b in -4.0f32..4.0) {
        // d/dx sum(a * (b * x)) = a * b everywhere.
        let mut tape = Tape::new();
        let x = tape.leaf(m);
        let y = tape.scale(x, b);
        let z = tape.scale(y, a);
        let s = tape.sum_all(z);
        tape.backward(s);
        let g = tape.grad(x).unwrap();
        prop_assert!(g.as_slice().iter().all(|&v| (v - a * b).abs() < 1e-4));
    }

    #[test]
    fn log_softmax_rows_are_log_probabilities(m in arb_matrix(6)) {
        let ls = m.log_softmax_rows();
        for r in 0..ls.rows() {
            let sum: f32 = ls.row(r).iter().map(|&v| v.exp()).sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row {r}: {sum}");
            prop_assert!(ls.row(r).iter().all(|&v| v <= 1e-6));
        }
    }
}
