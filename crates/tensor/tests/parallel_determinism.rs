//! Bit-identity of the parallel kernels against serial execution.
//!
//! The contract of `graphrare_tensor::parallel` is that every wired
//! kernel produces *bitwise* identical output for any thread count:
//! partitioning is over output rows and the per-element accumulation
//! order never changes. These tests pin that contract with exact
//! (`==`) comparisons — no tolerances.

use graphrare_tensor::parallel::{self, with_threads};
use graphrare_tensor::{CsrMatrix, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic dense matrix with irregular values (non-commutative
/// rounding exposure: sums of these differ under reassociation).
fn dense(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0f32..1.0) * 1.7)
}

/// Deterministic sparse matrix with ~`density` fill.
fn sparse(rows: usize, cols: usize, density: f64, seed: u64) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut triplets = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if rng.gen_bool(density) {
                triplets.push((r, c, rng.gen_range(-1.0f32..1.0)));
            }
        }
    }
    CsrMatrix::from_triplets(rows, cols, &triplets)
}

const THREAD_COUNTS: [usize; 4] = [2, 3, 4, 7];

#[test]
fn matmul_bit_identical_across_thread_counts() {
    let a = dense(37, 23, 1);
    let b = dense(23, 19, 2);
    let serial = with_threads(1, || a.matmul(&b));
    for t in THREAD_COUNTS {
        let par = with_threads(t, || a.matmul(&b));
        assert_eq!(serial, par, "matmul diverged at {t} threads");
    }
}

#[test]
fn matmul_tn_bit_identical_across_thread_counts() {
    let a = dense(29, 31, 3);
    let b = dense(29, 17, 4);
    let serial = with_threads(1, || a.matmul_tn(&b));
    for t in THREAD_COUNTS {
        let par = with_threads(t, || a.matmul_tn(&b));
        assert_eq!(serial, par, "matmul_tn diverged at {t} threads");
    }
}

#[test]
fn matmul_nt_bit_identical_across_thread_counts() {
    let a = dense(21, 27, 5);
    let b = dense(33, 27, 6);
    let serial = with_threads(1, || a.matmul_nt(&b));
    for t in THREAD_COUNTS {
        let par = with_threads(t, || a.matmul_nt(&b));
        assert_eq!(serial, par, "matmul_nt diverged at {t} threads");
    }
}

#[test]
fn spmm_bit_identical_across_thread_counts() {
    let s = sparse(41, 35, 0.15, 7);
    let x = dense(35, 13, 8);
    let serial = with_threads(1, || s.spmm(&x));
    for t in THREAD_COUNTS {
        let par = with_threads(t, || s.spmm(&x));
        assert_eq!(serial, par, "spmm diverged at {t} threads");
    }
}

#[test]
fn spmm_t_bit_identical_across_thread_counts() {
    let s = sparse(41, 35, 0.15, 9);
    let x = dense(41, 11, 10);
    let serial = with_threads(1, || s.spmm_t(&x));
    for t in THREAD_COUNTS {
        let par = with_threads(t, || s.spmm_t(&x));
        assert_eq!(serial, par, "spmm_t diverged at {t} threads");
    }
}

#[test]
fn par_fold_min_max_matches_serial() {
    let values: Vec<f64> = {
        let mut rng = StdRng::seed_from_u64(13);
        (0..997).map(|_| rng.gen_range(-1e6f64..1e6)).collect()
    };
    let serial = with_threads(1, || fold_min_max(&values));
    for t in THREAD_COUNTS {
        let par = with_threads(t, || fold_min_max(&values));
        assert_eq!(serial, par, "par_fold diverged at {t} threads");
    }
}

fn fold_min_max(values: &[f64]) -> (f64, f64) {
    parallel::par_fold(
        values.len(),
        || (f64::INFINITY, f64::NEG_INFINITY),
        |(lo, hi), i| (lo.min(values[i]), hi.max(values[i])),
        |(l1, h1), (l2, h2)| (l1.min(l2), h1.max(h2)),
    )
}

#[test]
fn thread_count_exceeding_rows_is_safe() {
    let a = dense(3, 4, 14);
    let b = dense(4, 2, 15);
    let serial = with_threads(1, || a.matmul(&b));
    let over = with_threads(64, || a.matmul(&b));
    assert_eq!(serial, over);
}
