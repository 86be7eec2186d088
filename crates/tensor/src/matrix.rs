//! Dense row-major `f32` matrices.
//!
//! [`Matrix`] is the single dense container used throughout the workspace:
//! node-feature tables, GNN weights, logits, policy parameters and entropy
//! tables are all `Matrix` values. It is deliberately small — shape plus a
//! `Vec<f32>` — and all hot operations iterate row-major so the inner loops
//! stay contiguous.

use std::fmt;

use crate::parallel;

/// Independent accumulator chains per pass of [`Matrix::matmul_nt`].
const NT_CHAINS: usize = 8;

/// A dense row-major matrix of `f32` values.
///
/// Row `r` occupies `data[r * cols .. (r + 1) * cols]`. Vectors are
/// represented as `n x 1` (column) or `1 x n` (row) matrices; scalars as
/// `1 x 1`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 1.0)
    }

    /// Creates a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Builds a `1 x 1` matrix holding a single scalar.
    pub fn scalar(value: f32) -> Self {
        Self { rows: 1, cols: 1, data: vec![value] }
    }

    /// Builds an `n x 1` column vector from a slice.
    pub fn column(values: &[f32]) -> Self {
        Self { rows: values.len(), cols: 1, data: values.to_vec() }
    }

    /// Builds a `1 x n` row vector from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Self { rows: 1, cols: values.len(), data: values.to_vec() }
    }

    /// The identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow of the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Adds `v` to element `(r, c)`.
    #[inline]
    pub fn add_at(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] += v;
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        let cols = self.cols;
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Iterator over row slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// The single value of a `1 x 1` matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not `1 x 1`.
    pub fn scalar_value(&self) -> f32 {
        assert_eq!(
            self.shape(),
            (1, 1),
            "scalar_value called on a {}x{} matrix",
            self.rows,
            self.cols
        );
        self.data[0]
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            let row = self.row(r);
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
        out
    }

    /// Dense matrix product `self * rhs`.
    ///
    /// Uses the cache-friendly `i-k-j` loop order: the inner loop walks both
    /// the output row and the `rhs` row contiguously. Output rows are
    /// partitioned over threads (see [`crate::parallel`]); every row is
    /// computed by exactly one thread with the serial per-row loop, so the
    /// result is bit-identical to single-threaded execution.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: {}x{} * {}x{} dimension mismatch",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let _kernel = kernel_telemetry!("matmul", self.rows);
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let b_cols = rhs.cols;
        parallel::par_for_each_row(&mut out.data, b_cols, |i, out_row| {
            let a_row = self.row(i);
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &rhs.data[k * b_cols..(k + 1) * b_cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        });
        out
    }

    /// `self^T * rhs` without materialising the transpose.
    ///
    /// Parallelised over chunks of output rows: each thread accumulates
    /// contributions for its own column range of `self`, walking the input
    /// rows in the same ascending order as the serial loop, so per-element
    /// accumulation order — and therefore the result — is bit-identical.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn: {}x{} ^T * {}x{} dimension mismatch",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let _kernel = kernel_telemetry!("matmul_tn", self.cols);
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        let (a_cols, b_cols) = (self.cols, rhs.cols);
        parallel::par_for_each_chunk(&mut out.data, b_cols, |range, chunk| {
            for r in 0..self.rows {
                let a_row = &self.data[r * a_cols..(r + 1) * a_cols];
                let b_row = &rhs.data[r * b_cols..(r + 1) * b_cols];
                for i in range.clone() {
                    let a = a_row[i];
                    if a == 0.0 {
                        continue;
                    }
                    let off = (i - range.start) * b_cols;
                    let out_row = &mut chunk[off..off + b_cols];
                    for (o, &b) in out_row.iter_mut().zip(b_row) {
                        *o += a * b;
                    }
                }
            }
        });
        out
    }

    /// `self * rhs^T` without materialising the transpose.
    ///
    /// Each output is one dot product summed in ascending `k` from `+0.0`.
    /// A pass walks one row of `self` against eight rows of `rhs` and
    /// keeps one accumulator per output, so the eight chains hide each
    /// other's add latency without reordering any sum; the last
    /// `rhs.rows % 8` outputs run one chain at a time.
    /// Parallelised over output rows, each computed whole on one thread,
    /// so the result is bit-identical to serial execution.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt: {}x{} * {}x{} ^T dimension mismatch",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let _kernel = kernel_telemetry!("matmul_nt", self.rows);
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        let k = self.cols;
        parallel::par_for_each_row(&mut out.data, rhs.rows, |i, out_row| {
            let a_row = &self.row(i)[..k];
            let blocked = out_row.len() - out_row.len() % NT_CHAINS;
            let (blocks, rest) = out_row.split_at_mut(blocked);
            for (jb, block) in blocks.chunks_exact_mut(NT_CHAINS).enumerate() {
                let b: [&[f32]; NT_CHAINS] =
                    std::array::from_fn(|c| &rhs.row(jb * NT_CHAINS + c)[..k]);
                let mut acc = [0.0f32; NT_CHAINS];
                for (t, &a) in a_row.iter().enumerate() {
                    for (acc, b) in acc.iter_mut().zip(&b) {
                        *acc += a * b[t];
                    }
                }
                block.copy_from_slice(&acc);
            }
            for (j, o) in rest.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (&a, &b) in a_row.iter().zip(rhs.row(blocked + j)) {
                    acc += a * b;
                }
                *o = acc;
            }
        });
        out
    }

    /// Element-wise sum into a new matrix.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a + b)
    }

    /// Element-wise (Hadamard) product into a new matrix.
    pub fn mul_elem(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a * b)
    }

    /// Element-wise combination of two same-shaped matrices.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip(&self, rhs: &Matrix, mut f: impl FnMut(f32, f32) -> f32) -> Matrix {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "zip: shape mismatch {:?} vs {:?}",
            self.shape(),
            rhs.shape()
        );
        let data = self.data.iter().zip(&rhs.data).map(|(&a, &b)| f(a, b)).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// In-place element-wise accumulate: `self += rhs`.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, mut f: impl FnMut(f32) -> f32) -> Matrix {
        let data = self.data.iter().map(|&v| f(v)).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Scales every element by `c`, returning a new matrix.
    pub fn scale(&self, c: f32) -> Matrix {
        self.map(|v| v * c)
    }

    /// Fills the matrix with zeros, keeping its allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (−∞ for an empty matrix).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (+∞ for an empty matrix).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element in each row.
    pub fn row_argmax(&self) -> Vec<usize> {
        self.rows_iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Row-wise numerically-stable log-softmax.
    pub fn log_softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = out.row_mut(r);
            log_softmax_slice(row);
        }
        out
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Maximum absolute element-wise difference against `rhs`.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f32 {
        assert_eq!(self.shape(), rhs.shape(), "max_abs_diff: shape mismatch");
        self.data.iter().zip(&rhs.data).map(|(&a, &b)| (a - b).abs()).fold(0.0, f32::max)
    }
}

/// Numerically-stable in-place softmax of one slice.
pub fn softmax_slice(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Numerically-stable in-place log-softmax of one slice.
pub fn log_softmax_slice(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let log_sum: f32 = row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln();
    for v in row.iter_mut() {
        *v = *v - max - log_sum;
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        for r in 0..show_rows {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:>9.4}")).collect();
            let ellipsis = if self.cols > 8 { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_roundtrip() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_bad_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let m = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        let id = Matrix::identity(3);
        assert_eq!(m.matmul(&id), m);
        assert_eq!(id.matmul(&m), m);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r + 2 * c) as f32);
        let b = Matrix::from_fn(4, 2, |r, c| (r * c) as f32 + 1.0);
        let via_t = a.transpose().matmul(&b);
        assert!(a.matmul_tn(&b).max_abs_diff(&via_t) < 1e-6);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_fn(2, 3, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(4, 3, |r, c| (2 * r + c) as f32);
        let via_t = a.matmul(&b.transpose());
        assert!(a.matmul_nt(&b).max_abs_diff(&via_t) < 1e-6);
    }

    /// `matmul_nt`'s eight chains against the one-chain loop, by bits:
    /// 1–3 rows, 1–17 outputs (both sides of an eight-output block) and
    /// shared dimensions 0, 1, 7, 9 and 33, on entries drawn from signed
    /// zeros and random values, and on rows whose products are all
    /// `-0.0` (the sum from `+0.0` reads `+0.0`).
    #[test]
    fn matmul_nt_matches_the_one_chain_loop_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        fn one_chain(a: &Matrix, b: &Matrix) -> Matrix {
            Matrix::from_fn(a.rows(), b.rows(), |i, j| {
                let mut acc = 0.0;
                for (&x, &y) in a.row(i).iter().zip(b.row(j)) {
                    acc += x * y;
                }
                acc
            })
        }
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = StdRng::seed_from_u64(8);
        let entry = |rng: &mut StdRng| match rng.gen_range(0..6u32) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-3.0f32..3.0),
        };
        for rows in 1..=3 {
            for outputs in 1..=17 {
                for k in [0, 1, 7, 9, 33] {
                    let a = Matrix::from_fn(rows, k, |_, _| entry(&mut rng));
                    let b = Matrix::from_fn(outputs, k, |_, _| entry(&mut rng));
                    let what = format!("{rows}x{k} * ({outputs}x{k})^T");
                    assert_eq!(bits(&a.matmul_nt(&b)), bits(&one_chain(&a, &b)), "{what}");
                    let neg = a.map(|_| -0.0);
                    let pos = b.map(|x| x.abs() + 1.0);
                    let got = neg.matmul_nt(&pos);
                    assert_eq!(bits(&got), bits(&one_chain(&neg, &pos)), "-0.0 products, {what}");
                    assert!(got.as_slice().iter().all(|x| x.to_bits() == 0), "{what}");
                }
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn softmax_slice_sums_to_one() {
        for mut row in [[1.0f32, 2.0, 3.0], [-1.0, 0.0, 1000.0]] {
            softmax_slice(&mut row);
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "{row:?} sums to {sum}");
            assert!(row.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn log_softmax_is_log_of_softmax() {
        let m = Matrix::from_vec(1, 4, vec![0.5, -0.5, 2.0, 0.0]);
        let ls = m.log_softmax_rows();
        let mut s = [0.5f32, -0.5, 2.0, 0.0];
        softmax_slice(&mut s);
        for (c, p) in s.iter().enumerate() {
            assert!((ls.get(0, c) - p.ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn row_argmax_picks_max() {
        let m = Matrix::from_vec(2, 3, vec![0.1, 0.9, 0.5, 3.0, 2.0, 1.0]);
        assert_eq!(m.row_argmax(), vec![1, 0]);
    }

    #[test]
    fn reductions() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.sum(), 10.0);
        assert_eq!(m.mean(), 2.5);
        assert_eq!(m.max(), 4.0);
        assert_eq!(m.min(), 1.0);
    }

    #[test]
    fn row_argmax_is_total_on_nan() {
        // NaN logits used to destabilise argmax through
        // `partial_cmp(..).unwrap_or(Equal)`: the comparator reported
        // spurious equality, so the pick depended on element order.
        // `total_cmp` ranks NaN above every number — deterministic, no
        // panic, and non-NaN rows behave exactly as before.
        let m = Matrix::from_vec(
            3,
            3,
            vec![
                1.0,
                f32::NAN,
                2.0, //
                f32::NAN,
                f32::NAN,
                f32::NAN, //
                3.0,
                2.0,
                1.0,
            ],
        );
        assert_eq!(m.row_argmax(), vec![1, 2, 0]);
    }
}
