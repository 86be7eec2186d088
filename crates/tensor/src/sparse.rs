//! Compressed sparse row (CSR) matrices.
//!
//! Graph adjacency operators (`Â = D^-1/2 (A+I) D^-1/2`, `D^-1 A`, `A²`, …)
//! are stored in CSR form and multiplied against dense feature matrices with
//! [`CsrMatrix::spmm`]. The mostly-zero bag-of-words node features are
//! held in CSR form too, and projected with the same kernel (`X · W`).
//! The autograd tape treats a CSR operand as a constant: gradients only
//! flow through the dense side, which matches how GNN propagation
//! matrices and input features are used in the paper.
//!
//! Pairwise dots between feature rows (the relative entropy's `H_f` and
//! the rewiring heuristics' cosines) go through one primitive:
//! [`CsrMatrix::load_row`] scatters one row into a [`DenseRow`] and
//! [`CsrMatrix::row_dot`] dots any row against it over that row's stored
//! entries only.

use std::ops::{Add, Mul};

use rand::Rng;

use crate::matrix::Matrix;
use crate::parallel;

/// A sparse matrix in compressed sparse row format.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row pointer array of length `rows + 1`.
    row_ptr: Vec<usize>,
    /// Column indices, sorted within each row.
    col_idx: Vec<usize>,
    /// Non-zero values, parallel to `col_idx`.
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from (row, col, value) triplets.
    ///
    /// Triplets may be unordered; duplicates are summed. Entries with value
    /// `0.0` are kept out of the structure.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Self {
        let mut counts = vec![0usize; rows + 1];
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of bounds for {rows}x{cols}");
            counts[r + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        let mut col_idx = vec![0usize; triplets.len()];
        let mut values = vec![0f32; triplets.len()];
        let mut cursor = counts.clone();
        for &(r, c, v) in triplets {
            let pos = cursor[r];
            col_idx[pos] = c;
            values[pos] = v;
            cursor[r] += 1;
        }
        // Sort within each row and merge duplicates / drop explicit zeros.
        let mut out_ptr = Vec::with_capacity(rows + 1);
        let mut out_col = Vec::with_capacity(col_idx.len());
        let mut out_val = Vec::with_capacity(values.len());
        out_ptr.push(0);
        let mut scratch: Vec<(usize, f32)> = Vec::new();
        for r in 0..rows {
            scratch.clear();
            scratch.extend(
                col_idx[counts[r]..counts[r + 1]]
                    .iter()
                    .copied()
                    .zip(values[counts[r]..counts[r + 1]].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut v = 0.0;
                while i < scratch.len() && scratch[i].0 == c {
                    v += scratch[i].1;
                    i += 1;
                }
                if v != 0.0 {
                    out_col.push(c);
                    out_val.push(v);
                }
            }
            out_ptr.push(out_col.len());
        }
        Self { rows, cols, row_ptr: out_ptr, col_idx: out_col, values: out_val }
    }

    /// Assembles a matrix directly from a per-row entry builder, skipping
    /// [`from_triplets`](CsrMatrix::from_triplets)'s scatter/sort/dedup
    /// passes.
    ///
    /// `build` is called once per row in ascending order with a cleared
    /// scratch vector and must append that row's entries **sorted by
    /// column without duplicates** (checked in debug builds); explicit
    /// zeros are kept as stored entries, exactly as `from_triplets` keeps
    /// the *sum* of duplicates only when non-zero — callers of this fast
    /// path emit no zeros. The result is identical to building the same
    /// rows via triplets.
    pub fn from_row_builder(
        rows: usize,
        cols: usize,
        build: impl FnMut(usize, &mut Vec<(usize, f32)>),
    ) -> Self {
        let mut out = Self::empty();
        let mut scratch: Vec<(usize, f32)> = Vec::new();
        out.rebuild_from_row_builder(rows, cols, &mut scratch, build);
        out
    }

    /// The non-zero entries of a dense matrix (entries equal to `0.0`,
    /// either sign, are left out).
    ///
    /// `from_dense(m).spmm(w)` is bit-identical to `m.matmul(w)`: both
    /// add `m[r][k] · w[k]` over the row's non-zero `k` in ascending
    /// order, since [`Matrix::matmul`] skips zero entries of its left
    /// operand. Likewise `spmm_t` matches `matmul_tn`.
    pub fn from_dense(m: &Matrix) -> Self {
        Self::from_row_builder(m.rows(), m.cols(), |r, out| {
            out.extend(
                m.row(r).iter().enumerate().filter(|&(_, &v)| v != 0.0).map(|(c, &v)| (c, v)),
            );
        })
    }

    /// Inverted dropout with keep-probability `1 - p`, applied to the
    /// dense matrix this one stores: the sparse counterpart of
    /// [`Tape::dropout`](crate::Tape::dropout) on a constant.
    ///
    /// It draws one `rng.gen::<f32>()` per `(row, col)` position in
    /// row-major order, stored or not, which is exactly the stream
    /// `Tape::dropout` draws for its mask, so both leave `rng` in the
    /// same state. A stored `v` survives as `v * (1 / keep)` when its
    /// draw is below `keep` and that product is non-zero; for finite
    /// inputs [`to_dense`](CsrMatrix::to_dense) of the result equals the
    /// dense dropout output up to the sign of its zeros.
    ///
    /// # Panics
    /// Panics unless `p` lies in `[0, 1)`.
    pub fn dropout(&self, p: f32, rng: &mut impl Rng) -> CsrMatrix {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0, 1)");
        let keep = 1.0 - p;
        let scale = 1.0 / keep;
        Self::from_row_builder(self.rows, self.cols, |r, out| {
            let mut next = 0;
            for (c, v) in self.row_entries_inner(r) {
                // Draws for the unstored positions before `c`.
                for _ in next..c {
                    rng.gen::<f32>();
                }
                next = c + 1;
                let kept = v * scale;
                if rng.gen::<f32>() < keep && kept != 0.0 {
                    out.push((c, kept));
                }
            }
            for _ in next..self.cols {
                rng.gen::<f32>();
            }
        })
    }

    /// An empty `0 x 0` matrix, the seed for
    /// [`rebuild_from_row_builder`](CsrMatrix::rebuild_from_row_builder).
    pub fn empty() -> Self {
        Self { rows: 0, cols: 0, row_ptr: vec![0], col_idx: Vec::new(), values: Vec::new() }
    }

    /// Rebuilds the whole matrix **in place** from a per-row entry
    /// builder, reusing the existing CSR storage (and the caller's row
    /// `scratch`) instead of allocating fresh arrays — once capacities
    /// have warmed up this performs zero heap allocations, which is what
    /// the incremental rewiring engine's per-step operator refresh
    /// relies on. The result is identical to
    /// [`from_row_builder`](CsrMatrix::from_row_builder) with the same
    /// closure; the same per-row ordering contract applies.
    pub fn rebuild_from_row_builder(
        &mut self,
        rows: usize,
        cols: usize,
        scratch: &mut Vec<(usize, f32)>,
        mut build: impl FnMut(usize, &mut Vec<(usize, f32)>),
    ) {
        self.rows = rows;
        self.cols = cols;
        self.row_ptr.clear();
        self.row_ptr.push(0);
        self.col_idx.clear();
        self.values.clear();
        for r in 0..rows {
            scratch.clear();
            build(r, scratch);
            debug_assert!(
                scratch.windows(2).all(|w| w[0].0 < w[1].0),
                "row {r} entries must be sorted by column and unique"
            );
            if let Some(&(c, _)) = scratch.last() {
                assert!(c < cols, "column {c} out of bounds for {cols} cols");
            }
            self.col_idx.extend(scratch.iter().map(|&(c, _)| c));
            self.values.extend(scratch.iter().map(|&(_, v)| v));
            self.row_ptr.push(self.col_idx.len());
        }
    }

    /// Builds an identity CSR matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        Self {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
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

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `(column, value)` pairs of row `r`, sorted by column.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi].iter().copied().zip(self.values[lo..hi].iter().copied())
    }

    /// Number of stored entries in row `r`.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Sparse-dense product `self * dense`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn spmm(&self, dense: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            dense.rows(),
            "spmm: {}x{} * {}x{} dimension mismatch",
            self.rows,
            self.cols,
            dense.rows(),
            dense.cols()
        );
        let _kernel = kernel_telemetry!("spmm", self.rows);
        let cols = dense.cols();
        let mut out = Matrix::zeros(self.rows, cols);
        parallel::par_for_each_row(out.as_mut_slice(), cols, |r, out_row| {
            for (c, v) in self.row_entries_inner(r) {
                let d_row = dense.row(c);
                for (o, &d) in out_row.iter_mut().zip(d_row) {
                    *o += v * d;
                }
            }
        });
        out
    }

    /// `self^T * dense` without materialising the transpose.
    ///
    /// Used by the autograd tape to push gradients through `spmm`.
    ///
    /// Parallelised over chunks of *output* rows: each thread scans the
    /// CSR structure and accumulates only the entries whose column lands
    /// in its chunk, in the same ascending input-row order as the serial
    /// loop — no atomics, no merge step, bit-identical results.
    pub fn spmm_t(&self, dense: &Matrix) -> Matrix {
        assert_eq!(
            self.rows,
            dense.rows(),
            "spmm_t: {}x{} ^T * {}x{} dimension mismatch",
            self.rows,
            self.cols,
            dense.rows(),
            dense.cols()
        );
        let _kernel = kernel_telemetry!("spmm_t", self.cols);
        let cols = dense.cols();
        let mut out = Matrix::zeros(self.cols, cols);
        parallel::par_for_each_chunk(out.as_mut_slice(), cols, |range, chunk| {
            for r in 0..self.rows {
                let d_row = dense.row(r);
                for (c, v) in self.row_entries_inner(r) {
                    if c < range.start || c >= range.end {
                        continue;
                    }
                    let off = (c - range.start) * cols;
                    let out_row = &mut chunk[off..off + cols];
                    for (o, &d) in out_row.iter_mut().zip(d_row) {
                        *o += v * d;
                    }
                }
            }
        });
        out
    }

    /// Converts to a dense matrix. GraphSAGE densifies its (dropped)
    /// sparse input once per forward this way, for the neighbour mean.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_entries_inner(r) {
                out.set(r, c, v);
            }
        }
        out
    }

    /// Whether the matrix is structurally symmetric with equal values.
    pub fn is_symmetric(&self, tol: f32) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            for (c, v) in self.row_entries_inner(r) {
                match self.get(c, r) {
                    Some(w) if (w - v).abs() <= tol => {}
                    _ => return false,
                }
            }
        }
        true
    }

    /// Value at `(r, c)` if stored.
    pub fn get(&self, r: usize, c: usize) -> Option<f32> {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        let row = &self.col_idx[lo..hi];
        row.binary_search(&c).ok().map(|i| self.values[lo + i])
    }

    #[inline]
    fn row_entries_inner(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi].iter().copied().zip(self.values[lo..hi].iter().copied())
    }
}

/// One row of a [`CsrMatrix`] scattered into a dense buffer: the fixed
/// operand of [`CsrMatrix::row_dot`]. A scratch reused across rows is
/// reloaded by clearing only the columns the previous row stored, so a
/// load costs the two rows' stored entries, not the column count.
#[derive(Clone, Debug, Default)]
pub struct DenseRow {
    values: Vec<f32>,
    stored: Vec<usize>,
}

impl CsrMatrix {
    /// Loads row `r` into `row`, replacing whatever it held.
    pub fn load_row(&self, r: usize, row: &mut DenseRow) {
        for &c in &row.stored {
            row.values[c] = 0.0;
        }
        row.stored.clear();
        if row.values.len() < self.cols {
            row.values.resize(self.cols, 0.0);
        }
        for (c, v) in self.row_entries_inner(r) {
            row.values[c] = v;
            row.stored.push(c);
        }
    }

    /// Dot product of row `r` with the row loaded in `row` (from a
    /// matrix with at least this one's columns), accumulated in `A`
    /// (`f32` or `f64`): each stored `x` of row `r` adds `x · row[c]` in
    /// ascending column order, folding from `+0.0`.
    ///
    /// This is the dense loop over every column, summed by
    /// `Iterator::sum`, bit for bit for finite entries: a column row `r`
    /// does not store adds a signed zero, which leaves a nonzero partial
    /// sum unchanged, and every nonzero product is added in the dense
    /// loop's order. The sum starts from `+0.0` because `Sum` for floats
    /// starts from `−0.0` and `total_cmp` ranks `−0.0` below `+0.0`: a
    /// pair sharing no nonzero column gets the dense loop's `+0.0`. The
    /// one difference is a dense sum whose every product is `−0.0` (each
    /// column pairs a zero with a negative value), which reads `−0.0`
    /// densely and `+0.0` here. A non-finite entry only enters through
    /// the columns row `r` stores, so `∞ · 0` from an unstored column is
    /// never formed.
    pub fn row_dot<A>(&self, r: usize, row: &DenseRow) -> A
    where
        A: From<f32> + Add<Output = A> + Mul<Output = A>,
    {
        self.row_entries_inner(r)
            .fold(A::from(0.0), |acc, (c, x)| acc + A::from(x) * A::from(row.values[c]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_triplets(3, 3, &[(0, 1, 2.0), (1, 0, 3.0), (2, 2, 1.0), (0, 2, -1.0)])
    }

    #[test]
    fn triplets_roundtrip_dense() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d.get(0, 1), 2.0);
        assert_eq!(d.get(1, 0), 3.0);
        assert_eq!(d.get(2, 2), 1.0);
        assert_eq!(d.get(0, 2), -1.0);
        assert_eq!(d.get(1, 1), 0.0);
        assert_eq!(m.nnz(), 4);
    }

    #[test]
    fn duplicates_are_summed_zeros_dropped() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.0), (1, 1, 0.0)]);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 0), Some(3.0));
        assert_eq!(m.get(1, 1), None);
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let m = sample();
        let x = Matrix::from_fn(3, 2, |r, c| (r + c) as f32 + 0.5);
        let sparse = m.spmm(&x);
        let dense = m.to_dense().matmul(&x);
        assert!(sparse.max_abs_diff(&dense) < 1e-6);
    }

    #[test]
    fn spmm_t_matches_transpose_matmul() {
        let m = sample();
        let x = Matrix::from_fn(3, 2, |r, c| (2 * r + c) as f32);
        let got = m.spmm_t(&x);
        let want = m.to_dense().transpose().matmul(&x);
        assert!(got.max_abs_diff(&want) < 1e-6);
    }

    #[test]
    fn identity_spmm_is_noop() {
        let x = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32);
        let id = CsrMatrix::identity(4);
        assert_eq!(id.spmm(&x), x);
    }

    #[test]
    fn symmetry_detection() {
        let sym = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        assert!(sym.is_symmetric(1e-9));
        assert!(!sample().is_symmetric(1e-9));
    }

    /// 5 x 6 with an empty row (2), an empty column (4) and negative
    /// entries (rows 0 and 1).
    fn ragged() -> Matrix {
        Matrix::from_fn(5, 6, |r, c| {
            if r == 2 || c == 4 || (r + 2 * c) % 3 == 0 {
                0.0
            } else {
                (r as f32 - 1.5) * (c as f32 + 0.5)
            }
        })
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn from_dense_keeps_exactly_the_nonzeros() {
        let mut dense = ragged();
        dense.set(3, 0, -0.0);
        let m = CsrMatrix::from_dense(&dense);
        assert_eq!(m.nnz(), dense.as_slice().iter().filter(|&&v| v != 0.0).count());
        assert_eq!(m.row_nnz(2), 0);
        assert_eq!(m.get(3, 0), None);
        assert_eq!(m.to_dense(), dense);
    }

    /// The sparse input path against the dense one it replaces: the
    /// dropout draws the same stream and keeps the same values, and
    /// `spmm` plus its backward match `matmul` / `matmul_tn` bit for bit.
    #[test]
    fn sparse_input_path_matches_the_dense_path_bit_for_bit() {
        use crate::Tape;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use std::rc::Rc;

        let dense = ragged();
        let csr = CsrMatrix::from_dense(&dense);
        let w = Matrix::from_fn(6, 3, |r, c| 0.3 * r as f32 - 0.7 * c as f32 + 0.11);
        let g = Rc::new(Matrix::from_fn(5, 3, |r, c| (r as f32 + 0.5) * 0.25 - c as f32));
        for p in [0.2, 0.5] {
            for seed in 0..8 {
                let (mut dense_rng, mut sparse_rng) =
                    (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let mut td = Tape::new();
                let x = td.constant(dense.clone());
                let x = td.dropout(x, p, &mut dense_rng);
                let dropped = csr.dropout(p, &mut sparse_rng);
                assert_eq!(dense_rng.gen::<u64>(), sparse_rng.gen::<u64>(), "p={p} seed={seed}");
                // Equal values; a dropped negative entry is -0.0 densely
                // and absent (+0.0) sparsely, which `matmul` skips alike.
                assert_eq!(dropped.to_dense(), *td.value(x), "p={p} seed={seed}");
                assert!(dropped.row_nnz(2) == 0 && dropped.nnz() <= csr.nnz());

                let wd = td.leaf(w.clone());
                let yd = td.matmul(x, wd);
                let ld = td.mul_const(yd, g.clone());
                let ld = td.sum_all(ld);
                td.backward(ld);

                let mut ts = Tape::new();
                let ws = ts.leaf(w.clone());
                let ys = ts.spmm(Rc::new(dropped), ws);
                let ls = ts.mul_const(ys, g.clone());
                let ls = ts.sum_all(ls);
                ts.backward(ls);

                assert_eq!(bits(ts.value(ys)), bits(td.value(yd)), "forward p={p} seed={seed}");
                let (gs, gd) = (ts.grad(ws).unwrap(), td.grad(wd).unwrap());
                assert_eq!(bits(gs), bits(gd), "W gradient p={p} seed={seed}");
                assert_eq!(bits(gd), bits(&td.value(x).matmul_tn(&g)));
            }
        }
    }

    /// `row_dot` against the dense `Iterator::sum` loop it replaces, in
    /// both accumulators, on a reused scratch: every pair of `ragged()`'s
    /// rows (empty rows, negative entries, pairs with no shared column)
    /// and a pair whose dot cancels to exactly zero.
    #[test]
    fn row_dot_matches_the_dense_sum_bit_for_bit() {
        let mut dense = ragged();
        dense.set(4, 0, 2.0);
        dense.set(4, 1, 2.5);
        dense.set(1, 0, 1.25);
        let m = CsrMatrix::from_dense(&dense);
        let mut row = DenseRow::default();
        for v in 0..m.rows() {
            m.load_row(v, &mut row);
            for u in 0..m.rows() {
                let (a, b) = (dense.row(v), dense.row(u));
                let want64: f64 = a.iter().zip(b).map(|(&x, &y)| (x as f64) * (y as f64)).sum();
                let want32: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
                assert_eq!(m.row_dot::<f64>(u, &row).to_bits(), want64.to_bits(), "f64 ({v},{u})");
                assert_eq!(m.row_dot::<f32>(u, &row).to_bits(), want32.to_bits(), "f32 ({v},{u})");
            }
        }
        // No shared column: both read +0.0, where `Sum` over no terms
        // would read -0.0.
        m.load_row(2, &mut row);
        assert_eq!(m.row_dot::<f32>(0, &row).to_bits(), 0.0f32.to_bits());
        let cancel = CsrMatrix::from_dense(&Matrix::from_vec(2, 2, vec![1.0, 1.0, 1.0, -1.0]));
        cancel.load_row(0, &mut row);
        assert_eq!(cancel.row_dot::<f64>(1, &row).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn from_row_builder_matches_triplets() {
        let m = sample();
        let rows: Vec<Vec<(usize, f32)>> = (0..3).map(|r| m.row_entries(r).collect()).collect();
        let rebuilt = CsrMatrix::from_row_builder(3, 3, |r, out| out.extend(rows[r].iter()));
        assert_eq!(rebuilt, m);
    }
}
