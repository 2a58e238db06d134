//! Compressed-sparse-row (CSR) matrices.
//!
//! The classical side of the paper's hybrid algorithm recomputes the residual
//! `r = b − A x` at high precision on every refinement iteration.  For the
//! Poisson systems the paper benchmarks (3 nonzeros per row) a dense residual
//! pays O(N²) time and memory for an O(N) job; [`SparseMatrix`] brings the
//! residual path down to O(nnz).  Construction goes through a triplet
//! (coordinate) builder that sorts, merges duplicates and drops explicit
//! zeros, so generators can emit entries in any order.
//!
//! The matvec accumulates each row in increasing column order with the same
//! fused multiply-adds as the dense kernel — skipping a structural zero is an
//! exact no-op — so a `SparseMatrix` built from a dense matrix produces
//! **bit-identical** products to that dense oracle, and row partitioning
//! makes the product parallel above the shared work threshold
//! (`matrix::PAR_THRESHOLD`, the same rayon pattern as `Matrix::matvec`).

use crate::matrix::{par_map_rows, par_map_rows_baseline, Matrix, PAR_THRESHOLD};
use crate::operator::LinearOperator;
use crate::scalar::Real;
use crate::simd;
use crate::vector::Vector;
use rayon::prelude::*;

/// A sparse matrix in compressed-sparse-row format.
///
/// Invariants: `row_ptr` has length `rows + 1` with `row_ptr[0] == 0` and
/// `row_ptr[rows] == nnz`; within each row the column indices are strictly
/// increasing; no explicit zeros are stored.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix<T: Real> {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<T>,
}

impl<T: Real> SparseMatrix<T> {
    /// Build from coordinate-format triplets `(row, col, value)`.
    ///
    /// The input may be unsorted and may contain duplicate coordinates;
    /// duplicates are **summed** (in their original input order, so the
    /// result is deterministic) and entries whose merged value is exactly
    /// zero are dropped.  Rows with no entries are perfectly fine.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, T)]) -> Self {
        // Validate up front: the sort below may never evaluate its key for
        // degenerate inputs (e.g. a single triplet).
        for &(r, c, _) in triplets {
            assert!(
                r < rows,
                "from_triplets: row {r} out of range (rows = {rows})"
            );
            assert!(
                c < cols,
                "from_triplets: col {c} out of range (cols = {cols})"
            );
        }
        let mut order: Vec<usize> = (0..triplets.len()).collect();
        // Stable sort: duplicates keep their input order, making the merge
        // summation order (and hence the rounded sums) deterministic.
        order.sort_by_key(|&k| {
            let (r, c, _) = triplets[k];
            (r, c)
        });

        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(triplets.len());
        let mut values: Vec<T> = Vec::with_capacity(triplets.len());
        let mut rows_seen: Vec<usize> = Vec::with_capacity(triplets.len());
        let mut iter = order.into_iter().peekable();
        while let Some(k) = iter.next() {
            let (r, c, mut v) = triplets[k];
            while let Some(&k2) = iter.peek() {
                let (r2, c2, v2) = triplets[k2];
                if r2 == r && c2 == c {
                    v += v2;
                    iter.next();
                } else {
                    break;
                }
            }
            if v != T::zero() {
                rows_seen.push(r);
                col_idx.push(c);
                values.push(v);
            }
        }
        for &r in &rows_seen {
            row_ptr[r + 1] += 1;
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        SparseMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Build from a dense matrix, keeping every nonzero entry.
    ///
    /// The resulting operator is bit-identical to the dense one under
    /// [`SparseMatrix::matvec`] / [`SparseMatrix::matvec_transposed`].
    pub fn from_dense(a: &Matrix<T>) -> Self {
        let rows = a.nrows();
        let cols = a.ncols();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for i in 0..rows {
            for (j, &v) in a.row(i).iter().enumerate() {
                if v != T::zero() {
                    col_idx.push(j);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        SparseMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The stored entries of row `i` as `(column indices, values)`, columns
    /// strictly increasing.
    pub fn row(&self, i: usize) -> (&[usize], &[T]) {
        assert!(i < self.rows, "row index out of range");
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        (&self.col_idx[span.clone()], &self.values[span])
    }

    /// Iterate over all stored entries as `(row, col, value)` in row-major
    /// order.
    pub fn iter_entries(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.rows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter().zip(vals).map(move |(&c, &v)| (i, c, v))
        })
    }

    /// Matrix-vector product `A x` in O(nnz), row-partitioned across threads
    /// above the shared work threshold.
    ///
    /// For `T = f64` this runs the row-group SIMD kernel (see
    /// [`crate::simd`]); every other precision runs the per-row fold under
    /// the crate's `avx2,fma` dispatch.  Either way the result is
    /// bit-identical to [`SparseMatrix::matvec_scalar`] — and therefore
    /// still bit-identical to the dense oracle — for every row shape,
    /// including empty and single-entry rows (padded lanes are exact no-op
    /// fmas).
    pub fn matvec(&self, x: &Vector<T>) -> Vector<T> {
        assert_eq!(self.cols, x.len(), "sparse matvec: dimension mismatch");
        if simd::is_f64::<T>() {
            return self.matvec_f64_simd(x);
        }
        let xs = x.as_slice();
        par_map_rows(
            self.nnz(),
            self.rows,
            #[inline(always)]
            |i| {
                let (cols, vals) = self.row(i);
                cols.iter()
                    .zip(vals)
                    .fold(T::zero(), |acc, (&c, &v)| v.mul_add(xs[c], acc))
            },
        )
    }

    /// Scalar SpMV kernel — the pre-SIMD loop kept verbatim, compiled at the
    /// baseline only, as the equivalence oracle.
    pub fn matvec_scalar(&self, x: &Vector<T>) -> Vector<T> {
        assert_eq!(self.cols, x.len(), "sparse matvec: dimension mismatch");
        let xs = x.as_slice();
        par_map_rows_baseline(self.nnz(), self.rows, |i| {
            let (cols, vals) = self.row(i);
            cols.iter()
                .zip(vals)
                .fold(T::zero(), |acc, (&c, &v)| v.mul_add(xs[c], acc))
        })
    }

    /// SIMD SpMV for `T = f64`: four output rows per lane group,
    /// row-partitioned across threads above the shared work threshold.
    fn matvec_f64_simd(&self, x: &Vector<T>) -> Vector<T> {
        let xs = simd::as_f64(x.as_slice());
        let vals = simd::as_f64(&self.values);
        let mut out = vec![T::zero(); self.rows];
        let os = simd::as_f64_mut(&mut out);
        if self.nnz() >= PAR_THRESHOLD {
            const GROUP: usize = 16 * simd::LANES;
            os.par_chunks_mut(GROUP).enumerate().for_each(|(g, chunk)| {
                simd::spmv(&self.row_ptr, &self.col_idx, vals, xs, chunk, g * GROUP);
            });
        } else {
            simd::spmv(&self.row_ptr, &self.col_idx, vals, xs, os, 0);
        }
        Vector::from_vec(out)
    }

    /// Transposed matrix-vector product `Aᵀ x` in O(nnz) (sequential column
    /// scatter, the same operation order as the dense kernel).
    pub fn matvec_transposed(&self, x: &Vector<T>) -> Vector<T> {
        assert_eq!(
            self.rows,
            x.len(),
            "sparse matvec_transposed: dimension mismatch"
        );
        let mut out = Vector::zeros(self.cols);
        for i in 0..self.rows {
            let xi = x[i];
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                out[c] = v.mul_add(xi, out[c]);
            }
        }
        out
    }

    /// The main diagonal as a dense vector (absent entries are zero).
    pub fn diagonal(&self) -> Vector<T> {
        let n = self.rows.min(self.cols);
        let mut d = Vector::zeros(n);
        for i in 0..n {
            let (cols, vals) = self.row(i);
            if let Ok(k) = cols.binary_search(&i) {
                d[i] = vals[k];
            }
        }
        d
    }

    /// Exact symmetry check: the matrix equals its transpose entry for entry
    /// (`*self == self.transpose()`, without building the transpose).
    ///
    /// Every stored `(i, c, v)` must find `(c, i)` stored in row `c` with a
    /// value `== v`, so a NaN is never symmetric.  That maps the stored
    /// entries one-to-one onto themselves, so no entry of the transpose is
    /// missing either.  A stored zero (left by [`SparseMatrix::scale`] or
    /// [`SparseMatrix::convert`]) is never symmetric: the transpose, rebuilt
    /// from triplets, drops it.  O(nnz log(nnz per row)), no allocation.
    /// Used by the inner-solver selection to decide between CG and BiCGSTAB.
    pub fn is_symmetric(&self) -> bool {
        self.rows == self.cols
            && self.iter_entries().all(|(i, c, v)| {
                let (cols, vals) = self.row(c);
                v != T::zero() && cols.binary_search(&i).is_ok_and(|k| vals[k] == v)
            })
    }

    /// The explicit transpose, still in CSR.
    pub fn transpose(&self) -> Self {
        let triplets: Vec<(usize, usize, T)> =
            self.iter_entries().map(|(r, c, v)| (c, r, v)).collect();
        Self::from_triplets(self.cols, self.rows, &triplets)
    }

    /// Densify into a full matrix (exact: every stored entry is copied).
    pub fn to_dense(&self) -> Matrix<T> {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter_entries() {
            m[(r, c)] = v;
        }
        m
    }

    /// Scale every stored entry by `alpha` in place.
    pub fn scale(&mut self, alpha: T) {
        for v in &mut self.values {
            *v *= alpha;
        }
    }

    /// Convert into another precision, rounding element-wise.
    pub fn convert<S: Real>(&self) -> SparseMatrix<S> {
        SparseMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values: self
                .values
                .iter()
                .map(|v| S::from_f64(v.to_f64()))
                .collect(),
        }
    }
}

impl<T: Real> LinearOperator<T> for SparseMatrix<T> {
    fn nrows(&self) -> usize {
        SparseMatrix::nrows(self)
    }

    fn ncols(&self) -> usize {
        SparseMatrix::ncols(self)
    }

    fn matvec(&self, x: &Vector<T>) -> Vector<T> {
        SparseMatrix::matvec(self, x)
    }

    fn matvec_transposed(&self, x: &Vector<T>) -> Vector<T> {
        SparseMatrix::matvec_transposed(self, x)
    }

    fn nnz(&self) -> usize {
        SparseMatrix::nnz(self)
    }

    fn to_dense(&self) -> Matrix<T> {
        SparseMatrix::to_dense(self)
    }

    fn norm_inf(&self) -> T {
        (0..self.rows)
            .map(|i| self.row(i).1.iter().fold(T::zero(), |acc, v| acc + v.abs()))
            .fold(T::zero(), |acc, s| acc.max(s))
    }

    fn norm_frobenius(&self) -> T {
        let maxabs = self
            .values
            .iter()
            .fold(T::zero(), |acc, v| acc.max(v.abs()));
        if maxabs == T::zero() {
            return T::zero();
        }
        let sum = self.values.iter().fold(T::zero(), |acc, &v| {
            let s = v / maxabs;
            s.mul_add(s, acc)
        });
        maxabs * sum.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_dense() -> Matrix<f64> {
        Matrix::from_f64_slice(
            3,
            4,
            &[
                1.0, 0.0, -2.0, 0.0, //
                0.0, 0.0, 0.0, 0.0, //
                3.5, 0.0, 0.0, 4.0,
            ],
        )
    }

    #[test]
    fn from_dense_roundtrips_exactly() {
        let d = example_dense();
        let s = SparseMatrix::from_dense(&d);
        assert_eq!(s.nnz(), 4);
        assert_eq!(s.to_dense(), d);
        let (cols, vals) = s.row(1);
        assert!(cols.is_empty() && vals.is_empty());
    }

    #[test]
    fn matvec_is_bit_identical_to_dense() {
        let d = example_dense();
        let s = SparseMatrix::from_dense(&d);
        let x = Vector::from_f64_slice(&[0.1, -0.7, 0.33, 1.9]);
        assert_eq!(s.matvec(&x).as_slice(), d.matvec(&x).as_slice());
        let y = Vector::from_f64_slice(&[2.0, -1.0, 0.5]);
        assert_eq!(
            s.matvec_transposed(&y).as_slice(),
            d.matvec_transposed(&y).as_slice()
        );
    }

    #[test]
    fn triplets_sum_duplicates_in_input_order_and_sort_columns() {
        // Unsorted input with a duplicate coordinate and a zero-sum pair.
        let t = SparseMatrix::<f64>::from_triplets(
            2,
            3,
            &[
                (1, 2, 4.0),
                (0, 1, 1.0),
                (0, 0, 2.0),
                (0, 1, 0.5), // duplicate of (0,1): summed to 1.5
                (1, 0, 7.0),
                (1, 0, -7.0), // sums to exactly zero: dropped
            ],
        );
        assert_eq!(t.nnz(), 3);
        let (cols, vals) = t.row(0);
        assert_eq!(cols, &[0, 1]);
        assert_eq!(vals, &[2.0, 1.5]);
        let (cols, vals) = t.row(1);
        assert_eq!(cols, &[2]);
        assert_eq!(vals, &[4.0]);
    }

    #[test]
    fn empty_rows_and_empty_matrix() {
        let t = SparseMatrix::<f64>::from_triplets(4, 4, &[(2, 3, 1.0)]);
        assert_eq!(t.nnz(), 1);
        let x = Vector::ones(4);
        assert_eq!(t.matvec(&x).as_slice(), &[0.0, 0.0, 1.0, 0.0]);
        let empty = SparseMatrix::<f64>::from_triplets(3, 3, &[]);
        assert_eq!(empty.nnz(), 0);
        assert_eq!(empty.matvec(&Vector::ones(3)).as_slice(), &[0.0; 3]);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let d = example_dense();
        let s = SparseMatrix::from_dense(&d);
        assert_eq!(s.transpose().to_dense(), d.transpose());
    }

    #[test]
    fn norms_match_dense() {
        let d = example_dense();
        let s = SparseMatrix::from_dense(&d);
        assert_eq!(LinearOperator::norm_inf(&s), d.norm_inf());
        assert!((LinearOperator::norm_frobenius(&s) - d.norm_frobenius()).abs() < 1e-15);
    }

    #[test]
    fn large_matvec_takes_the_parallel_path() {
        // nnz above PAR_THRESHOLD exercises the row-partitioned fan-out.
        let n = 920usize;
        let d = Matrix::<f64>::from_fn(n, n, |i, j| {
            if (i + 2 * j) % 3 == 0 {
                ((i * 13 + j * 7) % 23) as f64 / 23.0
            } else {
                0.0
            }
        });
        let s = SparseMatrix::from_dense(&d);
        assert!(s.nnz() > crate::matrix::PAR_THRESHOLD);
        let x: Vector<f64> = (0..n).map(|i| ((i * 31) % 17) as f64 / 17.0).collect();
        assert_eq!(s.matvec(&x).as_slice(), d.matvec(&x).as_slice());
    }

    #[test]
    #[should_panic]
    fn out_of_range_triplet_panics() {
        let _ = SparseMatrix::<f64>::from_triplets(2, 2, &[(2, 0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "col 5 out of range")]
    fn single_out_of_range_column_is_rejected_at_construction() {
        // Regression: with a single triplet the sort never evaluates its key,
        // so validation must not live inside the sort closure.
        let _ = SparseMatrix::<f64>::from_triplets(2, 2, &[(0, 5, 1.0)]);
    }
}
