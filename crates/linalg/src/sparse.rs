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
//!
//! # The inner solvers' operator: sliced ELLPACK
//!
//! CSR rows of a random graph are ragged, so a row-at-a-time SpMV spends
//! its time on mispredicted loop exits.  The Krylov inner solvers that
//! `SparseMatrix::factorize` builds therefore run on a crate-private
//! `SlicedEll` copy (SELL-C-σ, Kreutzer et al., SIAM J. Sci. Comput. 36(5),
//! 2014), built once, in one O(nnz) pass, straight from the working-precision
//! CSR, with no intermediate low-precision CSR:
//!
//! - rows are sorted by length, longest first, inside aligned windows of
//!   σ = 256 rows (stable, so equal lengths keep their order);
//! - each run of C = 8 sorted rows is a slice, stored column-major with
//!   `i32` column indices: column step `t` of the slice is 8 consecutive
//!   entries, one per row, and the slice is as wide as its longest row;
//! - a shorter row is padded after its last entry with column −1 and value
//!   −0.  The kernels gather +0 for column −1, and `fma(−0, +0, acc) = acc`
//!   exactly for every `acc`, signed zeros, ∞ and NaN included (the rule of
//!   the `f64` CSR kernel's padding, see `crate::simd`).
//!
//! Each lane accumulates one row, in ascending column order, from +0 — the
//! CSR row fold's exact operation sequence followed by exact no-ops — so the
//! sliced product is **bit-identical** to [`SparseMatrix::matvec`] at every
//! precision.  In parallel the work splits into one run of whole windows
//! per thread.  A window's rows are permuted only among themselves, so each
//! window writes only its own rows of the output and the bits do not depend
//! on the thread count.  The transposed
//! product scatters in original row order through the inverse permutation,
//! the order of [`SparseMatrix::matvec_transposed`], so transposed solves
//! match too.

use crate::matrix::{par_map_rows, par_map_rows_baseline, Matrix, PAR_THRESHOLD};
use crate::operator::LinearOperator;
use crate::scalar::Real;
use crate::simd::{self, SellKernel, SellSlices, SLICE};
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
        let mut out = vec![T::zero(); self.cols];
        simd::dispatch(
            #[inline(always)]
            || {
                for (i, &xi) in x.iter().enumerate() {
                    let (cols, vals) = self.row(i);
                    for (&c, &v) in cols.iter().zip(vals) {
                        out[c] = v.mul_add(xi, out[c]);
                    }
                }
            },
        );
        Vector::from_vec(out)
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

/// Sorting window σ of [`SlicedEll`]: rows are sorted by length within
/// aligned windows of this many rows; a parallel split never cuts a window.
const SORT_WINDOW: usize = 256;
const _: () = assert!(
    SORT_WINDOW.is_multiple_of(SLICE),
    "slices never straddle windows"
);

/// A CSR matrix re-laid out as sliced ELLPACK (SELL-C-σ with C = `SLICE`,
/// σ = `SORT_WINDOW`): the operator of the Krylov inner solvers that
/// `SparseMatrix::factorize` builds.
///
/// See the module docs for the layout.  Invariants: `perm` is a permutation
/// of `0..rows` that permutes rows only within their window; `pos` is its
/// inverse; slice `s` covers sorted positions `SLICE·s..SLICE·(s + 1)` and
/// spans `slice_ptr[s]..slice_ptr[s + 1]` of `col_idx` / `values`, whose
/// length is `SLICE ×` its longest row; each row's entries come first in its
/// lane, in ascending column order, followed by padding (column −1, value
/// −0).
#[derive(Debug, Clone)]
pub(crate) struct SlicedEll<T: Real> {
    rows: usize,
    cols: usize,
    nnz: usize,
    slice_ptr: Vec<usize>,
    col_idx: Vec<i32>,
    values: Vec<T>,
    /// Original row of each sorted position.
    perm: Vec<u32>,
    /// Sorted position of each original row.
    pos: Vec<u32>,
}

impl<T: Real> SlicedEll<T> {
    /// Build the layout in one O(nnz) pass from a CSR matrix at any
    /// precision, rounding each value to `T` as [`SparseMatrix::convert`]
    /// does.  `None` when a dimension does not fit an `i32` index.
    pub(crate) fn from_csr<S: Real>(a: &SparseMatrix<S>) -> Option<Self> {
        i32::try_from(a.rows).ok()?;
        i32::try_from(a.cols).ok()?;
        let len = |r: u32| a.row_ptr[r as usize + 1] - a.row_ptr[r as usize];
        let mut perm: Vec<u32> = (0..a.rows as u32).collect();
        for window in perm.chunks_mut(SORT_WINDOW) {
            window.sort_by_key(|&r| std::cmp::Reverse(len(r)));
        }
        let mut slice_ptr = Vec::with_capacity(a.rows.div_ceil(SLICE) + 1);
        slice_ptr.push(0);
        let mut end = 0;
        for slice in perm.chunks(SLICE) {
            end += SLICE * slice.iter().map(|&r| len(r)).max().unwrap_or(0);
            slice_ptr.push(end);
        }
        let mut col_idx = vec![-1i32; end];
        let mut values = vec![-T::zero(); end];
        let mut pos = vec![0u32; a.rows];
        for (s, slice) in perm.chunks(SLICE).enumerate() {
            for (l, &r) in slice.iter().enumerate() {
                pos[r as usize] = (SLICE * s + l) as u32;
                let (cols, vals) = a.row(r as usize);
                let lane = (slice_ptr[s] + l..).step_by(SLICE);
                for ((k, &c), &v) in lane.zip(cols).zip(vals) {
                    col_idx[k] = c as i32;
                    values[k] = T::from_f64(v.to_f64());
                }
            }
        }
        Some(SlicedEll {
            rows: a.rows,
            cols: a.cols,
            nnz: a.nnz(),
            slice_ptr,
            col_idx,
            values,
            perm,
            pos,
        })
    }

    /// The slices of sorted positions `span` (which starts on a slice
    /// boundary).
    fn slices(&self, span: std::ops::Range<usize>) -> SellSlices<'_> {
        SellSlices {
            slice_ptr: &self.slice_ptr[span.start / SLICE..=span.end.div_ceil(SLICE)],
            col_idx: &self.col_idx,
            rows: &self.perm[span],
        }
    }

    /// `A x` through `kernel`, in parallel above the shared work threshold:
    /// each thread takes a run of whole sorting windows, and a window's rows
    /// are permuted only among themselves, so each window writes exactly its
    /// own chunk of `out`.
    pub(crate) fn matvec_with(&self, x: &Vector<T>, kernel: SellKernel<T>) -> Vector<T> {
        assert_eq!(self.cols, x.len(), "sliced matvec: dimension mismatch");
        let xs = x.as_slice();
        let mut out = vec![T::zero(); self.rows];
        if self.nnz >= PAR_THRESHOLD {
            out.par_chunks_mut(SORT_WINDOW)
                .enumerate()
                .for_each(|(w, chunk)| {
                    let row0 = w * SORT_WINDOW;
                    let slices = self.slices(row0..row0 + chunk.len());
                    kernel(slices, &self.values, xs, chunk, row0);
                });
        } else {
            kernel(self.slices(0..self.rows), &self.values, xs, &mut out, 0);
        }
        Vector::from_vec(out)
    }

    /// The stored entries of row `i` (no padding), ascending columns.
    fn row(&self, i: usize) -> impl Iterator<Item = (usize, T)> + '_ {
        let k = self.pos[i] as usize;
        let (s, lane) = (k / SLICE, k % SLICE);
        (self.slice_ptr[s] + lane..self.slice_ptr[s + 1])
            .step_by(SLICE)
            .map_while(move |t| {
                let c = usize::try_from(self.col_idx[t]).ok()?;
                Some((c, self.values[t]))
            })
    }
}

impl<T: Real> LinearOperator<T> for SlicedEll<T> {
    fn nrows(&self) -> usize {
        self.rows
    }

    fn ncols(&self) -> usize {
        self.cols
    }

    fn matvec(&self, x: &Vector<T>) -> Vector<T> {
        self.matvec_with(x, simd::sell_spmv)
    }

    /// `Aᵀ x` as a column scatter in original row order (through the
    /// inverse permutation), the operation order of
    /// [`SparseMatrix::matvec_transposed`], so the two agree bit for bit.
    fn matvec_transposed(&self, x: &Vector<T>) -> Vector<T> {
        assert_eq!(
            self.rows,
            x.len(),
            "sliced matvec_transposed: dimension mismatch"
        );
        let mut out = vec![T::zero(); self.cols];
        simd::dispatch(
            #[inline(always)]
            || {
                for (i, &xi) in x.iter().enumerate() {
                    for (c, v) in self.row(i) {
                        out[c] = v.mul_add(xi, out[c]);
                    }
                }
            },
        );
        Vector::from_vec(out)
    }

    fn nnz(&self) -> usize {
        self.nnz
    }

    fn to_dense(&self) -> Matrix<T> {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (c, v) in self.row(i) {
                m[(i, c)] = v;
            }
        }
        m
    }

    fn norm_inf(&self) -> T {
        (0..self.rows)
            .map(|i| self.row(i).fold(T::zero(), |acc, (_, v)| acc + v.abs()))
            .fold(T::zero(), |acc, s| acc.max(s))
    }

    fn norm_frobenius(&self) -> T {
        let entries = || (0..self.rows).flat_map(|i| self.row(i).map(|(_, v)| v));
        let maxabs = entries().fold(T::zero(), |acc, v| acc.max(v.abs()));
        if maxabs == T::zero() {
            return T::zero();
        }
        let sum = entries().fold(T::zero(), |acc, v| {
            let s = v / maxabs;
            s.mul_add(s, acc)
        });
        maxabs * sum.sqrt()
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

    // --- Sliced-ELLPACK against CSR, bit for bit ---------------------------

    /// Equal bit patterns, or both NaN.
    fn assert_same<T: Real>(got: &[T], want: &[T], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            let (g, w) = (g.to_f64(), w.to_f64());
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: row {i}: sliced {g:?}, CSR {w:?}"
            );
        }
    }

    /// A value of magnitude whose square underflows at `T`.
    fn tiny<T: Real>() -> T {
        [1e-200, 1e-30]
            .into_iter()
            .map(T::from_f64)
            .find(|&t| t != T::zero())
            .unwrap()
    }

    /// Rows of every shape the layout must handle: empty, single-entry,
    /// long rows among short ones in the same slice, and rows whose only
    /// product underflows to −0 (column 0, where the test `x` holds
    /// `−tiny`), so their sum is −0.
    fn sliced_test_csr<T: Real>(rows: usize, cols: usize) -> SparseMatrix<T> {
        let mut triplets = Vec::new();
        for i in 0..rows {
            let len = match i % 9 {
                0 => 0,
                1 => 1,
                2 if i % 4 == 2 => 37,
                _ => i % 5 + 2,
            }
            .min(cols);
            if i % 13 == 4 {
                triplets.push((i, 0, tiny::<T>()));
                continue;
            }
            let stride = 1 + (i * 7) % 5;
            for k in 0..len {
                let c = (i * 31 + k * stride) % cols;
                let v = (((i * 17 + k * 29) % 23) as f64 - 11.3) / 7.0;
                triplets.push((i, c, T::from_f64(v)));
            }
        }
        SparseMatrix::from_triplets(rows, cols, &triplets)
    }

    fn sliced_test_x<T: Real>(n: usize, seed: usize) -> Vec<T> {
        (0..n)
            .map(|j| match (j + seed) % 11 {
                _ if j == 0 => -tiny::<T>(),
                3 => T::zero(),
                5 => -T::zero(),
                7 => T::from_f64(1e-310),
                _ => T::from_f64((((j * 13 + seed) % 19) as f64 - 9.1) / 3.0),
            })
            .collect()
    }

    /// Every sliced kernel (portable, gather where this CPU has it, and the
    /// default pick), and the transposed product, against CSR.
    fn sliced_matches_csr<T: Real>(a: &SparseMatrix<T>, what: &str) {
        let sliced = SlicedEll::<T>::from_csr(a).unwrap();
        assert_eq!(LinearOperator::nnz(&sliced), a.nnz(), "{what}: nnz");
        let (n, m) = (a.nrows(), a.ncols());
        let mut inputs = vec![("finite".to_string(), sliced_test_x::<T>(m, 1))];
        if m > 1 {
            for special in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
                let mut x = sliced_test_x::<T>(m, 2);
                x[m / 2] = T::from_f64(special);
                inputs.push((format!("x[{}] = {special}", m / 2), x));
            }
        }
        let mut kernels: Vec<(&str, SellKernel<T>)> = vec![
            ("portable", simd::sell_spmv_portable),
            ("default", simd::sell_spmv),
        ];
        if simd::sell_gather_available::<T>() {
            kernels.push(("gather", simd::sell_spmv_gather));
        }
        for (label, x) in inputs {
            let x = Vector::from_vec(x);
            let want = a.matvec_scalar(&x);
            assert_same(a.matvec(&x).as_slice(), want.as_slice(), what);
            for &(name, kernel) in &kernels {
                let what = format!("{what}, {label}, {name} kernel");
                assert_same(
                    sliced.matvec_with(&x, kernel).as_slice(),
                    want.as_slice(),
                    &what,
                );
            }
            let y: Vector<T> = if n == m {
                x.clone()
            } else {
                Vector::from_vec(sliced_test_x::<T>(n, 3))
            };
            assert_same(
                LinearOperator::matvec_transposed(&sliced, &y).as_slice(),
                a.matvec_transposed(&y).as_slice(),
                &format!("{what}, {label}, transposed"),
            );
        }
    }

    fn sliced_equivalence<T: Real>() {
        for threads in [1, 3] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                // n off every multiple of SLICE and SORT_WINDOW, and on some.
                for n in [1usize, 2, 7, 8, 9, 63, 255, 256, 257, 700, 1031] {
                    for m in [n, n + 5] {
                        let a = sliced_test_csr::<T>(n, m);
                        let what = format!("{} {n}x{m}, {threads} thread(s)", T::format_name());
                        sliced_matches_csr(&a, &what);
                    }
                }
                // Above the work threshold the windows fan out.
                let n = 40 * SORT_WINDOW + 3;
                let a = sliced_test_csr::<T>(n, n);
                assert!(a.nnz() >= PAR_THRESHOLD, "nnz {}", a.nnz());
                let what = format!("{} parallel, {threads} thread(s)", T::format_name());
                sliced_matches_csr(&a, &what);
            });
        }
    }

    #[test]
    fn sliced_ellpack_is_bit_identical_to_csr_f64() {
        sliced_equivalence::<f64>();
    }

    #[test]
    fn sliced_ellpack_is_bit_identical_to_csr_f32() {
        sliced_equivalence::<f32>();
    }

    #[test]
    fn sliced_ellpack_is_bit_identical_to_csr_emulated() {
        sliced_equivalence::<crate::precision::Half>();
    }

    #[test]
    fn sliced_ellpack_rounds_like_convert_and_keeps_the_operator() {
        let a = sliced_test_csr::<f64>(300, 305);
        let low = a.convert::<f32>();
        let sliced = SlicedEll::<f32>::from_csr(&a).unwrap();
        assert_eq!(LinearOperator::to_dense(&sliced), low.to_dense());
        let (ni, nf) = (
            LinearOperator::norm_inf(&sliced),
            LinearOperator::norm_frobenius(&sliced),
        );
        assert_eq!(ni.to_bits(), LinearOperator::norm_inf(&low).to_bits());
        assert_eq!(nf.to_bits(), LinearOperator::norm_frobenius(&low).to_bits());
        let x: Vector<f32> = Vector::from_vec(sliced_test_x(305, 4));
        assert_same(
            LinearOperator::matvec(&sliced, &x).as_slice(),
            low.matvec_scalar(&x).as_slice(),
            "f64 CSR built straight to f32",
        );
        // The column-major slices pad every lane to its slice's longest row.
        assert!(sliced.values.len() >= a.nnz() && sliced.values.len().is_multiple_of(SLICE));
        assert_eq!(
            SlicedEll::<f64>::from_csr(&SparseMatrix::<f64>::from_triplets(0, 0, &[]))
                .unwrap()
                .values
                .len(),
            0
        );
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
