//! Tridiagonal matrices and the 1-D Poisson model problem.
//!
//! Section III-C4 of the paper uses the finite-difference discretisation of
//! the one-dimensional Poisson equation `-u''(x) = f(x)` with homogeneous
//! Dirichlet boundary conditions as a running example (Eq. (7)): the matrix is
//! `(1/h²) tridiag(-1, 2, -1)` with `h = 1/(N+1)`.  This module provides that
//! matrix, a compact tridiagonal storage format with an O(N) Thomas solver
//! (the "current classical solvers are efficient at solving this type of
//! linear systems in O(N) flops" remark of the paper), its exact eigenvalues
//! and condition number, and the associated exact solution machinery used by
//! the Poisson example and benchmarks.

use crate::inner::InnerSolver;
use crate::lu::LinalgError;
use crate::matrix::{par_map_rows, Matrix};
use crate::operator::LinearOperator;
use crate::scalar::Real;
use crate::sparse::SparseMatrix;
use crate::vector::Vector;

/// A tridiagonal matrix stored as three diagonals.
#[derive(Debug, Clone, PartialEq)]
pub struct TridiagonalMatrix<T: Real> {
    /// Sub-diagonal (length n-1).
    pub lower: Vec<T>,
    /// Main diagonal (length n).
    pub diag: Vec<T>,
    /// Super-diagonal (length n-1).
    pub upper: Vec<T>,
}

impl<T: Real> TridiagonalMatrix<T> {
    /// Build from the three diagonals.
    pub fn new(lower: Vec<T>, diag: Vec<T>, upper: Vec<T>) -> Self {
        assert_eq!(
            diag.len().saturating_sub(1),
            lower.len(),
            "lower diagonal length"
        );
        assert_eq!(
            diag.len().saturating_sub(1),
            upper.len(),
            "upper diagonal length"
        );
        TridiagonalMatrix { lower, diag, upper }
    }

    /// Constant-coefficient tridiagonal `tridiag(a, b, c)` of order n.
    pub fn constant(n: usize, a: T, b: T, c: T) -> Self {
        TridiagonalMatrix {
            lower: vec![a; n.saturating_sub(1)],
            diag: vec![b; n],
            upper: vec![c; n.saturating_sub(1)],
        }
    }

    /// Order of the matrix.
    pub fn order(&self) -> usize {
        self.diag.len()
    }

    /// Matrix-vector product in O(N), row-partitioned across threads above
    /// the shared work threshold (the same rayon pattern as
    /// `Matrix::matvec`; each output row reads only `x[i−1..=i+1]`, so the
    /// result is bit-identical at any thread count).
    pub fn matvec(&self, x: &Vector<T>) -> Vector<T> {
        let n = self.order();
        assert_eq!(x.len(), n, "tridiagonal matvec: dimension mismatch");
        let xs = x.as_slice();
        par_map_rows(
            3 * n,
            n,
            #[inline(always)]
            |i| {
                let mut s = self.diag[i] * xs[i];
                if i > 0 {
                    s = self.lower[i - 1].mul_add(xs[i - 1], s);
                }
                if i + 1 < n {
                    s = self.upper[i].mul_add(xs[i + 1], s);
                }
                s
            },
        )
    }

    /// Transposed matrix-vector product `Tᵀ x` in O(N) (the transpose of a
    /// tridiagonal matrix swaps the sub- and super-diagonals).
    pub fn matvec_transposed(&self, x: &Vector<T>) -> Vector<T> {
        let n = self.order();
        assert_eq!(
            x.len(),
            n,
            "tridiagonal matvec_transposed: dimension mismatch"
        );
        let xs = x.as_slice();
        par_map_rows(
            3 * n,
            n,
            #[inline(always)]
            |i| {
                let mut s = self.diag[i] * xs[i];
                if i > 0 {
                    s = self.upper[i - 1].mul_add(xs[i - 1], s);
                }
                if i + 1 < n {
                    s = self.lower[i].mul_add(xs[i + 1], s);
                }
                s
            },
        )
    }

    /// Number of stored diagonal entries (`3N − 2` for N ≥ 1).
    pub fn nnz(&self) -> usize {
        self.diag.len() + self.lower.len() + self.upper.len()
    }

    /// Convert into CSR form (entries in row-major, column-sorted order).
    pub fn to_sparse(&self) -> SparseMatrix<T> {
        let n = self.order();
        let mut triplets = Vec::with_capacity(self.nnz());
        for i in 0..n {
            if i > 0 {
                triplets.push((i, i - 1, self.lower[i - 1]));
            }
            triplets.push((i, i, self.diag[i]));
            if i + 1 < n {
                triplets.push((i, i + 1, self.upper[i]));
            }
        }
        SparseMatrix::from_triplets(n, n, &triplets)
    }

    /// Solve `T x = b` with the Thomas algorithm (no pivoting), O(N) flops,
    /// reporting pivot breakdown instead of silently returning inf/NaN.
    ///
    /// Thomas does not pivot, so a pivot with magnitude at or below the
    /// scaled threshold `4·u·max|entry|` means the elimination is about to
    /// amplify rounding errors unboundedly (or divide by zero outright, as
    /// for the perfectly conditioned `[[0,1],[1,0]]`).  Such systems return
    /// [`LinalgError::Singular`]; the inner-solver layer
    /// ([`crate::inner::FactorizableOperator`]) reacts by falling back to
    /// pivoted dense LU.
    pub fn try_solve_thomas(&self, b: &Vector<T>) -> Result<Vector<T>, LinalgError> {
        crate::inner::ThomasFactorization::new(self)?.solve(b)
    }

    /// Infallible Thomas solve for systems known to be safe without pivoting
    /// (diagonally dominant or symmetric positive definite, such as the
    /// Poisson matrix).
    ///
    /// # Panics
    /// Panics on pivot breakdown or a dimension mismatch — use
    /// [`TridiagonalMatrix::try_solve_thomas`] when the input is not known to
    /// be diagonally dominant / SPD.
    pub fn solve_thomas(&self, b: &Vector<T>) -> Vector<T> {
        self.try_solve_thomas(b)
            .expect("Thomas breakdown: matrix is not safe for unpivoted elimination (use try_solve_thomas or factorize)")
    }

    /// Entrywise conversion to another precision.
    pub fn convert<S: Real>(&self) -> TridiagonalMatrix<S> {
        let conv = |xs: &[T]| xs.iter().map(|&x| S::from_f64(x.to_f64())).collect();
        TridiagonalMatrix {
            lower: conv(&self.lower),
            diag: conv(&self.diag),
            upper: conv(&self.upper),
        }
    }

    /// Densify into a full matrix.
    pub fn to_dense(&self) -> Matrix<T> {
        let n = self.order();
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = self.diag[i];
            if i > 0 {
                m[(i, i - 1)] = self.lower[i - 1];
            }
            if i + 1 < n {
                m[(i, i + 1)] = self.upper[i];
            }
        }
        m
    }
}

impl<T: Real> LinearOperator<T> for TridiagonalMatrix<T> {
    fn nrows(&self) -> usize {
        self.order()
    }

    fn ncols(&self) -> usize {
        self.order()
    }

    fn matvec(&self, x: &Vector<T>) -> Vector<T> {
        TridiagonalMatrix::matvec(self, x)
    }

    fn matvec_transposed(&self, x: &Vector<T>) -> Vector<T> {
        TridiagonalMatrix::matvec_transposed(self, x)
    }

    fn nnz(&self) -> usize {
        TridiagonalMatrix::nnz(self)
    }

    fn to_dense(&self) -> Matrix<T> {
        TridiagonalMatrix::to_dense(self)
    }

    fn norm_inf(&self) -> T {
        let n = self.order();
        (0..n)
            .map(|i| {
                let mut s = self.diag[i].abs();
                if i > 0 {
                    s += self.lower[i - 1].abs();
                }
                if i + 1 < n {
                    s += self.upper[i].abs();
                }
                s
            })
            .fold(T::zero(), |acc, s| acc.max(s))
    }

    fn norm_frobenius(&self) -> T {
        let sum_sq = |xs: &[T]| xs.iter().fold(T::zero(), |acc, &x| x.mul_add(x, acc));
        (sum_sq(&self.diag) + sum_sq(&self.lower) + sum_sq(&self.upper)).sqrt()
    }
}

/// The 1-D Poisson (second-difference) matrix of Eq. (7):
/// `(1/h²) tridiag(-1, 2, -1)` of order `n` with `h = 1/(n+1)`.
///
/// When `scaled_by_h2` is false the factor `1/h²` is omitted, giving the pure
/// `tridiag(-1, 2, -1)` stencil whose spectrum lies in `(0, 4)` — the form
/// most convenient for block-encoding since the spectral norm is bounded by 4
/// independently of `n`.
pub fn poisson_1d<T: Real>(n: usize, scaled_by_h2: bool) -> TridiagonalMatrix<T> {
    let h = 1.0 / (n as f64 + 1.0);
    let scale = if scaled_by_h2 { 1.0 / (h * h) } else { 1.0 };
    TridiagonalMatrix::constant(
        n,
        T::from_f64(-scale),
        T::from_f64(2.0 * scale),
        T::from_f64(-scale),
    )
}

/// Exact eigenvalues of the unscaled `tridiag(-1, 2, -1)` matrix of order n:
/// `λ_k = 2 - 2 cos(kπ/(n+1)) = 4 sin²(kπ/(2(n+1)))`, k = 1..n.
pub fn poisson_1d_eigenvalues(n: usize) -> Vec<f64> {
    (1..=n)
        .map(|k| {
            let t = (k as f64) * std::f64::consts::PI / (2.0 * (n as f64 + 1.0));
            4.0 * t.sin().powi(2)
        })
        .collect()
}

/// Exact 2-norm condition number of the Poisson matrix of order n
/// (independent of the 1/h² scaling), which grows as O(N²) as noted in
/// Section III-C4 of the paper.
pub fn poisson_1d_condition_number(n: usize) -> f64 {
    let ev = poisson_1d_eigenvalues(n);
    let max = ev.iter().cloned().fold(f64::MIN, f64::max);
    let min = ev.iter().cloned().fold(f64::MAX, f64::min);
    max / min
}

/// Sample the right-hand side `f_j = f(j h)` on the interior grid of the
/// Poisson problem, with `h = 1/(n+1)`.
pub fn poisson_rhs<T: Real>(n: usize, f: impl Fn(f64) -> f64) -> Vector<T> {
    let h = 1.0 / (n as f64 + 1.0);
    (1..=n).map(|j| T::from_f64(f(j as f64 * h))).collect()
}

/// Sample a continuous function on the interior grid (used to compare the
/// discrete solution against the analytic solution of the ODE).
pub fn sample_on_grid<T: Real>(n: usize, u: impl Fn(f64) -> f64) -> Vector<T> {
    let h = 1.0 / (n as f64 + 1.0);
    (1..=n).map(|j| T::from_f64(u(j as f64 * h))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::cond_2;
    use crate::lu::lu_solve;

    #[test]
    fn dense_poisson_matches_equation_7() {
        let t = poisson_1d::<f64>(4, true);
        let d = t.to_dense();
        let h = 1.0 / 5.0;
        let s = 1.0 / (h * h);
        assert!((d[(0, 0)] - 2.0 * s).abs() < 1e-10);
        assert!((d[(0, 1)] + s).abs() < 1e-10);
        assert_eq!(d[(0, 2)], 0.0);
        assert!(d.is_symmetric(1e-12));
    }

    #[test]
    fn matvec_agrees_with_dense() {
        let t = poisson_1d::<f64>(8, false);
        let d = t.to_dense();
        let x: Vector<f64> = (0..8).map(|i| (i as f64).sin()).collect();
        assert!((&t.matvec(&x) - &d.matvec(&x)).norm2() < 1e-13);
    }

    #[test]
    fn thomas_solver_matches_lu() {
        let t = poisson_1d::<f64>(16, true);
        let d = t.to_dense();
        let b: Vector<f64> = (0..16).map(|i| 1.0 + (i as f64) * 0.1).collect();
        let x_thomas = t.solve_thomas(&b);
        let x_lu = lu_solve(&d, &b).unwrap();
        assert!((&x_thomas - &x_lu).norm2() < 1e-8);
        assert!((&t.matvec(&x_thomas) - &b).norm2() / b.norm2() < 1e-12);
    }

    #[test]
    fn eigenvalues_match_dense_spectrum_extremes() {
        let n = 8;
        let ev = poisson_1d_eigenvalues(n);
        let t = poisson_1d::<f64>(n, false);
        let kappa_analytic = poisson_1d_condition_number(n);
        let kappa_numeric = cond_2(&t.to_dense());
        assert!((kappa_analytic - kappa_numeric).abs() / kappa_analytic < 1e-8);
        assert!(ev.iter().all(|&l| l > 0.0 && l < 4.0));
    }

    #[test]
    fn condition_number_grows_quadratically() {
        // κ(N) ≈ (2(N+1)/π)² for large N; check the ratio for doubling N.
        let k16 = poisson_1d_condition_number(16);
        let k32 = poisson_1d_condition_number(32);
        let ratio = k32 / k16;
        assert!((ratio - 4.0).abs() < 0.5, "ratio {ratio} should be ≈ 4");
    }

    #[test]
    fn poisson_discretisation_converges_to_analytic_solution() {
        // -u'' = π² sin(πx), u(0)=u(1)=0 has exact solution u(x) = sin(πx).
        let f = |x: f64| std::f64::consts::PI.powi(2) * (std::f64::consts::PI * x).sin();
        let u_exact = |x: f64| (std::f64::consts::PI * x).sin();
        let mut prev_err = f64::MAX;
        for &n in &[8usize, 16, 32] {
            let t = poisson_1d::<f64>(n, true);
            let b = poisson_rhs::<f64>(n, f);
            let u = t.solve_thomas(&b);
            let u_true = sample_on_grid::<f64>(n, u_exact);
            let err = (&u - &u_true).norm_inf();
            assert!(err < prev_err, "discretisation error must decrease with n");
            prev_err = err;
        }
        assert!(prev_err < 1e-3);
    }

    #[test]
    fn transposed_matvec_and_sparse_conversion_match_dense() {
        let t = TridiagonalMatrix::new(
            vec![1.0, -2.0, 0.5],
            vec![4.0, 5.0, 6.0, 7.0],
            vec![-1.0, 3.0, 2.5],
        );
        let d = t.to_dense();
        let x = Vector::from_f64_slice(&[0.3, -0.9, 1.7, 0.2]);
        assert!((&t.matvec_transposed(&x) - &d.matvec_transposed(&x)).norm2() < 1e-14);
        assert_eq!(t.to_sparse().to_dense(), d);
        assert_eq!(TridiagonalMatrix::nnz(&t), 10);
        assert_eq!(LinearOperator::norm_inf(&t), d.norm_inf());
        assert!((LinearOperator::norm_frobenius(&t) - d.norm_frobenius()).abs() < 1e-13);
    }

    #[test]
    fn large_matvec_takes_the_parallel_path_unchanged() {
        // 3N above the shared work threshold: the row-partitioned fan-out
        // must agree with the dense product (and with any thread count).
        let n = 100_000usize;
        let t = poisson_1d::<f64>(n, false);
        let x: Vector<f64> = (0..n).map(|i| ((i % 97) as f64 / 97.0) - 0.5).collect();
        let y = t.matvec(&x);
        for &i in &[0usize, 1, n / 2, n - 2, n - 1] {
            let mut expect = 2.0 * x[i];
            if i > 0 {
                expect -= x[i - 1];
            }
            if i + 1 < n {
                expect -= x[i + 1];
            }
            assert!((y[i] - expect).abs() < 1e-12, "row {i}");
        }
    }

    #[test]
    fn empty_and_single_entry_edge_cases() {
        let t1 = TridiagonalMatrix::constant(1, -1.0, 2.0, -1.0);
        let b = Vector::from_f64_slice(&[4.0]);
        let x = t1.solve_thomas(&b);
        assert_eq!(x.as_slice(), &[2.0]);
        let t0 = TridiagonalMatrix::<f64>::constant(0, 0.0, 0.0, 0.0);
        assert_eq!(t0.order(), 0);
        assert_eq!(t0.try_solve_thomas(&Vector::zeros(0)).unwrap().len(), 0);
    }

    #[test]
    fn thomas_breakdown_is_an_error_not_nan() {
        // [[0, 1], [1, 0]] is nonsingular but has a zero first pivot: the old
        // unguarded sweep returned NaN here.
        let t = TridiagonalMatrix::new(vec![1.0], vec![0.0, 0.0], vec![1.0]);
        let b = Vector::from_f64_slice(&[1.0, 2.0]);
        assert!(matches!(
            t.try_solve_thomas(&b),
            Err(LinalgError::Singular { step: 0 })
        ));
    }

    #[test]
    #[should_panic(expected = "Thomas breakdown")]
    fn infallible_wrapper_panics_on_breakdown() {
        let t = TridiagonalMatrix::new(vec![1.0], vec![0.0, 0.0], vec![1.0]);
        t.solve_thomas(&Vector::from_f64_slice(&[1.0, 2.0]));
    }

    #[test]
    fn conversion_round_trips_through_f32() {
        let t = poisson_1d::<f64>(6, false);
        let low: TridiagonalMatrix<f32> = t.convert();
        assert_eq!(low.to_dense(), t.to_dense().convert());
    }
}
