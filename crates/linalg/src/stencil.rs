//! Matrix-free Kronecker-sum stencil operators and the 2-D Poisson problem.
//!
//! The 2-D analogue of the paper's Poisson running example (Section III-C4)
//! discretises `−Δu = f` on the unit square with homogeneous Dirichlet
//! boundary conditions: the matrix is the Kronecker sum
//! `A = T_x ⊗ I_ny + I_nx ⊗ T_y` of two 1-D second-difference matrices — the
//! classic five-point stencil.  At `N = nx·ny` unknowns the dense form costs
//! O(N²) memory; [`StencilOperator`] stores **five scalars** and applies the
//! operator in O(N), which is what lets the classical residual path of the
//! hybrid refiner scale to grids of tens of thousands of unknowns.
//!
//! The matvec visits the five neighbours of every grid point in increasing
//! column order with the same fused multiply-adds as the dense kernel, so the
//! product is **bit-identical** to `to_dense().matvec(..)` — the stencil can
//! replace the dense matrix inside the refinement loop without changing a
//! single bit of the convergence history (verified by the end-to-end
//! equivalence tests).

use crate::matrix::{par_map_rows, Matrix};
use crate::operator::LinearOperator;
use crate::scalar::Real;
use crate::sparse::SparseMatrix;
use crate::vector::Vector;

/// A matrix-free five-point stencil on an `nx × ny` grid with Dirichlet
/// (zero) boundary conditions.
///
/// Grid point `(ix, iy)` maps to the flat index `ix·ny + iy`; the operator
/// couples it to itself with `center`, to `(ix±1, iy)` with `off_x` and to
/// `(ix, iy±1)` with `off_y`.  The represented matrix is symmetric (a
/// Kronecker sum of symmetric tridiagonal factors), so the transposed matvec
/// is the matvec itself.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilOperator<T: Real> {
    nx: usize,
    ny: usize,
    center: T,
    off_x: T,
    off_y: T,
}

impl<T: Real> StencilOperator<T> {
    /// Build a five-point stencil with the given coefficients.
    pub fn new(nx: usize, ny: usize, center: T, off_x: T, off_y: T) -> Self {
        assert!(nx >= 1 && ny >= 1, "stencil grid must be non-empty");
        StencilOperator {
            nx,
            ny,
            center,
            off_x,
            off_y,
        }
    }

    /// Grid dimensions `(nx, ny)`.
    pub fn grid_dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Order of the represented matrix, `N = nx·ny`.
    pub fn order(&self) -> usize {
        self.nx * self.ny
    }

    /// The stencil coefficients `(center, off_x, off_y)`.
    pub fn coefficients(&self) -> (T, T, T) {
        (self.center, self.off_x, self.off_y)
    }

    /// Number of stored matrix entries the five-point coupling represents.
    pub fn stencil_nnz(&self) -> usize {
        let (nx, ny) = (self.nx, self.ny);
        nx * ny + 2 * (nx - 1) * ny + 2 * nx * (ny - 1)
    }

    /// Apply the stencil in O(N), without ever materialising the matrix.
    ///
    /// Neighbours are accumulated in increasing column order
    /// (`ix−1 → iy−1 → centre → iy+1 → ix+1`) so the result is bit-identical
    /// to the dense matvec of [`StencilOperator::to_dense`].
    pub fn matvec(&self, x: &Vector<T>) -> Vector<T> {
        let n = self.order();
        assert_eq!(x.len(), n, "stencil matvec: dimension mismatch");
        let xs = x.as_slice();
        let ny = self.ny;
        let (center, off_x, off_y) = (self.center, self.off_x, self.off_y);
        par_map_rows(
            self.stencil_nnz(),
            n,
            #[inline(always)]
            |k| {
                let iy = k % ny;
                let mut acc = T::zero();
                if k >= ny {
                    acc = off_x.mul_add(xs[k - ny], acc);
                }
                if iy > 0 {
                    acc = off_y.mul_add(xs[k - 1], acc);
                }
                acc = center.mul_add(xs[k], acc);
                if iy + 1 < ny {
                    acc = off_y.mul_add(xs[k + 1], acc);
                }
                if k + ny < n {
                    acc = off_x.mul_add(xs[k + ny], acc);
                }
                acc
            },
        )
    }

    /// Materialise the stencil as a CSR matrix (useful for comparisons and
    /// for feeding constructors that want explicit sparsity).
    pub fn to_sparse(&self) -> SparseMatrix<T> {
        let n = self.order();
        let ny = self.ny;
        let mut triplets = Vec::with_capacity(self.stencil_nnz());
        for k in 0..n {
            let iy = k % ny;
            if k >= ny {
                triplets.push((k, k - ny, self.off_x));
            }
            if iy > 0 {
                triplets.push((k, k - 1, self.off_y));
            }
            triplets.push((k, k, self.center));
            if iy + 1 < ny {
                triplets.push((k, k + 1, self.off_y));
            }
            if k + ny < n {
                triplets.push((k, k + ny, self.off_x));
            }
        }
        SparseMatrix::from_triplets(n, n, &triplets)
    }

    /// Densify into a full matrix.
    pub fn to_dense(&self) -> Matrix<T> {
        self.to_sparse().to_dense()
    }

    /// Convert the five coefficients to another precision (O(1): the grid is
    /// never materialised).
    pub fn convert<S: Real>(&self) -> StencilOperator<S> {
        StencilOperator {
            nx: self.nx,
            ny: self.ny,
            center: S::from_f64(self.center.to_f64()),
            off_x: S::from_f64(self.off_x.to_f64()),
            off_y: S::from_f64(self.off_y.to_f64()),
        }
    }
}

impl<T: Real> LinearOperator<T> for StencilOperator<T> {
    fn nrows(&self) -> usize {
        self.order()
    }

    fn ncols(&self) -> usize {
        self.order()
    }

    fn matvec(&self, x: &Vector<T>) -> Vector<T> {
        StencilOperator::matvec(self, x)
    }

    fn matvec_transposed(&self, x: &Vector<T>) -> Vector<T> {
        // The Kronecker-sum stencil is symmetric.
        StencilOperator::matvec(self, x)
    }

    fn nnz(&self) -> usize {
        self.stencil_nnz()
    }

    fn to_dense(&self) -> Matrix<T> {
        StencilOperator::to_dense(self)
    }

    fn norm_inf(&self) -> T {
        // The maximum absolute row sum is attained at an interior point
        // (every boundary row is missing one or more couplings).
        let x_terms = if self.nx > 1 { 2 } else { 0 };
        let y_terms = if self.ny > 1 { 2 } else { 0 };
        let mut s = self.center.abs();
        for _ in 0..x_terms {
            s += self.off_x.abs();
        }
        for _ in 0..y_terms {
            s += self.off_y.abs();
        }
        s
    }

    fn norm_frobenius(&self) -> T {
        let (nx, ny) = (self.nx, self.ny);
        let c2 = self.center * self.center;
        let x2 = self.off_x * self.off_x;
        let y2 = self.off_y * self.off_y;
        let count = |m: usize| T::from_f64(m as f64);
        let sum =
            count(nx * ny) * c2 + count(2 * (nx - 1) * ny) * x2 + count(2 * nx * (ny - 1)) * y2;
        sum.sqrt()
    }
}

/// A matrix-free `(2d+1)`-point stencil on a d-dimensional grid with
/// Dirichlet (zero) boundary conditions — the d-dimensional generalisation of
/// [`StencilOperator`] that makes 3-D Poisson (and beyond) affordable.
///
/// Grid point `(c_0, …, c_{d−1})` on a `dims[0] × … × dims[d−1]` grid maps to
/// the row-major flat index `Σ c_a·stride_a` (`stride_{d−1} = 1`); the
/// operator couples it to itself with `center` and to its two neighbours
/// along axis `a` with `offs[a]`.  The represented matrix is the Kronecker
/// sum of symmetric tridiagonal factors, so the transposed matvec is the
/// matvec itself.
///
/// Neighbours are accumulated in increasing column order (minus-neighbours by
/// decreasing stride, centre, plus-neighbours by increasing stride) with the
/// same fused multiply-adds as the dense kernel, so the matvec is
/// **bit-identical** to `to_dense().matvec(..)` — the same oracle contract as
/// the 2-D stencil and the CSR layer.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilNd<T: Real> {
    dims: Vec<usize>,
    strides: Vec<usize>,
    center: T,
    offs: Vec<T>,
}

impl<T: Real> StencilNd<T> {
    /// Build a d-dimensional stencil with the given per-axis couplings.
    pub fn new(dims: &[usize], center: T, offs: &[T]) -> Self {
        assert!(!dims.is_empty(), "stencil needs at least one axis");
        assert!(
            dims.iter().all(|&d| d >= 1),
            "stencil grid must be non-empty"
        );
        assert_eq!(dims.len(), offs.len(), "one coupling per axis");
        let d = dims.len();
        let mut strides = vec![1usize; d];
        for a in (0..d - 1).rev() {
            strides[a] = strides[a + 1] * dims[a + 1];
        }
        StencilNd {
            dims: dims.to_vec(),
            strides,
            center,
            offs: offs.to_vec(),
        }
    }

    /// Grid extents per axis.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Order of the represented matrix, `N = Π dims[a]`.
    pub fn order(&self) -> usize {
        self.dims.iter().product()
    }

    /// The centre coefficient.
    pub fn center(&self) -> T {
        self.center
    }

    /// The per-axis neighbour couplings.
    pub fn offsets(&self) -> &[T] {
        &self.offs
    }

    /// Number of stored matrix entries the coupling pattern represents.
    pub fn stencil_nnz(&self) -> usize {
        let n = self.order();
        let mut nnz = n;
        for &d in &self.dims {
            nnz += 2 * (d - 1) * (n / d);
        }
        nnz
    }

    /// Apply the stencil in O(d·N), without ever materialising the matrix.
    pub fn matvec(&self, x: &Vector<T>) -> Vector<T> {
        let n = self.order();
        assert_eq!(x.len(), n, "stencil matvec: dimension mismatch");
        let xs = x.as_slice();
        let d = self.dims.len();
        par_map_rows(
            self.stencil_nnz(),
            n,
            #[inline(always)]
            |k| {
                let mut acc = T::zero();
                // Minus-neighbours: strides decrease with the axis index, so
                // iterating axes in order visits columns k−s_0 < … < k−s_{d−1}.
                for a in 0..d {
                    let c = (k / self.strides[a]) % self.dims[a];
                    if c > 0 {
                        acc = self.offs[a].mul_add(xs[k - self.strides[a]], acc);
                    }
                }
                acc = self.center.mul_add(xs[k], acc);
                for a in (0..d).rev() {
                    let c = (k / self.strides[a]) % self.dims[a];
                    if c + 1 < self.dims[a] {
                        acc = self.offs[a].mul_add(xs[k + self.strides[a]], acc);
                    }
                }
                acc
            },
        )
    }

    /// Materialise as CSR (entries in the matvec's column order).
    pub fn to_sparse(&self) -> SparseMatrix<T> {
        let n = self.order();
        let d = self.dims.len();
        let mut triplets = Vec::with_capacity(self.stencil_nnz());
        for k in 0..n {
            for a in 0..d {
                let c = (k / self.strides[a]) % self.dims[a];
                if c > 0 {
                    triplets.push((k, k - self.strides[a], self.offs[a]));
                }
            }
            triplets.push((k, k, self.center));
            for a in (0..d).rev() {
                let c = (k / self.strides[a]) % self.dims[a];
                if c + 1 < self.dims[a] {
                    triplets.push((k, k + self.strides[a], self.offs[a]));
                }
            }
        }
        SparseMatrix::from_triplets(n, n, &triplets)
    }

    /// Densify into a full matrix.
    pub fn to_dense(&self) -> Matrix<T> {
        self.to_sparse().to_dense()
    }

    /// Convert the coefficients to another precision (O(d)).
    pub fn convert<S: Real>(&self) -> StencilNd<S> {
        StencilNd {
            dims: self.dims.clone(),
            strides: self.strides.clone(),
            center: S::from_f64(self.center.to_f64()),
            offs: self.offs.iter().map(|&o| S::from_f64(o.to_f64())).collect(),
        }
    }
}

impl<T: Real> LinearOperator<T> for StencilNd<T> {
    fn nrows(&self) -> usize {
        self.order()
    }

    fn ncols(&self) -> usize {
        self.order()
    }

    fn matvec(&self, x: &Vector<T>) -> Vector<T> {
        StencilNd::matvec(self, x)
    }

    fn matvec_transposed(&self, x: &Vector<T>) -> Vector<T> {
        // The Kronecker-sum stencil is symmetric.
        StencilNd::matvec(self, x)
    }

    fn nnz(&self) -> usize {
        self.stencil_nnz()
    }

    fn to_dense(&self) -> Matrix<T> {
        StencilNd::to_dense(self)
    }

    fn norm_inf(&self) -> T {
        // Maximum absolute row sum: a point as interior as each axis allows
        // (min(2, dims[a]−1) neighbours along axis a).
        let mut s = self.center.abs();
        for (a, &dim) in self.dims.iter().enumerate() {
            for _ in 0..2.min(dim - 1) {
                s += self.offs[a].abs();
            }
        }
        s
    }

    fn norm_frobenius(&self) -> T {
        let n = self.order();
        let count = |m: usize| T::from_f64(m as f64);
        let mut sum = count(n) * self.center * self.center;
        for (a, &dim) in self.dims.iter().enumerate() {
            sum += count(2 * (dim - 1) * (n / dim)) * self.offs[a] * self.offs[a];
        }
        sum.sqrt()
    }
}

/// The d-dimensional Poisson operator on the interior grid of the unit
/// hypercube with Dirichlet boundary conditions: the Kronecker sum of 1-D
/// second-difference factors along every axis.
///
/// With `scaled_by_h2` each axis carries its `1/h_a²` factor
/// (`h_a = 1/(dims[a]+1)`); without it, the pure stencil with
/// `center = 2d`, `off = −1`, whose spectrum lies in `(0, 4d)`.
pub fn poisson_nd<T: Real>(dims: &[usize], scaled_by_h2: bool) -> StencilNd<T> {
    let scales: Vec<f64> = dims
        .iter()
        .map(|&d| {
            if scaled_by_h2 {
                let h = 1.0 / (d as f64 + 1.0);
                1.0 / (h * h)
            } else {
                1.0
            }
        })
        .collect();
    let center = T::from_f64(2.0 * scales.iter().sum::<f64>());
    let offs: Vec<T> = scales.iter().map(|&s| T::from_f64(-s)).collect();
    StencilNd::new(dims, center, &offs)
}

/// The 3-D Poisson (seven-point) operator on an `nx × ny × nz` interior grid.
pub fn poisson_3d<T: Real>(nx: usize, ny: usize, nz: usize, scaled_by_h2: bool) -> StencilNd<T> {
    poisson_nd(&[nx, ny, nz], scaled_by_h2)
}

/// Exact 2-norm condition number of the **unscaled** d-dimensional Poisson
/// stencil (also valid for the `1/h²`-scaled operator on a grid with equal
/// extents): the eigenvalues are sums of per-axis 1-D eigenvalues, so the
/// extremes are sums of per-axis extremes — O(Σ dims[a]), usable at N ~ 10⁶.
pub fn poisson_nd_condition_number(dims: &[usize]) -> f64 {
    let mut min = 0.0;
    let mut max = 0.0;
    for &d in dims {
        let ev = crate::tridiag::poisson_1d_eigenvalues(d);
        min += ev.iter().cloned().fold(f64::MAX, f64::min);
        max += ev.iter().cloned().fold(f64::MIN, f64::max);
    }
    max / min
}

/// Exact 2-norm condition number of the unscaled 3-D Poisson stencil.
pub fn poisson_3d_condition_number(nx: usize, ny: usize, nz: usize) -> f64 {
    poisson_nd_condition_number(&[nx, ny, nz])
}

/// Sample `f(x, y, z)` on the interior grid of the 3-D Poisson problem,
/// flattened in the operator's row-major `(ix·ny + iy)·nz + iz` ordering.
pub fn poisson_3d_rhs<T: Real>(
    nx: usize,
    ny: usize,
    nz: usize,
    f: impl Fn(f64, f64, f64) -> f64,
) -> Vector<T> {
    let hx = 1.0 / (nx as f64 + 1.0);
    let hy = 1.0 / (ny as f64 + 1.0);
    let hz = 1.0 / (nz as f64 + 1.0);
    let mut out = Vec::with_capacity(nx * ny * nz);
    for ix in 1..=nx {
        for iy in 1..=ny {
            for iz in 1..=nz {
                out.push(T::from_f64(f(
                    ix as f64 * hx,
                    iy as f64 * hy,
                    iz as f64 * hz,
                )));
            }
        }
    }
    Vector::from_vec(out)
}

/// The 2-D Poisson (five-point) operator on an `nx × ny` interior grid of the
/// unit square with Dirichlet boundary conditions.
///
/// With `scaled_by_h2` the operator is the PDE discretisation
/// `(1/hx²)·tridiag(−1,2,−1) ⊗ I + I ⊗ (1/hy²)·tridiag(−1,2,−1)`
/// (`hx = 1/(nx+1)`, `hy = 1/(ny+1)`); without it, the pure stencil with
/// `center = 4`, `off = −1`, whose spectrum lies in `(0, 8)` — the form most
/// convenient for block-encoding (spectral norm bounded independently of N).
pub fn poisson_2d<T: Real>(nx: usize, ny: usize, scaled_by_h2: bool) -> StencilOperator<T> {
    let (sx, sy) = if scaled_by_h2 {
        let hx = 1.0 / (nx as f64 + 1.0);
        let hy = 1.0 / (ny as f64 + 1.0);
        (1.0 / (hx * hx), 1.0 / (hy * hy))
    } else {
        (1.0, 1.0)
    };
    StencilOperator::new(
        nx,
        ny,
        T::from_f64(2.0 * sx + 2.0 * sy),
        T::from_f64(-sx),
        T::from_f64(-sy),
    )
}

/// Exact eigenvalues of the **unscaled** 2-D Poisson stencil:
/// `λ_ij = 4 sin²(iπ/(2(nx+1))) + 4 sin²(jπ/(2(ny+1)))`, `i = 1..nx`,
/// `j = 1..ny`.
pub fn poisson_2d_eigenvalues(nx: usize, ny: usize) -> Vec<f64> {
    let ex = crate::tridiag::poisson_1d_eigenvalues(nx);
    let ey = crate::tridiag::poisson_1d_eigenvalues(ny);
    let mut out = Vec::with_capacity(nx * ny);
    for &lx in &ex {
        for &ly in &ey {
            out.push(lx + ly);
        }
    }
    out
}

/// Exact 2-norm condition number of the unscaled 2-D Poisson stencil
/// (also valid for the `1/h²`-scaled operator on a **square** grid, where the
/// scaling is a uniform positive factor).
pub fn poisson_2d_condition_number(nx: usize, ny: usize) -> f64 {
    let ev = poisson_2d_eigenvalues(nx, ny);
    let max = ev.iter().cloned().fold(f64::MIN, f64::max);
    let min = ev.iter().cloned().fold(f64::MAX, f64::min);
    max / min
}

/// Sample `f(x, y)` on the interior grid of the 2-D Poisson problem
/// (`x = ix·hx`, `y = iy·hy` for `ix = 1..nx`, `iy = 1..ny`), flattened in
/// the operator's `ix·ny + iy` ordering.
pub fn poisson_2d_rhs<T: Real>(nx: usize, ny: usize, f: impl Fn(f64, f64) -> f64) -> Vector<T> {
    let hx = 1.0 / (nx as f64 + 1.0);
    let hy = 1.0 / (ny as f64 + 1.0);
    let mut out = Vec::with_capacity(nx * ny);
    for ix in 1..=nx {
        for iy in 1..=ny {
            out.push(T::from_f64(f(ix as f64 * hx, iy as f64 * hy)));
        }
    }
    Vector::from_vec(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::cond_2;

    #[test]
    fn poisson_2d_matches_kronecker_sum_structure() {
        let s = poisson_2d::<f64>(3, 2, false);
        let d = s.to_dense();
        assert_eq!(d.nrows(), 6);
        assert!(d.is_symmetric(0.0));
        // Interior coupling pattern: centre 4, four neighbours -1.
        assert_eq!(d[(0, 0)], 4.0);
        assert_eq!(d[(0, 1)], -1.0); // (0,0)-(0,1): y neighbour
        assert_eq!(d[(0, 2)], -1.0); // (0,0)-(1,0): x neighbour
        assert_eq!(d[(0, 3)], 0.0);
        // No wrap-around between grid lines: (0,1) [k=1] and (1,0) [k=2]
        // are not coupled.
        assert_eq!(d[(1, 2)], 0.0);
    }

    #[test]
    fn matvec_is_bit_identical_to_dense() {
        let s = poisson_2d::<f64>(5, 4, true);
        let d = s.to_dense();
        let x: Vector<f64> = (0..20).map(|i| ((i as f64) * 0.37).sin()).collect();
        assert_eq!(s.matvec(&x).as_slice(), d.matvec(&x).as_slice());
        assert_eq!(
            LinearOperator::matvec_transposed(&s, &x).as_slice(),
            d.matvec(&x).as_slice()
        );
    }

    #[test]
    fn eigenvalues_match_dense_condition_number() {
        let kappa_analytic = poisson_2d_condition_number(4, 3);
        let kappa_numeric = cond_2(&poisson_2d::<f64>(4, 3, false).to_dense());
        assert!((kappa_analytic - kappa_numeric).abs() / kappa_analytic < 1e-8);
        assert!(poisson_2d_eigenvalues(4, 3)
            .iter()
            .all(|&l| l > 0.0 && l < 8.0));
    }

    #[test]
    fn norms_match_dense() {
        let s = poisson_2d::<f64>(4, 6, true);
        let d = s.to_dense();
        assert_eq!(LinearOperator::norm_inf(&s), d.norm_inf());
        assert!(
            (LinearOperator::norm_frobenius(&s) - d.norm_frobenius()).abs() / d.norm_frobenius()
                < 1e-14
        );
        assert_eq!(LinearOperator::nnz(&s), s.to_sparse().nnz());
    }

    #[test]
    fn rhs_sampling_follows_grid_ordering() {
        // f(x, y) = x so the sample varies only along ix (the outer index).
        let b = poisson_2d_rhs::<f64>(2, 3, |x, _| x);
        let hx = 1.0 / 3.0;
        assert!((b[0] - hx).abs() < 1e-15);
        assert!((b[2] - hx).abs() < 1e-15);
        assert!((b[3] - 2.0 * hx).abs() < 1e-15);
    }

    #[test]
    fn stencil_nd_reduces_to_the_2d_stencil_bit_for_bit() {
        let s2 = poisson_2d::<f64>(5, 4, true);
        let (c, ox, oy) = s2.coefficients();
        let snd = StencilNd::new(&[5, 4], c, &[ox, oy]);
        let x: Vector<f64> = (0..20).map(|i| ((i as f64) * 0.41).sin()).collect();
        assert_eq!(snd.matvec(&x).as_slice(), s2.matvec(&x).as_slice());
        assert_eq!(snd.to_sparse(), s2.to_sparse());
        assert_eq!(snd.stencil_nnz(), s2.stencil_nnz());
    }

    #[test]
    fn poisson_3d_matvec_is_bit_identical_to_dense() {
        let s = poisson_3d::<f64>(3, 4, 2, true);
        assert_eq!(s.order(), 24);
        let d = s.to_dense();
        assert!(d.is_symmetric(0.0));
        let x: Vector<f64> = (0..24).map(|i| ((i as f64) * 0.73).cos()).collect();
        assert_eq!(s.matvec(&x).as_slice(), d.matvec(&x).as_slice());
        assert_eq!(
            LinearOperator::matvec_transposed(&s, &x).as_slice(),
            d.matvec(&x).as_slice()
        );
    }

    #[test]
    fn poisson_3d_condition_number_matches_dense() {
        let kappa_analytic = poisson_3d_condition_number(3, 2, 4);
        let kappa_numeric = cond_2(&poisson_3d::<f64>(3, 2, 4, false).to_dense());
        assert!((kappa_analytic - kappa_numeric).abs() / kappa_analytic < 1e-8);
    }

    #[test]
    fn stencil_nd_norms_match_dense() {
        let s = poisson_3d::<f64>(4, 3, 2, true);
        let d = s.to_dense();
        assert_eq!(LinearOperator::norm_inf(&s), d.norm_inf());
        assert!(
            (LinearOperator::norm_frobenius(&s) - d.norm_frobenius()).abs() / d.norm_frobenius()
                < 1e-14
        );
        assert_eq!(LinearOperator::nnz(&s), s.to_sparse().nnz());
        // Degenerate axes (extent 1 and 2) keep the row-sum bound exact.
        let thin = poisson_nd::<f64>(&[2, 1, 5], false);
        let dt = thin.to_dense();
        assert_eq!(LinearOperator::norm_inf(&thin), dt.norm_inf());
    }

    #[test]
    fn poisson_3d_rhs_follows_row_major_ordering() {
        // f = z varies fastest (innermost axis).
        let b = poisson_3d_rhs::<f64>(2, 2, 3, |_, _, z| z);
        let hz = 1.0 / 4.0;
        assert!((b[0] - hz).abs() < 1e-15);
        assert!((b[1] - 2.0 * hz).abs() < 1e-15);
        assert!((b[3] - hz).abs() < 1e-15);
    }

    #[test]
    fn degenerate_one_dimensional_grids() {
        // ny = 1 reduces to the 1-D Poisson matrix along x.
        let s = poisson_2d::<f64>(5, 1, false);
        let t = crate::tridiag::poisson_1d::<f64>(5, false);
        // center = 2 + 2 = 4 here (both factors present); compare structure
        // against T_x + 2I instead.
        let d = s.to_dense();
        let mut expect = t.to_dense();
        for i in 0..5 {
            expect[(i, i)] += 2.0;
        }
        assert_eq!(d, expect);
    }
}
