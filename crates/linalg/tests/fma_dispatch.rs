//! Bit-identity of the `avx2,fma`-dispatched kernels with baseline-compiled
//! references.
//!
//! `qls_linalg` runs its hot loops — `Vector::dot` / `norm2` / `axpy`, the
//! CSR and dense products (plain and transposed) at every precision, the CG
//! iteration over CSR and over the sliced-ELLPACK operator of
//! `SparseMatrix::factorize` — inside a runtime `avx2,fma` dispatch, where
//! each `mul_add` is one hardware `vfmadd`.  Every
//! reference below is the same loop, in the same operation order, written
//! out in this file and therefore compiled at the baseline, where `mul_add`
//! is a call into libm's `fma`.  Both are correctly rounded, so the results
//! must agree bit for bit: on every length 0..1000 (every remainder of every
//! lane and unroll width), on signed zeros and subnormals, and on ±∞ and NaN.
//! NaN results must both be NaN; IEEE 754 leaves their payload unspecified.
//!
//! The comparison only means something in a release build: a debug build
//! inlines nothing into the dispatched clone, so both sides run baseline
//! code.  CI therefore also runs this file with `--release`, and
//! [`ci_runners_take_the_fma_path`] fails on a CI runner without AVX2+FMA,
//! where the dispatch would silently compare the baseline with itself.

use qls_linalg::generate::{random_connected_graph, shifted_graph_laplacian};
use qls_linalg::{
    ConjugateGradientSolver, FactorizableOperator, InnerSolver, InnerSolverKind, Matrix, Real,
    SparseMatrix, Vector,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Equal bit patterns, or both NaN.
fn same<T: Real>(a: T, b: T) -> bool {
    let (a, b) = (a.to_f64(), b.to_f64());
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn assert_same<T: Real>(got: &[T], want: &[T], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert!(
            same(g, w),
            "{what}: entry {i}: dispatched {g:?}, baseline {w:?}"
        );
    }
}

/// Deterministic value in roughly ±[1e-3, 1e3] with a full mantissa, so
/// fused and unfused multiply-adds disagree in the last bit on most terms.
fn value(i: usize, seed: u64) -> f64 {
    let mut h = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i as u64);
    h ^= h >> 31;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 29;
    let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
    let sign = if h & 1 == 0 { 1.0 } else { -1.0 };
    sign * (1.0 + unit) * 10f64.powi((h % 7) as i32 - 3)
}

/// A finite test vector of length `n` with signed zeros and subnormals
/// mixed in at fixed strides.
fn finite_vector<T: Real>(n: usize, seed: u64, subnormal: T) -> Vector<T> {
    (0..n)
        .map(|i| match i % 13 {
            3 => T::zero(),
            7 => -T::zero(),
            11 => subnormal,
            12 => -subnormal,
            _ => T::from_f64(value(i, seed)),
        })
        .collect()
}

fn reference_dot<T: Real>(x: &[T], y: &[T]) -> T {
    x.iter()
        .zip(y)
        .fold(T::zero(), |acc, (&a, &b)| a.mul_add(b, acc))
}

/// The 2-norm rule: NaN when any entry is NaN, +∞ when any other entry is
/// infinite, and otherwise the max-scaled sequential fold.
fn reference_norm2<T: Real>(x: &[T]) -> T {
    if x.iter().any(|v| v.to_f64().is_nan()) {
        return T::from_f64(f64::NAN);
    }
    if x.iter().any(|v| !v.is_finite()) {
        return T::from_f64(f64::INFINITY);
    }
    let maxabs = x.iter().fold(T::zero(), |acc, v| acc.max(v.abs()));
    if maxabs == T::zero() {
        return T::zero();
    }
    let sum = x.iter().fold(T::zero(), |acc, &v| {
        let s = v / maxabs;
        s.mul_add(s, acc)
    });
    maxabs * sum.sqrt()
}

fn reference_axpy<T: Real>(y: &[T], alpha: T, x: &[T]) -> Vec<T> {
    y.iter()
        .zip(x)
        .map(|(&a, &b)| alpha.mul_add(b, a))
        .collect()
}

/// The CSR row fold, `Σ_k v_k·x[c_k]` in ascending column order.
fn reference_matvec<T: Real>(a: &SparseMatrix<T>, x: &[T]) -> Vec<T> {
    (0..a.nrows())
        .map(|i| {
            let (cols, vals) = a.row(i);
            cols.iter()
                .zip(vals)
                .fold(T::zero(), |acc, (&c, &v)| v.mul_add(x[c], acc))
        })
        .collect()
}

fn check_vector_kernels<T: Real>(x: &Vector<T>, y: &Vector<T>, alpha: T, what: &str) {
    let (xs, ys) = (x.as_slice(), y.as_slice());
    assert_same(
        &[x.dot(y)],
        &[reference_dot(xs, ys)],
        &format!("{what} dot"),
    );
    assert_same(
        &[x.norm2()],
        &[reference_norm2(xs)],
        &format!("{what} norm2"),
    );
    let mut z = y.clone();
    z.axpy(alpha, x);
    assert_same(
        z.as_slice(),
        &reference_axpy(ys, alpha, xs),
        &format!("{what} axpy"),
    );
}

fn vector_kernels_on_every_length<T: Real>(subnormal: T) {
    for n in 0..1000 {
        let x = finite_vector::<T>(n, 1, subnormal);
        let y = finite_vector::<T>(n, 2, subnormal);
        let alpha = T::from_f64(value(n, 3));
        check_vector_kernels(&x, &y, alpha, &format!("{} n = {n}", T::format_name()));
    }
}

#[test]
fn vector_kernels_match_the_baseline_on_every_length_f64() {
    vector_kernels_on_every_length::<f64>(5e-324);
}

#[test]
fn vector_kernels_match_the_baseline_on_every_length_f32() {
    vector_kernels_on_every_length::<f32>(1e-45);
}

fn vector_kernels_on_non_finite_values<T: Real>() {
    let specials = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    for &special in &specials {
        for n in 1..=9 {
            for at in 0..n {
                let mut x = finite_vector::<T>(n, 4, T::zero());
                x[at] = T::from_f64(special);
                let y = finite_vector::<T>(n, 5, T::zero());
                let what = format!("{} {special} at {at} of {n}", T::format_name());
                check_vector_kernels(&x, &y, T::from_f64(value(at, 6)), &what);
                check_vector_kernels(&y, &x, T::from_f64(special), &what);
            }
        }
    }
}

#[test]
fn vector_kernels_match_the_baseline_on_non_finite_values() {
    vector_kernels_on_non_finite_values::<f64>();
    vector_kernels_on_non_finite_values::<f32>();
}

/// A ragged CSR matrix: row `i` holds 0..=9 entries at pseudo-random
/// columns, with signed zeros and subnormals among the values (the builder
/// drops exact zeros, so those enter through `x`).
fn ragged_csr<T: Real>(rows: usize, cols: usize, seed: u64, subnormal: T) -> SparseMatrix<T> {
    let mut triplets = Vec::new();
    for i in 0..rows {
        let len = (value(i, seed).abs() * 1e3) as usize % 10;
        for k in 0..len {
            let c = (value(i * 16 + k, seed + 1).abs() * 1e6) as usize % cols.max(1);
            let v = if (i + k) % 17 == 5 {
                subnormal
            } else {
                T::from_f64(value(i * 16 + k, seed + 2))
            };
            triplets.push((i, c, v));
        }
    }
    SparseMatrix::from_triplets(rows, cols, &triplets)
}

fn csr_matvec_matches_the_baseline<T: Real>(subnormal: T) {
    for rows in 0..70 {
        let cols = rows.max(1);
        let a = ragged_csr::<T>(rows, cols, rows as u64, subnormal);
        let x = finite_vector::<T>(cols, 7, subnormal);
        let what = format!("{} CSR {rows}x{cols}", T::format_name());
        let got = a.matvec(&x);
        assert_same(got.as_slice(), &reference_matvec(&a, x.as_slice()), &what);
        assert_same(got.as_slice(), a.matvec_scalar(&x).as_slice(), &what);
        for special in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut xs = x.clone();
            xs[cols / 2] = T::from_f64(special);
            let got = a.matvec(&xs);
            let what = format!("{what}, x[{}] = {special}", cols / 2);
            assert_same(got.as_slice(), &reference_matvec(&a, xs.as_slice()), &what);
        }
    }
    // Above the shared work threshold the rows fan out across threads, and
    // each worker's chunk dispatches on its own.
    let big = ragged_csr::<T>(80_000, 80_000, 9, subnormal);
    assert!(
        big.nnz() > 64 * 64 * 64,
        "nnz {} is below the threshold",
        big.nnz()
    );
    let x = finite_vector::<T>(80_000, 10, subnormal);
    assert_same(
        big.matvec(&x).as_slice(),
        &reference_matvec(&big, x.as_slice()),
        &format!("{} CSR, parallel", T::format_name()),
    );
}

#[test]
fn csr_matvec_matches_the_baseline_f64() {
    csr_matvec_matches_the_baseline::<f64>(5e-324);
}

#[test]
fn csr_matvec_matches_the_baseline_f32() {
    csr_matvec_matches_the_baseline::<f32>(1e-45);
}

/// The transposed product as a column scatter in ascending row order,
/// `out[c] = fma(a_ic, x_i, out[c])` — the order of both library kernels.
fn reference_matvec_transposed<T: Real>(a: &SparseMatrix<T>, x: &[T]) -> Vec<T> {
    let mut out = vec![T::zero(); a.ncols()];
    for (i, &xi) in x.iter().enumerate() {
        let (cols, vals) = a.row(i);
        for (&c, &v) in cols.iter().zip(vals) {
            out[c] = v.mul_add(xi, out[c]);
        }
    }
    out
}

/// The dense transposed product in the same scatter order, every entry of
/// the row (zeros included) in ascending column order.
fn reference_dense_matvec_transposed<T: Real>(a: &Matrix<T>, x: &[T]) -> Vec<T> {
    let mut out = vec![T::zero(); a.ncols()];
    for (i, &xi) in x.iter().enumerate() {
        for (o, &v) in out.iter_mut().zip(a.row(i)) {
            *o = v.mul_add(xi, *o);
        }
    }
    out
}

fn transposed_matvecs_match_the_baseline<T: Real>(subnormal: T) {
    for rows in 0..70 {
        let cols = (rows + rows / 3).max(1);
        let a = ragged_csr::<T>(rows, cols, 100 + rows as u64, subnormal);
        let dense = a.to_dense();
        let x = finite_vector::<T>(rows, 12, subnormal);
        let mut inputs = vec![("finite".to_string(), x.clone())];
        if rows > 0 {
            for special in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
                let mut xs = x.clone();
                xs[rows / 2] = T::from_f64(special);
                inputs.push((format!("x[{}] = {special}", rows / 2), xs));
            }
        }
        for (label, x) in &inputs {
            let what = format!("{} transposed {rows}x{cols}, {label}", T::format_name());
            assert_same(
                a.matvec_transposed(x).as_slice(),
                &reference_matvec_transposed(&a, x.as_slice()),
                &what,
            );
            assert_same(
                dense.matvec_transposed(x).as_slice(),
                &reference_dense_matvec_transposed(&dense, x.as_slice()),
                &format!("{what}, dense"),
            );
        }
    }
}

#[test]
fn transposed_matvecs_match_the_baseline_f64() {
    transposed_matvecs_match_the_baseline::<f64>(5e-324);
}

#[test]
fn transposed_matvecs_match_the_baseline_f32() {
    transposed_matvecs_match_the_baseline::<f32>(1e-45);
}

/// Jacobi-CG in the library's operation order — `x += α p`, `r −= α A p`,
/// `z = D⁻¹ r`, `p = z + (β p)` with the product and the sum rounded
/// separately — built only from the baseline references above.
fn reference_cg(a: &SparseMatrix<f32>, b: &[f32], rel_tol: f64, max_iterations: usize) -> Vec<f32> {
    let n = b.len();
    let inv: Vec<f32> = a.diagonal().iter().map(|&d| 1.0 / d).collect();
    let precondition =
        |r: &[f32]| -> Vec<f32> { r.iter().zip(&inv).map(|(&r, &d)| r * d).collect() };
    let bnorm = reference_norm2(b);
    let tol = rel_tol as f32 * bnorm;
    let mut x = vec![0.0f32; n];
    let mut r = b.to_vec();
    let mut z = precondition(&r);
    let mut p = z.clone();
    let mut rz = reference_dot(&r, &z);
    let mut best = x.clone();
    let mut best_res = bnorm;
    for _ in 0..max_iterations {
        let ap = reference_matvec(a, &p);
        let pap = reference_dot(&p, &ap);
        assert!(pap > 0.0, "the test system is SPD");
        let alpha = rz / pap;
        x = reference_axpy(&x, alpha, &p);
        r = reference_axpy(&r, -alpha, &ap);
        let rnorm = reference_norm2(&r);
        if rnorm <= tol {
            return x;
        }
        if rnorm < best_res {
            best_res = rnorm;
            best.clone_from(&x);
        }
        z = precondition(&r);
        let rz_new = reference_dot(&r, &z);
        if rz_new == 0.0 {
            break;
        }
        let beta = rz_new / rz;
        rz = rz_new;
        p = z.iter().zip(&p).map(|(&z, &p)| z + p * beta).collect();
    }
    best
}

#[test]
fn cg_solve_matches_a_baseline_compiled_run() {
    let n = 3000;
    let mut rng = ChaCha8Rng::seed_from_u64(16);
    let edges = random_connected_graph(n, 3 * n, &mut rng);
    let a = shifted_graph_laplacian::<f32>(n, &edges, 0.5);
    let b: Vec<f32> = (0..n).map(|i| value(i, 11) as f32).collect();
    let rel_tol = 16.0 * f32::unit_roundoff();
    let solver = ConjugateGradientSolver::new(a.clone(), &a.diagonal(), rel_tol, n).unwrap();
    let got = solver.solve(&Vector::from_vec(b.clone())).unwrap();
    let want = reference_cg(&a, &b, rel_tol, n);
    assert_same(
        got.as_slice(),
        &want,
        "Jacobi-CG on a shifted graph Laplacian",
    );
}

/// The library's own inner solver — `SparseMatrix::factorize::<f32>()`,
/// which runs CG over the sliced-ELLPACK operator with the fused residual
/// pass — against the same baseline CG over the rounded CSR matrix.  At
/// n = 6000 the SpMV is above the shared work threshold, so its windows fan
/// out; the result must not depend on the thread count.
#[test]
fn factorized_cg_matches_a_baseline_compiled_run_at_any_thread_count() {
    let n = 6000;
    let mut rng = ChaCha8Rng::seed_from_u64(18);
    let edges = random_connected_graph(n, 3 * n, &mut rng);
    let a = shifted_graph_laplacian::<f64>(n, &edges, 0.5);
    assert!(a.nnz() >= 1 << 15, "nnz {} is below the threshold", a.nnz());
    let b: Vec<f32> = (0..n).map(|i| value(i, 19) as f32).collect();
    let rel_tol = 16.0 * f32::unit_roundoff();
    let low = a.convert::<f32>();
    let want = reference_cg(&low, &b, rel_tol, n);
    // Transposed solves: CG over the rounded CSR operator is the reference
    // (`Aᵀ = A` here, but a transposed solve runs the scatter kernels).
    let b = Vector::from_vec(b);
    let csr_cg = ConjugateGradientSolver::new(low.clone(), &low.diagonal(), rel_tol, n).unwrap();
    let want_t = csr_cg.solve_transposed(&b).unwrap();
    for threads in [1, 3] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let (got, got_t) = pool.install(|| {
            let solver = a.factorize::<f32>().unwrap();
            assert_eq!(solver.kind(), InnerSolverKind::ConjugateGradient);
            (
                solver.solve(&b).unwrap(),
                solver.solve_transposed(&b).unwrap(),
            )
        });
        let what = format!("factorized Jacobi-CG, {threads} thread(s)");
        assert_same(got.as_slice(), &want, &what);
        assert_same(
            got_t.as_slice(),
            want_t.as_slice(),
            &format!("{what}, transposed"),
        );
    }
}

#[test]
fn ci_runners_take_the_fma_path() {
    if cfg!(target_arch = "x86_64") && std::env::var_os("CI").is_some() {
        assert!(
            wide::runtime::avx2_fma_available(),
            "this CI runner lacks AVX2+FMA: the dispatched kernels would run \
             their baseline compilation and this suite would compare it with itself"
        );
    }
}
