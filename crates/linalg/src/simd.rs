//! Runtime `avx2,fma` dispatch for the crate's hot loops, the `f64x4`
//! kernels for dense matvec, CSR SpMV and the dense matrix product, and the
//! sliced-ELLPACK SpMV of the inner solvers.
//!
//! # Dispatch
//!
//! On the x86-64 baseline target (SSE2) every `mul_add` — scalar `f32`/`f64`
//! or lane-wise `f64x4` — lowers to a call into libm's `fma`, which costs
//! more than the multiply and add it replaces and blocks vectorisation.
//! [`dispatch`] runs a closure inside an `#[target_feature(enable =
//! "avx2,fma")]` function when the cached [`wide::runtime::avx2_fma_available`]
//! check passes, so the same `Real`-generic body compiles to inline `vfmadd`
//! instructions and 256-bit loads; otherwise it runs the body as compiled at
//! the baseline.  Hardware `vfmadd` and libm `fma` are both correctly rounded,
//! and the dispatched body executes the same IEEE operations in the same
//! order (Rust never contracts `a * b + c` into an fma on its own), so the
//! dispatch is unobservable in the results.
//!
//! Every hot loop of the vector, operator and inner-solver layers runs
//! through it: `Vector::dot` / `norm2` / `axpy`, the `f64x4` kernels below,
//! the CSR, tridiagonal and stencil matvecs at every precision (via
//! [`crate::matrix::par_map_rows`]) and the CG / BiCGSTAB iterations.  A
//! target feature does not cross threads, so the parallel fan-outs dispatch
//! inside each worker's chunk.  The documented oracles never dispatch:
//! `Matrix::matvec_scalar` and `Matrix::matmul_scalar` (which also serve the
//! dense products at non-`f64` precisions) and `SparseMatrix::matvec_scalar`
//! stay compiled at the baseline, so the equivalence suites compare two
//! compilations and `bench_json` measures the SIMD kernels against the plain
//! loops.
//!
//! # Lane convention: one **output** element per lane
//!
//! Every `f64x4` kernel here assigns each vector lane its own output element
//! (an output row for the matvecs, an output column within a row for
//! `matmul`) and accumulates that element in exactly the scalar kernel's
//! operation order: ascending column / ascending `k`, one fused multiply-add
//! per term, no horizontal reductions.  Splitting one row's sum across lanes
//! and reducing at the end would be faster on long rows but reassociates
//! the sum; this layout keeps every SIMD result **bit-identical** to the
//! scalar oracle (`matvec_scalar` / `matmul_scalar`), which in turn keeps
//! the crate-wide invariant that dense, CSR, tridiagonal and stencil
//! operators all produce bit-identical products.
//!
//! # Remainder convention
//!
//! Rows are processed in groups of [`LANES`] (= 4); a trailing group of
//! fewer than 4 rows falls back to the scalar loop (identical results, so
//! the split point is unobservable).  Inside `matmul`'s row-sweep the
//! columns are chunked by 4 with a scalar tail.  The CSR kernel handles
//! ragged rows by padding short lanes with `fma(−0, +0, acc) = acc + (−0)`,
//! an exact no-op for every `acc`, signed zeros included.  (`fma(0, 0, acc)`
//! is not: a row can reach `−0.0` from a `+0.0` start when a tiny negative
//! product underflows, and `−0 + (+0)` is `+0`.)  So empty rows,
//! single-entry rows and rows of wildly different lengths all stay
//! bit-identical to the scalar fold.  The `f64x4` kernels serve `T = f64`
//! only; the public entry points test `TypeId` and send other precisions
//! (`f32`, `Emulated`) to their dispatched `Real`-generic loops.
//!
//! # Sliced ELLPACK
//!
//! The inner solvers' operator (`sparse::SlicedEll`, layout in the
//! [`crate::sparse`] docs) stores 8 rows per slice column-major, so one
//! column step of a slice is 8 entries of 8 different rows.  Under
//! `avx2,fma` the `f32` kernel loads the step's 8 `i32` columns and values,
//! gathers the 8 `x` entries with one masked `vpgatherdd` and accumulates
//! with one `vfmadd`.
//! The mask is `c as u32 < x.len()`, so padding (column −1) gathers +0 and
//! no lane can read outside `x`.  Each lane is still one output row summed
//! in ascending column order, and the padding fmas `fma(−0, +0, acc)` are
//! exact no-ops, so the result is bit-identical to the CSR row fold.  `f64`,
//! `Emulated` and CPUs without AVX2 run [`sell_spmv_portable`], the same lane-by-lane
//! operation sequence in safe code under [`dispatch`]; the equivalence suite
//! calls both kernels directly.

use crate::scalar::Real;
use core::any::TypeId;
use wide::f64x4;

/// Lane width of the SIMD kernels (output rows per group).
pub(crate) const LANES: usize = 4;

/// Run `body` compiled with `avx2,fma` enabled when this CPU has both, and
/// as compiled at the baseline otherwise (see the module docs: the two runs
/// are bit-identical, only the instruction encoding differs).
///
/// Pass `body` as an `#[inline(always)]` closure.  A closure is a function
/// of its own, compiled at the baseline; only when it is inlined into the
/// `avx2,fma` clone does its code take the clone's features, and LLVM keeps
/// large closures (such as the `f64x4` kernels below) out of line otherwise.
/// Debug builds inline nothing further down (`mul_add` stays a call), so
/// they run the baseline code on both paths.
#[inline(always)]
pub(crate) fn dispatch<R>(body: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx2,fma")]
        fn accelerated<R>(body: impl FnOnce() -> R) -> R {
            body()
        }
        if wide::runtime::avx2_fma_available() {
            // SAFETY: a `target_feature` function may only run on a CPU
            // with those features, and avx2+fma presence was just verified.
            return unsafe { accelerated(body) };
        }
    }
    body()
}

/// True when the scalar type `T` is exactly `f64` (the only precision of
/// the `f64x4` kernels; everything else uses the `Real`-generic loops).
#[inline(always)]
pub(crate) fn is_f64<T: Real>() -> bool {
    TypeId::of::<T>() == TypeId::of::<f64>()
}

/// `s` as a `&[U]` when `T` is exactly `U`.
#[inline(always)]
fn cast<T: Real, U: Real>(s: &[T]) -> Option<&[U]> {
    (TypeId::of::<T>() == TypeId::of::<U>()).then(|| {
        // SAFETY: `T` and `U` are the same type; same layout, same len.
        unsafe { core::slice::from_raw_parts(s.as_ptr().cast::<U>(), s.len()) }
    })
}

/// Mutable variant of [`cast`].
#[inline(always)]
fn cast_mut<T: Real, U: Real>(s: &mut [T]) -> Option<&mut [U]> {
    (TypeId::of::<T>() == TypeId::of::<U>()).then(|| {
        // SAFETY: `T` and `U` are the same type; same layout, same len.
        unsafe { core::slice::from_raw_parts_mut(s.as_mut_ptr().cast::<U>(), s.len()) }
    })
}

/// Reinterpret a `&[T]` whose `T` the caller checked to be `f64`.
#[inline(always)]
pub(crate) fn as_f64<T: Real>(s: &[T]) -> &[f64] {
    cast(s).expect("`T` is `f64`")
}

/// Mutable variant of [`as_f64`].
#[inline(always)]
pub(crate) fn as_f64_mut<T: Real>(s: &mut [T]) -> &mut [f64] {
    cast_mut(s).expect("`T` is `f64`")
}

// ---------------------------------------------------------------------------
// Dense matvec: `a` holds `out.len()` consecutive row-major rows of width
// `cols`; lane `l` of a group accumulates output row `4g + l`.
// ---------------------------------------------------------------------------

#[inline(always)]
fn dense_matvec_body(a: &[f64], cols: usize, x: &[f64], out: &mut [f64]) {
    let mut base = 0usize;
    let mut groups = out.chunks_exact_mut(LANES);
    for group in &mut groups {
        let rows = &a[base..base + LANES * cols];
        let (r0, rest) = rows.split_at(cols);
        let (r1, rest) = rest.split_at(cols);
        let (r2, r3) = rest.split_at(cols);
        let mut acc = f64x4::ZERO;
        for j in 0..cols {
            let col = f64x4::new([r0[j], r1[j], r2[j], r3[j]]);
            acc = col.mul_add(f64x4::splat(x[j]), acc);
        }
        group.copy_from_slice(acc.as_array_ref());
        base += LANES * cols;
    }
    for o in groups.into_remainder() {
        let row = &a[base..base + cols];
        *o = row
            .iter()
            .zip(x)
            .fold(0.0f64, |acc, (&a, &b)| a.mul_add(b, acc));
        base += cols;
    }
}

/// `out[i] = Σ_j a[i][j]·x[j]` for the block of rows stored in `a`,
/// bit-identical to the scalar row fold.
pub(crate) fn dense_matvec(a: &[f64], cols: usize, x: &[f64], out: &mut [f64]) {
    dispatch(
        #[inline(always)]
        || dense_matvec_body(a, cols, x, out),
    )
}

// ---------------------------------------------------------------------------
// CSR SpMV: lane `l` of a group accumulates output row `row0 + 4g + l`; the
// group sweeps entry positions `t = 0..max_row_len`, padding exhausted lanes
// with the exact no-op `fma(-0, +0, acc)`.
// ---------------------------------------------------------------------------

#[inline(always)]
fn spmv_body(
    row_ptr: &[usize],
    col_idx: &[usize],
    values: &[f64],
    x: &[f64],
    out: &mut [f64],
    row0: usize,
) {
    let rows = out.len();
    let mut i = 0usize;
    while i + LANES <= rows {
        let mut starts = [0usize; LANES];
        let mut lens = [0usize; LANES];
        let mut max_len = 0usize;
        for l in 0..LANES {
            let r = row0 + i + l;
            starts[l] = row_ptr[r];
            lens[l] = row_ptr[r + 1] - row_ptr[r];
            max_len = max_len.max(lens[l]);
        }
        let mut acc = f64x4::ZERO;
        for t in 0..max_len {
            let mut v = [-0.0f64; LANES];
            let mut xv = [0.0f64; LANES];
            for l in 0..LANES {
                if t < lens[l] {
                    let p = starts[l] + t;
                    v[l] = values[p];
                    xv[l] = x[col_idx[p]];
                }
            }
            acc = f64x4::new(v).mul_add(f64x4::new(xv), acc);
        }
        out[i..i + LANES].copy_from_slice(acc.as_array_ref());
        i += LANES;
    }
    while i < rows {
        let span = row_ptr[row0 + i]..row_ptr[row0 + i + 1];
        out[i] = col_idx[span.clone()]
            .iter()
            .zip(&values[span])
            .fold(0.0f64, |acc, (&c, &v)| v.mul_add(x[c], acc));
        i += 1;
    }
}

/// CSR rows `row0 .. row0 + out.len()` into `out`, bit-identical to the
/// scalar per-row fold (ragged lanes padded with exact no-op fmas).
pub(crate) fn spmv(
    row_ptr: &[usize],
    col_idx: &[usize],
    values: &[f64],
    x: &[f64],
    out: &mut [f64],
    row0: usize,
) {
    dispatch(
        #[inline(always)]
        || spmv_body(row_ptr, col_idx, values, x, out, row0),
    )
}

// ---------------------------------------------------------------------------
// Sliced-ELLPACK SpMV over the layout of `sparse::SlicedEll`: slice `s` holds
// `SLICE` rows column-major, entry `t` of lane `l` at `slice_ptr[s] +
// SLICE·t + l`, and lane `l` accumulates output row `rows[SLICE·s + l]` in
// ascending column order.  Padded entries hold column −1 and value −0: they
// gather +0, and `fma(−0, +0, acc) = acc` exactly.
// ---------------------------------------------------------------------------

/// Rows per slice of the sliced-ELLPACK layout: one 256-bit `f32` vector.
pub(crate) const SLICE: usize = 8;

/// The index arrays of a run of consecutive slices of a sliced-ELLPACK
/// matrix; the values are passed alongside, at their own precision.
#[derive(Clone, Copy)]
pub(crate) struct SellSlices<'a> {
    /// Slice `s` of the run spans `slice_ptr[s]..slice_ptr[s + 1]` of the
    /// column and value arrays (`SLICE` entries per column step).
    pub slice_ptr: &'a [usize],
    /// Column of each entry, −1 for padding.
    pub col_idx: &'a [i32],
    /// Output row of each lane, slice after slice; the last slice may have
    /// fewer than `SLICE` rows (its other lanes are all padding).
    pub rows: &'a [u32],
}

/// A sliced-ELLPACK kernel `(slices, values, x, out, row0)`: writes
/// `out[rows[k] − row0]` for every lane `k` of the run.
pub(crate) type SellKernel<T> = fn(SellSlices<'_>, &[T], &[T], &mut [T], usize);

/// Write one slice's lane sums to their output rows.
#[inline(always)]
fn scatter<T: Copy>(rows: &[u32], lanes: &[T; SLICE], out: &mut [T], row0: usize) {
    for (&r, &acc) in rows.iter().zip(lanes) {
        out[r as usize - row0] = acc;
    }
}

#[inline(always)]
fn sell_portable_body<T: Real>(
    m: SellSlices<'_>,
    values: &[T],
    x: &[T],
    out: &mut [T],
    row0: usize,
) {
    for (s, rows) in m.rows.chunks(SLICE).enumerate() {
        let span = m.slice_ptr[s]..m.slice_ptr[s + 1];
        let mut acc = [T::zero(); SLICE];
        let steps = m.col_idx[span.clone()]
            .chunks_exact(SLICE)
            .zip(values[span].chunks_exact(SLICE));
        for (cols, vals) in steps {
            for ((a, &c), &v) in acc.iter_mut().zip(cols).zip(vals) {
                let xv = if c >= 0 { x[c as usize] } else { T::zero() };
                *a = v.mul_add(xv, *a);
            }
        }
        scatter(rows, &acc, out, row0);
    }
}

/// The portable sliced-ELLPACK loop, at every precision: lane by lane, in
/// the gather kernel's operation order.
pub(crate) fn sell_spmv_portable<T: Real>(
    m: SellSlices<'_>,
    values: &[T],
    x: &[T],
    out: &mut [T],
    row0: usize,
) {
    dispatch(
        #[inline(always)]
        || sell_portable_body(m, values, x, out, row0),
    )
}

/// True when [`sell_spmv_gather`] has a kernel for `T` on this CPU: `f32`
/// on x86-64 with AVX2 and FMA.  (`f64` and `Emulated` run the portable
/// loop; no workload runs a sparse `f64` inner solve.)
pub(crate) fn sell_gather_available<T: Real>() -> bool {
    cfg!(target_arch = "x86_64")
        && TypeId::of::<T>() == TypeId::of::<f32>()
        && wide::runtime::avx2_fma_available()
}

/// The AVX2 sliced-ELLPACK kernel for `f32`: per column step one masked
/// 8-lane gather of `x` and one fma.  Panics where [`sell_gather_available`]
/// is false.
pub(crate) fn sell_spmv_gather<T: Real>(
    m: SellSlices<'_>,
    values: &[T],
    x: &[T],
    out: &mut [T],
    row0: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if wide::runtime::avx2_fma_available() {
        if let (Some(v), Some(x), Some(out)) = (cast(values), cast(x), cast_mut(out)) {
            // SAFETY: avx2 and fma were just detected on this CPU.
            return unsafe { gather::sell_f32(m, v, x, out, row0) };
        }
    }
    panic!(
        "no AVX2 sliced-ELLPACK kernel for {} on this CPU",
        T::format_name()
    );
}

/// The sliced-ELLPACK SpMV: the gather kernel where it exists, the portable
/// loop otherwise.  Both are bit-identical to the CSR row fold.
pub(crate) fn sell_spmv<T: Real>(
    m: SellSlices<'_>,
    values: &[T],
    x: &[T],
    out: &mut [T],
    row0: usize,
) {
    if sell_gather_available::<T>() {
        sell_spmv_gather(m, values, x, out, row0)
    } else {
        sell_spmv_portable(m, values, x, out, row0)
    }
}

#[cfg(target_arch = "x86_64")]
mod gather {
    use super::{scatter, SellSlices, SLICE};
    use core::arch::x86_64::*;

    /// Gather mask: a lane is live when its column `c` satisfies
    /// `c as u32 < min(len, 2³¹)`, compared as signed integers after
    /// flipping the sign bits.  Padding (−1) is never live, and neither is
    /// any column outside `x`, so no lane ever reads out of bounds,
    /// whatever the layout holds.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn live(idx: __m256i, len: usize) -> __m256i {
        let flip = _mm256_set1_epi32(i32::MIN);
        let bound = _mm256_set1_epi32(((len.min(1 << 31) as u32) ^ (1 << 31)) as i32);
        _mm256_cmpgt_epi32(bound, _mm256_xor_si256(idx, flip))
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn sell_f32(
        m: SellSlices<'_>,
        values: &[f32],
        x: &[f32],
        out: &mut [f32],
        row0: usize,
    ) {
        for (s, rows) in m.rows.chunks(SLICE).enumerate() {
            let span = m.slice_ptr[s]..m.slice_ptr[s + 1];
            let mut acc = _mm256_setzero_ps();
            let steps = m.col_idx[span.clone()]
                .chunks_exact(SLICE)
                .zip(values[span].chunks_exact(SLICE));
            for (cols, vals) in steps {
                // SAFETY: `cols` and `vals` each hold SLICE = 8 elements.
                let (idx, v) = unsafe {
                    (
                        _mm256_loadu_si256(cols.as_ptr().cast()),
                        _mm256_loadu_ps(vals.as_ptr()),
                    )
                };
                let mask = _mm256_castsi256_ps(live(idx, x.len()));
                // SAFETY: only live lanes are read, and a live lane's index
                // lies in `0..x.len()`.
                let xv = unsafe {
                    _mm256_mask_i32gather_ps::<4>(_mm256_setzero_ps(), x.as_ptr(), idx, mask)
                };
                acc = _mm256_fmadd_ps(v, xv, acc);
            }
            let mut lanes = [0.0f32; SLICE];
            // SAFETY: `lanes` holds 8 `f32`.
            unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc) };
            scatter(rows, &lanes, out, row0);
        }
    }
}

// ---------------------------------------------------------------------------
// Dense matmul row-block: `a_rows` holds the block's rows of A (width `k`),
// `out` the matching rows of C (width `n`).  ikj order with `k` blocked so a
// KB×n panel of B stays cache-hot across every row of the block; within one
// output element the `k` sweep is still strictly ascending, so the result is
// bit-identical to the scalar ikj kernel (including its `a == 0` skip).
// ---------------------------------------------------------------------------

/// Rows of B per cache block: 64 rows × 1024 columns × 8 bytes = 512 KiB
/// worst case, sized so that typical panels (n ≤ 512) fit in L2 while the
/// block loop stays negligible for the tiny matrices the paper uses.
const MATMUL_K_BLOCK: usize = 64;

#[inline(always)]
fn matmul_block_body(a_rows: &[f64], k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    debug_assert!(n > 0, "caller guards empty output");
    let rows = out.len() / n;
    let mut kb = 0usize;
    while kb < k {
        let kend = (kb + MATMUL_K_BLOCK).min(k);
        for i in 0..rows {
            let arow = &a_rows[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for kk in kb..kend {
                let aval = arow[kk];
                if aval == 0.0 {
                    continue;
                }
                let brow = &b[kk * n..(kk + 1) * n];
                let av = f64x4::splat(aval);
                let mut oc = orow.chunks_exact_mut(LANES);
                let mut bc = brow.chunks_exact(LANES);
                for (o4, b4) in (&mut oc).zip(&mut bc) {
                    av.mul_add(f64x4::from_slice(b4), f64x4::from_slice(o4))
                        .write_to_slice(o4);
                }
                for (o, &bv) in oc.into_remainder().iter_mut().zip(bc.remainder()) {
                    *o = aval.mul_add(bv, *o);
                }
            }
        }
        kb = kend;
    }
}

/// One row-block of `C += A·B` (C rows in `out`, zero-initialised by the
/// caller), bit-identical to the scalar ikj kernel.
pub(crate) fn matmul_block(a_rows: &[f64], k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    dispatch(
        #[inline(always)]
        || matmul_block_body(a_rows, k, b, n, out),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_matvec(a: &[f64], rows: usize, cols: usize, x: &[f64]) -> Vec<f64> {
        (0..rows)
            .map(|i| {
                a[i * cols..(i + 1) * cols]
                    .iter()
                    .zip(x)
                    .fold(0.0f64, |acc, (&a, &b)| a.mul_add(b, acc))
            })
            .collect()
    }

    #[test]
    fn dense_matvec_bit_identical_across_remainders() {
        // Rows 1..=9 cover every remainder class against LANES = 4.
        for rows in 1..=9usize {
            for cols in [0usize, 1, 3, 4, 7] {
                let a: Vec<f64> = (0..rows * cols)
                    .map(|i| ((i * 37 + 11) % 19) as f64 / 19.0 - 0.4)
                    .collect();
                let x: Vec<f64> = (0..cols).map(|j| ((j * 23) % 13) as f64 / 13.0).collect();
                let mut out = vec![0.0f64; rows];
                dense_matvec(&a, cols, &x, &mut out);
                assert_eq!(out, scalar_matvec(&a, rows, cols, &x), "{rows}x{cols}");
            }
        }
    }

    #[test]
    fn spmv_padding_is_exact_on_ragged_rows() {
        // Rows: empty, 1 entry, 5 entries, 2 entries, empty, 3 entries —
        // exercising the pad lanes and the scalar tail (6 rows = 4 + 2).
        let row_ptr = [0usize, 0, 1, 6, 8, 8, 11];
        let col_idx = [2usize, 0, 1, 2, 3, 4, 1, 4, 0, 2, 3];
        let values: Vec<f64> = (0..11).map(|i| (i as f64 - 4.5) / 3.0).collect();
        let x: Vec<f64> = (0..5).map(|i| (i as f64 + 0.25) / 2.0).collect();
        let mut out = vec![0.0f64; 6];
        spmv(&row_ptr, &col_idx, &values, &x, &mut out, 0);
        for i in 0..6 {
            let span = row_ptr[i]..row_ptr[i + 1];
            let want = col_idx[span.clone()]
                .iter()
                .zip(&values[span])
                .fold(0.0f64, |acc, (&c, &v)| v.mul_add(x[c], acc));
            assert_eq!(out[i], want, "row {i}");
        }
    }

    #[test]
    fn matmul_block_matches_scalar_ikj() {
        for (m, k, n) in [
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 64 + 3, 9),
            (6, 130, 4),
        ] {
            let a: Vec<f64> = (0..m * k)
                .map(|i| {
                    if i % 5 == 0 {
                        0.0
                    } else {
                        (i % 7) as f64 - 3.0
                    }
                })
                .collect();
            let b: Vec<f64> = (0..k * n).map(|i| ((i * 3) % 11) as f64 / 11.0).collect();
            let mut out = vec![0.0f64; m * n];
            matmul_block(&a, k, &b, n, &mut out);
            let mut want = vec![0.0f64; m * n];
            for i in 0..m {
                for kk in 0..k {
                    let av = a[i * k + kk];
                    if av == 0.0 {
                        continue;
                    }
                    for j in 0..n {
                        want[i * n + j] = av.mul_add(b[kk * n + j], want[i * n + j]);
                    }
                }
            }
            assert_eq!(out, want, "{m}x{k}x{n}");
        }
    }
}
