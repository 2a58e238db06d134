//! Thread-count regression tests: gate application must produce *identical*
//! results whatever the worker count.  The kernels run a register on the
//! calling thread, so no pool width may change a single amplitude; these
//! tests pin that down on registers wide enough that every kernel class is
//! far above [`PARALLEL_WORK_THRESHOLD`], where a per-gate fan-out would
//! engage if one existed.  The vendored rayon's `ThreadPoolBuilder::install`
//! scopes the pool width, so the checks run deterministically even on
//! single-core CI machines.

use num_complex::Complex64;
use qls_sim::{CMatrix, Circuit, Gate, StateVector, PARALLEL_WORK_THRESHOLD};
use rayon::ThreadPoolBuilder;

/// A register wide enough that every kernel class crosses
/// [`PARALLEL_WORK_THRESHOLD`] in a single application.
fn wide_circuit() -> Circuit {
    // The lightest case is the singly-controlled SWAP/flip family at
    // 2^(n-2) free indices of one complex multiply each, so pick
    // n = log2(threshold) + 2.
    let n = (PARALLEL_WORK_THRESHOLD.trailing_zeros() as usize) + 2; // 18
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q); // dense single-qubit kernel
    }
    for q in 0..n - 1 {
        c.cx(q, q + 1); // controlled flip kernel
    }
    c.rz(0, 0.7) // diagonal kernel
        .t(n - 1) // phase-shift kernel
        .x(2) // flip kernel
        .swap(1, n - 2) // bit-swap kernel
        .cphase(0, n - 1, 1.1) // controlled phase-shift
        .cry(3, 4, -0.6); // controlled dense single-qubit
                          // Dense 2-qubit unitary -> generic kernel.
    let h = Gate::H.matrix();
    let hh = h.kron(&h).matmul(&Gate::Swap.matrix());
    c.gate(Gate::Unitary(hh.clone()), &[0, n - 1]);
    c.controlled_gate(Gate::Unitary(hh), &[2, 5], &[7]);
    c
}

fn run_with_threads(circ: &Circuit, threads: usize) -> Vec<Complex64> {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(|| StateVector::run(circ).into_amplitudes())
}

#[test]
fn results_are_identical_with_1_and_n_threads() {
    let circ = wide_circuit();
    let single = run_with_threads(&circ, 1);
    let machine = rayon::current_num_threads().max(2);
    for threads in [2, 3, machine, 8] {
        let multi = run_with_threads(&circ, threads);
        // Bitwise equality, not a tolerance: partitioning the index space must
        // not change a single operation's arithmetic.
        assert_eq!(
            single, multi,
            "amplitudes differ between 1 and {threads} threads"
        );
    }
}

#[test]
fn parallel_unitary_extraction_matches_single_thread() {
    let mut c = Circuit::new(4);
    c.h(0).cx(0, 1).cry(1, 2, 0.9).ccx(0, 2, 3).rz(3, -0.3);
    let u1 = ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool")
        .install(|| qls_sim::circuit_unitary(&c));
    let u4 = ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .expect("pool")
        .install(|| qls_sim::circuit_unitary(&c));
    assert_eq!(
        u1.max_abs_diff(&u4),
        0.0,
        "circuit_unitary differs across thread counts"
    );
}

#[test]
fn vendored_rayon_reports_real_worker_count() {
    // The stand-in must no longer be hardwired to 1: an installed pool's
    // width is visible to the kernels via current_num_threads().
    let pool = ThreadPoolBuilder::new()
        .num_threads(6)
        .build()
        .expect("pool");
    assert_eq!(pool.install(rayon::current_num_threads), 6);
}

#[test]
fn generic_kernel_parallel_path_uses_per_worker_scratch() {
    // A 3-qubit dense unitary on a wide register drives the generic kernel
    // over the fan-out threshold (2^(n-3) blocks x 64 multiplies); its one
    // reused scratch buffer must give the same blocks at any pool width.
    let n = (PARALLEL_WORK_THRESHOLD.trailing_zeros() as usize) - 2; // 14
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    let h = Gate::H.matrix();
    let m = h.kron(&h).kron(&h);
    c.gate(
        Gate::Unitary(CMatrix::from_fn(8, 8, |i, j| m[(i, j)])),
        &[0, 3, n - 1],
    );
    let single = run_with_threads(&c, 1);
    let multi = run_with_threads(&c, 4);
    assert_eq!(single, multi);
}
