//! Property tests of the circuit-optimizer pass: optimized execution
//! (fusion + diagonal merging, `OptLevel::Fuse`) must agree to 1e-12 with
//! the unoptimized oracle — both the seed's generic reference path and the
//! `OptLevel::None` compiled path — on random 1–10-qubit circuits mixing
//! controlled/uncontrolled, diagonal, permutation and dense gates, and the
//! optimization must happen exactly once, at construction.

use num_complex::Complex64;
use qls_sim::kernels::reference;
use qls_sim::{
    circuit_compile_count, CMatrix, CachePolicy, Circuit, ExecMode, Gate, Operation, OptLevel,
    QuantumExecutor, StateVector,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A random dense 1-qubit unitary (product of the three rotation generators).
fn random_1q_unitary(rng: &mut ChaCha8Rng) -> CMatrix {
    let rz1 = Gate::Rz(rng.gen_range(-3.0..3.0)).matrix();
    let ry = Gate::Ry(rng.gen_range(-3.0..3.0)).matrix();
    let rz2 = Gate::Rz(rng.gen_range(-3.0..3.0)).matrix();
    rz1.matmul(&ry).matmul(&rz2)
}

/// A random dense k-qubit unitary (tensor products of 1-qubit unitaries,
/// SWAP-mixed for k = 2 so the generic kernel sees every entry).
fn random_dense_unitary(k: usize, rng: &mut ChaCha8Rng) -> CMatrix {
    let mut u = random_1q_unitary(rng);
    for _ in 1..k {
        u = u.kron(&random_1q_unitary(rng));
    }
    if k == 2 {
        u = u.matmul(&Gate::Swap.matrix());
        let v = random_1q_unitary(rng).kron(&random_1q_unitary(rng));
        u = u.matmul(&v);
    }
    u
}

fn distinct_qubits(n: usize, count: usize, rng: &mut ChaCha8Rng) -> Vec<usize> {
    assert!(count <= n);
    let mut pool: Vec<usize> = (0..n).collect();
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let i = rng.gen_range(0..pool.len());
        out.push(pool.swap_remove(i));
    }
    out
}

/// Append one random operation covering every kernel class and fusion rule:
/// identities (must be dropped), diagonal chains (must merge), X-conjugation
/// patterns, dense 1–3-qubit unitaries, and random control sets (matching
/// and mismatching masks).
fn push_random_op(circ: &mut Circuit, n: usize, rng: &mut ChaCha8Rng) {
    let max_targets = n.min(3);
    let (gate, arity): (Gate, usize) = match rng.gen_range(0..13u32) {
        0 => (Gate::I, 1),
        1 => (Gate::X, 1),
        2 => (Gate::Y, 1),
        3 => (Gate::Z, 1),
        4 => (Gate::H, 1),
        5 => (
            [Gate::S, Gate::Sdg, Gate::T, Gate::Tdg][rng.gen_range(0..4usize)].clone(),
            1,
        ),
        6 => (Gate::Rx(rng.gen_range(-3.0..3.0)), 1),
        7 => (Gate::Ry(rng.gen_range(-3.0..3.0)), 1),
        8 => (Gate::Rz(rng.gen_range(-3.0..3.0)), 1),
        9 => (Gate::Phase(rng.gen_range(-3.0..3.0)), 1),
        10 => (Gate::GlobalPhase(rng.gen_range(-3.0..3.0)), 1),
        11 if n >= 2 => (Gate::Swap, 2),
        12 if max_targets >= 2 => {
            let k = rng.gen_range(2..=max_targets);
            (Gate::Unitary(random_dense_unitary(k, rng)), k)
        }
        _ => (Gate::Unitary(random_1q_unitary(rng)), 1),
    };
    let free = n - arity;
    let num_controls = if free == 0 {
        0
    } else {
        rng.gen_range(0..=free.min(3))
    };
    let qubits = distinct_qubits(n, arity + num_controls, rng);
    let (targets, controls) = qubits.split_at(arity);
    circ.push(Operation::new(gate, targets.to_vec(), controls.to_vec()));
}

fn random_state(n: usize, rng: &mut ChaCha8Rng) -> StateVector {
    let amps: Vec<Complex64> = (0..1usize << n)
        .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    StateVector::from_amplitudes(amps)
}

fn max_amp_diff(a: &StateVector, b: &StateVector) -> f64 {
    a.amplitudes()
        .iter()
        .zip(b.amplitudes())
        .map(|(x, y)| (x - y).norm())
        .fold(0.0, f64::max)
}

#[test]
fn optimized_execution_matches_both_oracles_on_random_circuits() {
    let mut rng = ChaCha8Rng::seed_from_u64(20260728);
    for n in 1..=10usize {
        for rep in 0..8 {
            let ops = 5 + 3 * n;
            let mut circ = Circuit::new(n);
            for _ in 0..ops {
                push_random_op(&mut circ, n, &mut rng);
            }
            let start = random_state(n, &mut rng);

            let fused = QuantumExecutor::with_config(
                &circ,
                OptLevel::Fuse,
                ExecMode::Flat,
                CachePolicy::Disabled,
            );
            let raw = QuantumExecutor::with_config(
                &circ,
                OptLevel::None,
                ExecMode::Flat,
                CachePolicy::Disabled,
            );
            let via_fused = fused.run(&start);
            let via_raw = raw.run(&start);
            let mut via_reference = start.clone();
            reference::apply_circuit(&mut via_reference, &circ);

            let d_ref = max_amp_diff(&via_fused, &via_reference);
            assert!(
                d_ref < 1e-12,
                "fused execution deviates from the generic reference by {d_ref} \
                 (n = {n}, rep = {rep}, {ops} ops)"
            );
            let d_raw = max_amp_diff(&via_fused, &via_raw);
            assert!(
                d_raw < 1e-12,
                "fused execution deviates from OptLevel::None by {d_raw} \
                 (n = {n}, rep = {rep}, {ops} ops)"
            );

            let stats = fused.stats().expect("fused engine reports stats");
            assert_eq!(stats.raw_ops, circ.len());
            assert!(
                stats.fused_ops <= stats.raw_ops,
                "the pass must never grow the op list ({} -> {})",
                stats.raw_ops,
                stats.fused_ops
            );
            assert_eq!(stats.fused_ops, fused.len());
        }
    }
}

#[test]
fn optimization_happens_once_at_construction_and_never_during_runs() {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let n = 6;
    let mut circ = Circuit::new(n);
    for _ in 0..40 {
        push_random_op(&mut circ, n, &mut rng);
    }

    let before = circuit_compile_count();
    let exec =
        QuantumExecutor::with_config(&circ, OptLevel::Fuse, ExecMode::Flat, CachePolicy::Disabled);
    assert_eq!(
        circuit_compile_count(),
        before + 1,
        "optimize + compile must count as exactly one circuit compilation"
    );

    let mut batch: Vec<StateVector> = (0..6).map(|i| StateVector::basis_state(n, i * 7)).collect();
    let _ = exec.run_zero();
    let _ = exec.run(&batch[0]);
    exec.run_batch(&mut batch);
    assert_eq!(
        circuit_compile_count(),
        before + 1,
        "run/run_batch must never re-optimize or recompile"
    );
}

#[test]
fn batched_fused_execution_is_bit_identical_to_single_runs() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let n = 7;
    let mut circ = Circuit::new(n);
    for _ in 0..30 {
        push_random_op(&mut circ, n, &mut rng);
    }
    let exec = QuantumExecutor::new(&circ);
    let inputs: Vec<StateVector> = (0..5).map(|_| random_state(n, &mut rng)).collect();
    let mut batch = inputs.clone();
    exec.run_batch(&mut batch);
    for (b, input) in batch.iter().zip(&inputs) {
        assert_eq!(b.amplitudes(), exec.run(input).amplitudes());
    }
}

#[test]
fn circuit_unitary_agrees_with_reference_columns() {
    // `circuit_unitary` now rides the fused batch engine; it must still equal
    // the column-by-column generic reference to 1e-12.
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let n = 5;
    let mut circ = Circuit::new(n);
    for _ in 0..25 {
        push_random_op(&mut circ, n, &mut rng);
    }
    let u = qls_sim::circuit_unitary(&circ);
    for col in 0..1usize << n {
        let mut sv = StateVector::basis_state(n, col);
        reference::apply_circuit(&mut sv, &circ);
        for (row, amp) in sv.amplitudes().iter().enumerate() {
            assert!(
                (u[(row, col)] - amp).norm() < 1e-12,
                "entry ({row}, {col}) deviates"
            );
        }
    }
}

#[test]
fn deep_diagonal_and_conjugation_chains_collapse() {
    // A projector-rotation-shaped workload (the QSVT inner loop): X-conjugated
    // controlled phases sandwiched between dense ops.  The whole phase block
    // must fuse away into O(1) ops per dense op.
    let n = 4;
    let mut circ = Circuit::new(n);
    for k in 0..50 {
        let phi = 0.1 * k as f64 - 2.0;
        circ.gate(Gate::GlobalPhase(-phi), &[0]);
        circ.x(n - 1);
        circ.phase(n - 1, 2.0 * phi);
        circ.x(n - 1);
        circ.h(k % (n - 1));
    }
    let exec = QuantumExecutor::new(&circ);
    let stats = exec.stats().unwrap();
    assert!(
        stats.op_reduction() >= 2.0,
        "expected >= 2x op reduction on the projector-phase workload, got {:.2}x \
         ({} -> {} ops)",
        stats.op_reduction(),
        stats.raw_ops,
        stats.fused_ops
    );
    let raw =
        QuantumExecutor::with_config(&circ, OptLevel::None, ExecMode::Flat, CachePolicy::Disabled);
    let start = random_state(n, &mut ChaCha8Rng::seed_from_u64(3));
    assert!(max_amp_diff(&exec.run(&start), &raw.run(&start)) < 1e-12);
}
