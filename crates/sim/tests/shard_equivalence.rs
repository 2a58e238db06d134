//! Property tests of the sharded execution engine (`qls_sim::shard`): the
//! sharded path must be **bit-identical** — `==` on amplitudes, not a
//! tolerance — to its flat compiled oracle on random 1–10-qubit circuits
//! mixing controlled/uncontrolled, diagonal, permutation and dense gates,
//! at shard counts 2/4/8, fused (`OptLevel::Fuse`, with the low-support
//! preference armed) and unfused (`OptLevel::None`), at any thread count —
//! including shard counts that exceed the worker count.

use num_complex::Complex64;
use qls_sim::{
    circuit_compile_count, CMatrix, CachePolicy, Circuit, ExecMode, Gate, Operation, OptLevel,
    QuantumExecutor, ShardedCircuit, ShardedState, StateVector,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::ThreadPoolBuilder;

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

/// Append one random operation covering every kernel class and both sides
/// of the shard boundary: diagonal chains, X/SWAP permutations, dense 1–3
/// qubit unitaries, and random control sets (controls count as support, so
/// a control on a high qubit must route through an exchange round too).
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

/// Shard counts to exercise for an `n`-qubit register: 2, 4, 8 where they
/// fit (a `2^n`-amplitude register cannot split into more than `2^n`
/// chunks).
fn shard_counts(n: usize) -> Vec<usize> {
    [2usize, 4, 8]
        .into_iter()
        .filter(|s| s.trailing_zeros() as usize <= n)
        .collect()
}

#[test]
fn sharded_execution_is_bit_identical_to_the_flat_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(20260808);
    for n in 1..=10usize {
        for rep in 0..6 {
            let ops = 5 + 3 * n;
            let mut circ = Circuit::new(n);
            for _ in 0..ops {
                push_random_op(&mut circ, n, &mut rng);
            }
            let start = random_state(n, &mut rng);
            for opt_level in [OptLevel::None, OptLevel::Fuse] {
                for shards in shard_counts(n) {
                    let exec = QuantumExecutor::with_config(
                        &circ,
                        opt_level,
                        ExecMode::Sharded { shards },
                        CachePolicy::Disabled,
                    );
                    assert_eq!(exec.exec_mode(), ExecMode::Sharded { shards });
                    let via_sharded = exec.run(&start);
                    // The engine's own flat compiled form is the oracle: the
                    // *same* (possibly fused) op list, applied to one
                    // contiguous register.
                    let mut via_flat = start.clone();
                    exec.compiled().apply(&mut via_flat);
                    assert_eq!(
                        via_sharded.amplitudes(),
                        via_flat.amplitudes(),
                        "sharded != flat (n = {n}, rep = {rep}, shards = {shards}, \
                         {opt_level:?})"
                    );
                    let plan = exec.sharding().expect("sharded engine exposes its plan");
                    assert_eq!(plan.num_shards(), shards);
                    assert_eq!(
                        plan.len(),
                        plan.local_ops() + plan.exchanged_ops() + plan.flat_ops()
                    );
                }
            }
        }
    }
}

#[test]
fn sharded_execution_matches_the_unsharded_engine_to_roundoff() {
    // Across engines the fused op lists may differ (the sharded engine arms
    // the low-support preference), so this is the 1e-12 equivalence check
    // that complements the bit-identity oracle above.
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    for n in [4usize, 7, 9] {
        let mut circ = Circuit::new(n);
        for _ in 0..4 * n {
            push_random_op(&mut circ, n, &mut rng);
        }
        let start = random_state(n, &mut rng);
        let flat = QuantumExecutor::new(&circ);
        for shards in shard_counts(n) {
            let sharded = QuantumExecutor::with_config(
                &circ,
                OptLevel::Fuse,
                ExecMode::Sharded { shards },
                CachePolicy::Disabled,
            );
            let d = flat
                .run(&start)
                .amplitudes()
                .iter()
                .zip(sharded.run(&start).amplitudes())
                .map(|(x, y)| (x - y).norm())
                .fold(0.0, f64::max);
            assert!(
                d < 1e-12,
                "sharded deviates from the flat fused engine by {d} (n = {n}, shards = {shards})"
            );
        }
    }
}

#[test]
fn shard_counts_exceeding_thread_count_stay_bit_identical() {
    // 8 shards on 1- and 2-worker pools: more chunks than workers must not
    // change a single bit (the fan-out never splits inside a chunk).
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let n = 9;
    let mut circ = Circuit::new(n);
    for _ in 0..30 {
        push_random_op(&mut circ, n, &mut rng);
    }
    let start = random_state(n, &mut rng);
    let exec = QuantumExecutor::with_config(
        &circ,
        OptLevel::Fuse,
        ExecMode::Sharded { shards: 8 },
        CachePolicy::Disabled,
    );
    let mut oracle = start.clone();
    exec.compiled().apply(&mut oracle);
    for threads in [1usize, 2, 4] {
        let via = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool")
            .install(|| exec.run(&start));
        assert_eq!(
            via.amplitudes(),
            oracle.amplitudes(),
            "sharded run differs from the flat oracle at {threads} threads"
        );
    }
}

#[test]
fn run_sharded_and_direct_plans_match_the_flat_path_bit_for_bit() {
    // The lower-level entry points: StateVector::run_sharded and a
    // hand-compiled ShardedCircuit applied to a ShardedState.
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let n = 6;
    let mut circ = Circuit::new(n);
    for _ in 0..25 {
        push_random_op(&mut circ, n, &mut rng);
    }
    let flat = StateVector::run(&circ);
    for shards in shard_counts(n) {
        assert_eq!(
            StateVector::run_sharded(&circ, shards).amplitudes(),
            flat.amplitudes()
        );
        let plan = ShardedCircuit::compile(&circ, n, shards);
        let mut state = ShardedState::zero_state(n, shards);
        plan.apply(&mut state);
        assert_eq!(state.into_state().amplitudes(), flat.amplitudes());
    }
}

#[test]
fn sharded_engine_compiles_at_construction_and_never_during_runs() {
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let n = 6;
    let mut circ = Circuit::new(n);
    for _ in 0..20 {
        push_random_op(&mut circ, n, &mut rng);
    }
    let before = circuit_compile_count();
    let exec = QuantumExecutor::with_config(
        &circ,
        OptLevel::Fuse,
        ExecMode::Sharded { shards: 4 },
        CachePolicy::Disabled,
    );
    assert_eq!(
        circuit_compile_count(),
        before + 2,
        "sharded construction compiles exactly twice: the flat oracle and the sharded plan"
    );
    let mut batch: Vec<StateVector> = (0..4).map(|i| StateVector::basis_state(n, i * 5)).collect();
    let _ = exec.run_zero();
    let _ = exec.run(&batch[0]);
    exec.run_batch(&mut batch);
    let mut sharded = ShardedState::zero_state(n, 4);
    exec.run_sharded_in_place(&mut sharded);
    assert_eq!(
        circuit_compile_count(),
        before + 2,
        "run/run_batch/run_sharded_in_place must never recompile"
    );
}

#[test]
fn batched_sharded_execution_is_bit_identical_to_single_runs() {
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let n = 7;
    let mut circ = Circuit::new(n);
    for _ in 0..24 {
        push_random_op(&mut circ, n, &mut rng);
    }
    let exec = QuantumExecutor::with_config(
        &circ,
        OptLevel::Fuse,
        ExecMode::Sharded { shards: 4 },
        CachePolicy::Disabled,
    );
    let inputs: Vec<StateVector> = (0..5).map(|_| random_state(n, &mut rng)).collect();
    let mut batch = inputs.clone();
    exec.run_batch(&mut batch);
    for (b, input) in batch.iter().zip(&inputs) {
        assert_eq!(b.amplitudes(), exec.run(input).amplitudes());
    }
}
