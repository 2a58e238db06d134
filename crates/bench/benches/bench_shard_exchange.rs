//! Criterion micro-benchmarks of the sharded register engine
//! (`qls_sim::shard`): sharded vs flat execution at several shard counts,
//! the pairwise exchange machinery in isolation (a circuit that is all
//! high-qubit ops), and the one-time cost of compiling a sharded plan.

use criterion::{criterion_group, criterion_main, Criterion};
use qls_sim::{
    CachePolicy, Circuit, ExecMode, OptLevel, QuantumExecutor, ShardedCircuit, ShardedState,
};

/// A circuit whose every op touches the top qubits: each rep is served by
/// exchange rounds, so the benchmark isolates the swap-halves machinery.
fn high_qubit_circuit(num_qubits: usize, reps: usize) -> Circuit {
    let mut c = Circuit::new(num_qubits);
    for k in 0..reps {
        c.h(num_qubits - 1);
        c.cx(num_qubits - 1, num_qubits - 2);
        c.rz(num_qubits - 1, 0.11 * k as f64);
        c.cx(0, num_qubits - 1);
    }
    c
}

fn bench_sharded_vs_flat(c: &mut Criterion) {
    let circ = qls_bench::random_circuit(14, 120, 42);
    let input = qls_sim::StateVector::zero_state(14);
    let mut group = c.benchmark_group("sim/shard_exchange");
    group.sample_size(20);
    let flat =
        QuantumExecutor::with_config(&circ, OptLevel::Fuse, ExecMode::Flat, CachePolicy::Disabled);
    group.bench_function("random_14q/flat", |b| {
        b.iter(|| std::hint::black_box(flat.run(&input)))
    });
    for shards in [2usize, 4, 8] {
        let exec = QuantumExecutor::with_config(
            &circ,
            OptLevel::Fuse,
            ExecMode::Sharded { shards },
            CachePolicy::Disabled,
        );
        group.bench_function(format!("random_14q/sharded_{shards}"), |b| {
            b.iter(|| std::hint::black_box(exec.run(&input)))
        });
    }

    // Exchange rounds in isolation: every op is high-qubit, so the sharded
    // run is dominated by swap-halves traffic.
    let high = high_qubit_circuit(14, 12);
    let plan = ShardedCircuit::compile(&high, 14, 4);
    group.bench_function("high_qubit_14q/exchange_rounds", |b| {
        b.iter(|| {
            let mut state = ShardedState::zero_state(14, 4);
            plan.apply(&mut state);
            std::hint::black_box(state.norm())
        })
    });
    group.bench_function("high_qubit_14q/compile_plan", |b| {
        b.iter(|| std::hint::black_box(ShardedCircuit::compile(&high, 14, 4)))
    });
    group.finish();
}

criterion_group!(benches, bench_sharded_vs_flat);
criterion_main!(benches);
