//! Sharded execution of a register near the one-allocation wall: build a
//! 22-qubit (4M-amplitude, 64 MiB) brickwork circuit, run it through the
//! sharded engine at 8 shards, and report the execution model — per-shard
//! memory, how many ops stayed shard-local, and how many exchange rounds
//! the high-qubit ops were batched into.
//!
//! Run with `cargo run --release --example large_register`.

use qls::prelude::*;
use std::time::Instant;

/// Brickwork layers: per-qubit rotations, a nearest-neighbour CX ladder,
/// and one long-range entangler per layer so some ops straddle the shard
/// boundary and force exchange rounds.
fn brickwork(n: usize, layers: usize) -> Circuit {
    let mut circ = Circuit::new(n);
    for layer in 0..layers {
        for q in 0..n {
            circ.ry(q, 0.3 + 0.1 * (q + layer) as f64);
            circ.rz(q, 0.2 - 0.05 * q as f64);
        }
        for q in (layer % 2..n - 1).step_by(2) {
            circ.cx(q, q + 1);
        }
        circ.cx(layer % (n / 2), n - 1 - layer % 3);
    }
    circ
}

fn main() {
    let n = 22;
    let shards = 8;
    let circ = brickwork(n, 3);
    println!(
        "{}-qubit brickwork circuit: {} gates, depth {}",
        n,
        circ.gate_count(),
        circ.depth()
    );

    // The compile-time plan (deterministic static cost model): where does
    // each fused op land once the register is split into 8 chunks?
    let stats = sharding_stats(&circ, shards);
    println!("\nsharded execution plan ({} shards):", stats.num_shards);
    println!(
        "  shard boundary:      qubit {} (qubits below run shard-local)",
        stats.shard_boundary
    );
    println!(
        "  per-shard memory:    {} amplitudes = {:.1} MiB",
        stats.per_shard_amplitudes,
        stats.per_shard_bytes as f64 / (1024.0 * 1024.0)
    );
    println!(
        "  fused ops:           {} shard-local, {} exchanged, {} flat",
        stats.local_ops, stats.exchanged_ops, stats.flat_ops
    );
    println!(
        "  exchange rounds:     {} (batched; one round serves a run of high-qubit ops)",
        stats.exchange_rounds
    );

    // Run it: the sharded engine fuses with the low-support preference,
    // then executes chunk-parallel with pairwise exchanges.
    let t0 = Instant::now();
    let exec = QuantumExecutor::with_config(
        &circ,
        OptLevel::Fuse,
        ExecMode::Sharded { shards },
        CachePolicy::Disabled,
    );
    let compile_time = t0.elapsed();
    let t1 = Instant::now();
    let state = exec.run_zero();
    let run_time = t1.elapsed();
    println!(
        "\nsharded run: compile {:.2?}, execute {:.2?}, |psi| = {:.12}",
        compile_time,
        run_time,
        state.norm()
    );

    // Bit-identity check against the engine's own flat oracle (the same
    // fused op list applied to one contiguous 64 MiB register).
    let t2 = Instant::now();
    let mut oracle = StateVector::zero_state(n);
    exec.compiled().apply(&mut oracle);
    let flat_time = t2.elapsed();
    assert_eq!(
        state.amplitudes(),
        oracle.amplitudes(),
        "sharded execution must be bit-identical to the flat oracle"
    );
    println!(
        "flat oracle: execute {:.2?} -- bit-identical to the sharded run",
        flat_time
    );
    println!(
        "\nP(qubit {} = 1) = {:.6}",
        n - 1,
        state.probability_of_one(n - 1)
    );
}
