//! Sharded statevector execution: the register split into `2^k` worker-owned
//! chunks, with pairwise shard exchanges for high-qubit gates.
//!
//! The flat engine ([`crate::kernels`]) tops out where one contiguous `Vec`
//! of `2^n` amplitudes stops fitting in cache/one allocation.  This module
//! splits the register at the **shard boundary** `m = n − k` into `2^k`
//! chunks of `2^m` amplitudes ([`ShardedState`]): shard `s` owns the
//! contiguous global indices `s·2^m .. (s+1)·2^m`, i.e. the low `m` qubits
//! are **shard-local** and the high `k` qubits select the shard.
//!
//! [`ShardedCircuit::compile`] turns an operation list into an execution
//! plan of three step kinds:
//!
//! 1. **Local** — every support qubit (targets *and* controls) is below the
//!    boundary.  The op is compiled once for an `m`-qubit register with the
//!    ordinary [`CompiledOp`] machinery and applied to each chunk unchanged
//!    — embarrassingly parallel across shards, reusing the specialized
//!    kernels *including their SIMD bodies*, because a compiled op's
//!    per-amplitude arithmetic does not depend on the buffer length (a
//!    longer buffer is just a larger register whose extra qubits the op
//!    treats as free).
//! 2. **Exchange** — some support qubit is global.  The classic distributed
//!    scheme: each global qubit `g` is paired with a free local qubit `l`,
//!    partner shards (differing in `g`'s shard-index bit) swap the halves
//!    of their chunks selected by bit `l`, every op of the round runs
//!    shard-locally with `g` and `l` transposed in its qubit list, and the
//!    halves swap back.  Consecutive ops share one round whenever the
//!    union of their global supports plus untouched local supports fits in
//!    `m` qubits, so one exchange round serves a whole run of high-qubit
//!    ops (with interleaved low ops riding along).
//! 3. **Flat** — an op's support is too wide for any exchange round
//!    (`|support| > m`).  The chunks are gathered into one flat register,
//!    the op runs there, and the result is scattered back.  Strictly a
//!    fallback: it is the degenerate all-to-all exchange.
//!
//! # Bit-identity with the flat oracle
//!
//! Per the house pattern, the flat register stays the equivalence oracle and
//! the sharded path is **bit-identical** to it (`==` on amplitudes, not
//! close-to): a [`CompiledOp`]'s control mask, fixed bits, and kernel body
//! derive from the operation alone, so applying the op compiled for `m`
//! qubits to each `2^m` chunk performs exactly the per-amplitude arithmetic
//! the flat sweep performs on the `2^n` register — same accumulation order
//! inside each shard-local sweep.  The exchange transposition preserves the
//! *order* of every op's target list, so the generic kernel's matrix-column
//! order and the diagonal kernel's bit-gather order are unchanged.  The
//! equivalence suite (`tests/shard_equivalence.rs`) asserts `==` at shard
//! counts 2/4/8 on random circuits with controls, fused and unfused.
//!
//! The fusion pass cooperates: [`FusionOptions::with_shard_boundary`]
//! (see [`crate::fuse`]) prices every candidate sweep with the exchange
//! traffic it would cost here, steering merged ops toward low-qubit support
//! and thereby minimizing exchange rounds.
//!
//! [`FusionOptions::with_shard_boundary`]: crate::fuse::FusionOptions::with_shard_boundary

use crate::circuit::{Circuit, Operation};
use crate::kernels::{note_circuit_compile, CompiledOp, PARALLEL_WORK_THRESHOLD};
use crate::state::StateVector;
use num_complex::Complex64;
use rayon::prelude::*;

/// One worker-owned chunk: `2^m` contiguous amplitudes plus the private
/// scratch buffer its generic-kernel sweeps reuse.
#[derive(Debug, Clone)]
struct Shard {
    amps: Vec<Complex64>,
    scratch: Vec<Complex64>,
}

/// A `2^n`-amplitude register stored as `2^k` worker-owned chunks of
/// `2^m = 2^(n−k)` amplitudes (see the [module docs](self) for the layout).
#[derive(Debug, Clone)]
pub struct ShardedState {
    num_qubits: usize,
    shard_qubits: usize,
    shards: Vec<Shard>,
}

fn shard_qubits_for(num_qubits: usize, num_shards: usize) -> usize {
    assert!(
        num_shards.is_power_of_two(),
        "shard count must be a power of two, got {num_shards}"
    );
    let k = num_shards.trailing_zeros() as usize;
    assert!(
        k <= num_qubits,
        "cannot split a {num_qubits}-qubit register into {num_shards} shards"
    );
    k
}

impl ShardedState {
    /// The all-zeros basis state `|0…0⟩` split into `num_shards` chunks
    /// (a power of two, at most `2^num_qubits`).
    pub fn zero_state(num_qubits: usize, num_shards: usize) -> Self {
        let shard_qubits = shard_qubits_for(num_qubits, num_shards);
        let shard_len = 1usize << (num_qubits - shard_qubits);
        let mut shards = vec![
            Shard {
                amps: vec![Complex64::new(0.0, 0.0); shard_len],
                scratch: Vec::new(),
            };
            num_shards
        ];
        shards[0].amps[0] = Complex64::new(1.0, 0.0);
        ShardedState {
            num_qubits,
            shard_qubits,
            shards,
        }
    }

    /// Split a flat register into `num_shards` chunks (amplitudes copied
    /// verbatim: shard `s` takes the contiguous run `s·2^m .. (s+1)·2^m`).
    pub fn from_state(state: &StateVector, num_shards: usize) -> Self {
        let num_qubits = state.num_qubits();
        let shard_qubits = shard_qubits_for(num_qubits, num_shards);
        let shard_len = 1usize << (num_qubits - shard_qubits);
        let shards = state
            .amplitudes()
            .chunks(shard_len)
            .map(|chunk| Shard {
                amps: chunk.to_vec(),
                scratch: Vec::new(),
            })
            .collect();
        ShardedState {
            num_qubits,
            shard_qubits,
            shards,
        }
    }

    /// Gather the chunks back into a flat [`StateVector`] (bit-identical
    /// amplitudes, no renormalization).
    pub fn to_state(&self) -> StateVector {
        StateVector::from_amplitudes_unchecked(self.gather())
    }

    /// Consuming [`ShardedState::to_state`].
    pub fn into_state(self) -> StateVector {
        self.to_state()
    }

    /// Register width `n`.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of chunks `2^k`.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of shard-index qubits `k`.
    pub fn shard_qubits(&self) -> usize {
        self.shard_qubits
    }

    /// The shard boundary `m = n − k`: qubits below it are shard-local.
    pub fn local_qubits(&self) -> usize {
        self.num_qubits - self.shard_qubits
    }

    /// Amplitudes per chunk, `2^m`.
    pub fn shard_len(&self) -> usize {
        1usize << self.local_qubits()
    }

    /// Total amplitudes, `2^n`.
    pub fn len(&self) -> usize {
        1usize << self.num_qubits
    }

    /// True only for the (impossible) empty register — kept for clippy's
    /// `len`-without-`is_empty` convention.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Amplitude bytes owned by each worker (one chunk, scratch excluded).
    pub fn per_shard_bytes(&self) -> usize {
        self.shard_len() * std::mem::size_of::<Complex64>()
    }

    /// The amplitudes owned by shard `s` (global indices
    /// `s·2^m .. (s+1)·2^m`).
    pub fn shard_amplitudes(&self, s: usize) -> &[Complex64] {
        &self.shards[s].amps
    }

    /// The 2-norm of the full register, accumulated shard by shard.
    pub fn norm(&self) -> f64 {
        self.shards
            .iter()
            .map(|sh| sh.amps.iter().map(|a| a.norm_sqr()).sum::<f64>())
            .sum::<f64>()
            .sqrt()
    }

    /// Probability that measuring qubit `q` yields 1, accumulated without
    /// gathering: for a global `q` the owning shards are summed whole, for a
    /// local `q` each shard sums its bit-set half.
    pub fn probability_of_one(&self, q: usize) -> f64 {
        assert!(q < self.num_qubits, "qubit {q} outside the register");
        let m = self.local_qubits();
        if q >= m {
            let gbit = 1usize << (q - m);
            self.shards
                .iter()
                .enumerate()
                .filter(|(s, _)| s & gbit != 0)
                .map(|(_, sh)| sh.amps.iter().map(|a| a.norm_sqr()).sum::<f64>())
                .sum()
        } else {
            let bit = 1usize << q;
            self.shards
                .iter()
                .map(|sh| {
                    sh.amps
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| j & bit != 0)
                        .map(|(_, a)| a.norm_sqr())
                        .sum::<f64>()
                })
                .sum()
        }
    }

    fn gather(&self) -> Vec<Complex64> {
        let mut full = Vec::with_capacity(self.len());
        for sh in &self.shards {
            full.extend_from_slice(&sh.amps);
        }
        full
    }

    fn scatter(&mut self, full: &[Complex64]) {
        let shard_len = self.shard_len();
        for (sh, chunk) in self.shards.iter_mut().zip(full.chunks(shard_len)) {
            sh.amps.copy_from_slice(chunk);
        }
    }
}

/// One step of a sharded execution plan.
#[derive(Debug, Clone)]
enum Step {
    /// Ops whose whole support is shard-local, compiled for `m` qubits and
    /// applied to every chunk independently.
    Local(Vec<CompiledOp>),
    /// One exchange round: transpose each `(global, local)` qubit pair by
    /// swapping chunk halves between partner shards, run the ops (compiled
    /// for `m` qubits with the transpositions applied to their qubit
    /// lists), transpose back.
    Exchange {
        swaps: Vec<(usize, usize)>,
        ops: Vec<CompiledOp>,
    },
    /// Fallback for ops too wide for any exchange round: gather the flat
    /// register, apply, scatter.
    Flat(Vec<CompiledOp>),
}

/// A circuit compiled once into a sharded execution plan (see the
/// [module docs](self)); the sharded analogue of
/// [`CompiledCircuit`](crate::kernels::CompiledCircuit).
#[derive(Debug, Clone)]
pub struct ShardedCircuit {
    num_qubits: usize,
    shard_qubits: usize,
    steps: Vec<Step>,
    local_ops: usize,
    exchanged_ops: usize,
    flat_ops: usize,
}

impl ShardedCircuit {
    /// Compile `circuit` for an `num_qubits`-wide register split into
    /// `num_shards` chunks.  One compilation, observable through
    /// [`circuit_compile_count`](crate::kernels::circuit_compile_count)
    /// exactly like the flat compiler; runs never recompile.
    pub fn compile(circuit: &Circuit, num_qubits: usize, num_shards: usize) -> Self {
        assert!(
            circuit.num_qubits() <= num_qubits,
            "circuit needs {} qubits, register has {}",
            circuit.num_qubits(),
            num_qubits
        );
        let shard_qubits = shard_qubits_for(num_qubits, num_shards);
        let m = num_qubits - shard_qubits;
        note_circuit_compile();

        let mut steps: Vec<Step> = Vec::new();
        let mut local: Vec<CompiledOp> = Vec::new();
        let mut flat: Vec<CompiledOp> = Vec::new();
        // The open exchange batch: raw ops plus the union of their global
        // (high) and local (low) support qubits.
        let mut batch: Vec<Operation> = Vec::new();
        let mut batch_high: Vec<usize> = Vec::new();
        let mut batch_low: Vec<usize> = Vec::new();
        let mut counts = (0usize, 0usize, 0usize); // (local, exchanged, flat)

        for op in circuit.operations() {
            let support = sorted_union(&op.targets, &op.controls);
            let (low, high): (Vec<usize>, Vec<usize>) = support.iter().partition(|&&q| q < m);
            if !batch.is_empty() {
                // Extend the open round when the combined supports still
                // leave room for one partner qubit per global qubit.
                let high2 = sorted_union(&batch_high, &high);
                let low2 = sorted_union(&batch_low, &low);
                if high2.len() + low2.len() <= m {
                    batch.push(op.clone());
                    batch_high = high2;
                    batch_low = low2;
                    continue;
                }
                counts.1 += close_batch(&mut steps, &mut batch, &mut batch_high, &mut batch_low, m);
            }
            if high.is_empty() {
                flush_flat(&mut steps, &mut flat);
                local.push(CompiledOp::compile(op, m));
                counts.0 += 1;
            } else if support.len() <= m {
                flush_flat(&mut steps, &mut flat);
                flush_local(&mut steps, &mut local);
                batch.push(op.clone());
                batch_high = high;
                batch_low = low;
            } else {
                flush_local(&mut steps, &mut local);
                flat.push(CompiledOp::compile(op, num_qubits));
                counts.2 += 1;
            }
        }
        counts.1 += close_batch(&mut steps, &mut batch, &mut batch_high, &mut batch_low, m);
        flush_local(&mut steps, &mut local);
        flush_flat(&mut steps, &mut flat);

        ShardedCircuit {
            num_qubits,
            shard_qubits,
            steps,
            local_ops: counts.0,
            exchanged_ops: counts.1,
            flat_ops: counts.2,
        }
    }

    /// Register width `n` the plan was compiled for.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of chunks `2^k` the plan was compiled for.
    pub fn num_shards(&self) -> usize {
        1usize << self.shard_qubits
    }

    /// Number of shard-index qubits `k`.
    pub fn shard_qubits(&self) -> usize {
        self.shard_qubits
    }

    /// The shard boundary `m = n − k`.
    pub fn local_qubits(&self) -> usize {
        self.num_qubits - self.shard_qubits
    }

    /// Total compiled operations across all step kinds.
    pub fn len(&self) -> usize {
        self.local_ops + self.exchanged_ops + self.flat_ops
    }

    /// True when the plan has no operations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ops served embarrassingly parallel per shard.
    pub fn local_ops(&self) -> usize {
        self.local_ops
    }

    /// Ops served inside pairwise exchange rounds.
    pub fn exchanged_ops(&self) -> usize {
        self.exchanged_ops
    }

    /// Ops served by the gather/scatter fallback.
    pub fn flat_ops(&self) -> usize {
        self.flat_ops
    }

    /// Number of pairwise exchange rounds one application performs — the
    /// communication metric the low-support fusion preference minimizes.
    pub fn exchange_rounds(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, Step::Exchange { .. }))
            .count()
    }

    /// Number of full gather/scatter fallbacks one application performs
    /// (each is strictly more traffic than any exchange round).
    pub fn flat_gathers(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, Step::Flat(_)))
            .count()
    }

    /// Apply the plan to a sharded register in place.  Bit-identical to
    /// applying the same operation list flat (see the [module docs](self)).
    pub fn apply(&self, state: &mut ShardedState) {
        assert_eq!(
            (state.num_qubits, state.shard_qubits),
            (self.num_qubits, self.shard_qubits),
            "plan compiled for {} qubits / {} shards, state has {} / {}",
            self.num_qubits,
            self.num_shards(),
            state.num_qubits,
            state.num_shards(),
        );
        for step in &self.steps {
            match step {
                Step::Local(ops) => apply_per_shard(state, ops),
                Step::Exchange { swaps, ops } => {
                    for &(g, l) in swaps {
                        exchange_halves(state, g, l);
                    }
                    apply_per_shard(state, ops);
                    for &(g, l) in swaps.iter().rev() {
                        exchange_halves(state, g, l);
                    }
                }
                Step::Flat(ops) => {
                    let mut full = state.gather();
                    let mut scratch = Vec::new();
                    for op in ops {
                        op.apply(&mut full, &mut scratch);
                    }
                    state.scatter(&full);
                }
            }
        }
    }
}

fn sorted_union(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out: Vec<usize> = a.iter().chain(b).copied().collect();
    out.sort_unstable();
    out.dedup();
    out
}

fn flush_local(steps: &mut Vec<Step>, local: &mut Vec<CompiledOp>) {
    if !local.is_empty() {
        steps.push(Step::Local(std::mem::take(local)));
    }
}

fn flush_flat(steps: &mut Vec<Step>, flat: &mut Vec<CompiledOp>) {
    if !flat.is_empty() {
        steps.push(Step::Flat(std::mem::take(flat)));
    }
}

/// Close the open exchange batch: pick one partner local qubit per global
/// qubit (the smallest locals no op of the round touches — feasibility
/// `|high| + |low| ≤ m` guarantees enough of them), emit the round with
/// every op's qubit list transposed through the `(global, local)` swaps,
/// and return how many ops it serves.
fn close_batch(
    steps: &mut Vec<Step>,
    batch: &mut Vec<Operation>,
    batch_high: &mut Vec<usize>,
    batch_low: &mut Vec<usize>,
    m: usize,
) -> usize {
    if batch.is_empty() {
        return 0;
    }
    let high = std::mem::take(batch_high);
    let low = std::mem::take(batch_low);
    let ops = std::mem::take(batch);
    let mut partners: Vec<usize> = Vec::with_capacity(high.len());
    let mut l = 0usize;
    while partners.len() < high.len() {
        if !low.contains(&l) {
            partners.push(l);
        }
        l += 1;
    }
    debug_assert!(partners.last().is_none_or(|&p| p < m));
    let swaps: Vec<(usize, usize)> = high.into_iter().zip(partners).collect();
    let remap = |q: usize| -> usize {
        for &(g, l) in &swaps {
            if q == g {
                return l;
            }
            if q == l {
                return g;
            }
        }
        q
    };
    let count = ops.len();
    let compiled = ops
        .iter()
        .map(|op| {
            // Transpose in place, preserving target order: the generic
            // kernel's column order and the diagonal kernel's gather order
            // must match the flat oracle bit for bit.
            let targets: Vec<usize> = op.targets.iter().map(|&q| remap(q)).collect();
            let controls: Vec<usize> = op.controls.iter().map(|&q| remap(q)).collect();
            CompiledOp::compile(&Operation::new(op.gate.clone(), targets, controls), m)
        })
        .collect();
    steps.push(Step::Exchange {
        swaps,
        ops: compiled,
    });
    count
}

/// Apply a run of `m`-qubit compiled ops to every chunk, fanning out across
/// shards (never inside them — one worker per chunk keeps the accumulation
/// order bit-identical to the flat sweep) when the work justifies threads.
fn apply_per_shard(state: &mut ShardedState, ops: &[CompiledOp]) {
    let shard_len = 1usize << state.local_qubits();
    let per_shard: usize = ops
        .iter()
        .map(|op| op.work_estimate(shard_len))
        .fold(0usize, |a, w| a.saturating_add(w));
    let total = per_shard.saturating_mul(state.shards.len());
    let run = |sh: &mut Shard| {
        for op in ops {
            op.apply(&mut sh.amps, &mut sh.scratch);
        }
    };
    if state.shards.len() >= 2
        && total >= PARALLEL_WORK_THRESHOLD
        && rayon::current_num_threads() > 1
    {
        state.shards.par_iter_mut().for_each(run);
    } else {
        for sh in &mut state.shards {
            run(sh);
        }
    }
}

/// Pointer to the shard array usable from the pair fan-out.  Each worker
/// touches exactly the two shards of its pair and every shard belongs to at
/// most one pair, so the mutable accesses are disjoint.
#[derive(Clone, Copy)]
struct ShardsPtr(*mut Shard);
unsafe impl Send for ShardsPtr {}
unsafe impl Sync for ShardsPtr {}

/// Transpose global qubit `g` with local qubit `l`: partner shards
/// (differing in `g`'s shard-index bit) swap the chunk halves selected by
/// bit `l`.  Self-inverse, pure data movement.
fn exchange_halves(state: &mut ShardedState, g: usize, l: usize) {
    let m = state.local_qubits();
    debug_assert!(g >= m && l < m);
    let gbit = 1usize << (g - m);
    let lbit = 1usize << l;
    let shard_len = state.shard_len();
    let pairs: Vec<usize> = (0..state.shards.len()).filter(|s| s & gbit == 0).collect();
    let swap_pair = |a: &mut [Complex64], b: &mut [Complex64]| {
        // Indices with bit `l` clear come in runs of `lbit`: swap each run's
        // bit-set sibling in shard `a` with the run itself in shard `b`.
        let mut j = 0usize;
        while j < shard_len {
            a[j + lbit..j + 2 * lbit].swap_with_slice(&mut b[j..j + lbit]);
            j += 2 * lbit;
        }
    };
    let moved = pairs.len().saturating_mul(shard_len);
    if pairs.len() >= 2 && moved >= PARALLEL_WORK_THRESHOLD && rayon::current_num_threads() > 1 {
        let ptr = ShardsPtr(state.shards.as_mut_ptr());
        pairs.par_iter().for_each(|&s0| {
            // SAFETY: s0 and s0|gbit are distinct in-bounds indices, and no
            // other worker's pair contains either (pairs partition the
            // shards by the gbit axis).
            let copy = ptr;
            let a = unsafe { &mut (*copy.0.add(s0)).amps };
            let b = unsafe { &mut (*copy.0.add(s0 | gbit)).amps };
            swap_pair(a, b);
        });
    } else {
        for &s0 in &pairs {
            let (lo, hi) = state.shards.split_at_mut(s0 | gbit);
            swap_pair(&mut lo[s0].amps, &mut hi[0].amps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{circuit_compile_count, CompiledCircuit};

    fn roundtrip(n: usize, shards: usize, circ: &Circuit) -> (StateVector, StateVector) {
        let mut flat = StateVector::zero_state(n);
        CompiledCircuit::compile_for(circ, n).apply(&mut flat);
        let plan = ShardedCircuit::compile(circ, n, shards);
        let mut ss = ShardedState::zero_state(n, shards);
        plan.apply(&mut ss);
        (flat, ss.into_state())
    }

    #[test]
    fn state_roundtrips_between_flat_and_sharded() {
        let mut circ = Circuit::new(3);
        circ.h(0).cx(0, 1).ry(2, 0.7);
        let flat = StateVector::run(&circ);
        for shards in [1, 2, 4, 8] {
            let ss = ShardedState::from_state(&flat, shards);
            assert_eq!(ss.num_shards(), shards);
            assert_eq!(ss.to_state().amplitudes(), flat.amplitudes());
            assert!((ss.norm() - flat.norm()).abs() < 1e-15);
            for q in 0..3 {
                assert!((ss.probability_of_one(q) - flat.probability_of_one(q)).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn exchange_is_self_inverse() {
        let mut circ = Circuit::new(4);
        circ.h(0).h(1).h(2).h(3).rz(1, 0.3).cx(0, 3);
        let flat = StateVector::run(&circ);
        let mut ss = ShardedState::from_state(&flat, 4);
        exchange_halves(&mut ss, 3, 1);
        exchange_halves(&mut ss, 3, 1);
        assert_eq!(ss.to_state().amplitudes(), flat.amplitudes());
    }

    #[test]
    fn low_ops_make_one_local_step_and_no_rounds() {
        let mut circ = Circuit::new(5);
        circ.h(0).cx(0, 1).rz(1, 0.4).swap(0, 2);
        let plan = ShardedCircuit::compile(&circ, 5, 4); // m = 3
        assert_eq!(plan.local_ops(), 4);
        assert_eq!(plan.exchange_rounds(), 0);
        assert_eq!(plan.flat_gathers(), 0);
        let (flat, sharded) = roundtrip(5, 4, &circ);
        assert_eq!(flat.amplitudes(), sharded.amplitudes());
    }

    #[test]
    fn high_ops_batch_into_rounds() {
        let mut circ = Circuit::new(5);
        // m = 3 with 4 shards: qubits 3 and 4 are global.  Both ops fit one
        // round (high {3,4} + low {0} = 3 ≤ m), the interleaved low op rides
        // along.
        circ.h(3).rz(0, 0.2).cx(4, 0);
        let plan = ShardedCircuit::compile(&circ, 5, 4);
        assert_eq!(plan.exchange_rounds(), 1);
        assert_eq!(plan.exchanged_ops(), 3);
        assert_eq!(plan.flat_gathers(), 0);
        let (flat, sharded) = roundtrip(5, 4, &circ);
        assert_eq!(flat.amplitudes(), sharded.amplitudes());
    }

    #[test]
    fn wide_ops_fall_back_to_flat_gather() {
        let mut circ = Circuit::new(3);
        circ.h(0).ccx(0, 1, 2).h(2);
        // m = 1 with 4 shards: the Toffoli's 3-qubit support cannot fit any
        // exchange round.
        let plan = ShardedCircuit::compile(&circ, 3, 4);
        assert!(plan.flat_gathers() >= 1);
        let (flat, sharded) = roundtrip(3, 4, &circ);
        assert_eq!(flat.amplitudes(), sharded.amplitudes());
    }

    #[test]
    fn single_amplitude_shards_run_everything_flat() {
        let mut circ = Circuit::new(2);
        circ.h(0).cx(0, 1).t(1);
        // m = 0: no local qubits at all, the plan degenerates to gathers.
        let plan = ShardedCircuit::compile(&circ, 2, 4);
        assert_eq!(plan.local_ops(), 0);
        assert_eq!(plan.exchange_rounds(), 0);
        let (flat, sharded) = roundtrip(2, 4, &circ);
        assert_eq!(flat.amplitudes(), sharded.amplitudes());
    }

    #[test]
    fn compile_once_and_runs_never_recompile() {
        let mut circ = Circuit::new(4);
        circ.h(0).cx(0, 3).rz(3, 0.5).swap(1, 3);
        let before = circuit_compile_count();
        let plan = ShardedCircuit::compile(&circ, 4, 4);
        assert_eq!(circuit_compile_count(), before + 1);
        let mut ss = ShardedState::zero_state(4, 4);
        for _ in 0..3 {
            plan.apply(&mut ss);
        }
        assert_eq!(circuit_compile_count(), before + 1);
    }
}
