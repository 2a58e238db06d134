//! State-vector representation and gate application.
//!
//! This is the quantum-hardware substitute: the paper's experiments run on the
//! myQLM state-vector simulator, and this module plays the same role.  The
//! state of an `n`-qubit register is the full vector of `2^n` complex
//! amplitudes.  Gates are applied **in place** through the compiled
//! specialized kernels of [`crate::kernels`] (dispatch table and parallelism
//! model documented there): [`StateVector::apply_circuit`] compiles each
//! operation once and dispatches to the cheapest kernel, on the calling
//! thread.

use crate::circuit::{Circuit, Operation};
use crate::kernels::{CompiledCircuit, CompiledOp};
use num_complex::Complex64;
use qls_linalg::Vector;

/// The state vector of an `n`-qubit register.
#[derive(Debug, Clone)]
pub struct StateVector {
    num_qubits: usize,
    amps: Vec<Complex64>,
    /// Reusable gather buffer for the generic k-qubit kernel (never observable
    /// through the public API; excluded from equality).
    scratch: Vec<Complex64>,
}

impl PartialEq for StateVector {
    fn eq(&self, other: &Self) -> bool {
        self.num_qubits == other.num_qubits && self.amps == other.amps
    }
}

impl StateVector {
    /// The all-zeros basis state `|0…0⟩`.
    pub fn zero_state(num_qubits: usize) -> Self {
        Self::basis_state(num_qubits, 0)
    }

    /// The computational basis state `|index⟩`.
    pub fn basis_state(num_qubits: usize, index: usize) -> Self {
        assert!(index < (1 << num_qubits), "basis index out of range");
        let mut amps = vec![Complex64::new(0.0, 0.0); 1 << num_qubits];
        amps[index] = Complex64::new(1.0, 0.0);
        StateVector {
            num_qubits,
            amps,
            scratch: Vec::new(),
        }
    }

    /// Build a state from raw amplitudes (length must be a power of two);
    /// the amplitudes are normalised.
    pub fn from_amplitudes(amps: Vec<Complex64>) -> Self {
        let mut sv = Self::from_amplitudes_unchecked(amps);
        sv.normalize();
        sv
    }

    /// Build a state from raw amplitudes **without normalising** (length must
    /// be a power of two).  Gate application is linear, so this is the
    /// entry point for applying circuits to arbitrary (non-unit) vectors;
    /// callers that need a physical state must pass a unit-norm vector.
    pub fn from_amplitudes_unchecked(amps: Vec<Complex64>) -> Self {
        assert!(amps.len().is_power_of_two(), "amplitude count must be 2^n");
        let num_qubits = amps.len().trailing_zeros() as usize;
        StateVector {
            num_qubits,
            amps,
            scratch: Vec::new(),
        }
    }

    /// Reset in place to the computational basis state `|index⟩`, reusing the
    /// amplitude allocation (the hot loop of `circuit_unitary` resets the same
    /// register `2^n` times).
    pub fn reset_to_basis(&mut self, index: usize) {
        assert!(index < self.amps.len(), "basis index out of range");
        self.amps.fill(Complex64::new(0.0, 0.0));
        self.amps[index] = Complex64::new(1.0, 0.0);
    }

    /// Build a state whose amplitudes are the entries of a real vector,
    /// normalised (the encoding of the right-hand side `b/‖b‖` of the paper).
    pub fn from_real_vector(v: &Vector<f64>) -> Self {
        assert!(v.len().is_power_of_two(), "vector length must be 2^n");
        Self::from_amplitudes(v.iter().map(|&x| Complex64::new(x, 0.0)).collect())
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The amplitude vector.
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amps
    }

    /// Mutable access to the amplitudes (used by tests and by post-selection).
    /// The length is fixed at `2^num_qubits` — only the values are writable.
    pub fn amplitudes_mut(&mut self) -> &mut [Complex64] {
        &mut self.amps
    }

    /// Replace the whole amplitude vector without copying (the retained
    /// generic reference path rebuilds it per gate).  The length must match.
    pub(crate) fn set_amplitudes(&mut self, amps: Vec<Complex64>) {
        assert_eq!(amps.len(), self.amps.len(), "amplitude length must match");
        self.amps = amps;
    }

    /// Consume the state, returning the amplitude vector without copying.
    pub fn into_amplitudes(self) -> Vec<Complex64> {
        self.amps
    }

    /// Amplitudes plus the reusable kernel scratch buffer, for
    /// [`crate::kernels::CompiledCircuit::apply`].
    pub(crate) fn amps_and_scratch(&mut self) -> (&mut [Complex64], &mut Vec<Complex64>) {
        (&mut self.amps, &mut self.scratch)
    }

    /// Euclidean norm of the state (1 for a normalised state).
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Normalise in place; returns the previous norm.
    pub fn normalize(&mut self) -> f64 {
        let n = self.norm();
        if n > 0.0 {
            let inv = 1.0 / n;
            for a in &mut self.amps {
                *a *= inv;
            }
        }
        n
    }

    /// Inner product `⟨self|other⟩`.
    pub fn inner(&self, other: &Self) -> Complex64 {
        assert_eq!(
            self.num_qubits, other.num_qubits,
            "inner: register size mismatch"
        );
        self.amps
            .iter()
            .zip(&other.amps)
            .map(|(a, b)| a.conj() * b)
            .sum()
    }

    /// Fidelity `|⟨self|other⟩|²` between two normalised states.
    pub fn fidelity(&self, other: &Self) -> f64 {
        self.inner(other).norm_sqr()
    }

    /// Probability of measuring the computational basis state `index`.
    pub fn probability(&self, index: usize) -> f64 {
        self.amps[index].norm_sqr()
    }

    /// All basis-state probabilities.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// The probability that qubit `q` is measured as `1`.
    ///
    /// Walks the set-bit stride directly — runs of `2^q` amplitudes starting
    /// at every odd multiple of `2^q` — touching exactly the `2^(n-1)` entries
    /// where the bit is set, instead of scanning and filtering all `2^n`.
    pub fn probability_of_one(&self, q: usize) -> f64 {
        assert!(q < self.num_qubits, "qubit index out of range");
        let stride = 1usize << q;
        let mut sum = 0.0;
        let mut start = stride;
        while start < self.amps.len() {
            sum += self.amps[start..start + stride]
                .iter()
                .map(|a| a.norm_sqr())
                .sum::<f64>();
            start += stride << 1;
        }
        sum
    }

    /// Tensor product `self ⊗ other` (other occupies the *lower* qubit indices).
    pub fn tensor(&self, other: &Self) -> Self {
        let mut amps = vec![Complex64::new(0.0, 0.0); self.amps.len() * other.amps.len()];
        for (i, &a) in self.amps.iter().enumerate() {
            for (j, &b) in other.amps.iter().enumerate() {
                amps[(i << other.num_qubits) | j] = a * b;
            }
        }
        StateVector {
            num_qubits: self.num_qubits + other.num_qubits,
            amps,
            scratch: Vec::new(),
        }
    }

    /// Apply one operation in place through the specialized kernel dispatch
    /// (compiling the operation on the spot; batch callers should prefer
    /// [`StateVector::apply_circuit`] or a pre-built
    /// [`CompiledCircuit`](crate::kernels::CompiledCircuit)).
    pub fn apply_op(&mut self, op: &Operation) {
        let compiled = CompiledOp::compile(op, self.num_qubits);
        compiled.apply(&mut self.amps, &mut self.scratch);
    }

    /// Apply a whole circuit in place: each operation is compiled once into
    /// its specialized in-place kernel, then applied.
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        CompiledCircuit::compile_for(circuit, self.num_qubits).apply(self);
    }

    /// Run a circuit on `|0…0⟩` and return the final state.
    pub fn run(circuit: &Circuit) -> Self {
        let mut sv = Self::zero_state(circuit.num_qubits());
        sv.apply_circuit(circuit);
        sv
    }

    /// [`StateVector::run`] through the sharded engine ([`crate::shard`]):
    /// the register is split into `num_shards` worker-owned chunks and the
    /// circuit executes via per-shard sweeps and pairwise exchanges.
    /// Bit-identical to [`StateVector::run`] at every shard count.
    pub fn run_sharded(circuit: &Circuit, num_shards: usize) -> Self {
        use crate::shard::{ShardedCircuit, ShardedState};
        let plan = ShardedCircuit::compile(circuit, circuit.num_qubits(), num_shards);
        let mut sharded = ShardedState::zero_state(circuit.num_qubits(), num_shards);
        plan.apply(&mut sharded);
        sharded.into_state()
    }

    /// Project onto the subspace where the given qubits are all `|0⟩`,
    /// *without* renormalising.  Returns the probability mass kept.
    ///
    /// This is the post-selection on the block-encoding / QSVT ancillas: the
    /// "good" branch `|0⟩_a A|ψ⟩` of `U(|0⟩_a|ψ⟩)`.
    pub fn project_zeros(&mut self, qubits: &[usize]) -> f64 {
        let mask: usize = qubits.iter().map(|&q| 1usize << q).sum();
        let mut kept = 0.0;
        for (i, a) in self.amps.iter_mut().enumerate() {
            if i & mask != 0 {
                *a = Complex64::new(0.0, 0.0);
            } else {
                kept += a.norm_sqr();
            }
        }
        kept
    }

    /// Post-select the given qubits on `|0⟩` and renormalise, returning the
    /// success probability.  Returns `None` when the probability is (numerically)
    /// zero and the conditional state is undefined.
    pub fn postselect_zeros(&mut self, qubits: &[usize]) -> Option<f64> {
        let p = self.project_zeros(qubits);
        if p <= 1e-300 {
            return None;
        }
        let inv = 1.0 / p.sqrt();
        for a in &mut self.amps {
            *a *= inv;
        }
        Some(p)
    }

    /// Extract the state of the low `k` qubits assuming all other qubits are in
    /// `|0⟩` (panics in debug mode if that assumption is violated beyond `1e-10`).
    pub fn extract_low_qubits(&self, k: usize) -> Vec<Complex64> {
        let dim = 1usize << k;
        #[cfg(debug_assertions)]
        {
            let leaked: f64 = self
                .amps
                .iter()
                .enumerate()
                .filter(|(i, _)| *i >= dim)
                .map(|(_, a)| a.norm_sqr())
                .sum();
            debug_assert!(
                leaked < 1e-10,
                "extract_low_qubits: {leaked} probability mass outside the low register"
            );
        }
        self.amps[..dim].to_vec()
    }

    /// The real parts of the amplitudes as a real vector (the readout used for
    /// real linear systems, where the solution amplitudes are real up to a
    /// global phase).
    pub fn real_amplitudes(&self) -> Vector<f64> {
        self.amps.iter().map(|a| a.re).collect()
    }

    /// Expectation value of a diagonal observable given by its values on the
    /// computational basis.
    pub fn expectation_diagonal(&self, values: &[f64]) -> f64 {
        assert_eq!(
            values.len(),
            self.amps.len(),
            "observable dimension mismatch"
        );
        self.amps
            .iter()
            .zip(values)
            .map(|(a, &v)| a.norm_sqr() * v)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    #[test]
    fn zero_state_and_basis_state() {
        let sv = StateVector::zero_state(3);
        assert_eq!(sv.amplitudes().len(), 8);
        assert_eq!(sv.probability(0), 1.0);
        let sv5 = StateVector::basis_state(3, 5);
        assert_eq!(sv5.probability(5), 1.0);
        assert!((sv5.norm() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn x_gate_flips_qubit() {
        let mut c = Circuit::new(2);
        c.x(0);
        let sv = StateVector::run(&c);
        // Little-endian: X on qubit 0 maps |00> -> |01> = index 1.
        assert!((sv.probability(1) - 1.0).abs() < 1e-14);

        let mut c2 = Circuit::new(2);
        c2.x(1);
        let sv2 = StateVector::run(&c2);
        assert!((sv2.probability(2) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn hadamard_creates_uniform_superposition() {
        let mut circ = Circuit::new(3);
        circ.h(0).h(1).h(2);
        let sv = StateVector::run(&circ);
        for i in 0..8 {
            assert!((sv.probability(i) - 0.125).abs() < 1e-14, "i = {i}");
        }
    }

    #[test]
    fn bell_state() {
        let mut circ = Circuit::new(2);
        circ.h(0).cx(0, 1);
        let sv = StateVector::run(&circ);
        assert!((sv.probability(0) - 0.5).abs() < 1e-14);
        assert!((sv.probability(3) - 0.5).abs() < 1e-14);
        assert!(sv.probability(1) < 1e-14);
        assert!(sv.probability(2) < 1e-14);
    }

    #[test]
    fn controlled_gate_only_acts_when_control_set() {
        // CX with control |0>: nothing happens.
        let mut circ = Circuit::new(2);
        circ.cx(0, 1);
        let sv = StateVector::run(&circ);
        assert!((sv.probability(0) - 1.0).abs() < 1e-14);
        // With the control flipped first, the target flips too.
        let mut circ2 = Circuit::new(2);
        circ2.x(0).cx(0, 1);
        let sv2 = StateVector::run(&circ2);
        assert!((sv2.probability(3) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn toffoli_truth_table() {
        for input in 0..8usize {
            let mut circ = Circuit::new(3);
            // Prepare |input> then apply CCX(0,1 -> 2).
            for q in 0..3 {
                if input & (1 << q) != 0 {
                    circ.x(q);
                }
            }
            circ.ccx(0, 1, 2);
            let sv = StateVector::run(&circ);
            let expected = if input & 0b11 == 0b11 {
                input ^ 0b100
            } else {
                input
            };
            assert!(
                (sv.probability(expected) - 1.0).abs() < 1e-13,
                "input {input}: expected {expected}"
            );
        }
    }

    #[test]
    fn swap_gate() {
        let mut circ = Circuit::new(2);
        circ.x(0).swap(0, 1);
        let sv = StateVector::run(&circ);
        assert!((sv.probability(2) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn circuit_followed_by_adjoint_is_identity() {
        let mut circ = Circuit::new(3);
        circ.h(0)
            .cx(0, 1)
            .t(2)
            .cry(1, 2, 0.7)
            .rz(0, 1.3)
            .ccx(0, 1, 2)
            .ry(1, -0.4);
        let mut sv = StateVector::zero_state(3);
        sv.apply_circuit(&circ);
        sv.apply_circuit(&circ.adjoint());
        let zero = StateVector::zero_state(3);
        assert!(sv.fidelity(&zero) > 1.0 - 1e-12);
    }

    #[test]
    fn norm_preserved_by_unitary_circuits() {
        let mut circ = Circuit::new(4);
        circ.h(0)
            .h(1)
            .cry(0, 2, 1.1)
            .ccx(1, 2, 3)
            .rz(3, 0.3)
            .swap(0, 3);
        let sv = StateVector::run(&circ);
        assert!((sv.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_real_vector_encodes_normalised_amplitudes() {
        let v = Vector::from_f64_slice(&[1.0, 2.0, 2.0, 4.0]);
        let sv = StateVector::from_real_vector(&v);
        assert_eq!(sv.num_qubits(), 2);
        assert!((sv.norm() - 1.0).abs() < 1e-14);
        assert!((sv.probability(3) - 16.0 / 25.0).abs() < 1e-14);
    }

    #[test]
    fn tensor_product_structure() {
        let a = StateVector::basis_state(1, 1);
        let b = StateVector::basis_state(2, 2);
        let ab = a.tensor(&b); // a occupies the high qubit
        assert_eq!(ab.num_qubits(), 3);
        assert!((ab.probability(0b110) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn postselection_on_ancilla() {
        // (|0>+|1>)/sqrt(2) on qubit 1 (ancilla), |1> on qubit 0 (data).
        let mut circ = Circuit::new(2);
        circ.x(0).h(1);
        let mut sv = StateVector::run(&circ);
        let p = sv.postselect_zeros(&[1]).unwrap();
        assert!((p - 0.5).abs() < 1e-14);
        assert!((sv.probability(1) - 1.0).abs() < 1e-14);
        assert!((sv.norm() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn postselection_with_zero_probability_fails() {
        let mut circ = Circuit::new(1);
        circ.x(0);
        let mut sv = StateVector::run(&circ);
        assert!(sv.postselect_zeros(&[0]).is_none());
    }

    #[test]
    fn probability_of_one_and_expectation() {
        let mut circ = Circuit::new(2);
        circ.h(0);
        let sv = StateVector::run(&circ);
        assert!((sv.probability_of_one(0) - 0.5).abs() < 1e-14);
        assert!(sv.probability_of_one(1) < 1e-14);
        // Z expectation on qubit 0 is 0 for |+>.
        let z_values: Vec<f64> = (0..4)
            .map(|i| if i & 1 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert!(sv.expectation_diagonal(&z_values).abs() < 1e-14);
    }

    #[test]
    fn phase_gate_is_diagonal() {
        let mut circ = Circuit::new(1);
        circ.h(0).phase(0, std::f64::consts::FRAC_PI_2);
        let sv = StateVector::run(&circ);
        // (|0> + i|1>)/sqrt(2).
        assert!((sv.amplitudes()[0] - c(std::f64::consts::FRAC_1_SQRT_2, 0.0)).norm() < 1e-14);
        assert!((sv.amplitudes()[1] - c(0.0, std::f64::consts::FRAC_1_SQRT_2)).norm() < 1e-14);
    }

    #[test]
    fn multi_qubit_unitary_gate() {
        use crate::cmatrix::CMatrix;
        // A 2-qubit unitary that swaps |00> and |11> (X⊗X restricted... actually
        // just use X⊗X as a single 4x4 unitary gate).
        let x = Gate::X.matrix();
        let xx = x.kron(&x);
        let mut circ = Circuit::new(2);
        circ.gate(
            Gate::Unitary(CMatrix::from_fn(4, 4, |i, j| xx[(i, j)])),
            &[0, 1],
        );
        let sv = StateVector::run(&circ);
        assert!((sv.probability(3) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn extract_low_qubits_after_postselection() {
        let mut circ = Circuit::new(3);
        circ.h(0).cx(0, 1); // bell pair on data qubits 0,1; ancilla 2 stays |0>
        let sv = StateVector::run(&circ);
        let low = sv.extract_low_qubits(2);
        assert_eq!(low.len(), 4);
        assert!((low[0].norm_sqr() - 0.5).abs() < 1e-14);
        assert!((low[3].norm_sqr() - 0.5).abs() < 1e-14);
    }
}
