//! Compile-once execution engine for block-encodings.
//!
//! The [`BlockEncodingExt`](crate::block_encoding::BlockEncodingExt)
//! convenience methods re-walk (and, for the adjoint, re-derive) the encoding
//! circuit on every call — fine for a one-off verification, wasteful for the
//! paper's actual access pattern where the matrix is fixed and the encoding
//! is applied over and over.  [`BlockEncodingExecutor`] captures everything
//! per-call work can be hoisted out of, exactly once at construction:
//!
//! * the forward circuit compiled into a
//!   [`QuantumExecutor`](qls_sim::QuantumExecutor);
//! * the **adjoint** circuit derived *and* compiled (the `Ext` path rebuilds
//!   the adjoint gate list per call);
//! * the ancilla index list used for post-selection.
//!
//! Application is normalisation-free: the block action `v ↦ (A/α)v` is
//! linear, so the input is used as-is (no normalise/renormalise round trip).
//! [`BlockEncodingExecutor::apply_batch`] applies the one compiled circuit to
//! many inputs with the executor's coarse-grained batch fan-out.
//!
//! Both engines run the simulator's circuit-optimizer pass by default
//! (`qls_sim::fuse`: gate fusion + diagonal merging), so structured
//! encodings with long gate lists (LCU, FABLE, tridiagonal) execute as a
//! handful of dense sweeps; [`BlockEncodingExecutor::with_exec_mode`] retains
//! the unoptimized one-op-per-gate form as the equivalence oracle.

use crate::block_encoding::BlockEncoding;
use num_complex::Complex64;
use qls_sim::{CachePolicy, ExecMode, OptLevel, QuantumExecutor, StateVector};

/// A block-encoding compiled once (forward and adjoint) for repeated and
/// batched application.
#[derive(Debug, Clone)]
pub struct BlockEncodingExecutor {
    forward: QuantumExecutor,
    adjoint: QuantumExecutor,
    num_data_qubits: usize,
    num_ancilla_qubits: usize,
    alpha: f64,
    /// Ancilla qubit indices (`n..n+a`), precomputed for post-selection.
    ancillas: Vec<usize>,
}

impl BlockEncodingExecutor {
    /// Compile `be`'s circuit and its adjoint exactly once, at the default
    /// optimization level (gate fusion on, [`OptLevel::Fuse`]).
    pub fn new<B: BlockEncoding + ?Sized>(be: &B) -> Self {
        Self::with_exec_mode(be, OptLevel::default(), ExecMode::Flat)
    }

    /// The general constructor, at an explicit [`OptLevel`] and
    /// [`ExecMode`].  `OptLevel::None` keeps the compiled form
    /// one-op-per-gate — the unoptimized oracle/baseline.
    /// `ExecMode::Sharded` runs both compiled circuits (forward and adjoint)
    /// through the sharded register engine (`qls_sim::shard`), with fusion
    /// biased toward low-qubit support to minimize exchange rounds.
    pub fn with_exec_mode<B: BlockEncoding + ?Sized>(
        be: &B,
        opt_level: OptLevel,
        mode: ExecMode,
    ) -> Self {
        let n = be.num_data_qubits();
        let total = be.total_qubits();
        BlockEncodingExecutor {
            forward: QuantumExecutor::with_config(
                be.circuit(),
                opt_level,
                mode,
                CachePolicy::Disabled,
            ),
            adjoint: QuantumExecutor::with_config(
                &be.circuit().adjoint(),
                opt_level,
                mode,
                CachePolicy::Disabled,
            ),
            num_data_qubits: n,
            num_ancilla_qubits: be.num_ancilla_qubits(),
            alpha: be.alpha(),
            ancillas: (n..total).collect(),
        }
    }

    /// The execution mode of the compiled engines.
    pub fn exec_mode(&self) -> ExecMode {
        self.forward.exec_mode()
    }

    /// Number of data qubits `n`.
    pub fn num_data_qubits(&self) -> usize {
        self.num_data_qubits
    }

    /// Number of ancilla qubits `a`.
    pub fn num_ancilla_qubits(&self) -> usize {
        self.num_ancilla_qubits
    }

    /// The sub-normalisation `α` with `(⟨0|U|0⟩) = A/α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Total qubits of the compiled circuit.
    pub fn total_qubits(&self) -> usize {
        self.num_data_qubits + self.num_ancilla_qubits
    }

    /// Embed a data-register vector into the full register (ancillas `|0⟩`).
    fn embed(&self, data: &[Complex64]) -> StateVector {
        assert_eq!(
            data.len(),
            1usize << self.num_data_qubits,
            "data vector dimension mismatch"
        );
        crate::block_encoding::embed_data(data, self.total_qubits())
    }

    /// Project the ancillas of an executed register back onto `|0⟩` and
    /// return the data block.
    fn project(&self, mut state: StateVector) -> Vec<Complex64> {
        crate::block_encoding::project_data(&mut state, self.num_data_qubits, &self.ancillas)
    }

    /// Apply the raw block action `v ↦ (A/α)v` (linear, no normalisation).
    pub fn apply(&self, data: &[Complex64]) -> Vec<Complex64> {
        let mut state = self.embed(data);
        self.forward.run_in_place(&mut state);
        self.project(state)
    }

    /// Apply the adjoint block `v ↦ (A†/α)v` through the pre-compiled adjoint
    /// circuit.
    pub fn apply_adjoint(&self, data: &[Complex64]) -> Vec<Complex64> {
        let mut state = self.embed(data);
        self.adjoint.run_in_place(&mut state);
        self.project(state)
    }

    /// Apply `v ↦ (A/α)v` to every input, fanning out across the batch (see
    /// [`QuantumExecutor::run_batch`]).  Results are identical to mapping
    /// [`BlockEncodingExecutor::apply`] over the inputs.
    pub fn apply_batch(&self, inputs: &[Vec<Complex64>]) -> Vec<Vec<Complex64>> {
        let mut states: Vec<StateVector> = inputs.iter().map(|v| self.embed(v)).collect();
        self.forward.run_batch(&mut states);
        states.into_iter().map(|s| self.project(s)).collect()
    }

    /// Success probability of post-selecting the ancillas on `|0⟩` when the
    /// data register holds `ψ`: `‖(A/α)ψ‖² / ‖ψ‖²`.
    pub fn success_probability(&self, data: &[Complex64]) -> f64 {
        let norm2: f64 = data.iter().map(|a| a.norm_sqr()).sum();
        if norm2 == 0.0 {
            return 0.0;
        }
        let out = self.apply(data);
        out.iter().map(|a| a.norm_sqr()).sum::<f64>() / norm2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_encoding::BlockEncodingExt;
    use crate::dilation::DilationBlockEncoding;
    use qls_linalg::Matrix;
    use qls_sim::circuit_compile_count;

    fn test_encoding() -> DilationBlockEncoding {
        let a = Matrix::from_f64_slice(
            4,
            4,
            &[
                0.31, -0.12, 0.05, 0.2, //
                0.07, 0.44, -0.3, 0.01, //
                -0.2, 0.15, 0.25, 0.09, //
                0.11, -0.04, 0.18, 0.36,
            ],
        );
        DilationBlockEncoding::new(&a, 1.0)
    }

    #[test]
    fn engine_matches_ext_apply() {
        let be = test_encoding();
        let engine = BlockEncodingExecutor::new(&be);
        let v: Vec<Complex64> = (0..4)
            .map(|i| Complex64::new(0.3 * i as f64 - 0.4, 0.1))
            .collect();
        let via_engine = engine.apply(&v);
        let via_ext = be.apply(&v);
        for (x, y) in via_engine.iter().zip(&via_ext) {
            assert!((x - y).norm() < 1e-12);
        }
        let adj_engine = engine.apply_adjoint(&v);
        let adj_ext = be.apply_adjoint(&v);
        for (x, y) in adj_engine.iter().zip(&adj_ext) {
            assert!((x - y).norm() < 1e-12);
        }
    }

    #[test]
    fn engine_compiles_once_across_many_applies() {
        let be = test_encoding();
        let engine = BlockEncodingExecutor::new(&be);
        let inputs: Vec<Vec<Complex64>> = (0..5)
            .map(|k| {
                (0..4)
                    .map(|i| Complex64::new((i + k) as f64 * 0.1, 0.0))
                    .collect()
            })
            .collect();
        let before = circuit_compile_count();
        for v in &inputs {
            let _ = engine.apply(v);
            let _ = engine.apply_adjoint(v);
        }
        let batched = engine.apply_batch(&inputs);
        assert_eq!(
            circuit_compile_count(),
            before,
            "apply/apply_batch must not recompile"
        );
        for (b, v) in batched.iter().zip(&inputs) {
            let single = engine.apply(v);
            for (x, y) in b.iter().zip(&single) {
                assert!((x - y).norm() < 1e-14);
            }
        }
    }

    #[test]
    fn fused_engine_matches_unoptimized_engine_on_gate_level_encoding() {
        // The LCU encoding has a real multi-gate circuit, so fusion actually
        // rewrites it; both engines must agree to 1e-12 on the block action.
        let a = Matrix::from_f64_slice(
            4,
            4,
            &[
                0.3, -0.1, 0.0, 0.2, 0.1, 0.4, -0.2, 0.0, 0.0, -0.2, 0.25, 0.1, 0.2, 0.0, 0.1, 0.35,
            ],
        );
        let be = crate::lcu::LcuBlockEncoding::new(&a, 1e-13);
        let fused = BlockEncodingExecutor::new(&be);
        let raw = BlockEncodingExecutor::with_exec_mode(&be, OptLevel::None, ExecMode::Flat);
        let v: Vec<Complex64> = (0..4)
            .map(|i| Complex64::new(0.25 * i as f64 - 0.3, 0.1 * i as f64))
            .collect();
        for (x, y) in fused.apply(&v).iter().zip(&raw.apply(&v)) {
            assert!((x - y).norm() < 1e-12);
        }
        for (x, y) in fused.apply_adjoint(&v).iter().zip(&raw.apply_adjoint(&v)) {
            assert!((x - y).norm() < 1e-12);
        }
    }

    #[test]
    fn success_probability_matches_ext() {
        let be = test_encoding();
        let engine = BlockEncodingExecutor::new(&be);
        let v = vec![
            Complex64::new(1.0, 0.0),
            Complex64::new(0.0, 0.0),
            Complex64::new(0.0, 0.0),
            Complex64::new(0.0, 0.0),
        ];
        assert!((engine.success_probability(&v) - be.success_probability(&v)).abs() < 1e-12);
        assert_eq!(
            engine.success_probability(&[Complex64::new(0.0, 0.0); 4]),
            0.0
        );
    }
}
