//! Spans recorded by the traced replay: wall time per layer stage plus the
//! counts taken at the same boundaries.

use crate::report::Outcome;
use qls_linalg::Vector;
use std::time::Instant;

/// A timed stage of one solve.  The replay wraps each call into a layer
/// with exactly one stage; `SolveDirection` encloses `EmbedProject`,
/// `SimRun`, `PolyEval` and `SvdApply`, every other stage is top level.
#[derive(Clone, Copy, Debug)]
pub enum Stage {
    /// `b − A x` and the scaled residual of the candidate iterate.
    Residual,
    /// `QsvtInverter::solve_direction`: the quantum solve of the direction.
    SolveDirection,
    /// Normalise, `embed_data`, `project_data` and the direction norm.
    EmbedProject,
    /// `QuantumExecutor::run_in_place_checked` / `run_batch_checked`.
    SimRun,
    /// `ChebyshevSeries::eval` at the singular values (emulation mode).
    PolyEval,
    /// `Svd::apply_function` (emulation mode).
    SvdApply,
    /// Work whose results only feed `SolveCost`: `StatePreparation::new`,
    /// two `QsvtInverter::resources` calls and the discarded residual.
    Accounting,
    /// `sample_direction`: finite-shot readout.
    Readout,
    /// Brent norm recovery: `A η`, `brent_minimize`, rescaling.
    NormRecovery,
    /// Finite checks and `x + e` (hybrid refiner).
    Update,
    /// Precision conversions, `x += e` and the correction norm (classical
    /// refiner).
    Convert,
    /// `InnerSolver::solve` of the classical refiner.
    InnerSolve,
}

const STAGES: usize = 12;

impl Stage {
    const ALL: [Stage; STAGES] = [
        Stage::Residual,
        Stage::SolveDirection,
        Stage::EmbedProject,
        Stage::SimRun,
        Stage::PolyEval,
        Stage::SvdApply,
        Stage::Accounting,
        Stage::Readout,
        Stage::NormRecovery,
        Stage::Update,
        Stage::Convert,
        Stage::InnerSolve,
    ];

    /// The per-layer metric reporting this stage's time per solve.
    fn metric(self) -> &'static str {
        match self {
            Stage::Residual => "linalg.residual_s",
            Stage::SolveDirection => "qsvt.solve_direction_s",
            Stage::EmbedProject => "encoding.embed_project_s",
            Stage::SimRun => "sim.run_s",
            Stage::PolyEval => "poly.eval_s",
            Stage::SvdApply => "linalg.svd_apply_s",
            Stage::Accounting => "core.accounting_s",
            Stage::Readout => "core.readout_s",
            Stage::NormRecovery => "core.norm_recovery_s",
            Stage::Update => "core.update_s",
            Stage::Convert => "linalg.update_s",
            Stage::InnerSolve => "linalg.inner_solve_s",
        }
    }

    /// Stages that do not nest inside another; their sum is the attributed
    /// time.
    fn top_level(self) -> bool {
        !matches!(
            self,
            Stage::EmbedProject | Stage::SimRun | Stage::PolyEval | Stage::SvdApply
        )
    }
}

/// Span totals and boundary counts of one or more replayed solves.
#[derive(Clone, Default)]
pub struct Spans {
    secs: [f64; STAGES],
    /// `QsvtInverter::resources` calls.
    pub resources_calls: usize,
    /// Objective evaluations of `brent_minimize`.
    pub brent_evals: usize,
    /// Operator applications at working precision (`matvec` and the one
    /// inside each `scaled_residual`).
    pub matvecs: usize,
    /// Low-precision inner solves (classical refiner).
    pub inner_solves: usize,
}

impl Spans {
    /// Time `f` as `stage`.
    pub fn time<R>(&mut self, stage: Stage, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.secs[stage as usize] += start.elapsed().as_secs_f64();
        out
    }

    /// Add the time since `start` to `stage` (for enclosing stages whose
    /// children are timed with [`Spans::time`]).
    pub fn close(&mut self, stage: Stage, start: Instant) {
        self.secs[stage as usize] += start.elapsed().as_secs_f64();
    }

    pub fn secs(&self, stage: Stage) -> f64 {
        self.secs[stage as usize]
    }

    /// Sum of the top-level stages.
    pub fn attributed(&self) -> f64 {
        Stage::ALL
            .iter()
            .filter(|s| s.top_level())
            .map(|&s| self.secs(s))
            .sum()
    }

    /// Every stage's time divided by `solves`, as per-layer metrics.
    pub fn report(&self, out: &mut Outcome, solves: usize) {
        for stage in Stage::ALL {
            let per_solve = self.secs(stage) / solves.max(1) as f64;
            out.metric(stage.metric(), per_solve, "s", solves);
        }
    }

    pub fn add(&mut self, other: &Spans) {
        for (a, b) in self.secs.iter_mut().zip(other.secs) {
            *a += b;
        }
        self.resources_calls += other.resources_calls;
        self.brent_evals += other.brent_evals;
        self.matvecs += other.matvecs;
        self.inner_solves += other.inner_solves;
    }
}

/// True when the two vectors hold the same bits.
pub fn bitwise_equal(a: &Vector<f64>, b: &Vector<f64>) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// What a traced loop did, beside the spans of the calls the replay followed.
#[derive(Default)]
pub struct Replayed {
    pub calls: usize,
    /// Right-hand sides over all calls.
    pub rhs: usize,
    /// Calls the replay followed but did not reproduce.
    pub mismatched: usize,
    /// Wall time of the untraced calls.
    pub untraced: f64,
    /// Wall time of the replays.
    pub traced: f64,
}

impl Replayed {
    /// The `trace.*` metrics that say how far to trust the spans.
    pub fn report(&self, spans: &Spans, out: &mut Outcome) {
        let calls = self.calls;
        let rhs = self.rhs.max(1) as f64;
        out.metric(
            "trace.unattributed_fraction",
            1.0 - spans.attributed() / self.untraced,
            "ratio",
            calls,
        );
        out.metric(
            "trace.overhead_fraction",
            self.traced / self.untraced - 1.0,
            "ratio",
            calls,
        );
        out.metric(
            "trace.replay_mismatch_fraction",
            self.mismatched as f64 / calls.max(1) as f64,
            "ratio",
            calls,
        );
        out.metric("trace.untraced_solve_s", self.untraced / rhs, "s", calls);
        out.metric("trace.traced_solve_s", self.traced / rhs, "s", calls);
        if self.mismatched > 0 {
            eprintln!(
                "{} of {calls} replays did not reproduce the untraced call",
                self.mismatched
            );
        }
    }
}
