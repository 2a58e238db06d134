//! The three `HybridRefiner` workloads: untraced closed loop, correctness
//! checks, and the traced replay of each solve through the public entry
//! points the refiner itself calls.

use crate::report::{end_to_end, Loop, Outcome, Tally, Verdict};
use crate::setup::{on_fresh_thread, timed, SetupSampler, WorkDir};
use crate::stats::median;
use crate::trace::{bitwise_equal, Replayed, Spans, Stage};
use num_complex::Complex64;
use qls_cache::CachePolicy;
use qls_core::{
    sample_direction, HybridHistory, HybridRefinementOptions, HybridRefiner, QlsError,
    QsvtSolverOptions, RecoveryPolicy,
};
use qls_encoding::block_encoding::{embed_data, project_data};
use qls_encoding::{DilationBlockEncoding, StatePreparation};
use qls_linalg::generate::{
    random_matrix_with_cond, random_unit_vector, MatrixEnsemble, SingularValueDistribution,
};
use qls_linalg::lu::lu_solve;
use qls_linalg::{brent_minimize, scaled_residual, Matrix, Svd, Vector};
use qls_poly::InversePolynomial;
use qls_qsvt::phases::{find_phases_cached, phase_generation_count, PhaseFindingOptions};
use qls_qsvt::{QsvtCircuit, QsvtInverter, QsvtMode};
use qls_sim::fuse::{calibration_count, optimize_circuit_for, FusionOptions};
use qls_sim::{CompiledCircuit, ExecMode, QuantumExecutor, StateVector};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target scaled residual ε of every hybrid workload (the paper's Fig. 3/4).
const TARGET_EPSILON: f64 = 1e-11;
/// Seed of the fixed test matrices (the right-hand sides come from `--seed`).
const MATRIX_SEED: u64 = 1_600_011;
/// Stream separating the readout-noise RNG from the right-hand-side RNG.
const NOISE_STREAM: u64 = 0x6e6f_6973_6521;
/// A step is healthy when it shrinks the scaled residual to this share of
/// the previous one (the refiner's own contraction slack).
const CONTRACTION_TOLERANCE: f64 = 0.95;
/// Registers kept for the `run_batch` vs one-by-one comparison.
const BATCH_ROUNDS_KEPT: usize = 8;

/// One hybrid workload.
pub struct Spec {
    pub name: &'static str,
    /// Condition numbers of the N = 16 test matrices, used in rotation.
    pub kappas: &'static [f64],
    /// ε_l as a function of κ.
    pub epsilon_l: fn(f64) -> f64,
    pub mode: QsvtMode,
    /// Finite-shot readout at the paper's model count `shots_for_accuracy(ε_l)`.
    pub sampled: bool,
    /// Arm `RecoveryPolicy::full()` (else the default, disabled ladder).
    pub recovery: bool,
    /// `Some(k)`: right-hand sides arrive `k` at a time through `solve_many`.
    pub batch: Option<usize>,
    pub setup_reps: usize,
    /// Untimed calls before the measured loop (checked like every call).
    pub warmup_calls: usize,
}

pub const CIRCUIT_STREAM: Spec = Spec {
    name: "circuit_stream",
    kappas: &[10.0],
    epsilon_l: |_| 1e-2,
    mode: QsvtMode::CircuitReal,
    sampled: false,
    recovery: false,
    batch: None,
    setup_reps: 9,
    warmup_calls: 200,
};

pub const CIRCUIT_BATCH_SHOTS: Spec = Spec {
    name: "circuit_batch_shots",
    sampled: true,
    recovery: true,
    batch: Some(16),
    warmup_calls: 4,
    ..CIRCUIT_STREAM
};

pub const EMULATION_LARGE_KAPPA: Spec = Spec {
    name: "emulation_large_kappa",
    kappas: &[100.0, 200.0, 300.0],
    epsilon_l: |kappa| 0.25 / kappa,
    mode: QsvtMode::Emulation,
    setup_reps: 25,
    warmup_calls: 300,
    ..CIRCUIT_STREAM
};

/// One fixed test system.
struct System {
    a: Matrix<f64>,
    kappa: f64,
    options: HybridRefinementOptions,
}

fn systems(spec: &Spec) -> Vec<System> {
    spec.kappas
        .iter()
        .enumerate()
        .map(|(i, &kappa)| {
            let mut rng = ChaCha8Rng::seed_from_u64(MATRIX_SEED + i as u64);
            let a = random_matrix_with_cond(
                16,
                kappa,
                SingularValueDistribution::Geometric,
                MatrixEnsemble::General,
                &mut rng,
            );
            let epsilon_l = (spec.epsilon_l)(kappa);
            let mut solver = QsvtSolverOptions {
                epsilon_l,
                mode: spec.mode,
                ..Default::default()
            };
            if spec.sampled {
                solver.shots = Some(solver.model_shots());
            }
            let options = HybridRefinementOptions {
                target_epsilon: TARGET_EPSILON,
                epsilon_l,
                solver,
                recovery: if spec.recovery {
                    RecoveryPolicy::full()
                } else {
                    RecoveryPolicy::default()
                },
                ..Default::default()
            };
            System { a, kappa, options }
        })
        .collect()
}

fn build_refiners(systems: &[System]) -> Result<Vec<HybridRefiner>, QlsError> {
    systems
        .iter()
        .map(|s| HybridRefiner::new(&s.a, s.options))
        .collect()
}

/// Check one solve: no `Err`, a status that reached the target, a recomputed
/// scaled residual ≤ ε, and a forward error against dense LU within the
/// residual bound `‖x − x_ref‖/‖x_ref‖ ≤ κ (ω + ω_ref)` (with slack 2).
fn check(
    sys: &System,
    b: &Vector<f64>,
    result: &Result<(Vector<f64>, HybridHistory), QlsError>,
) -> Verdict {
    let Ok((x, history)) = result else {
        return Verdict::error();
    };
    let x_ref = lu_solve(&sys.a, b).expect("test matrices are nonsingular");
    let omega = scaled_residual(&sys.a, x, b);
    let omega_ref = scaled_residual(&sys.a, &x_ref, b);
    let forward_error = (x - &x_ref).norm2() / x_ref.norm2();
    let bound = 2.0 * sys.kappa * (omega + omega_ref + 1e-13);
    Verdict {
        ok: history.status.reached_target() && omega <= TARGET_EPSILON && forward_error <= bound,
        forward_error,
        iterations: history.iterations(),
        be_calls: history.total_block_encoding_calls(),
        recovery_events: history.recovery.len(),
    }
}

/// The closed-loop client: one caller that waits for every reply.
struct Client<'a> {
    spec: &'a Spec,
    systems: &'a [System],
    refiners: &'a [HybridRefiner],
    inputs: ChaCha8Rng,
    noise: ChaCha8Rng,
    calls: usize,
}

/// One call's inputs and outputs.
struct Call {
    system: usize,
    bs: Vec<Vector<f64>>,
    results: Vec<Result<(Vector<f64>, HybridHistory), QlsError>>,
    secs: f64,
}

impl<'a> Client<'a> {
    fn new(
        spec: &'a Spec,
        systems: &'a [System],
        refiners: &'a [HybridRefiner],
        seed: u64,
    ) -> Self {
        Client {
            spec,
            systems,
            refiners,
            inputs: ChaCha8Rng::seed_from_u64(seed),
            noise: ChaCha8Rng::seed_from_u64(seed ^ NOISE_STREAM),
            calls: 0,
        }
    }

    /// The next call's system and right-hand sides.
    fn next_inputs(&mut self) -> (usize, Vec<Vector<f64>>) {
        let system = self.calls % self.systems.len();
        self.calls += 1;
        let n = self.systems[system].a.nrows();
        let k = self.spec.batch.unwrap_or(1);
        (
            system,
            (0..k)
                .map(|_| random_unit_vector(n, &mut self.inputs))
                .collect(),
        )
    }

    /// Run one call through the public API, timing only the call.
    fn call(&mut self, system: usize, bs: Vec<Vector<f64>>) -> Call {
        let refiner = &self.refiners[system];
        let noise = &mut self.noise;
        let (secs, results) = match self.spec.batch {
            None => {
                let (secs, r) = timed(|| refiner.solve(&bs[0], noise));
                (secs, vec![r])
            }
            Some(_) => {
                let (secs, r) = timed(|| refiner.solve_many(&bs, noise));
                match r {
                    Ok(all) => (secs, all.into_iter().map(Ok).collect()),
                    Err(e) => (secs, bs.iter().map(|_| Err(e.clone())).collect()),
                }
            }
        };
        Call {
            system,
            bs,
            results,
            secs,
        }
    }

    fn check(&self, call: &Call, tally: &mut Tally) {
        let sys = &self.systems[call.system];
        for (b, r) in call.bs.iter().zip(&call.results) {
            tally.record(&check(sys, b, r));
        }
    }
}

/// Build the refiners the loop uses, against a cache directory filled by an
/// earlier construction (the state a long-running user is in).
fn working_refiners(
    work: &WorkDir,
    systems: &[System],
) -> Result<(std::path::PathBuf, Vec<HybridRefiner>), String> {
    let dir = work.fresh();
    on_fresh_thread(&dir, || build_refiners(systems)).map_err(|e| e.to_string())?;
    let refiners =
        qls_cache::with_cache_dir(&dir, || build_refiners(systems)).map_err(|e| e.to_string())?;
    Ok((dir, refiners))
}

/// The untraced run: end-to-end metrics.
pub fn run(spec: &Spec, seed: u64, seconds: f64, work: &WorkDir) -> Result<Outcome, String> {
    let systems = systems(spec);
    let (_, refiners) = working_refiners(work, &systems)?;
    let mut client = Client::new(spec, &systems, &refiners, seed);
    let mut tally = Tally::default();
    for _ in 0..spec.warmup_calls {
        let (system, bs) = client.next_inputs();
        let call = client.call(system, bs);
        client.check(&call, &mut tally);
    }

    let mut secs = Vec::new();
    let mut solved = 0usize;
    let mut setup = SetupSampler::new(spec.setup_reps, seconds);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        setup.poll(work, || build_refiners(&systems))?;
        let (system, bs) = client.next_inputs();
        let call = client.call(system, bs);
        let before = tally.failed;
        client.check(&call, &mut tally);
        solved += call.bs.len() - (tally.failed - before);
        secs.push(call.secs);
    }
    let run = Loop {
        secs,
        solved,
        setup: setup.finish(work, || build_refiners(&systems))?,
        setup_reps: spec.setup_reps,
    };
    Ok(end_to_end(spec.name, &run, &tally))
}

// ---------------------------------------------------------------------------
// Traced replay
// ---------------------------------------------------------------------------

/// The replay's own copies of what `HybridRefiner::new` builds, made through
/// the same public constructors against the same cache directory, so every
/// float matches the refiner's.
struct Replay<'a> {
    sys: &'a System,
    inverter: QsvtInverter,
    engine: Engine,
    batched: bool,
}

/// What applies the polynomial.
enum Engine {
    /// Circuit mode: the compiled QSVT circuit and its register layout.
    Circuit {
        executor: QuantumExecutor,
        data_qubits: usize,
        total_qubits: usize,
        ancillas: Vec<usize>,
    },
    /// Emulation mode: the SVD the polynomial is applied through.
    Emulation(Svd<f64>),
}

/// The replay's final iterate and step count per right-hand side, or `None`
/// where the replay cannot follow the refiner (an error, or an unhealthy
/// step that would start the recovery ladder).
type Followed = Option<Vec<(Vector<f64>, usize)>>;

impl<'a> Replay<'a> {
    fn new(sys: &'a System, spec: &Spec) -> Result<Self, String> {
        let opts = &sys.options.solver;
        let inverter = QsvtInverter::with_config(
            &sys.a,
            sys.options.epsilon_l,
            opts.mode,
            opts.opt_level,
            ExecMode::default(),
            opts.cache,
        )
        .map_err(|e| e.to_string())?;
        let engine = match inverter.qsvt_circuit() {
            Some(qc) => {
                let data_qubits = qc.num_data_qubits();
                let total_qubits = data_qubits + qc.num_ancilla_qubits();
                Engine::Circuit {
                    executor: QuantumExecutor::with_config(
                        qc.circuit(),
                        opts.opt_level,
                        ExecMode::default(),
                        opts.cache,
                    ),
                    data_qubits,
                    total_qubits,
                    ancillas: (data_qubits..total_qubits).collect(),
                }
            }
            None => Engine::Emulation(Svd::new(&sys.a)),
        };
        Ok(Replay {
            sys,
            inverter,
            engine,
            batched: spec.batch.is_some(),
        })
    }

    /// `QsvtInverter::solve_direction` (or its batch form) for every `r`.
    fn directions(
        &self,
        rs: &[Vector<f64>],
        spans: &mut Spans,
        keep: Option<&mut Vec<StateVector>>,
    ) -> Option<Vec<Vector<f64>>> {
        let start = Instant::now();
        let raws: Vec<Vector<f64>> = match &self.engine {
            Engine::Emulation(svd) => rs
                .iter()
                .map(|r| {
                    let v = spans.time(Stage::EmbedProject, || {
                        let mut v = r.clone();
                        v.normalize();
                        v
                    });
                    let alpha = self.inverter.alpha();
                    let series = &self.inverter.polynomial().series;
                    let values: Vec<f64> = spans.time(Stage::PolyEval, || {
                        svd.sigma.iter().map(|&s| series.eval(s / alpha)).collect()
                    });
                    // `apply_function` calls its function once per singular
                    // value, in order: hand back the values evaluated above.
                    spans.time(Stage::SvdApply, || {
                        let next = std::cell::Cell::new(0);
                        svd.apply_function(
                            &v,
                            |_| {
                                let j = next.get();
                                next.set(j + 1);
                                values[j]
                            },
                            true,
                        )
                    })
                })
                .collect(),
            Engine::Circuit {
                executor,
                data_qubits,
                total_qubits,
                ancillas,
            } => {
                let mut states: Vec<StateVector> = spans.time(Stage::EmbedProject, || {
                    rs.iter()
                        .map(|r| {
                            let mut v = r.clone();
                            v.normalize();
                            let data: Vec<Complex64> =
                                v.iter().map(|&x| Complex64::new(x, 0.0)).collect();
                            embed_data(&data, *total_qubits)
                        })
                        .collect()
                });
                if let Some(keep) = keep {
                    keep.extend(states.iter().cloned());
                }
                let ran = spans.time(Stage::SimRun, || {
                    if self.batched {
                        executor
                            .run_batch_checked(&mut states)
                            .iter()
                            .all(Result::is_ok)
                    } else {
                        states
                            .iter_mut()
                            .all(|s| executor.run_in_place_checked(s).is_ok())
                    }
                });
                if !ran {
                    return None;
                }
                spans.time(Stage::EmbedProject, || {
                    states
                        .iter_mut()
                        .map(|s| {
                            project_data(s, *data_qubits, ancillas)
                                .iter()
                                .map(|c| c.re)
                                .collect()
                        })
                        .collect()
                })
            }
        };
        let directions = spans.time(Stage::EmbedProject, || {
            raws.into_iter()
                .map(|mut d| {
                    let finite = d.iter().all(|v| v.is_finite());
                    (finite && d.normalize() != 0.0).then_some(d)
                })
                .collect()
        });
        spans.close(Stage::SolveDirection, start);
        directions
    }

    /// `QsvtLinearSolver::finish_solve`: accounting, readout, norm recovery.
    fn finish(
        &self,
        r: &Vector<f64>,
        direction: Vector<f64>,
        rng: &mut ChaCha8Rng,
        spans: &mut Spans,
    ) -> Option<Vector<f64>> {
        let op = &self.sys.a;
        spans.time(Stage::Accounting, || black_box(StatePreparation::new(r)));
        let direction = match self.sys.options.solver.shots {
            Some(s) => spans.time(Stage::Readout, || sample_direction(&direction, s, rng)),
            None => direction,
        };
        if !direction.iter().all(|v| v.is_finite()) {
            return None;
        }
        let (solution, evals) = spans.time(Stage::NormRecovery, || {
            let a_eta = op.matvec(&direction);
            let b_norm = r.norm2();
            let upper = if a_eta.norm2() > 0.0 {
                2.0 * b_norm / a_eta.norm2() * 2.0
            } else {
                1.0
            };
            let objective = |mu: f64| {
                let mut res = r.clone();
                res.axpy(-mu, &a_eta);
                let v = res.norm2();
                v * v
            };
            let brent = brent_minimize(
                objective,
                0.0,
                upper.max(1e-6),
                self.sys.options.solver.brent_tolerance,
                200,
            );
            (direction.scaled(brent.x), brent.evaluations)
        });
        spans.time(Stage::Accounting, || {
            black_box(scaled_residual(op, &solution, r));
            black_box(self.inverter.resources());
            black_box(self.inverter.resources());
        });
        spans.brent_evals += evals;
        spans.resources_calls += 2;
        spans.matvecs += 2;
        Some(solution)
    }

    /// Replay `HybridRefiner::solve` (one right-hand side) or `solve_many`
    /// (a batch) on the clean path: every round computes the residuals,
    /// the directions, then finishes and health-checks each system in order,
    /// consuming the readout RNG exactly as the refiner does.
    fn solve(
        &self,
        bs: &[Vector<f64>],
        rng: &mut ChaCha8Rng,
        spans: &mut Spans,
        mut keep: Option<&mut Vec<StateVector>>,
    ) -> Followed {
        let op = &self.sys.a;
        let target = self.sys.options.target_epsilon;
        let mut xs: Vec<Option<Vector<f64>>> = vec![None; bs.len()];
        let mut steps = vec![0usize; bs.len()];
        let mut prev = vec![f64::INFINITY; bs.len()];
        let mut done = vec![false; bs.len()];
        for it in 0..=self.sys.options.max_iterations {
            let active: Vec<usize> = (0..bs.len()).filter(|&k| !done[k]).collect();
            if active.is_empty() {
                break;
            }
            let mut rs = Vec::with_capacity(active.len());
            for &k in &active {
                let r = match &xs[k] {
                    None => bs[k].clone(),
                    Some(x) => {
                        spans.matvecs += 1;
                        spans.time(Stage::Residual, || &bs[k] - &op.matvec(x))
                    }
                };
                if !r.iter().all(|v| v.is_finite()) {
                    return None;
                }
                rs.push(r);
            }
            let directions = self.directions(&rs, spans, keep.take())?;
            let mut corrections = Vec::with_capacity(active.len());
            for (r, d) in rs.iter().zip(directions) {
                corrections.push(self.finish(r, d, rng, spans)?);
            }
            for (&k, correction) in active.iter().zip(corrections) {
                let finite = spans.time(Stage::Update, || correction.iter().all(|v| v.is_finite()));
                if !finite {
                    return None;
                }
                let candidate = match &xs[k] {
                    None => correction,
                    Some(x) => spans.time(Stage::Update, || {
                        let mut c = x.clone();
                        c += &correction;
                        c
                    }),
                };
                spans.matvecs += 1;
                let omega = spans.time(Stage::Residual, || scaled_residual(op, &candidate, &bs[k]));
                let healthy = omega.is_finite()
                    && (it == 0 || omega <= target || omega <= prev[k] * CONTRACTION_TOLERANCE);
                if !healthy {
                    return None;
                }
                xs[k] = Some(candidate);
                steps[k] += 1;
                prev[k] = omega;
                done[k] = omega <= target;
            }
        }
        Some(
            xs.into_iter()
                .zip(steps)
                .map(|(x, s)| (x.unwrap_or_else(|| Vector::zeros(0)), s))
                .collect(),
        )
    }
}

/// The construction stages `trace_setup` replays, as (metric, unit); the
/// two counts are not times and stay out of the attributed sum.
const SETUP_STAGES: [(&str, &str); 9] = [
    ("linalg.svd_s", "s"),
    ("poly.construct_s", "s"),
    ("qsvt.phases_s", "s"),
    ("qsvt.phase_generations", "count"),
    ("encoding.dilation_s", "s"),
    ("qsvt.circuit_build_s", "s"),
    ("sim.fusion_s", "s"),
    ("sim.calibrations", "count"),
    ("sim.compile_s", "s"),
];

/// Each construction stage's cold value per repetition (indexed like
/// [`SETUP_STAGES`]), the untraced cold construction measured alongside,
/// and the warm construction that follows it with its cache lookups.
#[derive(Default)]
struct SetupStages {
    stages: [Vec<f64>; 9],
    untraced: Vec<f64>,
    warm: Vec<f64>,
    cache_hits: usize,
    cache_lookups: usize,
}

impl SetupStages {
    /// Share of the untraced construction time no stage covers.
    fn unattributed(&self) -> f64 {
        let stages: f64 = SETUP_STAGES
            .iter()
            .zip(&self.stages)
            .filter(|((_, unit), _)| *unit == "s")
            .map(|(_, v)| v.iter().sum::<f64>())
            .sum();
        1.0 - stages / self.untraced.iter().sum::<f64>()
    }
}

/// Replay `QsvtInverter::with_config` stage by stage for every system, cold:
/// on a fresh thread with an empty cache directory; then time the untraced
/// construction the same way, and once more warm (fresh thread, the
/// directory it filled).
fn trace_setup(systems: &[System], work: &WorkDir, reps: usize) -> Result<SetupStages, String> {
    let mut st = SetupStages::default();
    for _ in 0..reps {
        let dir = work.fresh();
        let one = on_fresh_thread(&dir, || -> Result<[f64; 9], String> {
            let mut t = [0.0; 9];
            for sys in systems {
                let (s, svd) = timed(|| Svd::new(&sys.a));
                t[0] += s;
                let alpha = svd.norm2();
                let eps = sys.options.epsilon_l.clamp(1e-14, 0.49);
                let (s, poly) = timed(|| InversePolynomial::new(svd.cond(), eps));
                t[1] += s;
                if sys.options.solver.mode != QsvtMode::CircuitReal {
                    continue;
                }
                let gens = phase_generation_count();
                let (s, phases) = timed(|| {
                    find_phases_cached(
                        &poly.series,
                        &PhaseFindingOptions::default(),
                        CachePolicy::Enabled,
                    )
                });
                let phases = phases.map_err(|e| e.to_string())?;
                t[2] += s;
                t[3] += (phase_generation_count() - gens) as f64;
                let (s, be) = timed(|| DilationBlockEncoding::of_adjoint(&sys.a, alpha));
                t[4] += s;
                let (s, qc) = timed(|| QsvtCircuit::with_real_part_extraction(&be, &phases.phases));
                t[5] += s;
                let cals = calibration_count();
                let width = qc.circuit().num_qubits();
                let (s, fused) =
                    timed(|| optimize_circuit_for(qc.circuit(), width, &FusionOptions::measured()));
                t[6] += s;
                t[7] += (calibration_count() - cals) as f64;
                let (s, compiled) = timed(|| CompiledCircuit::compile_for(&fused, width));
                t[8] += s;
                black_box(compiled);
            }
            Ok(t)
        })?;
        let _ = std::fs::remove_dir_all(&dir);
        for (v, x) in st.stages.iter_mut().zip(one) {
            v.push(x);
        }
        let dir = work.fresh();
        let (secs, built) = on_fresh_thread(&dir, || {
            let (secs, built) = timed(|| build_refiners(systems));
            (secs, built.map(drop).map_err(|e| e.to_string()))
        });
        built?;
        st.untraced.push(secs);
        let (secs, hits, misses) = on_fresh_thread(&dir, || {
            let (h, m) = (qls_cache::cache_hit_count(), qls_cache::cache_miss_count());
            let (secs, built) = timed(|| build_refiners(systems));
            built.map_err(|e| e.to_string()).map(|_| {
                let hits = qls_cache::cache_hit_count() - h;
                (secs, hits, qls_cache::cache_miss_count() - m)
            })
        })?;
        st.warm.push(secs);
        st.cache_hits += hits;
        st.cache_lookups += hits + misses;
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(st)
}

/// The traced run: per-layer metrics from a replay of every call, checked
/// against the untraced call on the same inputs and readout-noise stream.
pub fn trace(spec: &Spec, seed: u64, seconds: f64, work: &WorkDir) -> Result<Outcome, String> {
    let systems = systems(spec);
    let stages = trace_setup(&systems, work, spec.setup_reps)?;
    let (dir, refiners) = working_refiners(work, &systems)?;
    let replays = qls_cache::with_cache_dir(&dir, || {
        systems
            .iter()
            .map(|s| Replay::new(s, spec))
            .collect::<Result<Vec<_>, _>>()
    })?;

    let mut client = Client::new(spec, &systems, &refiners, seed);
    let mut tally = Tally::default();
    for _ in 0..spec.warmup_calls {
        let (system, bs) = client.next_inputs();
        let call = client.call(system, bs);
        client.check(&call, &mut tally);
    }

    let mut spans = Spans::default();
    let mut replayed = Replayed::default();
    let (mut followed, mut followed_rhs, mut followed_untraced) = (0usize, 0usize, 0.0);
    let mut kept: Vec<Vec<StateVector>> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let (system, bs) = client.next_inputs();
        let replay = &replays[system];
        let mut replay_noise = client.noise.clone();
        let mut local = Spans::default();
        let mut keep = (spec.batch.is_some() && kept.len() < BATCH_ROUNDS_KEPT).then(Vec::new);
        let mut run_replay = |local: &mut Spans| {
            timed(|| replay.solve(&bs, &mut replay_noise, local, keep.as_mut()))
        };
        // Alternate which side runs first so neither always finds warm caches.
        let (call, (replay_secs, out)) = if replayed.calls % 2 == 0 {
            let call = client.call(system, bs.clone());
            (call, run_replay(&mut local))
        } else {
            let r = run_replay(&mut local);
            (client.call(system, bs.clone()), r)
        };
        replayed.calls += 1;
        replayed.rhs += bs.len();
        replayed.untraced += call.secs;
        replayed.traced += replay_secs;
        client.check(&call, &mut tally);
        let Some(out) = out else { continue };
        let same = out.iter().zip(&call.results).all(|((x, steps), real)| {
            matches!(real, Ok((rx, h)) if h.steps.len() == *steps && bitwise_equal(x, rx))
        });
        if !same {
            replayed.mismatched += 1;
            continue;
        }
        followed += 1;
        followed_rhs += bs.len();
        followed_untraced += call.secs;
        spans.add(&local);
        if let Some(k) = keep {
            kept.push(k);
        }
    }

    let batch_speedup = batch_speedup(&replays[0], &kept);
    let per_count = |x: usize| x as f64 / followed_rhs.max(1) as f64;
    let res = replays[0].inverter.resources();
    let degree = replays
        .iter()
        .map(|r| r.inverter.resources().degree as f64)
        .sum::<f64>()
        / replays.len() as f64;
    let fused_ops = refiners[0]
        .solver()
        .circuit_stats()
        .map_or(0, |s| s.fused_ops);
    let amplitudes = match replays[0].engine {
        Engine::Circuit { total_qubits, .. } => 1usize << total_qubits,
        Engine::Emulation(_) => 0,
    };
    let n = systems[0].a.nrows();

    let mut out = Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        ..Default::default()
    };
    let s = followed_rhs;
    spans.report(&mut out, s);
    replayed.report(&spans, &mut out);
    out.metric(
        "core.accounting_fraction",
        spans.secs(Stage::Accounting) / followed_untraced,
        "ratio",
        s,
    );
    out.metric(
        "qsvt.resources_calls_per_solve",
        per_count(spans.resources_calls),
        "count",
        s,
    );
    out.metric(
        "core.brent_evals_per_solve",
        per_count(spans.brent_evals),
        "count",
        s,
    );
    out.metric(
        "core.recovery_events_per_solve",
        tally.per_rhs(tally.recovery_events),
        "count",
        tally.attempted,
    );
    out.metric(
        "core.iterations_per_solve",
        tally.per_rhs(tally.iterations),
        "count",
        tally.attempted,
    );
    out.metric(
        "be_calls_per_solve",
        tally.per_rhs(tally.be_calls),
        "count",
        tally.attempted,
    );
    out.metric(
        "forward_error_max",
        tally.forward_error_max,
        "ratio",
        tally.attempted,
    );
    out.metric("sim.fused_ops", fused_ops as f64, "count", 1);
    out.metric(
        "sim.bytes_moved_per_run",
        (fused_ops * amplitudes * 16 * 2) as f64,
        "B",
        1,
    );
    out.metric(
        "sim.batch_speedup",
        batch_speedup.0,
        "ratio",
        batch_speedup.1,
    );
    for ((name, unit), values) in SETUP_STAGES.iter().zip(&stages.stages) {
        out.metric(name, median(values), unit, spec.setup_reps);
    }
    out.metric("setup_warm_s", median(&stages.warm), "s", spec.setup_reps);
    // Cache hits over lookups of the warm constructions; 0 when nothing was
    // looked up.
    out.metric(
        "cache.hit_ratio",
        stages.cache_hits as f64 / stages.cache_lookups.max(1) as f64,
        "ratio",
        stages.cache_lookups,
    );
    out.metric("poly.degree", degree, "count", replays.len());
    // Dense N×N f64 matvec: the matrix plus the input and output vectors.
    out.metric(
        "linalg.matvec_bytes_per_solve",
        per_count(spans.matvecs * (n * n + 2 * n) * 8),
        "B",
        s,
    );
    out.metric(
        "trace.setup_unattributed_fraction",
        stages.unattributed(),
        "ratio",
        spec.setup_reps,
    );
    println!(
        "{}: {} calls traced, {followed} followed by the replay; degree {}, {} qubits",
        spec.name,
        replayed.calls,
        res.degree,
        res.data_qubits + res.ancilla_qubits
    );
    Ok(out)
}

/// `run_batch_checked` on the kept first-round registers vs the same
/// registers run one by one with `run_in_place_checked`: (speedup, rounds).
fn batch_speedup(replay: &Replay, kept: &[Vec<StateVector>]) -> (f64, usize) {
    let Engine::Circuit { executor, .. } = &replay.engine else {
        return (0.0, 0);
    };
    if kept.is_empty() {
        return (0.0, 0);
    }
    let (mut batched, mut single) = (0.0, 0.0);
    for _ in 0..5 {
        for states in kept {
            let mut a = states.clone();
            batched += timed(|| executor.run_batch_checked(&mut a)).0;
            let mut b = states.clone();
            single += timed(|| {
                for s in b.iter_mut() {
                    let _ = executor.run_in_place_checked(s);
                }
            })
            .0;
        }
    }
    (single / batched, kept.len())
}
