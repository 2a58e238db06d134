//! `bench_json` — the machine-readable perf-trajectory benchmark.
//!
//! Times representative simulator and solver workloads and writes
//! `BENCH_simulator.json` so every future PR can compare against the
//! recorded numbers.  The ten workload sections, in artifact order:
//!
//! 1. `random_circuit` — a random mixed-gate circuit on 16 qubits (the
//!    simulator hot path): specialized kernels vs the retained generic
//!    reference path and vs the scalar kernel bodies, all pinned to one
//!    thread, plus the kernel path under the machine's full thread count
//!    (a flat register runs on the calling thread, so that ratio stays ≈ 1);
//! 2. `qsvt_solve_circuit_mode` — a gate-level QSVT solve on the paper's
//!    4-qubit (N = 16) test system (Section IV): fused vs unfused
//!    compile-once vs the uncached per-call path, and the build cold vs warm
//!    through the artifact cache (`qls_cache`);
//! 3. `circuit_unitary` — dense-unitary extraction, the verification loop;
//! 4. `hybrid_refinement_circuit_mode` — an end-to-end hybrid refinement
//!    solve (Algorithm 2, circuit mode), fused vs unfused compile-once;
//! 5. `multi_rhs_refinement` — one refiner, many right-hand sides: batched
//!    `solve_many` vs a sequential loop of `solve`;
//! 6. `sparse_residual` — the refinement-loop residual `r = b − A x` on the
//!    2-D Poisson problem through the dense matrix, the CSR operator and the
//!    matrix-free stencil (N = 4096 and N = 16384 on the full preset);
//! 7. the structured inner solves of the classical refiner:
//!    `structured_inner_solve` (Thomas vs the densify-LU oracle on 1-D
//!    Poisson), `poisson3d_refinement` (Jacobi-CG),
//!    `convection_diffusion_refinement` (Jacobi-BiCGSTAB) and
//!    `graph_laplacian_refinement` (Jacobi-CG at N ~ 10^5);
//! 8. `noisy_refinement_recovery` — the hybrid refiner under a seeded
//!    `FaultPlan` with the full `RecoveryPolicy` ladder armed, vs clean;
//! 9. `fig4_large_kappa` — the Fig. 4 hybrid solves at κ = 100/200/300 with
//!    ε_l·κ = 1/4 (emulation path), one record per κ;
//! 10. `sharded_vs_flat` — the random circuit through the 4-shard register
//!     engine vs the flat engine, with the static-model execution plan and
//!     the QSVT circuit's exchange rounds with and without the low-support
//!     fusion preference.
//!
//! Every record is declared field by field with `record!`, so each field
//! exists by construction, and the binary asserts its own invariants: the
//! structured paths agree with their oracles, the warm build regenerates
//! nothing, the compile-once refinement loop never recompiles, the recovery
//! ladder acts and reaches the target, and the fusion preference retires an
//! exchange round.  Each record is also logged as one compact JSON line on
//! stderr.
//!
//! Usage: `bench_json [--preset small|full] [--out PATH] [--compare BASELINE]`.
//! The `small` preset shrinks every workload so CI can validate the artifact
//! in seconds; the committed `BENCH_simulator.json` comes from the `full`
//! preset.  `--compare` turns the run into a perf-regression gate: after
//! emitting the artifact it checks the fresh numbers against the committed
//! baseline — generous fractional floors on the timing *ratios* (which
//! survive preset and machine changes where absolute seconds do not) and
//! exact ceilings on the deterministic counters (circuit compiles in the
//! refinement loop, sharded exchange rounds, warm-build regenerations) — and
//! exits nonzero listing every violated floor.

use qls_bench::{experiment_rng, layered_circuit, paper_test_system, random_circuit};
use qls_cache::{with_cache_dir, CachePolicy};
use qls_core::refine::RecoveryPolicy;
use qls_core::{HybridRefinementOptions, HybridRefiner, HybridStatus, QsvtSolverOptions};
use qls_linalg::{
    convection_diffusion_2d, poisson_1d, poisson_2d, poisson_3d, random_connected_graph,
    shifted_graph_laplacian, ClassicalRefiner, Matrix, RefinementOptions, SparseMatrix, StencilNd,
    TridiagonalMatrix, Vector,
};
use qls_qsvt::{phase_generation_count, QsvtInverter, QsvtMode};
use qls_sim::kernels::reference;
use qls_sim::{
    calibration_count, circuit_compile_count, circuit_unitary, fusion_pass_count, optimize_circuit,
    optimize_circuit_for, sharding_stats, with_scalar_kernels, ExecMode, FaultInjector, FaultPlan,
    FusionOptions, OptLevel, QuantumExecutor, ShardedCircuit, StateVector, TransientKind,
};
use rayon::ThreadPoolBuilder;
use serde::{parse_json, to_json_string, Value};
use std::time::Instant;

/// `record!("workload", field: value, …)` declares one artifact record: a
/// JSON object whose `name` is the workload, then one entry per field, in
/// order.  Without the leading name it declares a plain object.
macro_rules! record {
    ($name:literal, $($field:ident: $value:expr),+ $(,)?) => {
        record!(name: $name, $($field: $value),+)
    };
    ($($field:ident: $value:expr),+ $(,)?) => {
        Value::Map(vec![$((stringify!($field).to_string(), serde::to_value(&$value))),+])
    };
}

struct Preset {
    name: &'static str,
    random_qubits: usize,
    random_ops: usize,
    random_reps: usize,
    generic_reps: usize,
    qsvt_n: usize,
    qsvt_kappa: f64,
    qsvt_eps: f64,
    unitary_qubits: usize,
    unitary_layers: usize,
    refine_reps: usize,
    refine_target: f64,
    multi_rhs: usize,
    /// Square 2-D Poisson grid sides for the structured-residual workload
    /// (N = side²).
    sparse_grids: [usize; 2],
    /// 1-D Poisson order for the structured-inner-solve workload (Thomas vs
    /// densify-LU inside the classical refiner).
    inner_tridiag_n: usize,
    /// Cubic 3-D Poisson grid side for the matrix-free CG refinement
    /// workload (N = side³).
    poisson3d_grid: usize,
    /// Square convection-diffusion grid side for the BiCGSTAB refinement
    /// workload (N = side²).
    convdiff_grid: usize,
    /// Vertex count of the shifted-graph-Laplacian refinement workload.
    graph_n: usize,
    /// Extra random edges on top of the spanning tree of the graph workload.
    graph_extra_edges: usize,
    /// Condition numbers of the Fig. 4 large-κ hybrid solves (emulation
    /// path, ε_l tied to κ by ε_l·κ = 1/4 as in the paper).
    fig4_kappas: &'static [f64],
    /// Outer convergence target of the Fig. 4 workload.
    fig4_eps: f64,
}

const FULL: Preset = Preset {
    name: "full",
    random_qubits: 16,
    random_ops: 120,
    // Interleaved min-of-N: enough rounds that both sides catch a quiet
    // window of this (shared) machine.
    random_reps: 15,
    generic_reps: 3,
    qsvt_n: 16,
    qsvt_kappa: 8.0,
    qsvt_eps: 0.05,
    unitary_qubits: 8,
    unitary_layers: 5,
    refine_reps: 3,
    refine_target: 1e-10,
    multi_rhs: 8,
    sparse_grids: [64, 128], // N = 4096 and N = 16384
    inner_tridiag_n: 16384,
    poisson3d_grid: 24, // N = 13824
    convdiff_grid: 64,  // N = 4096
    graph_n: 100_000,
    graph_extra_edges: 300_000,
    fig4_kappas: &[100.0, 200.0, 300.0],
    fig4_eps: 1e-11,
};

const SMALL: Preset = Preset {
    name: "small",
    random_qubits: 10,
    random_ops: 40,
    random_reps: 3,
    generic_reps: 2,
    qsvt_n: 4,
    qsvt_kappa: 2.0,
    qsvt_eps: 0.05,
    unitary_qubits: 5,
    unitary_layers: 3,
    refine_reps: 2,
    refine_target: 1e-6,
    multi_rhs: 3,
    sparse_grids: [16, 32], // N = 256 and N = 1024: seconds, not minutes, in CI
    inner_tridiag_n: 1024,
    poisson3d_grid: 8, // N = 512
    convdiff_grid: 16, // N = 256
    graph_n: 2000,
    graph_extra_edges: 6000,
    fig4_kappas: &[25.0],
    fig4_eps: 1e-8,
};

/// Minimum over `reps` timed runs of `f`, in seconds.
fn time_min(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Minimum over `reps` *interleaved* timed runs of `f` and `g`: each round
/// times one call of each, so slow drifts of the machine (frequency
/// scaling, a noisy co-tenant) hit both sides equally and their *ratio*
/// stays meaningful.  One untimed warmup of each absorbs cold-start
/// effects (first-touch page faults, instruction-cache misses) that would
/// otherwise bias against whichever side runs first.
fn time_min_pair(reps: usize, mut f: impl FnMut(), mut g: impl FnMut()) -> (f64, f64) {
    f();
    g();
    let (mut best_f, mut best_g) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best_f = best_f.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        g();
        best_g = best_g.min(start.elapsed().as_secs_f64());
    }
    (best_f, best_g)
}

fn single_thread_pool() -> rayon::ThreadPool {
    ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("single-thread pool")
}

fn main() {
    let mut preset = FULL;
    let mut out_path = String::from("BENCH_simulator.json");
    let mut compare_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--preset" => {
                let v = args.next().expect("--preset needs a value");
                preset = match v.as_str() {
                    "full" => FULL,
                    "small" => SMALL,
                    other => panic!("unknown preset {other:?} (use small|full)"),
                };
            }
            "--out" => out_path = args.next().expect("--out needs a value"),
            "--compare" => compare_path = Some(args.next().expect("--compare needs a value")),
            other => panic!("unknown argument {other:?}"),
        }
    }

    // On a 1-thread machine the parallel-vs-sequential ratios measure
    // nothing but noise (~1.0); every parallel workload records
    // `parallel_speedup_meaningful` so a trajectory reader never mistakes
    // them for regressions.
    let threads = rayon::current_num_threads();
    eprintln!(
        "bench_json: preset = {}, machine threads = {threads}{}",
        preset.name,
        if threads > 1 {
            ""
        } else {
            " (parallel speedups not meaningful at 1 thread)"
        }
    );

    // The paper's test system, shared by the QSVT and hybrid workloads.
    let (a, b) = paper_test_system(preset.qsvt_n, preset.qsvt_kappa, 1);
    let p = &preset;
    let mut workloads = Vec::new();
    emit(&mut workloads, [random_circuit_workload(p, threads)]);
    let (record, inverter) = qsvt_solve_workload(p, &a, &b);
    emit(&mut workloads, [record]);
    emit(&mut workloads, [circuit_unitary_workload(p)]);
    let (record, refiner) = hybrid_refinement_workload(p, &a, &b);
    emit(&mut workloads, [record]);
    emit(&mut workloads, [multi_rhs_workload(p, &refiner, threads)]);
    emit(&mut workloads, sparse_residual_workloads(p));
    emit(&mut workloads, structured_inner_solve_workloads(p));
    emit(&mut workloads, [noisy_recovery_workload(p, &a, &b)]);
    emit(&mut workloads, fig4_large_kappa_workloads(p));
    emit(&mut workloads, [sharded_workload(p, &inverter, threads)]);

    let unix_seconds = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let doc = record!(
        schema: "qls-bench/simulator/v1",
        preset: preset.name,
        unix_seconds: unix_seconds,
        machine_threads: threads,
        workloads: workloads,
    );
    let json = to_json_string(&doc) + "\n";
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    eprintln!("bench_json: wrote {out_path}");
    print!("{json}");

    // -- Perf-regression gate (--compare) ------------------------------------
    if let Some(baseline_path) = compare_path {
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
        let violations = compare_against_baseline(&json, &baseline);
        if violations.is_empty() {
            eprintln!("bench_json: no perf regressions against {baseline_path}");
        } else {
            eprintln!(
                "bench_json: {} perf regression(s) against {baseline_path}:",
                violations.len()
            );
            for v in &violations {
                eprintln!("  REGRESSION: {v}");
            }
            std::process::exit(1);
        }
    }
}

/// Log each record on stderr (its name, then its compact JSON) and append it
/// to the artifact's workload list.
fn emit(workloads: &mut Vec<Value>, records: impl IntoIterator<Item = Value>) {
    for record in records {
        if let Some(Value::Str(name)) = record.get("name") {
            eprintln!("  {name}: {}", to_json_string(&record));
        }
        workloads.push(record);
    }
}

/// Workload 1: random mixed-gate circuit (the hot path).
fn random_circuit_workload(preset: &Preset, threads: usize) -> Value {
    let circ = random_circuit(preset.random_qubits, preset.random_ops, 20260728);
    let n = preset.random_qubits;
    let (kernel_1t, scalar_1t) = single_thread_pool().install(|| {
        time_min_pair(
            preset.random_reps,
            || {
                std::hint::black_box(StateVector::run(&circ));
            },
            || {
                with_scalar_kernels(|| {
                    std::hint::black_box(StateVector::run(&circ));
                })
            },
        )
    });
    let generic_1t = single_thread_pool().install(|| {
        time_min(preset.generic_reps, || {
            let mut sv = StateVector::zero_state(n);
            reference::apply_circuit(&mut sv, &circ);
            std::hint::black_box(sv.probability(0));
        })
    });
    let kernel_nt = time_min(preset.random_reps, || {
        std::hint::black_box(StateVector::run(&circ));
    });
    // Static vs micro-calibrated fusion pricing on the same circuit; the
    // calibration-cache counter (read after both) shows the measured model
    // timed its kernel classes at most once per register size.
    record!("random_circuit",
        qubits: n,
        ops: preset.random_ops,
        kernel_single_thread_seconds: kernel_1t,
        scalar_single_thread_seconds: scalar_1t,
        simd_vs_scalar_speedup: scalar_1t / kernel_1t,
        generic_single_thread_seconds: generic_1t,
        kernel_parallel_seconds: kernel_nt,
        kernel_vs_generic_speedup: generic_1t / kernel_1t,
        machine_threads: threads,
        parallel_speedup_meaningful: threads > 1,
        parallel_vs_single_thread_speedup: kernel_1t / kernel_nt,
        static_fusion_ops: optimize_circuit(&circ, &FusionOptions::default()).len(),
        calibrated_fusion_ops: optimize_circuit(&circ, &FusionOptions::measured()).len(),
        fusion_calibrations: calibration_count(),
    )
}

/// Workload 2: QSVT solve on the paper's test system.
///
/// Three engines: fused compile-once (the default), unoptimized compile-once
/// (`OptLevel::None`), and the retained uncached per-call oracle.
/// `solve_seconds` keeps its historical meaning (unoptimized compile-once)
/// so the perf trajectory stays comparable across PRs.
///
/// The build is timed through the artifact cache, hermetically (a bench
/// temp directory, so the run never reads or pollutes the user's
/// `~/.cache/qls`): `build_seconds` keeps its historical from-scratch
/// meaning — each rep sees a fresh empty directory (and also pays the store
/// writes) — while `build_seconds_warm` rebuilds against a pre-populated
/// directory, where phase factors and the fused circuit are disk reads.
///
/// Returns the record and the fused engine, which the sharded workload
/// reuses for its QSVT circuit.
fn qsvt_solve_workload(preset: &Preset, a: &Matrix<f64>, b: &Vector<f64>) -> (Value, QsvtInverter) {
    let bench_cache_root =
        std::env::temp_dir().join(format!("qls-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&bench_cache_root);
    let mut cold_rep = 0usize;
    let qsvt_build = time_min(3, || {
        cold_rep += 1;
        let dir = bench_cache_root.join(format!("cold-{cold_rep}"));
        with_cache_dir(dir, || {
            std::hint::black_box(
                QsvtInverter::new(a, preset.qsvt_eps, QsvtMode::CircuitReal)
                    .expect("QSVT inverter construction"),
            );
        });
    });
    let warm_dir = bench_cache_root.join("warm");
    let (inverter, unfused_inverter, qsvt_build_warm, warm_phase_gens, warm_fusion_passes) =
        with_cache_dir(warm_dir, || {
            // Populate the directory, keeping this (cache-built) engine for
            // the solve measurements below.
            let inverter = QsvtInverter::new(a, preset.qsvt_eps, QsvtMode::CircuitReal)
                .expect("QSVT inverter construction");
            let (p0, f0) = (phase_generation_count(), fusion_pass_count());
            let warm = time_min(3, || {
                std::hint::black_box(
                    QsvtInverter::new(a, preset.qsvt_eps, QsvtMode::CircuitReal)
                        .expect("warm QSVT inverter construction"),
                );
            });
            let unfused_inverter = QsvtInverter::with_config(
                a,
                preset.qsvt_eps,
                QsvtMode::CircuitReal,
                OptLevel::None,
                ExecMode::Flat,
                CachePolicy::default(),
            )
            .expect("unfused QSVT inverter construction");
            (
                inverter,
                unfused_inverter,
                warm,
                phase_generation_count() - p0,
                fusion_pass_count() - f0,
            )
        });
    let _ = std::fs::remove_dir_all(&bench_cache_root);
    assert_eq!(
        warm_phase_gens, 0,
        "warm build must not regenerate phase factors"
    );
    assert_eq!(
        warm_fusion_passes, 0,
        "warm build must not rerun the fusion pass"
    );
    let fusion = *inverter.circuit_stats().expect("fusion stats");
    let qsvt_solve_fused = time_min(3, || {
        std::hint::black_box(inverter.solve_direction(b).expect("fused QSVT solve"));
    });
    let qsvt_solve = time_min(3, || {
        std::hint::black_box(
            unfused_inverter
                .solve_direction(b)
                .expect("unfused QSVT solve"),
        );
    });
    let qsvt_solve_uncached = time_min(3, || {
        std::hint::black_box(
            inverter
                .solve_direction_uncached(b)
                .expect("uncached QSVT solve"),
        );
    });
    // SIMD vs scalar kernel bodies on the same fused engine, pinned to one
    // thread so the ratio is pure kernel-body arithmetic.
    let (qsvt_simd_1t, qsvt_scalar_1t) = single_thread_pool().install(|| {
        time_min_pair(
            3,
            || {
                std::hint::black_box(inverter.solve_direction(b).expect("simd QSVT solve"));
            },
            || {
                with_scalar_kernels(|| {
                    std::hint::black_box(inverter.solve_direction(b).expect("scalar QSVT solve"));
                })
            },
        )
    });
    let record = record!("qsvt_solve_circuit_mode",
        matrix_size: preset.qsvt_n,
        kappa: preset.qsvt_kappa,
        epsilon: preset.qsvt_eps,
        polynomial_degree: inverter.resources().degree,
        build_seconds: qsvt_build,
        build_seconds_warm: qsvt_build_warm,
        warm_vs_cold_build_speedup: qsvt_build / qsvt_build_warm,
        build_phase_generations_warm: warm_phase_gens,
        build_fusion_passes_warm: warm_fusion_passes,
        solve_seconds: qsvt_solve,
        fused_solve_seconds: qsvt_solve_fused,
        fused_vs_unfused_speedup: qsvt_solve / qsvt_solve_fused,
        uncached_solve_seconds: qsvt_solve_uncached,
        compile_once_vs_uncached_speedup: qsvt_solve_uncached / qsvt_solve,
        simd_solve_seconds: qsvt_simd_1t,
        scalar_solve_seconds: qsvt_scalar_1t,
        simd_vs_scalar_speedup: qsvt_scalar_1t / qsvt_simd_1t,
        raw_circuit_ops: fusion.raw_ops,
        fused_circuit_ops: fusion.fused_ops,
        fusion_op_reduction: fusion.op_reduction(),
    );
    (record, inverter)
}

/// Workload 3: dense-unitary extraction.
fn circuit_unitary_workload(preset: &Preset) -> Value {
    let ucirc = layered_circuit(preset.unitary_qubits, preset.unitary_layers);
    let unitary_secs = time_min(2, || {
        std::hint::black_box(circuit_unitary(&ucirc));
    });
    record!("circuit_unitary",
        qubits: preset.unitary_qubits,
        layers: preset.unitary_layers,
        seconds: unitary_secs,
    )
}

/// Workload 4: end-to-end hybrid refinement (Algorithm 2).
///
/// Fused compile-once (the default: optimized QSVT circuit compiled in
/// `new`, reused by every iteration) vs the unoptimized compile-once engine.
/// Both refiners are built outside the timed region: the comparison
/// isolates what the solve itself pays.  `compile_once_seconds` keeps its
/// historical meaning (unoptimized compile-once).
///
/// Returns the record and the fused refiner, which the multi-RHS workload
/// reuses.
fn hybrid_refinement_workload(
    preset: &Preset,
    a: &Matrix<f64>,
    b: &Vector<f64>,
) -> (Value, HybridRefiner) {
    let refine_options = |opt_level: OptLevel| HybridRefinementOptions {
        target_epsilon: preset.refine_target,
        epsilon_l: preset.qsvt_eps,
        solver: QsvtSolverOptions {
            mode: QsvtMode::CircuitReal,
            opt_level,
            ..Default::default()
        },
        ..Default::default()
    };
    let fused_refiner =
        HybridRefiner::new(a, refine_options(OptLevel::Fuse)).expect("fused refiner");
    let compile_once_refiner =
        HybridRefiner::new(a, refine_options(OptLevel::None)).expect("compile-once refiner");
    let mut rng = experiment_rng(2);
    let (_, history) = fused_refiner.solve(b, &mut rng).expect("refinement solve");
    let compiles_before = circuit_compile_count();
    let _ = fused_refiner.solve(b, &mut rng).expect("solve");
    let compile_once_compiles = circuit_compile_count() - compiles_before;
    assert_eq!(
        compile_once_compiles, 0,
        "the compile-once refinement loop must not recompile the circuit"
    );
    let refine_fused = time_min(preset.refine_reps, || {
        let mut rng = experiment_rng(3);
        std::hint::black_box(fused_refiner.solve(b, &mut rng).expect("solve"));
    });
    let refine_compile_once = time_min(preset.refine_reps, || {
        let mut rng = experiment_rng(3);
        std::hint::black_box(compile_once_refiner.solve(b, &mut rng).expect("solve"));
    });
    let (refine_simd_1t, refine_scalar_1t) = single_thread_pool().install(|| {
        time_min_pair(
            preset.refine_reps,
            || {
                let mut rng = experiment_rng(3);
                std::hint::black_box(fused_refiner.solve(b, &mut rng).expect("solve"));
            },
            || {
                with_scalar_kernels(|| {
                    let mut rng = experiment_rng(3);
                    std::hint::black_box(fused_refiner.solve(b, &mut rng).expect("solve"));
                })
            },
        )
    });
    let record = record!("hybrid_refinement_circuit_mode",
        matrix_size: preset.qsvt_n,
        kappa: preset.qsvt_kappa,
        epsilon_l: preset.qsvt_eps,
        target_epsilon: preset.refine_target,
        iterations: history.iterations(),
        compile_once_seconds: refine_compile_once,
        fused_solve_seconds: refine_fused,
        fused_vs_unfused_speedup: refine_compile_once / refine_fused,
        simd_solve_seconds: refine_simd_1t,
        scalar_solve_seconds: refine_scalar_1t,
        simd_vs_scalar_speedup: refine_scalar_1t / refine_simd_1t,
        compile_once_circuit_compiles: compile_once_compiles,
    );
    (record, fused_refiner)
}

/// Workload 5: multi-RHS — batched vs sequential solves.
fn multi_rhs_workload(preset: &Preset, refiner: &HybridRefiner, threads: usize) -> Value {
    let bs: Vec<Vector<f64>> = {
        let mut rng = experiment_rng(4);
        (0..preset.multi_rhs)
            .map(|_| qls_linalg::generate::random_unit_vector(preset.qsvt_n, &mut rng))
            .collect()
    };
    let batched_secs = time_min(preset.refine_reps, || {
        let mut rng = experiment_rng(5);
        std::hint::black_box(refiner.solve_many(&bs, &mut rng).expect("batched solve"));
    });
    let sequential_secs = time_min(preset.refine_reps, || {
        let mut rng = experiment_rng(5);
        for b in &bs {
            std::hint::black_box(refiner.solve(b, &mut rng).expect("solve"));
        }
    });
    record!("multi_rhs_refinement",
        matrix_size: preset.qsvt_n,
        num_rhs: preset.multi_rhs,
        batched_seconds: batched_secs,
        sequential_seconds: sequential_secs,
        machine_threads: threads,
        parallel_speedup_meaningful: threads > 1,
        batched_vs_sequential_speedup: sequential_secs / batched_secs,
    )
}

/// Workload 6: structured-operator residual (dense vs CSR vs stencil).
///
/// The refinement-loop hot path r = b − A x on the 2-D Poisson problem.
/// Dense pays O(N²) time (and memory: the N = 16384 matrix is ~2 GiB), the
/// CSR and stencil operators pay O(nnz) — same floats out either way (the
/// structured matvecs are bit-identical to the dense kernel).
fn sparse_residual_workloads(preset: &Preset) -> Vec<Value> {
    let mut records = Vec::new();
    for &g in &preset.sparse_grids {
        let n = g * g;
        let stencil = poisson_2d::<f64>(g, g, false);
        let csr = stencil.to_sparse();
        let x: Vector<f64> = (0..n).map(|i| ((i % 101) as f64 / 101.0) - 0.5).collect();
        let b: Vector<f64> = (0..n).map(|i| ((i % 89) as f64 / 89.0) - 0.5).collect();
        // The SpMV's scalar oracle (`matvec_scalar`) is timed interleaved
        // with the SIMD path: the SIMD-vs-scalar ratio of the residual hot
        // loop itself, robust to machine-load drifts.
        let (csr_secs, csr_scalar_secs) = time_min_pair(
            5,
            || {
                std::hint::black_box(&b - &csr.matvec(&x));
            },
            || {
                std::hint::black_box(&b - &csr.matvec_scalar(&x));
            },
        );
        let stencil_secs = time_min(5, || {
            std::hint::black_box(&b - &stencil.matvec(&x));
        });
        let (dense_secs, reference) = {
            // Scoped so the dense matrix is dropped before the next size.
            let dense = stencil.to_dense();
            let secs = time_min(3, || {
                std::hint::black_box(&b - &dense.matvec(&x));
            });
            (secs, &b - &dense.matvec(&x))
        };
        // Equivalence guard: the timed operators compute the same residual.
        assert_eq!(
            (&b - &csr.matvec(&x)).as_slice(),
            reference.as_slice(),
            "CSR residual must be bit-identical to dense"
        );
        assert_eq!(
            (&b - &stencil.matvec(&x)).as_slice(),
            reference.as_slice(),
            "stencil residual must be bit-identical to dense"
        );
        records.push(record!("sparse_residual",
            matrix_size: n,
            grid: g,
            nnz: csr.nnz(),
            dense_residual_seconds: dense_secs,
            csr_residual_seconds: csr_secs,
            csr_scalar_residual_seconds: csr_scalar_secs,
            simd_vs_scalar_speedup: csr_scalar_secs / csr_secs,
            stencil_residual_seconds: stencil_secs,
            csr_vs_dense_speedup: dense_secs / csr_secs,
            stencil_vs_dense_speedup: dense_secs / stencil_secs,
        ));
    }
    records
}

/// Workload 7: structured inner solvers (the end of the densify wall).
///
/// The whole classical refiner — factorisation *and* solve — through the
/// structured inner solver selected by `FactorizableOperator::factorize`.
fn structured_inner_solve_workloads(preset: &Preset) -> Vec<Value> {
    let opts = RefinementOptions {
        target_scaled_residual: 1e-12,
        max_iterations: 40,
        ..Default::default()
    };

    // Thomas (O(N)) vs the retained densify + dense-LU oracle (O(N²)) on the
    // 1-D Poisson problem; at N = 16384 the dense copy alone is ~2 GiB.  Both
    // paths refine to the same target, and an agreement guard pins their
    // solutions together.  f64 inner: at this size the 1-D Poisson kappa ~ N²
    // overwhelms an f32 inner solve (epsilon_l * kappa > 1), so both sides
    // run the uniform-precision configuration — the comparison is about the
    // factorisation cost, not the precision gap.
    let thomas = {
        let n = preset.inner_tridiag_n;
        let tri = poisson_1d::<f64>(n, false);
        let b: Vector<f64> = (0..n).map(|i| ((i % 97) as f64 / 97.0) - 0.5).collect();
        let solve_structured = || {
            let refiner = ClassicalRefiner::<f64, f64, TridiagonalMatrix<f64>>::new(&tri, opts)
                .expect("structured refiner");
            refiner.solve(&b).expect("structured solve").0
        };
        let solve_densify = || {
            let refiner =
                ClassicalRefiner::<f64, f64, TridiagonalMatrix<f64>>::with_dense_lu(&tri, opts)
                    .expect("densify-LU refiner");
            refiner.solve(&b).expect("densify-LU solve").0
        };
        let x_structured = solve_structured();
        let x_densify = solve_densify();
        let agreement = (&x_structured - &x_densify).norm2() / x_densify.norm2();
        assert!(
            agreement <= 1e-10,
            "structured and densify-LU refiners disagree by {agreement:e}"
        );
        let structured_secs = time_min(3, || {
            std::hint::black_box(solve_structured());
        });
        let densify_secs = time_min(2, || {
            std::hint::black_box(solve_densify());
        });
        record!("structured_inner_solve",
            matrix_size: n,
            inner_solver: "thomas",
            structured_solve_seconds: structured_secs,
            densify_lu_solve_seconds: densify_secs,
            structured_vs_densify_speedup: densify_secs / structured_secs,
            solution_agreement: agreement,
        )
    };

    // 3-D Poisson through the d-dimensional stencil: matrix-free Jacobi-CG
    // inner solves at f32, true mixed precision (epsilon_l * kappa << 1).
    let poisson3d = {
        let g = preset.poisson3d_grid;
        let n = g * g * g;
        let a = poisson_3d::<f64>(g, g, g, false);
        let b: Vector<f64> = (0..n).map(|i| ((i % 89) as f64 / 89.0) - 0.5).collect();
        let refiner =
            ClassicalRefiner::<f64, f32, StencilNd<f64>>::new(&a, opts).expect("3-D refiner");
        let (_, history) = refiner.solve(&b).expect("3-D solve");
        let solve_secs = time_min(3, || {
            std::hint::black_box(refiner.solve(&b).expect("3-D solve"));
        });
        record!("poisson3d_refinement",
            matrix_size: n,
            grid: g,
            inner_solver: "jacobi-cg",
            iterations: history.iterations(),
            solve_seconds: solve_secs,
        )
    };

    // Nonsymmetric convection-diffusion: the BiCGSTAB inner path.
    let convection_diffusion = {
        let g = preset.convdiff_grid;
        let n = g * g;
        let (px, py) = (0.5, 0.25);
        let a = convection_diffusion_2d::<f64>(g, g, px, py);
        let b: Vector<f64> = (0..n).map(|i| ((i % 83) as f64 / 83.0) - 0.5).collect();
        let refiner =
            ClassicalRefiner::<f64, f32, SparseMatrix<f64>>::new(&a, opts).expect("cd refiner");
        let (_, history) = refiner.solve(&b).expect("cd solve");
        let solve_secs = time_min(3, || {
            std::hint::black_box(refiner.solve(&b).expect("cd solve"));
        });
        record!("convection_diffusion_refinement",
            matrix_size: n,
            grid: g,
            peclet_x: px,
            peclet_y: py,
            inner_solver: "jacobi-bicgstab",
            iterations: history.iterations(),
            solve_seconds: solve_secs,
        )
    };

    // Shifted graph Laplacian at N ~ 10^5: matrix-free CG at a scale where a
    // dense copy (N² doubles) would not even fit in memory comfortably.
    let graph = {
        let n = preset.graph_n;
        let edges = {
            let mut rng = experiment_rng(23);
            random_connected_graph(n, preset.graph_extra_edges, &mut rng)
        };
        let a: SparseMatrix<f64> = shifted_graph_laplacian(n, &edges, 0.5);
        let b: Vector<f64> = (0..n).map(|i| ((i % 79) as f64 / 79.0) - 0.5).collect();
        let refiner =
            ClassicalRefiner::<f64, f32, SparseMatrix<f64>>::new(&a, opts).expect("graph refiner");
        let (_, history) = refiner.solve(&b).expect("graph solve");
        let solve_secs = time_min(3, || {
            std::hint::black_box(refiner.solve(&b).expect("graph solve"));
        });
        record!("graph_laplacian_refinement",
            matrix_size: n,
            nnz: a.nnz(),
            inner_solver: "jacobi-cg",
            iterations: history.iterations(),
            solve_seconds: solve_secs,
        )
    };
    vec![thomas, poisson3d, convection_diffusion, graph]
}

/// Workload 8: fault-injected refinement + recovery ladder.
///
/// The robustness layer's overhead, measured: the same system solved clean
/// (no injector, recovery armed but never consulted) and under a seeded
/// fault plan (amplitude noise + one scheduled transient) that forces the
/// ladder to act.  Emulation mode keeps the workload about the recovery
/// machinery, not circuit execution.
fn noisy_recovery_workload(preset: &Preset, a: &Matrix<f64>, b: &Vector<f64>) -> Value {
    let options = HybridRefinementOptions {
        target_epsilon: preset.refine_target,
        epsilon_l: preset.qsvt_eps,
        recovery: RecoveryPolicy::full(),
        ..Default::default()
    };
    let clean_refiner = HybridRefiner::new(a, options).expect("clean refiner");
    let clean_secs = time_min(preset.refine_reps, || {
        let mut rng = experiment_rng(6);
        std::hint::black_box(clean_refiner.solve(b, &mut rng).expect("clean solve"));
    });
    let plan = FaultPlan::new(41)
        .with_amplitude_noise(1e-4)
        .with_transient(1, TransientKind::InjectedError);
    let make_faulted = || {
        let mut refiner = HybridRefiner::new(a, options).expect("faulted refiner");
        refiner.attach_fault_injector(FaultInjector::shared(plan.clone()));
        refiner
    };
    let (_, history) = {
        let refiner = make_faulted();
        let mut rng = experiment_rng(6);
        refiner.solve(b, &mut rng).expect("recovered solve")
    };
    let recovery_events = history.recovery.len();
    let status = format!("{:?}", history.status);
    assert!(
        history.status.reached_target(),
        "the ladder must absorb the benchmark fault plan: {status}"
    );
    assert!(recovery_events > 0, "the plan must trigger the ladder");
    let recovered_secs = time_min(preset.refine_reps, || {
        // A fresh injector per run replays the exact same fault stream.
        let refiner = make_faulted();
        let mut rng = experiment_rng(6);
        std::hint::black_box(refiner.solve(b, &mut rng).expect("recovered solve"));
    });
    record!("noisy_refinement_recovery",
        matrix_size: preset.qsvt_n,
        amplitude_sigma: 1e-4,
        clean_solve_seconds: clean_secs,
        recovered_solve_seconds: recovered_secs,
        recovery_overhead: recovered_secs / clean_secs,
        recovery_events: recovery_events,
        final_status: status,
    )
}

/// Workload 9: Fig. 4 large-κ hybrid solves.
///
/// The large-condition-number regime of the `fig4_large_kappa` binary,
/// recorded in the perf trajectory: ε_l tied to κ (ε_l·κ = 1/4, as the
/// paper's angle-estimation algorithm fixes it), emulation path (the
/// polynomial degree reaches tens of thousands).  One record per κ.
fn fig4_large_kappa_workloads(preset: &Preset) -> Vec<Value> {
    let mut records = Vec::new();
    for (idx, &kappa) in preset.fig4_kappas.iter().enumerate() {
        let epsilon = preset.fig4_eps;
        let epsilon_l = 0.25 / kappa;
        let (a4, b4) = paper_test_system(16, kappa, 100 + idx as u64);
        let options = HybridRefinementOptions {
            target_epsilon: epsilon,
            epsilon_l,
            ..Default::default()
        };
        let refiner = HybridRefiner::new(&a4, options).expect("fig4 refiner");
        let (_, history) = {
            let mut rng = experiment_rng(11 + idx as u64);
            refiner.solve(&b4, &mut rng).expect("fig4 solve")
        };
        assert_eq!(history.status, HybridStatus::Converged, "kappa = {kappa}");
        let solve_secs = time_min(1, || {
            let mut rng = experiment_rng(11 + idx as u64);
            std::hint::black_box(refiner.solve(&b4, &mut rng).expect("fig4 solve"));
        });
        records.push(record!("fig4_large_kappa",
            matrix_size: 16,
            kappa: kappa,
            epsilon: epsilon,
            epsilon_l: epsilon_l,
            polynomial_degree: history.steps[0].cost.polynomial_degree,
            iterations: history.iterations(),
            solve_seconds: solve_secs,
        ));
    }
    records
}

/// Workload 10: sharded vs flat execution.
///
/// Wall time of the random mixed-gate circuit through the sharded engine
/// (4 shards, chunk-parallel with pairwise exchanges) vs the flat engine,
/// interleaved so the ratio survives machine drift.  The flat engine runs a
/// register on the calling thread (its kernels never fan out), so
/// `flat_seconds` is the sequential time and `sharded_vs_flat_speedup` is
/// the parallel speedup sharding buys for one register at
/// `machine_threads`.  The execution-plan
/// numbers come from `sharding_stats` (static cost model — deterministic,
/// machine-independent) so CI can gate on them.
fn sharded_workload(preset: &Preset, inverter: &QsvtInverter, threads: usize) -> Value {
    let shard_count = 4usize;
    let scirc = random_circuit(preset.random_qubits, preset.random_ops, 20260807);
    let flat_exec = QuantumExecutor::with_config(
        &scirc,
        OptLevel::Fuse,
        ExecMode::Flat,
        CachePolicy::Disabled,
    );
    let sharded_exec = QuantumExecutor::with_config(
        &scirc,
        OptLevel::Fuse,
        ExecMode::Sharded {
            shards: shard_count,
        },
        CachePolicy::Disabled,
    );
    let (sharded_secs, flat_secs) = time_min_pair(
        preset.random_reps,
        || {
            std::hint::black_box(sharded_exec.run_zero());
        },
        || {
            std::hint::black_box(flat_exec.run_zero());
        },
    );
    let sstats = sharding_stats(&scirc, shard_count);
    // The low-support fusion preference on the QSVT solve circuit: exchange
    // rounds of the fused degree-d circuit with the shard boundary armed vs
    // without (both static-model, both compiled for the same 4 shards).
    // The preference exists to retire exchange rounds — hold it to that.
    let qsvt_circ = inverter.qsvt_circuit().expect("qsvt circuit").circuit();
    let qsvt_nq = qsvt_circ.num_qubits();
    let boundary = qsvt_nq.saturating_sub(shard_count.trailing_zeros() as usize);
    let preferred = optimize_circuit_for(
        qsvt_circ,
        qsvt_nq,
        &FusionOptions::default().with_shard_boundary(boundary),
    );
    let unpreferred = optimize_circuit_for(qsvt_circ, qsvt_nq, &FusionOptions::default());
    let preferred_plan = ShardedCircuit::compile(&preferred, qsvt_nq, shard_count);
    let unpreferred_plan = ShardedCircuit::compile(&unpreferred, qsvt_nq, shard_count);
    let qsvt_rounds = preferred_plan.exchange_rounds();
    let qsvt_rounds_unpreferred = unpreferred_plan.exchange_rounds();
    assert!(
        qsvt_rounds < qsvt_rounds_unpreferred,
        "low-support fusion preference must retire at least one exchange round on the fused \
         QSVT circuit ({qsvt_rounds} preferred vs {qsvt_rounds_unpreferred} unpreferred)"
    );
    record!("sharded_vs_flat",
        qubits: preset.random_qubits,
        ops: preset.random_ops,
        shard_count: shard_count,
        shard_boundary: sstats.shard_boundary,
        per_shard_amplitudes: sstats.per_shard_amplitudes,
        per_shard_bytes: sstats.per_shard_bytes,
        local_ops: sstats.local_ops,
        exchanged_ops: sstats.exchanged_ops,
        flat_ops: sstats.flat_ops,
        exchange_rounds: sstats.exchange_rounds,
        flat_gathers: sstats.flat_gathers,
        sharded_seconds: sharded_secs,
        flat_seconds: flat_secs,
        sharded_vs_flat_speedup: flat_secs / sharded_secs,
        machine_threads: threads,
        parallel_speedup_meaningful: threads > 1,
        qsvt_shard_count: shard_count,
        qsvt_exchange_rounds: qsvt_rounds,
        qsvt_exchange_rounds_unpreferred: qsvt_rounds_unpreferred,
        qsvt_flat_gathers: preferred_plan.flat_gathers(),
        qsvt_flat_gathers_unpreferred: unpreferred_plan.flat_gathers(),
    )
}

/// A perf floor checked by `--compare`: the current value of
/// `workload.field` must stay at or above `fraction` of the committed
/// baseline value.  The fractions are deliberately generous — the committed
/// artifact comes from the `full` preset on a quiet machine while the gate
/// usually runs the `small` preset on shared CI hardware, so only a
/// *collapse* of a ratio (a lost kernel, a disabled cache, a fusion pass
/// that stopped firing) should trip them, not machine noise.
struct RatioFloor {
    workload: &'static str,
    field: &'static str,
    fraction: f64,
}

/// A deterministic counter checked by `--compare`: the current value of
/// `workload.field` must not exceed the committed baseline value.  These
/// counters (circuit compiles in the refinement loop, sharded exchange
/// rounds, warm-build regenerations) are machine- and preset-independent
/// once at their floor, so any increase is a real regression.
struct CounterCeiling {
    workload: &'static str,
    field: &'static str,
}

const RATIO_FLOORS: &[RatioFloor] = &[
    RatioFloor {
        workload: "random_circuit",
        field: "kernel_vs_generic_speedup",
        fraction: 0.25,
    },
    RatioFloor {
        workload: "random_circuit",
        field: "simd_vs_scalar_speedup",
        fraction: 0.5,
    },
    RatioFloor {
        workload: "sparse_residual",
        field: "simd_vs_scalar_speedup",
        fraction: 0.3,
    },
    // The fusion and warm-build payoffs scale with circuit size and
    // polynomial degree, so the small-preset gate run sits far below the
    // full-preset baseline even when healthy; these floors are set where
    // only a collapse to ~1.0x (cache or fusion effectively disabled)
    // lands under them.
    RatioFloor {
        workload: "qsvt_solve_circuit_mode",
        field: "fused_vs_unfused_speedup",
        fraction: 0.03,
    },
    RatioFloor {
        workload: "qsvt_solve_circuit_mode",
        field: "warm_vs_cold_build_speedup",
        fraction: 0.1,
    },
    RatioFloor {
        workload: "qsvt_solve_circuit_mode",
        field: "compile_once_vs_uncached_speedup",
        fraction: 0.2,
    },
];

const COUNTER_CEILINGS: &[CounterCeiling] = &[
    CounterCeiling {
        workload: "hybrid_refinement_circuit_mode",
        field: "compile_once_circuit_compiles",
    },
    CounterCeiling {
        workload: "qsvt_solve_circuit_mode",
        field: "build_phase_generations_warm",
    },
    CounterCeiling {
        workload: "qsvt_solve_circuit_mode",
        field: "build_fusion_passes_warm",
    },
    CounterCeiling {
        workload: "sharded_vs_flat",
        field: "qsvt_exchange_rounds",
    },
];

/// First workload entry named `name` in a parsed artifact.
fn find_workload<'v>(doc: &'v Value, name: &str) -> Option<&'v Value> {
    match doc.get("workloads")? {
        Value::Seq(items) => items
            .iter()
            .find(|w| matches!(w.get("name"), Some(Value::Str(s)) if s == name)),
        _ => None,
    }
}

fn numeric(value: &Value) -> Option<f64> {
    match value {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn workload_field(doc: &Value, workload: &str, field: &str) -> Result<f64, String> {
    let w = find_workload(doc, workload).ok_or_else(|| format!("missing workload {workload}"))?;
    let v = w
        .get(field)
        .ok_or_else(|| format!("workload {workload} missing field {field}"))?;
    numeric(v).ok_or_else(|| format!("workload {workload} field {field} is not numeric"))
}

/// Check the fresh artifact against the committed baseline; returns the list
/// of violated floors/ceilings (empty = gate passes).  A field missing from
/// the *baseline* is skipped — that is how new fields roll out (the gate
/// starts enforcing them once a regenerated baseline is committed) — but a
/// field missing from the *current* run is a violation: the gate must never
/// silently pass because a workload stopped being emitted.
fn compare_against_baseline(current_json: &str, baseline_json: &str) -> Vec<String> {
    let current: Value = match parse_json(current_json) {
        Ok(v) => v,
        Err(e) => return vec![format!("current artifact is not valid JSON: {e}")],
    };
    let baseline: Value = match parse_json(baseline_json) {
        Ok(v) => v,
        Err(e) => return vec![format!("baseline artifact is not valid JSON: {e}")],
    };
    let mut violations = Vec::new();
    for floor in RATIO_FLOORS {
        let base = match workload_field(&baseline, floor.workload, floor.field) {
            Ok(v) => v,
            Err(_) => continue, // not in the baseline yet: nothing to hold
        };
        match workload_field(&current, floor.workload, floor.field) {
            Ok(cur) => {
                let min = floor.fraction * base;
                if cur < min {
                    violations.push(format!(
                        "{}.{} = {cur:.3} fell below {min:.3} ({}x of baseline {base:.3})",
                        floor.workload, floor.field, floor.fraction
                    ));
                }
            }
            Err(e) => violations.push(e),
        }
    }
    for ceiling in COUNTER_CEILINGS {
        let base = match workload_field(&baseline, ceiling.workload, ceiling.field) {
            Ok(v) => v,
            Err(_) => continue,
        };
        match workload_field(&current, ceiling.workload, ceiling.field) {
            Ok(cur) => {
                if cur > base {
                    violations.push(format!(
                        "{}.{} = {cur} exceeds the committed baseline {base}",
                        ceiling.workload, ceiling.field
                    ));
                }
            }
            Err(e) => violations.push(e),
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-workload artifact: one gated ratio and one gated counter.
    fn artifact(kernel_speedup: f64, circuit_compiles: u64) -> String {
        to_json_string(&record!(workloads: vec![
            record!("random_circuit", kernel_vs_generic_speedup: kernel_speedup),
            record!("hybrid_refinement_circuit_mode",
                compile_once_circuit_compiles: circuit_compiles,
            ),
        ]))
    }

    #[test]
    fn ratio_inflated_in_the_baseline_trips_its_floor() {
        let violations = compare_against_baseline(&artifact(10.0, 0), &artifact(1000.0, 0));
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].starts_with("random_circuit.kernel_vs_generic_speedup"));
    }

    #[test]
    fn gated_field_missing_from_the_current_artifact_is_a_violation() {
        let current = to_json_string(&record!(workloads: vec![
            record!("random_circuit", kernel_vs_generic_speedup: 10.0),
            record!("hybrid_refinement_circuit_mode", iterations: 2),
        ]));
        let violations = compare_against_baseline(&current, &artifact(10.0, 0));
        assert_eq!(
            violations,
            ["workload hybrid_refinement_circuit_mode missing field compile_once_circuit_compiles"]
        );
    }

    #[test]
    fn counter_above_its_ceiling_trips() {
        let violations = compare_against_baseline(&artifact(10.0, 1), &artifact(10.0, 0));
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].starts_with("hybrid_refinement_circuit_mode.compile_once"));
    }

    #[test]
    fn field_missing_from_the_baseline_is_skipped() {
        let baseline = to_json_string(&record!(workloads: vec![
            record!("random_circuit", qubits: 16),
        ]));
        assert!(compare_against_baseline(&artifact(0.0, 99), &baseline).is_empty());
    }

    /// A misspelled floor or ceiling would be skipped by the gate forever, so
    /// every gated field must exist, numerically, in the committed baseline.
    #[test]
    fn every_gated_field_is_in_the_committed_baseline() {
        let baseline = parse_json(include_str!("../../../../BENCH_simulator.json"))
            .expect("committed baseline parses");
        let floors = RATIO_FLOORS.iter().map(|f| (f.workload, f.field));
        let ceilings = COUNTER_CEILINGS.iter().map(|c| (c.workload, c.field));
        for (workload, field) in floors.chain(ceilings) {
            if let Err(e) = workload_field(&baseline, workload, field) {
                panic!("gated field not in BENCH_simulator.json: {e}");
            }
        }
    }
}
