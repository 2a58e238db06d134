//! `structured_classical`: `ClassicalRefiner<f64, f32>` over a CSR graph
//! Laplacian, untraced and replayed.

use crate::report::{end_to_end, Loop, Outcome, Tally, Verdict};
use crate::setup::{on_fresh_thread, timed, SetupSampler, WorkDir};
use crate::stats::median;
use crate::trace::{bitwise_equal, Replayed, Spans, Stage};
use qls_linalg::generate::{random_connected_graph, random_unit_vector, shifted_graph_laplacian};
use qls_linalg::{
    scaled_residual, ClassicalRefiner, ConjugateGradientSolver, FactorizableOperator, InnerSolver,
    LinearOperator, Matrix, Real, RefinementHistory, RefinementOptions, RefinementStatus,
    SparseMatrix, Vector,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NAME: &str = "structured_classical";
/// Vertices of the graph.  The working set (CSR at f64 and f32 plus the CG
/// vectors, ≈6 MB) is larger than the 4 MiB of L2; at N = 5·10⁴ the solve
/// streamed from memory so hard that the host's contention phases moved
/// p90 by up to half of its median between runs.
const N: usize = 20_000;
/// Diagonal shift making the Laplacian SPD (λ_min ≥ SHIFT).
const SHIFT: f64 = 0.5;
/// Seed of the fixed graph (the right-hand sides come from `--seed`).
const GRAPH_SEED: u64 = 5_000_003;
const TARGET_EPSILON: f64 = 1e-11;
const SETUP_REPS: usize = 9;
/// Untimed solves before the measured loop (checked like every solve).
const WARMUP_SOLVES: usize = 2;

type Refiner = ClassicalRefiner<f64, f32, SparseMatrix<f64>>;

fn options() -> RefinementOptions {
    RefinementOptions {
        target_scaled_residual: TARGET_EPSILON,
        ..Default::default()
    }
}

struct Problem {
    a: SparseMatrix<f64>,
    /// Upper bound on κ₂: Gershgorin bound on λ_max over SHIFT ≤ λ_min.
    kappa_bound: f64,
}

fn problem() -> Problem {
    let mut rng = ChaCha8Rng::seed_from_u64(GRAPH_SEED);
    let edges = random_connected_graph(N, 3 * N, &mut rng);
    let a = shifted_graph_laplacian::<f64>(N, &edges, SHIFT);
    let kappa_bound = a.norm_inf() / SHIFT;
    Problem { a, kappa_bound }
}

/// A right-hand side with a known solution: `b = A x`, `x` a random unit
/// vector.
fn next_rhs(a: &SparseMatrix<f64>, inputs: &mut ChaCha8Rng) -> (Vector<f64>, Vector<f64>) {
    let x = random_unit_vector(N, inputs);
    (a.matvec(&x), x)
}

/// Check one solve: no `Err`, status `Converged`, a recomputed scaled
/// residual ≤ ε, and a forward error against the known solution within the
/// residual bound `‖x − x_true‖/‖x_true‖ ≤ κ ω` (with slack 2).
fn check(
    p: &Problem,
    b: &Vector<f64>,
    x_true: &Vector<f64>,
    result: &Result<(Vector<f64>, RefinementHistory), qls_linalg::lu::LinalgError>,
) -> Verdict {
    let Ok((x, history)) = result else {
        return Verdict::error();
    };
    let omega = scaled_residual(&p.a, x, b);
    let forward_error = (x - x_true).norm2() / x_true.norm2();
    let bound = 2.0 * p.kappa_bound * (omega + 1e-13);
    Verdict {
        ok: history.status == RefinementStatus::Converged
            && omega <= TARGET_EPSILON
            && forward_error <= bound,
        forward_error,
        iterations: history.iterations(),
        be_calls: 0,
        recovery_events: 0,
    }
}

fn build(p: &Problem) -> Result<Refiner, qls_linalg::lu::LinalgError> {
    Refiner::new(&p.a, options())
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64, work: &WorkDir) -> Result<Outcome, String> {
    let p = problem();
    let refiner = build(&p).map_err(|e| e.to_string())?;
    let mut inputs = ChaCha8Rng::seed_from_u64(seed);
    let mut tally = Tally::default();
    for _ in 0..WARMUP_SOLVES {
        let (b, x_true) = next_rhs(&p.a, &mut inputs);
        tally.record(&check(&p, &b, &x_true, &refiner.solve(&b)));
    }

    let mut secs = Vec::new();
    let mut solved = 0usize;
    let mut setup = SetupSampler::new(SETUP_REPS, seconds);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        setup.poll(work, || build(&p))?;
        let (b, x_true) = next_rhs(&p.a, &mut inputs);
        let (s, result) = timed(|| refiner.solve(&b));
        let verdict = check(&p, &b, &x_true, &result);
        solved += usize::from(verdict.ok);
        tally.record(&verdict);
        secs.push(s);
    }
    let run = Loop {
        secs,
        solved,
        setup: setup.finish(work, || build(&p))?,
        setup_reps: SETUP_REPS,
    };
    println!(
        "{NAME}: N = {N}, nnz = {}, inner solver {}",
        p.a.nnz(),
        refiner.inner_kind()
    );
    Ok(end_to_end(NAME, &run, &tally))
}

/// Replay `ClassicalRefiner::solve` through `inner`, timing each stage.
/// Returns the iterate and the number of history steps, or `None` where an
/// inner solve failed.
fn replay(
    a: &SparseMatrix<f64>,
    inner: &dyn InnerSolver<f32>,
    b: &Vector<f64>,
    spans: &mut Spans,
) -> Option<(Vector<f64>, usize)> {
    let opts = options();
    let b_low: Vector<f32> = spans.time(Stage::Convert, || b.convert());
    let x_low = spans.time(Stage::InnerSolve, || inner.solve(&b_low)).ok()?;
    spans.inner_solves += 1;
    let mut x: Vector<f64> = spans.time(Stage::Convert, || x_low.convert());
    spans.matvecs += 1;
    let mut prev = spans.time(Stage::Residual, || scaled_residual(a, &x, b));
    let mut steps = 1;
    if prev <= opts.target_scaled_residual {
        return Some((x, steps));
    }
    for _ in 1..=opts.max_iterations {
        spans.matvecs += 2;
        let r = spans.time(Stage::Residual, || b - &a.matvec(&x));
        let r_low: Vector<f32> = spans.time(Stage::Convert, || r.convert());
        let e_low = spans.time(Stage::InnerSolve, || inner.solve(&r_low)).ok()?;
        spans.inner_solves += 1;
        let e: Vector<f64> = spans.time(Stage::Convert, || {
            let e: Vector<f64> = e_low.convert();
            x += &e;
            e
        });
        let omega = spans.time(Stage::Residual, || scaled_residual(a, &x, b));
        spans.time(Stage::Convert, || black_box(e.norm2()));
        steps += 1;
        if omega <= opts.target_scaled_residual
            || omega > prev * 2.0
            || omega > prev * opts.stagnation_factor
        {
            break;
        }
        prev = omega;
    }
    Some((x, steps))
}

/// A CSR operator that counts its matvecs.
#[derive(Clone)]
struct Counted {
    op: SparseMatrix<f32>,
    matvecs: Arc<AtomicUsize>,
}

impl LinearOperator<f32> for Counted {
    fn nrows(&self) -> usize {
        self.op.nrows()
    }
    fn ncols(&self) -> usize {
        self.op.ncols()
    }
    fn matvec(&self, x: &Vector<f32>) -> Vector<f32> {
        self.matvecs.fetch_add(1, Ordering::Relaxed);
        LinearOperator::matvec(&self.op, x)
    }
    fn matvec_transposed(&self, x: &Vector<f32>) -> Vector<f32> {
        self.matvecs.fetch_add(1, Ordering::Relaxed);
        LinearOperator::matvec_transposed(&self.op, x)
    }
    fn nnz(&self) -> usize {
        self.op.nnz()
    }
    fn to_dense(&self) -> Matrix<f32> {
        self.op.to_dense()
    }
    fn norm_inf(&self) -> f32 {
        self.op.norm_inf()
    }
    fn norm_frobenius(&self) -> f32 {
        self.op.norm_frobenius()
    }
}

/// Bytes one CSR matvec reads and writes: values, column indices, row
/// pointers, the input and the output vector.
fn csr_matvec_bytes(a: &SparseMatrix<f64>, scalar: usize) -> usize {
    let n = a.nrows();
    let index = std::mem::size_of::<usize>();
    a.nnz() * (scalar + index) + (n + 1) * index + 2 * n * scalar
}

/// Matvecs at working and at low precision of one solve of `b`, counted by
/// replaying it through a Jacobi-CG twin over a counting operator.  The
/// twin is built like `SparseMatrix::factorize` builds its CG solver; the
/// count is returned only when the twin reproduces `expected` bit for bit.
fn count_matvecs(
    a: &SparseMatrix<f64>,
    b: &Vector<f64>,
    expected: &Vector<f64>,
) -> Option<(usize, usize)> {
    let low: SparseMatrix<f32> = a.convert();
    let matvecs = Arc::new(AtomicUsize::new(0));
    let tol = (16.0 * f32::unit_roundoff()).max(1e-15);
    let diag = low.diagonal();
    let op = Counted {
        op: low,
        matvecs: Arc::clone(&matvecs),
    };
    let twin = ConjugateGradientSolver::new(op, &diag, tol, a.nrows()).ok()?;
    let mut spans = Spans::default();
    let (x, _) = replay(a, &twin, b, &mut spans)?;
    bitwise_equal(&x, expected).then(|| (spans.matvecs, matvecs.load(Ordering::Relaxed)))
}

/// The traced run: per-layer metrics from a replay of every solve.
pub fn trace(seed: u64, seconds: f64, work: &WorkDir) -> Result<Outcome, String> {
    let p = problem();
    // Cold `factorize` (the one stage of `ClassicalRefiner::new`), the
    // untraced construction and a warm one, each on a fresh thread.
    let (mut factorize, mut untraced_setup, mut warm) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let dir = work.fresh();
        let (s, inner) = on_fresh_thread(&dir, || {
            let (s, inner) = timed(|| p.a.factorize::<f32>());
            (s, inner.map(drop).map_err(|e| e.to_string()))
        });
        inner?;
        factorize.push(s);
        let (s, built) = on_fresh_thread(&dir, || {
            let (s, built) = timed(|| build(&p));
            (s, built.map(drop).map_err(|e| e.to_string()))
        });
        built?;
        untraced_setup.push(s);
        let s = on_fresh_thread(&dir, || {
            let (s, built) = timed(|| build(&p));
            built.map(|_| s).map_err(|e| e.to_string())
        })?;
        warm.push(s);
    }
    let refiner = build(&p).map_err(|e| e.to_string())?;
    let inner = p.a.factorize::<f32>().map_err(|e| e.to_string())?;
    let mut inputs = ChaCha8Rng::seed_from_u64(seed);
    let mut tally = Tally::default();
    for _ in 0..WARMUP_SOLVES {
        let (b, x_true) = next_rhs(&p.a, &mut inputs);
        tally.record(&check(&p, &b, &x_true, &refiner.solve(&b)));
    }

    let mut spans = Spans::default();
    let mut replayed = Replayed::default();
    let mut followed = 0usize;
    let mut first: Option<(Vector<f64>, Vector<f64>)> = None;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let (b, x_true) = next_rhs(&p.a, &mut inputs);
        let mut local = Spans::default();
        let run_replay = |local: &mut Spans| timed(|| replay(&p.a, inner.as_ref(), &b, local));
        // Alternate which side runs first so neither always finds warm caches.
        let ((s, result), (rs, out)) = if replayed.calls % 2 == 0 {
            let real = timed(|| refiner.solve(&b));
            (real, run_replay(&mut local))
        } else {
            let r = run_replay(&mut local);
            (timed(|| refiner.solve(&b)), r)
        };
        replayed.calls += 1;
        replayed.rhs += 1;
        replayed.untraced += s;
        replayed.traced += rs;
        tally.record(&check(&p, &b, &x_true, &result));
        let Some((x, steps)) = out else { continue };
        if !matches!(&result, Ok((rx, h)) if h.steps.len() == steps && bitwise_equal(&x, rx)) {
            replayed.mismatched += 1;
            continue;
        }
        followed += 1;
        spans.add(&local);
        first.get_or_insert((b, x));
    }

    let bytes = first
        .as_ref()
        .and_then(|(b, x)| count_matvecs(&p.a, b, x))
        .map(|(high, low)| {
            (high * csr_matvec_bytes(&p.a, 8) + low * csr_matvec_bytes(&p.a, 4)) as f64
        });
    if bytes.is_none() {
        eprintln!(
            "{NAME}: the counting CG twin did not reproduce the solve; matvec bytes not reported"
        );
    }
    let mut out = Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        ..Default::default()
    };
    spans.report(&mut out, followed);
    replayed.report(&spans, &mut out);
    out.metric(
        "forward_error_max",
        tally.forward_error_max,
        "ratio",
        tally.attempted,
    );
    out.metric(
        "core.iterations_per_solve",
        tally.per_rhs(tally.iterations),
        "count",
        tally.attempted,
    );
    out.metric(
        "linalg.inner_solves_per_solve",
        spans.inner_solves as f64 / followed.max(1) as f64,
        "count",
        followed,
    );
    out.metric(
        "linalg.matvec_bytes_per_solve",
        bytes.unwrap_or(0.0),
        "B",
        1,
    );
    out.metric("linalg.factorize_s", median(&factorize), "s", SETUP_REPS);
    out.metric("setup_warm_s", median(&warm), "s", SETUP_REPS);
    out.metric(
        "trace.setup_unattributed_fraction",
        1.0 - factorize.iter().sum::<f64>() / untraced_setup.iter().sum::<f64>(),
        "ratio",
        SETUP_REPS,
    );
    println!(
        "{NAME}: {} solves traced, {followed} followed by the replay",
        replayed.calls
    );
    Ok(out)
}
