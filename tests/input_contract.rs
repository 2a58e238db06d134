//! The input contract of the hybrid refiner's public entry points: every
//! malformed input ends in a typed `Err` and every degenerate one in an
//! in-band status — never a panic — in both execution modes.

use qls::linalg::lu::LinalgError;
use qls::prelude::*;
use qls::qsvt::QsvtError;

const MODES: [QsvtMode; 2] = [QsvtMode::Emulation, QsvtMode::CircuitReal];

fn system(n: usize, seed: u64) -> (Matrix<f64>, Vector<f64>) {
    let mut rng = experiment_rng(seed);
    let a = random_matrix_with_cond(
        n,
        2.0,
        SingularValueDistribution::Geometric,
        MatrixEnsemble::General,
        &mut rng,
    );
    let b = random_unit_vector(n, &mut rng);
    (a, b)
}

fn options(mode: QsvtMode, epsilon_l: f64) -> HybridRefinementOptions {
    HybridRefinementOptions {
        target_epsilon: 1e-8,
        epsilon_l,
        solver: QsvtSolverOptions {
            mode,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn wrong_length_right_hand_side_is_a_dimension_mismatch() {
    let (a, b) = system(4, 401);
    let short = Vector::from_f64_slice(&[1.0, 0.0]);
    for mode in MODES {
        let refiner = HybridRefiner::new(&a, options(mode, 0.05)).unwrap();
        let mut rng = experiment_rng(1);
        assert!(
            matches!(
                refiner.solve(&short, &mut rng),
                Err(QlsError::Linalg(LinalgError::DimensionMismatch))
            ),
            "{mode:?}"
        );
        // One bad system rejects the whole batch before any solve runs.
        assert!(
            matches!(
                refiner.solve_many(&[b.clone(), short.clone()], &mut rng),
                Err(QlsError::Linalg(LinalgError::DimensionMismatch))
            ),
            "{mode:?}"
        );
    }
}

#[test]
fn unsupported_matrix_or_accuracy_is_rejected_at_construction() {
    let (twelve, _) = system(12, 402);
    let (a, _) = system(4, 403);
    for mode in MODES {
        assert!(
            matches!(
                HybridRefiner::new(&twelve, options(mode, 0.05)),
                Err(QlsError::Qsvt(QsvtError::InvalidInput(_)))
            ),
            "{mode:?}: a 12x12 matrix has no 2^n data register"
        );
        assert!(
            matches!(
                HybridRefiner::new(&a, options(mode, 1.5)),
                Err(QlsError::Qsvt(QsvtError::InvalidInput(_)))
            ),
            "{mode:?}: epsilon_l = 1.5"
        );
    }
}

#[test]
fn zero_shots_are_rejected_at_construction() {
    let (a, _) = system(4, 405);
    for mode in MODES {
        let mut opts = options(mode, 0.05);
        opts.solver.shots = Some(0);
        assert!(
            matches!(
                HybridRefiner::new(&a, opts),
                Err(QlsError::Qsvt(QsvtError::InvalidInput(_)))
            ),
            "{mode:?}: shots = Some(0)"
        );
    }
}

#[test]
fn zero_right_hand_side_converges_to_zero() {
    let (a, _) = system(4, 404);
    let zero = Vector::zeros(4);
    for mode in MODES {
        let refiner = HybridRefiner::new(&a, options(mode, 0.05)).unwrap();
        let (x, history) = refiner.solve(&zero, &mut experiment_rng(2)).unwrap();
        assert!(history.status.reached_target(), "{mode:?}: {history:?}");
        assert!(x.iter().all(|&v| v == 0.0), "{mode:?}: x = {x:?}");
    }
}
