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
fn non_finite_matrix_entries_are_rejected_at_construction() {
    let (a, _) = system(4, 408);
    for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
        let mut m = a.clone();
        m[(1, 2)] = bad;
        for mode in MODES {
            assert!(
                matches!(
                    HybridRefiner::new(&m, options(mode, 0.05)),
                    Err(QlsError::Qsvt(QsvtError::InvalidInput(_)))
                ),
                "{mode:?}: HybridRefiner::new with a {bad} entry"
            );
            assert!(
                matches!(
                    QsvtInverter::new(&m, 0.05, mode),
                    Err(QsvtError::InvalidInput(_))
                ),
                "{mode:?}: QsvtInverter::new with a {bad} entry"
            );
        }
    }
}

#[test]
fn polynomials_too_wide_to_build_are_rejected_before_allocation() {
    // Rank 3: the last row is the sum of the first two, so σ_min is rounding
    // noise; without the degree check the polynomial's construction asks
    // for hundreds of GB and the process aborts.
    let rows = [
        [2.0, 1.0, 0.5, 3.0],
        [1.0, -1.0, 2.0, 0.25],
        [0.5, 4.0, 1.0, -2.0],
    ];
    let rank_deficient = Matrix::from_fn(4, 4, |i, j| match i {
        3 => rows[0][j] + rows[1][j],
        _ => rows[i][j],
    });
    // κ = 10⁸ at ε_l = 1e-2: degree ≈ 6·10⁹, 32 GB before the check existed.
    let mut rng = experiment_rng(409);
    let ill_conditioned = random_matrix_with_cond(
        4,
        1e8,
        SingularValueDistribution::Geometric,
        MatrixEnsemble::General,
        &mut rng,
    );
    for (name, a, epsilon_l) in [
        ("rank-deficient", &rank_deficient, 0.05),
        ("kappa = 1e8", &ill_conditioned, 1e-2),
    ] {
        for mode in MODES {
            let degree_error = |what: &str| what.contains("MAX_POLY_DEGREE");
            assert!(
                matches!(
                    HybridRefiner::new(a, options(mode, epsilon_l)),
                    Err(QlsError::Qsvt(QsvtError::InvalidInput(what))) if degree_error(what)
                ),
                "{mode:?}: HybridRefiner::new on a {name} matrix"
            );
            assert!(
                matches!(
                    QsvtInverter::new(a, epsilon_l, mode),
                    Err(QsvtError::InvalidInput(what)) if degree_error(what)
                ),
                "{mode:?}: QsvtInverter::new on a {name} matrix"
            );
        }
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

/// A circuit-mode inverter with the given execution mode (cache off).
fn inverter_with(a: &Matrix<f64>, exec_mode: ExecMode) -> Result<QsvtInverter, QsvtError> {
    QsvtInverter::with_config(
        a,
        0.05,
        QsvtMode::CircuitReal,
        OptLevel::default(),
        exec_mode,
        CachePolicy::Disabled,
    )
}

#[test]
fn invalid_shard_counts_are_rejected_at_construction() {
    let (a, b) = system(4, 406);
    let flat = inverter_with(&a, ExecMode::Flat).unwrap();
    let qubits = flat.qsvt_circuit().unwrap().circuit().num_qubits();
    for shards in [0, 3, 6, 1 << (qubits + 1)] {
        assert!(
            matches!(
                inverter_with(&a, ExecMode::Sharded { shards }),
                Err(QsvtError::InvalidInput(_))
            ),
            "shards = {shards} on a {qubits}-qubit register"
        );
    }
    // Every power of two up to one amplitude per shard still builds and
    // solves.  Fusion is priced for the shard boundary, so the fused op list
    // (and hence the last bits) may differ from the flat register's.
    let (flat_direction, _) = flat.solve_direction(&b).unwrap();
    for shards in [1, 2, 1 << qubits] {
        let sharded = inverter_with(&a, ExecMode::Sharded { shards }).unwrap();
        let (direction, _) = sharded.solve_direction(&b).unwrap();
        let diff = (&direction - &flat_direction).norm2();
        assert!(diff < 1e-12, "shards = {shards}: |sharded - flat| = {diff}");
    }
}

#[test]
fn wrong_length_right_hand_side_is_rejected_by_the_inverter() {
    let (a, b) = system(4, 407);
    let short = Vector::from_f64_slice(&[1.0, 0.0]);
    let long = Vector::zeros(8);
    for mode in MODES {
        let inverter = QsvtInverter::new(&a, 0.05, mode).unwrap();
        for bad in [&short, &long] {
            assert!(
                matches!(
                    inverter.solve_direction(bad),
                    Err(QsvtError::InvalidInput(_))
                ),
                "{mode:?}: solve_direction, len {}",
                bad.len()
            );
            assert!(
                matches!(
                    inverter.direction_error(bad),
                    Err(QsvtError::InvalidInput(_))
                ),
                "{mode:?}: direction_error, len {}",
                bad.len()
            );
        }
        // In a batch the bad slots fail alone; the others still solve.
        let zero = Vector::zeros(4);
        let batch = [
            b.clone(),
            short.clone(),
            zero.clone(),
            long.clone(),
            b.clone(),
        ];
        let out = inverter.solve_direction_batch_checked(&batch);
        assert_eq!(out.len(), batch.len(), "{mode:?}");
        let good = inverter.solve_direction(&b).unwrap().0;
        for i in [0, 4] {
            assert_eq!(out[i].as_ref().unwrap().0, good, "{mode:?}: slot {i}");
        }
        assert_eq!(out[2].as_ref().unwrap().0, zero, "{mode:?}: zero slot");
        for i in [1, 3] {
            assert!(
                matches!(out[i], Err(QsvtError::InvalidInput(_))),
                "{mode:?}: slot {i}"
            );
        }
    }
}
