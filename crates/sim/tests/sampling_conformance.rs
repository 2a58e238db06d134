//! Distribution conformance of the multinomial shot sampler
//! (`qls_sim::sample_counts`) and the binomial variates it is built from
//! (`qls_sim::sample_binomial`).
//!
//! Every check compares sample moments with the exact Binomial /
//! multinomial moments through a fixed z-bound, on fixed seeds.  The
//! per-coordinate check also runs the per-shot readout the sampler
//! replaced — one uniform and one CDF binary search per shot — as an
//! oracle, and requires both to agree with the exact law and with each
//! other.

use qls_sim::{sample_binomial, sample_counts};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Bound on every |z|-score below.
const Z_BOUND: f64 = 5.0;

/// Sample mean and (unbiased) sample variance of `trials` draws.
fn mean_var(trials: usize, mut draw: impl FnMut() -> f64) -> (f64, f64) {
    let xs: Vec<f64> = (0..trials).map(|_| draw()).collect();
    let mean = xs.iter().sum::<f64>() / trials as f64;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (trials - 1) as f64;
    (mean, var)
}

/// z-scores of a sample mean and variance of `trials` draws against the
/// exact moments of `Binomial(n, p)` (`p` strictly inside (0, 1)).  The
/// variance's standard error uses the fourth central moment
/// `μ₄ = npq·(1 + 3(n−2)pq)`.
fn binomial_z(n: usize, p: f64, trials: usize, mean: f64, var: f64) -> (f64, f64) {
    let (nf, t) = (n as f64, trials as f64);
    let sigma2 = nf * p * (1.0 - p);
    let mu4 = sigma2 * (1.0 + 3.0 * (nf - 2.0) * p * (1.0 - p));
    let z_mean = (mean - nf * p) / (sigma2 / t).sqrt();
    let z_var = (var - sigma2) / ((mu4 - sigma2 * sigma2) / t).sqrt();
    (z_mean, z_var)
}

#[test]
fn binomial_moments_match_on_every_branch() {
    // (n, p, branch): inversion below n·p = 10, BTRS from there, and
    // p > 0.5 through n − Binomial(n, 1 − p) onto either.
    let cases = [
        (7, 0.3, "inversion"),
        (20, 0.1, "inversion"),
        (1_000, 0.005, "inversion"),
        (1_000_000, 5e-6, "inversion"),
        (50, 0.2, "BTRS at n·p = 10"),
        (100, 0.3, "BTRS"),
        (10_000, 0.25, "BTRS"),
        (1_000_000, 0.5, "BTRS"),
        (20, 0.8, "p > 0.5 onto inversion"),
        (100, 0.9, "p > 0.5 onto BTRS"),
        (1_000_000, 0.999, "p > 0.5 onto BTRS"),
    ];
    let trials = 20_000;
    for (case, &(n, p, branch)) in cases.iter().enumerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(500 + case as u64);
        let (mean, var) = mean_var(trials, || {
            let k = sample_binomial(n, p, &mut rng);
            assert!(k <= n, "{branch}: Binomial({n}, {p}) drew {k}");
            k as f64
        });
        let (z_mean, z_var) = binomial_z(n, p, trials, mean, var);
        assert!(
            z_mean.abs() < Z_BOUND && z_var.abs() < Z_BOUND,
            "{branch}: Binomial({n}, {p}): mean {mean} (z {z_mean:.2}), var {var} (z {z_var:.2})"
        );
    }
}

#[test]
fn binomial_edges_are_exact() {
    let mut rng = ChaCha8Rng::seed_from_u64(510);
    for p in [0.0, 0.3, 0.7, 1.0] {
        assert_eq!(sample_binomial(0, p, &mut rng), 0, "n = 0, p = {p}");
    }
    for n in [1, 10, 1_000_000] {
        assert_eq!(sample_binomial(n, 0.0, &mut rng), 0, "n = {n}, p = 0");
        assert_eq!(sample_binomial(n, 1.0, &mut rng), n, "n = {n}, p = 1");
    }
    assert_eq!(rng.get_word_pos(), 0, "the edges draw no randomness");
}

/// Seeded weights, exactly zero at every fifth coordinate and uniform in
/// [0.2, 1) elsewhere, normalised to a distribution.
fn weights(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let w: Vec<f64> = (0..n)
        .map(|i| {
            if i % 5 == 3 {
                0.0
            } else {
                rng.gen_range(0.2..1.0)
            }
        })
        .collect();
    let total: f64 = w.iter().sum();
    w.iter().map(|x| x / total).collect()
}

#[test]
fn counts_sum_to_shots_and_skip_zero_weights() {
    let mut rng = ChaCha8Rng::seed_from_u64(520);
    for n in [1, 2, 3, 16, 64, 257] {
        let w = weights(n, 521 + n as u64);
        for shots in [0, 1, 2, 10, 9_999, 1_000_000, 1 << 40] {
            for _ in 0..20 {
                let counts = sample_counts(&w, shots, &mut rng);
                assert_eq!(counts.len(), n);
                assert_eq!(
                    counts.iter().sum::<usize>(),
                    shots,
                    "n = {n}, shots = {shots}"
                );
                for (i, (&c, &wi)) in counts.iter().zip(&w).enumerate() {
                    assert!(wi > 0.0 || c == 0, "zero-weight coordinate {i} drew {c}");
                }
            }
        }
    }
    // Trailing zeros: the last coordinate *with mass* takes the remainder.
    let counts = sample_counts(&[0.25, 0.75, 0.0, 0.0], 1_000, &mut rng);
    assert_eq!(counts[0] + counts[1], 1_000);
    assert_eq!(&counts[2..], &[0, 0]);
    // No mass anywhere: nothing to land on.
    assert_eq!(sample_counts(&[0.0; 5], 1_000, &mut rng), vec![0; 5]);
}

/// The per-shot readout the sampler replaced: one uniform and one binary
/// search of the CDF per shot.
fn per_shot_counts(weights: &[f64], shots: usize, rng: &mut ChaCha8Rng) -> Vec<usize> {
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, &w| {
            *acc += w;
            Some(*acc)
        })
        .collect();
    let total = cdf[cdf.len() - 1];
    let mut counts = vec![0; weights.len()];
    for _ in 0..shots {
        let r: f64 = rng.gen_range(0.0..total);
        counts[cdf.partition_point(|&c| c < r).min(weights.len() - 1)] += 1;
    }
    counts
}

/// Per-coordinate sample mean and variance of `trials` count vectors.
fn count_moments(trials: usize, mut draw: impl FnMut() -> Vec<usize>) -> Vec<(f64, f64)> {
    let runs: Vec<Vec<usize>> = (0..trials).map(|_| draw()).collect();
    (0..runs[0].len())
        .map(|i| {
            let mut column = runs.iter().map(|r| r[i] as f64);
            mean_var(trials, || column.next().unwrap())
        })
        .collect()
}

#[test]
fn coordinate_moments_match_the_per_shot_oracle() {
    for n in [2, 16, 64] {
        let w = weights(n, 530 + n as u64);
        for shots in [1, 10, 10_000, 1_000_000] {
            // The sampler is cheap at any shot count; the oracle's trials
            // are capped at ~10⁶ simulated shots per case (at least two).
            let trials = 2_000;
            let oracle_trials = (1_000_000 / shots).clamp(2, 2_000);
            let mut rng = ChaCha8Rng::seed_from_u64(540 + n as u64 * 10 + shots as u64 % 7);
            let fast = count_moments(trials, || sample_counts(&w, shots, &mut rng));
            let oracle = count_moments(oracle_trials, || per_shot_counts(&w, shots, &mut rng));
            for (i, &wi) in w.iter().enumerate() {
                let ((mean, var), (oracle_mean, oracle_var)) = (fast[i], oracle[i]);
                let case = format!("N = {n}, shots = {shots}, coordinate {i} (w = {wi:.4})");
                if wi == 0.0 {
                    assert_eq!((mean, oracle_mean), (0.0, 0.0), "{case}");
                    continue;
                }
                // Each marginal of the multinomial is Binomial(shots, w_i).
                let (z_mean, z_var) = binomial_z(shots, wi, trials, mean, var);
                let (z_oracle_mean, z_oracle_var) =
                    binomial_z(shots, wi, oracle_trials, oracle_mean, oracle_var);
                let sigma2 = shots as f64 * wi * (1.0 - wi);
                let z_between = (mean - oracle_mean)
                    / (sigma2 / trials as f64 + sigma2 / oracle_trials as f64).sqrt();
                assert!(
                    z_mean.abs() < Z_BOUND && z_var.abs() < Z_BOUND,
                    "{case}: sampler mean {mean} (z {z_mean:.2}), var {var} (z {z_var:.2})"
                );
                assert!(
                    z_oracle_mean.abs() < Z_BOUND && z_between.abs() < Z_BOUND,
                    "{case}: oracle mean {oracle_mean} (z {z_oracle_mean:.2}), \
                     sampler − oracle z {z_between:.2}"
                );
                if oracle_trials >= 100 {
                    assert!(
                        z_oracle_var.abs() < Z_BOUND,
                        "{case}: oracle var {oracle_var} (z {z_oracle_var:.2})"
                    );
                }
            }
        }
    }
}
