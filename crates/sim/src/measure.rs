//! Measurement and sampling.
//!
//! The paper's complexity model charges `O(1/ε²)` *samples* per solve because
//! the QSVT result is read out by repeated measurement (Remark 3: the hybrid
//! algorithm relies on the "collapse" of the quantum solution).  This module
//! provides shot sampling from a state vector, empirical estimation of the
//! solution amplitudes from counts, and the sign-recovery step needed to turn
//! magnitude-only counts back into a signed real vector.
//!
//! ## How shots are simulated
//!
//! The counts of `shots` independent measurements of a distribution `w` are
//! one multinomial draw, and [`sample_counts`] draws it exactly without
//! simulating the shots one by one: coordinate `i` receives
//! `c_i ~ Binomial(shots − Σ_{j<i} c_j, w_i / Σ_{j≥i} w_j)` (conditional
//! binomials over suffix sums, so the last coordinate with mass takes the
//! remainder exactly).  [`sample_binomial`] draws each binomial by inversion
//! when `n·p < 10` and by Hörmann's BTRS transformed rejection otherwise
//! (W. Hörmann, "The generation of binomial random variates", J. Stat.
//! Comput. Simul. 46, 1993), both in O(1) expected uniforms.  A readout of
//! an `N`-outcome distribution therefore costs O(N) expected RNG draws
//! **whatever the shot count**: the modelled `O(1/ε²)` shots stay a cost in
//! the paper's model, not in the simulator's run time.

use crate::state::StateVector;
use qls_linalg::Vector;
use rand::Rng;
use std::collections::HashMap;

/// Result of sampling a state vector with a finite number of shots.
#[derive(Debug, Clone)]
pub struct SampleResult {
    /// Number of shots taken.
    pub shots: usize,
    /// Counts per basis state index.
    pub counts: HashMap<usize, usize>,
}

impl SampleResult {
    /// Empirical probability of basis state `index`.
    pub fn frequency(&self, index: usize) -> f64 {
        *self.counts.get(&index).unwrap_or(&0) as f64 / self.shots as f64
    }

    /// Empirical probabilities as a dense vector of length `dim`.
    pub fn frequencies(&self, dim: usize) -> Vec<f64> {
        (0..dim).map(|i| self.frequency(i)).collect()
    }
}

/// Draw `shots` samples from the measurement distribution of `state` in the
/// computational basis (one [`sample_counts`] draw; basis states that
/// received no shot are absent from `counts`).
pub fn sample(state: &StateVector, shots: usize, rng: &mut impl Rng) -> SampleResult {
    let counts = sample_counts(&state.probabilities(), shots, rng)
        .into_iter()
        .enumerate()
        .filter(|&(_, c)| c > 0)
        .collect();
    SampleResult { shots, counts }
}

/// The outcome counts of `shots` independent draws from the distribution
/// proportional to `weights`: one exact multinomial sample drawn as
/// conditional binomials (see the module docs), in O(`weights.len()`)
/// expected RNG draws independent of `shots`.
///
/// The counts sum to `shots` exactly, and a zero weight never receives a
/// count.  If every weight is zero there is no mass to land on and every
/// count is zero.
///
/// # Panics
///
/// If a weight is negative or not finite.
pub fn sample_counts<R: Rng>(weights: &[f64], shots: usize, rng: &mut R) -> Vec<usize> {
    assert!(
        weights.iter().all(|w| w.is_finite() && *w >= 0.0),
        "sample_counts: weights must be finite and non-negative"
    );
    // suffix[i] = Σ_{j≥i} w_j.  For the last coordinate with mass the sum
    // is exactly its own weight, so its ratio is exactly 1.
    let mut suffix = weights.to_vec();
    for i in (1..suffix.len()).rev() {
        suffix[i - 1] += suffix[i];
    }
    let mut counts = vec![0; weights.len()];
    let mut left = shots;
    for (i, &w) in weights.iter().enumerate() {
        if left == 0 {
            break;
        }
        if w > 0.0 {
            counts[i] = sample_binomial(left, w / suffix[i], rng);
            left -= counts[i];
        }
    }
    counts
}

/// One `Binomial(n, p)` variate, exactly, in O(1) expected uniforms:
/// inversion when `n·p < 10`, Hörmann's BTRS otherwise, and
/// `n − Binomial(n, 1 − p)` when `p > 0.5`.
///
/// # Panics
///
/// If `p` is not in `[0, 1]`.
pub fn sample_binomial<R: Rng>(n: usize, p: f64, rng: &mut R) -> usize {
    assert!(
        (0.0..=1.0).contains(&p),
        "sample_binomial: p = {p} is not a probability"
    );
    if p > 0.5 {
        n - sample_binomial(n, 1.0 - p, rng)
    } else if n == 0 || p == 0.0 {
        0
    } else if n as f64 * p < 10.0 {
        binomial_inversion(n, p, rng)
    } else {
        binomial_btrs(n, p, rng)
    }
}

/// Sequential inversion of the CDF from `k = 0` (`0 < p ≤ 0.5`,
/// `n·p < 10`, so `P(0) = qⁿ ≥ e⁻²⁰` never underflows).  A uniform that
/// round-off carries past ten standard deviations above the mean is
/// redrawn.
fn binomial_inversion<R: Rng>(n: usize, p: f64, rng: &mut R) -> usize {
    let (nf, q) = (n as f64, 1.0 - p);
    let p_zero = (nf * (-p).ln_1p()).exp();
    let ratio = p / q;
    let bound = n.min((nf * p + 10.0 * (nf * p * q + 1.0).sqrt()) as usize);
    loop {
        let mut u: f64 = rng.gen_range(0.0..1.0);
        let mut pk = p_zero;
        for k in 0..=bound {
            if u <= pk {
                return k;
            }
            u -= pk;
            // P(k+1) = P(k) · (n−k)/(k+1) · p/q.
            pk *= (nf - k as f64) * ratio / (k + 1) as f64;
        }
    }
}

/// Hörmann's BTRS (transformed rejection with squeeze) for `p ≤ 0.5`,
/// `n·p ≥ 10`: 1.1–1.4 expected iterations of two uniforms each, fewer as
/// `n·p` grows.
fn binomial_btrs<R: Rng>(n: usize, p: f64, rng: &mut R) -> usize {
    let (nf, q) = (n as f64, 1.0 - p);
    let spq = (nf * p * q).sqrt();
    let b = 1.15 + 2.53 * spq;
    let a = -0.0873 + 0.0248 * b + 0.01 * p;
    let c = nf * p + 0.5;
    let v_r = 0.92 - 4.2 / b;
    let alpha = (2.83 + 5.1 / b) * spq;
    let log_odds = (p / q).ln();
    let mode = ((nf + 1.0) * p).floor();
    let log_f_mode = ln_factorial(mode) + ln_factorial(nf - mode);
    loop {
        let u = rng.gen_range(0.0..1.0) - 0.5;
        let v: f64 = rng.gen_range(0.0..1.0);
        let us = 0.5 - f64::abs(u);
        let k = ((2.0 * a / us + b) * u + c).floor();
        // The squeeze: inside this box the hat is below the pmf.
        if us >= 0.07 && v <= v_r {
            return k as usize;
        }
        if k < 0.0 || k > nf {
            continue;
        }
        // Accept iff v · hat(u) ≤ P(k)/P(mode), compared in logs.
        let log_v = (v * alpha / (a / (us * us) + b)).ln();
        let log_ratio = log_f_mode - ln_factorial(k) - ln_factorial(nf - k) + (k - mode) * log_odds;
        if log_v <= log_ratio {
            return k as usize;
        }
    }
}

/// `ln k!` for an integral `k ≥ 0`: an exact sum below 10, the Stirling
/// series of `ln Γ(k + 1)` (truncation error < 10⁻¹⁰) from there.
fn ln_factorial(k: f64) -> f64 {
    if k < 10.0 {
        return (2..=k as usize).map(|i| (i as f64).ln()).sum();
    }
    let x = k + 1.0;
    let x2 = x * x;
    (x - 0.5) * x.ln() - x
        + 0.5 * (2.0 * std::f64::consts::PI).ln()
        + (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * x2)) / x2) / x
}

/// Estimate the *magnitudes* of the state amplitudes from sampled counts
/// (`|a_i| ≈ √(counts_i / shots)`).
pub fn estimate_magnitudes(result: &SampleResult, dim: usize) -> Vec<f64> {
    result
        .frequencies(dim)
        .into_iter()
        .map(|f| f.sqrt())
        .collect()
}

/// Reconstruct a signed real vector from sampled magnitudes by borrowing the
/// signs of a reference vector (for real linear systems, one extra circuit with
/// a known phase reference — or, in simulation, the exact state — provides the
/// signs; the sampling noise only affects the magnitudes).
pub fn signed_from_magnitudes(magnitudes: &[f64], sign_reference: &[f64]) -> Vector<f64> {
    assert_eq!(magnitudes.len(), sign_reference.len(), "dimension mismatch");
    magnitudes
        .iter()
        .zip(sign_reference)
        .map(|(&m, &s)| if s < 0.0 { -m } else { m })
        .collect()
}

/// Number of shots the paper's model prescribes to reach accuracy ε: `⌈c/ε²⌉`.
pub fn shots_for_accuracy(epsilon: f64, constant: f64) -> usize {
    assert!(epsilon > 0.0, "epsilon must be positive");
    (constant / (epsilon * epsilon)).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn sampling_matches_distribution() {
        let mut circ = Circuit::new(2);
        circ.h(0); // p(00) = p(01) = 1/2
        let sv = StateVector::run(&circ);
        let mut rng = ChaCha8Rng::seed_from_u64(71);
        let result = sample(&sv, 20_000, &mut rng);
        assert_eq!(result.shots, 20_000);
        assert!((result.frequency(0) - 0.5).abs() < 0.02);
        assert!((result.frequency(1) - 0.5).abs() < 0.02);
        assert_eq!(result.frequency(2), 0.0);
        assert_eq!(result.frequency(3), 0.0);
    }

    #[test]
    fn deterministic_state_always_gives_same_outcome() {
        let sv = StateVector::basis_state(3, 6);
        let mut rng = ChaCha8Rng::seed_from_u64(72);
        let result = sample(&sv, 100, &mut rng);
        assert_eq!(result.frequency(6), 1.0);
        assert_eq!(result.counts.len(), 1);
    }

    #[test]
    fn magnitude_estimation_converges_with_shots() {
        let mut circ = Circuit::new(2);
        circ.ry(0, 1.23).cry(0, 1, 0.4);
        let sv = StateVector::run(&circ);
        let exact: Vec<f64> = sv.amplitudes().iter().map(|a| a.norm()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(73);
        let coarse = estimate_magnitudes(&sample(&sv, 100, &mut rng), 4);
        let fine = estimate_magnitudes(&sample(&sv, 100_000, &mut rng), 4);
        let err = |est: &[f64]| -> f64 {
            est.iter()
                .zip(&exact)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max)
        };
        assert!(err(&fine) < 0.01);
        assert!(err(&fine) <= err(&coarse) + 1e-9);
    }

    #[test]
    fn sign_recovery() {
        let mags = vec![0.5, 0.5, 0.7, 0.1];
        let reference = vec![1.0, -2.0, 3.0, -0.0];
        let signed = signed_from_magnitudes(&mags, &reference);
        assert_eq!(signed.as_slice(), &[0.5, -0.5, 0.7, 0.1]);
    }

    #[test]
    fn shot_count_formula() {
        assert_eq!(shots_for_accuracy(1e-2, 1.0), 10_000);
        assert_eq!(shots_for_accuracy(0.5, 2.0), 8);
        assert!(shots_for_accuracy(1e-4, 1.0) > shots_for_accuracy(1e-3, 1.0));
    }

    #[test]
    fn seeded_sampling_is_reproducible() {
        let mut circ = Circuit::new(3);
        circ.h(0).h(1).h(2);
        let sv = StateVector::run(&circ);
        let r1 = sample(&sv, 500, &mut ChaCha8Rng::seed_from_u64(99));
        let r2 = sample(&sv, 500, &mut ChaCha8Rng::seed_from_u64(99));
        assert_eq!(r1.counts, r2.counts);
    }
}
