//! Order statistics over timing samples.

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile `p` (in `(0, 1)`) of `xs`, together with the
/// number of samples strictly beyond the returned rank.
pub fn percentile(xs: &[f64], p: f64) -> (f64, usize) {
    if xs.is_empty() {
        return (f64::NAN, 0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

/// `p50 …  p99.9` of `xs` with the samples beyond each, for the readable
/// output.
pub fn percentile_summary(xs: &[f64]) -> String {
    [0.5, 0.8, 0.9, 0.95, 0.99, 0.999]
        .iter()
        .map(|&p| {
            let (v, beyond) = percentile(xs, p);
            format!("p{}={v:.6e} ({beyond} beyond)", p * 100.0)
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), (90.0, 10));
        assert_eq!(percentile(&xs, 0.99), (99.0, 1));
    }
}
