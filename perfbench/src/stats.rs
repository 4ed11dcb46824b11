//! Order statistics. The host, not the program, is the main noise
//! source here, and its noise is one-sided (a steal burst only ever
//! slows a measurement), so every estimator in the benchmark is an
//! order statistic of repeated measurements, never a mean.

/// Quantile `q` (0..=1) of `values`, by the same rule as Python's
/// `statistics.quantiles(..., method="exclusive")` — the rule the
/// driver applies across runs — so a number printed here can be
/// compared with one the driver computes.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // Position on the 1-based exclusive scale, clamped to the data.
    let pos = (q * (n as f64 + 1.0)).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    if lo >= n {
        v[n - 1]
    } else {
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::MIN, f64::max)
}

/// The estimator of every repeated timing inside a run: what this
/// host adds to a measurement it only ever adds, so the lower half of
/// the repetitions is the steadier one.
pub fn lower_quartile(values: &[f64]) -> f64 {
    quantile(values, 0.25)
}

/// Distance between the quartiles as a share of the median: the
/// run-to-run spread the driver holds each end-to-end metric to.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    (quantile(values, 0.75) - quantile(values, 0.25)) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantile(&v, 0.25) - 2.75).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        assert!((quantile(&v, 0.75) - 8.25).abs() < 1e-12);
        assert!((iqr_over_median(&v) - 1.0).abs() < 1e-12);
        assert_eq!(quantile(&[3.0], 0.25), 3.0);
        assert_eq!(quantile(&[1.0, 2.0, 4.0], 0.25), 1.0);
    }
}
