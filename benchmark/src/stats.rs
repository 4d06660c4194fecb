//! Order statistics for the ledger: percentiles under the ten-samples-beyond
//! rule, medians, and the run-to-run spread used by `ledger diff`.

/// A percentile is only *supported* when at least this many samples lie
/// beyond it (choosing-metrics §1): p95 needs 200 samples, p90 needs 100.
pub const SAMPLES_BEYOND: usize = 10;

/// A percentile value plus whether the sample supports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Sample count the value was taken from.
    pub n: usize,
    /// True when at least [`SAMPLES_BEYOND`] samples lie beyond the value.
    pub supported: bool,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Nearest-rank percentile `q` in (0, 1] of a non-empty sample. The value is
/// always returned — a metric must not disappear because a run was short —
/// but `supported` tells the reader whether the tail is resolved.
pub fn percentile(samples: &[f64], q: f64) -> Percentile {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    assert!(q > 0.0 && q <= 1.0, "percentile rank out of range: {q}");
    let v = sorted(samples);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Percentile {
        value: v[rank - 1],
        n: v.len(),
        supported: v.len() - rank >= SAMPLES_BEYOND,
    }
}

/// Median (mean of the two middle values for an even count); 0 when empty so
/// a layer that did no work reports 0 rather than aborting the run.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Run-to-run spread of repeated measurements of one metric, as a share of
/// their median: interquartile distance (exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses) for four or more runs, the full
/// range for two or three, 0 for a single run.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let v = sorted(values);
    if v.len() < 4 {
        return (v[v.len() - 1] - v[0]) / m.abs();
    }
    let quartile = |k: usize| {
        let pos = k as f64 * (v.len() + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, v.len());
        let hi = (lo + 1).min(v.len());
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * (pos - pos.floor())
    };
    (quartile(3) - quartile(1)) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        let p = percentile(&ramp(200), 0.95);
        assert_eq!(p.value, 190.0);
        assert!(p.supported, "200 samples leave exactly ten beyond p95");
        let p = percentile(&ramp(199), 0.95);
        assert_eq!(p.value, 190.0);
        assert!(!p.supported, "199 samples leave only nine beyond p95");
        assert!(percentile(&ramp(100), 0.90).supported);
        assert!(!percentile(&ramp(99), 0.90).supported);
    }

    #[test]
    fn percentile_is_order_independent_and_total() {
        let p = percentile(&[5.0, 1.0, 3.0], 0.5);
        assert_eq!((p.value, p.n, p.supported), (3.0, 3, false));
        assert_eq!(percentile(&[7.0], 1.0).value, 7.0);
    }

    #[test]
    fn median_handles_even_odd_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = spread(&ramp(10));
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{s}");
        assert_eq!(spread(&[4.0]), 0.0);
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }
}
