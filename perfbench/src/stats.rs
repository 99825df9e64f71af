//! Exact statistics over raw samples.
//!
//! Percentiles are order statistics of the recorded values, never bucket
//! bounds, so a reported percentile is always one of the observations and
//! can never exceed the largest of them.

/// Fewest samples that must rank above a percentile before it is reported.
pub const MIN_TAIL: usize = 10;

/// One reported percentile, with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The observation at the percentile's rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples ranked above it.
    pub above: usize,
}

/// Nearest-rank `pct`-th percentile (`1..=100`) of `samples`, or `None`
/// when fewer than [`MIN_TAIL`] samples rank above it (the estimate would
/// rest on too thin a tail to be repeatable).
pub fn percentile(samples: &[f64], pct: usize) -> Option<Percentile> {
    assert!((1..=100).contains(&pct), "percentile {pct} is outside 1..=100");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Integer ceil(pct * n / 100): float products such as 0.99 * 1000
    // round the wrong way.
    let rank = (pct * n).div_ceil(100).max(1);
    let above = n - rank;
    if above < MIN_TAIL {
        return None;
    }
    Some(Percentile { value: sorted[rank - 1], samples: n, above })
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Geometric mean of positive `values`; the empty product's mean is 1.
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    assert!(values.iter().all(|&v| v > 0.0), "geometric mean of a non-positive value");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `part / whole`, or `empty` when nothing was counted.
pub fn ratio(part: f64, whole: f64, empty: f64) -> f64 {
    if whole == 0.0 {
        empty
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn no_percentile_exceeds_the_largest_sample() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [10, 11, 200, 999, 1000, 1001, 4321] {
            // Heavy-tailed samples: the case where bucketed percentiles
            // overshoot the observations.
            let samples: Vec<f64> =
                (0..n).map(|_| (rng.random_range(0.0..12.0f64)).exp()).collect();
            let max = samples.iter().copied().fold(f64::MIN, f64::max);
            let min = samples.iter().copied().fold(f64::MAX, f64::min);
            for pct in [1, 50, 90, 99, 100] {
                if let Some(p) = percentile(&samples, pct) {
                    assert!(p.value <= max && p.value >= min, "n={n} p{pct}");
                    assert!(samples.contains(&p.value), "n={n} p{pct} is not an observation");
                    assert_eq!(p.samples, n);
                }
            }
        }
    }

    #[test]
    fn a_single_observation_is_never_reported_as_a_percentile() {
        // One sample has nothing above it at any rank.
        assert_eq!(percentile(&[467_559.0], 50), None);
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn percentiles_with_a_thin_tail_are_withheld() {
        let samples = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
        // p99 needs 1000 samples: then exactly ten rank above it.
        assert_eq!(percentile(&samples(999), 99), None);
        let p99 = percentile(&samples(1000), 99).expect("ten samples above");
        assert_eq!((p99.value, p99.samples, p99.above), (990.0, 1000, 10));
        // p50 needs 20.
        assert_eq!(percentile(&samples(19), 50), None);
        let p50 = percentile(&samples(20), 50).expect("ten samples above");
        assert_eq!((p50.value, p50.above), (10.0, 10));
        // p100 is never reported: nothing ranks above the maximum.
        assert_eq!(percentile(&samples(5000), 100), None);
    }

    #[test]
    fn percentiles_are_exact_order_statistics() {
        let mut samples: Vec<f64> = (0..2000).map(|v| ((v * 7919) % 2000) as f64).collect();
        let p50 = percentile(&samples, 50).expect("enough samples");
        assert_eq!(p50.value, 999.0);
        samples.reverse();
        assert_eq!(percentile(&samples, 50), Some(p50));
    }

    #[test]
    fn summaries_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((gmean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert_eq!(gmean(&[]), 1.0);
        assert_eq!(ratio(1.0, 0.0, 0.5), 0.5);
        assert_eq!(ratio(1.0, 4.0, 0.5), 0.25);
    }
}
