//! Quantiles from raw per-operation samples.
//!
//! Every latency the benchmark reports is a nearest-rank quantile of the
//! raw samples it recorded — never a histogram bucket bound. Each one is
//! printed with the sample count and the number of samples beyond it, so
//! a reader can tell a tail backed by ten samples from one backed by two.

/// A nearest-rank quantile with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The quantile asked for, in (0, 1].
    pub q: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Samples the quantile was taken over.
    pub count: usize,
    /// Samples strictly after the quantile's rank.
    pub beyond: usize,
}

/// The 1-based nearest rank of quantile `q` among `n` samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The nearest-rank `q` quantile of `samples`, or `None` without samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<Quantile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let r = rank(q, sorted.len());
    Some(Quantile {
        q,
        value: sorted[r - 1],
        count: sorted.len(),
        beyond: sorted.len() - r,
    })
}

/// The highest whole percentile of `n` samples that keeps at least
/// `min_beyond` samples beyond it, or `None` when even the median does
/// not.
pub fn highest_supported_percentile(n: usize, min_beyond: usize) -> Option<u32> {
    (50..=99u32)
        .rev()
        .find(|&p| n >= rank(f64::from(p) / 100.0, n.max(1)) + min_beyond)
}

/// The median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// One line describing a quantile and how well the samples support it.
pub fn describe(name: &str, quantile: &Quantile) -> String {
    let supported = highest_supported_percentile(quantile.count, 10)
        .map_or_else(|| "none".to_string(), |p| format!("p{p}"));
    format!(
        "{name} = {:.4} (p{}, n={}, beyond={}, highest percentile with >=10 beyond: {supported})",
        quantile.value,
        quantile.q * 100.0,
        quantile.count,
        quantile.beyond,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let samples = ramp(100);
        let p50 = quantile(&samples, 0.50).unwrap();
        assert_eq!((p50.value, p50.count, p50.beyond), (50.0, 100, 50));
        let p99 = quantile(&samples, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        let p90 = quantile(&ramp(11), 0.90).unwrap();
        assert_eq!((p90.value, p90.beyond), (10.0, 1));
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let shuffled = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&shuffled, 0.5).unwrap().value, 3.0);
        assert_eq!(quantile(&shuffled, 1.0).unwrap().value, 5.0);
        assert_eq!(quantile(&shuffled, 1.0).unwrap().beyond, 0);
        assert!(quantile(&[], 0.5).is_none());
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond.
        assert_eq!(highest_supported_percentile(1000, 10), Some(99));
        // 100 samples: p90 has 10 beyond, p91 only 9.
        assert_eq!(highest_supported_percentile(100, 10), Some(90));
        let p90 = quantile(&ramp(100), 0.90).unwrap();
        assert_eq!(p90.beyond, 10);
        // 40 samples: p75 keeps 10 beyond.
        assert_eq!(highest_supported_percentile(40, 10), Some(75));
        // Too few samples for even the median.
        assert_eq!(highest_supported_percentile(19, 10), None);
        assert_eq!(highest_supported_percentile(0, 10), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
