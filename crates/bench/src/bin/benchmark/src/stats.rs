//! Exact sample statistics: nearest-rank percentiles over the full sample
//! vector (never a histogram), medians, and the spread measure the
//! acceptance rule uses.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample or `p` outside `(0, 1]`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 1.0, "percentile rank {p} outside (0, 1]");
    sorted[rank(sorted.len(), p) - 1]
}

/// One-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// [`percentile`], refused unless at least [`MIN_BEYOND`] samples lie
/// strictly beyond the reported rank — a tail percentile read off fewer
/// is one outlier, not a distribution.
pub fn guarded_percentile(sorted: &[u64], p: f64) -> Result<u64, String> {
    if sorted.is_empty() {
        return Err("no samples".into());
    }
    let beyond = sorted.len() - rank(sorted.len(), p);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {} samples has only {beyond} beyond it (need {MIN_BEYOND})",
            p * 100.0,
            sorted.len()
        ));
    }
    Ok(percentile(sorted, p))
}

/// Median of an unsorted sample (mean of the two middle values when the
/// count is even). Sorts `values` in place.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_unstable_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median of a nanosecond sample, in nanoseconds. Sorts in place.
pub fn median_ns(values: &mut [u64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_unstable();
    percentile(values, 0.5) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.001), 1);
        // Nearest rank never interpolates: the answer is always a sample.
        let w = [10, 20, 30, 40];
        assert_eq!(percentile(&w, 0.5), 20);
        assert_eq!(percentile(&w, 0.51), 30);
        assert_eq!(percentile(&w, 0.75), 30);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn guard_needs_ten_samples_beyond_the_rank() {
        // p99 of 1000 samples: rank 990, exactly 10 beyond.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(guarded_percentile(&v, 0.99), Ok(990));
        // One sample fewer leaves 9 beyond rank 990.
        assert!(guarded_percentile(&v[..999], 0.99).is_err());
        // The median of 21 samples has exactly 10 beyond it; of 20, 10; of 19, 9.
        assert!(guarded_percentile(&v[..21], 0.5).is_ok());
        assert!(guarded_percentile(&v[..20], 0.5).is_ok());
        assert!(guarded_percentile(&v[..19], 0.5).is_err());
        assert!(guarded_percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
