//! Nearest-rank percentiles: every reported percentile is a value that was
//! actually measured, never an interpolation between two.

/// The `p`-th percentile (0 < p <= 100) of `sorted`, nearest rank: the
/// smallest value with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty() && (1..=100).contains(&p));
    let rank = (sorted.len() * p as usize).div_ceil(100);
    sorted[rank - 1]
}

/// The nearest-rank median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_values() {
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 50), 10.0);
        assert_eq!(percentile(&twenty, 100), 20.0);
        let many: Vec<f64> = (1..=3600).map(f64::from).collect();
        // 36 samples lie beyond the 99th percentile of 3600.
        assert_eq!(percentile(&many, 99), 3564.0);
        assert_eq!(percentile(&[7.5], 50), 7.5);
        assert_eq!(percentile(&[7.5], 99), 7.5);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
