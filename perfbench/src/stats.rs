//! Order statistics and metric-name rules shared by every workload.

/// Percentiles the tail helper may pick, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples, computed in
/// whole per-mille so that 99.9 % of 10 000 is exactly rank 9990.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples above its rank, with its value; `None` when
/// even the median has fewer than that beyond it.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_LADDER
        .iter()
        .find(|&&p| n > 0 && n - rank(n, p) >= MIN_BEYOND)
        .map(|&p| (p, percentile(sorted, p)))
}

/// Median of unsorted samples (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Ascending copy.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Metric names: one or more of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 sits at rank 990 with exactly 10 beyond,
        // p99.9 would leave only one.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // 999 samples: p99 is rank 990 with 9 beyond, so p95 wins.
        assert_eq!(tail(&ramp(999)), Some((95.0, 950.0)));
        // 10 000 samples reach p99.9 (rank 9990, 10 beyond).
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9990.0)));
        // 48 samples (three engine passes of 16 points): p75.
        assert_eq!(tail(&ramp(48)), Some((75.0, 36.0)));
        // Too few for even the median.
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn percentile_and_median_edges() {
        let s = ramp(4);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 50.0), 2.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn metric_name_rule() {
        assert!(valid_metric_name("core.stage.commit_ns_pki"));
        assert!(valid_metric_name("hit_ms_p99"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name("hit ms"));
        assert!(!valid_metric_name("core/stage"));
    }
}
