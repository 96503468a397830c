//! Order statistics for the reported metrics.

/// The median of `v` (mean of the two middle values for even lengths);
/// `None` when empty.
pub fn median(v: &[f64]) -> Option<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The `p`-th percentile (nearest rank), reported only when at least ten
/// samples lie beyond it: a tail percentile read off fewer samples is one
/// or two outliers, not a distribution. `None` otherwise.
pub fn percentile(v: &[f64], p: f64) -> Option<f64> {
    let n = v.len();
    if n == 0 || !(0.0..100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let idx = rank.max(1) - 1;
    if n - 1 - idx < 10 && p > 50.0 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_is_refused_below_100_samples() {
        let v: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), None);
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(89.0));
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(899.0));
    }

    #[test]
    fn p50_needs_no_tail() {
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 50.0), Some(3.0));
    }
}
