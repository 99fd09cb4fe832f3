//! Sample summaries: the median plus the highest percentile that still
//! has at least ten samples beyond it.

/// Samples needed beyond a reported tail percentile.
const TAIL_SAMPLES: f64 = 10.0;

/// A summarised sample set.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// The reported tail percentile (e.g. 99.0), or 100 for the maximum
    /// when too few samples support any tail percentile.
    pub tail_pct: f64,
    pub tail: f64,
}

/// Nearest-rank percentile of sorted, non-empty `xs`.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `xs` (mean of the middle two for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Whether all values are equal up to floating-point rounding (modeled
/// times are sums of many terms).
pub fn identical(xs: &[f64]) -> bool {
    xs.windows(2)
        .all(|w| (w[0] - w[1]).abs() <= 1e-9 * w[0].abs().max(1.0))
}

/// Summarises `xs`; `None` when empty.
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    if xs.is_empty() {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len() as f64;
    let (tail_pct, tail) = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| (n * (1.0 - p / 100.0)).floor() >= TAIL_SAMPLES)
        .map_or((100.0, s[s.len() - 1]), |p| (p, percentile(&s, p)));
    Some(Summary {
        n: s.len(),
        median: median(&s),
        tail_pct,
        tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&xs).unwrap();
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.median, 500.5);
        let few: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(summarize(&few).unwrap().tail_pct, 100.0);
    }
}
