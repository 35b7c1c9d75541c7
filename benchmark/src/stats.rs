//! Order statistics over a handful of timed repetitions.

/// Median, extremes and inter-quartile range of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub iqr: f64,
}

/// The `p`-quantile (0 < p < 1) of ascending `sorted`, by the method of
/// Python's `statistics.quantiles(..., method="exclusive")` — the one the
/// benchmark driver uses — so a spread computed here reads the same there.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "quantile of no samples");
    let pos = (p * (n + 1) as f64).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    let hi = (lo + 1).min(n);
    sorted[lo - 1] + frac * (sorted[hi - 1] - sorted[lo - 1])
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Summary {
        n: s.len(),
        median: quantile(&s, 0.5),
        min: s[0],
        max: s[s.len() - 1],
        iqr: quantile(&s, 0.75) - quantile(&s, 0.25),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// `a / b`, or 0 when `b` is 0: a ratio over work that did not happen on
/// this workload reads as "not measured here", never as NaN.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        assert!((s.median - 5.5).abs() < 1e-12);
        assert!((s.iqr - 5.5).abs() < 1e-12);
        // statistics.quantiles([3,1,2], n=4) == [1.0, 2.0, 3.0]; order is irrelevant.
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.iqr), (2.0, 2.0));
        // One sample has no spread.
        assert_eq!(summarize(&[7.0]).iqr, 0.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
