//! Order statistics for the benchmark's samples.

/// A sample of one metric within a run, summarised by its quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// Quartiles by the exclusive method (what Python's
/// `statistics.quantiles(values, n=4)` returns), with the median exact.
/// `None` for an empty sample.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    let quantile = |p: f64| -> f64 {
        if n == 1 {
            return v[0];
        }
        // Exclusive method: position p·(n+1), 1-based, clamped to the data.
        let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let a = v[lo - 1];
        let b = v[lo.min(n - 1)];
        a + (b - a) * frac
    };
    Some(Summary {
        n,
        q1: quantile(0.25),
        median,
        q3: quantile(0.75),
    })
}

/// The median, or `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    summarize(values).map(|s| s.median)
}

/// The `p`-quantile (`0 < p < 1`) by nearest rank, reported only when at
/// least ten samples lie beyond it: a tail percentile resting on fewer
/// is one or two outliers, not a distribution.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < 10 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        let one = summarize(&[4.0]).unwrap();
        assert_eq!((one.q1, one.median, one.q3), (4.0, 4.0, 4.0));
        assert_eq!(summarize(&[]), None);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has exactly 10 beyond rank 990.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v[..999], 0.99), None);
        // p50 of 21 samples: 10 beyond rank 11.
        let w: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.5), Some(11.0));
        assert_eq!(percentile(&w[..19], 0.5), None);
    }
}
