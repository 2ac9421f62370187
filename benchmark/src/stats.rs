//! Order statistics over small sample sets.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the default *exclusive* method), because that is what the driver
//! uses to judge run-to-run spread: position `i·(n+1)/4` in the sorted
//! samples, linearly interpolated.

/// Min, quartiles, median, max and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Interquartile range as a share of the median — the spread the
    /// driver holds against a metric's bound. 0 for a zero median.
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Exclusive-method quantile `i/4` of already sorted samples, in the
/// integer arithmetic of Python's implementation (which extrapolates
/// past the ends for very small sets rather than clamping).
fn quartile_sorted(sorted: &[f64], i: usize) -> f64 {
    let ld = sorted.len();
    if ld == 1 {
        return sorted[0];
    }
    let m = ld + 1;
    let j = (i * m / 4).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// Summarises `samples`; `None` when empty or any sample is not finite
/// (a NaN timing is a measurement bug, never a value to sort around).
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() || samples.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples compare"));
    Some(Summary {
        n: sorted.len(),
        min: sorted[0],
        q1: quartile_sorted(&sorted, 1),
        median: quartile_sorted(&sorted, 2),
        q3: quartile_sorted(&sorted, 3),
        max: sorted[sorted.len() - 1],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        let median = |v: &[f64]| summarize(v).map(|s| s.median);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[2.0, 3.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]:
        // the exclusive method extrapolates on two points.
        let s = summarize(&[10.0, 20.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert!((s.iqr_share() - 1.0).abs() < 1e-12);
        assert_eq!(summarize(&[0.0, 0.0]).unwrap().iqr_share(), 0.0);
    }

    #[test]
    fn empty_and_non_finite_samples_are_refused() {
        assert_eq!(summarize(&[]), None);
        assert_eq!(summarize(&[1.0, f64::NAN]), None);
        assert_eq!(summarize(&[f64::INFINITY]), None);
    }
}
