//! Metric accumulators: streaming statistics, histograms, CDFs and time
//! series.
//!
//! Every experiment in the paper reports either a distribution (CDF
//! figures), a percentile table, or a time series; this module provides
//! the accumulators the harness uses to produce those outputs.
//!
//! # Deterministic merging
//!
//! The parallel experiment runner (`crates/bench`) splits a sweep into
//! independent cells, runs them on a worker pool, and combines per-cell
//! accumulators afterwards. For results to be bit-for-bit identical
//! regardless of worker count, the combine step must not depend on
//! completion order, so every accumulator here follows one contract:
//!
//! * merging is performed in **cell-index order** (the runner guarantees
//!   this; [`Summary::merge_ordered`] / [`Percentiles::merge_ordered`]
//!   encode the left-to-right fold), and
//! * the merge operation itself is plain component-wise arithmetic
//!   ([`Summary`] keeps raw moments rather than Welford's running mean,
//!   [`Percentiles`] concatenates samples), so a fixed merge order gives
//!   a fixed result, and whenever the sums are exactly representable
//!   (integer-valued samples within 2^53) the merge is *exactly*
//!   associative — any partition of the same sample stream produces
//!   identical bits.
//!
//! # Non-finite samples
//!
//! A single NaN pushed into an accumulator used to poison every
//! downstream query (`NaN` sums, and `total_cmp` sorts NaN *last*, so
//! `quantile(1.0)`/`max` returned NaN and propagated into report
//! tables). Both [`Summary`] and [`Percentiles`] therefore **skip**
//! non-finite pushes (NaN, ±∞) and count them instead; the count is
//! observable via `skipped()` and survives merging, so a fleet-level
//! report can surface how many samples were dropped without a single
//! rogue world corrupting the aggregate.

use serde::{Deserialize, Serialize};

/// Streaming mean / variance / min / max over f64 samples.
///
/// Internally stores raw moments (count, sum, sum of squares) rather
/// than Welford's running mean: component-wise addition makes
/// [`Summary::merge`] independent of the *nesting* of merges, which the
/// deterministic parallel runner relies on (see the module docs). The
/// simulator's metrics are well-scaled (milliseconds, Mbps, percentages),
/// so the classical cancellation caveat of the raw-moment form does not
/// bite at these magnitudes.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Summary {
    n: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
    skipped: u64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            skipped: 0,
        }
    }

    /// Adds one sample. Non-finite samples (NaN, ±∞) are skipped and
    /// counted in [`Summary::skipped`] — one rogue sample must not
    /// poison every downstream mean/min/max (see the module docs).
    pub fn add(&mut self, x: f64) {
        if !x.is_finite() {
            self.skipped += 1;
            return;
        }
        self.n += 1;
        self.sum += x;
        self.sum_sq += x * x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of (finite) samples accumulated.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Number of non-finite samples that were pushed and skipped.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Population variance (0 if fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let mean = self.sum / self.n as f64;
        // Clamp: the raw-moment form can go infinitesimally negative.
        (self.sum_sq / self.n as f64 - mean * mean).max(0.0)
    }

    /// Smallest sample (0 if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum
        }
    }

    /// Merges another summary into this one (component-wise). Skipped
    /// non-finite counts accumulate across the merge as well.
    pub fn merge(&mut self, other: &Summary) {
        self.skipped += other.skipped;
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            let skipped = self.skipped;
            *self = other.clone();
            self.skipped = skipped;
            return;
        }
        self.n += other.n;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Folds `parts` left-to-right into one summary.
    ///
    /// This is the canonical deterministic reduction for per-cell
    /// results: callers pass parts in **cell-index order** and obtain a
    /// result independent of which worker finished first.
    pub fn merge_ordered<'a>(parts: impl IntoIterator<Item = &'a Summary>) -> Summary {
        let mut acc = Summary::new();
        for p in parts {
            acc.merge(p);
        }
        acc
    }
}

/// Exact-percentile accumulator that stores all samples.
///
/// Experiments produce at most a few million samples, so exact storage is
/// affordable and avoids quantile-sketch approximation arguments.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
    skipped: u64,
}

impl Percentiles {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Percentiles {
            samples: Vec::new(),
            sorted: true,
            skipped: 0,
        }
    }

    /// Adds a sample. Non-finite samples (NaN, ±∞) are skipped and
    /// counted in [`Percentiles::skipped`]: `total_cmp` sorts NaN
    /// *last*, so a single stored NaN would make `quantile(1.0)` (and
    /// every interpolation touching the top rank) return NaN and poison
    /// downstream tables.
    pub fn add(&mut self, x: f64) {
        if !x.is_finite() {
            self.skipped += 1;
            return;
        }
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of (finite) samples accumulated.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Number of non-finite samples that were pushed and skipped.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Returns `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            // total_cmp gives a total order (distinguishing -0.0/0.0)
            // so the sorted vector is identical for any insertion order
            // of the same multiset — the property deterministic merging
            // needs. Non-finite samples never reach the vector (`add`
            // skips them), so every quantile is finite.
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The `q`-quantile by linear interpolation (`q` clamped to `[0,1]`).
    /// Returns 0 if empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let pos = q * (self.samples.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let w = pos - lo as f64;
        self.samples[lo] * (1.0 - w) + self.samples[hi] * w
    }

    /// Median shorthand.
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Fraction of samples at or below `x`. Returns 0 if empty.
    pub fn cdf_at(&mut self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let idx = self.samples.partition_point(|&v| v <= x);
        idx as f64 / self.samples.len() as f64
    }

    /// Merges another accumulator into this one (sample concatenation).
    /// Skipped non-finite counts accumulate across the merge as well.
    pub fn merge(&mut self, other: &Percentiles) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
        self.skipped += other.skipped;
    }

    /// Folds `parts` left-to-right into one accumulator.
    ///
    /// Because merging concatenates the underlying samples and every
    /// query sorts with a total order, the result of any partition of
    /// the same sample stream is bit-for-bit identical — the runner
    /// still passes parts in cell-index order for uniformity.
    pub fn merge_ordered<'a>(parts: impl IntoIterator<Item = &'a Percentiles>) -> Percentiles {
        let mut acc = Percentiles::new();
        for p in parts {
            acc.merge(p);
        }
        acc
    }
}

/// A fixed-bucket time series: samples are averaged per bucket.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeSeries {
    bucket_secs: f64,
    sums: Vec<f64>,
    counts: Vec<u64>,
}

impl TimeSeries {
    /// Creates a series with the given bucket width in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_secs <= 0`.
    pub fn new(bucket_secs: f64) -> Self {
        assert!(bucket_secs > 0.0, "bucket width must be positive");
        TimeSeries {
            bucket_secs,
            sums: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Records `value` at time `t_secs`.
    pub fn record(&mut self, t_secs: f64, value: f64) {
        if t_secs < 0.0 {
            return;
        }
        let idx = (t_secs / self.bucket_secs) as usize;
        if idx >= self.sums.len() {
            self.sums.resize(idx + 1, 0.0);
            self.counts.resize(idx + 1, 0);
        }
        self.sums[idx] += value;
        self.counts[idx] += 1;
    }

    /// Returns `(bucket_midpoint_secs, mean)` for every non-empty bucket.
    pub fn means(&self) -> Vec<(f64, f64)> {
        self.sums
            .iter()
            .zip(&self.counts)
            .enumerate()
            .filter(|(_, (_, &c))| c > 0)
            .map(|(i, (&s, &c))| ((i as f64 + 0.5) * self.bucket_secs, s / c as f64))
            .collect()
    }

    /// Returns `(bucket_midpoint_secs, sum)` for every bucket, including
    /// empty ones (sum 0) — useful for rate series.
    pub fn sums(&self) -> Vec<(f64, f64)> {
        self.sums
            .iter()
            .enumerate()
            .map(|(i, &s)| ((i as f64 + 0.5) * self.bucket_secs, s))
            .collect()
    }

    /// Bucket width in seconds.
    pub fn bucket_secs(&self) -> f64 {
        self.bucket_secs
    }
}

/// A fixed-bound histogram with exactly-associative merging.
///
/// Unlike [`Percentiles`] (which stores every sample), this keeps only
/// one `u64` count per bucket plus a running sum, so it is cheap enough
/// to key by metric name × label set in the observability registry
/// (`rlive_sim::obs`). Bucket upper bounds are fixed at construction;
/// a sample lands in the first bucket whose bound is `>=` the value,
/// with an implicit final `+inf` bucket catching the rest. Because the
/// per-bucket counts are integers, merging two histograms with the same
/// bounds (element-wise addition) is *exactly* associative — any
/// partition of the same sample stream produces identical bits, which
/// the fleet-level obs roll-up relies on.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FixedHistogram {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` counts; the last is the `+inf` overflow bucket.
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    skipped: u64,
}

impl FixedHistogram {
    /// Creates a histogram with the given ascending upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty, non-finite, or not strictly
    /// ascending.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly ascending"
        );
        FixedHistogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0.0,
            skipped: 0,
        }
    }

    /// Records one sample. Non-finite samples are skipped and counted,
    /// matching the [`Summary`]/[`Percentiles`] contract.
    pub fn observe(&mut self, x: f64) {
        if !x.is_finite() {
            self.skipped += 1;
            return;
        }
        assert!(
            !self.counts.is_empty(),
            "histogram has no bounds configured"
        );
        let idx = self.bounds.partition_point(|&b| b < x);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += x;
    }

    /// Bucket upper bounds (excluding the implicit `+inf` bucket).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the final entry is the `+inf` overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of (finite) samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all (finite) samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Number of non-finite samples that were pushed and skipped.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Merges another histogram into this one (element-wise addition).
    ///
    /// An empty side adopts the other's bounds, so a default-constructed
    /// accumulator can fold a sequence of parts.
    ///
    /// # Panics
    ///
    /// Panics if both sides are non-empty with different bounds.
    pub fn merge(&mut self, other: &FixedHistogram) {
        self.skipped += other.skipped;
        if other.bounds.is_empty() {
            return;
        }
        if self.bounds.is_empty() {
            let skipped = self.skipped;
            *self = other.clone();
            self.skipped = skipped;
            return;
        }
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bounds"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
        self.sum += other.sum;
    }
}

// The parallel runner moves accumulators across worker threads; pin the
// auto-traits at compile time so a future field can't silently lose them.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Summary>();
    assert_send_sync::<Percentiles>();
    assert_send_sync::<TimeSeries>();
    assert_send_sync::<FixedHistogram>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn summary_merge_equals_combined() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Summary::new();
        for &x in &data {
            all.add(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for (i, &x) in data.iter().enumerate() {
            if i % 2 == 0 {
                a.add(x)
            } else {
                b.add(x)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn summary_merge_is_partition_exact_for_integer_samples() {
        // Integer-valued samples keep every sum exactly representable,
        // so any partition must reproduce the sequential result bit for
        // bit — the deterministic-runner invariant.
        let data: Vec<f64> = (0..1000).map(|i| ((i * 37) % 1024) as f64).collect();
        let mut all = Summary::new();
        for &x in &data {
            all.add(x);
        }
        for split in [1usize, 7, 250, 999] {
            let (lo, hi) = data.split_at(split);
            let mut a = Summary::new();
            let mut b = Summary::new();
            lo.iter().for_each(|&x| a.add(x));
            hi.iter().for_each(|&x| b.add(x));
            let merged = Summary::merge_ordered([&a, &b]);
            assert_eq!(merged.count(), all.count());
            assert_eq!(merged.mean().to_bits(), all.mean().to_bits());
            assert_eq!(merged.variance().to_bits(), all.variance().to_bits());
            assert_eq!(merged.min().to_bits(), all.min().to_bits());
            assert_eq!(merged.max().to_bits(), all.max().to_bits());
        }
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.sum(), 0.0);
    }

    #[test]
    fn merge_ordered_of_empties_is_empty() {
        let merged = Summary::merge_ordered(std::iter::empty());
        assert_eq!(merged.count(), 0);
        assert_eq!(merged.mean(), 0.0);
        let p = Percentiles::merge_ordered(std::iter::empty());
        assert!(p.is_empty());
    }

    #[test]
    fn percentile_quantiles() {
        let mut p = Percentiles::new();
        for i in 1..=100 {
            p.add(i as f64);
        }
        assert!((p.median() - 50.5).abs() < 1e-9);
        assert!((p.quantile(0.0) - 1.0).abs() < 1e-9);
        assert!((p.quantile(1.0) - 100.0).abs() < 1e-9);
        assert!((p.quantile(0.9) - 90.1).abs() < 1e-9);
    }

    #[test]
    fn percentile_empty_inputs_are_defined() {
        let mut p = Percentiles::new();
        assert_eq!(p.quantile(0.5), 0.0);
        assert_eq!(p.median(), 0.0);
        assert_eq!(p.cdf_at(42.0), 0.0);
        assert_eq!(p.mean(), 0.0);
        // A NaN quantile argument is clamped rather than propagated.
        p.add(7.0);
        assert_eq!(p.quantile(f64::NAN), 7.0);
    }

    #[test]
    fn percentile_skips_and_counts_non_finite_samples() {
        // A stored NaN used to make quantile(1.0)/max return NaN
        // (total_cmp sorts NaN last); non-finite pushes are now skipped
        // and counted instead, so every quantile stays finite.
        let mut p = Percentiles::new();
        p.add(3.0);
        p.add(f64::NAN);
        p.add(1.0);
        p.add(f64::INFINITY);
        p.add(f64::NEG_INFINITY);
        assert_eq!(p.count(), 2);
        assert_eq!(p.skipped(), 3);
        assert_eq!(p.quantile(0.0), 1.0);
        assert_eq!(p.quantile(1.0), 3.0);
        assert!(p.quantile(1.0).is_finite());
        assert_eq!(p.cdf_at(3.0), 1.0);
        assert!((p.cdf_at(1.0) - 0.5).abs() < 1e-9);
        assert!(p.mean().is_finite());
    }

    #[test]
    fn percentile_merge_carries_skipped_counts() {
        let mut a = Percentiles::new();
        a.add(f64::NAN);
        a.add(2.0);
        let mut b = Percentiles::new();
        b.add(f64::INFINITY);
        b.add(4.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.skipped(), 2);
        assert_eq!(a.quantile(1.0), 4.0);
    }

    #[test]
    fn summary_skips_and_counts_non_finite_samples() {
        let mut s = Summary::new();
        s.add(2.0);
        s.add(f64::NAN);
        s.add(4.0);
        s.add(f64::INFINITY);
        assert_eq!(s.count(), 2);
        assert_eq!(s.skipped(), 2);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 4.0);
        assert!(s.variance().is_finite());
    }

    #[test]
    fn summary_merge_carries_skipped_counts() {
        // Including into an empty summary: the skip count must survive
        // the clone-on-empty fast path in both directions.
        let mut empty = Summary::new();
        empty.add(f64::NAN);
        let mut full = Summary::new();
        full.add(1.0);
        full.add(f64::NEG_INFINITY);
        empty.merge(&full);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.skipped(), 2);
        assert_eq!(empty.mean(), 1.0);

        let mut other_way = Summary::new();
        other_way.add(5.0);
        let mut nan_only = Summary::new();
        nan_only.add(f64::NAN);
        other_way.merge(&nan_only);
        assert_eq!(other_way.count(), 1);
        assert_eq!(other_way.skipped(), 1);
    }

    #[test]
    fn percentile_cdf() {
        let mut p = Percentiles::new();
        for i in 1..=10 {
            p.add(i as f64);
        }
        assert!((p.cdf_at(5.0) - 0.5).abs() < 1e-9);
        assert_eq!(p.cdf_at(0.0), 0.0);
        assert_eq!(p.cdf_at(100.0), 1.0);
    }

    #[test]
    fn percentile_merge() {
        let mut a = Percentiles::new();
        let mut b = Percentiles::new();
        for i in 0..50 {
            a.add(i as f64);
        }
        for i in 50..100 {
            b.add(i as f64);
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert!((a.median() - 49.5).abs() < 1e-9);
    }

    #[test]
    fn percentile_merge_ordered_matches_sequential() {
        let data: Vec<f64> = (0..200).map(|i| ((i * 131) % 97) as f64).collect();
        let mut all = Percentiles::new();
        data.iter().for_each(|&x| all.add(x));
        let parts: Vec<Percentiles> = data
            .chunks(37)
            .map(|c| {
                let mut p = Percentiles::new();
                c.iter().for_each(|&x| p.add(x));
                p
            })
            .collect();
        let mut merged = Percentiles::merge_ordered(parts.iter());
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            assert_eq!(merged.quantile(q).to_bits(), all.quantile(q).to_bits());
        }
    }

    #[test]
    fn timeseries_buckets() {
        let mut ts = TimeSeries::new(10.0);
        ts.record(1.0, 2.0);
        ts.record(5.0, 4.0);
        ts.record(15.0, 10.0);
        let means = ts.means();
        assert_eq!(means.len(), 2);
        assert_eq!(means[0], (5.0, 3.0));
        assert_eq!(means[1], (15.0, 10.0));
        let sums = ts.sums();
        assert_eq!(sums[0].1, 6.0);
        assert_eq!(sums[1].1, 10.0);
    }

    #[test]
    fn timeseries_ignores_negative_time() {
        let mut ts = TimeSeries::new(1.0);
        ts.record(-5.0, 1.0);
        assert!(ts.means().is_empty());
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = FixedHistogram::new(&[1.0, 5.0, 10.0]);
        for x in [0.5, 1.0, 3.0, 10.0, 99.0] {
            h.observe(x);
        }
        // `<=` bucketing: 1.0 lands in the first bucket, 10.0 in the
        // third, 99.0 overflows.
        assert_eq!(h.counts(), &[2, 1, 1, 1]);
        assert_eq!(h.total(), 5);
        assert!((h.sum() - 113.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_skips_non_finite() {
        let mut h = FixedHistogram::new(&[1.0]);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(0.5);
        assert_eq!(h.total(), 1);
        assert_eq!(h.skipped(), 2);
        assert!(h.mean().is_finite());
    }

    #[test]
    fn histogram_merge_is_exactly_associative() {
        // Integer-valued samples: any merge nesting over any partition
        // must be bit-identical — the fleet obs roll-up invariant.
        let data: Vec<f64> = (0..300).map(|i| ((i * 53) % 40) as f64).collect();
        let bounds = [2.0, 8.0, 16.0, 32.0];
        let mut all = FixedHistogram::new(&bounds);
        data.iter().for_each(|&x| all.observe(x));

        let parts: Vec<FixedHistogram> = data
            .chunks(41)
            .map(|c| {
                let mut h = FixedHistogram::new(&bounds);
                c.iter().for_each(|&x| h.observe(x));
                h
            })
            .collect();
        // Left fold.
        let mut left = FixedHistogram::default();
        for p in &parts {
            left.merge(p);
        }
        // Right-nested fold: a+(b+(c+...)).
        let mut right = FixedHistogram::default();
        for p in parts.iter().rev() {
            let mut acc = p.clone();
            acc.merge(&right);
            right = acc;
        }
        assert_eq!(left, right);
        assert_eq!(left.counts(), all.counts());
        assert_eq!(left.sum().to_bits(), all.sum().to_bits());
    }

    #[test]
    fn histogram_merge_adopts_bounds_from_empty() {
        let mut acc = FixedHistogram::default();
        let mut h = FixedHistogram::new(&[1.0, 2.0]);
        h.observe(1.5);
        acc.merge(&h);
        assert_eq!(acc.bounds(), &[1.0, 2.0]);
        assert_eq!(acc.total(), 1);
        // Merging an empty default into a configured one is a no-op.
        acc.merge(&FixedHistogram::default());
        assert_eq!(acc.total(), 1);
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn histogram_merge_rejects_mismatched_bounds() {
        let mut a = FixedHistogram::new(&[1.0]);
        a.merge(&FixedHistogram::new(&[2.0]));
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn histogram_rejects_unsorted_bounds() {
        FixedHistogram::new(&[2.0, 1.0]);
    }
}
