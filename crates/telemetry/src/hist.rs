//! Log-linear latency histograms.
//!
//! [`Histogram`] is plain data: benchmark harnesses own theirs (it was
//! promoted here from `sim::stats`, which re-exports it), and the registry
//! keeps each behind a lock ([`crate::HistSet`]). Recording is O(1) and
//! percentile queries walk the bucket array. Relative error of
//! reported values is bounded by `1/SUBBUCKETS` (~3%), and reported
//! percentiles are always clamped into the exact `[min, max]` sample range so
//! single-sample and extreme-percentile queries return true values rather
//! than bucket midpoints.

use std::time::Duration;

/// Sub-buckets per power of two; 32 gives ~3% relative value error.
const SUBBUCKETS: usize = 32;
const SUBBUCKET_BITS: u32 = 5;
/// Values below this are counted exactly (one bucket per nanosecond value).
const LINEAR_LIMIT: u64 = 64;
const NUM_BUCKETS: usize = LINEAR_LIMIT as usize + SUBBUCKETS * 64;

/// Largest value the bucket ladder tracks with bounded relative error
/// (~73 minutes in nanoseconds). Samples above this are clipped into the
/// top tracked bucket and counted in [`Histogram::overflow`], so a clipped
/// tail is always visible instead of silently flattening p999.
pub const OVERFLOW_LIMIT: u64 = 1 << 42;

/// A log-linear histogram of `u64` samples (typically nanoseconds).
///
/// Recording is O(1); percentile queries walk the bucket array. Histograms
/// from different worker threads are combined with [`Histogram::merge`].
#[derive(Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    overflow: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            overflow: 0,
        }
    }

    fn bucket_index(value: u64) -> usize {
        if value < LINEAR_LIMIT {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros(); // >= 6 here
        let sub = ((value >> (msb - SUBBUCKET_BITS)) & (SUBBUCKETS as u64 - 1)) as usize;
        let octave = (msb - 6) as usize + 1; // Octave 1 starts at 64.
        let idx = LINEAR_LIMIT as usize + (octave - 1) * SUBBUCKETS + sub;
        idx.min(NUM_BUCKETS - 1)
    }

    fn bucket_value(index: usize) -> u64 {
        if index < LINEAR_LIMIT as usize {
            return index as u64;
        }
        let rel = index - LINEAR_LIMIT as usize;
        let octave = rel / SUBBUCKETS + 1;
        let sub = (rel % SUBBUCKETS) as u64;
        let base_msb = 6 + (octave as u32 - 1);
        let lo = (1u64 << base_msb) | (sub << (base_msb - SUBBUCKET_BITS));
        // Midpoint of the bucket's value range.
        lo + (1u64 << (base_msb - SUBBUCKET_BITS)) / 2
    }

    /// Records one sample. Values above [`OVERFLOW_LIMIT`] are clipped into
    /// the top tracked bucket (count/sum/max stay exact) and counted in
    /// [`Histogram::overflow`].
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples that sum to `total`, e.g. one stage of every
    /// record of a burst, in one stamp: count and sum (so the mean) stay
    /// exact, the buckets and extremes see `n` samples at the mean.
    pub fn record_n(&mut self, total: u64, n: u64) {
        let value = match n {
            0 => return,
            1 => total,
            _ => total / n,
        };
        if value > OVERFLOW_LIMIT {
            self.overflow += n;
        }
        self.buckets[Self::bucket_index(value.min(OVERFLOW_LIMIT))] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(total);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a [`Duration`] in nanoseconds.
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_nanos() as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the samples (exact, not bucketed), 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample, 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate value at percentile `p`, or `None` when the histogram is
    /// empty — an empty histogram has no percentiles, and a `0` sentinel is
    /// indistinguishable from a genuine zero-nanosecond sample.
    ///
    /// `p` is clamped into `[0, 100]`; `p = 0` returns the exact minimum and
    /// `p = 100` the exact maximum. Interior percentiles resolve to a bucket
    /// midpoint clamped into the observed `[min, max]` range, so a
    /// single-sample histogram reports that sample at every percentile.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        if p <= 0.0 {
            return Some(self.min);
        }
        if p >= 100.0 {
            return Some(self.max);
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_value(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Exact sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Number of samples that exceeded [`OVERFLOW_LIMIT`] and were clipped
    /// into the top tracked bucket. Nonzero overflow means tail percentiles
    /// at that magnitude are lower bounds, not measurements.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Approximate number of samples ≤ `value`: counts whole buckets up to
    /// and including `value`'s bucket, so the boundary error is the bucket's
    /// width (~3% of `value`). This is the cumulative-bucket primitive behind
    /// the Prometheus `_bucket{le=...}` series.
    pub fn count_at_most(&self, value: u64) -> u64 {
        self.buckets[..=Self::bucket_index(value)].iter().sum()
    }

    /// The samples recorded into `self` but not yet into `earlier` — i.e.
    /// this histogram's growth since the `earlier` snapshot was taken.
    /// `earlier` must be a prior snapshot of the same histogram (bucket-wise
    /// `self >= earlier`); shrunken buckets saturate to zero. The window's
    /// min/max are reconstructed from its extreme non-empty buckets (bucket
    /// resolution, ~3%), since exact extremes of a difference are unknowable.
    pub fn diff(&self, earlier: &Histogram) -> Histogram {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .zip(earlier.buckets.iter())
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        let count = self.count.saturating_sub(earlier.count);
        let sum = self.sum.saturating_sub(earlier.sum);
        let (mut min, mut max) = (u64::MAX, 0);
        if count > 0 {
            for (i, &c) in buckets.iter().enumerate() {
                if c > 0 {
                    min = min.min(Self::bucket_value(i));
                    max = max.max(Self::bucket_value(i));
                }
            }
            // The overall extremes still bound every window.
            min = min.max(self.min);
            max = max.min(self.max);
            if min > max {
                min = max;
            }
        }
        let overflow = self.overflow.saturating_sub(earlier.overflow);
        Histogram {
            buckets,
            count,
            sum,
            min,
            max,
            overflow,
        }
    }

    /// Adds all samples of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.overflow += other.overflow;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Produces a compact summary snapshot.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count(),
            mean_ns: self.mean(),
            min_ns: self.min(),
            p50_ns: self.percentile(50.0).unwrap_or(0),
            p99_ns: self.percentile(99.0).unwrap_or(0),
            max_ns: self.max(),
            overflow: self.overflow,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("mean_ns", &self.mean())
            .field("p50_ns", &self.percentile(50.0).unwrap_or(0))
            .field("p99_ns", &self.percentile(99.0).unwrap_or(0))
            .field("max_ns", &self.max)
            .finish()
    }
}

/// Point-in-time summary of a [`Histogram`] (all values in nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Exact arithmetic mean.
    pub mean_ns: f64,
    /// Minimum sample.
    pub min_ns: u64,
    /// Median (bucketed).
    pub p50_ns: u64,
    /// 99th percentile (bucketed).
    pub p99_ns: u64,
    /// Maximum sample.
    pub max_ns: u64,
    /// Samples clipped past [`OVERFLOW_LIMIT`]; nonzero means the tail
    /// percentiles are lower bounds.
    pub overflow: u64,
}

impl Summary {
    /// Mean in microseconds, the unit most of the paper's tables use.
    pub fn mean_us(&self) -> f64 {
        self.mean_ns / 1e3
    }

    /// Renders the summary as a JSON object (used by BENCH JSON emitters).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\": {}, \"mean_ns\": {:.1}, \"min_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}, \"overflow\": {}}}",
            self.count, self.mean_ns, self.min_ns, self.p50_ns, self.p99_ns, self.max_ns,
            self.overflow
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.0), None);
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.percentile(100.0), None);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        // Summaries of empty histograms still render with zeroed fields.
        assert_eq!(h.summary().p50_ns, 0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        // A value ≥ LINEAR_LIMIT lands in a midpoint bucket; every percentile
        // must still report the exact sample, not the midpoint.
        let mut h = Histogram::new();
        h.record(1_000);
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), Some(1_000), "p={p}");
        }
        assert_eq!(h.summary().p50_ns, 1_000);
    }

    #[test]
    fn p0_and_p100_are_exact_extremes() {
        let mut h = Histogram::new();
        for v in [100u64, 777, 65_537, 1_000_003] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), Some(100));
        assert_eq!(h.percentile(100.0), Some(1_000_003));
        // Out-of-range percentiles clamp rather than extrapolate.
        assert_eq!(h.percentile(-5.0), Some(100));
        assert_eq!(h.percentile(250.0), Some(1_000_003));
    }

    #[test]
    fn percentile_never_leaves_sample_range() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(100);
        h.record(101);
        for p in [0.0, 25.0, 50.0, 75.0, 99.9, 100.0] {
            let v = h.percentile(p).unwrap();
            assert!((100..=101).contains(&v), "p={p} v={v}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 63] {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn percentiles_are_ordered_and_close() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 100); // 100 ns .. 1 ms
        }
        let p50 = h.percentile(50.0).unwrap();
        let p90 = h.percentile(90.0).unwrap();
        let p99 = h.percentile(99.0).unwrap();
        assert!(p50 <= p90 && p90 <= p99);
        // Within ~5% of the true values.
        assert!((450_000..550_000).contains(&p50), "p50={p50}");
        assert!((940_000..1_060_000).contains(&p99), "p99={p99}");
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(300);
        assert_eq!(h.mean(), 200.0);
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn merge_with_empty_preserves_extremes() {
        let mut a = Histogram::new();
        a.record(42);
        let b = Histogram::new();
        a.merge(&b);
        assert_eq!(a.min(), 42);
        assert_eq!(a.max(), 42);
        // And merging into an empty histogram adopts the donor's extremes.
        let mut c = Histogram::new();
        c.merge(&a);
        assert_eq!(c.min(), 42);
        assert_eq!(c.max(), 42);
        assert_eq!(c.percentile(100.0), Some(42));
    }

    #[test]
    fn merge_percentiles_match_single_histogram() {
        // Recording a population split across two histograms and merging must
        // give the same percentile answers as recording it in one.
        let mut whole = Histogram::new();
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for v in 1..=1_000u64 {
            whole.record(v * 37);
            if v % 2 == 0 {
                left.record(v * 37);
            } else {
                right.record(v * 37);
            }
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(left.percentile(p), whole.percentile(p), "p={p}");
        }
    }

    #[test]
    fn count_at_most_is_cumulative() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 1_000, 100_000] {
            h.record(v);
        }
        assert_eq!(h.count_at_most(5), 0);
        assert_eq!(h.count_at_most(10), 1);
        assert_eq!(h.count_at_most(50), 2);
        assert_eq!(h.count_at_most(u64::MAX), 4);
        // Cumulative counts are monotone in the threshold.
        let mut prev = 0;
        for v in [1u64, 100, 10_000, 1_000_000] {
            let c = h.count_at_most(v);
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn diff_isolates_a_window() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(200);
        let snap = h.clone();
        h.record(10_000);
        h.record(20_000);
        let window = h.diff(&snap);
        assert_eq!(window.count(), 2);
        assert_eq!(window.sum(), 30_000);
        // Window percentiles reflect only the new samples (~3% buckets).
        let p50 = window.percentile(50.0).unwrap();
        assert!((9_000..=11_000).contains(&p50), "p50={p50}");
        assert!(window.percentile(100.0).unwrap() >= 19_000);
        // Diff of identical snapshots is empty.
        assert_eq!(h.diff(&h.clone()).percentile(50.0), None);
    }

    #[test]
    fn bucket_roundtrip_error_is_bounded() {
        for v in [64u64, 100, 1_000, 65_536, 1_000_000, u32::MAX as u64] {
            let idx = Histogram::bucket_index(v);
            let back = Histogram::bucket_value(idx);
            let err = (back as f64 - v as f64).abs() / v as f64;
            assert!(err < 0.05, "v={v} back={back} err={err}");
        }
    }

    #[test]
    fn overflow_samples_are_clipped_but_counted() {
        let mut h = Histogram::new();
        h.record(1_000);
        h.record(OVERFLOW_LIMIT + 1);
        h.record(u64::MAX / 2);
        assert_eq!(h.count(), 3);
        assert_eq!(h.overflow(), 2);
        // Exact aggregates still see the true values.
        assert_eq!(h.max(), u64::MAX / 2);
        // Interior percentiles are clipped to the ladder, and the clipping is
        // visible through the overflow counter rather than silent.
        let p50 = h.percentile(50.0).unwrap();
        assert!(p50 <= OVERFLOW_LIMIT + OVERFLOW_LIMIT / 16, "p50={p50}");
        let s = h.summary();
        assert_eq!(s.overflow, 2);
        assert!(s.to_json().contains("\"overflow\": 2"));
        // A sample exactly at the limit does not overflow.
        let mut exact = Histogram::new();
        exact.record(OVERFLOW_LIMIT);
        assert_eq!(exact.overflow(), 0);
    }

    #[test]
    fn overflow_propagates_through_merge_and_diff() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(OVERFLOW_LIMIT + 7);
        b.record(OVERFLOW_LIMIT + 9);
        b.record(10);
        a.merge(&b);
        assert_eq!(a.overflow(), 2);
        let snap = a.clone();
        a.record(OVERFLOW_LIMIT * 2);
        let window = a.diff(&snap);
        assert_eq!(window.count(), 1);
        assert_eq!(window.overflow(), 1);
    }

    #[test]
    fn summary_fields_consistent() {
        let mut h = Histogram::new();
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 3);
        assert_eq!(s.mean_ns, 200.0);
        assert_eq!(s.max_ns, 300);
        assert!((s.mean_us() - 0.2).abs() < 1e-9);
        let json = s.to_json();
        assert!(json.contains("\"count\": 3"));
        assert!(json.contains("\"max_ns\": 300"));
    }
}
