//! Lock-free metrics: counters, gauges, and concurrent histograms.
//!
//! Handles are looked up (and interned) by name once, at component
//! construction time, then used on the hot path where every operation is a
//! handful of relaxed atomic ops — no locks, no allocation. A handle created
//! from a disabled [`crate::Telemetry`] is a no-op whose recording methods
//! compile down to a single branch.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::hist::{Histogram, NUM_BUCKETS, OVERFLOW_LIMIT};

/// Concurrent log-linear histogram: same bucket layout as [`Histogram`] but
/// every cell is an atomic, so any number of threads can record through a
/// shared handle without coordination.
pub(crate) struct AtomicHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    overflow: AtomicU64,
}

impl AtomicHistogram {
    pub(crate) fn new() -> Self {
        AtomicHistogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
        }
    }

    /// Adds `n` samples whose sum is `total`, all at their mean: count and
    /// sum stay exact, the buckets and extremes see the mean. `n == 1` is
    /// one plain sample, and skips the division.
    #[inline]
    fn record_n(&self, total: u64, n: u64) {
        let value = match n {
            0 => return,
            1 => total,
            _ => total / n,
        };
        if value > OVERFLOW_LIMIT {
            self.overflow.fetch_add(n, Ordering::Relaxed);
        }
        self.buckets[Histogram::bucket_index(value.min(OVERFLOW_LIMIT))]
            .fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(total, Ordering::Relaxed);
        // The extremes only ever move outwards, so a sample inside them —
        // nearly every one — needs no read-modify-write (a locked
        // compare-exchange loop on x86, which has no atomic min/max).
        if value < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(value, Ordering::Relaxed);
        }
        if value > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Materialises an owned [`Histogram`] snapshot. A sample recorded
    /// while this reads can reach its bucket before its count, so the count
    /// is at least the buckets' sum: cumulative exports stay cumulative.
    pub(crate) fn load(&self) -> Histogram {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = self.count.load(Ordering::Relaxed).max(buckets.iter().sum());
        Histogram::from_parts(
            buckets,
            count,
            self.sum.load(Ordering::Relaxed),
            self.min.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
            self.overflow.load(Ordering::Relaxed),
        )
    }
}

/// A monotonically increasing counter handle. Cloning shares the cell.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A detached handle whose increments go nowhere (disabled telemetry).
    pub fn noop() -> Self {
        Counter(None)
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A signed gauge handle (set/adjust). Cloning shares the cell.
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// A detached handle whose updates go nowhere (disabled telemetry).
    pub fn noop() -> Self {
        Gauge(None)
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Adjusts the gauge by `delta` (may be negative).
    #[inline]
    pub fn adjust(&self, delta: i64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A shared histogram handle recording nanosecond samples.
#[derive(Clone, Default)]
pub struct HistHandle(Option<Arc<AtomicHistogram>>);

impl HistHandle {
    /// A detached handle whose samples go nowhere (disabled telemetry).
    pub fn noop() -> Self {
        HistHandle(None)
    }

    /// True when samples recorded through this handle are retained.
    #[inline]
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }

    /// Records one nanosecond sample.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.record_n(ns, 1);
    }

    /// Records `n` samples that sum to `total_ns`, e.g. one stage of every
    /// record of a burst, in one stamp. Count and sum (so the mean) are
    /// exact; the distribution sees `n` samples at the mean.
    #[inline]
    pub fn record_n(&self, total_ns: u64, n: u64) {
        if let Some(h) = &self.0 {
            h.record_n(total_ns, n);
        }
    }

    /// Records a [`Duration`].
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        if self.0.is_some() {
            self.record(d.as_nanos() as u64);
        }
    }

    /// Records the time elapsed since `start`.
    #[inline]
    pub fn record_since(&self, start: Instant) {
        if self.0.is_some() {
            self.record(start.elapsed().as_nanos() as u64);
        }
    }

    /// Materialises an owned snapshot (empty for a no-op handle).
    pub fn load(&self) -> Histogram {
        self.0.as_ref().map_or_else(Histogram::new, |h| h.load())
    }
}

/// Name-interning registry behind a [`crate::Telemetry`] handle.
///
/// Lookup/creation takes a mutex (cold path, at component construction);
/// the returned handles are lock-free.
#[derive(Default)]
pub(crate) struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    hists: Mutex<BTreeMap<String, Arc<AtomicHistogram>>>,
}

impl Registry {
    pub(crate) fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().expect("registry poisoned");
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter(Some(Arc::clone(cell)))
    }

    pub(crate) fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().expect("registry poisoned");
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicI64::new(0)));
        Gauge(Some(Arc::clone(cell)))
    }

    pub(crate) fn histogram(&self, name: &str) -> HistHandle {
        let mut map = self.hists.lock().expect("registry poisoned");
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicHistogram::new()));
        HistHandle(Some(Arc::clone(cell)))
    }

    pub(crate) fn counter_values(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    pub(crate) fn gauge_values(&self) -> Vec<(String, i64)> {
        self.gauges
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    pub(crate) fn histogram_summaries(&self) -> Vec<(String, crate::Summary)> {
        self.hists
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load().summary()))
            .collect()
    }

    /// Full bucket-level snapshots, for exporters that need cumulative
    /// bucket counts rather than a [`crate::Summary`].
    pub(crate) fn histogram_values(&self) -> Vec<(String, Histogram)> {
        self.hists
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interned_handles_share_cells() {
        let reg = Registry::default();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(reg.counter_values(), vec![("x".to_string(), 3)]);
    }

    #[test]
    fn noop_handles_discard_everything() {
        let c = Counter::noop();
        c.inc();
        assert_eq!(c.get(), 0);
        let g = Gauge::noop();
        g.set(7);
        assert_eq!(g.get(), 0);
        let h = HistHandle::noop();
        h.record(123);
        assert!(!h.is_live());
        assert_eq!(h.load().count(), 0);
    }

    #[test]
    fn gauge_set_and_adjust() {
        let reg = Registry::default();
        let g = reg.gauge("depth");
        g.set(10);
        g.adjust(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn concurrent_histogram_matches_serial() {
        let reg = Registry::default();
        let h = reg.histogram("lat");
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        h.record(t * 1_000 + i);
                    }
                });
            }
        });
        let snap = h.load();
        assert_eq!(snap.count(), 4_000);
        assert_eq!(snap.min(), 0);
        assert_eq!(snap.max(), 3_999);
        // Sum is exact, so the mean is too.
        assert!((snap.mean() - 1_999.5).abs() < 1e-9);
    }

    #[test]
    fn record_n_keeps_count_and_sum_exact_beside_record() {
        let reg = Registry::default();
        let h = reg.histogram("burst");
        std::thread::scope(|s| {
            let bursts = h.clone();
            // 1,000 bursts of 16 samples summing to 16·i + 7: the mean
            // rounds down, the sum does not.
            s.spawn(move || {
                for i in 0..1_000u64 {
                    bursts.record_n(16 * i + 7, 16);
                }
            });
            let singles = h.clone();
            s.spawn(move || {
                for i in 0..1_000u64 {
                    singles.record(i);
                }
            });
        });
        let snap = h.load();
        let burst_sum: u64 = (0..1_000u64).map(|i| 16 * i + 7).sum();
        let single_sum: u64 = (0..1_000u64).sum();
        assert_eq!(snap.count(), 17_000);
        assert_eq!(snap.sum(), burst_sum + single_sum);
        // The extremes see the means: 7 / 16 and 15,991 / 16, rounded down.
        assert_eq!((snap.min(), snap.max()), (0, 999));
        // A zero-sample stamp adds nothing.
        h.record_n(5, 0);
        assert_eq!(h.load().count(), 17_000);
    }
}
