//! Metrics: counters, gauges and histograms.
//!
//! Handles are looked up (and interned) by name once, at component
//! construction time, then used on the hot path without allocating. A
//! counter or gauge update is one relaxed atomic op. A histogram is a plain
//! [`Histogram`] behind a mutex, and histograms that are stamped together
//! ([`HistSet`]) share one: a stamp of all of them is one lock acquisition
//! and plain adds, where a lock-free histogram pays four or five atomic
//! read-modify-writes per histogram. A handle created from a disabled
//! [`crate::Telemetry`] is a no-op whose recording methods compile down to a
//! single branch.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::hist::Histogram;

/// Histograms interned together, behind one lock.
type HistCell = Mutex<Vec<Histogram>>;

/// One interned histogram: its cell and its place in it.
type HistSlot = (Arc<HistCell>, usize);

fn lock(cell: &HistCell) -> MutexGuard<'_, Vec<Histogram>> {
    cell.lock().expect("histogram poisoned")
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

/// `N` histograms stamped together: one [`HistSet::record_n`] stamps all of
/// them under one lock acquisition. Each stays a named histogram of its
/// own, which [`crate::Telemetry::histogram`] finds and exporters read.
#[derive(Clone)]
pub struct HistSet<const N: usize>(Option<[HistSlot; N]>);

/// One shared histogram recording nanosecond samples: a set of one, one
/// lock per stamp.
pub type HistHandle = HistSet<1>;

impl<const N: usize> HistSet<N> {
    /// A detached set whose samples go nowhere (disabled telemetry).
    pub fn noop() -> Self {
        HistSet(None)
    }

    /// True when samples recorded through this set are retained.
    #[inline]
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }

    /// Stamps histogram `i` with `stamps[i]`: `(total_ns, n)` is `n`
    /// samples that sum to `total_ns`, e.g. one stage of every record of a
    /// burst. Count and sum (so the mean) are exact; the distribution sees
    /// `n` samples at the mean, and an `n` of 0 leaves it alone. One lock
    /// acquisition when the set was interned as one (a name interned
    /// earlier on its own keeps its own lock).
    pub fn record_n(&self, stamps: [(u64, u64); N]) {
        let Some(slots) = &self.0 else { return };
        let mut held: Option<(&Arc<HistCell>, MutexGuard<'_, Vec<Histogram>>)> = None;
        for ((cell, i), (total, n)) in slots.iter().zip(stamps) {
            if n == 0 {
                continue;
            }
            if !held
                .as_ref()
                .is_some_and(|(locked, _)| Arc::ptr_eq(locked, cell))
            {
                // One lock at a time: release the last before taking the next.
                drop(held.take());
                held = Some((cell, lock(cell)));
            }
            held.as_mut().expect("just locked").1[*i].record_n(total, n);
        }
    }
}

impl HistHandle {
    /// Records one nanosecond sample.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.record_n([(ns, 1)]);
    }

    /// Records the time elapsed since `start`.
    #[inline]
    pub fn record_since(&self, start: Instant) {
        if self.is_live() {
            self.record(start.elapsed().as_nanos() as u64);
        }
    }

    /// Materialises an owned snapshot (empty for a no-op handle).
    pub fn load(&self) -> Histogram {
        self.0
            .as_ref()
            .map_or_else(Histogram::new, |[(cell, i)]| lock(cell)[*i].clone())
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
    hists: Mutex<BTreeMap<String, HistSlot>>,
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

    pub(crate) fn histograms<const N: usize>(&self, names: [&str; N]) -> HistSet<N> {
        HistSet(Some(self.histogram_slots(names)))
    }

    /// The slots of `names`: those not interned yet share one fresh cell,
    /// in order; the others keep theirs.
    fn histogram_slots<const N: usize>(&self, names: [&str; N]) -> [HistSlot; N] {
        let mut map = self.hists.lock().expect("registry poisoned");
        let fresh = names.iter().filter(|n| !map.contains_key(**n)).count();
        let cell: Arc<HistCell> = Arc::new(Mutex::new(vec![Histogram::new(); fresh]));
        let mut next = 0;
        names.map(|name| {
            let slot = map.entry(name.to_string()).or_insert_with(|| {
                next += 1;
                (Arc::clone(&cell), next - 1)
            });
            (Arc::clone(&slot.0), slot.1)
        })
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
            .map(|(k, (cell, i))| (k.clone(), lock(cell)[*i].summary()))
            .collect()
    }

    /// Full bucket-level snapshots, for exporters that need cumulative
    /// bucket counts rather than a [`crate::Summary`].
    pub(crate) fn histogram_values(&self) -> Vec<(String, Histogram)> {
        self.hists
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, (cell, i))| (k.clone(), lock(cell)[*i].clone()))
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
        let h = reg.histograms(["lat"]);
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
        let h = reg.histograms(["burst"]);
        std::thread::scope(|s| {
            let bursts = h.clone();
            // 1,000 bursts of 16 samples summing to 16·i + 7: the mean
            // rounds down, the sum does not.
            s.spawn(move || {
                for i in 0..1_000u64 {
                    bursts.record_n([(16 * i + 7, 16)]);
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
        h.record_n([(5, 0)]);
        assert_eq!(h.load().count(), 17_000);
    }

    #[test]
    fn a_set_stamps_named_histograms_under_one_lock() {
        let reg = Registry::default();
        // `b` interned on its own first keeps its own cell; the set still
        // stamps it, and a zero-sample stamp leaves `c` alone.
        let alone = reg.histograms(["b"]);
        let set = reg.histograms(["a", "b", "c"]);
        set.record_n([(30, 3), (7, 1), (5, 0)]);
        alone.record(9);
        let [a, b, c] = ["a", "b", "c"].map(|n| reg.histograms([n]).load());
        assert_eq!((a.count(), a.sum(), a.max()), (3, 30, 10));
        assert_eq!((b.count(), b.sum()), (2, 16));
        assert_eq!(c.count(), 0);
        let names: Vec<String> = reg.histogram_values().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a", "b", "c"]);
        HistSet::<2>::noop().record_n([(1, 1), (2, 1)]);
    }
}
