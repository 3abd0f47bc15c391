//! The benchmark's arithmetic: exact latency samples, percentile selection,
//! the host probe and quiet-slice throughput, span self time and the
//! sum-of-rungs check.
//!
//! Apart from timing the probe, everything here is pure and unit-tested; the
//! workloads only feed it.

use std::time::{Duration, Instant};

/// Exact latency samples in nanoseconds, for the numbers a gate or the
/// ladder reads.
///
/// `telemetry::Histogram` reports bucket midpoints 3% apart: a median read
/// from it sits on the same value run after run until it jumps 3%, a third of
/// the 10% gate, and the ladder's self costs are differences smaller than one
/// bucket. So these samples are kept as they are, four bytes each (a write
/// workload keeps under 3 MB of them in a 10 s window); everything that is
/// neither gated nor subtracted goes into a `telemetry::Histogram`.
#[derive(Clone, Default)]
pub struct Samples(Vec<u32>);

impl Samples {
    pub fn record(&mut self, d: Duration) {
        self.0.push(u32::try_from(d.as_nanos()).unwrap_or(u32::MAX));
    }

    pub fn count(&self) -> u64 {
        self.0.len() as u64
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().map(|&v| v as f64).sum::<f64>() / self.0.len() as f64
    }

    pub fn merge(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// The `p`-th percentile in nanoseconds over every sample, interpolated
    /// between the two nearest ranks; 0.0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_unstable();
        let rank = p.clamp(0.0, 100.0) / 100.0 * (v.len() - 1) as f64;
        let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
        v[lo] as f64 + (v[hi] as f64 - v[lo] as f64) * (rank - lo as f64)
    }
}

/// Length of one slice of a timed window.
pub const SLICE: Duration = Duration::from_secs(1);

/// The slices of a window `window` long: one per whole [`SLICE`].
pub fn window_slices(window: Duration) -> Vec<Slice> {
    vec![Slice::lasting(SLICE); (window.as_nanos() / SLICE.as_nanos()) as usize]
}

/// The slice of a window started at `start` that `at` falls into.
pub fn slice_at(start: Instant, at: Instant) -> usize {
    ((at - start).as_nanos() / SLICE.as_nanos()) as usize
}

/// Steps of the host probe's dependent xorshift chain: about 4 us of work
/// that touches no memory, so nothing the system under test does to the
/// caches can change how long it takes.
const PROBE_STEPS: u32 = 2048;
/// A client runs the probe between two of its operations once per this.
const PROBE_EVERY: Duration = Duration::from_millis(1);
/// A slice is quiet when its host index is within this share of the run's
/// best. On the review host the index of undisturbed slices repeats within
/// 0.1% (4267 to 4270 ns); what slows a 16 us write to 18 us or more raises
/// it by 1% to 10%.
const QUIET_MARGIN: f64 = 0.005;

/// Times the fixed work of the host probe.
fn probe() -> Duration {
    let t = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..PROBE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed()
}

/// Runs the host probe on the calling thread when one is due.
pub struct Prober {
    next: Instant,
}

impl Prober {
    pub fn start() -> Self {
        Prober {
            next: Instant::now(),
        }
    }

    /// Probes into `slice` if the last probe is [`PROBE_EVERY`] old at `now`.
    pub fn tick(&mut self, now: Instant, slice: &mut Slice) {
        if now >= self.next {
            slice.probes.record(probe());
            self.next = Instant::now() + PROBE_EVERY;
        }
    }
}

/// What happened in one slice of a run: a second of a window, a round of a
/// ladder rung, the put phases of a second of failover cycles.
#[derive(Clone, Default)]
pub struct Slice {
    /// Operations completed in the slice.
    pub ops: u64,
    /// How long the slice lasted.
    pub lasted: Duration,
    /// Latency of the gated operations completed in it.
    pub lat: Samples,
    /// How long each host probe run in it took.
    probes: Samples,
}

impl Slice {
    pub fn lasting(lasted: Duration) -> Self {
        Slice {
            lasted,
            ..Slice::default()
        }
    }

    /// Counts `ops` operations that completed together after `lat`.
    pub fn record(&mut self, ops: u64, lat: Duration) {
        self.ops += ops;
        self.lat.record(lat);
    }

    /// Counts `ops` operations whose latency is not gated.
    pub fn count(&mut self, ops: u64) {
        self.ops += ops;
    }

    /// Adds what another client did in the same slice.
    pub fn merge(&mut self, other: &Slice) {
        self.ops += other.ops;
        self.lat.merge(&other.lat);
        self.probes.merge(&other.probes);
    }

    pub fn rate(&self) -> f64 {
        self.ops as f64 / self.lasted.as_secs_f64()
    }

    /// How slow the host's CPU was during the slice: the 75th percentile of
    /// its probes, so that a burst covering a quarter of the slice shows.
    /// (Over 24 `wal_sync` runs this index left the smallest spread between
    /// runs; the median misses bursts that spoil a slice's p99, the 90th
    /// percentile drops seven slices in ten of an undisturbed run.)
    /// Infinite for a slice without probes.
    pub fn host_index(&self) -> f64 {
        if self.probes.count() == 0 {
            f64::INFINITY
        } else {
            self.probes.percentile(75.0)
        }
    }
}

/// The slices of a run the host left undisturbed.
///
/// Other tenants of the host slow the benchmark for seconds to minutes at a
/// time, by up to a third, and a run cannot tell that from a slower system by
/// looking at its own results. The probe can: it is fixed work of the
/// benchmark's own, run on the client's thread between operations, that no
/// code under test takes part in. Slices are kept or left out by the probe alone, never by
/// what the system did in them, so a stall of the system's own making (a
/// memtable flush, a compaction, a full window) counts wherever it falls.
pub struct Quiet<'a> {
    pub kept: Vec<&'a Slice>,
    /// Slices the run had.
    pub of: usize,
}

impl<'a> Quiet<'a> {
    pub fn among(slices: &'a [Slice]) -> Self {
        let index: Vec<f64> = slices.iter().map(Slice::host_index).collect();
        Quiet {
            kept: quiet_indices(&index)
                .into_iter()
                .map(|i| &slices[i])
                .collect(),
            of: slices.len(),
        }
    }

    /// Throughput: the median of the kept slices' rates.
    pub fn rate(&self) -> f64 {
        median(&self.kept.iter().map(|s| s.rate()).collect::<Vec<_>>())
    }

    /// The latencies of the kept slices as one set.
    pub fn lat(&self) -> Samples {
        let mut all = Samples::default();
        for s in &self.kept {
            all.merge(&s.lat);
        }
        all
    }
}

/// Which of the slices with these host indices are quiet: those within
/// [`QUIET_MARGIN`] of the best. A slice without probes (infinite index) is
/// never kept.
fn quiet_indices(index: &[f64]) -> Vec<usize> {
    let best = index.iter().copied().fold(f64::INFINITY, f64::min);
    (0..index.len())
        .filter(|&i| index[i].is_finite() && index[i] <= best * (1.0 + QUIET_MARGIN))
        .collect()
}

/// The percentiles the benchmark ever reports, ascending, each with the
/// samples per 100 000 that lie beyond it.
pub const PERCENTILES: [(f64, u64); 5] = [
    (50.0, 50_000),
    (90.0, 10_000),
    (99.0, 1_000),
    (99.9, 100),
    (99.99, 10),
];

/// The highest percentile of [`PERCENTILES`] that still has at least ten
/// samples beyond it among `n` samples (`None` below 20 samples, where not
/// even the median has ten on its far side).
pub fn highest_percentile(n: u64) -> Option<f64> {
    PERCENTILES
        .iter()
        .rev()
        .find(|(_, beyond)| n.saturating_mul(*beyond) >= 10 * 100_000)
        .map(|(p, _)| *p)
}

/// Whether `n` samples resolve percentile `p` by the ten-beyond rule.
pub fn percentile_resolved(n: u64, p: f64) -> bool {
    highest_percentile(n).is_some_and(|h| h >= p)
}

/// Median of `values` (mean of the middle two for an even count); 0.0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A span's self time: its duration minus the part of `[start, end)` its
/// children cover (children may overlap each other and stick out).
pub fn self_time_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start).saturating_sub(covered)
}

/// Per-unit cost of each ladder rung, top (whole stack) to bottom
/// (modelled delay only). Each rung re-issues the same byte stream one
/// layer lower, so a layer's self cost is its rung minus the rung below.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ladder {
    pub apps: f64,
    pub splitfs: f64,
    pub ncl: f64,
    pub rdma: f64,
    pub sim: f64,
}

/// Self costs derived from a [`Ladder`]. A rung that was not measured (0.0)
/// contributes nothing and the rung above absorbs its cost.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LadderSelf {
    pub apps: f64,
    pub splitfs: f64,
    pub ncl: f64,
    pub rdma: f64,
    pub sim: f64,
}

impl Ladder {
    pub fn self_costs(&self) -> LadderSelf {
        let rungs = [self.apps, self.splitfs, self.ncl, self.rdma, self.sim];
        let mut own = [0.0f64; 5];
        for i in 0..rungs.len() {
            if rungs[i] <= 0.0 {
                continue;
            }
            let below = rungs[i + 1..].iter().copied().find(|&r| r > 0.0);
            own[i] = rungs[i] - below.unwrap_or(0.0);
        }
        LadderSelf {
            apps: own[0],
            splitfs: own[1],
            ncl: own[2],
            rdma: own[3],
            sim: own[4],
        }
    }
}

impl LadderSelf {
    pub fn sum(&self) -> f64 {
        self.apps + self.splitfs + self.ncl + self.rdma + self.sim
    }
}

/// How far the rungs' sum sits from the untraced reference, as a share of
/// the reference. Above [`LADDER_TOLERANCE`] the row is `unresolved`.
pub fn ladder_gap_share(own: &LadderSelf, reference: f64) -> f64 {
    if reference <= 0.0 {
        return 1.0;
    }
    (own.sum() - reference).abs() / reference
}

pub const LADDER_TOLERANCE: f64 = 0.05;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_and_interpolated() {
        let mut s = Samples::default();
        assert_eq!(s.percentile(50.0), 0.0);
        for ns in (1..=101u64).rev() {
            s.record(Duration::from_nanos(ns * 100));
        }
        assert_eq!(s.count(), 101);
        assert_eq!(s.percentile(0.0), 100.0);
        assert_eq!(s.percentile(50.0), 5_100.0);
        assert_eq!(s.percentile(99.0), 10_000.0);
        assert_eq!(s.percentile(99.5), 10_050.0);
        assert_eq!(s.percentile(100.0), 10_100.0);
        assert!((s.mean() - 5_100.0).abs() < 1e-9);
        let mut t = Samples::default();
        t.record(Duration::from_secs(60)); // clips at u32::MAX ns
        s.merge(&t);
        assert_eq!(s.percentile(100.0), u32::MAX as f64);
    }

    #[test]
    fn window_slices_are_whole_seconds() {
        let start = Instant::now();
        assert_eq!(window_slices(Duration::from_millis(2_500)).len(), 2);
        assert_eq!(slice_at(start, start + Duration::from_millis(999)), 0);
        assert_eq!(slice_at(start, start + Duration::from_millis(2_400)), 2);
    }

    #[test]
    fn quiet_slices_are_chosen_by_the_probe_alone() {
        // Within half a percent of the best index; the rest is left out.
        assert_eq!(quiet_indices(&[4270.0, 4300.0, 4268.0, 4289.0]), [0, 2, 3]);
        assert_eq!(quiet_indices(&[f64::INFINITY, 5000.0]), [1]);
        assert!(quiet_indices(&[f64::INFINITY]).is_empty());
        assert!(quiet_indices(&[]).is_empty());

        // Three slices, the second disturbed by the host; the third holds a
        // stall of the system's own, which must stay in the result.
        let mut slices = window_slices(Duration::from_secs(3));
        for (i, probe_ns) in [4270, 4500, 4272].into_iter().enumerate() {
            for _ in 0..10 {
                slices[i].probes.record(Duration::from_nanos(probe_ns));
            }
        }
        slices[0].record(16, Duration::from_micros(90));
        slices[1].record(16, Duration::from_micros(140));
        slices[1].record(16, Duration::from_micros(150));
        slices[2].record(16, Duration::from_micros(90));
        slices[2].record(16, Duration::from_micros(900));
        slices[2].record(16, Duration::from_micros(90));
        let quiet = Quiet::among(&slices);
        assert_eq!((quiet.kept.len(), quiet.of), (2, 3));
        assert_eq!(quiet.rate(), 32.0);
        assert_eq!(quiet.lat().count(), 4);
        assert_eq!(quiet.lat().percentile(100.0), 900_000.0);

        // Another client of the same window adds to each slice.
        let mut merged = slices[0].clone();
        merged.merge(&slices[2]);
        assert_eq!((merged.ops, merged.lat.count()), (64, 4));
        assert_eq!(merged.lasted, SLICE);
    }

    #[test]
    fn percentile_selection_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(99), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(highest_percentile(1_000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        assert_eq!(highest_percentile(100_000), Some(99.99));
        assert!(percentile_resolved(1_000, 99.0));
        assert!(!percentile_resolved(999, 99.0));
        assert!(percentile_resolved(24, 50.0));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: all self.
        assert_eq!(self_time_ns(100, 200, &[]), 100);
        // Disjoint children.
        assert_eq!(self_time_ns(100, 200, &[(110, 120), (150, 170)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time_ns(100, 200, &[(110, 150), (140, 160)]), 50);
        // Children sticking out are clipped; unordered input is fine.
        assert_eq!(self_time_ns(100, 200, &[(180, 250), (50, 110)]), 70);
        // Fully covered.
        assert_eq!(self_time_ns(100, 200, &[(0, 300)]), 0);
    }

    #[test]
    fn ladder_self_costs_telescope_to_the_top_rung() {
        let l = Ladder {
            apps: 0.0,
            splitfs: 16_000.0,
            ncl: 15_200.0,
            rdma: 10_400.0,
            sim: 9_300.0,
        };
        let own = l.self_costs();
        assert_eq!(own.apps, 0.0);
        assert_eq!(own.splitfs, 800.0);
        assert_eq!(own.ncl, 4_800.0);
        assert_eq!(own.rdma, 1_100.0);
        assert_eq!(own.sim, 9_300.0);
        assert!((own.sum() - 16_000.0).abs() < 1e-9);
    }

    #[test]
    fn ladder_skips_unmeasured_rungs() {
        let l = Ladder {
            apps: 30_000.0,
            splitfs: 0.0,
            ncl: 20_000.0,
            rdma: 0.0,
            sim: 9_000.0,
        };
        let own = l.self_costs();
        assert_eq!(own.apps, 10_000.0);
        assert_eq!(own.splitfs, 0.0);
        assert_eq!(own.ncl, 11_000.0);
        assert_eq!(own.sim, 9_000.0);
        assert!((own.sum() - 30_000.0).abs() < 1e-9);
    }

    #[test]
    fn sum_of_rungs_check_flags_a_gap_over_tolerance() {
        let own = LadderSelf {
            apps: 0.0,
            splitfs: 800.0,
            ncl: 4_800.0,
            rdma: 1_100.0,
            sim: 9_300.0,
        };
        assert!(ladder_gap_share(&own, 16_200.0) <= LADDER_TOLERANCE);
        assert!(ladder_gap_share(&own, 18_000.0) > LADDER_TOLERANCE);
        assert!(ladder_gap_share(&own, 14_000.0) > LADDER_TOLERANCE);
        assert_eq!(ladder_gap_share(&own, 0.0), 1.0);
    }
}
