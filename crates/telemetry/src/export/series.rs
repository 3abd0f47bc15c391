//! Windowed percentile time series over a registry histogram.
//!
//! A cumulative histogram answers "p99 since process start", which hides
//! regime changes — exactly the thing a chaos schedule creates (healthy →
//! degraded → recovered). [`PercentileSeries`] snapshots one histogram at
//! caller-driven ticks (e.g. once per simulated second) and differences
//! consecutive snapshots ([`Histogram::diff`]), yielding per-window
//! percentiles that can be plotted as p50/p99-over-time. The ring is bounded;
//! old windows fall off the front.

use crate::ring::Ring;
use crate::{Histogram, Telemetry};

/// One window's worth of samples, summarized.
#[derive(Debug, Clone)]
pub struct WindowPoint {
    /// Telemetry-clock timestamp at the *end* of the window (ns).
    pub t_ns: u64,
    /// Samples recorded during the window.
    pub count: u64,
    /// Median over the window (`None` for an idle window).
    pub p50_ns: Option<u64>,
    /// 99th percentile over the window.
    pub p99_ns: Option<u64>,
    /// Largest bucket value observed in the window.
    pub max_ns: u64,
}

/// Tracks one named histogram across tick-driven windows.
pub struct PercentileSeries {
    name: String,
    last: Histogram,
    points: Ring<WindowPoint>,
}

impl PercentileSeries {
    /// Watches histogram `name`, retaining at most `capacity` windows.
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        PercentileSeries {
            name: name.into(),
            last: Histogram::new(),
            points: Ring::new(capacity),
        }
    }

    /// The watched histogram's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Closes the current window: summarizes everything recorded into the
    /// histogram since the previous tick and returns the new point (`None`
    /// when the histogram is not registered yet).
    pub fn tick(&mut self, tel: &Telemetry) -> Option<WindowPoint> {
        let current = tel
            .histograms_full()
            .into_iter()
            .find(|(n, _)| *n == self.name)
            .map(|(_, h)| h)?;
        let window = current.diff(&self.last);
        self.last = current;
        let point = WindowPoint {
            t_ns: tel.now_ns(),
            count: window.count(),
            p50_ns: window.percentile(50.0),
            p99_ns: window.percentile(99.0),
            max_ns: window.max(),
        };
        self.points.push(point.clone());
        Some(point)
    }

    /// All retained windows, oldest first.
    pub fn points(&self) -> impl Iterator<Item = &WindowPoint> {
        self.points.iter()
    }

    /// Renders the series as a JSON array (for BENCH files / plotting).
    pub fn to_json(&self) -> String {
        let body = self
            .points
            .iter()
            .map(|p| {
                format!(
                    "{{\"t_ns\": {}, \"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
                    p.t_ns,
                    p.count,
                    p.p50_ns.map_or("null".into(), |v| v.to_string()),
                    p.p99_ns.map_or("null".into(), |v| v.to_string()),
                    p.max_ns,
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!("[{body}]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_isolate_regimes() {
        let tel = Telemetry::new();
        let h = tel.histogram("lat");
        let mut series = PercentileSeries::new("lat", 8);

        // Healthy window: fast samples.
        for _ in 0..100 {
            h.record(10_000);
        }
        let w1 = series.tick(&tel).unwrap();
        assert_eq!(w1.count, 100);
        let p1 = w1.p99_ns.unwrap();
        assert!((9_000..=11_000).contains(&p1), "p99={p1}");

        // Degraded window: slow samples only — the window p99 must jump even
        // though the cumulative histogram is still dominated by fast ones.
        for _ in 0..10 {
            h.record(5_000_000);
        }
        let w2 = series.tick(&tel).unwrap();
        assert_eq!(w2.count, 10);
        assert!(w2.p99_ns.unwrap() > 4_000_000);

        // Idle window has no percentiles.
        let w3 = series.tick(&tel).unwrap();
        assert_eq!(w3.count, 0);
        assert_eq!(w3.p50_ns, None);

        let json = series.to_json();
        assert!(json.contains("\"p50_ns\": null"));
        assert_eq!(series.points().count(), 3);
    }

    /// Ticks race live writers: each window is a diff of cumulative
    /// snapshots, so samples must be conserved — every sample lands in
    /// exactly one window, none double-counted, none lost — no matter how
    /// ticks interleave with recording.
    #[test]
    fn concurrent_writers_conserve_samples_across_windows() {
        const WRITERS: usize = 4;
        const PER_WRITER: u64 = 5_000;
        let tel = Telemetry::new();
        let h = tel.histogram("lat");
        let mut series = PercentileSeries::new("lat", usize::MAX >> 1);

        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..PER_WRITER {
                        h.record(1_000 + (w as u64 * PER_WRITER + i) % 977);
                    }
                });
            }
            // Tick concurrently with the writers from the scope's own
            // thread; windows close at arbitrary interleavings.
            for _ in 0..50 {
                series.tick(&tel);
                std::thread::yield_now();
            }
        });
        // One final tick drains whatever the racing ticks missed.
        series.tick(&tel);

        let total: u64 = series.points().map(|p| p.count).sum();
        assert_eq!(total, WRITERS as u64 * PER_WRITER);
        // Every non-idle window's percentiles stay inside the recorded
        // value range (with ~3% bucket slack on the upper side). Relaxed
        // atomic snapshots can transiently show a count without its bucket
        // (max 0); such windows carry no percentile information to check.
        for p in series.points().filter(|p| p.count > 0 && p.max_ns > 0) {
            let p50 = p.p50_ns.unwrap();
            assert!((1_000..=2_050).contains(&p50), "p50={p50}");
            assert!(p.max_ns >= p50);
        }
    }

    /// Same conservation property for two series watching two histograms
    /// fed from different threads: the series must never cross streams.
    #[test]
    fn concurrent_series_stay_isolated() {
        let tel = Telemetry::new();
        let a = tel.histogram("a");
        let b = tel.histogram("b");
        let mut sa = PercentileSeries::new("a", 64);
        let mut sb = PercentileSeries::new("b", 64);
        std::thread::scope(|s| {
            let a = a.clone();
            s.spawn(move || {
                for _ in 0..2_000 {
                    a.record(100);
                }
            });
            let b = b.clone();
            s.spawn(move || {
                for _ in 0..3_000 {
                    b.record(9_000);
                }
            });
            for _ in 0..20 {
                sa.tick(&tel);
                sb.tick(&tel);
            }
        });
        sa.tick(&tel);
        sb.tick(&tel);
        assert_eq!(sa.points().map(|p| p.count).sum::<u64>(), 2_000);
        assert_eq!(sb.points().map(|p| p.count).sum::<u64>(), 3_000);
        for p in sa.points().filter(|p| p.count > 0) {
            assert!(p.max_ns <= 150, "stream crossed: {}", p.max_ns);
        }
        for p in sb.points().filter(|p| p.count > 0 && p.max_ns > 0) {
            assert!(p.p50_ns.unwrap() >= 8_000);
        }
    }

    #[test]
    fn ring_is_bounded_and_unknown_hist_is_none() {
        let tel = Telemetry::new();
        let mut series = PercentileSeries::new("missing", 2);
        assert!(series.tick(&tel).is_none());
        let h = tel.histogram("missing");
        for i in 0..5 {
            h.record(100 * (i + 1));
            series.tick(&tel).unwrap();
        }
        assert_eq!(series.points().count(), 2);
    }
}
