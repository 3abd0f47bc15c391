//! SLO / health plane: latency objectives, multi-window burn rates, and
//! saturation signals derived from the metrics registry.
//!
//! A latency SLO here is "at most `budget` of samples may exceed
//! `threshold_ns`". Each [`SloTracker`] snapshots its histogram at
//! caller-driven ticks, differences consecutive snapshots into one window
//! ([`Histogram::diff`]; the crate's one window type) and classifies the
//! window's samples as good/bad via [`Histogram::count_at_most`] (bucket
//! granularity, ~3%). The **burn rate** of a window span is
//!
//! ```text
//! burn = (bad samples / total samples) / budget
//! ```
//!
//! so `burn == 1.0` means the error budget is being consumed exactly as fast
//! as it accrues; sustained `burn > 1.0` eventually violates the SLO. Status
//! uses the SRE-style multi-window rule: **breached** when both the fast
//! window (recent ticks — "it is happening now") and the slow window (a
//! longer span — "it is not a blip") burn at or above `breach_burn`;
//! **warning** when only the fast window does.
//!
//! [`SloPlane`] bundles trackers with saturation signals that lead the
//! latency cliff rather than trail it: window-stall occupancy (writers
//! blocked on a full in-flight window), the windowed p99 of the
//! `ncl.record.doorbell` histogram (a queue-depth proxy — doorbell wait
//! grows with the submit queue), and peer memory pressure. Every tick exports
//! the lot as gauges (`slo.*`), so `/metrics` scrapes see burn rates without
//! extra plumbing, and `/health` (see [`crate::export::http`]) serves the
//! JSON report.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::ring::Ring;
use crate::snapshot::json_escape;
use crate::{Histogram, Telemetry};

/// One latency objective over a registry histogram.
#[derive(Debug, Clone)]
pub struct SloSpec {
    /// Short identifier (used in gauge names and the health report).
    pub name: String,
    /// Registry histogram the objective applies to.
    pub histogram: String,
    /// Samples at or below this are within objective.
    pub threshold_ns: u64,
    /// Allowed bad-sample fraction, in `(0, 1]`.
    pub budget: f64,
    /// Ticks in the fast ("is it happening now") burn window.
    pub fast_windows: usize,
    /// Ticks in the slow ("is it sustained") burn window.
    pub slow_windows: usize,
    /// Burn rate at or above which a window is considered burning.
    pub breach_burn: f64,
}

impl SloSpec {
    /// An objective with the default window geometry (fast = 3 ticks,
    /// slow = 12 ticks, breach at burn ≥ 1.0).
    pub fn new(
        name: impl Into<String>,
        histogram: impl Into<String>,
        threshold_ns: u64,
        budget: f64,
    ) -> Self {
        SloSpec {
            name: name.into(),
            histogram: histogram.into(),
            threshold_ns,
            budget: budget.clamp(f64::MIN_POSITIVE, 1.0),
            fast_windows: 3,
            slow_windows: 12,
            breach_burn: 1.0,
        }
    }

    /// Overrides the window geometry.
    pub fn windows(mut self, fast: usize, slow: usize) -> Self {
        self.fast_windows = fast.max(1);
        self.slow_windows = slow.max(self.fast_windows);
        self
    }
}

/// Health of one objective (or the whole plane): ordered worst-last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SloStatus {
    /// Burn below threshold in the fast window.
    Healthy,
    /// Fast window burning, slow window not yet — a blip or an onset.
    Warning,
    /// Both windows burning: the objective is being violated and it is
    /// sustained.
    Breached,
}

impl SloStatus {
    /// Stable lowercase name for JSON/text.
    pub fn as_str(&self) -> &'static str {
        match self {
            SloStatus::Healthy => "healthy",
            SloStatus::Warning => "warning",
            SloStatus::Breached => "breached",
        }
    }

    /// Numeric code for gauges (0 = healthy, 1 = warning, 2 = breached).
    pub fn code(&self) -> i64 {
        match self {
            SloStatus::Healthy => 0,
            SloStatus::Warning => 1,
            SloStatus::Breached => 2,
        }
    }
}

/// One tick's evaluation of one objective.
#[derive(Debug, Clone)]
pub struct SloState {
    /// The objective's name.
    pub name: String,
    /// The histogram it watches.
    pub histogram: String,
    /// The latency threshold.
    pub threshold_ns: u64,
    /// The error budget.
    pub budget: f64,
    /// Samples in the just-closed window.
    pub window_total: u64,
    /// Samples in the window that exceeded the threshold.
    pub window_bad: u64,
    /// Burn rate over the fast window span (0 when idle).
    pub fast_burn: f64,
    /// Burn rate over the slow window span (0 when idle).
    pub slow_burn: f64,
    /// Multi-window verdict.
    pub status: SloStatus,
}

impl SloState {
    fn to_json(&self) -> String {
        format!(
            "{{\"name\": \"{}\", \"histogram\": \"{}\", \"threshold_ns\": {}, \"budget\": {:.6}, \"window_total\": {}, \"window_bad\": {}, \"fast_burn\": {:.3}, \"slow_burn\": {:.3}, \"status\": \"{}\"}}",
            json_escape(&self.name),
            json_escape(&self.histogram),
            self.threshold_ns,
            self.budget,
            self.window_total,
            self.window_bad,
            self.fast_burn,
            self.slow_burn,
            self.status.as_str()
        )
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct WindowSample {
    total: u64,
    bad: u64,
}

/// Tracks one objective across tick-driven windows.
///
/// Drive it either through [`SloPlane`] (which reads the registry) or
/// directly via [`SloTracker::observe`] with cumulative histogram snapshots
/// (unit tests do the latter).
pub struct SloTracker {
    spec: SloSpec,
    last: Histogram,
    windows: Ring<WindowSample>,
}

impl SloTracker {
    /// A tracker with no history.
    pub fn new(spec: SloSpec) -> Self {
        SloTracker {
            windows: Ring::new(spec.slow_windows),
            spec,
            last: Histogram::new(),
        }
    }

    /// The objective this tracker evaluates.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    /// Closes a window against a *cumulative* snapshot of the watched
    /// histogram and returns the updated state.
    pub fn observe(&mut self, current: &Histogram) -> SloState {
        let window = current.diff(&self.last);
        self.last = current.clone();
        let total = window.count();
        let bad = total.saturating_sub(window.count_at_most(self.spec.threshold_ns));
        self.windows.push(WindowSample { total, bad });

        let fast_burn = self.burn_over(self.spec.fast_windows);
        let slow_burn = self.burn_over(self.spec.slow_windows);
        let status = if fast_burn >= self.spec.breach_burn {
            if slow_burn >= self.spec.breach_burn {
                SloStatus::Breached
            } else {
                SloStatus::Warning
            }
        } else {
            SloStatus::Healthy
        };
        SloState {
            name: self.spec.name.clone(),
            histogram: self.spec.histogram.clone(),
            threshold_ns: self.spec.threshold_ns,
            budget: self.spec.budget,
            window_total: total,
            window_bad: bad,
            fast_burn,
            slow_burn,
            status,
        }
    }

    /// Burn rate over the most recent `n` windows (0.0 when they hold no
    /// samples — an idle service is not burning budget).
    pub fn burn_over(&self, n: usize) -> f64 {
        let (mut total, mut bad) = (0u64, 0u64);
        for w in self.windows.iter().rev().take(n.max(1)) {
            total += w.total;
            bad += w.bad;
        }
        if total == 0 {
            0.0
        } else {
            (bad as f64 / total as f64) / self.spec.budget
        }
    }
}

/// Saturation signals for one tick.
#[derive(Debug, Clone, Default)]
pub struct SaturationSnapshot {
    /// `ncl.window.stall` growth during the tick: how often writers found
    /// the in-flight window full.
    pub window_stall_delta: u64,
    /// Windowed p99 of the `ncl.record.doorbell` stage (0 when idle).
    pub doorbell_p99_ns: u64,
    /// Fleet-wide peer memory utilisation in percent (from the
    /// `peer.mem.used_bytes` / `peer.mem.total_bytes` gauges; 0 when no
    /// peer daemon shares the registry).
    pub peer_mem_used_pct: u64,
    /// Regions voluntarily revoked by peers during the tick — sustained
    /// non-zero values mean tenants are being forced through replace/
    /// catch-up and the peer plane is undersized.
    pub peer_mem_revoked_delta: u64,
}

impl SaturationSnapshot {
    fn to_json(&self) -> String {
        format!(
            "{{\"window_stall_delta\": {}, \"doorbell_p99_ns\": {}, \"peer_mem_used_pct\": {}, \"peer_mem_revoked_delta\": {}}}",
            self.window_stall_delta,
            self.doorbell_p99_ns,
            self.peer_mem_used_pct,
            self.peer_mem_revoked_delta
        )
    }
}

/// Differencing state behind [`SaturationSnapshot`].
#[derive(Default)]
struct SaturationTracker {
    last_stall: u64,
    last_revoked: u64,
    /// Last cumulative snapshot of `ncl.record.doorbell`.
    last_doorbell: Histogram,
}

impl SaturationTracker {
    fn tick(&mut self, tel: &Telemetry, hists: &[(String, Histogram)]) -> SaturationSnapshot {
        let stall = tel.counter_value("ncl.window.stall");
        let window_stall_delta = stall.saturating_sub(self.last_stall);
        self.last_stall = stall;

        let revoked = tel.counter_value("peer.mem.revoked_regions");
        let peer_mem_revoked_delta = revoked.saturating_sub(self.last_revoked);
        self.last_revoked = revoked;
        let mem_total = tel.gauge_value("peer.mem.total_bytes").max(0) as u64;
        let mem_used = tel.gauge_value("peer.mem.used_bytes").max(0) as u64;
        let peer_mem_used_pct = if mem_total == 0 {
            0
        } else {
            (mem_used as u128 * 100 / mem_total as u128) as u64
        };

        let doorbell_p99_ns = match hists.iter().find(|(n, _)| n == "ncl.record.doorbell") {
            Some((_, current)) => {
                let window = current.diff(&self.last_doorbell);
                self.last_doorbell = current.clone();
                window.percentile(99.0).unwrap_or(0)
            }
            None => 0,
        };
        SaturationSnapshot {
            window_stall_delta,
            doorbell_p99_ns,
            peer_mem_used_pct,
            peer_mem_revoked_delta,
        }
    }
}

/// One tick's full health evaluation.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Telemetry-clock timestamp of the tick (ns).
    pub t_ns: u64,
    /// Worst status across all objectives.
    pub status: SloStatus,
    /// Per-objective states.
    pub slos: Vec<SloState>,
    /// Saturation signals for the same window.
    pub saturation: SaturationSnapshot,
}

impl HealthReport {
    /// True when any objective is breached.
    pub fn breached(&self) -> bool {
        self.status == SloStatus::Breached
    }

    /// Renders the report as one JSON object (the `/health` body).
    pub fn to_json(&self) -> String {
        let slos = self
            .slos
            .iter()
            .map(SloState::to_json)
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"t_ns\": {}, \"status\": \"{}\", \"slos\": [{slos}], \"saturation\": {}}}",
            self.t_ns,
            self.status.as_str(),
            self.saturation.to_json()
        )
    }
}

type BreachHook = Arc<dyn Fn(&HealthReport) + Send + Sync>;

struct PlaneInner {
    trackers: Vec<SloTracker>,
    saturation: SaturationTracker,
    last_report: Option<HealthReport>,
    last_tick_ns: u64,
    min_tick_gap_ns: u64,
    on_breach: Option<BreachHook>,
    was_breached: bool,
}

/// The health plane: a set of objectives plus saturation signals over one
/// [`Telemetry`] handle. Cloning shares state; ticks are serialized.
#[derive(Clone)]
pub struct SloPlane {
    tel: Telemetry,
    inner: Arc<Mutex<PlaneInner>>,
}

impl SloPlane {
    /// An empty plane over `tel`.
    pub fn new(tel: Telemetry) -> Self {
        SloPlane {
            tel,
            inner: Arc::new(Mutex::new(PlaneInner {
                trackers: Vec::new(),
                saturation: SaturationTracker::default(),
                last_report: None,
                last_tick_ns: 0,
                min_tick_gap_ns: Duration::from_millis(25).as_nanos() as u64,
                on_breach: None,
                was_breached: false,
            })),
        }
    }

    /// A plane preloaded with loose objectives over the NCL write stages —
    /// wide enough that a healthy testbed never trips them, tight enough
    /// that a saturated one does.
    pub fn with_ncl_objectives(tel: Telemetry) -> Self {
        let plane = SloPlane::new(tel);
        plane.add(SloSpec::new("ncl-e2e", "ncl.record.e2e", 5_000_000, 0.05));
        plane.add(SloSpec::new(
            "ncl-doorbell",
            "ncl.record.doorbell",
            2_000_000,
            0.05,
        ));
        plane
    }

    /// Adds an objective. Takes effect on the next tick.
    pub fn add(&self, spec: SloSpec) {
        self.inner
            .lock()
            .expect("slo plane poisoned")
            .trackers
            .push(SloTracker::new(spec));
    }

    /// Registers a hook fired once per transition *into* breached (and again
    /// only after the plane has recovered). Used to dump the flight recorder.
    pub fn on_breach(&self, hook: impl Fn(&HealthReport) + Send + Sync + 'static) {
        self.inner.lock().expect("slo plane poisoned").on_breach = Some(Arc::new(hook));
    }

    /// Minimum telemetry-clock gap between [`SloPlane::maybe_tick`] ticks.
    pub fn set_min_tick_gap(&self, gap: Duration) {
        self.inner
            .lock()
            .expect("slo plane poisoned")
            .min_tick_gap_ns = gap.as_nanos() as u64;
    }

    /// Closes the current window on every objective and returns the report.
    pub fn tick(&self) -> HealthReport {
        let hists = self.tel.histograms_full();
        let (report, hook) = {
            let mut inner = self.inner.lock().expect("slo plane poisoned");
            let mut slos = Vec::with_capacity(inner.trackers.len());
            for tracker in &mut inner.trackers {
                let current = hists
                    .iter()
                    .find(|(n, _)| *n == tracker.spec().histogram)
                    .map(|(_, h)| h.clone())
                    .unwrap_or_default();
                slos.push(tracker.observe(&current));
            }
            let saturation = inner.saturation.tick(&self.tel, &hists);
            let status = slos
                .iter()
                .map(|s| s.status)
                .max()
                .unwrap_or(SloStatus::Healthy);
            let report = HealthReport {
                t_ns: self.tel.now_ns(),
                status,
                slos,
                saturation,
            };
            self.export_gauges(&report);
            let entered_breach = report.breached() && !inner.was_breached;
            inner.was_breached = report.breached();
            inner.last_tick_ns = report.t_ns;
            inner.last_report = Some(report.clone());
            let hook = if entered_breach {
                inner.on_breach.clone()
            } else {
                None
            };
            (report, hook)
        };
        // Fire outside the lock: the hook may itself read the plane.
        if let Some(hook) = hook {
            hook(&report);
        }
        report
    }

    /// Ticks if at least the configured gap has passed since the last tick,
    /// otherwise returns the cached report. This is what `/health` calls, so
    /// hammering the endpoint cannot shrink windows to nothing.
    pub fn maybe_tick(&self) -> HealthReport {
        let due = {
            let inner = self.inner.lock().expect("slo plane poisoned");
            inner.last_report.is_none()
                || self.tel.now_ns().saturating_sub(inner.last_tick_ns) >= inner.min_tick_gap_ns
        };
        if due {
            self.tick()
        } else {
            self.inner
                .lock()
                .expect("slo plane poisoned")
                .last_report
                .clone()
                .expect("cached report present")
        }
    }

    /// The most recent report, if any tick has run.
    pub fn last_report(&self) -> Option<HealthReport> {
        self.inner
            .lock()
            .expect("slo plane poisoned")
            .last_report
            .clone()
    }

    /// Mirrors a report into gauges so `/metrics` exports the health plane.
    fn export_gauges(&self, report: &HealthReport) {
        let milli = |x: f64| (x * 1000.0).round().clamp(0.0, i64::MAX as f64) as i64;
        self.tel.gauge("slo.status").set(report.status.code());
        for s in &report.slos {
            self.tel
                .gauge(&format!("slo.{}.fast_burn_milli", s.name))
                .set(milli(s.fast_burn));
            self.tel
                .gauge(&format!("slo.{}.slow_burn_milli", s.name))
                .set(milli(s.slow_burn));
            self.tel
                .gauge(&format!("slo.{}.status", s.name))
                .set(s.status.code());
        }
        let sat = &report.saturation;
        self.tel
            .gauge("slo.saturation.window_stall")
            .set(sat.window_stall_delta.min(i64::MAX as u64) as i64);
        self.tel
            .gauge("slo.saturation.doorbell_p99_ns")
            .set(sat.doorbell_p99_ns.min(i64::MAX as u64) as i64);
        self.tel
            .gauge("slo.saturation.peer_mem_used_pct")
            .set(sat.peer_mem_used_pct.min(i64::MAX as u64) as i64);
        self.tel
            .gauge("slo.saturation.peer_mem_revoked")
            .set(sat.peer_mem_revoked_delta.min(i64::MAX as u64) as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a cumulative histogram by recording `good` samples below and
    /// `bad` samples above the 50 ns threshold onto `base`. Values stay in
    /// the histogram's linear (exact) region so bucket granularity cannot
    /// blur the good/bad classification.
    fn advance(base: &mut Histogram, good: u64, bad: u64) -> Histogram {
        for _ in 0..good {
            base.record(10);
        }
        for _ in 0..bad {
            base.record(60);
        }
        base.clone()
    }

    fn spec() -> SloSpec {
        SloSpec::new("t", "h", 50, 0.1).windows(1, 3)
    }

    #[test]
    fn burn_rate_is_bad_fraction_over_budget() {
        let mut tracker = SloTracker::new(spec());
        let mut cum = Histogram::new();
        let state = tracker.observe(&advance(&mut cum, 80, 20));
        assert_eq!(state.window_total, 100);
        assert_eq!(state.window_bad, 20);
        // bad fraction 0.2 over budget 0.1 → burn 2.0, exactly.
        assert!((state.fast_burn - 2.0).abs() < 1e-9, "{}", state.fast_burn);
        assert_eq!(state.status, SloStatus::Breached);
    }

    #[test]
    fn samples_at_the_threshold_are_good() {
        let mut tracker = SloTracker::new(spec());
        let mut cum = Histogram::new();
        cum.record(50); // exactly at threshold
        cum.record(49);
        let state = tracker.observe(&cum);
        assert_eq!(state.window_bad, 0);
        assert_eq!(state.status, SloStatus::Healthy);
    }

    #[test]
    fn idle_windows_do_not_burn() {
        let mut tracker = SloTracker::new(spec());
        let state = tracker.observe(&Histogram::new());
        assert_eq!(state.window_total, 0);
        assert_eq!(state.fast_burn, 0.0);
        assert_eq!(state.status, SloStatus::Healthy);
    }

    /// The satellite's window-boundary case: a burst of bad samples must
    /// stop burning the fast window on the very next tick, and fall out of
    /// the slow window exactly when it ages past `slow_windows` ticks — no
    /// leakage in either direction.
    #[test]
    fn burn_windows_forget_at_exact_boundaries() {
        let mut tracker = SloTracker::new(spec()); // fast=1, slow=3
        let mut cum = Histogram::new();

        // Tick 1: all bad. One window of history, both spans burning.
        let s1 = tracker.observe(&advance(&mut cum, 0, 10));
        assert_eq!(s1.status, SloStatus::Breached);
        assert!((s1.fast_burn - 10.0).abs() < 1e-9); // 1.0 / 0.1

        // Ticks 2 and 3: all good. Fast window (1 tick) forgets instantly…
        let s2 = tracker.observe(&advance(&mut cum, 10, 0));
        assert_eq!(s2.status, SloStatus::Healthy);
        assert_eq!(s2.fast_burn, 0.0);
        // …while the slow window still remembers the burst: 10 bad of 20.
        assert!((s2.slow_burn - 5.0).abs() < 1e-9, "{}", s2.slow_burn);
        let s3 = tracker.observe(&advance(&mut cum, 10, 0));
        assert!((s3.slow_burn - (10.0 / 30.0) / 0.1).abs() < 1e-9);

        // Tick 4: the burst ages out of the 3-tick slow window entirely.
        let s4 = tracker.observe(&advance(&mut cum, 10, 0));
        assert_eq!(s4.slow_burn, 0.0);
        assert_eq!(s4.status, SloStatus::Healthy);
    }

    /// Warning = fast window burning but the slow window not yet: the onset
    /// tick of an overload after a long healthy run.
    #[test]
    fn onset_is_warning_until_sustained() {
        let spec = SloSpec::new("t", "h", 50, 0.1).windows(1, 4);
        let mut tracker = SloTracker::new(spec);
        let mut cum = Histogram::new();
        for _ in 0..3 {
            let s = tracker.observe(&advance(&mut cum, 100, 0));
            assert_eq!(s.status, SloStatus::Healthy);
        }
        // Fast burn = 1.0/0.1 = 10; slow burn = (10/310)/0.1 ≈ 0.32.
        let onset = tracker.observe(&advance(&mut cum, 0, 10));
        assert_eq!(onset.status, SloStatus::Warning);
        // Sustained overload flips the slow window too.
        let mut last = onset;
        for _ in 0..4 {
            last = tracker.observe(&advance(&mut cum, 0, 100));
        }
        assert_eq!(last.status, SloStatus::Breached);
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
        let mut tracker = SloTracker::new(SloSpec::new("t", "lat", 1_500, 0.1));
        let mut seen = 0;
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
                seen += tracker.observe(&h.load()).window_total;
                std::thread::yield_now();
            }
        });
        // One final tick drains whatever the racing ticks missed.
        seen += tracker.observe(&h.load()).window_total;
        assert_eq!(seen, WRITERS as u64 * PER_WRITER);
    }

    #[test]
    fn plane_reports_worst_status_and_exports_gauges() {
        let tel = Telemetry::new();
        let plane = SloPlane::new(tel.clone());
        plane.add(SloSpec::new("fast-slo", "a", 50, 0.1).windows(1, 1));
        plane.add(SloSpec::new("ok-slo", "b", 50, 0.1).windows(1, 1));
        let a = tel.histogram("a");
        let b = tel.histogram("b");
        for _ in 0..10 {
            a.record(60);
            b.record(10);
        }
        let report = plane.tick();
        assert!(report.breached());
        assert_eq!(report.slos.len(), 2);
        let json = report.to_json();
        assert!(json.contains("\"status\": \"breached\""));
        assert!(json.contains("\"name\": \"fast-slo\""));
        let snap = tel.snapshot();
        let gauge = |n: &str| {
            snap.gauges
                .iter()
                .find(|(g, _)| g == n)
                .map(|(_, v)| *v)
                .unwrap_or(i64::MIN)
        };
        assert_eq!(gauge("slo.status"), 2);
        assert_eq!(gauge("slo.fast-slo.status"), 2);
        assert_eq!(gauge("slo.fast-slo.fast_burn_milli"), 10_000);
        assert_eq!(gauge("slo.ok-slo.status"), 0);
    }

    #[test]
    fn breach_hook_fires_once_per_transition() {
        let tel = Telemetry::new();
        let plane = SloPlane::new(tel.clone());
        plane.add(SloSpec::new("s", "h", 50, 0.1).windows(1, 1));
        let fired = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let fired2 = Arc::clone(&fired);
        plane.on_breach(move |r| {
            assert!(r.breached());
            fired2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        });
        let h = tel.histogram("h");
        use std::sync::atomic::Ordering::SeqCst;
        h.record(60);
        plane.tick();
        assert_eq!(fired.load(SeqCst), 1);
        // Still breached: no re-fire.
        h.record(60);
        plane.tick();
        assert_eq!(fired.load(SeqCst), 1);
        // Recover, then breach again: fires once more.
        for _ in 0..100 {
            h.record(10);
        }
        plane.tick();
        assert_eq!(plane.last_report().unwrap().status, SloStatus::Healthy);
        h.record(60);
        for _ in 0..2 {
            h.record(60);
        }
        plane.tick();
        assert_eq!(fired.load(SeqCst), 2);
    }

    #[test]
    fn saturation_reads_stall_and_the_doorbell_p99() {
        let tel = Telemetry::new();
        let plane = SloPlane::new(tel.clone());
        tel.counter("ncl.window.stall").add(7);
        let doorbell = tel.histogram("ncl.record.doorbell");
        for _ in 0..300 {
            doorbell.record(1_000);
        }
        for _ in 0..10 {
            doorbell.record(100_000);
        }
        let report = plane.tick();
        let sat = &report.saturation;
        assert_eq!(sat.window_stall_delta, 7);
        // 10 of 310 samples are slow, so the p99 is theirs (~3% buckets).
        assert!(sat.doorbell_p99_ns >= 95_000, "{}", sat.doorbell_p99_ns);
        assert_eq!(
            tel.gauge_value("slo.saturation.doorbell_p99_ns"),
            sat.doorbell_p99_ns as i64
        );
        // A second, idle tick: the window is empty, so both read zero.
        let report = plane.tick();
        assert_eq!(report.saturation.window_stall_delta, 0);
        assert_eq!(report.saturation.doorbell_p99_ns, 0);
    }

    #[test]
    fn saturation_reads_peer_memory_pressure() {
        let tel = Telemetry::new();
        let plane = SloPlane::new(tel.clone());
        tel.gauge("peer.mem.total_bytes").set(1000);
        tel.gauge("peer.mem.used_bytes").set(800);
        tel.counter("peer.mem.revoked_regions").add(3);
        let report = plane.tick();
        assert_eq!(report.saturation.peer_mem_used_pct, 80);
        assert_eq!(report.saturation.peer_mem_revoked_delta, 3);
        assert!(report.to_json().contains("\"peer_mem_used_pct\": 80"));
        // Second tick: the revocation delta resets, utilisation persists.
        let report = plane.tick();
        assert_eq!(report.saturation.peer_mem_revoked_delta, 0);
        assert_eq!(report.saturation.peer_mem_used_pct, 80);
    }

    #[test]
    fn maybe_tick_is_rate_limited() {
        let tel = Telemetry::new();
        let plane = SloPlane::new(tel.clone());
        plane.set_min_tick_gap(Duration::from_secs(3600));
        plane.add(SloSpec::new("s", "h", 50, 0.1));
        let first = plane.maybe_tick();
        tel.histogram("h").record(60);
        // Within the gap: the cached report comes back, no new window.
        let second = plane.maybe_tick();
        assert_eq!(first.t_ns, second.t_ns);
        assert_eq!(second.status, SloStatus::Healthy);
        plane.set_min_tick_gap(Duration::from_nanos(0));
        let third = plane.maybe_tick();
        assert_ne!(third.status, SloStatus::Healthy);
    }
}
