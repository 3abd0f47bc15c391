//! Per-shard reactor time-in-state profiling and a stall watchdog.
//!
//! The sharded NCL runtime's reactors loop `poll → park`
//! (`core/src/runtime.rs`). This module gives each shard a
//! [`ShardProfile`] handle the reactor samples at its poll boundaries:
//!
//! * **publish** — poll rounds that advanced at least one hosted file's
//!   durable watermark (productive completion reaping);
//! * **poll** — poll rounds that found nothing to publish;
//! * **park** — time blocked in the idle wait.
//!
//! All three are monotone nanosecond counters in the owning
//! [`Telemetry`]'s registry (`ncl.reactor.shard-<i>.poll_ns`, …), so they
//! flow to `/metrics` with no extra plumbing; a per-shard
//! `queue_depth` gauge rides along. `/profile` serves [`ProfileReport`] as
//! JSON.
//!
//! The **stall watchdog** is a single low-frequency thread that checks each
//! shard's heartbeat (stamped once per reactor loop): a reactor silent
//! longer than N idle periods gets a [`reactor-stall`](crate::events::REACTOR_STALL)
//! event, bumps `ncl.reactor.stall.total`, and raises the
//! `ncl.reactor.stalled` gauge — which the SLO plane's saturation tracker
//! folds into `/health`. The flag clears itself when the heartbeat resumes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::{events, Counter, Gauge, Telemetry};

/// Reactor idle period the watchdog reasons in (mirrors the runtime's
/// `REACTOR_IDLE`).
pub const DEFAULT_IDLE_PERIOD: Duration = Duration::from_millis(1);
/// Idle periods of silence before a reactor is declared stalled.
pub const DEFAULT_STALL_IDLE_PERIODS: u64 = 64;

/// Gauge the SLO saturation tracker reads: number of currently stalled
/// reactors.
pub const STALLED_GAUGE: &str = "ncl.reactor.stalled";
/// Counter of stall transitions (a flapping reactor counts each time).
pub const STALL_TOTAL: &str = "ncl.reactor.stall.total";

struct ShardProf {
    index: usize,
    poll_ns: Counter,
    publish_ns: Counter,
    park_ns: Counter,
    loops: Counter,
    publishes: Counter,
    queue_depth: Gauge,
    /// Stream-clock (`Telemetry::now_ns`) heartbeat, stamped per loop.
    last_beat_ns: AtomicU64,
    stalled: AtomicBool,
}

/// Per-shard recording handle, cloned into the shard's reactor thread.
/// Every method is a couple of relaxed atomics; when the owning telemetry
/// is disabled the handles are no-ops and [`enabled`](Self::enabled) lets
/// the reactor skip its timestamping entirely.
#[derive(Clone)]
pub struct ShardProfile {
    prof: Arc<ShardProf>,
    enabled: bool,
}

impl ShardProfile {
    /// True when samples recorded through this handle are retained; the
    /// reactor guards its `Instant::now` calls behind this.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Time spent draining hosted files this round; `progressed` is whether
    /// any file's durable watermark advanced (publish vs empty poll).
    #[inline]
    pub fn on_poll(&self, d: Duration, progressed: bool) {
        let ns = d.as_nanos() as u64;
        if progressed {
            self.prof.publish_ns.add(ns);
            self.prof.publishes.inc();
        } else {
            self.prof.poll_ns.add(ns);
        }
        self.prof.loops.inc();
    }

    /// Time spent parked in the idle wait.
    #[inline]
    pub fn on_park(&self, d: Duration) {
        self.prof.park_ns.add(d.as_nanos() as u64);
    }

    /// Stamps the heartbeat the stall watchdog watches (stream clock).
    #[inline]
    pub fn beat(&self, now_ns: u64) {
        self.prof.last_beat_ns.store(now_ns, Ordering::Relaxed);
    }

    /// Files currently hosted on this shard.
    #[inline]
    pub fn set_queue_depth(&self, depth: usize) {
        self.prof.queue_depth.set(depth as i64);
    }
}

/// One shard's profile, as served on `/profile`.
#[derive(Debug, Clone, Default)]
pub struct ShardRow {
    /// Shard index.
    pub shard: usize,
    /// Nanoseconds in empty poll rounds.
    pub poll_ns: u64,
    /// Nanoseconds in poll rounds that advanced a watermark.
    pub publish_ns: u64,
    /// Nanoseconds parked.
    pub park_ns: u64,
    /// Reactor loop iterations.
    pub loops: u64,
    /// Loops that advanced a watermark.
    pub publishes: u64,
    /// Current hosted-file count.
    pub queue_depth: i64,
    /// Stream-clock heartbeat age when the report was taken.
    pub beat_age_ns: u64,
    /// Whether the watchdog currently considers the reactor stalled.
    pub stalled: bool,
}

impl ShardRow {
    /// Share of non-parked time, in percent (0 when nothing recorded).
    pub fn busy_pct(&self) -> f64 {
        let busy = self.poll_ns + self.publish_ns;
        let total = busy + self.park_ns;
        if total == 0 {
            0.0
        } else {
            100.0 * busy as f64 / total as f64
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"shard\": {}, \"poll_ns\": {}, \"publish_ns\": {}, \"park_ns\": {}, \"loops\": {}, \"publishes\": {}, \"busy_pct\": {:.3}, \"queue_depth\": {}, \"beat_age_ns\": {}, \"stalled\": {}}}",
            self.shard,
            self.poll_ns,
            self.publish_ns,
            self.park_ns,
            self.loops,
            self.publishes,
            self.busy_pct(),
            self.queue_depth,
            self.beat_age_ns,
            self.stalled
        )
    }
}

/// Point-in-time profile across every shard (the `/profile` body).
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Stream-clock timestamp the report was taken at.
    pub t_ns: u64,
    /// Per-shard rows, index order.
    pub shards: Vec<ShardRow>,
    /// Total stall transitions observed.
    pub stalls_total: u64,
}

impl ProfileReport {
    /// Renders the report as one JSON object.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self.shards.iter().map(|s| s.to_json()).collect();
        format!(
            "{{\"t_ns\": {}, \"stalls_total\": {}, \"shards\": [{}]}}",
            self.t_ns,
            self.stalls_total,
            rows.join(", ")
        )
    }
}

struct ProfInner {
    tel: Telemetry,
    shards: Vec<Arc<ShardProf>>,
    stall_threshold_ns: u64,
    stall_total: Counter,
    stalled_gauge: Gauge,
    stop: Arc<AtomicBool>,
    watchdog: Mutex<Option<JoinHandle<()>>>,
}

/// Profiler for one sharded runtime; owned by `NclRuntime`, which hands a
/// [`ShardProfile`] to each reactor thread. Cloning shares state.
#[derive(Clone)]
pub struct ReactorProfiler {
    inner: Arc<ProfInner>,
}

impl std::fmt::Debug for ReactorProfiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorProfiler")
            .field("shards", &self.inner.shards.len())
            .finish()
    }
}

impl ReactorProfiler {
    /// Profiler with the default watchdog threshold (64 idle periods of
    /// 1ms). Disabled telemetry yields an inert profiler: no watchdog
    /// thread, no-op handles.
    pub fn new(tel: &Telemetry, shards: usize) -> Self {
        Self::with_limits(tel, shards, DEFAULT_IDLE_PERIOD, DEFAULT_STALL_IDLE_PERIODS)
    }

    /// Profiler with an explicit idle period and stall threshold.
    pub fn with_limits(
        tel: &Telemetry,
        shards: usize,
        idle_period: Duration,
        stall_idle_periods: u64,
    ) -> Self {
        let now = tel.now_ns();
        let shard_profs: Vec<Arc<ShardProf>> = (0..shards.max(1))
            .map(|i| {
                let n = |metric: &str| format!("ncl.reactor.shard-{i}.{metric}");
                Arc::new(ShardProf {
                    index: i,
                    poll_ns: tel.counter(&n("poll_ns")),
                    publish_ns: tel.counter(&n("publish_ns")),
                    park_ns: tel.counter(&n("park_ns")),
                    loops: tel.counter(&n("loops")),
                    publishes: tel.counter(&n("publishes")),
                    queue_depth: tel.gauge(&n("queue_depth")),
                    last_beat_ns: AtomicU64::new(now),
                    stalled: AtomicBool::new(false),
                })
            })
            .collect();
        let stall_threshold_ns =
            (idle_period.as_nanos() as u64).saturating_mul(stall_idle_periods.max(1));
        let inner = Arc::new(ProfInner {
            tel: tel.clone(),
            shards: shard_profs,
            stall_threshold_ns,
            stall_total: tel.counter(STALL_TOTAL),
            stalled_gauge: tel.gauge(STALLED_GAUGE),
            stop: Arc::new(AtomicBool::new(false)),
            watchdog: Mutex::new(None),
        });
        let profiler = ReactorProfiler { inner };
        if tel.is_enabled() {
            let weak = Arc::downgrade(&profiler.inner);
            let stop = Arc::clone(&profiler.inner.stop);
            let interval = Duration::from_nanos((stall_threshold_ns / 2).clamp(
                5_000_000, // never spin faster than 5ms
                1_000_000_000,
            ));
            let handle = std::thread::Builder::new()
                .name("ncl-prof-watchdog".to_string())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        std::thread::sleep(interval);
                        let Some(inner) = weak.upgrade() else { break };
                        Self::check_stalls_inner(&inner);
                    }
                })
                .expect("spawn profiler watchdog");
            *profiler.inner.watchdog.lock().expect("watchdog poisoned") = Some(handle);
        }
        profiler
    }

    /// Number of shards profiled.
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// The recording handle for shard `i`.
    pub fn shard(&self, i: usize) -> ShardProfile {
        ShardProfile {
            prof: Arc::clone(&self.inner.shards[i % self.inner.shards.len()]),
            enabled: self.inner.tel.is_enabled(),
        }
    }

    /// One watchdog round: flags reactors silent past the threshold, clears
    /// recovered ones. Returns the number currently stalled. Runs from the
    /// watchdog thread; callable directly from tests and `/profile`.
    pub fn check_stalls(&self) -> usize {
        Self::check_stalls_inner(&self.inner)
    }

    fn check_stalls_inner(inner: &ProfInner) -> usize {
        let now = inner.tel.now_ns();
        let mut stalled = 0;
        for shard in &inner.shards {
            let beat = shard.last_beat_ns.load(Ordering::Relaxed);
            let silent = now.saturating_sub(beat);
            if silent > inner.stall_threshold_ns {
                stalled += 1;
                if !shard.stalled.swap(true, Ordering::Relaxed) {
                    inner.stall_total.inc();
                    inner.tel.event(
                        events::REACTOR_STALL,
                        &format!("ncl.shard-{}", shard.index),
                        0,
                        format!(
                            "silent {}ms (threshold {}ms)",
                            silent / 1_000_000,
                            inner.stall_threshold_ns / 1_000_000
                        ),
                    );
                }
            } else {
                shard.stalled.store(false, Ordering::Relaxed);
            }
        }
        inner.stalled_gauge.set(stalled as i64);
        stalled
    }

    /// Point-in-time profile across every shard.
    pub fn report(&self) -> ProfileReport {
        let now = self.inner.tel.now_ns();
        ProfileReport {
            t_ns: now,
            stalls_total: self.inner.stall_total.get(),
            shards: self
                .inner
                .shards
                .iter()
                .map(|s| ShardRow {
                    shard: s.index,
                    poll_ns: s.poll_ns.get(),
                    publish_ns: s.publish_ns.get(),
                    park_ns: s.park_ns.get(),
                    loops: s.loops.get(),
                    publishes: s.publishes.get(),
                    queue_depth: s.queue_depth.get(),
                    beat_age_ns: now.saturating_sub(s.last_beat_ns.load(Ordering::Relaxed)),
                    stalled: s.stalled.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    /// `/profile` body: the current report as JSON (refreshing the stall
    /// flags first, so a scrape never reports a stale verdict).
    pub fn render_json(&self) -> String {
        self.check_stalls();
        self.report().to_json()
    }
}

impl Drop for ProfInner {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.watchdog.lock().expect("watchdog poisoned").take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_in_state_accumulates_and_exports() {
        let tel = Telemetry::new();
        let prof = ReactorProfiler::new(&tel, 2);
        let s0 = prof.shard(0);
        assert!(s0.enabled());
        s0.on_poll(Duration::from_micros(10), true);
        s0.on_poll(Duration::from_micros(3), false);
        s0.on_park(Duration::from_millis(1));
        s0.set_queue_depth(2);
        let report = prof.report();
        assert_eq!(report.shards.len(), 2);
        let row = &report.shards[0];
        assert_eq!(row.publish_ns, 10_000);
        assert_eq!(row.poll_ns, 3_000);
        assert_eq!(row.park_ns, 1_000_000);
        assert_eq!(row.loops, 2);
        assert_eq!(row.publishes, 1);
        assert_eq!(row.queue_depth, 2);
        assert!(row.busy_pct() > 0.0 && row.busy_pct() < 100.0);
        // The counters flow into the shared registry (→ /metrics).
        assert_eq!(tel.counter_value("ncl.reactor.shard-0.publish_ns"), 10_000);
        assert_eq!(tel.gauge_value("ncl.reactor.shard-0.queue_depth"), 2);
        let json = prof.render_json();
        assert!(json.contains("\"shard\": 1"));
        assert!(json.contains("\"busy_pct\""));
    }

    #[test]
    fn stall_watchdog_flags_silent_reactors_and_clears_on_beat() {
        let tel = Telemetry::new();
        // 1ns idle period, threshold 1 → everything is instantly stale.
        let prof = ReactorProfiler::with_limits(&tel, 1, Duration::from_nanos(1), 1);
        let s0 = prof.shard(0);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(prof.check_stalls(), 1);
        assert_eq!(tel.counter_value(STALL_TOTAL), 1);
        assert_eq!(tel.gauge_value(STALLED_GAUGE), 1);
        assert!(tel.events().iter().any(|e| e.kind == events::REACTOR_STALL));
        // A flapping reactor re-counts, but only per transition.
        assert_eq!(prof.check_stalls(), 1);
        assert_eq!(tel.counter_value(STALL_TOTAL), 1);
        s0.beat(tel.now_ns());
        // Within threshold right after the beat? The 1ns threshold makes
        // this racy, so only assert the clear path via a huge threshold.
        let prof2 = ReactorProfiler::with_limits(&tel, 1, Duration::from_secs(1), 1000);
        prof2.shard(0).beat(tel.now_ns());
        assert_eq!(prof2.check_stalls(), 0);
    }

    #[test]
    fn disabled_telemetry_yields_inert_profiler() {
        let tel = Telemetry::disabled();
        let prof = ReactorProfiler::new(&tel, 4);
        let s = prof.shard(3);
        assert!(!s.enabled());
        s.on_poll(Duration::from_micros(5), true);
        let report = prof.report();
        assert_eq!(report.shards[3].publish_ns, 0);
        assert_eq!(
            prof.check_stalls(),
            0,
            "frozen clock never exceeds threshold"
        );
    }
}
