//! Observability substrate for the SplitFT reproduction.
//!
//! Zero dependencies (std only), so every layer — the simulated RDMA verbs,
//! the NCL core, splitfs, the apps, the benches — can depend on it without
//! cycles. Three pieces:
//!
//! * a lock-free **metrics registry** ([`Counter`], [`Gauge`], [`HistHandle`])
//!   whose handles are interned by name at component construction and cost a
//!   few relaxed atomic ops per stamp on the hot path;
//! * **per-stage latency histograms** ([`Histogram`], promoted from
//!   `sim::stats`): record lifecycles are timestamped at stage → doorbell →
//!   wire → ack boundaries and aggregated, one stamp per burst of records
//!   ([`HistHandle::record_n`]);
//! * **causal spans** ([`Span`], two bounded rings + an optional JSONL
//!   sink), the one record of what happened: every NCL burst gets a `trace`
//!   id when its first record is staged, whose span tree reconstructs the
//!   full durability chain of its record range (stage → doorbell → per-peer
//!   wire → quorum ack); every control operation is a tree of phases under
//!   an `ncl.{create,recover,repair}` root, from which Table 3-style
//!   timelines fall out; and every point transition is a zero-length *fact*
//!   ([`Telemetry::fact`]). Spans are consumed by the exporters in
//!   [`export`] and by the invariant engine in [`checker`]: live through
//!   [`monitor`], judged on the thread that records them, and offline
//!   through [`analyze`].
//!
//! A [`Telemetry`] value is a cheap cloneable handle; all clones share one
//! registry, one pair of rings and, once attached, one monitor. Only the
//! HTTP exporter's accept loop owns a thread. [`Telemetry::disabled`]
//! yields a handle whose metric handles are no-ops and which records no
//! span.
//! What the enabled path costs against it is measured, not gated: splitbench
//! reports it per workload as `telemetry.on_over_off`, and span emission can
//! be turned off separately via [`Telemetry::set_tracing`].
//!
//! ```
//! let tel = telemetry::Telemetry::new();
//! let flushes = tel.counter("ncl.flush.submit");   // cache at construction
//! let wire = tel.histogram("ncl.record.wire");
//! flushes.inc();                                    // hot path: one atomic
//! wire.record(1_500);
//! let snap = tel.snapshot();
//! assert_eq!(snap.counter("ncl.flush.submit"), 1);
//! println!("{}", snap.render_text());
//! ```

pub mod analyze;
pub mod checker;
pub mod export;
pub mod flight;
mod hist;
mod metrics;
pub mod monitor;
mod ring;
mod slo;
mod snapshot;
mod span;

pub use checker::{MonitorReport, Violation};
pub use flight::FlightRecorder;
pub use hist::{Histogram, Summary, OVERFLOW_LIMIT};
pub use metrics::{Counter, Gauge, HistHandle};
pub use monitor::OnlineMonitor;
pub use slo::{
    HealthReport, SaturationSnapshot, SloPlane, SloSpec, SloState, SloStatus, SloTracker,
};
pub use snapshot::{json_escape, TelemetrySnapshot};
pub use span::{intern_scope, spans, Span};

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

struct Inner {
    registry: metrics::Registry,
    spans: span::SpanTrace,
    /// Zero point of every timestamp in this handle's spans.
    origin: Instant,
    /// Shared generator for trace ids AND span ids; starts at 1 so id 0 can
    /// mean "none" everywhere.
    ids: AtomicU64,
    /// Span emission switch (facts included); metrics stay on when this is
    /// off.
    tracing: AtomicBool,
    /// The attached [`OnlineMonitor`]'s core, installed by the first attach
    /// and kept for this handle's life. Every recording call reads it (one
    /// `OnceLock` load) and, when it is set, feeds the checker itself. The
    /// core holds no handle back, so there is no cycle unless a violation
    /// hook captures one.
    monitor: OnceLock<monitor::MonitorCore>,
    /// Latched on the first in-memory ring drop (the `trace-truncated`
    /// fact is recorded exactly once).
    truncated: AtomicBool,
}

/// Shared handle to one metrics registry + span trace.
///
/// Cloning is an `Arc` bump; a disabled handle carries no storage at all.
/// Embedded in `NclConfig`, so every component wired from one config reports
/// into the same registry.
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Default for Telemetry {
    /// Enabled, so instrumentation is on unless explicitly opted out. It is
    /// not free: a burst of records closes seven spans on three peers and
    /// stamps each stage histogram once, and what that costs a write is
    /// measured per workload as splitbench's `telemetry.on_over_off`
    /// (DESIGN.md §6c).
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// A fresh, enabled handle with its own registry and trace.
    pub fn new() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                registry: metrics::Registry::default(),
                spans: span::SpanTrace::default(),
                origin: Instant::now(),
                ids: AtomicU64::new(1),
                tracing: AtomicBool::new(true),
                monitor: OnceLock::new(),
                truncated: AtomicBool::new(false),
            })),
        }
    }

    /// A handle that records nothing: metric handles are no-ops, spans are
    /// discarded. Used as the baseline of the overhead gate.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// True when this handle retains what is recorded through it.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Interns (or reuses) the counter `name`. Cold path — cache the handle.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner
            .as_ref()
            .map_or_else(Counter::noop, |i| i.registry.counter(name))
    }

    /// Interns (or reuses) the gauge `name`. Cold path — cache the handle.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner
            .as_ref()
            .map_or_else(Gauge::noop, |i| i.registry.gauge(name))
    }

    /// Interns (or reuses) the histogram `name`. Cold path — cache the handle.
    pub fn histogram(&self, name: &str) -> HistHandle {
        self.inner
            .as_ref()
            .map_or_else(HistHandle::noop, |i| i.registry.histogram(name))
    }

    /// Convenience point read of a counter (0 when absent or disabled).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counter(name).get()
    }

    /// Convenience point read of a gauge (0 when absent or disabled).
    pub fn gauge_value(&self, name: &str) -> i64 {
        self.gauge(name).get()
    }

    /// Full (bucket-level) contents of every registered histogram, for
    /// exporters that need more than a [`Summary`].
    pub fn histograms_full(&self) -> Vec<(String, Histogram)> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.registry.histogram_values())
    }

    /// Nanoseconds since this handle was created — the clock every span
    /// timestamp is expressed in. Returns 0 when disabled.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.origin.elapsed().as_nanos() as u64)
    }

    /// Converts an [`Instant`] to this handle's `ts_ns` clock (saturating to
    /// 0 for instants before the handle was created).
    #[inline]
    pub fn instant_ns(&self, t: Instant) -> u64 {
        self.inner.as_ref().map_or(0, |i| {
            t.saturating_duration_since(i.origin).as_nanos() as u64
        })
    }

    /// Allocates a fresh trace id (also usable as a span id — one generator
    /// backs both, so ids are process-unique). Returns 0 when disabled or
    /// when tracing is off; callers treat 0 as "don't emit spans".
    #[inline]
    pub fn next_trace_id(&self) -> u64 {
        match &self.inner {
            Some(i) if i.tracing.load(Ordering::Relaxed) => i.ids.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        }
    }

    /// Turns span emission, facts included, on or off. Metrics are
    /// unaffected.
    /// Defaults to on; the bench overhead gate measures both settings.
    pub fn set_tracing(&self, on: bool) {
        if let Some(inner) = &self.inner {
            inner.tracing.store(on, Ordering::Relaxed);
        }
    }

    /// True when span emission is active.
    #[inline]
    pub fn tracing_enabled(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.tracing.load(Ordering::Relaxed))
    }

    /// Moves `spans` into `inner`'s rings, then feeds copies to the attached
    /// monitor, if any, on this thread (a hook that dumps the flight recorder
    /// finds the span that tripped it in the ring). The first ring drop
    /// records the `trace-truncated` fact, which the monitor sees ahead of
    /// the batch: the rings no longer show span completeness (the JSONL sink
    /// never drops).
    fn record(&self, inner: &Inner, spans: &mut Vec<Span>) {
        let monitored = inner.monitor.get().map(|m| (m, spans.clone()));
        if inner.spans.record(spans)
            && !inner.truncated.load(Ordering::Relaxed)
            && !inner.truncated.swap(true, Ordering::Relaxed)
        {
            let detail = "span ring overflow; oldest entries dropped";
            self.fact(spans::TRACE_TRUNCATED, "telemetry", 0, detail);
        }
        if let Some((m, copies)) = monitored {
            m.feed(self, &copies);
        }
    }

    /// Records a closed span. No-op when disabled, when tracing is off, or
    /// when `trace == 0` (the id a disabled handle hands out), so call sites
    /// can emit unconditionally. `scope` is `&'static str` on purpose: hot
    /// call sites intern it once ([`intern_scope`]) and recording stays
    /// allocation-free.
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &self,
        trace: u64,
        id: u64,
        parent: u64,
        name: &'static str,
        scope: &'static str,
        epoch: u64,
        start: Instant,
        end: Instant,
    ) {
        let Some(inner) = &self.inner else { return };
        if trace == 0 || !inner.tracing.load(Ordering::Relaxed) {
            return;
        }
        let span = self.closed_span(trace, id, parent, name, scope, epoch, (0, 0), start, end);
        self.record(inner, &mut vec![span]);
    }

    /// Builds the [`Span`] that [`Self::span`] would record, about the
    /// records `seq` (see [`Span::seq`]), without recording it: for callers
    /// that queue the spans of one operation and hand them over together
    /// ([`Self::record_spans`]). `id` is the trace id for a root, a
    /// [`Self::next_trace_id`] otherwise.
    #[allow(clippy::too_many_arguments)]
    pub fn closed_span(
        &self,
        trace: u64,
        id: u64,
        parent: u64,
        name: &'static str,
        scope: &'static str,
        epoch: u64,
        seq: (u64, u64),
        start: Instant,
        end: Instant,
    ) -> Span {
        let start_ns = self.instant_ns(start);
        Span {
            trace,
            id,
            parent,
            name,
            scope,
            epoch,
            seq,
            start_ns,
            end_ns: self.instant_ns(end).max(start_ns),
            detail: None,
        }
    }

    /// Records the closed spans in `spans`, in order, and empties it (the
    /// buffer's capacity stays with the caller). A path that closes several
    /// spans together — the seven of an NCL burst on three peers — hands
    /// them over in one call and pays the ring lock once, not per span.
    /// Callers build each one with [`Self::closed_span`]; spans of trace 0
    /// must not be queued. No-op (but still emptying) when disabled or
    /// tracing is off.
    pub fn record_spans(&self, spans: &mut Vec<Span>) {
        if let Some(inner) = &self.inner {
            if inner.tracing.load(Ordering::Relaxed) && !spans.is_empty() {
                self.record(inner, spans);
            }
        }
        spans.clear();
    }

    /// Records a closed span with a freshly allocated id and returns it
    /// (0 when nothing was recorded). Convenience for leaf children.
    #[allow(clippy::too_many_arguments)]
    pub fn span_auto(
        &self,
        trace: u64,
        parent: u64,
        name: &'static str,
        scope: &'static str,
        epoch: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if trace == 0 || !self.tracing_enabled() {
            return 0;
        }
        let id = self.next_trace_id();
        self.span(trace, id, parent, name, scope, epoch, start, end);
        id
    }

    /// Records a fact: a zero-length span stamped now, the root of a trace
    /// of its own, whose `detail` (none when empty) says what happened. Like
    /// every span, nothing is recorded when disabled or tracing is off.
    pub fn fact(&self, name: &'static str, scope: &str, epoch: u64, detail: impl AsRef<str>) {
        if let Some(fact) = self.fact_span(name, scope, epoch, detail.as_ref()) {
            self.record(self.inner.as_ref().expect("enabled"), &mut vec![fact]);
        }
    }

    /// The span [`Self::fact`] would record, not recorded: `None` when
    /// disabled or tracing is off.
    pub(crate) fn fact_span(
        &self,
        name: &'static str,
        scope: &str,
        epoch: u64,
        detail: &str,
    ) -> Option<Span> {
        let trace = self.next_trace_id();
        let now_ns = self.now_ns();
        (trace != 0).then(|| Span {
            trace,
            id: trace,
            name,
            scope: intern_scope(scope),
            epoch,
            start_ns: now_ns,
            end_ns: now_ns,
            detail: (!detail.is_empty()).then(|| detail.into()),
            ..Span::default()
        })
    }

    /// Every retained span: the fact-and-control ring, then the record
    /// ring, each oldest first (empty when disabled).
    pub fn spans(&self) -> Vec<Span> {
        let (mut control, record) = self.span_rings();
        control.extend(record);
        control
    }

    /// The two rings' contents, fact-and-control first, each oldest first.
    pub(crate) fn span_rings(&self) -> (Vec<Span>, Vec<Span>) {
        self.inner
            .as_ref()
            .map_or_else(Default::default, |i| i.spans.rings())
    }

    /// Caps the record ring at `capacity` entries (oldest evicted first).
    /// Facts and control-path spans keep a ring of their own, 4,096 entries.
    pub fn set_span_capacity(&self, capacity: usize) {
        if let Some(inner) = &self.inner {
            inner.spans.set_capacity(capacity);
        }
    }

    /// Mirrors every subsequent span to `path`, one JSON object per line.
    pub fn set_jsonl_sink(&self, path: &Path) -> std::io::Result<()> {
        match &self.inner {
            Some(inner) => inner.spans.set_sink(path),
            None => Ok(()),
        }
    }

    /// The attached online monitor, if any.
    pub fn online_monitor(&self) -> Option<OnlineMonitor> {
        self.inner.as_ref()?.monitor.get()?;
        Some(OnlineMonitor { tel: self.clone() })
    }

    /// Total entries dropped by the two span rings. The JSONL sink never
    /// drops; this counts only the bounded rings, and is what `/metrics`
    /// exports as `splitft_trace_dropped_total`.
    pub fn trace_dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.spans.dropped())
    }

    /// Freezes everything into a [`TelemetrySnapshot`].
    pub fn snapshot(&self) -> TelemetrySnapshot {
        match &self.inner {
            None => TelemetrySnapshot::default(),
            Some(inner) => TelemetrySnapshot {
                counters: inner.registry.counter_values(),
                gauges: inner.registry.gauge_values(),
                histograms: inner.registry.histogram_summaries(),
                spans: self.spans(),
                spans_dropped: inner.spans.dropped(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_storage() {
        let a = Telemetry::new();
        let b = a.clone();
        a.counter("c").inc();
        b.counter("c").inc();
        assert_eq!(a.counter_value("c"), 2);
        b.fact(spans::EPOCH_BUMP, "x", 1, "");
        assert_eq!(a.spans().len(), 1);
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.counter("c").inc();
        t.histogram("h").record(1);
        t.fact(spans::PEER_FAILURE, "p", 0, "");
        assert_eq!(t.next_trace_id(), 0);
        let now = Instant::now();
        t.span(1, 1, 0, spans::NCL_WRITE, "x", 0, now, now);
        let snap = t.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn separate_handles_are_isolated() {
        let a = Telemetry::new();
        let b = Telemetry::new();
        a.counter("c").inc();
        assert_eq!(b.counter_value("c"), 0);
    }

    #[test]
    fn snapshot_round_trips_through_renders() {
        let t = Telemetry::new();
        t.gauge("g").set(5);
        t.histogram("h").record(1_000);
        t.fact(spans::REGION_ALLOC, "app/f", 2, "peers=[a,b,c]");
        let snap = t.snapshot();
        assert!(snap.render_text().contains("region-alloc"));
        let json = snap.render_json();
        assert!(json.contains("\"g\": 5"));
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains("peers=[a,b,c]"));
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let t = Telemetry::new();
        let a = t.next_trace_id();
        let b = t.next_trace_id();
        assert!(a > 0 && b > 0 && a != b);
    }

    #[test]
    fn spans_record_and_respect_tracing_switch() {
        let t = Telemetry::new();
        let start = Instant::now();
        let trace = t.next_trace_id();
        let child = t.span_auto(
            trace,
            trace,
            spans::NCL_STAGE,
            "app/f",
            0,
            start,
            Instant::now(),
        );
        assert!(child > 0 && child != trace);
        t.span(
            trace,
            trace,
            0,
            spans::NCL_WRITE,
            "app/f",
            1,
            start,
            Instant::now(),
        );
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].id, trace);
        assert_eq!(spans[1].parent, 0);
        assert!(spans[0].end_ns >= spans[0].start_ns);

        t.set_tracing(false);
        assert_eq!(t.next_trace_id(), 0);
        t.span(
            trace,
            trace,
            0,
            spans::NCL_ACK,
            "app/f",
            1,
            start,
            Instant::now(),
        );
        t.fact(spans::PEER_SUSPECT, "peer-0", 1, "silent");
        assert_eq!(
            t.spans().len(),
            2,
            "no spans, facts included, while tracing is off"
        );
        t.set_tracing(true);
        assert!(t.next_trace_id() > 0);
    }

    #[test]
    fn jsonl_sink_mirrors_spans_and_facts_in_order() {
        let dir = std::env::temp_dir().join(format!("telemetry-lib-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mixed.jsonl");
        let t = Telemetry::new();
        t.set_jsonl_sink(&path).unwrap();
        let trace = t.next_trace_id();
        let start = Instant::now();
        t.span_auto(
            trace,
            trace,
            spans::NCL_STAGE,
            "app/f",
            0,
            start,
            Instant::now(),
        );
        t.fact(spans::DURABILITY_MODE, "app/\"f\"", 2, "ec k=2 n=3");
        t.span(
            trace,
            trace,
            0,
            spans::NCL_WRITE,
            "app/f",
            2,
            start,
            Instant::now(),
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| l.contains("\"type\": \"span\"")));
        assert!(lines[1].contains("\"name\": \"durability-mode\""));
        assert!(lines[1].contains("app/\\\"f\\\""), "escaped scope");
        assert!(lines[1].ends_with(", \"detail\": \"ec k=2 n=3\"}"));
        assert!(lines[2].contains("\"name\": \"ncl.write\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
