//! Black-box flight recorder: a bounded capture of recent spans, events,
//! and counter deltas, dumped to JSONL when something goes wrong.
//!
//! The in-memory rings ([`crate::Telemetry`]'s span and event buffers)
//! already retain recent history; what they lack is a *disciplined exit*: a
//! crashing or breaching process should leave behind a file that the
//! existing offline tooling (`trace_analyzer --check`, i.e.
//! [`crate::analyze`]) ingests as-is. [`FlightRecorder`] provides that:
//!
//! * **Bounded per-scope retention** — the dump keeps the most recent
//!   `per_scope` traces for each root scope (one file per scope, so a noisy
//!   file cannot evict the others' history);
//! * **Complete traces only** — ring eviction can behead a trace (children
//!   are recorded before their root, so the oldest spans of a rooted trace
//!   go first). A dump containing a beheaded acked write would *manufacture*
//!   invariant violations, so the rings are run through a
//!   [`Checker`] and every rooted trace its span-completeness rules reject
//!   ([`Checker::is_complete`]) is dropped from the dump and counted
//!   instead — the predicate that filters the dump is the one that will
//!   judge it;
//! * **Counter deltas** — [`FlightRecorder::tick`] snapshots every counter
//!   and retains a bounded ring of per-tick deltas, encoded in the dump as
//!   `flight-counter-delta` events (unknown kinds pass [`crate::analyze`]
//!   untouched), so the last seconds of rate information survive the crash;
//! * **Trigger plumbing** — [`FlightRecorder::dump`] for explicit triggers
//!   (SLO breach hooks, chaos-assert failures) and
//!   [`FlightRecorder::install_panic_hook`] for panics.
//!
//! Dump files are named `trace-flight-<tag>.jsonl` so a directory of them is
//! checkable with `trace_analyzer --check <dir>`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::checker::Checker;
use crate::ring::Ring;
use crate::{Event, Span, Telemetry};

/// Event kind of the dump's header line.
pub const FLIGHT_DUMP_KIND: &str = "flight-dump";
/// Event kind carrying one counter's delta for one tick.
pub const FLIGHT_COUNTER_KIND: &str = "flight-counter-delta";

/// One counter-tick: deltas of every counter that moved since the previous
/// tick.
#[derive(Debug, Clone)]
struct CounterTick {
    t_ns: u64,
    deltas: Vec<(String, u64)>,
}

struct CounterState {
    last: BTreeMap<String, u64>,
    ticks: Ring<CounterTick>,
}

struct Inner {
    tel: Telemetry,
    per_scope: usize,
    quorum: usize,
    counters: Mutex<CounterState>,
}

/// The filtered content of one capture, ready to serialize.
#[derive(Debug, Default)]
pub struct FlightDump {
    /// Spans that survived completeness filtering, start-ordered.
    pub spans: Vec<Span>,
    /// Control-plane events, time-ordered.
    pub events: Vec<Event>,
    /// Counter-delta events (kind [`FLIGHT_COUNTER_KIND`]), time-ordered.
    pub counter_events: Vec<Event>,
    /// Rooted traces dropped because eviction left them incomplete.
    pub dropped_traces: usize,
    /// Traces trimmed by the per-scope retention bound.
    pub trimmed_traces: usize,
}

impl FlightDump {
    /// Serializes the dump as a `trace_analyzer`-compatible JSONL document:
    /// a header event, then events + counter deltas, then spans.
    pub fn to_jsonl(&self, tel: &Telemetry, reason: &str) -> String {
        let header = Event {
            ts_ns: tel.now_ns(),
            kind: FLIGHT_DUMP_KIND,
            scope: "flight".into(),
            epoch: 0,
            trace: 0,
            detail: format!(
                "reason={reason} spans={} events={} counter_ticks_events={} dropped_traces={} trimmed_traces={}",
                self.spans.len(),
                self.events.len(),
                self.counter_events.len(),
                self.dropped_traces,
                self.trimmed_traces
            ),
        };
        let mut out = String::new();
        out.push_str(&header.to_json());
        out.push('\n');
        for ev in self.events.iter().chain(self.counter_events.iter()) {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        for sp in &self.spans {
            out.push_str(&sp.to_json());
            out.push('\n');
        }
        out
    }
}

/// Shared handle to one flight recorder; cloning shares state (the panic
/// hook holds a clone).
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<Inner>,
}

impl FlightRecorder {
    /// A recorder over `tel` with default bounds: 32 traces per scope, 64
    /// retained counter ticks, write quorum 2 (the 3-replica default).
    pub fn new(tel: Telemetry) -> Self {
        Self::with_limits(tel, 32, 64, 2)
    }

    /// A recorder with explicit bounds. `quorum` is the coverage required of
    /// an acked write for it to be considered complete (erasure-coded scopes
    /// override it via their `durability-mode` events).
    pub fn with_limits(
        tel: Telemetry,
        per_scope: usize,
        counter_ticks: usize,
        quorum: usize,
    ) -> Self {
        FlightRecorder {
            inner: Arc::new(Inner {
                tel,
                per_scope: per_scope.max(1),
                quorum,
                counters: Mutex::new(CounterState {
                    last: BTreeMap::new(),
                    ticks: Ring::new(counter_ticks),
                }),
            }),
        }
    }

    /// The telemetry handle this recorder watches.
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.tel
    }

    /// Snapshots counter deltas since the previous tick into the bounded
    /// ring. Call periodically (the SLO plane's tick cadence is natural).
    pub fn tick(&self) {
        let snap = self.inner.tel.snapshot();
        let mut state = self.inner.counters.lock().expect("flight poisoned");
        let mut deltas = Vec::new();
        for (name, value) in &snap.counters {
            let prev = state.last.get(name).copied().unwrap_or(0);
            if *value > prev {
                deltas.push((name.clone(), value - prev));
            }
            state.last.insert(name.clone(), *value);
        }
        if deltas.is_empty() {
            return;
        }
        state.ticks.push(CounterTick {
            t_ns: self.inner.tel.now_ns(),
            deltas,
        });
    }

    /// Captures and filters the current rings into a [`FlightDump`].
    pub fn capture(&self) -> FlightDump {
        let events = self.inner.tel.events();
        let all_spans = self.inner.tel.spans();

        let mut checker = Checker::replay(self.inner.quorum);
        for ev in &events {
            checker.feed_event(ev);
        }
        let mut by_trace: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
        for s in all_spans {
            checker.feed_span(&s);
            by_trace.entry(s.trace).or_default().push(s);
        }

        let mut dropped_traces = 0usize;
        // Complete traces grouped by their root (or first) scope, each with
        // its recency key (latest end_ns, trace id as tiebreak — ids are
        // allocation-ordered, so ties on a coarse clock still rank newest
        // last-allocated).
        type RankedTrace = ((u64, u64), Vec<Span>);
        let mut per_scope: BTreeMap<&str, Vec<RankedTrace>> = BTreeMap::new();
        for (trace, group) in &by_trace {
            if !checker.is_complete(*trace) {
                dropped_traces += 1;
                continue;
            }
            let scope = group
                .iter()
                .find(|s| s.is_root())
                .unwrap_or(&group[0])
                .scope;
            let recency = group.iter().map(|s| s.end_ns).max().unwrap_or(0);
            per_scope
                .entry(scope)
                .or_default()
                .push(((recency, *trace), group.clone()));
        }

        // Per-scope retention: newest `per_scope` traces each.
        let mut trimmed_traces = 0usize;
        let mut spans = Vec::new();
        for (_, mut traces) in per_scope {
            traces.sort_by_key(|(recency, _)| std::cmp::Reverse(*recency));
            if traces.len() > self.inner.per_scope {
                trimmed_traces += traces.len() - self.inner.per_scope;
                traces.truncate(self.inner.per_scope);
            }
            for (_, group) in traces {
                spans.extend(group);
            }
        }
        spans.sort_by_key(|s| (s.start_ns, s.id));

        let counter_events = {
            let state = self.inner.counters.lock().expect("flight poisoned");
            state
                .ticks
                .iter()
                .flat_map(|tick| {
                    tick.deltas.iter().map(|(name, delta)| Event {
                        ts_ns: tick.t_ns,
                        kind: FLIGHT_COUNTER_KIND,
                        scope: name.clone(),
                        epoch: 0,
                        trace: 0,
                        detail: format!("delta={delta}"),
                    })
                })
                .collect()
        };

        FlightDump {
            spans,
            events,
            counter_events,
            dropped_traces,
            trimmed_traces,
        }
    }

    /// Captures and writes one dump to `path`, creating parent directories.
    pub fn dump(&self, path: &Path, reason: &str) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let dump = self.capture();
        let mut file = std::fs::File::create(path)?;
        file.write_all(dump.to_jsonl(&self.inner.tel, reason).as_bytes())?;
        file.flush()
    }

    /// Captures and writes `dir/trace-flight-<tag>.jsonl` (the `trace-*`
    /// prefix makes the directory `trace_analyzer --check`-able), returning
    /// the path written.
    pub fn dump_into(&self, dir: &Path, tag: &str, reason: &str) -> std::io::Result<PathBuf> {
        let path = dir.join(format!("trace-flight-{tag}.jsonl"));
        self.dump(&path, reason)?;
        Ok(path)
    }

    /// Chains a panic hook that writes
    /// `dir/trace-flight-panic-<pid>.jsonl` before the previous hook runs.
    /// The hook is global to the process; install it once, from the
    /// top-level harness that owns the recorder.
    pub fn install_panic_hook(&self, dir: impl Into<PathBuf>) {
        let dir = dir.into();
        let recorder = self.clone();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let tag = format!("panic-{}", std::process::id());
            let _ = recorder.dump_into(&dir, &tag, "panic");
            prev(info);
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze, parse_jsonl};
    use crate::{events, spans};
    use std::collections::BTreeSet;
    use std::time::Instant;

    /// Emits one complete acked write (root + stage + doorbell + 2 wire
    /// peers) on `tel` under `scope`, returning its trace id.
    fn acked_write(tel: &Telemetry, scope: &'static str) -> u64 {
        let t0 = Instant::now();
        let trace = tel.next_trace_id();
        for name in [spans::NCL_STAGE, spans::NCL_DOORBELL] {
            tel.span_auto(trace, trace, name, scope, 1, t0, Instant::now());
        }
        for peer in ["peer-0", "peer-1"] {
            tel.span_auto(
                trace,
                trace,
                spans::NCL_WIRE_PEER,
                crate::intern_scope(peer),
                1,
                t0,
                Instant::now(),
            );
        }
        tel.span(
            trace,
            trace,
            0,
            spans::NCL_WRITE,
            scope,
            1,
            t0,
            Instant::now(),
        );
        trace
    }

    #[test]
    fn dump_round_trips_through_the_analyzer() {
        let tel = Telemetry::new();
        let rec = FlightRecorder::new(tel.clone());
        tel.event(events::DURABILITY_MODE, "app/f", 1, "replicated");
        for _ in 0..5 {
            acked_write(&tel, "app/f");
        }
        tel.counter("ncl.flush.submit").add(17);
        rec.tick();

        let dir = std::env::temp_dir().join(format!("flight-rt-{}", std::process::id()));
        let path = rec.dump_into(&dir, "test", "unit-test").unwrap();
        assert!(path.ends_with("trace-flight-test.jsonl"));
        let text = std::fs::read_to_string(&path).unwrap();
        let (spans, events) = parse_jsonl(&text).unwrap();
        assert_eq!(spans.len(), 25, "5 writes x 5 spans");
        // Header + durability-mode + one counter delta.
        assert!(events.iter().any(|e| e.kind == FLIGHT_DUMP_KIND));
        assert!(events.iter().any(|e| e.kind == FLIGHT_COUNTER_KIND
            && e.scope == "ncl.flush.submit"
            && e.detail == "delta=17"));
        let report = analyze(&spans, &events, 2);
        assert!(report.ok(), "{:?}", report.violations);
        assert_eq!(report.acked_writes, 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A rooted trace whose children were evicted from the ring must not
    /// reach the dump — it would read as an invariant violation that never
    /// happened.
    #[test]
    fn beheaded_traces_are_dropped_not_dumped() {
        let tel = Telemetry::new();
        let rec = FlightRecorder::new(tel.clone());
        acked_write(&tel, "app/keep");
        // Shrink the ring so the next write's early children are evicted:
        // capacity 3 keeps [wire-1, wire-0... actually the last 3 spans].
        tel.set_span_capacity(3);
        acked_write(&tel, "app/beheaded");
        let dump = rec.capture();
        assert_eq!(dump.dropped_traces, 1);
        assert!(dump.spans.iter().all(|s| s.scope != "app/beheaded"));
        let report = analyze(&dump.spans, &dump.events, 2);
        assert!(report.ok(), "{:?}", report.violations);
    }

    #[test]
    fn per_scope_retention_keeps_newest_and_bounds_each_scope() {
        let tel = Telemetry::new();
        let rec = FlightRecorder::with_limits(tel.clone(), 2, 4, 2);
        let mut traces_a = Vec::new();
        for _ in 0..4 {
            traces_a.push(acked_write(&tel, "app/a"));
        }
        let trace_b = acked_write(&tel, "app/b");
        let dump = rec.capture();
        assert_eq!(dump.trimmed_traces, 2);
        let kept: BTreeSet<u64> = dump.spans.iter().map(|s| s.trace).collect();
        // Newest two of app/a survive, the busy scope cannot evict app/b.
        assert!(kept.contains(&traces_a[2]) && kept.contains(&traces_a[3]));
        assert!(!kept.contains(&traces_a[0]));
        assert!(kept.contains(&trace_b));
    }

    #[test]
    fn counter_ring_is_bounded_and_reports_deltas() {
        let tel = Telemetry::new();
        let rec = FlightRecorder::with_limits(tel.clone(), 8, 2, 2);
        let c = tel.counter("work");
        for i in 1..=4u64 {
            c.add(i);
            rec.tick();
        }
        let dump = rec.capture();
        // Capacity 2: only the last two ticks' deltas survive.
        let deltas: Vec<&str> = dump
            .counter_events
            .iter()
            .map(|e| e.detail.as_str())
            .collect();
        assert_eq!(deltas, vec!["delta=3", "delta=4"]);
        // An idle tick adds nothing.
        rec.tick();
        assert_eq!(rec.capture().counter_events.len(), 2);
    }

    #[test]
    fn panic_hook_writes_a_dump() {
        let tel = Telemetry::new();
        let rec = FlightRecorder::new(tel.clone());
        acked_write(&tel, "app/p");
        let dir = std::env::temp_dir().join(format!("flight-panic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        rec.install_panic_hook(dir.clone());
        let _ = std::panic::catch_unwind(|| panic!("boom"));
        let path = dir.join(format!("trace-flight-panic-{}.jsonl", std::process::id()));
        let text = std::fs::read_to_string(&path).unwrap();
        let (spans, events) = parse_jsonl(&text).unwrap();
        assert!(!spans.is_empty());
        assert!(events
            .iter()
            .any(|e| e.kind == FLIGHT_DUMP_KIND && e.detail.contains("reason=panic")));
        std::fs::remove_dir_all(&dir).ok();
    }
}
