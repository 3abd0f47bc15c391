//! Black-box flight recorder: a bounded capture of recent spans and counter
//! deltas, dumped to JSONL when something goes wrong.
//!
//! The in-memory span rings ([`crate::Telemetry`]'s) already retain recent
//! history; what they lack is a *disciplined exit*: a crashing or failing
//! process should leave behind a file that the existing offline tooling
//! (`trace_analyzer --check`, i.e. [`crate::analyze`]) ingests as-is.
//! [`FlightRecorder`] provides that:
//!
//! * **Every fact and control trace** — the fact-and-control ring is
//!   bounded and record traffic never evicts it, so it goes into the dump
//!   whole: a dump taken after the record ring wrapped still knows each
//!   file's durability scheme and judges its writes at the right coverage;
//! * **Bounded per-scope retention** of record-path traces — the dump keeps
//!   the most recent `per_scope` write traces for each root scope (one file
//!   per scope, so a noisy file cannot evict the others' history);
//! * **Complete traces only** — ring eviction can behead a trace (children
//!   are recorded before their root, so the oldest spans of a rooted trace
//!   go first). A dump containing a beheaded acked write would *manufacture*
//!   invariant violations, so the rings are run through a [`Checker`] and
//!   every rooted trace it does not find complete
//!   ([`Checker::is_complete`]) is dropped from the dump and counted
//!   instead — the predicate that filters the dump is the one that will
//!   judge it;
//! * **Counter deltas** — each capture writes, as `flight-counter-delta`
//!   facts, how far every counter moved since the recorder's previous
//!   capture (since zero, on the first), so the rate information of the
//!   window before the trigger survives the crash;
//! * **Trigger plumbing** — [`FlightRecorder::dump_into`] for explicit
//!   triggers (a failing `/health` verdict, an invariant violation, a
//!   chaos-assert failure) and [`FlightRecorder::install_panic_hook`] for
//!   panics.
//!
//! A dump is a `flight-dump` fact (the reason and the counts), then the
//! spans in the order the rings recorded them. Dump files are named
//! `trace-flight-<tag>.jsonl` so a directory of them is checkable with
//! `trace_analyzer --check <dir>`.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, Once, PoisonError, Weak};

use crate::checker::Checker;
use crate::{spans, Span, Telemetry};

struct Inner {
    tel: Telemetry,
    per_scope: usize,
    quorum: usize,
    /// Every counter's value at the previous capture.
    counters: Mutex<BTreeMap<String, u64>>,
}

/// The filtered content of one capture, ready to serialize.
#[derive(Debug, Default)]
pub struct FlightDump {
    /// The complete facts and control traces, then the counter deltas (as
    /// `flight-counter-delta` facts), then the retained record-path traces,
    /// each part in recording order.
    pub spans: Vec<Span>,
    /// Rooted traces dropped because eviction left them incomplete.
    pub dropped_traces: usize,
    /// Traces trimmed by the per-scope retention bound.
    pub trimmed_traces: usize,
}

impl FlightDump {
    /// Serializes the dump as a `trace_analyzer`-compatible JSONL document:
    /// a `flight-dump` fact, then the spans.
    pub fn to_jsonl(&self, tel: &Telemetry, reason: &str) -> String {
        let detail = format!(
            "reason={reason} spans={} dropped_traces={} trimmed_traces={}",
            self.spans.len(),
            self.dropped_traces,
            self.trimmed_traces
        );
        let header = tel.fact_span(spans::FLIGHT_DUMP, "flight", 0, &detail);
        let mut out = String::new();
        for span in header.iter().chain(&self.spans) {
            out.push_str(&span.to_json());
            out.push('\n');
        }
        out
    }
}

/// Shared handle to one flight recorder; cloning shares state.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<Inner>,
}

impl FlightRecorder {
    /// A recorder over `tel` keeping the newest `per_scope` write traces per
    /// scope. `quorum` is the coverage required of an acked write for it to
    /// be considered complete (erasure-coded scopes override it via their
    /// `durability-mode` facts).
    pub fn with_limits(tel: Telemetry, per_scope: usize, quorum: usize) -> Self {
        FlightRecorder {
            inner: Arc::new(Inner {
                tel,
                per_scope: per_scope.max(1),
                quorum,
                counters: Mutex::default(),
            }),
        }
    }

    /// A `flight-counter-delta` fact for every counter that moved since
    /// the previous capture.
    fn counter_deltas(&self) -> Vec<Span> {
        let tel = &self.inner.tel;
        let mut last = self.inner.counters.lock().expect("flight poisoned");
        let mut deltas = Vec::new();
        for (name, value) in tel.snapshot().counters {
            let delta = value.saturating_sub(last.insert(name.clone(), value).unwrap_or(0));
            if delta > 0 {
                let detail = format!("delta={delta}");
                deltas.extend(tel.fact_span(spans::FLIGHT_COUNTER_DELTA, &name, 0, &detail));
            }
        }
        deltas
    }

    /// Captures and filters the current rings into a [`FlightDump`], with
    /// the counter deltas since the previous capture.
    pub fn capture(&self) -> FlightDump {
        let deltas = self.counter_deltas();
        let (control, record) = self.inner.tel.span_rings();
        let mut checker = Checker::replay(self.inner.quorum);
        for s in control.iter().chain(&record) {
            checker.feed_span(s);
        }
        let incomplete: BTreeSet<u64> = control
            .iter()
            .chain(&record)
            .map(|s| s.trace)
            .filter(|&trace| !checker.is_complete(trace))
            .collect();

        // Per complete record-path trace: its root's (or first span's)
        // scope, and its recency — latest end, trace id as tiebreak (ids
        // are allocation-ordered, so ties on a coarse clock still rank the
        // last-allocated newest).
        let mut traces: BTreeMap<u64, (&str, u64)> = BTreeMap::new();
        for s in record.iter().filter(|s| !incomplete.contains(&s.trace)) {
            let entry = traces.entry(s.trace).or_insert((s.scope, 0));
            if s.is_root() {
                entry.0 = s.scope;
            }
            entry.1 = entry.1.max(s.end_ns);
        }
        // Per-scope retention: newest `per_scope` traces each.
        let mut ranked: Vec<_> = traces
            .into_iter()
            .map(|(trace, (scope, end))| (scope, Reverse((end, trace))))
            .collect();
        ranked.sort_unstable();
        let (mut kept, mut trimmed_traces) = (BTreeSet::new(), 0);
        for newest in ranked.chunk_by(|a, b| a.0 == b.0) {
            trimmed_traces += newest.len().saturating_sub(self.inner.per_scope);
            let newest = newest.iter().take(self.inner.per_scope);
            kept.extend(newest.map(|(_, Reverse((_, trace)))| *trace));
        }

        let spans = control
            .into_iter()
            .filter(|s| !incomplete.contains(&s.trace))
            .chain(deltas)
            .chain(record.into_iter().filter(|s| kept.contains(&s.trace)))
            .collect();
        FlightDump {
            spans,
            dropped_traces: incomplete.len(),
            trimmed_traces,
        }
    }

    /// Captures and writes `dir/trace-flight-<tag>.jsonl` (the `trace-*`
    /// prefix makes the directory `trace_analyzer --check`-able), creating
    /// `dir`, and returns the path written.
    pub fn dump_into(&self, dir: &Path, tag: &str, reason: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("trace-flight-{tag}.jsonl"));
        std::fs::write(&path, self.capture().to_jsonl(&self.inner.tel, reason))?;
        Ok(path)
    }

    /// Arms the process's one panic hook, chained once, with this recorder,
    /// held weakly: a panic writes `dir/trace-flight-panic-<pid>.jsonl` from
    /// the newest armed recorder still alive before the previous hook runs.
    pub fn install_panic_hook(&self, dir: impl Into<PathBuf>) {
        static ARMED: Mutex<Vec<(Weak<Inner>, PathBuf)>> = Mutex::new(Vec::new());
        static CHAINED: Once = Once::new();
        let armed = || ARMED.lock().unwrap_or_else(PoisonError::into_inner);
        armed().retain(|(inner, _)| inner.strong_count() > 0);
        armed().push((Arc::downgrade(&self.inner), dir.into()));
        CHAINED.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let live = armed()
                    .iter()
                    .rev()
                    .find_map(|(inner, dir)| Some((inner.upgrade()?, dir.clone())));
                if let Some((inner, dir)) = live {
                    let tag = format!("panic-{}", std::process::id());
                    let _ = FlightRecorder { inner }.dump_into(&dir, &tag, "panic");
                }
                prev(info);
            }));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze, parse_jsonl};

    /// Emits one complete acked write (root + stage + doorbell + 2 wire
    /// peers) on `tel` under `scope`, returning its trace id.
    fn acked_write(tel: &Telemetry, scope: &'static str) -> u64 {
        acked_write_on(tel, scope, &["peer-0", "peer-1"])
    }

    /// The same write, covered by `peers`.
    fn acked_write_on(tel: &Telemetry, scope: &'static str, peers: &[&str]) -> u64 {
        let (trace, start_ns) = (tel.next_trace_id(), tel.now_ns());
        let child = |name, scope| Span {
            trace,
            id: tel.next_trace_id(),
            parent: trace,
            name,
            scope,
            epoch: 1,
            start_ns,
            end_ns: tel.now_ns(),
            ..Span::default()
        };
        let mut chain = vec![
            child(spans::NCL_STAGE, scope),
            child(spans::NCL_DOORBELL, scope),
        ];
        let wires = peers.iter().map(|peer| crate::intern_scope(peer));
        chain.extend(wires.map(|peer| child(spans::NCL_WIRE_PEER, peer)));
        let root = child(spans::NCL_WRITE, scope);
        chain.push(Span {
            id: trace,
            parent: 0,
            ..root
        });
        tel.record_spans(chain);
        trace
    }

    #[test]
    fn dump_round_trips_through_the_analyzer() {
        let tel = Telemetry::new();
        let rec = FlightRecorder::with_limits(tel.clone(), 32, 2);
        tel.fact(spans::DURABILITY_MODE, "app/f", 1, "replicated");
        for _ in 0..5 {
            acked_write(&tel, "app/f");
        }
        tel.counter("ncl.flush.submit").add(17);

        let dir = std::env::temp_dir().join(format!("flight-rt-{}", std::process::id()));
        let path = rec.dump_into(&dir, "test", "unit-test").unwrap();
        assert!(path.ends_with("trace-flight-test.jsonl"));
        let text = std::fs::read_to_string(&path).unwrap();
        let spans = parse_jsonl(&text).unwrap();
        // Header + durability-mode + one counter delta + 5 writes x 5 spans.
        assert_eq!(spans.len(), 28);
        assert_eq!(spans[0].name, spans::FLIGHT_DUMP);
        assert_eq!(spans[1].name, spans::DURABILITY_MODE);
        assert!(spans.iter().any(|s| s.name == spans::FLIGHT_COUNTER_DELTA
            && s.scope == "ncl.flush.submit"
            && s.detail.as_deref() == Some("delta=17")));
        let report = analyze(&spans, 2);
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
        let rec = FlightRecorder::with_limits(tel.clone(), 32, 2);
        acked_write(&tel, "app/keep");
        // Shrink the ring so the next write's early children are evicted:
        // capacity 3 keeps [wire-1, wire-0... actually the last 3 spans].
        tel.set_span_capacity(3);
        acked_write(&tel, "app/beheaded");
        let dump = rec.capture();
        assert_eq!(dump.dropped_traces, 1);
        assert!(dump.spans.iter().all(|s| s.scope != "app/beheaded"));
        let report = analyze(&dump.spans, 2);
        assert!(report.ok(), "{:?}", report.violations);
    }

    /// The record ring wraps many times over; the erasure-coded file's
    /// `durability-mode` fact stays, so its writes are still judged at
    /// coverage k = 3 rather than at the replicated quorum of 2.
    #[test]
    fn a_dump_after_the_record_ring_wrapped_judges_ec_writes_at_k() {
        let tel = Telemetry::new();
        let rec = FlightRecorder::with_limits(tel.clone(), 32, 2);
        tel.fact(spans::DURABILITY_MODE, "app/ec", 1, "ec k=3 n=4");
        tel.set_span_capacity(64);
        for _ in 0..100 {
            acked_write_on(&tel, "app/ec", &["peer-0", "peer-1", "peer-2"]);
        }
        let short = acked_write_on(&tel, "app/ec", &["peer-0", "peer-1"]);
        assert!(tel.trace_dropped() > 400, "the record ring wrapped");
        let dump = rec.capture();
        assert!(dump.spans.iter().any(|s| s.name == spans::DURABILITY_MODE));
        assert!(
            dump.spans.iter().all(|s| s.trace != short),
            "a write on 2 of k = 3 peers is not complete"
        );
        let report = analyze(&dump.spans, 2);
        assert!(
            report.ok() && report.acked_writes > 0,
            "{}",
            report.render()
        );
    }

    #[test]
    fn per_scope_retention_keeps_newest_and_bounds_each_scope() {
        let tel = Telemetry::new();
        let rec = FlightRecorder::with_limits(tel.clone(), 2, 2);
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

    /// A recorder's first capture writes every counter's value, as one
    /// tick before a dump did; each later one, what moved since the
    /// previous capture; an idle one, nothing.
    #[test]
    fn each_capture_writes_the_counter_deltas_since_the_previous_one() {
        let tel = Telemetry::new();
        let rec = FlightRecorder::with_limits(tel.clone(), 32, 2);
        let deltas = |dump: FlightDump| -> Vec<(&str, Box<str>)> {
            let facts = dump.spans.into_iter();
            let deltas = facts.filter(|s| s.name == spans::FLIGHT_COUNTER_DELTA);
            deltas.map(|s| (s.scope, s.detail.unwrap())).collect()
        };
        let (work, idle) = (tel.counter("work"), tel.counter("idle"));
        work.add(5);
        idle.add(2);
        let first = [("idle", "delta=2".into()), ("work", "delta=5".into())];
        assert_eq!(deltas(rec.capture()), first);
        work.add(3);
        assert_eq!(deltas(rec.capture()), [("work", "delta=3".into())]);
        assert_eq!(deltas(rec.capture()), []);
        let fresh = FlightRecorder::with_limits(tel.clone(), 32, 2);
        let totals = [("idle", "delta=2".into()), ("work", "delta=8".into())];
        assert_eq!(deltas(fresh.capture()), totals);
    }

    #[test]
    fn panic_hook_writes_a_dump() {
        let tel = Telemetry::new();
        let rec = FlightRecorder::with_limits(tel.clone(), 32, 2);
        acked_write(&tel, "app/p");
        let dir = std::env::temp_dir().join(format!("flight-panic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        rec.install_panic_hook(dir.clone());
        let _ = std::panic::catch_unwind(|| panic!("boom"));
        let path = dir.join(format!("trace-flight-panic-{}.jsonl", std::process::id()));
        let text = std::fs::read_to_string(&path).unwrap();
        let spans = parse_jsonl(&text).unwrap();
        assert_eq!(spans.len(), 6, "the header and one write");
        let header = spans[0].detail.as_deref().unwrap_or_default();
        assert!(header.starts_with("reason=panic"), "{header}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
