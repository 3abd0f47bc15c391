//! Structured event trace for control-plane transitions.
//!
//! Data-path latencies are aggregated into histograms (see
//! [`crate::metrics`]); control-plane transitions — peer failure detection,
//! replacement, catch-up, epoch bumps, ap-map updates — are rare and
//! individually meaningful, so they are kept as discrete [`Event`]s in a
//! bounded ring buffer, optionally mirrored to a JSONL sink. A recovery
//! timeline in the style of the paper's Table 3 falls out of one run's trace.
//!
//! Since the causal-tracing layer (PR 5) events may carry a `trace` id tying
//! a control-plane transition to the write (or repair/recovery operation)
//! that caused it; `trace == 0` means "not attributed". The JSONL sink is
//! shared with the span ring ([`crate::span`]): both write
//! `{"type": "event"|"span", ...}` lines into one file, so a single trace
//! file replays the whole causal story.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::ring::Ring;
use crate::snapshot::json_escape;

/// Well-known event kinds, shared by emitters and tests so the two cannot
/// drift apart. The trace itself accepts any `&'static str`.
pub mod events {
    /// A live peer stopped completing work requests.
    pub const PEER_FAILURE: &str = "peer-failure-detect";
    /// Replacement of dead peers began.
    pub const PEER_REPLACE_START: &str = "peer-replace-start";
    /// Replacement finished; the replica set is whole again.
    pub const PEER_REPLACE_FINISH: &str = "peer-replace-finish";
    /// Copying the acked prefix onto a peer began.
    pub const CATCH_UP_START: &str = "catch-up-start";
    /// Catch-up finished.
    pub const CATCH_UP_FINISH: &str = "catch-up-finish";
    /// The file's epoch advanced (survivors fenced to the new epoch).
    pub const EPOCH_BUMP: &str = "epoch-bump";
    /// The controller's availability map gained or changed an entry.
    pub const AP_MAP_UPDATE: &str = "ap-map-update";
    /// The controller's availability map dropped an entry.
    pub const AP_MAP_DELETE: &str = "ap-map-delete";
    /// Post-crash recovery of a file began.
    pub const RECOVERY_START: &str = "recovery-start";
    /// Recovery finished; the file is writable again.
    pub const RECOVERY_FINISH: &str = "recovery-finish";
    /// The phi-style detector declared a silent-but-live peer suspect.
    pub const PEER_SUSPECT: &str = "peer-suspect";
    /// Durable quorum unreachable past the deadline; splitfs fell back to
    /// direct-dfs strong mode for new records.
    pub const DFS_FALLBACK_ENGAGE: &str = "dfs-fallback-engage";
    /// A fresh peer set was published; splitfs replayed the fallback journal
    /// and resumed logging through NCL.
    pub const NCL_REATTACH: &str = "ncl-reattach";
    /// A peer published its endpoint in the registry.
    pub const PEER_PUBLISH: &str = "peer-publish";
    /// A peer withdrew from the registry.
    pub const PEER_WITHDRAW: &str = "peer-withdraw";
    /// A peer allocated + registered a log region.
    pub const REGION_ALLOC: &str = "region-alloc";
    /// A peer freed a log region.
    pub const REGION_FREE: &str = "region-free";
    /// A file declared its durability scheme at create/recover time; the
    /// detail carries `replicated` or `ec k=<k> n=<n>`, which the trace
    /// analyzer uses to pick the per-scope coverage requirement for the
    /// acked⇒durable invariant.
    pub const DURABILITY_MODE: &str = "durability-mode";
    /// An erasure-coded file started demoting its cold acked prefix to the
    /// spill tier (detail: target generation and covered sequence).
    pub const SPILL_START: &str = "ncl-spill-start";
    /// The spill snapshot became durable and the fragment area flipped to
    /// the next generation.
    pub const SPILL_FINISH: &str = "ncl-spill-finish";
    /// The spill sink rejected a snapshot store; the demotion is retried.
    pub const SPILL_FAIL: &str = "ncl-spill-fail";
    /// A peer voluntarily revoked a region under memory pressure (§4.5.2);
    /// the owning application observes the next write fail and runs the
    /// ordinary replace/catch-up path.
    pub const REGION_REVOKE: &str = "region-revoke";
    /// Memory pressure was applied to a peer (operator or fault injection);
    /// the detail carries the target utilisation.
    pub const PEER_PRESSURE: &str = "peer-pressure";
    /// A region's epoch lease expired with its owning application confirmed
    /// dead at the controller; the leak GC reclaimed it.
    pub const LEASE_EXPIRE: &str = "lease-expire";
    /// An in-memory trace ring (events or spans) overflowed and dropped its
    /// oldest entries; emitted once, on the first drop, so consumers of the
    /// rings know the window is no longer complete (the JSONL sink never
    /// drops). The invariant engine downgrades its span-completeness rules
    /// to "truncated window" once this fires.
    pub const TRACE_TRUNCATED: &str = "trace-truncated";
    /// The online invariant monitor flagged a violation; the detail carries
    /// `[<invariant code>] <message>`.
    pub const INVARIANT_VIOLATION: &str = "invariant-violation";

    /// Every well-known kind, used by the JSONL replay path to intern parsed
    /// kind strings back to the canonical `&'static str` values.
    pub const ALL: [&str; 26] = [
        PEER_FAILURE,
        PEER_REPLACE_START,
        PEER_REPLACE_FINISH,
        CATCH_UP_START,
        CATCH_UP_FINISH,
        EPOCH_BUMP,
        AP_MAP_UPDATE,
        AP_MAP_DELETE,
        RECOVERY_START,
        RECOVERY_FINISH,
        PEER_SUSPECT,
        DFS_FALLBACK_ENGAGE,
        NCL_REATTACH,
        PEER_PUBLISH,
        PEER_WITHDRAW,
        REGION_ALLOC,
        REGION_FREE,
        DURABILITY_MODE,
        SPILL_START,
        SPILL_FINISH,
        SPILL_FAIL,
        REGION_REVOKE,
        PEER_PRESSURE,
        LEASE_EXPIRE,
        TRACE_TRUNCATED,
        INVARIANT_VIOLATION,
    ];
}

/// Maps a parsed kind string to its canonical constant. Unknown kinds are
/// leaked once — the set of kinds is tiny and fixed per build, so the leak is
/// bounded (this is the standard interning trade for `&'static str` keys).
pub fn intern_kind(kind: &str) -> &'static str {
    for k in events::ALL {
        if k == kind {
            return k;
        }
    }
    Box::leak(kind.to_string().into_boxed_str())
}

/// One control-plane transition.
#[derive(Debug, Clone)]
pub struct Event {
    /// Nanoseconds since the owning [`crate::Telemetry`] was created.
    pub ts_ns: u64,
    /// Event kind; see [`events`] for the well-known values.
    pub kind: &'static str,
    /// What the event is about — `app/file`, a peer name, etc.
    pub scope: String,
    /// The epoch in force when the event fired (0 when not applicable).
    pub epoch: u64,
    /// Trace id of the operation that caused this transition (0 = none).
    pub trace: u64,
    /// Free-form human-readable detail.
    pub detail: String,
}

impl Event {
    /// Renders the event as one JSON object (one JSONL line, sans newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"type\": \"event\", \"ts_ns\": {}, \"kind\": \"{}\", \"scope\": \"{}\", \"epoch\": {}, \"trace\": {}, \"detail\": \"{}\"}}",
            self.ts_ns,
            json_escape(self.kind),
            json_escape(&self.scope),
            self.epoch,
            self.trace,
            json_escape(&self.detail)
        )
    }
}

/// Default ring capacity; enough for thousands of recoveries.
const DEFAULT_CAPACITY: usize = 4096;

/// A JSONL file shared by the event and span rings: every record appends one
/// line and flushes, so a crashed process leaves a complete file behind.
/// Cloning shares the underlying writer.
#[derive(Clone, Default)]
pub(crate) struct JsonlSink(Arc<Mutex<Option<BufWriter<File>>>>);

impl JsonlSink {
    pub(crate) fn set_path(&self, path: &Path) -> std::io::Result<()> {
        let file = File::create(path)?;
        *self.0.lock().expect("sink poisoned") = Some(BufWriter::new(file));
        Ok(())
    }

    pub(crate) fn is_set(&self) -> bool {
        self.0.lock().expect("sink poisoned").is_some()
    }

    pub(crate) fn write_line(&self, line: &str) {
        if let Some(w) = self.0.lock().expect("sink poisoned").as_mut() {
            let _ = writeln!(w, "{line}");
            let _ = w.flush();
        }
    }
}

/// Bounded in-memory event buffer with an optional JSONL mirror.
pub(crate) struct EventTrace {
    ring: Mutex<Ring<Event>>,
    sink: JsonlSink,
}

impl EventTrace {
    pub(crate) fn new(sink: JsonlSink) -> Self {
        EventTrace {
            ring: Mutex::new(Ring::new(DEFAULT_CAPACITY)),
            sink,
        }
    }

    /// Returns whether the ring had to drop its oldest entry to make room
    /// (the JSONL sink, when set, still received every record).
    pub(crate) fn record(
        &self,
        ts_ns: u64,
        kind: &'static str,
        scope: &str,
        epoch: u64,
        trace: u64,
        detail: String,
    ) -> bool {
        let ev = Event {
            ts_ns,
            kind,
            scope: scope.to_string(),
            epoch,
            trace,
            detail,
        };
        if self.sink.is_set() {
            // Events are rare; flush per line so a crashed process leaves a
            // complete JSONL file behind.
            self.sink.write_line(&ev.to_json());
        }
        self.ring.lock().expect("trace poisoned").push(ev)
    }

    pub(crate) fn events(&self) -> Vec<Event> {
        self.ring
            .lock()
            .expect("trace poisoned")
            .iter()
            .cloned()
            .collect()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.ring.lock().expect("trace poisoned").dropped()
    }

    pub(crate) fn set_capacity(&self, capacity: usize) {
        self.ring
            .lock()
            .expect("trace poisoned")
            .set_capacity(capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_keep_insertion_order_and_monotonic_timestamps() {
        let t = EventTrace::new(JsonlSink::default());
        t.record(1, events::PEER_FAILURE, "peer-0", 1, 0, "dead".into());
        t.record(2, events::CATCH_UP_START, "app/f", 2, 0, String::new());
        t.record(3, events::AP_MAP_UPDATE, "app/f", 2, 0, String::new());
        let evs = t.events();
        assert_eq!(
            evs.iter().map(|e| e.kind).collect::<Vec<_>>(),
            vec![
                events::PEER_FAILURE,
                events::CATCH_UP_START,
                events::AP_MAP_UPDATE
            ]
        );
        assert!(evs.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn ring_drops_oldest_past_capacity() {
        let t = EventTrace::new(JsonlSink::default());
        t.set_capacity(2);
        t.record(0, events::REGION_ALLOC, "a", 0, 0, String::new());
        t.record(0, events::REGION_ALLOC, "b", 0, 0, String::new());
        t.record(0, events::REGION_ALLOC, "c", 0, 0, String::new());
        let evs = t.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].scope, "b");
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn jsonl_sink_mirrors_events() {
        let dir = std::env::temp_dir().join(format!("telemetry-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let sink = JsonlSink::default();
        sink.set_path(&path).unwrap();
        let t = EventTrace::new(sink);
        t.record(
            9,
            events::EPOCH_BUMP,
            "app/\"f\"",
            3,
            17,
            "quote \\ test".into(),
        );
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"type\": \"event\""));
        assert!(text.contains("\"epoch\": 3"));
        assert!(text.contains("\"trace\": 17"));
        assert!(text.contains("epoch-bump"));
        // Escaped quotes/backslashes survive the round trip.
        assert!(text.contains("app/\\\"f\\\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn intern_kind_returns_canonical_constants() {
        let parsed = String::from("epoch-bump");
        assert_eq!(intern_kind(&parsed), events::EPOCH_BUMP);
        // Unknown kinds intern to a stable leaked string.
        assert_eq!(intern_kind("custom-kind"), "custom-kind");
    }
}
