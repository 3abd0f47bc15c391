//! Causal spans: timed intervals linked into per-write trace trees.
//!
//! The unit of the NCL record path is a *burst*, the records one doorbell
//! posts (a synchronous record is a burst of one). A burst gets a `trace` id
//! when its first record is staged; each stage of its life (local staging,
//! doorbell, per-peer wire flight, quorum ack) closes one [`Span`] carrying
//! that id and the burst's record range [`Span::seq`], and the `ncl.write`
//! root closes last. Control-plane operations (create, repair,
//! recovery, fallback replay) get their own trace ids so their phases
//! group the same way. Spans are recorded *complete* — at close, with both
//! endpoints — which keeps the hot path to one ring push and makes the
//! JSONL stream trivially replayable: no open/close pairing is needed by
//! consumers.
//!
//! Conventions:
//! * the **root** span of a trace has `id == trace` and `parent == 0`;
//! * child spans get fresh ids from the same generator as trace ids, so ids
//!   are unique across a process regardless of kind;
//! * `scope` follows the event convention (`app/file`, or a peer name for
//!   per-peer children);
//! * `epoch` is the epoch in force when the span *closed* (0 if unknown).

use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock};

use crate::ring::Ring;
use crate::snapshot::json_escape;
use crate::trace::JsonlSink;

/// Well-known span names, shared by emitters, the analyzer, and tests.
pub mod spans {
    /// Root span of one NCL burst: its first `record_nowait` → its last
    /// record quorum-durable.
    pub const NCL_WRITE: &str = "ncl.write";
    /// Local staging: payload + header copied into the staging buffer.
    pub const NCL_STAGE: &str = "ncl.stage";
    /// Doorbell: staged records posted to all peer QPs (batched WRs).
    pub const NCL_DOORBELL: &str = "ncl.doorbell";
    /// One peer's wire flight: WR post → header completion (scope = peer).
    pub const NCL_WIRE_PEER: &str = "ncl.wire.peer";
    /// Quorum ack: doorbell → f+1-th header completion observed.
    pub const NCL_ACK: &str = "ncl.ack";
    /// A replacement peer was caught up over this record (scope = peer);
    /// credits replaced-in peers with coverage the wire span cannot see.
    pub const NCL_CATCHUP_PEER: &str = "ncl.catchup.peer";

    // The control-path roots. Each one's direct children are consecutive
    // phases sharing their boundary instants, so they partition the root
    // exactly, and `RecoveryStats` / `RepairStats` are their per-name sums.

    /// Root span of one `NclLib::create`.
    pub const NCL_CREATE: &str = "ncl.create";
    /// Create child: a controller round for candidate peers (the first
    /// one also covers the existence and epoch lookups).
    pub const NCL_CREATE_GET_PEER: &str = "ncl.create.get_peer";
    /// Create child: one region allocation and connect.
    pub const NCL_CREATE_CONNECT_MR: &str = "ncl.create.connect_mr";
    /// Create child (erasure coding): seeding every peer's initial header.
    pub const NCL_CREATE_SEED: &str = "ncl.create.seed";
    /// Create child: publishing the ap-map entry.
    pub const NCL_CREATE_AP_MAP: &str = "ncl.create.ap_map";

    /// Root span of one post-crash recovery.
    pub const NCL_RECOVER: &str = "ncl.recover";
    /// Recovery child: the ap-map lookup, or a controller round for a
    /// replacement of a peer that did not respond.
    pub const NCL_RECOVER_GET_PEER: &str = "ncl.recover.get_peer";
    /// Recovery child: connecting to the ap-map peers and reading their
    /// headers, or a replacement's region allocation and connect.
    pub const NCL_RECOVER_CONNECT: &str = "ncl.recover.connect";
    /// Recovery child: reconstructing the acked image from the responders.
    pub const NCL_RECOVER_RDMA_READ: &str = "ncl.recover.rdma_read";
    /// Recovery child: catching peers up to the image under the new epoch.
    pub const NCL_RECOVER_CATCH_UP: &str = "ncl.recover.catch_up";
    /// One peer's catch-up (scope = peer), a child of `catch_up`.
    pub const NCL_RECOVER_CATCH_UP_PEER: &str = "ncl.recover.catch_up.peer";
    /// Recovery child: the ap-map update to the new epoch.
    pub const NCL_RECOVER_AP_MAP: &str = "ncl.recover.ap_map";

    /// Root span of one peer-replacement (repair) operation.
    pub const NCL_REPAIR: &str = "ncl.repair";
    /// Repair child: flushing the pending burst and building the reset
    /// header (with erasure coding, the spill snapshot) before acquiring.
    pub const NCL_REPAIR_FLUSH: &str = "ncl.repair.flush";
    /// Repair child: a controller round.
    pub const NCL_REPAIR_GET_PEER: &str = "ncl.repair.get_peer";
    /// Repair child: one region allocation and connect.
    pub const NCL_REPAIR_CONNECT_MR: &str = "ncl.repair.connect_mr";
    /// Repair child: catching the fresh peers up from the local image.
    pub const NCL_REPAIR_CATCH_UP: &str = "ncl.repair.catch_up";
    /// One fresh peer's catch-up (scope = peer), a child of `catch_up`.
    pub const NCL_REPAIR_CATCH_UP_PEER: &str = "ncl.repair.catch_up.peer";
    /// Repair child: survivors' epoch bump and the ap-map update.
    pub const NCL_REPAIR_AP_MAP: &str = "ncl.repair.ap_map";

    /// Splitfs replaying fallback-journal records through NCL on reattach;
    /// root writes that start inside this span are replay traffic, exempt
    /// from the "no ack while degraded" invariant.
    pub const FS_REATTACH_REPLAY: &str = "splitfs.reattach.replay";

    /// Every well-known name, used by the JSONL replay path to intern parsed
    /// name strings back to the canonical `&'static str` values.
    pub const ALL: [&str; 26] = [
        NCL_WRITE,
        NCL_STAGE,
        NCL_DOORBELL,
        NCL_WIRE_PEER,
        NCL_ACK,
        NCL_CATCHUP_PEER,
        NCL_CREATE,
        NCL_CREATE_GET_PEER,
        NCL_CREATE_CONNECT_MR,
        NCL_CREATE_SEED,
        NCL_CREATE_AP_MAP,
        NCL_RECOVER,
        NCL_RECOVER_GET_PEER,
        NCL_RECOVER_CONNECT,
        NCL_RECOVER_RDMA_READ,
        NCL_RECOVER_CATCH_UP,
        NCL_RECOVER_CATCH_UP_PEER,
        NCL_RECOVER_AP_MAP,
        NCL_REPAIR,
        NCL_REPAIR_FLUSH,
        NCL_REPAIR_GET_PEER,
        NCL_REPAIR_CONNECT_MR,
        NCL_REPAIR_CATCH_UP,
        NCL_REPAIR_CATCH_UP_PEER,
        NCL_REPAIR_AP_MAP,
        FS_REATTACH_REPLAY,
    ];
}

/// Maps a parsed span name to its canonical constant (see
/// [`crate::trace::intern_kind`] for the interning rationale).
pub fn intern_span_name(name: &str) -> &'static str {
    for n in spans::ALL {
        if n == name {
            return n;
        }
    }
    Box::leak(name.to_string().into_boxed_str())
}

/// Interns a span scope (`app/file` or a peer name), returning a canonical
/// `&'static str`. Scopes recur constantly — every span of a file carries
/// the same one — so [`crate::Telemetry::span`] takes `&'static str` and
/// hot call sites intern once (per file / per peer), making span recording
/// allocation-free. The backing set deduplicates, so the leak is bounded by
/// the number of *distinct* scopes ever seen, not by call volume.
pub fn intern_scope(scope: &str) -> &'static str {
    static SCOPES: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let mut set = SCOPES
        .get_or_init(|| Mutex::new(BTreeSet::new()))
        .lock()
        .expect("scope interner poisoned");
    if let Some(existing) = set.get(scope) {
        return existing;
    }
    let leaked: &'static str = Box::leak(scope.to_string().into_boxed_str());
    set.insert(leaked);
    leaked
}

/// One closed interval in a trace tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Trace this span belongs to; the root span has `id == trace`.
    pub trace: u64,
    /// Unique span id (process-wide).
    pub id: u64,
    /// Parent span id within the trace; 0 for roots.
    pub parent: u64,
    /// Span name; see [`spans`] for the well-known values.
    pub name: &'static str,
    /// What the span is about — `app/file`, or a peer name for per-peer
    /// children. Interned (see [`intern_scope`]) so spans are cheap to
    /// record and clone.
    pub scope: &'static str,
    /// Epoch in force when the span closed (0 when unknown).
    pub epoch: u64,
    /// Inclusive range `(lo, hi)` of the record sequence numbers the span
    /// is about: the burst's, on every record-path span; `(0, 0)` on spans
    /// that are not about records.
    pub seq: (u64, u64),
    /// Start, nanoseconds since the owning [`crate::Telemetry`] was created.
    pub start_ns: u64,
    /// End, same clock; `end_ns >= start_ns`.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// True for the root of its trace (`id == trace`, no parent).
    pub fn is_root(&self) -> bool {
        self.id == self.trace && self.parent == 0
    }

    /// How many records the span is about: `hi − lo + 1` for a range, and 1
    /// for a span without one (`(0, 0)`).
    pub fn records(&self) -> u64 {
        match self.seq {
            (0, 0) => 1,
            (lo, hi) => hi.saturating_sub(lo).saturating_add(1),
        }
    }

    /// Renders the span as one JSON object (one JSONL line, sans newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"type\": \"span\", \"trace\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"scope\": \"{}\", \"epoch\": {}, \"seq\": [{}, {}], \"start_ns\": {}, \"end_ns\": {}}}",
            self.trace,
            self.id,
            self.parent,
            json_escape(self.name),
            json_escape(self.scope),
            self.epoch,
            self.seq.0,
            self.seq.1,
            self.start_ns,
            self.end_ns
        )
    }
}

/// Spans are ~an order of magnitude denser than events (several per write),
/// so the ring defaults much larger; a full chaos schedule's spans should be
/// analyzed from the JSONL sink, not the ring.
const DEFAULT_CAPACITY: usize = 65536;

/// Bounded in-memory span buffer with an optional JSONL mirror (shared with
/// the event trace).
pub(crate) struct SpanTrace {
    ring: Mutex<Ring<Span>>,
    sink: JsonlSink,
}

impl SpanTrace {
    pub(crate) fn new(sink: JsonlSink) -> Self {
        SpanTrace {
            ring: Mutex::new(Ring::new(DEFAULT_CAPACITY)),
            sink,
        }
    }

    /// Appends `spans` in order under one acquisition of the ring lock.
    /// Returns whether the ring had to drop an oldest entry to make room
    /// (the JSONL sink, when set, still received every record).
    pub(crate) fn record(&self, spans: &[Span]) -> bool {
        if self.sink.is_set() {
            for span in spans {
                self.sink.write_line(&span.to_json());
            }
        }
        let mut ring = self.ring.lock().expect("span trace poisoned");
        let mut dropped = false;
        for span in spans {
            dropped |= ring.push(span.clone());
        }
        dropped
    }

    pub(crate) fn spans(&self) -> Vec<Span> {
        self.ring
            .lock()
            .expect("span trace poisoned")
            .iter()
            .cloned()
            .collect()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.ring.lock().expect("span trace poisoned").dropped()
    }

    pub(crate) fn set_capacity(&self, capacity: usize) {
        self.ring
            .lock()
            .expect("span trace poisoned")
            .set_capacity(capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: u64, parent: u64, name: &'static str) -> Span {
        Span {
            trace,
            id,
            parent,
            name,
            scope: "app/f",
            epoch: 1,
            seq: (0, 0),
            start_ns: 10,
            end_ns: 40,
        }
    }

    #[test]
    fn spans_keep_order_and_ring_bounds() {
        let t = SpanTrace::new(JsonlSink::default());
        t.set_capacity(2);
        t.record(&[span(1, 1, 0, spans::NCL_WRITE)]);
        t.record(&[
            span(1, 2, 1, spans::NCL_STAGE),
            span(1, 3, 1, spans::NCL_DOORBELL),
        ]);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, 2);
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn span_json_has_type_discriminator_and_tree_fields() {
        let s = span(7, 9, 7, spans::NCL_WIRE_PEER);
        let j = s.to_json();
        assert!(j.contains("\"type\": \"span\""));
        assert!(j.contains("\"trace\": 7"));
        assert!(j.contains("\"parent\": 7"));
        assert!(j.contains("ncl.wire.peer"));
        assert!(j.contains("\"seq\": [0, 0]"));
        assert_eq!(s.duration_ns(), 30);
    }

    #[test]
    fn a_span_counts_the_records_of_its_range() {
        let mut s = span(7, 7, 0, spans::NCL_WRITE);
        assert_eq!(s.records(), 1, "no range: one record");
        s.seq = (5, 5);
        assert_eq!(s.records(), 1);
        s.seq = (1, 16);
        assert_eq!(s.records(), 16);
        s.seq = (0, u64::MAX);
        assert_eq!(s.records(), u64::MAX, "saturates");
    }

    #[test]
    fn intern_span_name_returns_canonical_constants() {
        let parsed = String::from("ncl.write");
        assert_eq!(intern_span_name(&parsed), spans::NCL_WRITE);
    }
}
