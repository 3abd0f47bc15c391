//! Causal spans: the one record of what happened.
//!
//! The unit of the NCL record path is a *burst*, the records one doorbell
//! posts (a synchronous record is a burst of one). A burst gets a `trace` id
//! when it is posted; each stage of its life (local staging, doorbell,
//! per-peer wire flight, quorum ack) is one [`Span`] carrying that id and
//! the burst's record range [`Span::seq`], and the `ncl.write` root comes
//! last. The record path keeps a burst as one ring entry ([`crate::Burst`])
//! that every reader expands into those spans. Control-plane operations
//! (create, repair, recovery, fallback replay) get their own trace ids so
//! their phases group the same way. Spans are recorded *complete* — at
//! close, with both endpoints — which keeps the hot path to one ring push
//! and makes the JSONL stream trivially replayable: no open/close pairing
//! is needed by consumers.
//!
//! A point transition (a peer declared suspect, a region revoked, a file's
//! durability scheme) is a *fact*: a zero-length span, alone in a trace of
//! its own, whose [`Span::detail`] says what happened (see
//! [`spans::FACTS`]). One type, one JSONL line and one checker feed carry
//! all three kinds.
//!
//! Conventions:
//! * the **root** span of a trace has `id == trace` and `parent == 0`;
//! * child spans get fresh ids from the same generator as trace ids (a
//!   burst takes its ids in one block), so ids are unique across a process
//!   regardless of kind;
//! * `scope` is `app/file`, or a peer name for per-peer children and peer
//!   facts;
//! * `epoch` is the epoch in force when the span *closed* (0 if unknown; a
//!   burst's stage and doorbell carry 0, its other spans the epoch of its
//!   ack).
//!
//! Two bounded rings hold what was recorded: record-path spans (the
//! `ncl.write` trees, [`Span::on_record_path`]) in one, facts and
//! control-path spans in the other, so record traffic never evicts the
//! facts a reader needs to judge it, such as each file's durability scheme.
//! The record ring is bounded in spans and evicts whole entries: a burst's
//! chain is kept or dropped as one.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::burst::Burst;
use crate::ring::Ring;
use crate::snapshot::json_escape;

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
    /// Create child: seeding every fresh peer's seq-0 header.
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

    /// Every well-known span name that is not a fact, in flame order.
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

    // Facts: zero-length spans, each the root of a trace of its own.

    /// A live peer stopped completing work requests (scope = peer).
    pub const PEER_FAILURE: &str = "peer-failure-detect";
    /// A peer fenced a file's region to a new epoch (scope = peer).
    pub const EPOCH_BUMP: &str = "epoch-bump";
    /// The controller's availability map dropped an entry.
    pub const AP_MAP_DELETE: &str = "ap-map-delete";
    /// The phi-style detector declared a silent-but-live peer suspect.
    pub const PEER_SUSPECT: &str = "peer-suspect";
    /// Splitfs lost its durable quorum and fell back to the DFS (opens a
    /// degraded window).
    pub const DFS_FALLBACK_ENGAGE: &str = "dfs-fallback-engage";
    /// Splitfs replayed its fallback journal and resumed NCL logging
    /// (closes the degraded window).
    pub const NCL_REATTACH: &str = "ncl-reattach";
    /// A peer published its endpoint in the registry.
    pub const PEER_PUBLISH: &str = "peer-publish";
    /// A peer withdrew from the registry.
    pub const PEER_WITHDRAW: &str = "peer-withdraw";
    /// A peer allocated + registered a log region.
    pub const REGION_ALLOC: &str = "region-alloc";
    /// A peer freed a log region.
    pub const REGION_FREE: &str = "region-free";
    /// A file declared its durability scheme when it opened; the detail is
    /// `replicated` or `ec k=<k> n=<n>`, from which the checker takes the
    /// coverage an acked write of that scope needs.
    pub const DURABILITY_MODE: &str = "durability-mode";
    /// An erasure-coded file started demoting its acked prefix to the spill
    /// tier.
    pub const SPILL_START: &str = "ncl-spill-start";
    /// The spill snapshot became durable; fragments flipped generation.
    pub const SPILL_FINISH: &str = "ncl-spill-finish";
    /// The spill sink rejected a snapshot store; the demotion is retried.
    pub const SPILL_FAIL: &str = "ncl-spill-fail";
    /// A peer revoked a region under memory pressure (§4.5.2).
    pub const REGION_REVOKE: &str = "region-revoke";
    /// Memory pressure was applied to a peer (detail: target utilisation).
    pub const PEER_PRESSURE: &str = "peer-pressure";
    /// The leak GC reclaimed a region whose lease expired, its app dead.
    pub const LEASE_EXPIRE: &str = "lease-expire";
    /// A span ring dropped its oldest entries (recorded once, at the first
    /// drop): the rings no longer hold a complete window, so the checker
    /// stops judging span completeness. The JSONL sink never drops.
    pub const TRACE_TRUNCATED: &str = "trace-truncated";
    /// The online invariant monitor flagged a violation; the detail carries
    /// `[<invariant code>] <message>`.
    pub const INVARIANT_VIOLATION: &str = "invariant-violation";
    /// The first line of a flight-recorder dump (detail: reason and counts).
    pub const FLIGHT_DUMP: &str = "flight-dump";
    /// One counter's delta over one flight-recorder tick (scope = counter).
    pub const FLIGHT_COUNTER_DELTA: &str = "flight-counter-delta";

    /// Every well-known fact name.
    pub const FACTS: [&str; 21] = [
        PEER_FAILURE,
        EPOCH_BUMP,
        AP_MAP_DELETE,
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
        FLIGHT_DUMP,
        FLIGHT_COUNTER_DELTA,
    ];
}

/// Every interned scope, once, by name and by [`ScopeId`].
#[derive(Default)]
struct Scopes {
    ids: BTreeMap<&'static str, u32>,
    names: Vec<&'static str>,
}

impl Scopes {
    fn intern(&mut self, scope: &str) -> u32 {
        if let Some(&id) = self.ids.get(scope) {
            return id;
        }
        let leaked: &'static str = Box::leak(scope.to_string().into_boxed_str());
        let id = u32::try_from(self.names.len()).expect("fewer than 2^32 scopes");
        self.names.push(leaked);
        self.ids.insert(leaked, id);
        id
    }
}

/// The interner behind [`intern_scope`] and [`ScopeId`].
fn scopes() -> MutexGuard<'static, Scopes> {
    static SCOPES: OnceLock<Mutex<Scopes>> = OnceLock::new();
    SCOPES
        .get_or_init(Mutex::default)
        .lock()
        .expect("scope interner poisoned")
}

/// Interns a span scope (`app/file` or a peer name) or a parsed span name,
/// returning a canonical `&'static str`. Scopes recur constantly — every
/// span of a file carries the same one — so a [`Span`]'s scope is a
/// `&'static str` and hot call sites intern once (per file / per peer),
/// making span recording allocation-free. The backing set
/// deduplicates, so the leak is bounded by the number of *distinct* strings
/// ever seen, not by call volume.
pub fn intern_scope(scope: &str) -> &'static str {
    let mut scopes = scopes();
    let id = scopes.intern(scope);
    scopes.names[id as usize]
}

/// An interned scope in four bytes, where a `&'static str` takes sixteen:
/// what a [`crate::Burst`] names its file and its peers by, so that the
/// record ring keeps a burst's entry small.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScopeId(u32);

impl ScopeId {
    /// Interns `scope` (see [`intern_scope`]). Cold path — keep the id.
    pub fn of(scope: &str) -> Self {
        ScopeId(scopes().intern(scope))
    }

    /// The interned scope.
    pub fn name(self) -> &'static str {
        scopes().names[self.index()]
    }

    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// One closed interval in a trace tree, or a fact (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
    /// What a fact or a control phase adds in words (a durability scheme, a
    /// catch-up's copy kind). `None` on every record-path span, so recording
    /// one allocates nothing.
    pub detail: Option<Box<str>>,
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

    /// True for a span of an `ncl.write` tree, which goes to the record
    /// ring; facts and control-path spans go to the other one. Every span
    /// the record path closes carries its burst's range (sequence numbers
    /// start at 1), so only a span built without one is told by its name.
    pub fn on_record_path(&self) -> bool {
        use spans::*;
        self.seq != (0, 0)
            || matches!(
                self.name,
                NCL_WRITE | NCL_STAGE | NCL_DOORBELL | NCL_WIRE_PEER | NCL_ACK | NCL_CATCHUP_PEER
            )
    }

    /// True for a fact: one of [`spans::FACTS`].
    pub fn is_fact(&self) -> bool {
        spans::FACTS.contains(&self.name)
    }

    /// Renders the span as one JSON object (one JSONL line, sans newline).
    /// The detail, when there is one, comes last.
    pub fn to_json(&self) -> String {
        let detail = self.detail.as_deref().map_or_else(String::new, |d| {
            format!(", \"detail\": \"{}\"", json_escape(d))
        });
        format!(
            "{{\"type\": \"span\", \"trace\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"scope\": \"{}\", \"epoch\": {}, \"seq\": [{}, {}], \"start_ns\": {}, \"end_ns\": {}{detail}}}",
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

/// Spans the record ring keeps by default: a full chaos schedule's writes
/// should be analyzed from the JSONL sink, not the ring.
const RECORD_CAPACITY: usize = 65536;
/// Entries the fact-and-control ring keeps: enough for thousands of
/// recoveries, and never evicted by record traffic.
const CONTROL_CAPACITY: usize = 4096;

/// What the record ring keeps in one piece: a span (boxed, so that a
/// burst's entry sets the ring's stride), or a burst whose spans the
/// readers build.
enum Entry {
    Span(Box<Span>),
    Burst(Burst),
}

impl Entry {
    /// The spans the entry stands for.
    fn weight(&self) -> usize {
        match self {
            Entry::Span(_) => 1,
            Entry::Burst(burst) => burst.span_count(),
        }
    }
}

/// Runs `f` over the interned scopes, indexed by [`ScopeId`]: what builds
/// a burst's spans from its entry.
pub(crate) fn with_scope_names<R>(f: impl FnOnce(&[&'static str]) -> R) -> R {
    f(&scopes().names)
}

struct Rings {
    /// Bounded in spans, evicting whole entries (a burst's chain goes at
    /// once).
    record: Ring<Entry>,
    control: Ring<Span>,
}

/// The two bounded span rings (see the module docs) and the JSONL sink
/// that mirrors them.
pub(crate) struct SpanTrace {
    rings: Mutex<Rings>,
    /// Every recorded span appends one line here and flushes, so a crashed
    /// process leaves a complete file behind.
    sink: Mutex<Option<BufWriter<File>>>,
    /// Set once `sink` holds a file, so recording with none takes no sink
    /// lock.
    sinking: AtomicBool,
}

impl Default for SpanTrace {
    fn default() -> Self {
        SpanTrace {
            rings: Mutex::new(Rings {
                record: Ring::weighted(RECORD_CAPACITY, Entry::weight),
                control: Ring::new(CONTROL_CAPACITY),
            }),
            sink: Mutex::new(None),
            sinking: AtomicBool::new(false),
        }
    }
}

impl SpanTrace {
    fn lock(&self) -> std::sync::MutexGuard<'_, Rings> {
        self.rings.lock().expect("span trace poisoned")
    }

    pub(crate) fn set_sink(&self, path: &Path) -> std::io::Result<()> {
        let file = BufWriter::new(File::create(path)?);
        *self.sink.lock().expect("sink poisoned") = Some(file);
        self.sinking.store(true, Ordering::Release);
        Ok(())
    }

    /// True once a JSONL sink is set.
    pub(crate) fn sinking(&self) -> bool {
        self.sinking.load(Ordering::Acquire)
    }

    /// Appends one line per span to the sink, if one is set, and flushes.
    pub(crate) fn write_sink(&self, spans: &[Span]) {
        if let Some(w) = self.sink.lock().expect("sink poisoned").as_mut() {
            for span in spans {
                let _ = writeln!(w, "{}", span.to_json());
            }
            let _ = w.flush();
        }
    }

    /// Moves `spans` into the rings in order, under one acquisition of the
    /// ring lock. Returns whether a ring had to drop older entries to make
    /// room (the JSONL sink, when set, still receives every span).
    pub(crate) fn push_spans(&self, spans: impl IntoIterator<Item = Span>) -> bool {
        let mut rings = self.lock();
        let mut dropped = false;
        for span in spans {
            dropped |= if span.on_record_path() {
                rings.record.push(Entry::Span(Box::new(span)))
            } else {
                rings.control.push(span)
            };
        }
        dropped
    }

    /// Moves a retired burst into the record ring; returns whether older
    /// entries were dropped for it.
    pub(crate) fn push_burst(&self, burst: &Burst) -> bool {
        self.lock().record.push(Entry::Burst(*burst))
    }

    /// The fact-and-control ring's spans and the record ring's, each oldest
    /// first, timestamped in nanoseconds since `origin`.
    pub(crate) fn rings(&self, origin: Instant) -> (Vec<Span>, Vec<Span>) {
        let rings = self.lock();
        let mut record = Vec::new();
        with_scope_names(|names| {
            for entry in rings.record.iter() {
                match entry {
                    Entry::Span(span) => record.push(Span::clone(span)),
                    Entry::Burst(burst) => burst.expand(origin, names, &mut record),
                }
            }
        });
        (rings.control.iter().cloned().collect(), record)
    }

    /// Spans dropped by the two rings.
    pub(crate) fn dropped(&self) -> u64 {
        let rings = self.lock();
        rings.record.dropped() + rings.control.dropped()
    }

    /// Caps the record ring at `capacity` spans.
    pub(crate) fn set_capacity(&self, capacity: usize) {
        self.lock().record.set_capacity(capacity);
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
            detail: None,
        }
    }

    fn record(t: &SpanTrace, spans: Vec<Span>) {
        t.push_spans(spans);
    }

    #[test]
    fn spans_keep_order_and_ring_bounds() {
        let t = SpanTrace::default();
        t.set_capacity(2);
        record(&t, vec![span(1, 1, 0, spans::NCL_WRITE)]);
        record(
            &t,
            vec![
                span(1, 2, 1, spans::NCL_STAGE),
                span(1, 3, 1, spans::NCL_DOORBELL),
            ],
        );
        let (control, record) = t.rings(Instant::now());
        assert!(control.is_empty());
        assert_eq!(record.len(), 2);
        assert_eq!(record[0].id, 2);
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn record_traffic_never_evicts_facts_or_control_spans() {
        let t = SpanTrace::default();
        t.set_capacity(1);
        record(
            &t,
            vec![Span {
                detail: Some("ec k=3 n=4".into()),
                ..span(1, 1, 0, spans::DURABILITY_MODE)
            }],
        );
        record(&t, vec![span(2, 2, 0, spans::NCL_REPAIR)]);
        for i in 10..20 {
            record(&t, vec![span(i, i, 0, spans::NCL_WRITE)]);
        }
        let (control, record) = t.rings(Instant::now());
        let names: Vec<&str> = control.iter().map(|s| s.name).collect();
        assert_eq!(names, [spans::DURABILITY_MODE, spans::NCL_REPAIR]);
        assert_eq!(record.len(), 1);
        assert_eq!(t.dropped(), 9);
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
        assert!(!j.contains("detail"), "no detail, no field");
        assert_eq!(s.duration_ns(), 30);
        let fact = Span {
            detail: Some("gen=\"2\"".into()),
            ..span(8, 8, 0, spans::SPILL_START)
        };
        assert!(fact.is_fact() && !fact.on_record_path());
        assert!(fact.to_json().ends_with(", \"detail\": \"gen=\\\"2\\\"\"}"));
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
    fn a_burst_entry_is_under_a_quarter_of_its_seven_spans() {
        let (entry, span) = (std::mem::size_of::<Entry>(), std::mem::size_of::<Span>());
        assert!(
            entry <= 176 && 5 * entry <= 8 * span,
            "{entry} B vs {span} B a span"
        );
    }

    #[test]
    fn interning_deduplicates() {
        let parsed = String::from("ncl.write");
        let once = intern_scope(&parsed);
        assert_eq!(once, spans::NCL_WRITE);
        assert!(std::ptr::eq(once, intern_scope("ncl.write")));
    }
}
