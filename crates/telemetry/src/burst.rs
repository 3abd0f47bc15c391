//! One NCL burst's record-path spans, kept as one value and built by the
//! readers.
//!
//! A burst (the records one doorbell posts) closes a fixed chain of spans:
//! stage, doorbell, one wire span per peer whose header covered it, ack and
//! the `ncl.write` root, all carrying its record range. Every one of them
//! is a function of a few instants the record path observes anyway, so the
//! path keeps those instants in a [`Burst`] while the burst is in flight and
//! hands it to [`crate::Telemetry::record_burst`] when the burst retires:
//! one record-ring entry, whatever the chain's length. The span ids are
//! reserved in one block when the burst opens
//! ([`crate::Telemetry::open_burst`]), so the spans a reader builds from the
//! entry are the ones the path would have built, ids included.
//!
//! A burst is plain data of a fixed size, small because a ring entry is
//! written once, read rarely, and its bytes are cache misses on the thread
//! that writes it: scopes are 4-byte [`ScopeId`]s, every instant after the
//! entry is kept as nanoseconds after it (which is also what the stage
//! histograms are stamped with), and a wire span as 32-bit offsets from the
//! post.

use std::time::Instant;

use crate::span::{spans, ScopeId, Span};

/// Wire spans a [`Burst`] holds: every peer of a replicated file up to
/// `f = 2`, and of an erasure-coded one up to six fragments. A burst
/// covered by more records each further wire span on its own
/// ([`crate::Telemetry::add_wire`]).
const WIRES: usize = 6;

/// No first peer yet.
const UNCOVERED: u64 = u64::MAX;

/// One peer's wire flight: post to the completion that covered the burst,
/// in nanoseconds after the post.
#[derive(Clone, Copy)]
struct Wire {
    scope: ScopeId,
    start: u32,
    end: u32,
}

/// The telemetry of one NCL burst, the records [`Burst::seq`], from its
/// first record's entry to its quorum ack. The record path fills the
/// instants in as it observes them; a reader expands it into the burst's
/// spans.
#[derive(Clone, Copy)]
pub struct Burst {
    /// The burst's trace id, which is also its root span's id; 0 when
    /// tracing was off when it opened, and then it records no span.
    pub trace: u64,
    /// The burst's record range, inclusive.
    pub seq: (u64, u64),
    epoch: u64,
    /// The earliest `record_nowait` entry among its records; what every
    /// `*_ns` below counts from.
    entry: Instant,
    /// Its last record's staging-complete instant.
    staged_ns: u64,
    /// The doorbell: when it was posted to every peer.
    posted_ns: u64,
    /// The first peer whose header completion covered it, or
    /// [`UNCOVERED`].
    first_peer_ns: u64,
    /// When the quorum watermark passed it.
    durable_ns: u64,
    scope: ScopeId,
    /// Wire span ids reserved after the stage and doorbell ids: one per
    /// peer the burst was posted to.
    peers: u32,
    /// Wire spans added so far, the first `kept` of them in `wires`.
    covered: u32,
    kept: u32,
    wires: [Wire; WIRES],
}

impl Burst {
    /// A burst of the records `seq` on `scope`, staged over
    /// `(entry, staged)` and posted at `posted` to `peers` peers, whose
    /// trace id is `trace` and whose children's ids are the
    /// [`Burst::ids`]` - 1` that follow it.
    pub(crate) fn new(
        trace: u64,
        scope: ScopeId,
        seq: (u64, u64),
        (entry, staged): (Instant, Instant),
        posted: Instant,
        peers: u32,
    ) -> Self {
        let unused = Wire {
            scope,
            start: 0,
            end: 0,
        };
        Burst {
            trace,
            seq,
            epoch: 0,
            entry,
            staged_ns: ns_since(entry, staged),
            posted_ns: ns_since(entry, posted),
            first_peer_ns: UNCOVERED,
            durable_ns: 0,
            scope,
            peers,
            covered: 0,
            kept: 0,
            wires: [unused; WIRES],
        }
    }

    /// Ids a burst on `peers` peers takes, its trace id first.
    pub(crate) fn ids(peers: u32) -> u64 {
        u64::from(peers) + 4
    }

    /// `at`, in nanoseconds after the burst's entry.
    pub fn ns(&self, at: Instant) -> u64 {
        ns_since(self.entry, at)
    }

    /// The doorbell instant, ns after the entry.
    pub fn posted_ns(&self) -> u64 {
        self.posted_ns
    }

    /// When the first peer's header covered the burst, ns after the entry,
    /// if one has.
    pub fn first_peer_ns(&self) -> Option<u64> {
        (self.first_peer_ns != UNCOVERED).then_some(self.first_peer_ns)
    }

    /// Notes that the first peer's header covering the burst was observed
    /// `at_ns` after its entry.
    pub fn cover(&mut self, at_ns: u64) {
        self.first_peer_ns = at_ns;
    }

    /// Closes the burst: durable `at_ns` after its entry, under `epoch`.
    pub fn retire(&mut self, epoch: u64, at_ns: u64) {
        (self.epoch, self.durable_ns) = (epoch, at_ns);
    }

    /// Keeps the wire span of peer `scope`, whose header covering the burst
    /// was observed `end` ns after its entry and whose flight took
    /// `wire_ns` (the span starts no earlier than the post). A burst keeps
    /// [`WIRES`] of them, each ending within four seconds of the post; any
    /// other is returned as a span of its own, with `epoch`, for the
    /// caller to record. `None` also on an untraced burst and past the
    /// peers it was posted to.
    pub(crate) fn add_wire(
        &mut self,
        origin: Instant,
        scope: ScopeId,
        epoch: u64,
        (wire_ns, end): (u64, u64),
    ) -> Option<Span> {
        if self.trace == 0 || self.covered >= self.peers {
            return None;
        }
        let id = self.trace + 3 + u64::from(self.covered);
        self.covered += 1;
        let start = end.saturating_sub(wire_ns).max(self.posted_ns);
        let after_post = |ns: u64| u32::try_from(ns.saturating_sub(self.posted_ns)).ok();
        match (self.wires.get_mut(self.kept as usize), after_post(end)) {
            (Some(slot), Some(end)) => {
                let start = after_post(start).expect("starts before it ends");
                *slot = Wire { scope, start, end };
                self.kept += 1;
                None
            }
            _ => {
                let base = ns_since(origin, self.entry);
                let name = scope.name();
                let mut span = self.span(base, id, spans::NCL_WIRE_PEER, name, (start, end));
                span.epoch = epoch;
                Some(span)
            }
        }
    }

    /// How many spans the burst's entry expands into.
    pub(crate) fn span_count(&self) -> usize {
        4 + self.kept as usize
    }

    /// Appends the burst's spans to `out` in the order the record path
    /// closes them: stage, doorbell, one wire span per covering peer in the
    /// order they were observed, ack, and the root last. Timestamps are
    /// nanoseconds since `origin`; `names` are the interned scopes.
    pub(crate) fn expand(&self, origin: Instant, names: &[&'static str], out: &mut Vec<Span>) {
        let base = ns_since(origin, self.entry);
        let (trace, scope) = (self.trace, names[self.scope.index()]);
        for (id, name, interval) in [
            (trace + 1, spans::NCL_STAGE, (0, self.staged_ns)),
            (
                trace + 2,
                spans::NCL_DOORBELL,
                (self.staged_ns, self.posted_ns),
            ),
        ] {
            let mut span = self.span(base, id, name, scope, interval);
            span.epoch = 0;
            out.push(span);
        }
        let kept = &self.wires[..self.kept as usize];
        for (id, wire) in (trace + 3..).zip(kept) {
            let (peer, post) = (names[wire.scope.index()], self.posted_ns);
            let interval = (post + u64::from(wire.start), post + u64::from(wire.end));
            out.push(self.span(base, id, spans::NCL_WIRE_PEER, peer, interval));
        }
        let acked = self.first_peer_ns().unwrap_or(self.posted_ns);
        let ack = trace + 3 + u64::from(self.peers);
        out.push(self.span(base, ack, spans::NCL_ACK, scope, (acked, self.durable_ns)));
        let mut root = self.span(base, trace, spans::NCL_WRITE, scope, (0, self.durable_ns));
        root.parent = 0;
        out.push(root);
    }

    /// A child span of the burst over `(start, end)`, ns after its entry,
    /// which is `base` ns after the handle's origin.
    fn span(
        &self,
        base: u64,
        id: u64,
        name: &'static str,
        scope: &'static str,
        (start, end): (u64, u64),
    ) -> Span {
        Span {
            trace: self.trace,
            id,
            parent: self.trace,
            name,
            scope,
            epoch: self.epoch,
            seq: self.seq,
            start_ns: base + start,
            end_ns: base + end.max(start),
            detail: None,
        }
    }
}

/// `t` in nanoseconds since `origin`, 0 for an earlier instant.
pub(crate) fn ns_since(origin: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(origin).as_nanos() as u64
}
