//! The control path's one clock (see [`Phases`]).

use std::time::{Duration, Instant};

use telemetry::{Span, Telemetry};

use super::plan::Action;

/// The phases of one control-path operation — `create`, `recover`,
/// `replace_failed` — closed in order, each as one child span of the
/// operation's root. Each [`close`](Self::close) records `[previous end,
/// now)`, so consecutive phases share their boundary instants and the
/// children partition the root exactly; `RecoveryStats` / `RepairStats` are
/// [`total`](Self::total)s of the same durations. With telemetry disabled
/// (trace id 0) no span is recorded, but every duration is still kept.
///
/// Dropping the clock records the root, on every exit of the operation:
/// `[start, end of the last phase)`, at the last phase's epoch, last — as
/// every trace's root is, since the live checker settles a trace when it
/// arrives. A clock that closed no phase records nothing.
pub(super) struct Phases<'t> {
    tel: &'t Telemetry,
    /// The trace id (0 when telemetry is disabled).
    trace: u64,
    root: &'static str,
    scope: &'static str,
    /// The epoch of the last closed phase.
    epoch: u64,
    start: Instant,
    /// Where the open phase began: the previous phase's end.
    pub mark: Instant,
    /// The id the open phase's span will carry, allocated ahead so that
    /// per-peer spans inside it can name it as their parent.
    open: u64,
    closed: Vec<(&'static str, Duration)>,
}

impl<'t> Phases<'t> {
    /// Starts the clock of a new trace, rooted at `root`, over `scope`.
    pub(super) fn start(tel: &'t Telemetry, root: &'static str, scope: &'static str) -> Self {
        let start = sim::time::now();
        Phases {
            tel,
            trace: tel.next_trace_id(),
            root,
            scope,
            epoch: 0,
            start,
            mark: start,
            open: tel.next_trace_id(),
            closed: Vec::new(),
        }
    }

    /// The span `name` of this trace over `[start, end)`, with the ids
    /// `(id, parent)`.
    fn span(
        &self,
        (id, parent): (u64, u64),
        name: &'static str,
        epoch: u64,
        at: (Instant, Instant),
    ) -> Span {
        let (trace, scope) = (self.trace, self.scope);
        let (start_ns, end_ns) = (self.tel.instant_ns(at.0), self.tel.instant_ns(at.1));
        Span {
            trace,
            id,
            parent,
            name,
            scope,
            epoch,
            start_ns,
            end_ns,
            ..Span::default()
        }
    }

    /// Closes the open phase as the child `name`, ending now, and returns
    /// its length.
    pub(super) fn close(&mut self, name: &'static str, epoch: u64) -> Duration {
        let (start, end) = (self.mark, sim::time::now());
        let span = self.span((self.open, self.trace), name, epoch, (start, end));
        self.tel.record_spans([span]);
        if self.trace != 0 {
            self.open = self.tel.next_trace_id();
        }
        self.closed.push((name, end - start));
        (self.mark, self.epoch) = (end, epoch);
        end - start
    }

    /// Σ of the closed phases named `name`.
    pub(super) fn total(&self, name: &'static str) -> Duration {
        let named = self.closed.iter().filter(|(n, _)| *n == name);
        named.map(|(_, took)| *took).sum()
    }

    /// Records one peer's share of the open phase, `[at, at + wire)` —
    /// posted at `at`, landed `wire` later, if at all — as a span of its
    /// own (scope = the peer, detail = how it was caught up), parented to
    /// that phase.
    pub(super) fn peer(
        &self,
        name: &'static str,
        scope: &'static str,
        epoch: u64,
        (at, wire): (Instant, Option<Duration>),
        how: Action,
    ) {
        if self.trace == 0 {
            return;
        }
        let ids = (self.tel.next_trace_id(), self.open);
        let span = self.span(ids, name, epoch, (at, at + wire.unwrap_or_default()));
        let detail = Some(how.detail().into());
        self.tel.record_spans([Span {
            scope,
            detail,
            ..span
        }]);
    }
}

impl Drop for Phases<'_> {
    fn drop(&mut self) {
        if !self.closed.is_empty() {
            let at = (self.start, self.mark);
            let root = self.span((self.trace, 0), self.root, self.epoch, at);
            self.tel.record_spans([root]);
        }
    }
}
