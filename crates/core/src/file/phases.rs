//! The control path's one clock (see [`Phases`]).

use std::time::{Duration, Instant};

use telemetry::Telemetry;

use super::repair::How;

/// The phases of one control-path operation — `create`, `recover`,
/// `replace_failed` — closed in order, each as one child span of the
/// operation's root. Each [`close`](Self::close) records `[previous end,
/// now)`, so consecutive phases share their boundary instants and the
/// children partition the root exactly; `RecoveryStats` / `RepairStats` are
/// [`total`](Self::total)s of the same durations. With tracing off (trace
/// id 0) no span is recorded, but every duration is still kept.
///
/// Dropping the clock records the root, on every exit of the operation:
/// `[start, end of the last phase)`, at the last phase's epoch, last — as
/// every trace's root is, since the live checker settles a trace when it
/// arrives. A clock that closed no phase records nothing.
pub(super) struct Phases<'t> {
    tel: &'t Telemetry,
    /// The trace id (0 when tracing is off).
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
            open: tel.next_span_id(),
            closed: Vec::new(),
        }
    }

    /// Closes the open phase as the child `name`, ending now, and returns
    /// its length.
    pub(super) fn close(&mut self, name: &'static str, epoch: u64) -> Duration {
        let (start, end) = (self.mark, sim::time::now());
        let (tel, trace, scope) = (self.tel, self.trace, self.scope);
        tel.span(trace, self.open, trace, name, scope, epoch, start, end);
        if trace != 0 {
            self.open = tel.next_span_id();
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
        how: How,
    ) {
        if self.trace == 0 {
            return;
        }
        let (tel, trace, end) = (self.tel, self.trace, at + wire.unwrap_or_default());
        let id = tel.next_span_id();
        let seq = (0, 0);
        let mut span = tel.closed_span(trace, id, self.open, name, scope, epoch, seq, at, end);
        let detail = match how {
            How::Fresh => "fresh peer",
            How::InPlace => "tail in place",
            How::FullCopy => "full copy",
        };
        span.detail = Some(detail.into());
        tel.record_spans(&mut vec![span]);
    }
}

impl Drop for Phases<'_> {
    fn drop(&mut self) {
        if !self.closed.is_empty() {
            let (tel, trace, scope) = (self.tel, self.trace, self.scope);
            let (root, epoch) = (self.root, self.epoch);
            tel.span(trace, trace, 0, root, scope, epoch, self.start, self.mark);
        }
    }
}
