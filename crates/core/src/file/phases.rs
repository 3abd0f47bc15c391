//! The control path's one clock (see [`Phases`]).

use std::time::{Duration, Instant};

use telemetry::Telemetry;

/// The phases of one control-path operation — `create`, `recover`,
/// `replace_failed` — closed in order, each as one child span of the
/// operation's root. Each [`close`](Self::close) records `[previous end,
/// now)`, so consecutive phases share their boundary instants and the
/// children partition the root exactly; `RecoveryStats` / `RepairStats` are
/// [`total`](Self::total)s of the same durations. With tracing off (trace
/// id 0) no span is recorded, but every duration is still kept.
pub(super) struct Phases<'t> {
    tel: &'t Telemetry,
    /// The trace id (0 when tracing is off).
    trace: u64,
    scope: &'static str,
    start: Instant,
    /// Where the open phase began: the previous phase's end.
    pub mark: Instant,
    /// The id the open phase's span will carry, allocated ahead so that
    /// per-peer spans inside it can name it as their parent.
    open: u64,
    closed: Vec<(&'static str, Duration)>,
}

impl<'t> Phases<'t> {
    /// Starts the clock of a new trace over `scope`.
    pub(super) fn start(tel: &'t Telemetry, scope: &'static str) -> Self {
        let start = sim::time::now();
        Phases {
            tel,
            trace: tel.next_trace_id(),
            scope,
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
        self.mark = end;
        end - start
    }

    /// Σ of the closed phases named `name`.
    pub(super) fn total(&self, name: &'static str) -> Duration {
        let named = self.closed.iter().filter(|(n, _)| *n == name);
        named.map(|(_, took)| *took).sum()
    }

    /// Runs one peer's share of the open phase under a span of its own
    /// (scope = the peer, detail = how `work` says it was done), parented
    /// to that phase. Reads the clock only when tracing.
    pub(super) fn peer<R>(
        &self,
        name: &'static str,
        scope: &'static str,
        epoch: u64,
        work: impl FnOnce() -> (R, &'static str),
    ) -> R {
        if self.trace == 0 {
            return work().0;
        }
        let start = sim::time::now();
        let (out, detail) = work();
        let (tel, end) = (self.tel, sim::time::now());
        let id = tel.next_span_id();
        let mut span = tel.closed_span(
            self.trace,
            id,
            self.open,
            name,
            scope,
            epoch,
            (0, 0),
            start,
            end,
        );
        span.detail = Some(detail.into());
        tel.record_spans(&mut vec![span]);
        out
    }

    /// Records the root, `[start, end of the last phase)`, last — as every
    /// trace's root is: the live checker settles a trace when it arrives.
    pub(super) fn finish(self, root: &'static str, epoch: u64) {
        let (tel, trace, scope) = (self.tel, self.trace, self.scope);
        tel.span(trace, trace, 0, root, scope, epoch, self.start, self.mark);
    }
}
