//! Streaming online invariant monitor: the live front end of the
//! [`Checker`].
//!
//! [`crate::analyze`] replays a finished JSONL artifact through a checker;
//! this module subscribes one to the live span/event stream inside a
//! [`crate::Telemetry`] handle ([`OnlineMonitor::attach`]), so the rules of
//! [`crate::checker`] are verified *as traces complete*, with bounded
//! memory. What lives here is only the plumbing around the checker:
//!
//! * recording threads pay one `Vec` push per span; the checker is fed in
//!   batches by the `ncl-invmon` drainer thread (or by the next event,
//!   report or [`finalize`]);
//! * traces retire after the
//!   [retirement lag](OnlineMonitor::attach_with_limits) and failures are
//!   confirmed after the suspect grace, both in stream time;
//! * confirmed violations increment `invariant.violations.total` (exported
//!   as `splitft_invariant_violations_total`), emit an
//!   `invariant-violation` event, fire the registered
//!   [`on_violation`](OnlineMonitor::on_violation) hook (the testbed wires a
//!   flight-recorder dump there), and flip `/health` to 503 via
//!   [`OnlineMonitor::violating`];
//! * a trace-ring overflow ([`crate::Telemetry`] reports it via
//!   `note_truncated`) reaches the checker, which downgrades its
//!   span-completeness rules to a "truncated window" note.
//!
//! [`finalize`]: OnlineMonitor::finalize

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::checker::{Checker, MonitorReport, Violation};
use crate::{events, Counter, Event, Gauge, Span, Telemetry, WeakTelemetry};

/// Watermark distance a rooted trace must be quiet for before it is judged.
/// Large enough for minority wire spans closing at peer timeouts.
const DEFAULT_RETIREMENT_LAG_NS: u64 = 100_000_000; // 100ms
/// Extra watermark distance a failing trace is held as a suspect before its
/// failure becomes a violation (late catch-up credits can still clear it).
const DEFAULT_SUSPECT_GRACE_NS: u64 = 3_000_000_000; // 3s
/// Producer buffer length at which the background drainer is nudged awake.
/// Producers only pay a `Vec` push under a short lock; the full checker
/// state is touched in batches on the drainer thread, off every recording
/// thread's critical path (on a saturated core the checker work rides the
/// pipeline's wire-wait slack instead of stalling submissions).
const DRAIN_BATCH: usize = 256;
/// Backpressure bound: a producer finding this many undrained spans pays
/// for the drain inline instead of growing the buffer without limit.
const DRAIN_HARD_CAP: usize = 1 << 16;
/// Drainer thread wake interval when no producer nudges it.
const DRAIN_INTERVAL: std::time::Duration = std::time::Duration::from_millis(10);

/// The violation hook: fired once per confirmed violation, outside the
/// state lock (the testbed wires a flight-recorder dump here).
type ViolationHook = Arc<dyn Fn(&Violation) + Send + Sync>;

/// The checker of the current attachment plus how much of its retirement
/// count has reached the `invariant.retired.total` counter.
#[derive(Default)]
struct Live {
    checker: Checker,
    retired_published: u64,
}

pub(crate) struct MonitorCore {
    /// Weak: the owning `Telemetry` holds this core strongly in its monitor
    /// slot, so a strong handle here would be a cycle.
    tel: WeakTelemetry,
    /// Public [`OnlineMonitor`] handles alive. When the count hits zero the
    /// core deactivates (the allocation stays in the `Telemetry`'s lock-free
    /// slot and can be revived by a later attach).
    handles: AtomicUsize,
    active: AtomicBool,
    violations_total: Counter,
    retired_total: Counter,
    open_traces_gauge: Gauge,
    suspects_gauge: Gauge,
    hook: Mutex<Option<ViolationHook>>,
    /// Producer-side span buffer. Recording threads only push here (a
    /// short-lived lock around a `Vec` push); the checker is fed in batches
    /// on the drainer thread, so threads recording spans at line rate never
    /// serialize on the full `state` critical section.
    pending: Mutex<Vec<Span>>,
    /// Wakes the drainer early when the buffer crosses [`DRAIN_BATCH`].
    gate: Arc<(Mutex<bool>, std::sync::Condvar)>,
    drainer: Mutex<Option<std::thread::JoinHandle<()>>>,
    state: Mutex<Live>,
}

impl MonitorCore {
    /// Called by `Telemetry::span` with the monitor's state lock NOT held by
    /// anyone up-stack. The span is only buffered here; the checker is fed
    /// by the drainer thread (or on the next report / event / finalize),
    /// keeping the recording threads' critical section to a `Vec` push.
    pub(crate) fn on_span(&self, span: &Span) {
        let len = {
            let mut buf = self.pending.lock().expect("monitor buffer poisoned");
            buf.push(span.clone());
            buf.len()
        };
        if len >= DRAIN_HARD_CAP {
            // Backpressure: the drainer has fallen behind; pay inline.
            self.drain();
        } else if len % DRAIN_BATCH == 0 {
            self.gate.1.notify_one();
        }
    }

    pub(crate) fn on_event(&self, ev: &Event) {
        // Self-emitted from `publish`; must not feed back into the checks.
        if ev.kind == events::INVARIANT_VIOLATION {
            return;
        }
        self.with_checker(|checker, fresh| fresh.extend(checker.feed_event(ev)));
    }

    /// Records that an in-memory trace ring overflowed.
    pub(crate) fn note_truncated(&self) {
        let mut live = self.state.lock().expect("monitor poisoned");
        live.checker.note_truncated();
    }

    /// Feeds the buffered spans to the checker.
    fn drain(&self) {
        self.with_checker(|_, _| ());
    }

    /// Runs `f` on the checker, under the state lock, after flushing the
    /// producer buffer into it (buffered spans logically precede whatever
    /// `f` feeds or reads). Violations confirmed by the flush, plus those
    /// `f` adds to its second argument, are published once the lock is
    /// released.
    fn with_checker<R>(&self, f: impl FnOnce(&mut Checker, &mut Vec<Violation>) -> R) -> R {
        let (out, fresh) = {
            let mut live = self.state.lock().expect("monitor poisoned");
            let batch = std::mem::take(&mut *self.pending.lock().expect("monitor buffer poisoned"));
            let mut fresh = Vec::new();
            for span in &batch {
                fresh.extend(live.checker.feed_span(span));
            }
            let out = f(&mut live.checker, &mut fresh);
            let tally = live.checker.report();
            let (retired, open, suspects) =
                (tally.retired_clean, tally.open_traces, tally.suspects);
            self.retired_total.add(retired - live.retired_published);
            live.retired_published = retired;
            self.open_traces_gauge.set(open as i64);
            self.suspects_gauge.set(suspects as i64);
            (out, fresh)
        };
        self.publish(&fresh);
        out
    }

    /// Emits counters / events / the hook for freshly confirmed violations.
    /// MUST be called with the state lock released: the event emission
    /// re-enters `Telemetry` (harmless — `on_event` ignores the kind), and
    /// the hook may capture a flight recorder that snapshots the rings.
    fn publish(&self, fresh: &[Violation]) {
        let tel = (!fresh.is_empty()).then(|| self.tel.upgrade()).flatten();
        for v in fresh {
            self.violations_total.inc();
            if let Some(tel) = &tel {
                tel.event(
                    events::INVARIANT_VIOLATION,
                    &v.scope,
                    0,
                    format!("[{}] {}", v.invariant, v.message),
                );
            }
            let hook = self.hook.lock().expect("monitor hook poisoned").clone();
            if let Some(hook) = hook {
                hook(v);
            }
        }
    }
}

/// Public handle to an attached online monitor. Cloning shares the checker.
///
/// Dropping the last clone deactivates the checks: the recording fast path
/// reverts to a single relaxed load, the drainer thread exits, and the
/// checker state is freed (the small core allocation stays in the owning
/// [`Telemetry`]'s lock-free slot, ready to be revived by a later attach).
pub struct OnlineMonitor {
    core: Arc<MonitorCore>,
}

impl Clone for OnlineMonitor {
    fn clone(&self) -> Self {
        Self::from_core(Arc::clone(&self.core))
    }
}

impl Drop for OnlineMonitor {
    fn drop(&mut self) {
        if self.core.handles.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.core.deactivate();
        }
    }
}

impl std::fmt::Debug for OnlineMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineMonitor")
            .field("violations", &self.violation_count())
            .finish()
    }
}

impl OnlineMonitor {
    /// Attaches a monitor with default retirement/grace windows. `quorum` is
    /// the deployment's f+1 write quorum (EC scopes override it per scope
    /// via their `durability-mode` events).
    ///
    /// A `Telemetry` accepts one attachment for its lifetime; later calls
    /// return a handle to the already-attached monitor.
    pub fn attach(tel: &Telemetry, quorum: usize) -> Self {
        Self::attach_with_limits(
            tel,
            quorum,
            DEFAULT_RETIREMENT_LAG_NS,
            DEFAULT_SUSPECT_GRACE_NS,
        )
    }

    /// [`attach`](Self::attach) with explicit windows, for tests that want
    /// fast retirement.
    pub fn attach_with_limits(
        tel: &Telemetry,
        quorum: usize,
        retirement_lag_ns: u64,
        suspect_grace_ns: u64,
    ) -> Self {
        let core = Arc::new(MonitorCore {
            tel: tel.downgrade(),
            handles: AtomicUsize::new(0),
            active: AtomicBool::new(true),
            violations_total: tel.counter("invariant.violations.total"),
            retired_total: tel.counter("invariant.retired.total"),
            open_traces_gauge: tel.gauge("invariant.open_traces"),
            suspects_gauge: tel.gauge("invariant.suspects"),
            hook: Mutex::new(None),
            pending: Mutex::new(Vec::new()),
            gate: Arc::new((Mutex::new(false), std::sync::Condvar::new())),
            drainer: Mutex::new(None),
            state: Mutex::new(Live {
                checker: Checker::live(quorum, retirement_lag_ns, suspect_grace_ns),
                retired_published: 0,
            }),
        });
        match tel.install_monitor(&core) {
            Some(existing) => Self::from_core(existing),
            None => {
                if tel.is_enabled() {
                    MonitorCore::spawn_drainer(&core);
                }
                Self::from_core(core)
            }
        }
    }

    /// Registers (replacing) the violation hook, fired once per confirmed
    /// violation, outside every monitor lock. The testbed points this at a
    /// flight-recorder dump so the offending window is captured at fault
    /// time.
    pub fn on_violation(&self, hook: impl Fn(&Violation) + Send + Sync + 'static) {
        *self.core.hook.lock().expect("monitor hook poisoned") = Some(Arc::new(hook));
    }

    /// Total confirmed violations so far (flushes buffered spans first).
    pub fn violation_count(&self) -> u64 {
        self.core
            .with_checker(|checker, _| checker.report().violation_count())
    }

    /// True when at least one invariant has been violated (`/health` flips
    /// to 503 on this).
    pub fn violating(&self) -> bool {
        self.violation_count() > 0
    }

    /// Point-in-time report without draining open traces (buffered spans
    /// are flushed and a retirement sweep runs first).
    pub fn report(&self) -> MonitorReport {
        self.core.with_checker(|checker, fresh| {
            fresh.extend(checker.sweep());
            checker.report().clone()
        })
    }

    /// Drains every open trace (watermark → ∞), settles suspects, and
    /// freezes the monitor: subsequent spans/events are ignored, so the
    /// returned report is stable. Idempotent.
    pub fn finalize(&self) -> MonitorReport {
        self.core.with_checker(|checker, fresh| {
            fresh.extend(checker.finalize());
            checker.report().clone()
        })
    }

    /// `/invariants` body: the current report as JSON.
    pub fn render_json(&self) -> String {
        self.report().to_json()
    }

    pub(crate) fn from_core(core: Arc<MonitorCore>) -> Self {
        core.handles.fetch_add(1, Ordering::AcqRel);
        OnlineMonitor { core }
    }
}

impl MonitorCore {
    /// Spawns the background drainer: wakes when a producer crosses
    /// [`DRAIN_BATCH`] buffered spans (or every [`DRAIN_INTERVAL`]), flushes
    /// the buffer through the checker, and exits when the gate's stop flag
    /// is raised (deactivation or core drop). Holding only a `Weak`, it
    /// never keeps an orphaned core alive.
    pub(crate) fn spawn_drainer(core: &Arc<MonitorCore>) {
        let weak = Arc::downgrade(core);
        let gate = Arc::clone(&core.gate);
        let handle = std::thread::Builder::new()
            .name("ncl-invmon".to_string())
            .spawn(move || loop {
                {
                    let stopped = gate.0.lock().expect("monitor gate poisoned");
                    let (stopped, _) = gate
                        .1
                        .wait_timeout(stopped, DRAIN_INTERVAL)
                        .expect("monitor gate poisoned");
                    if *stopped {
                        return;
                    }
                }
                let Some(core) = weak.upgrade() else { return };
                core.drain();
            })
            .expect("spawn invariant-monitor drainer");
        *core.drainer.lock().expect("monitor drainer poisoned") = Some(handle);
    }

    pub(crate) fn is_active(&self) -> bool {
        self.active.load(Ordering::Acquire)
    }

    /// Revives a deactivated core in place with the fresh checker of a new
    /// attachment. Called by `Telemetry::install_monitor`, which then
    /// restarts the drainer.
    pub(crate) fn reactivate(&self, candidate: &MonitorCore) {
        let fresh = std::mem::take(&mut *candidate.state.lock().expect("monitor poisoned"));
        *self.state.lock().expect("monitor poisoned") = fresh;
        self.pending
            .lock()
            .expect("monitor buffer poisoned")
            .clear();
        self.active.store(true, Ordering::Release);
    }

    /// Restarts the drainer after a [`reactivate`](Self::reactivate) (the
    /// previous one exited at deactivation).
    pub(crate) fn respawn_drainer(core: &Arc<MonitorCore>) {
        *core.gate.0.lock().expect("monitor gate poisoned") = false;
        let running = core
            .drainer
            .lock()
            .expect("monitor drainer poisoned")
            .is_some();
        if !running {
            Self::spawn_drainer(core);
        }
    }

    /// Last public handle gone: stop forwarding, stop the drainer, free the
    /// checker state. The allocation itself stays installed in the owning
    /// `Telemetry` (its lock-free slot is write-once) until that drops.
    fn deactivate(&self) {
        self.active.store(false, Ordering::Release);
        if let Some(tel) = self.tel.upgrade() {
            tel.clear_monitor_gate();
        }
        self.stop_drainer();
        self.pending
            .lock()
            .expect("monitor buffer poisoned")
            .clear();
        *self.state.lock().expect("monitor poisoned") = Live::default();
    }

    fn stop_drainer(&self) {
        *self.gate.0.lock().expect("monitor gate poisoned") = true;
        self.gate.1.notify_all();
        if let Some(h) = self
            .drainer
            .lock()
            .expect("monitor drainer poisoned")
            .take()
        {
            // Joining from the drainer's own thread (a hook holding the last
            // handle) would error, not deadlock — skip it instead.
            if std::thread::current().id() != h.thread().id() {
                let _ = h.join();
            }
        }
    }
}

impl Drop for MonitorCore {
    fn drop(&mut self) {
        self.stop_drainer();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::checker::{invariant, SWEEP_EVERY};
    use crate::spans;
    use std::time::{Duration, Instant};

    fn sp(trace: u64, id: u64, parent: u64, name: &'static str, scope: &'static str) -> Span {
        Span {
            trace,
            id,
            parent,
            name,
            scope,
            epoch: 1,
            seq: (0, 0),
            start_ns: 100,
            end_ns: 200,
        }
    }

    fn at(mut span: Span, start_ns: u64, end_ns: u64) -> Span {
        span.start_ns = start_ns;
        span.end_ns = end_ns;
        span
    }

    fn ev(ts_ns: u64, kind: &'static str, scope: &str, epoch: u64, detail: &str) -> Event {
        Event {
            ts_ns,
            kind,
            scope: scope.into(),
            epoch,
            trace: 0,
            detail: detail.into(),
        }
    }

    /// One acked write on `app/f` in emission order: children, root last.
    fn acked_write(trace: u64, peers: &[&'static str]) -> Vec<Span> {
        let mut spans = vec![
            sp(trace, trace + 1, trace, spans::NCL_STAGE, "app/f"),
            sp(trace, trace + 2, trace, spans::NCL_DOORBELL, "app/f"),
        ];
        for (i, peer) in peers.iter().enumerate() {
            let id = trace + 3 + i as u64;
            spans.push(sp(trace, id, trace, spans::NCL_WIRE_PEER, peer));
        }
        spans.push(sp(trace, trace, 0, spans::NCL_WRITE, "app/f"));
        spans
    }

    /// The same write as one burst of the records `seq`: every span of the
    /// trace carries the range.
    fn acked_burst(trace: u64, seq: (u64, u64), peers: &[&'static str]) -> Vec<Span> {
        let spans = acked_write(trace, peers).into_iter();
        spans.map(|s| Span { seq, ..s }).collect()
    }

    /// The same write moved to `[5_000, 6_000]`.
    fn acked_write_at_5000(trace: u64) -> Vec<Span> {
        acked_write(trace, &["peer-0", "peer-1"])
            .into_iter()
            .map(|s| at(s, 5_000, 6_000))
            .collect()
    }

    fn degraded_window() -> Vec<Event> {
        vec![
            ev(1_000, events::DFS_FALLBACK_ENGAGE, "app/f", 2, ""),
            ev(9_000, events::NCL_REATTACH, "app/f", 3, ""),
        ]
    }

    fn replay_span() -> Span {
        at(
            sp(0, 500, 0, spans::FS_REATTACH_REPLAY, "app/f"),
            4_000,
            8_000,
        )
    }

    struct Case {
        name: &'static str,
        spans: Vec<Span>,
        events: Vec<Event>,
        acked_writes: u64,
        open_writes: u64,
        /// `(invariant code, message substring)` per expected violation, in
        /// the order the engine confirms them.
        expect: Vec<(&'static str, &'static str)>,
    }

    fn cases() -> Vec<Case> {
        let case = |name, spans, events, acked_writes, expect| Case {
            name,
            spans,
            events,
            acked_writes,
            open_writes: 0,
            expect,
        };
        let both = ["peer-0", "peer-1"];
        let mut late_credit = acked_write(10, &["peer-0"]);
        late_credit.push(sp(10, 99, 10, spans::NCL_CATCHUP_PEER, "peer-2"));
        // Recorded before the root, like every child: a live checker has
        // settled a clean trace by the time a post-root straggler shows up.
        let mut orphaned = acked_write(10, &both);
        orphaned.insert(0, sp(10, 999, 555, spans::NCL_ACK, "app/f"));
        let mut replayed = acked_write_at_5000(10);
        replayed.push(replay_span());
        // What a flight dump holds: spans sorted by (start, id), so the
        // replay span and the root come before the root's children.
        let mut dump_order = replayed.clone();
        dump_order.sort_by_key(|s| (s.start_ns, s.id));
        assert!(dump_order[1].is_root());
        // A write whose coverage children fell off the ring: under-quorum
        // AND orphaned if judged naively.
        let beheaded = vec![
            sp(10, 99, 55, spans::NCL_ACK, "app/f"), // parent 55 was dropped
            sp(10, 10, 0, spans::NCL_WRITE, "app/f"),
        ];
        // A replacement caught peer-2 up over a burst in flight: its credit
        // carries the burst's range and lands before the root, as in repair.
        let mut burst_credit = acked_burst(10, (5, 7), &["peer-0"]);
        let credit = sp(10, 99, 10, spans::NCL_CATCHUP_PEER, "peer-2");
        burst_credit.insert(
            3,
            Span {
                seq: (5, 7),
                ..credit
            },
        );
        vec![
            case("clean write", acked_write(10, &both), vec![], 1, vec![]),
            case(
                "clean 3-record burst",
                acked_burst(10, (5, 7), &both),
                vec![],
                3,
                vec![],
            ),
            case(
                "3-record burst missing a wire span",
                acked_burst(10, (5, 7), &["peer-0"]),
                vec![],
                3,
                vec![(invariant::ACK_COVERAGE, "reconstruction quorum is 2")],
            ),
            case(
                "3-record burst credited by catch-up",
                burst_credit,
                vec![],
                3,
                vec![],
            ),
            case(
                "under-quorum coverage",
                acked_write(10, &["peer-0"]),
                vec![],
                1,
                vec![(invariant::ACK_COVERAGE, "reconstruction quorum is 2")],
            ),
            case("catch-up credit counts", late_credit, vec![], 1, vec![]),
            case(
                "erasure-coded scope needs its declared k",
                acked_write(10, &both),
                vec![ev(1, events::DURABILITY_MODE, "app/f", 1, "ec k=3 n=4")],
                1,
                vec![(invariant::ACK_COVERAGE, "reconstruction quorum is 3")],
            ),
            case(
                "orphan in a rooted trace",
                orphaned,
                vec![],
                1,
                vec![(invariant::ORPHAN_SPAN, "has unresolved parent 555")],
            ),
            Case {
                // Crash mid-write: no root, so nothing to be orphaned from.
                name: "rootless trace is open, not orphaned",
                spans: vec![sp(20, 21, 20, spans::NCL_STAGE, "app/f")],
                events: vec![],
                acked_writes: 0,
                open_writes: 1,
                expect: vec![],
            },
            case(
                "write inside a degraded window",
                acked_write_at_5000(10),
                degraded_window(),
                1,
                vec![(
                    invariant::DEGRADED_WRITE,
                    "inside degraded window [1000ns, 9000ns) of app/f",
                )],
            ),
            case(
                "write inside a window that never closed",
                acked_write_at_5000(10),
                degraded_window()[..1].to_vec(),
                1,
                vec![(
                    invariant::DEGRADED_WRITE,
                    "[1000ns, 18446744073709551615ns)",
                )],
            ),
            case(
                "degraded-window write under a replay span",
                replayed,
                degraded_window(),
                1,
                vec![],
            ),
            case(
                "the same in flight-dump order",
                dump_order,
                degraded_window(),
                1,
                vec![],
            ),
            case(
                "ap-map epoch goes backwards",
                vec![],
                vec![
                    ev(1, events::AP_MAP_UPDATE, "app/f", 3, ""),
                    ev(2, events::AP_MAP_UPDATE, "app/f", 2, ""),
                ],
                0,
                vec![(invariant::AP_MAP_MONOTONE, "went backwards (2 after 3)")],
            ),
            case(
                // Replace-start carries the new epoch; catch-up events are
                // scoped to peer names.
                "ap-map update without catch-up",
                vec![],
                vec![
                    ev(1, events::PEER_REPLACE_START, "app/f", 2, ""),
                    ev(5, events::AP_MAP_UPDATE, "app/f", 2, ""),
                ],
                0,
                vec![(
                    invariant::AP_MAP_ORDER,
                    "moved to epoch 2 before catch-up finished",
                )],
            ),
            case(
                "proper replacement ordering",
                vec![],
                vec![
                    ev(1, events::PEER_REPLACE_START, "app/f", 2, ""),
                    ev(3, events::CATCH_UP_FINISH, "peer-7", 2, ""),
                    ev(5, events::AP_MAP_UPDATE, "app/f", 2, ""),
                ],
                0,
                vec![],
            ),
            case(
                "ap-map update before its replace-start",
                vec![],
                vec![
                    ev(1, events::AP_MAP_UPDATE, "app/f", 2, ""),
                    ev(3, events::PEER_REPLACE_START, "app/f", 2, ""),
                ],
                0,
                vec![(invariant::AP_MAP_ORDER, "precedes its replace-start")],
            ),
            case(
                "beheaded write judged naively",
                beheaded.clone(),
                vec![],
                1,
                vec![
                    (invariant::ORPHAN_SPAN, "has unresolved parent 55"),
                    (invariant::ACK_COVERAGE, "missing ncl.stage"),
                    (invariant::ACK_COVERAGE, "missing ncl.doorbell"),
                    (invariant::ACK_COVERAGE, "covered by 0 peers"),
                ],
            ),
            case(
                // Told about the truncation, only the event-order rules run
                // (and the acked count is still reported).
                "beheaded write in a truncated window",
                beheaded,
                vec![
                    ev(1, events::TRACE_TRUNCATED, "telemetry", 0, ""),
                    ev(2, events::AP_MAP_UPDATE, "app/f", 3, ""),
                    ev(3, events::AP_MAP_UPDATE, "app/f", 2, ""),
                ],
                1,
                vec![(invariant::AP_MAP_MONOTONE, "went backwards")],
            ),
        ]
    }

    /// One engine, two front ends: every case must read the same through
    /// the offline replay and through a live monitor.
    #[test]
    fn case_table_reads_the_same_offline_and_live() {
        for case in cases() {
            let name = case.name;
            let offline = analyze(&case.spans, &case.events, 2);

            let tel = Telemetry::new();
            let mon = OnlineMonitor::attach_with_limits(&tel, 2, 0, 0);
            for ev in &case.events {
                mon.core.on_event(ev);
            }
            for span in &case.spans {
                mon.core.on_span(span);
            }
            let live = mon.finalize();

            assert_eq!(offline.violations, live.violations, "{name}");
            let got: Vec<(&str, &str)> = live
                .violations
                .iter()
                .map(|v| (v.invariant, v.message.as_str()))
                .collect();
            assert_eq!(got.len(), case.expect.len(), "{name}: {got:?}");
            for ((code, message), (want_code, want)) in got.iter().zip(&case.expect) {
                assert_eq!(code, want_code, "{name}: {message}");
                assert!(message.contains(want), "{name}: {message}");
            }
            assert_eq!(live.acked_writes, case.acked_writes, "{name}");
            assert_eq!(offline.acked_writes as u64, case.acked_writes, "{name}");
            assert_eq!(live.open_writes, case.open_writes, "{name}");
            assert_eq!(offline.open_writes as u64, case.open_writes, "{name}");
            assert_eq!(offline.truncated, live.truncated, "{name}");
            assert_eq!(live.open_traces, 0, "{name}");
            assert_eq!(
                tel.counter_value("invariant.violations.total"),
                case.expect.len() as u64,
                "{name}"
            );
        }
    }

    fn attached() -> (Telemetry, OnlineMonitor) {
        let tel = Telemetry::new();
        // Tiny windows so tests retire instantly.
        let mon = OnlineMonitor::attach_with_limits(&tel, 2, 0, 0);
        (tel, mon)
    }

    fn emit_write(tel: &Telemetry, peers: &[&str]) -> u64 {
        emit_write_scoped(tel, crate::intern_scope("app/mon"), peers, Instant::now())
    }

    fn emit_write_scoped(tel: &Telemetry, scope: &'static str, peers: &[&str], t0: Instant) -> u64 {
        let t1 = t0 + Duration::from_micros(50);
        let trace = tel.next_trace_id();
        tel.span_auto(trace, trace, spans::NCL_STAGE, scope, 1, t0, t1);
        tel.span_auto(trace, trace, spans::NCL_DOORBELL, scope, 1, t0, t1);
        for p in peers {
            tel.span_auto(
                trace,
                trace,
                spans::NCL_WIRE_PEER,
                crate::intern_scope(p),
                1,
                t0,
                t1,
            );
        }
        tel.span(trace, trace, 0, spans::NCL_WRITE, scope, 1, t0, t1);
        trace
    }

    #[test]
    fn clean_writes_settle_at_root_arrival() {
        let (tel, mon) = attached();
        for _ in 0..4 {
            emit_write(&tel, &["peer-0", "peer-1"]);
        }
        let report = mon.report();
        assert_eq!(report.retired_clean, 4, "no finalize needed");
        assert_eq!(report.open_traces, 0);
        assert_eq!(tel.counter_value("invariant.retired.total"), 4);
        assert!(mon.finalize().ok());
    }

    #[test]
    fn late_catchup_credit_clears_a_suspect() {
        let tel = Telemetry::new();
        let mon = OnlineMonitor::attach_with_limits(&tel, 2, 0, u64::MAX / 2);
        let trace = emit_write(&tel, &["peer-0"]);
        // Force a sweep: the under-covered write becomes a suspect.
        for _ in 0..SWEEP_EVERY {
            tel.event(events::EPOCH_BUMP, "app/mon", 1, "");
            emit_write(&tel, &["peer-0", "peer-1"]);
        }
        assert_eq!(mon.violation_count(), 0, "suspect, not yet a violation");
        assert_eq!(mon.report().suspects, 1);
        // The repair catches peer-2 up over the old record.
        let t0 = Instant::now();
        tel.span_auto(
            trace,
            trace,
            spans::NCL_CATCHUP_PEER,
            crate::intern_scope("peer-2"),
            2,
            t0,
            t0,
        );
        let report = mon.finalize();
        assert!(report.ok(), "{:?}", report.violations);
    }

    #[test]
    fn degraded_write_defers_until_reattach_then_exempts_replay() {
        let (tel, mon) = attached();
        let scope = crate::intern_scope("app/deg");
        tel.event(events::DFS_FALLBACK_ENGAGE, "app/deg", 2, "");
        // A write inside the still-open window is held, not flagged...
        let origin = Instant::now();
        emit_write_scoped(&tel, scope, &["peer-0", "peer-1"], origin);
        let held = mon.report();
        assert!(held.ok(), "{:?}", held.violations);
        assert_eq!(held.open_traces, 1);
        // ...until the replay span that exempts it lands, recorded (as in
        // splitfs) just before the reattach event.
        tel.span(
            tel.next_trace_id(),
            0,
            0,
            spans::FS_REATTACH_REPLAY,
            scope,
            3,
            origin - Duration::from_millis(1),
            origin + Duration::from_millis(1),
        );
        tel.event(events::NCL_REATTACH, "app/deg", 3, "");
        let report = mon.finalize();
        assert!(report.ok(), "{:?}", report.violations);
    }

    #[test]
    fn truncated_window_downgrades_span_checks() {
        let (tel, mon) = attached();
        tel.set_span_capacity(4);
        // Enough spans to overflow the 4-entry ring many times over; the
        // beheaded traces must NOT surface as orphan/coverage violations.
        for _ in 0..8 {
            emit_write(&tel, &["peer-0"]);
        }
        let report = mon.finalize();
        assert!(report.truncated);
        assert!(report.ok(), "{:?}", report.violations);
    }

    #[test]
    fn violation_hook_fires_and_event_is_emitted() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (tel, mon) = attached();
        let fired = Arc::new(AtomicUsize::new(0));
        let fired2 = Arc::clone(&fired);
        mon.on_violation(move |_| {
            fired2.fetch_add(1, Ordering::SeqCst);
        });
        tel.event(events::PEER_REPLACE_START, "app/f", 2, "");
        tel.event(events::AP_MAP_UPDATE, "app/f", 2, "");
        assert_eq!(fired.load(Ordering::SeqCst), 1, "flagged at event arrival");
        assert!(tel
            .events()
            .iter()
            .any(|e| e.kind == events::INVARIANT_VIOLATION));
    }

    #[test]
    fn detached_monitor_stops_receiving_and_reattach_starts_fresh() {
        let tel = Telemetry::new();
        {
            let _mon = OnlineMonitor::attach_with_limits(&tel, 2, 0, 0);
            emit_write(&tel, &["peer-0"]);
        }
        // Monitor dropped: recording still works, nobody is checking.
        emit_write(&tel, &["peer-0"]);
        assert_eq!(tel.spans().len(), 8);
        assert!(tel.online_monitor().is_none());

        // A later attach revives the core with its own configuration and
        // none of the first attachment's state.
        let mon = OnlineMonitor::attach_with_limits(&tel, 1, 0, 0);
        emit_write(&tel, &["peer-0"]);
        let report = mon.finalize();
        assert!(report.ok(), "{:?}", report.violations);
        assert_eq!(report.acked_writes, 1);
    }

    #[test]
    fn report_json_is_structured() {
        let (tel, mon) = attached();
        tel.event(events::PEER_REPLACE_START, "app/f", 2, "");
        tel.event(events::AP_MAP_UPDATE, "app/f", 2, "");
        let json = mon.render_json();
        assert!(json.contains("\"status\": \"violating\""));
        assert!(json.contains("\"violations_total\": 1"));
        assert!(json.contains("ap-map-order"));
    }
}
