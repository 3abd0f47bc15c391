//! Streaming online invariant monitor: the live front end of the
//! [`Checker`].
//!
//! [`crate::analyze`] replays a finished JSONL artifact through a checker;
//! this module subscribes one to the live span stream inside a
//! [`crate::Telemetry`] handle ([`OnlineMonitor::attach`]), so the rules of
//! [`crate::checker`] are verified *as traces complete*, with bounded
//! memory. What lives here is only the plumbing around the checker:
//!
//! * the thread that records a batch of spans feeds it to the checker,
//!   under the checker's mutex, once the batch is in the rings; the monitor
//!   owns no thread;
//! * traces retire after the
//!   [retirement lag](OnlineMonitor::attach_with_limits) and failures are
//!   confirmed after the suspect grace, both in stream time;
//! * confirmed violations increment `invariant.violations.total` (exported
//!   as `splitft_invariant_violations_total`), record an
//!   `invariant-violation` fact, fire the registered
//!   [`on_violation`](OnlineMonitor::on_violation) hook (the testbed wires a
//!   flight-recorder dump there), and flip `/health` to 503 (a
//!   [`crate::Health`] verdict reads [`OnlineMonitor::report`]) — all on
//!   the thread whose call confirmed them (a recording or a report), once
//!   the checker's mutex is released;
//! * a span-ring overflow reaches the checker as the `trace-truncated` fact,
//!   ahead of the batch that overflowed, and it downgrades its
//!   span-completeness rules to a "truncated window" note.
//!
//! A monitor, once attached, checks for the whole life of its `Telemetry`.

use std::sync::{Arc, Mutex};

use crate::checker::{Checker, MonitorReport, Violation};
use crate::{spans, Counter, Gauge, Span, Telemetry};

/// Watermark distance a rooted trace must be quiet for before it is judged.
/// Large enough for minority wire spans closing at peer timeouts.
const DEFAULT_RETIREMENT_LAG_NS: u64 = 100_000_000; // 100ms
/// Extra watermark distance a failing trace is held as a suspect before its
/// failure becomes a violation (late catch-up credits can still clear it).
const DEFAULT_SUSPECT_GRACE_NS: u64 = 3_000_000_000; // 3s

/// The violation hook: fired once per confirmed violation, outside the
/// checker's mutex (the testbed wires a flight-recorder dump here).
type ViolationHook = Arc<dyn Fn(&Violation) + Send + Sync>;

/// The checker plus how much of its retirement count has reached the
/// `invariant.retired.total` counter.
struct Live {
    checker: Checker,
    retired_published: u64,
}

/// What a `Telemetry` holds once a monitor is attached.
pub(crate) struct MonitorCore {
    violations_total: Counter,
    retired_total: Counter,
    open_traces_gauge: Gauge,
    suspects_gauge: Gauge,
    hook: Mutex<Option<ViolationHook>>,
    state: Mutex<Live>,
}

impl MonitorCore {
    /// Feeds `spans`, just recorded into `tel`'s rings, to the checker.
    pub(crate) fn feed(&self, tel: &Telemetry, spans: &[Span]) {
        self.with_checker(tel, |checker, fresh| {
            for span in spans {
                fresh.extend(checker.feed_span(span));
            }
        });
    }

    /// Runs `f` on the checker under its mutex, brings the retirement
    /// counter and the gauges up to date, and publishes the violations `f`
    /// confirmed (its second argument) once the mutex is released.
    fn with_checker<R>(
        &self,
        tel: &Telemetry,
        f: impl FnOnce(&mut Checker, &mut Vec<Violation>) -> R,
    ) -> R {
        let mut fresh = Vec::new();
        let out = {
            let mut live = self.state.lock().expect("monitor poisoned");
            let out = f(&mut live.checker, &mut fresh);
            let tally = live.checker.report();
            let (retired, open, suspects) =
                (tally.retired_clean, tally.open_traces, tally.suspects);
            self.retired_total.add(retired - live.retired_published);
            live.retired_published = retired;
            self.open_traces_gauge.set(open as i64);
            self.suspects_gauge.set(suspects as i64);
            out
        };
        for v in &fresh {
            self.violations_total.inc();
            // Recorded, and so fed back to the checker, before the hook runs:
            // a flight dump taken by the hook holds the fact.
            let detail = format!("[{}] {}", v.invariant, v.message);
            tel.fact(spans::INVARIANT_VIOLATION, &v.scope, 0, detail);
            let hook = self.hook.lock().expect("monitor hook poisoned").clone();
            if let Some(hook) = hook {
                hook(v);
            }
        }
        out
    }
}

/// Public handle to the online monitor of one [`Telemetry`]. Cloning shares
/// the checker; dropping every handle leaves it attached and checking.
#[derive(Clone)]
pub struct OnlineMonitor {
    /// Enabled, and holding the attached core.
    pub(crate) tel: Telemetry,
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
    /// via their `durability-mode` facts).
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
    /// fast retirement. A monitor attached to a disabled handle is never
    /// fed: it lives on a private handle of its own.
    pub fn attach_with_limits(
        tel: &Telemetry,
        quorum: usize,
        retirement_lag_ns: u64,
        suspect_grace_ns: u64,
    ) -> Self {
        let tel = if tel.is_enabled() {
            tel.clone()
        } else {
            Telemetry::new()
        };
        let inner = tel.inner.as_ref().expect("enabled");
        inner.monitor.get_or_init(|| MonitorCore {
            violations_total: tel.counter("invariant.violations.total"),
            retired_total: tel.counter("invariant.retired.total"),
            open_traces_gauge: tel.gauge("invariant.open_traces"),
            suspects_gauge: tel.gauge("invariant.suspects"),
            hook: Mutex::new(None),
            state: Mutex::new(Live {
                checker: Checker::live(quorum, retirement_lag_ns, suspect_grace_ns),
                retired_published: 0,
            }),
        });
        OnlineMonitor { tel }
    }

    fn core(&self) -> &MonitorCore {
        let inner = self.tel.inner.as_ref().expect("enabled");
        inner.monitor.get().expect("attached")
    }

    fn with_checker<R>(&self, f: impl FnOnce(&mut Checker, &mut Vec<Violation>) -> R) -> R {
        self.core().with_checker(&self.tel, f)
    }

    /// Registers (replacing) the violation hook, fired once per confirmed
    /// violation, outside every monitor lock. The testbed points this at a
    /// flight-recorder dump so the offending window is captured at fault
    /// time.
    ///
    /// The hook runs on the thread whose call confirmed the violation,
    /// usually the one that recorded the deciding span, and NCL records its
    /// record-path spans under a file's replication lock: a hook must not
    /// call into `ncl`.
    pub fn on_violation(&self, hook: impl Fn(&Violation) + Send + Sync + 'static) {
        *self.core().hook.lock().expect("monitor hook poisoned") = Some(Arc::new(hook));
    }

    /// Total confirmed violations so far.
    pub fn violation_count(&self) -> u64 {
        self.with_checker(|checker, _| checker.report().violation_count())
    }

    /// True when at least one invariant has been violated.
    pub fn violating(&self) -> bool {
        self.violation_count() > 0
    }

    /// Point-in-time report without draining open traces (a retirement
    /// sweep runs first).
    pub fn report(&self) -> MonitorReport {
        self.with_checker(|checker, fresh| {
            fresh.extend(checker.sweep());
            checker.report().clone()
        })
    }

    /// Drains every open trace (watermark → ∞), settles suspects, and
    /// freezes the monitor: subsequent spans are ignored, so the returned
    /// report is stable. Idempotent.
    pub fn finalize(&self) -> MonitorReport {
        self.with_checker(|checker, fresh| {
            fresh.extend(checker.finalize());
            checker.report().clone()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::checker::{invariant, SWEEP_EVERY};
    use crate::spans;
    use crate::tests::record;
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
            detail: None,
        }
    }

    fn at(mut span: Span, start_ns: u64, end_ns: u64) -> Span {
        span.start_ns = start_ns;
        span.end_ns = end_ns;
        span
    }

    /// A fact at `ts_ns`, alone in trace `trace`.
    fn fact(trace: u64, ts_ns: u64, name: &'static str, epoch: u64, detail: &str) -> Span {
        Span {
            epoch,
            detail: (!detail.is_empty()).then(|| detail.into()),
            ..at(sp(trace, trace, 0, name, "app/f"), ts_ns, ts_ns)
        }
    }

    /// A control trace `trace` rooted at `root` over `scope` at `epoch`: its
    /// phases `(name, start, end)` in order, then the root over all of them.
    fn control(
        trace: u64,
        root: &'static str,
        scope: &'static str,
        epoch: u64,
        phases: &[(&'static str, u64, u64)],
    ) -> Vec<Span> {
        let mut out: Vec<Span> = phases
            .iter()
            .enumerate()
            .map(|(i, &(name, start, end))| {
                let phase = sp(trace, trace + 1 + i as u64, trace, name, scope);
                Span {
                    epoch,
                    ..at(phase, start, end)
                }
            })
            .collect();
        let start = phases.iter().map(|p| p.1).min().unwrap_or(0);
        let end = phases.iter().map(|p| p.2).max().unwrap_or(0);
        let root = sp(trace, trace, 0, root, scope);
        out.push(Span {
            epoch,
            ..at(root, start, end)
        });
        out
    }

    /// A repair of `scope` to `epoch` whose catch-up and ap-map phases run
    /// `[catch_up, ap_map]`, each a `(start, end)`.
    fn repair(
        trace: u64,
        scope: &'static str,
        epoch: u64,
        catch_up: (u64, u64),
        ap_map: (u64, u64),
    ) -> Vec<Span> {
        control(
            trace,
            spans::NCL_REPAIR,
            scope,
            epoch,
            &[
                (spans::NCL_REPAIR_CATCH_UP, catch_up.0, catch_up.1),
                (spans::NCL_REPAIR_AP_MAP, ap_map.0, ap_map.1),
            ],
        )
    }

    /// A create of `app/f` that publishes `epoch`.
    fn create(trace: u64, epoch: u64) -> Vec<Span> {
        let ap_map = [(spans::NCL_CREATE_AP_MAP, trace, trace + 1)];
        control(trace, spans::NCL_CREATE, "app/f", epoch, &ap_map)
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

    fn degraded_window() -> Vec<Span> {
        vec![
            fact(700, 1_000, spans::DFS_FALLBACK_ENGAGE, 2, ""),
            fact(701, 9_000, spans::NCL_REATTACH, 3, ""),
        ]
    }

    /// `facts` fed ahead of `spans`, as a reader of the rings sees them.
    fn after(facts: Vec<Span>, spans: Vec<Span>) -> Vec<Span> {
        facts.into_iter().chain(spans).collect()
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
        acked_writes: u64,
        open_writes: u64,
        /// `(invariant code, message substring)` per expected violation, in
        /// the order the engine confirms them.
        expect: Vec<(&'static str, &'static str)>,
    }

    fn cases() -> Vec<Case> {
        let case = |name, spans, acked_writes, expect| Case {
            name,
            spans,
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
        let ec = fact(700, 1, spans::DURABILITY_MODE, 1, "ec k=3 n=4");
        let truncated = fact(700, 1, spans::TRACE_TRUNCATED, 0, "");
        let backwards = || after(create(800, 3), create(810, 2));
        vec![
            case("clean write", acked_write(10, &both), 1, vec![]),
            case(
                "clean 3-record burst",
                acked_burst(10, (5, 7), &both),
                3,
                vec![],
            ),
            case(
                "3-record burst missing a wire span",
                acked_burst(10, (5, 7), &["peer-0"]),
                3,
                vec![(invariant::ACK_COVERAGE, "reconstruction quorum is 2")],
            ),
            case(
                "3-record burst credited by catch-up",
                burst_credit,
                3,
                vec![],
            ),
            case(
                "under-quorum coverage",
                acked_write(10, &["peer-0"]),
                1,
                vec![(invariant::ACK_COVERAGE, "reconstruction quorum is 2")],
            ),
            case("catch-up credit counts", late_credit, 1, vec![]),
            case(
                "erasure-coded scope needs its declared k",
                after(vec![ec], acked_write(10, &both)),
                1,
                vec![(invariant::ACK_COVERAGE, "reconstruction quorum is 3")],
            ),
            case(
                "orphan in a rooted trace",
                orphaned,
                1,
                vec![(invariant::ORPHAN_SPAN, "has unresolved parent 555")],
            ),
            Case {
                // Crash mid-write: no root, so nothing to be orphaned from.
                name: "rootless trace is open, not orphaned",
                spans: vec![sp(20, 21, 20, spans::NCL_STAGE, "app/f")],
                acked_writes: 0,
                open_writes: 1,
                expect: vec![],
            },
            case(
                "write inside a degraded window",
                after(degraded_window(), acked_write_at_5000(10)),
                1,
                vec![(
                    invariant::DEGRADED_WRITE,
                    "inside degraded window [1000ns, 9000ns) of app/f",
                )],
            ),
            case(
                "write inside a window that never closed",
                after(degraded_window()[..1].to_vec(), acked_write_at_5000(10)),
                1,
                vec![(
                    invariant::DEGRADED_WRITE,
                    "[1000ns, 18446744073709551615ns)",
                )],
            ),
            case(
                "degraded-window write under a replay span",
                after(degraded_window(), replayed),
                1,
                vec![],
            ),
            case(
                "the same in flight-dump order",
                after(degraded_window(), dump_order),
                1,
                vec![],
            ),
            case(
                "ap-map epoch goes backwards",
                backwards(),
                0,
                vec![(invariant::AP_MAP_MONOTONE, "went backwards (2 after 3)")],
            ),
            case(
                "ap-map update without catch-up",
                control(
                    800,
                    spans::NCL_REPAIR,
                    "app/f",
                    2,
                    &[(spans::NCL_REPAIR_AP_MAP, 1, 5)],
                ),
                0,
                vec![(
                    invariant::AP_MAP_ORDER,
                    "moved to epoch 2 before catch-up finished",
                )],
            ),
            case(
                "proper replacement ordering",
                repair(800, "app/f", 2, (1, 3), (3, 5)),
                0,
                vec![],
            ),
            case(
                // The ap-map phase runs before anything else of its repair.
                "ap-map update before its replace-start",
                repair(800, "app/f", 2, (3, 5), (0, 1)),
                0,
                vec![(invariant::AP_MAP_ORDER, "before catch-up finished")],
            ),
            case(
                // One scope's catch-up does not cover another's ap-map
                // move at the same epoch.
                "two scopes at one epoch, one caught up",
                after(
                    repair(800, "app/a", 2, (1, 3), (3, 5)),
                    control(
                        810,
                        spans::NCL_REPAIR,
                        "app/b",
                        2,
                        &[(spans::NCL_REPAIR_AP_MAP, 6, 8)],
                    ),
                ),
                0,
                vec![(
                    invariant::AP_MAP_ORDER,
                    "scope app/b: ap-map moved to epoch 2 before catch-up finished",
                )],
            ),
            case(
                "recovery whose ap-map precedes its catch-up",
                control(
                    800,
                    spans::NCL_RECOVER,
                    "app/f",
                    3,
                    &[
                        (spans::NCL_RECOVER_GET_PEER, 1, 2),
                        (spans::NCL_RECOVER_AP_MAP, 2, 3),
                        (spans::NCL_RECOVER_CATCH_UP, 3, 5),
                    ],
                ),
                0,
                vec![(
                    invariant::AP_MAP_ORDER,
                    "moved to epoch 3 before catch-up finished",
                )],
            ),
            case(
                "beheaded write judged naively",
                beheaded.clone(),
                1,
                vec![
                    (invariant::ORPHAN_SPAN, "has unresolved parent 55"),
                    (invariant::ACK_COVERAGE, "missing ncl.stage"),
                    (invariant::ACK_COVERAGE, "missing ncl.doorbell"),
                    (invariant::ACK_COVERAGE, "covered by 0 peers"),
                ],
            ),
            case(
                // Told about the truncation, only the arrival-order rules
                // run (and the acked count is still reported).
                "beheaded write in a truncated window",
                after(vec![truncated], after(backwards(), beheaded)),
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
            let offline = analyze(&case.spans, 2);

            let tel = Telemetry::new();
            let mon = OnlineMonitor::attach_with_limits(&tel, 2, 0, 0);
            mon.core().feed(&tel, &case.spans);
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
                tel.counter("invariant.violations.total").get(),
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
        let child = || (trace, tel.next_trace_id(), trace);
        record(tel, child(), spans::NCL_STAGE, scope, 1, (t0, t1));
        record(tel, child(), spans::NCL_DOORBELL, scope, 1, (t0, t1));
        for p in peers {
            let peer = crate::intern_scope(p);
            record(tel, child(), spans::NCL_WIRE_PEER, peer, 1, (t0, t1));
        }
        record(tel, (trace, trace, 0), spans::NCL_WRITE, scope, 1, (t0, t1));
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
        assert_eq!(tel.counter("invariant.retired.total").get(), 4);
        assert!(mon.finalize().ok());
    }

    #[test]
    fn late_catchup_credit_clears_a_suspect() {
        let tel = Telemetry::new();
        let mon = OnlineMonitor::attach_with_limits(&tel, 2, 0, u64::MAX / 2);
        let trace = emit_write(&tel, &["peer-0"]);
        // Force a sweep: the under-covered write becomes a suspect.
        for _ in 0..SWEEP_EVERY {
            tel.fact(spans::EPOCH_BUMP, "peer-0", 1, "");
            emit_write(&tel, &["peer-0", "peer-1"]);
        }
        assert_eq!(mon.violation_count(), 0, "suspect, not yet a violation");
        assert_eq!(mon.report().suspects, 1);
        // The repair catches peer-2 up over the old record.
        let (t0, peer) = (Instant::now(), crate::intern_scope("peer-2"));
        let credit = (trace, tel.next_trace_id(), trace);
        record(&tel, credit, spans::NCL_CATCHUP_PEER, peer, 2, (t0, t0));
        let report = mon.finalize();
        assert!(report.ok(), "{:?}", report.violations);
    }

    #[test]
    fn degraded_write_defers_until_reattach_then_exempts_replay() {
        let (tel, mon) = attached();
        let scope = crate::intern_scope("app/deg");
        tel.fact(spans::DFS_FALLBACK_ENGAGE, "app/deg", 2, "");
        // A write inside the still-open window is held, not flagged...
        let origin = Instant::now();
        emit_write_scoped(&tel, scope, &["peer-0", "peer-1"], origin);
        let held = mon.report();
        assert!(held.ok(), "{:?}", held.violations);
        assert_eq!(held.open_traces, 1);
        // ...until the replay span that exempts it lands, recorded (as in
        // splitfs) just before the reattach fact.
        let ms = Duration::from_millis(1);
        let ids = (tel.next_trace_id(), 0, 0);
        let at = (origin - ms, origin + ms);
        record(&tel, ids, spans::FS_REATTACH_REPLAY, scope, 3, at);
        tel.fact(spans::NCL_REATTACH, "app/deg", 3, "");
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

    /// Records a repair of `app/f` whose ap-map phase has no catch-up
    /// before it.
    fn emit_misordered_repair(tel: &Telemetry) {
        let (t0, scope) = (Instant::now(), crate::intern_scope("app/f"));
        let trace = tel.next_trace_id();
        let t1 = t0 + Duration::from_micros(5);
        let ap_map = (trace, tel.next_trace_id(), trace);
        record(tel, ap_map, spans::NCL_REPAIR_AP_MAP, scope, 2, (t0, t1));
        record(
            tel,
            (trace, trace, 0),
            spans::NCL_REPAIR,
            scope,
            2,
            (t0, t1),
        );
    }

    #[test]
    fn violation_hook_fires_and_a_fact_is_recorded() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let tel = Telemetry::new();
        // Default windows: only a verdict taken at root arrival is in yet.
        let mon = OnlineMonitor::attach(&tel, 2);
        let fired = Arc::new(AtomicUsize::new(0));
        let fired2 = Arc::clone(&fired);
        mon.on_violation(move |_| {
            fired2.fetch_add(1, Ordering::SeqCst);
        });
        emit_misordered_repair(&tel);
        assert!(mon.violating(), "flagged at root arrival");
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        let facts = tel.spans();
        let fact = facts.iter().find(|s| s.name == spans::INVARIANT_VIOLATION);
        let detail = fact.and_then(|s| s.detail.as_deref()).unwrap_or_default();
        assert!(detail.starts_with("[ap-map-order] scope app/f"), "{detail}");
    }

    #[test]
    fn the_recording_call_that_confirms_a_violation_fires_the_hook() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let tel = Telemetry::new();
        let mon = OnlineMonitor::attach(&tel, 2);
        let fired = Arc::new(AtomicUsize::new(0));
        let fired2 = Arc::clone(&fired);
        mon.on_violation(move |_| {
            fired2.fetch_add(1, Ordering::SeqCst);
        });
        emit_misordered_repair(&tel);
        // No monitor method has run since: the root's own recording call
        // judged the trace, fired the hook and recorded the fact.
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        let ring = tel.spans();
        assert!(ring.iter().any(|s| s.name == spans::INVARIANT_VIOLATION));
        assert_eq!(tel.counter("invariant.violations.total").get(), 1);
    }

    #[test]
    fn a_monitor_checks_for_its_handles_life_and_reattach_returns_it() {
        let tel = Telemetry::new();
        {
            let _mon = OnlineMonitor::attach_with_limits(&tel, 2, 0, 0);
            emit_write(&tel, &["peer-0", "peer-1"]);
        }
        // Every monitor handle dropped: the checking goes on.
        emit_write(&tel, &["peer-0"]);
        let resident = tel.online_monitor().expect("still attached");
        assert_eq!(resident.report().acked_writes, 2);

        // A second attach returns the resident monitor: its state, and its
        // first configuration (quorum 2, not 1).
        let mon = OnlineMonitor::attach_with_limits(&tel, 1, 0, 0);
        emit_write(&tel, &["peer-0"]);
        let report = mon.finalize();
        assert_eq!(report.acked_writes, 3);
        assert_eq!(report.violation_count(), 2, "{:?}", report.violations);
    }

    #[test]
    fn report_json_is_structured() {
        let (tel, mon) = attached();
        emit_misordered_repair(&tel);
        let json = mon.report().to_json();
        assert!(json.contains("\"status\": \"violating\""));
        assert!(json.contains("\"violations_total\": 1"));
        assert!(json.contains("ap-map-order"));
    }
}
