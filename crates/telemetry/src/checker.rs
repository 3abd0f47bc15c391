//! The invariant engine: the one place that states what a correct span
//! stream looks like.
//!
//! [`Checker`] is single-threaded and knows nothing about
//! [`crate::Telemetry`]: spans go in ([`Checker::feed_span`]) — facts and
//! control phases as much as record-path spans — and confirmed
//! [`Violation`]s and a [`MonitorReport`] come out. Everything else is a
//! front end around one: [`crate::monitor::OnlineMonitor`] feeds it the live
//! stream, [`crate::analyze::analyze`] replays a finished trace through it,
//! and [`crate::FlightRecorder`] asks it which traces are complete enough to
//! dump ([`Checker::is_complete`]).
//!
//! | # | rule | paper | [`Violation::invariant`] | checked by |
//! |---|------|-------|--------------------------|------------|
//! | 1 | in a rooted trace every child's parent id resolves | span-tree form of §4.3's record chain | [`invariant::ORPHAN_SPAN`] | `Checker::tree_integrity` |
//! | 2 | an acked write (`ncl.write` root) has its `ncl.stage` + `ncl.doorbell` children and ≥ quorum — or the scope's declared EC `k` — distinct peers covering it through `ncl.wire.peer` / `ncl.catchup.peer` | §4.3 ack at f+1 of 2f+1 (any k of n) | [`invariant::ACK_COVERAGE`] | `Checker::ack_coverage` |
//! | 3 | no write root starts inside a `dfs-fallback-engage` → `ncl-reattach` window of its scope, unless a `splitfs.reattach.replay` span covers it | degraded mode (DESIGN.md §7c) | [`invariant::DEGRADED_WRITE`] | `Checker::degraded_window` |
//! | 4 | an `ncl.recover` / `ncl.repair` trace with an `*.ap_map` child has a `*.catch_up` child that ended no later than the `*.ap_map` child started | §4.5 no-lost-prefix ordering | [`invariant::AP_MAP_ORDER`] | `Checker::ap_map_order` |
//! | 5 | per scope, the epochs of the `*.ap_map` spans never go backwards | §4.5 fencing | [`invariant::AP_MAP_MONOTONE`] | `Checker::ap_map_monotone` |
//!
//! A write trace is one burst: every span of it carries the burst's record
//! range ([`Span::seq`]), and rule 2 judges the range as a whole — its
//! records share one doorbell, and a peer's header that covers the last of
//! them covers them all. The facts rules 2 and 3 read (`durability-mode`,
//! `dfs-fallback-engage`, `ncl-reattach`) and `trace-truncated` update the
//! checker's state when they arrive.
//!
//! Rules 4 and 5 are judged at arrival, in *given* order: rule 4 when the
//! `ncl.recover` / `ncl.repair` root arrives (a control trace records its
//! root after every phase, so it is complete then), rule 5 when each
//! `*.ap_map` span does. Rules 1–3 are judged per trace, and only once the
//! trace has *retired*: the stream's high-water end timestamp (the
//! watermark) has moved the retirement lag past the trace's last span, so
//! stragglers (minority wire spans closing after the root, catch-up credits
//! landing during a later repair) have had their window. A trace failing at
//! retirement is first parked as a *suspect* for a grace period and becomes
//! a violation only when that expires too — or at [`Checker::finalize`],
//! which judges everything still open. State is O(open traces), never
//! O(history): a live checker also forgets a closed degraded window once
//! nothing can be judged against it.
//!
//! Once a trace ring has overflowed (a `trace-truncated` fact in the feed)
//! rules 1 and 2 would only report artifacts of the missing prefix, so they
//! are skipped and the report says `truncated` instead; rules 3–5 still run.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hash::BuildHasherDefault;

use crate::snapshot::json_escape;
use crate::{spans, Span};

/// The [`Violation::invariant`] codes, one per rule of the module table.
pub mod invariant {
    /// Rule 1: a child span's parent id does not resolve.
    pub const ORPHAN_SPAN: &str = "orphan-span";
    /// Rule 2: an acked write lacks staging, a doorbell or peer coverage.
    pub const ACK_COVERAGE: &str = "ack-coverage";
    /// Rule 3: a write started inside a degraded window.
    pub const DEGRADED_WRITE: &str = "degraded-write";
    /// Rule 4: a recovery or repair moved the ap-map before its catch-up.
    pub const AP_MAP_ORDER: &str = "ap-map-order";
    /// Rule 5: ap-map epoch went backwards.
    pub const AP_MAP_MONOTONE: &str = "ap-map-monotone";
}

/// Multiplicative hasher for `u64` trace ids (FxHash-style). The default
/// SipHash costs more than the whole per-span budget on the hot path, and
/// trace ids are sequential — no DoS surface to defend.
#[derive(Default)]
struct TraceIdHasher(u64);

impl std::hash::Hasher for TraceIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

type TraceMap = HashMap<u64, Slot, BuildHasherDefault<TraceIdHasher>>;

/// Map slot per known trace. Settled tombstones are the common steady-state
/// resident (every acked write leaves one for a short TTL), so they are kept
/// inline and pointer-free: the straggler-span probe touches one cache line,
/// and the map stays small enough to sit in cache at line rate. Live
/// accumulators are boxed — there are only O(in-flight + failing) of them.
enum Slot {
    Live(Box<TraceAcc>),
    /// Trace judged clean at root arrival; the payload is its expiry due
    /// time (mirror of the entry pushed to `due_rooted`).
    Settled(u64),
}

/// Watermark distance before a *rootless* write trace is counted open. Much
/// longer than the rooted lag: a write blocked on dead peers can ack (and
/// root) seconds later, and a premature open-count would double-book it.
const OPEN_WRITE_LAG_NS: u64 = 30_000_000_000; // 30s
/// How long a settled tombstone lingers to absorb post-ack stragglers (the
/// minority wire spans that close after the quorum ack). Deliberately short:
/// a straggler arriving later just opens a throwaway rootless accumulator
/// that retires silently (it is not a write), while a long TTL would keep
/// throughput × TTL tombstones resident — the map's cache footprint.
const TOMBSTONE_TTL_NS: u64 = 10_000_000; // 10ms
/// Spans between retirement sweeps.
pub(crate) const SWEEP_EVERY: u32 = 128;
/// Violation list cap of a live checker; the total is also counted, so
/// nothing is lost.
const MAX_VIOLATIONS: usize = 256;

/// One confirmed invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Watermark (stream time, ns) when the violation was confirmed.
    pub t_ns: u64,
    /// Short invariant code, one of [`invariant`]'s constants.
    pub invariant: &'static str,
    /// Trace id the violation is about.
    pub trace: u64,
    /// Scope the violation is about.
    pub scope: String,
    /// Human-readable message.
    pub message: String,
}

impl Violation {
    /// Renders the violation as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"t_ns\": {}, \"invariant\": \"{}\", \"trace\": {}, \"scope\": \"{}\", \"message\": \"{}\"}}",
            self.t_ns,
            json_escape(self.invariant),
            self.trace,
            json_escape(&self.scope),
            json_escape(&self.message)
        )
    }
}

/// Point-in-time (or, after [`Checker::finalize`], final) outcome of the
/// checks.
#[derive(Debug, Default, Clone)]
pub struct MonitorReport {
    /// Acked records: the [`Span::records`] of every `ncl.write` root seen,
    /// i.e. its burst's range, or 1 for a root without one.
    pub acked_writes: u64,
    /// Rootless write traces retired open: submitted, never acked. Expected
    /// under chaos (crashes mid-flight); not a violation.
    pub open_writes: u64,
    /// Traces retired clean.
    pub retired_clean: u64,
    /// Traces currently held open (watermark has not passed them).
    pub open_traces: usize,
    /// Failing traces inside their suspect grace window.
    pub suspects: usize,
    /// Whether a trace ring overflowed (rules 1 and 2 downgraded).
    pub truncated: bool,
    /// Whether the checker has been finalized (report is settled).
    pub finalized: bool,
    /// Confirmed violations, oldest first, capped for a live checker.
    pub violations: Vec<Violation>,
    /// Violations beyond the cap (counted, not stored).
    pub violations_dropped: u64,
}

impl MonitorReport {
    /// True when no invariant has been violated.
    pub fn ok(&self) -> bool {
        self.violation_count() == 0
    }

    /// Violations confirmed, including those beyond the list cap.
    pub fn violation_count(&self) -> u64 {
        self.violations.len() as u64 + self.violations_dropped
    }

    /// Renders the report as one JSON object (`/health`'s `invariants` field).
    pub fn to_json(&self) -> String {
        let status = if !self.ok() {
            "violating"
        } else if self.truncated {
            "truncated"
        } else {
            "ok"
        };
        let violations: Vec<String> = self.violations.iter().map(|v| v.to_json()).collect();
        format!(
            "{{\"status\": \"{}\", \"acked_writes\": {}, \"open_writes\": {}, \"retired_clean\": {}, \"open_traces\": {}, \"suspects\": {}, \"truncated\": {}, \"finalized\": {}, \"violations_total\": {}, \"violations\": [{}]}}",
            status,
            self.acked_writes,
            self.open_writes,
            self.retired_clean,
            self.open_traces,
            self.suspects,
            self.truncated,
            self.finalized,
            self.violation_count(),
            violations.join(", ")
        )
    }
}

/// Coverage an erasure-coded scope declares through the detail of its
/// `durability-mode` fact (`ec k=<k> n=<n>`): any `k` of the `n` fragments
/// reconstruct the stripe, so such a scope needs `k` covering peers where a
/// replicated one needs the write quorum.
fn required_coverage(detail: &str) -> Option<usize> {
    detail
        .split_whitespace()
        .find_map(|t| t.strip_prefix("k="))
        .and_then(|v| v.parse().ok())
}

/// Bounded per-trace accumulator.
#[derive(Debug, Default)]
struct TraceAcc {
    /// The trace's root span, once seen.
    root: Option<Span>,
    /// Span ids seen (a handful per trace; linear scans beat set nodes).
    ids: Vec<u64>,
    /// `(id, parent, name)` of every span with a nonzero parent, for the
    /// orphan check at retirement.
    children: Vec<(u64, u64, &'static str)>,
    /// Distinct covering peers (`ncl.wire.peer` / `ncl.catchup.peer` scopes).
    coverage: Vec<&'static str>,
    has_stage: bool,
    has_doorbell: bool,
    is_write: bool,
    /// Earliest start among the children: a control trace whose children
    /// start after its root lost its oldest phases to ring eviction.
    first_child_ns: Option<u64>,
    /// Earliest end among the `*.catch_up` children (rule 4).
    catch_up_end_ns: Option<u64>,
    /// Start of the `*.ap_map` child (rule 4).
    ap_map_start_ns: Option<u64>,
    /// Last end timestamp seen for this trace (quiescence reference).
    max_end_ns: u64,
    /// Set when the trace failed its first judgment: its due time is now
    /// the deadline after which the failure becomes a violation.
    suspect: bool,
    /// Current key of this trace in the due index (0 = not indexed yet).
    /// Earlier, superseded index entries are skipped lazily at sweep time.
    due_ns: u64,
}

/// One `dfs-fallback-engage` → `ncl-reattach` window.
#[derive(Debug, Clone)]
struct DegradeWindow {
    scope: &'static str,
    engage_ns: u64,
    /// `u64::MAX` while the window is still open.
    reattach_ns: u64,
}

/// How a trace fared at judgment time.
enum Judgment {
    Clean,
    /// Root starts inside a still-open degrade window: wait for reattach.
    Defer,
    Fail(Vec<Violation>),
}

/// The invariant engine (see the module docs). `Default` is an inert
/// checker holding no state, the base of [`Checker::live`].
#[derive(Default)]
pub struct Checker {
    /// Coverage a replicated scope's acked write needs (the f+1 quorum).
    quorum: usize,
    /// Watermark distance a rooted trace must be quiet for before it is
    /// judged. `u64::MAX` = nothing retires before [`Checker::finalize`].
    retirement_lag_ns: u64,
    /// Extra watermark distance a failing trace is held as a suspect.
    suspect_grace_ns: u64,
    open_write_lag_ns: u64,
    max_violations: usize,
    traces: TraceMap,
    /// Retirement index, insert-only on the hot path: `(due watermark,
    /// trace)` entries. Each trace's *latest* due time is mirrored in
    /// [`TraceAcc::due_ns`]; older entries for the same trace are stale and
    /// skipped when popped. This keeps a sweep O(traces actually due), never
    /// O(open traces) — the difference between a no-op and a full-scan stall
    /// every `SWEEP_EVERY` spans on a saturated write path.
    ///
    /// Each category uses a constant lag, so each queue is near-monotone in
    /// due time and a plain FIFO works (a microsecond of cross-thread
    /// end-timestamp disorder only delays a retirement by that much):
    /// `due_rooted` holds tombstone expiries for traces settled clean at
    /// root arrival (pushed in ack order), `due_rootless` one entry per
    /// trace pushed at its first span. Suspect deadlines, defer retries, and
    /// quiescence requeues are rare and unordered — they live in the
    /// `due_slow` set.
    due_rooted: VecDeque<(u64, u64)>,
    due_rootless: VecDeque<(u64, u64)>,
    due_slow: BTreeSet<(u64, u64)>,
    /// Settled tombstones currently lingering in `traces` (excluded from the
    /// open-trace counts).
    settled_count: usize,
    watermark_ns: u64,
    spans_since_sweep: u32,
    /// Per-scope coverage requirement from `durability-mode` facts.
    required_coverage: BTreeMap<&'static str, usize>,
    last_ap_epoch: BTreeMap<&'static str, u64>,
    degrade_windows: Vec<DegradeWindow>,
    /// The `splitfs.reattach.replay` spans that may still exempt an
    /// in-window write from rule 3.
    replay_spans: Vec<Span>,
    /// The running report; `open_traces` is brought up to date after every
    /// feed and sweep.
    tally: MonitorReport,
}

impl Checker {
    /// A bounded-memory checker for a live stream: traces retire
    /// `retirement_lag_ns` of stream time after their last span, failures
    /// are confirmed `suspect_grace_ns` later, the violation list is capped.
    /// `quorum` is the deployment's f+1 write quorum; erasure-coded scopes
    /// override it through their `durability-mode` facts.
    pub fn live(quorum: usize, retirement_lag_ns: u64, suspect_grace_ns: u64) -> Self {
        Checker {
            quorum,
            retirement_lag_ns,
            suspect_grace_ns,
            open_write_lag_ns: OPEN_WRITE_LAG_NS,
            max_violations: MAX_VIOLATIONS,
            ..Checker::default()
        }
    }

    /// A checker for a finished trace: every lag is unbounded, so nothing
    /// is judged before [`finalize`](Self::finalize) and the verdict on
    /// rules 1–3 does not depend on the order spans are fed in; no violation
    /// is dropped.
    pub fn replay(quorum: usize) -> Self {
        Checker {
            open_write_lag_ns: u64::MAX,
            max_violations: usize::MAX,
            ..Checker::live(quorum, u64::MAX, u64::MAX)
        }
    }

    /// Feeds one closed span. Returns the violations this confirmed: rules
    /// 4 and 5 at arrival, and whatever the retirement sweep that runs every
    /// `SWEEP_EVERY` spans confirmed.
    pub fn feed_span(&mut self, span: &Span) -> Vec<Violation> {
        if self.tally.finalized {
            return Vec::new();
        }
        self.watermark_ns = self.watermark_ns.max(span.end_ns);
        let mut fresh = Vec::new();
        match span.name {
            spans::TRACE_TRUNCATED => self.tally.truncated = true,
            spans::DURABILITY_MODE => {
                if let Some(k) = span.detail.as_deref().and_then(required_coverage) {
                    self.required_coverage.insert(span.scope, k);
                }
            }
            spans::DFS_FALLBACK_ENGAGE => self.degrade_windows.push(DegradeWindow {
                scope: span.scope,
                engage_ns: span.start_ns,
                reattach_ns: u64::MAX,
            }),
            spans::NCL_REATTACH => {
                for w in self.degrade_windows.iter_mut().filter(|w| {
                    w.scope == span.scope
                        && w.reattach_ns == u64::MAX
                        && w.engage_ns <= span.start_ns
                }) {
                    w.reattach_ns = span.start_ns;
                }
            }
            spans::FS_REATTACH_REPLAY => self.replay_spans.push(span.clone()),
            spans::NCL_CREATE_AP_MAP | spans::NCL_RECOVER_AP_MAP | spans::NCL_REPAIR_AP_MAP => {
                fresh.extend(self.ap_map_monotone(span));
            }
            _ => {}
        }
        fresh.extend(self.accumulate(span));
        let mut fresh = self.confirm(fresh);
        self.spans_since_sweep += 1;
        if self.spans_since_sweep >= SWEEP_EVERY {
            fresh.extend(self.sweep());
        }
        self.tally.open_traces = self.traces.len() - self.settled_count;
        fresh
    }

    /// Adds `span` to its trace; at the root's arrival, judges rule 4 and,
    /// on a live stream, settles a clean trace.
    fn accumulate(&mut self, span: &Span) -> Option<Violation> {
        let slot = self
            .traces
            .entry(span.trace)
            .or_insert_with(|| Slot::Live(Box::default()));
        let Slot::Live(acc) = slot else {
            // Post-ack straggler (minority wire credit landing after the
            // root): the trace's verdict is already in — ignore.
            return None;
        };
        if acc.due_ns == 0 {
            // First span of the trace: index it once with the rootless lag.
            // Roots and failures re-index; further spans don't.
            acc.due_ns = span.end_ns.saturating_add(self.open_write_lag_ns);
            self.due_rootless.push_back((acc.due_ns, span.trace));
        }
        acc.ids.push(span.id);
        acc.max_end_ns = acc.max_end_ns.max(span.end_ns);
        if span.parent != 0 {
            acc.children.push((span.id, span.parent, span.name));
            let first = acc.first_child_ns.get_or_insert(span.start_ns);
            *first = (*first).min(span.start_ns);
        }
        match span.name {
            spans::NCL_WIRE_PEER | spans::NCL_CATCHUP_PEER
                if !acc.coverage.contains(&span.scope) =>
            {
                acc.coverage.push(span.scope);
            }
            spans::NCL_STAGE => acc.has_stage = true,
            spans::NCL_DOORBELL => acc.has_doorbell = true,
            spans::NCL_RECOVER_CATCH_UP | spans::NCL_REPAIR_CATCH_UP => {
                let end = acc.catch_up_end_ns.get_or_insert(span.end_ns);
                *end = (*end).min(span.end_ns);
            }
            spans::NCL_RECOVER_AP_MAP | spans::NCL_REPAIR_AP_MAP => {
                acc.ap_map_start_ns = Some(span.start_ns);
            }
            _ => {}
        }
        if matches!(
            span.name,
            spans::NCL_WRITE | spans::NCL_STAGE | spans::NCL_DOORBELL
        ) {
            acc.is_write = true;
        }
        if !span.is_root() || acc.root.is_some() {
            return None;
        }
        acc.root = Some(span.clone());
        let quiet_at = acc.max_end_ns;
        if span.name == spans::NCL_WRITE {
            self.tally.acked_writes = self.tally.acked_writes.saturating_add(span.records());
        }
        let Some(Slot::Live(acc)) = self.traces.get(&span.trace) else {
            unreachable!("live slot was just written");
        };
        let misordered = self.ap_map_order(acc, span);
        // The root is recorded LAST (repo-wide convention): on a live stream
        // the chain is complete right now, so judge immediately. A clean
        // verdict retires the trace on the spot — its accumulator is
        // replaced by an inline tombstone that lingers a short TTL to absorb
        // post-ack stragglers — keeping the live set O(in-flight + failing)
        // instead of O(throughput × retirement lag). Under an unbounded lag
        // nothing retires before `finalize`, this shortcut included: that is
        // what makes a replay's verdict on rules 1–3 independent of span
        // order.
        if self.retirement_lag_ns != u64::MAX
            && matches!(self.judge(acc, span, false), Judgment::Clean)
        {
            self.tally.retired_clean += 1;
            self.settled_count += 1;
            let due = self.watermark_ns.saturating_add(TOMBSTONE_TTL_NS);
            self.traces.insert(span.trace, Slot::Settled(due));
            self.due_rooted.push_back((due, span.trace));
        } else {
            // Failed (or must wait out a degrade window) at root arrival:
            // discard this verdict and fall back to the lagged sweep —
            // stragglers get their window before the failure is even parked
            // as a suspect.
            self.requeue(span.trace, quiet_at.saturating_add(self.retirement_lag_ns));
        }
        misordered
    }

    fn violation(
        &self,
        invariant: &'static str,
        trace: u64,
        scope: &str,
        message: String,
    ) -> Violation {
        Violation {
            t_ns: self.watermark_ns,
            invariant,
            trace,
            scope: scope.to_string(),
            message,
        }
    }

    /// Books freshly confirmed violations into the report and hands them
    /// back for the caller to publish.
    fn confirm(&mut self, fresh: Vec<Violation>) -> Vec<Violation> {
        let room = self.max_violations - self.tally.violations.len();
        self.tally
            .violations
            .extend(fresh.iter().take(room).cloned());
        self.tally.violations_dropped += fresh.len().saturating_sub(room) as u64;
        fresh
    }

    /// Rule 1.
    fn tree_integrity(&self, acc: &TraceAcc, root: &Span, out: &mut Vec<Violation>) {
        let trace = root.trace;
        for (id, parent, name) in &acc.children {
            if !acc.ids.contains(parent) {
                out.push(self.violation(
                    invariant::ORPHAN_SPAN,
                    trace,
                    root.scope,
                    format!("trace {trace}: span {id} ({name}) has unresolved parent {parent}"),
                ));
            }
        }
    }

    /// Rule 2.
    fn ack_coverage(&self, acc: &TraceAcc, root: &Span, out: &mut Vec<Violation>) {
        if root.name != spans::NCL_WRITE {
            return;
        }
        let trace = root.trace;
        let mut fail = |message| {
            out.push(self.violation(invariant::ACK_COVERAGE, trace, root.scope, message));
        };
        for (present, required) in [
            (acc.has_stage, spans::NCL_STAGE),
            (acc.has_doorbell, spans::NCL_DOORBELL),
        ] {
            if !present {
                fail(format!(
                    "trace {trace}: acked write missing {required} span"
                ));
            }
        }
        let required = self
            .required_coverage
            .get(root.scope)
            .copied()
            .unwrap_or(self.quorum);
        if acc.coverage.len() < required {
            fail(format!(
                "trace {trace}: acked write covered by {} peers ({:?}), reconstruction quorum is {required}",
                acc.coverage.len(),
                acc.coverage
            ));
        }
    }

    /// Rule 3. Returns true when the verdict must wait: the window is still
    /// open, and the exempting replay span is recorded just before the
    /// reattach that closes it (`draining` judges regardless).
    fn degraded_window(&self, root: &Span, draining: bool, out: &mut Vec<Violation>) -> bool {
        if root.name != spans::NCL_WRITE {
            return false;
        }
        let (trace, at) = (root.trace, root.start_ns);
        for w in self
            .degrade_windows
            .iter()
            .filter(|w| w.scope == root.scope)
        {
            if at < w.engage_ns || at >= w.reattach_ns {
                continue;
            }
            if w.reattach_ns == u64::MAX && !draining {
                return true;
            }
            let replayed = self
                .replay_spans
                .iter()
                .any(|r| r.scope == root.scope && at >= r.start_ns && at <= r.end_ns);
            if !replayed {
                out.push(self.violation(
                    invariant::DEGRADED_WRITE,
                    trace,
                    root.scope,
                    format!(
                        "trace {trace}: write started at {at}ns inside degraded window [{}ns, {}ns) of {}",
                        w.engage_ns, w.reattach_ns, root.scope
                    ),
                ));
            }
        }
        false
    }

    /// Rule 4, when the root `root` of `acc` arrives. A recovery or repair
    /// that never reached its ap-map (it failed part-way) promised nothing.
    fn ap_map_order(&self, acc: &TraceAcc, root: &Span) -> Option<Violation> {
        if !matches!(root.name, spans::NCL_RECOVER | spans::NCL_REPAIR) {
            return None;
        }
        let ap_map = acc.ap_map_start_ns?;
        if acc.catch_up_end_ns.is_some_and(|end| end <= ap_map) {
            return None;
        }
        let (scope, epoch) = (root.scope, root.epoch);
        Some(self.violation(
            invariant::AP_MAP_ORDER,
            root.trace,
            scope,
            format!("scope {scope}: ap-map moved to epoch {epoch} before catch-up finished"),
        ))
    }

    /// Rule 5, when an `*.ap_map` span arrives.
    fn ap_map_monotone(&mut self, span: &Span) -> Option<Violation> {
        let prev = self.last_ap_epoch.entry(span.scope).or_insert(0);
        let seen = *prev;
        *prev = seen.max(span.epoch);
        (span.epoch < seen).then(|| {
            self.violation(
                invariant::AP_MAP_MONOTONE,
                span.trace,
                span.scope,
                format!(
                    "scope {}: ap-map epoch went backwards ({} after {seen})",
                    span.scope, span.epoch
                ),
            )
        })
    }

    /// Judges a trace with root `root` against rules 1–3.
    fn judge(&self, acc: &TraceAcc, root: &Span, draining: bool) -> Judgment {
        let mut fails = Vec::new();
        if !self.tally.truncated {
            self.tree_integrity(acc, root, &mut fails);
            self.ack_coverage(acc, root, &mut fails);
        }
        if self.degraded_window(root, draining, &mut fails) {
            Judgment::Defer
        } else if fails.is_empty() {
            Judgment::Clean
        } else {
            Judgment::Fail(fails)
        }
    }

    /// True unless `trace` is rooted, still open, and either fails rule 1
    /// or 2 on the spans fed so far — whether or not the stream is
    /// truncated — or is a recovery or repair whose phases no longer reach
    /// back to its start (rule 4 would judge what is left). A flight dump
    /// keeps only traces for which this holds, so it cannot manufacture
    /// violations out of ring eviction.
    pub fn is_complete(&self, trace: u64) -> bool {
        let Some(Slot::Live(acc)) = self.traces.get(&trace) else {
            return true;
        };
        let Some(root) = &acc.root else { return true };
        let control = matches!(root.name, spans::NCL_RECOVER | spans::NCL_REPAIR);
        if control && acc.first_child_ns.is_some_and(|t| t > root.start_ns) {
            return false;
        }
        let mut fails = Vec::new();
        self.tree_integrity(acc, root, &mut fails);
        self.ack_coverage(acc, root, &mut fails);
        fails.is_empty()
    }

    /// Retires every trace the watermark has moved past and returns the
    /// violations that confirmed.
    pub fn sweep(&mut self) -> Vec<Violation> {
        self.retire(false)
    }

    /// Judges every open trace now (watermark → ∞), settles suspects, and
    /// freezes the checker: later spans are ignored. Idempotent.
    pub fn finalize(&mut self) -> Vec<Violation> {
        if self.tally.finalized {
            return Vec::new();
        }
        self.tally.finalized = true;
        self.retire(true)
    }

    /// Pops the due index until it is ahead of the watermark — O(traces
    /// actually due), independent of how many are open. `draining` judges
    /// everything immediately.
    fn retire(&mut self, draining: bool) -> Vec<Violation> {
        self.spans_since_sweep = 0;
        let watermark = self.watermark_ns;
        let mut fresh = Vec::new();
        // Strict `due < watermark`: `due == max_end + lag` retires only once
        // the stream has moved *past* the lag.
        let mut ready: Vec<(u64, u64)> = Vec::new();
        for queue in [&mut self.due_rooted, &mut self.due_rootless] {
            while queue
                .front()
                .is_some_and(|&(due, _)| draining || due < watermark)
            {
                ready.push(queue.pop_front().expect("front checked"));
            }
        }
        while let Some(&entry) = self.due_slow.first() {
            if !draining && entry.0 >= watermark {
                break;
            }
            self.due_slow.remove(&entry);
            ready.push(entry);
        }
        for (due, trace) in ready {
            let acc = match self.traces.get(&trace) {
                None => continue, // already retired; this was a stale entry
                Some(Slot::Settled(tomb_due)) => {
                    if draining || *tomb_due == due {
                        // Tombstone expiry: the straggler window of a trace
                        // judged clean at root arrival has closed.
                        self.traces.remove(&trace);
                        self.settled_count -= 1;
                    }
                    // Else: a stale pre-settle entry — the tombstone's own
                    // expiry entry is still queued.
                    continue;
                }
                Some(Slot::Live(acc)) => acc,
            };
            if !draining && acc.due_ns != due {
                continue; // superseded: the trace was touched again
            }
            let Some(root) = &acc.root else {
                // Rootless traces are indexed once, at their first span, so
                // re-check quiescence: if touched since, requeue instead.
                let fresh_due = acc.max_end_ns.saturating_add(self.open_write_lag_ns);
                if !draining && fresh_due > due {
                    self.requeue(trace, fresh_due);
                    continue;
                }
                // Rootless at retirement: a crashed (never-acked) write, or
                // stray straggler children of an already-retired trace.
                self.tally.open_writes += u64::from(acc.is_write);
                self.traces.remove(&trace);
                continue;
            };
            let was_suspect = acc.suspect;
            match self.judge(acc, root, draining) {
                Judgment::Clean => self.tally.retired_clean += 1,
                Judgment::Defer => {
                    // Keep; re-examine one lag from now (the exempting
                    // replay span / reattach will have landed by then, and
                    // finalize drains regardless).
                    self.requeue(
                        trace,
                        watermark.saturating_add(self.retirement_lag_ns.max(1)),
                    );
                    continue;
                }
                Judgment::Fail(violations) if was_suspect || draining => fresh.extend(violations),
                Judgment::Fail(_) => {
                    // First failure: hold as a suspect; late catch-up
                    // credits may still clear it.
                    self.requeue(trace, watermark.saturating_add(self.suspect_grace_ns))
                        .suspect = true;
                    self.tally.suspects += 1;
                    continue;
                }
            }
            self.traces.remove(&trace);
            self.tally.suspects -= usize::from(was_suspect);
        }
        if !draining {
            self.forget_closed_windows();
        }
        self.tally.open_traces = self.traces.len() - self.settled_count;
        self.confirm(fresh)
    }

    /// Live streams only: drops each degraded window whose reattach the
    /// watermark has passed by the retirement lag plus the suspect grace,
    /// and every replay span that no remaining window can use. A write that
    /// started inside a window has been judged by then, unless it failed and
    /// is still waiting in the slow queue, so nothing is dropped while that
    /// queue holds a trace. A replay keeps everything.
    fn forget_closed_windows(&mut self) {
        let horizon = self.retirement_lag_ns.saturating_add(self.suspect_grace_ns);
        if horizon == u64::MAX || !self.due_slow.is_empty() {
            return;
        }
        let watermark = self.watermark_ns;
        let windows = &mut self.degrade_windows;
        windows.retain(|w| w.reattach_ns.saturating_add(horizon) >= watermark);
        self.replay_spans.retain(|r| {
            windows.iter().any(|w| {
                w.scope == r.scope && r.end_ns >= w.engage_ns && r.start_ns < w.reattach_ns
            })
        });
    }

    /// Re-indexes a live trace in the slow queue at `due`.
    fn requeue(&mut self, trace: u64, due: u64) -> &mut TraceAcc {
        self.due_slow.insert((due, trace));
        let Some(Slot::Live(acc)) = self.traces.get_mut(&trace) else {
            unreachable!("requeue is only called on live slots");
        };
        acc.due_ns = due;
        acc
    }

    /// The running report: counts and the violation list so far.
    pub fn report(&self) -> &MonitorReport {
        &self.tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fact(trace: u64, at: u64, name: &'static str) -> Span {
        Span {
            trace,
            id: trace,
            name,
            scope: "app/f",
            start_ns: at,
            end_ns: at,
            ..Span::default()
        }
    }

    /// Feeds `pairs` degraded windows of `app/f`, each closed 10 ns after it
    /// opened and each with the replay span that exempts its writes, 100 ns
    /// apart.
    fn degrade_and_reattach(checker: &mut Checker, pairs: u64) {
        for i in 0..pairs {
            let (at, trace) = (i * 100, 3 * i + 1);
            checker.feed_span(&fact(trace, at, spans::DFS_FALLBACK_ENGAGE));
            let replay = Span {
                id: trace + 1,
                name: spans::FS_REATTACH_REPLAY,
                end_ns: at + 9,
                ..fact(trace + 1, at + 1, spans::FS_REATTACH_REPLAY)
            };
            checker.feed_span(&replay);
            checker.feed_span(&fact(trace + 2, at + 10, spans::NCL_REATTACH));
        }
    }

    #[test]
    fn a_live_checker_forgets_closed_windows() {
        let mut live = Checker::live(2, 1_000, 1_000);
        degrade_and_reattach(&mut live, 100_000);
        // Within the 2 µs horizon: ≈20 windows, plus those fed since the
        // last sweep.
        let bound = 20 + SWEEP_EVERY as usize;
        assert!(
            live.degrade_windows.len() <= bound,
            "{}",
            live.degrade_windows.len()
        );
        assert!(
            live.replay_spans.len() <= bound,
            "{}",
            live.replay_spans.len()
        );
        assert!(live.finalize().is_empty());
    }

    #[test]
    fn a_window_outlives_the_horizon_while_a_failing_write_waits() {
        let mut live = Checker::live(2, 1_000, 1_000);
        degrade_and_reattach(&mut live, 1);
        // A write that started as the window opened, outside its replay
        // span, and was acked after the reattach: it fails at root arrival,
        // then waits a lag and a grace, well past the window's horizon.
        let write = [
            (51, 50, spans::NCL_STAGE, "app/f"),
            (52, 50, spans::NCL_DOORBELL, "app/f"),
            (53, 50, spans::NCL_WIRE_PEER, "peer-0"),
            (54, 50, spans::NCL_WIRE_PEER, "peer-1"),
            (50, 0, spans::NCL_WRITE, "app/f"),
        ];
        for (id, parent, name, scope) in write {
            let span = Span {
                id,
                parent,
                scope,
                end_ns: 20,
                ..fact(50, 0, name)
            };
            live.feed_span(&span);
        }
        let mut confirmed = Vec::new();
        for i in 1..400 {
            confirmed.extend(live.feed_span(&fact(1_000 + i, 100 * i, spans::PEER_PUBLISH)));
        }
        assert_eq!(confirmed.len(), 1, "{confirmed:?}");
        assert_eq!(confirmed[0].invariant, invariant::DEGRADED_WRITE);
        assert!(live.degrade_windows.is_empty(), "forgotten once judged");
    }

    #[test]
    fn a_replay_keeps_every_window() {
        let mut replay = Checker::replay(2);
        degrade_and_reattach(&mut replay, 1_000);
        assert_eq!(replay.degrade_windows.len(), 1_000);
        assert_eq!(replay.replay_spans.len(), 1_000);
    }
}
