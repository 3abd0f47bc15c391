//! The replicated protocol model. A peer's region is `(data, seq)`: how
//! many data messages and how far its header has landed, in QP order
//! (`d1 s1 d2 s2 …`, or `d…d h(b1) d…d h(b2) …` over every partition into
//! bursts with [`ModelConfig::coalesce`]). The application crashes anywhere
//! and recovers from every recovery quorum of the live ap-map peers; a
//! replacement allocates a spare's region for a row the planner lists, then
//! its catch-up lands or not, and the planner's update is published.

use ncl::file::plan::{self, Action, ApMapUpdate, CaughtUp, Source};
use ncl::file::scheme;
use ncl::Durability;

use crate::{header, with, CheckResult, Edge};

/// The failure budget: three ap-map rows, 2-peer recovery quorums.
const F: usize = 1;
const REPLICATED: Durability = Durability::Replicated;

/// Seeded bugs from §4.6 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BugMode {
    /// The protocol as designed; the checker must find no violation.
    None,
    /// A peer applies the header write before the data write.
    SeqBeforeData,
    /// Replacement reports its catch-up landed early (Figure 7iii).
    ApMapBeforeCatchup,
    /// Recovery hands the image out without its responders' catch-up.
    NoCatchupOnRecovery,
}

/// Exploration budgets and the bug under test.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Maximum writes the application issues.
    pub max_writes: u8,
    /// Total peer + application crash events allowed along a trace.
    pub crash_budget: u8,
    /// Total peers: the first three form the ap-map, the rest are spares.
    pub peers: usize,
    /// Bug to seed.
    pub bug: BugMode,
    /// Hard cap on explored states (0 = unlimited).
    pub max_states: usize,
    /// Writes in flight at once: 1 is `record`, more `record_nowait`.
    pub window: u8,
    /// Records are staged until a flush posts them with one header.
    pub coalesce: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum AppPhase {
    Running,
    Crashed,
    /// The image is read back at this sequence number, not yet caught up.
    NeedCatchup(u8),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    issued: u8,
    acked: u8,
    /// Highest sequence number any completed recovery handed out.
    externalized: u8,
    /// The ap-map: row `r`'s peer.
    ap: [u8; 3],
    /// Per peer: alive, and its region `(data, seq)`, if it holds one.
    peers: Vec<(bool, Option<(u8, u8)>)>,
    app: AppPhase,
    /// A replacement's row and spare, allocated and not yet caught up.
    pending: Option<(u32, u8)>,
    crashes_left: u8,
    /// Coalesced mode: highest sequence number flushed to the wire.
    flushed: u8,
    /// Coalesced mode: the sequence numbers that got a header, ascending.
    bursts: Vec<u8>,
}

impl State {
    /// Peer `p`'s region, if it is alive and holds one.
    fn live(&self, p: u8) -> Option<(u8, u8)> {
        let (alive, region) = self.peers[p as usize];
        region.filter(|_| alive)
    }

    /// Posts the staged records as one burst (coalesced mode).
    fn flush(&mut self, coalesce: bool) {
        if coalesce && self.flushed < self.issued {
            self.flushed = self.issued;
            self.bursts.push(self.issued);
        }
    }
}

/// The next message to land on a region at `(d, s)` in QP order: the header
/// covering the data so far, or the next data write (the seeded bug swaps).
fn deliver(config: &ModelConfig, st: &State, (d, s): (u8, u8)) -> Option<(u8, u8)> {
    let (header, tip) = if config.coalesce {
        (st.bursts.iter().copied().find(|&b| b > s), st.flushed)
    } else {
        ((s < st.issued).then_some(s + 1), st.issued)
    };
    match config.bug {
        BugMode::SeqBeforeData if d == s => header.map(|h| (d, h)),
        BugMode::SeqBeforeData => (d < s).then_some((d + 1, s)),
        _ if Some(d) == header => Some((d, d)),
        _ => (d < tip).then_some((d + 1, s)),
    }
}

/// Runs a planned catch-up to `seq` on a region holding `d` data writes: a
/// tail that starts past them leaves a gap under the new header.
fn catch_up(d: u8, action: Action, seq: u8) -> (u8, u8) {
    match action {
        Action::InPlace { from } if from > u64::from(d) => (d, seq),
        _ => (seq, seq),
    }
}

fn successors(config: &ModelConfig, st: &State) -> Vec<Edge<State>> {
    let mut out: Vec<Edge<State>> = Vec::new();
    let mut add = |label, edit: &dyn Fn(&mut State)| out.push((label, with(st, edit), None));
    let peers = 0..st.peers.len() as u8;
    if st.app == AppPhase::Running {
        for (row, &p) in st.ap.iter().enumerate() {
            if let Some((d, s)) = st.live(p).and_then(|r| deliver(config, st, r)) {
                let label = format!("deliver(p{p},slot{row})->({d},{s})");
                add(label, &|n| n.peers[p as usize].1 = Some((d, s)));
            }
        }
        let w = st.acked + 1;
        let holders = st.ap.iter().filter_map(|&p| st.live(p));
        let holders = holders.filter(|&(d, s)| d >= w && s >= w).count();
        if w <= st.issued && holders >= scheme::ack_quorum(REPLICATED, F) {
            add(format!("ack(w{w})"), &|n| n.acked = w);
        }
        if st.issued - st.acked < config.window.max(1) && st.issued < config.max_writes {
            add(format!("issue(w{})", st.issued + 1), &|n| n.issued += 1);
        }
        // Every partition of the issue stream into bursts: this subsumes the
        // window-full, `wait_durable` and `fsync` flushes.
        if config.coalesce && st.flushed < st.issued {
            add(format!("flush(b{})", st.issued), &|n| n.flush(true));
        }
        let survivors = (0..3).zip(st.ap).filter(|&(_, p)| st.live(p).is_some());
        let survivors: Vec<(u32, u8)> = survivors.collect();
        let rows = plan::replacements(REPLICATED, F, survivors.iter().map(|&(r, _)| r));
        let spare = |c: &u8| !st.ap.contains(c) && st.peers[*c as usize].0;
        let spares = peers.clone().filter(spare);
        for row in rows.into_iter().filter(|_| st.pending.is_none()) {
            for c in spares.clone() {
                add(format!("replace_start(slot{row},p{c})"), &|n| {
                    n.peers[c as usize].1 = Some((0, 0));
                    n.pending = Some((row, c));
                });
            }
        }
        if let Some((row, c)) = st.pending.filter(|&(_, c)| st.live(c).is_some()) {
            for landed in [true, false] {
                let reported = landed || config.bug == BugMode::ApMapBeforeCatchup;
                let (fresh, missed) = CaughtUp::landed([((row, c), reported)]);
                add(format!("replace_catchup(p{c},landed={landed})"), &|n| {
                    // Catch-up stamps the image's tip: the staged burst goes
                    // to the survivors first.
                    n.flush(config.coalesce);
                    n.pending = None;
                    let held = if landed { st.issued } else { 0 };
                    n.peers[c as usize].1 = Some((held, held));
                    if let Ok(update) = ApMapUpdate::repair(&survivors, &fresh) {
                        update.peers().for_each(|&(r, p)| n.ap[r as usize] = p);
                    }
                    missed
                        .iter()
                        .for_each(|&(_, p)| n.peers[p as usize].1 = None);
                });
            }
        }
    }

    // Recovery's catch-up: every responder by its planned action, then the
    // application resumes if the planner lets the caught-up set publish.
    if let AppPhase::NeedCatchup(max_seq) = st.app {
        add("recover_catchup_and_resume".to_string(), &|n| {
            let round = st.ap.iter().filter_map(|&p| Some((p, st.live(p)?)));
            for (p, (d, s)) in round.clone() {
                let action = Action::for_responder(true, &header(max_seq, 0), &header(s, 0));
                if config.bug != BugMode::NoCatchupOnRecovery {
                    n.peers[p as usize].1 = Some(catch_up(d, action, max_seq));
                }
            }
            let (caught, _) = CaughtUp::landed(round.map(|(p, _)| (p, true)));
            n.app = AppPhase::Crashed;
            if ApMapUpdate::recovery(REPLICATED, F, &caught).is_ok() {
                (n.app, n.acked, n.issued) = (AppPhase::Running, max_seq, max_seq);
                n.externalized = n.externalized.max(max_seq);
                if config.coalesce {
                    (n.flushed, n.bursts) = (max_seq, Vec::new());
                }
            }
        });
    }

    for p in peers {
        let alive = st.peers[p as usize].0;
        if st.crashes_left > 0 && alive {
            add(format!("crash_peer(p{p})"), &|n| {
                n.peers[p as usize] = (false, None);
                n.crashes_left -= 1;
            });
        }
        if !alive {
            let restart = |n: &mut State| n.peers[p as usize].0 = true; // Empty memory.
            add(format!("restart_peer(p{p})"), &restart);
        }
    }
    if st.crashes_left > 0 && st.app != AppPhase::Crashed {
        add("crash_app".to_string(), &|n| {
            (n.app, n.pending) = (AppPhase::Crashed, None);
            n.crashes_left -= 1;
        });
    }

    // Recovery's read: every recovery quorum of the responders, with the
    // planner's source, checked the moment the image is built.
    if st.app == AppPhase::Crashed {
        let serve = |p: &u8| Some((*p, header(st.live(*p)?.1, 0)));
        let responders: Vec<_> = st.ap.iter().filter_map(serve).collect();
        for (quorum, source) in crate::recoveries(REPLICATED, F, &responders) {
            let Source::Image(i) = source else {
                unreachable!("replicated")
            };
            let (rp, max_seq) = (quorum[i].0, quorum[i].1.seq as u8);
            let (rd, _) = st.live(rp).expect("a responder holds a region");
            let ids: Vec<_> = quorum.iter().map(|(p, _)| format!("p{p}")).collect();
            let label = format!("recover_read(q={{{}}},max={max_seq})", ids.join(","));
            let (acked, ext) = (st.acked, st.externalized);
            let lost = format!("lost: recovered seq {max_seq} <");
            let held = format!("recovery peer p{rp} advertises seq {max_seq} but only holds");
            let violation = match () {
                _ if max_seq < acked => Some(format!("acknowledged write {lost} acked {acked}")),
                _ if max_seq < ext => Some(format!("externalized state {lost} externalized {ext}")),
                _ => (rd < max_seq).then(|| format!("{held} {rd} data writes")),
            };
            let next = with(st, |n| n.app = AppPhase::NeedCatchup(max_seq));
            out.push((label, next, violation));
        }
    }
    out
}

/// Explores the model breadth-first and reports the first violation (with
/// its shortest trace) or the full state count.
pub fn check(config: &ModelConfig) -> CheckResult {
    let peers = (0..config.peers).map(|p| (true, (p < 3).then_some((0, 0))));
    let initial = State {
        issued: 0,
        acked: 0,
        externalized: 0,
        ap: [0, 1, 2],
        peers: peers.collect(),
        app: AppPhase::Running,
        pending: None,
        crashes_left: config.crash_budget,
        flushed: 0,
        bursts: Vec::new(),
    };
    crate::explore(initial, config.max_states, |st| successors(config, st))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_shape_is_the_schemes_for_f() {
        // The hard-wired three ap-map slots and 2-subset read quorums are
        // the implementation's counts at the model's failure budget.
        assert_eq!(scheme::peers_per_file(Durability::Replicated, F), 3);
        assert_eq!(scheme::recovery_quorum(Durability::Replicated, F), 2);
    }

    fn small(bug: BugMode) -> ModelConfig {
        ModelConfig {
            max_writes: 2,
            crash_budget: 2,
            peers: 4,
            bug,
            max_states: 0,
            window: 1,
            coalesce: false,
        }
    }

    fn coalesced(bug: BugMode) -> ModelConfig {
        ModelConfig {
            window: 2,
            coalesce: true,
            ..small(bug)
        }
    }

    #[test]
    fn correct_protocol_has_no_violation_small() {
        let result = check(&small(BugMode::None));
        assert!(result.violation.is_none(), "{:?}", result.violation);
        assert!(result.states_explored > 1_000);
    }

    #[test]
    fn correct_protocol_has_no_violation_medium() {
        let config = ModelConfig {
            max_writes: 3,
            crash_budget: 3,
            peers: 4,
            bug: BugMode::None,
            max_states: 400_000,
            window: 1,
            coalesce: false,
        };
        let result = check(&config);
        assert!(result.violation.is_none(), "{:?}", result.violation);
        assert!(result.states_explored >= 100_000);
    }

    #[test]
    fn seq_before_data_bug_is_caught() {
        let result = check(&small(BugMode::SeqBeforeData));
        let v = result.violation.expect("bug must be found");
        assert!(v.reason.contains("data"), "{}", v.reason);
        assert!(!v.trace.is_empty());
    }

    #[test]
    fn apmap_before_catchup_bug_is_caught() {
        let result = check(&small(BugMode::ApMapBeforeCatchup));
        let v = result.violation.expect("bug must be found");
        assert!(
            v.reason.contains("acknowledged") || v.reason.contains("externalized"),
            "{}",
            v.reason
        );
    }

    #[test]
    fn no_catchup_bug_is_caught() {
        let result = check(&small(BugMode::NoCatchupOnRecovery));
        let v = result.violation.expect("bug must be found");
        assert!(
            v.reason.contains("externalized") || v.reason.contains("acknowledged"),
            "{}",
            v.reason
        );
    }

    #[test]
    fn violation_traces_start_from_initial_state() {
        let result = check(&small(BugMode::ApMapBeforeCatchup));
        let v = result.violation.unwrap();
        // The first events must be writes/delivery, and the last event is
        // always the recovery read that detected the loss.
        assert!(v.trace.last().unwrap().starts_with("recover_read"));
        assert!(v.trace.len() >= 4, "trace too short: {:?}", v.trace);
    }

    #[test]
    fn state_cap_bounds_exploration() {
        let config = ModelConfig {
            max_states: 5_000,
            ..small(BugMode::None)
        };
        let result = check(&config);
        // The cap stops the BFS shortly after the threshold.
        assert!(result.states_explored <= 6_000 + 64);
    }

    #[test]
    fn checker_is_deterministic() {
        let a = check(&small(BugMode::None));
        let b = check(&small(BugMode::None));
        assert_eq!(a.states_explored, b.states_explored);
        assert_eq!(a.transitions, b.transitions);
    }

    #[test]
    fn pipelined_window_correct_protocol_has_no_violation() {
        // With two records in flight the checker covers every interleaving
        // of a later record's messages with an earlier record's
        // acknowledgement — including peer crashes between a record's data
        // and sequence-number writes while the next record is already
        // posted. The prefix-acknowledgement protocol must survive all of
        // them.
        let mut config = small(BugMode::None);
        config.window = 2;
        let result = check(&config);
        assert!(result.violation.is_none(), "{:?}", result.violation);
    }

    #[test]
    fn pipelined_window_widens_exploration() {
        let baseline = check(&small(BugMode::None)).states_explored;
        let mut config = small(BugMode::None);
        config.window = 2;
        let pipelined = check(&config).states_explored;
        assert!(
            pipelined > baseline,
            "window 2 must strictly widen the state space ({pipelined} vs {baseline})"
        );
    }

    #[test]
    fn pipelined_window_still_catches_seeded_bugs() {
        for bug in [
            BugMode::SeqBeforeData,
            BugMode::ApMapBeforeCatchup,
            BugMode::NoCatchupOnRecovery,
        ] {
            let mut config = small(bug);
            config.window = 2;
            let result = check(&config);
            assert!(
                result.violation.is_some(),
                "{bug:?} must still be caught with pipelined records"
            );
        }
    }

    #[test]
    fn coalesced_correct_protocol_has_no_violation() {
        // Every partition of the issue stream into bursts, every crash
        // point between a burst's data and its single header, every
        // recovery quorum: the acked prefix must survive them all. A crash
        // mid-burst may lose the un-headered tail — those records were
        // never acknowledgeable, so that is not a violation.
        let result = check(&coalesced(BugMode::None));
        assert!(result.violation.is_none(), "{:?}", result.violation);
    }

    #[test]
    fn coalesced_mode_still_catches_seeded_bugs() {
        for bug in [
            BugMode::SeqBeforeData,
            BugMode::ApMapBeforeCatchup,
            BugMode::NoCatchupOnRecovery,
        ] {
            let result = check(&coalesced(bug));
            assert!(
                result.violation.is_some(),
                "{bug:?} must still be caught with coalesced headers"
            );
        }
    }

    #[test]
    fn coalesced_seq_before_data_advertises_unheld_data() {
        // The coalesced variant of the seeded ordering bug posts a burst's
        // header before the burst's data: a peer can advertise the burst
        // boundary while holding none of its data writes — exactly the
        // invariant clause 3 violation.
        let result = check(&coalesced(BugMode::SeqBeforeData));
        let v = result.violation.expect("bug must be found");
        assert!(v.reason.contains("data"), "{}", v.reason);
    }

    #[test]
    fn coalesced_mode_widens_exploration() {
        let mut pipelined = small(BugMode::None);
        pipelined.window = 2;
        let baseline = check(&pipelined).states_explored;
        let coalesced = check(&coalesced(BugMode::None)).states_explored;
        assert!(
            coalesced > baseline,
            "burst-boundary nondeterminism must widen the state space \
             ({coalesced} vs {baseline})"
        );
    }
}
