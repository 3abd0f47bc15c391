//! The abstract protocol model and breadth-first state exploration.
//!
//! ## Abstraction
//!
//! Writes are abstract tokens `1..=max_writes`; a peer's region is the pair
//! `(data_applied, seq_applied)` — how many data messages and how many
//! sequence-number messages have landed, in order. The NIC's send-queue
//! ordering makes the real per-peer history exactly the alternation
//! `d1 s1 d2 s2 …`, so one "advance" step either applies the next data
//! message (when `data == seq`) or the next sequence message (when
//! `seq < data`). The seeded ordering bug swaps that rule.
//!
//! A write is acknowledgeable once **both** of its messages have landed on
//! a majority. The application issues writes one at a time (NCL's `record`
//! blocks), crashes at any point, and recovers by reading sequence numbers
//! from an adversarially chosen majority of the ap-map peers.
//!
//! With [`ModelConfig::coalesce`] the model follows the batched submission
//! path instead: issued records are staged until a nondeterministic *flush*
//! posts them as one burst — every record's data message but a single
//! header message stamped with the burst-final sequence number. The per-peer
//! history becomes `d…d h(b1) d…d h(b2) …` over the burst boundaries `bᵢ`,
//! and the checker explores every partition of the issue stream into bursts
//! alongside every crash point.

use ncl::file::scheme;
use ncl::Durability;

/// The model's failure budget: three ap-map slots, recovery reads from
/// every 2-subset of responders, and acks by the implementation's rule.
const F: usize = 1;

/// Seeded bugs from §4.6 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BugMode {
    /// The protocol as designed; the checker must find no violation.
    None,
    /// A peer applies the sequence-number write before the data write.
    SeqBeforeData,
    /// Peer replacement publishes the new ap-map entry before the new peer
    /// is caught up (Figure 7iii).
    ApMapBeforeCatchup,
    /// Recovery returns data to the application without catching up a
    /// majority of peers first.
    NoCatchupOnRecovery,
}

/// Exploration budgets and the bug under test.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Maximum writes the application issues.
    pub max_writes: u8,
    /// Total peer + application crash events allowed along a trace.
    pub crash_budget: u8,
    /// Total peers (the first three form the initial ap-map; the rest are
    /// spares for replacement).
    pub peers: usize,
    /// Bug to seed.
    pub bug: BugMode,
    /// Hard cap on explored states (0 = unlimited).
    pub max_states: usize,
    /// Maximum writes in flight (issued but not acknowledged) at once.
    /// 1 models the paper's synchronous `record`; larger values model the
    /// pipelined `record_nowait` path, where later records' messages race
    /// the acknowledgement of earlier ones.
    pub window: u8,
    /// Model the coalesced-header submission path: issued records are
    /// *staged* until a nondeterministic flush posts them as one burst that
    /// carries every record's data message but a **single** header message,
    /// stamped with the burst-final sequence number. A crash mid-burst may
    /// lose the un-headered tail, but the acked prefix (covered by the last
    /// completed header) must survive every interleaving. `false` keeps the
    /// one-header-per-record stream.
    pub coalesce: bool,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            max_writes: 3,
            crash_budget: 3,
            peers: 4,
            bug: BugMode::None,
            max_states: 0,
            window: 1,
            coalesce: false,
        }
    }
}

/// Outcome of a [`check`] run.
#[derive(Debug, Clone)]
pub struct CheckResult {
    /// Distinct states visited.
    pub states_explored: usize,
    /// Transitions taken.
    pub transitions: usize,
    /// A violating event trace, if the invariant broke.
    pub violation: Option<Violation>,
}

/// A counterexample.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant clause failed.
    pub reason: String,
    /// Transition labels from the initial state to the violation.
    pub trace: Vec<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PeerState {
    alive: bool,
    /// `(data_applied, seq_applied)`; `None` = no region (lost or never
    /// allocated).
    region: Option<(u8, u8)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum AppPhase {
    Running,
    Crashed,
    /// Quorum read done (`max_seq` chosen, data fetched) but peers not yet
    /// caught up; the data has not been returned to the application.
    NeedCatchup {
        max_seq: u8,
    },
}

/// Replacement of the ap-map slot `slot` by peer `cand`:
/// progress flags record which of the two steps (catch-up, ap-map commit)
/// have happened — the bug mode changes which order is allowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Replacement {
    slot: u8,
    cand: u8,
    caught_up: bool,
    committed: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    issued: u8,
    acked: u8,
    /// Highest sequence number whose data any completed recovery handed to
    /// the application.
    externalized: u8,
    ap: [u8; 3],
    peers: Vec<PeerState>,
    pending: Option<Replacement>,
    app: AppPhase,
    crashes_left: u8,
    /// Coalesced mode only: highest sequence number flushed to the wire —
    /// records in `flushed+1..=issued` are staged in application memory and
    /// have no messages in flight. Always `0` when `coalesce` is off.
    flushed: u8,
    /// Coalesced mode only: burst boundaries, ascending. Exactly the
    /// sequence numbers that got a header message; `max(bursts) == flushed`
    /// whenever nonempty.
    bursts: Vec<u8>,
}

impl State {
    fn initial(config: &ModelConfig) -> Self {
        let mut peers = vec![
            PeerState {
                alive: true,
                region: None,
            };
            config.peers
        ];
        for p in peers.iter_mut().take(3) {
            p.region = Some((0, 0));
        }
        State {
            issued: 0,
            acked: 0,
            externalized: 0,
            ap: [0, 1, 2],
            peers,
            pending: None,
            app: AppPhase::Running,
            crashes_left: config.crash_budget,
            flushed: 0,
            bursts: Vec::new(),
        }
    }

    /// Peers (by index) currently in the ap-map.
    fn ap_peers(&self) -> [usize; 3] {
        [
            self.ap[0] as usize,
            self.ap[1] as usize,
            self.ap[2] as usize,
        ]
    }

    /// Count of ap-map peers on which write `i` is fully applied.
    fn applied_on(&self, i: u8) -> usize {
        self.ap_peers()
            .iter()
            .filter(|&&p| {
                let peer = &self.peers[p];
                peer.alive && peer.region.map(|(d, s)| d >= i && s >= i).unwrap_or(false)
            })
            .count()
    }
}

type Successor = crate::Edge<State>;

fn successors(config: &ModelConfig, st: &State) -> Vec<Successor> {
    let mut out: Vec<Successor> = Vec::new();
    let bug = config.bug;

    // --- Message delivery: each ap-map peer advances one message. ---
    if st.app == AppPhase::Running {
        for (slot, &p) in st.ap.iter().enumerate() {
            let peer = st.peers[p as usize];
            if !peer.alive {
                continue;
            }
            let Some((d, s)) = peer.region else { continue };
            let (nd, ns) = if config.coalesce {
                // Coalesced submission: only flushed records are on the
                // wire, and the per-peer post order is
                // `d…d h(b1) d…d h(b2) …` with one header per burst,
                // stamped with the burst boundary.
                if bug == BugMode::SeqBeforeData {
                    // Seeded bug: the burst's header is posted before the
                    // burst's data.
                    let boundary = st.bursts.iter().copied().filter(|&b| b > s).min();
                    if s == d {
                        match boundary {
                            Some(b) => (d, b),
                            None => continue,
                        }
                    } else if d < s {
                        (d + 1, s)
                    } else {
                        continue;
                    }
                } else if st.bursts.contains(&d) && s < d {
                    (d, d) // The burst-final header jumps seq to the boundary.
                } else if d < st.flushed {
                    (d + 1, s) // Next data message of a flushed burst.
                } else {
                    continue; // Staged records have no messages in flight.
                }
            } else if bug == BugMode::SeqBeforeData {
                // Seeded bug: the sequence number lands first.
                if s == d && s < st.issued {
                    (d, s + 1)
                } else if d < s {
                    (d + 1, s)
                } else {
                    continue;
                }
            } else if d == s && d < st.issued {
                (d + 1, s)
            } else if s < d {
                (d, s + 1)
            } else {
                continue;
            };
            let mut next = st.clone();
            next.peers[p as usize].region = Some((nd, ns));
            out.push((format!("deliver(p{p},slot{slot})->({nd},{ns})"), next, None));
        }

        // --- Acknowledge the in-flight write. ---
        if st.issued > st.acked
            && st.applied_on(st.acked + 1) >= scheme::ack_quorum(Durability::Replicated, F)
        {
            let mut next = st.clone();
            next.acked += 1;
            out.push((format!("ack(w{})", st.acked + 1), next, None));
        }

        // --- Issue the next write. Up to `window` records may be in
        // flight; depth 1 serialises them (the synchronous baseline). ---
        if st.issued - st.acked < config.window.max(1) && st.issued < config.max_writes {
            let mut next = st.clone();
            next.issued += 1;
            out.push((format!("issue(w{})", st.issued + 1), next, None));
        }

        // --- Flush the staged burst (coalesced mode). Nondeterministic, so
        // every partition of the issue stream into bursts is explored —
        // this subsumes window-full, `wait_durable`, and `fsync` flushes. ---
        if config.coalesce && st.flushed < st.issued {
            let mut next = st.clone();
            next.flushed = st.issued;
            next.bursts.push(st.issued);
            out.push((format!("flush(b{})", st.issued), next, None));
        }

        // --- Peer replacement (two steps whose order the bug flips). ---
        if st.pending.is_none() {
            // A slot needs replacement when its peer is dead or lost its
            // region; candidates are live peers outside the ap-map.
            for slot in 0..3usize {
                let p = st.ap[slot] as usize;
                let broken = !st.peers[p].alive || st.peers[p].region.is_none();
                if !broken {
                    continue;
                }
                for cand in 0..st.peers.len() {
                    if st.ap.contains(&(cand as u8)) {
                        continue;
                    }
                    if !st.peers[cand].alive {
                        continue;
                    }
                    let mut next = st.clone();
                    // Allocation: a fresh, empty region on the candidate.
                    next.peers[cand].region = Some((0, 0));
                    next.pending = Some(Replacement {
                        slot: slot as u8,
                        cand: cand as u8,
                        caught_up: false,
                        committed: false,
                    });
                    out.push((format!("replace_start(slot{slot},p{cand})"), next, None));
                }
            }
        }
        if let Some(rep) = st.pending {
            let cand = rep.cand as usize;
            let cand_alive = st.peers[cand].alive && st.peers[cand].region.is_some();
            // Step: catch the candidate up from the local buffer.
            if !rep.caught_up && cand_alive {
                let mut next = st.clone();
                // The implementation flushes the staged burst before the
                // catch-up write (catch-up stamps the header at the stage's
                // tip, so everything staged must be on the wire for the
                // surviving peers too).
                if config.coalesce && next.flushed < next.issued {
                    next.flushed = next.issued;
                    next.bursts.push(next.issued);
                }
                next.peers[cand].region = Some((st.issued, st.issued));
                next.pending = Some(Replacement {
                    caught_up: true,
                    ..rep
                });
                finish_replacement(&mut next);
                out.push((format!("replace_catchup(p{cand})"), next, None));
            }
            // Step: commit the new ap-map entry. Correct protocol only
            // commits after catch-up; the seeded bug commits first.
            let commit_allowed = rep.caught_up || bug == BugMode::ApMapBeforeCatchup;
            if !rep.committed && commit_allowed && cand_alive {
                let mut next = st.clone();
                next.ap[rep.slot as usize] = rep.cand;
                next.pending = Some(Replacement {
                    committed: true,
                    ..rep
                });
                finish_replacement(&mut next);
                out.push((
                    format!("replace_commit(slot{},p{cand})", rep.slot),
                    next,
                    None,
                ));
            }
        }
    }

    // --- Recovery: catch-up completes, data is handed to the app. ---
    if let AppPhase::NeedCatchup { max_seq } = st.app {
        let mut next = st.clone();
        for &p in next.ap.clone().iter() {
            let peer = &mut next.peers[p as usize];
            if peer.alive {
                // Lagging peers (and crash-restarted ones, via fresh
                // regions) are brought to the recovered image.
                peer.region = Some((max_seq, max_seq));
            }
        }
        next.app = AppPhase::Running;
        next.acked = max_seq;
        next.issued = max_seq;
        next.externalized = next.externalized.max(max_seq);
        if config.coalesce {
            // The recovered image defines a fresh stream: staged-but-lost
            // records are gone and every live ap-map peer sits at
            // `(max_seq, max_seq)`, so old burst boundaries are spent.
            next.flushed = max_seq;
            next.bursts.clear();
        }
        out.push(("recover_catchup_and_resume".to_string(), next, None));
    }

    // --- Failures. ---
    if st.crashes_left > 0 {
        for p in 0..st.peers.len() {
            if st.peers[p].alive {
                let mut next = st.clone();
                next.peers[p].alive = false;
                next.peers[p].region = None; // DRAM gone.
                next.crashes_left -= 1;
                out.push((format!("crash_peer(p{p})"), next, None));
            }
        }
        if st.app != AppPhase::Crashed {
            let mut next = st.clone();
            next.app = AppPhase::Crashed;
            next.pending = None; // In-flight replacement state is lost.
            next.crashes_left -= 1;
            out.push(("crash_app".to_string(), next, None));
        }
    }
    for p in 0..st.peers.len() {
        if !st.peers[p].alive {
            let mut next = st.clone();
            next.peers[p].alive = true; // Restart with empty memory.
            out.push((format!("restart_peer(p{p})"), next, None));
        }
    }

    // --- Recovery step 1: quorum sequence read (adversarial quorum). ---
    if st.app == AppPhase::Crashed {
        let responders: Vec<usize> = st
            .ap_peers()
            .iter()
            .copied()
            .filter(|&p| st.peers[p].alive && st.peers[p].region.is_some())
            .collect();
        // Every 2-subset of responders is a legal read quorum.
        for i in 0..responders.len() {
            for j in (i + 1)..responders.len() {
                let quorum = [responders[i], responders[j]];
                let (rp, max_seq) = quorum
                    .iter()
                    .map(|&p| (p, st.peers[p].region.expect("responder has region").1))
                    .max_by_key(|&(_, s)| s)
                    .expect("quorum nonempty");
                let label = format!(
                    "recover_read(q={{p{},p{}}},max={max_seq})",
                    quorum[0], quorum[1]
                );
                // Invariant checks happen at the moment the image is built.
                let (rd, rs) = st.peers[rp].region.expect("recovery peer region");
                debug_assert_eq!(rs, max_seq);
                let violation = if max_seq < st.acked {
                    Some(format!(
                        "acknowledged write lost: recovered seq {max_seq} < acked {}",
                        st.acked
                    ))
                } else if max_seq < st.externalized {
                    Some(format!(
                        "externalized state lost: recovered seq {max_seq} < externalized {}",
                        st.externalized
                    ))
                } else if rd < rs {
                    Some(format!(
                        "recovery peer p{rp} advertises seq {rs} but only holds {rd} data writes"
                    ))
                } else {
                    None
                };
                let mut next = st.clone();
                if config.bug == BugMode::NoCatchupOnRecovery {
                    // Seeded bug: hand the data to the application without
                    // catching up the lagging peers.
                    next.app = AppPhase::Running;
                    next.acked = max_seq;
                    next.issued = max_seq;
                    next.externalized = next.externalized.max(max_seq);
                    if config.coalesce {
                        next.flushed = max_seq;
                        next.bursts.clear();
                    }
                } else {
                    next.app = AppPhase::NeedCatchup { max_seq };
                }
                out.push((label, next, violation));
            }
        }
    }

    out
}

/// Clears the pending marker once both steps have happened.
fn finish_replacement(st: &mut State) {
    if let Some(rep) = st.pending {
        if rep.caught_up && rep.committed {
            st.pending = None;
        }
    }
}

/// Explores the model breadth-first and reports the first violation (with
/// its shortest trace) or the full state count.
pub fn check(config: &ModelConfig) -> CheckResult {
    crate::explore(State::initial(config), config.max_states, |st| {
        successors(config, st)
    })
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
