//! The revocation model: a daemon revokes lent memory (§4.5.2) while
//! writes, applied and acked at once, race it. The application catches a
//! fresh region up from its image and reports the outcome to the planner,
//! whose update republishes the peer. At most `f` peers are down (crashed,
//! or revoked and not republished), so publishing early is what is
//! dangerous. At every state, recovery from every `(f + 1)`-subset of the
//! responders must cover the acked prefix with bytes its source holds.

use ncl::file::plan::{ApMapUpdate, CaughtUp, Source};
use ncl::file::scheme;
use ncl::Durability;

use crate::{header, with, CheckResult, Edge};

const REPLICATED: Durability = Durability::Replicated;

/// Seeded bugs for the revocation model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RevokeBugMode {
    /// The correct protocol.
    None,
    /// The daemon revokes the region's memory but keeps serving its header
    /// to recovery, which may take it as the source of bytes it lost.
    ServeAfterRevoke,
    /// The application reports the replacement's catch-up landed before it
    /// has, so the planner republishes a peer that holds nothing.
    ApMapBeforeCatchUp,
}

/// Bounds for the revocation model exploration.
#[derive(Debug, Clone, Copy)]
pub struct RevokeModelConfig {
    /// Failure budget; the model runs `n = 2f + 1` peers.
    pub f: usize,
    /// Writes the application may issue.
    pub max_writes: u8,
    /// Peer crashes the adversary may inject.
    pub crash_budget: u8,
    /// Revocations the adversary may inject.
    pub revoke_budget: u8,
    /// Seeded bug to inject.
    pub bug: RevokeBugMode,
    /// Safety valve on exploration size (0 = unbounded).
    pub max_states: usize,
}

/// One peer's region, as its daemon answers for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Region {
    /// Lent and holding `.0` writes; `.1` while a republished peer's
    /// catch-up is still to land.
    Held(u8, bool),
    /// Revoked and not yet republished; a stale daemon serves a header at
    /// `.0`.
    Revoked(u8),
    /// Gone with a crash.
    Lost,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct RevokeState {
    issued: u8,
    /// High-water mark of the ack watermark.
    acked: u8,
    peers: Vec<Region>,
    crashes_left: u8,
    revokes_left: u8,
}

/// Recovers from every `(f + 1)`-subset of the responders and returns the
/// first one that loses acked data or whose source lacks what it serves.
fn check_recovery(config: &RevokeModelConfig, st: &RevokeState) -> Option<String> {
    let stale = config.bug == RevokeBugMode::ServeAfterRevoke;
    // Each responder (none before an ack): its id, the header it serves,
    // the writes it holds.
    let serve = |(p, region): (usize, &Region)| match *region {
        Region::Held(applied, _) => Some((p, applied, applied)),
        Region::Revoked(phantom) if stale => Some((p, phantom, 0)),
        _ => None,
    };
    let served = st.peers.iter().enumerate().filter_map(serve);
    let served: Vec<(usize, u8, u8)> = served.filter(|_| st.acked > 0).collect();
    let responders: Vec<_> = served.iter().map(|r| (r.0, header(r.1, 0))).collect();
    let mut quorums = crate::recoveries(REPLICATED, config.f, &responders);
    let lost = quorums.find_map(|(quorum, source)| {
        let Source::Image(i) = source else {
            unreachable!("replicated")
        };
        let (p, seq, acked) = (quorum[i].0, quorum[i].1.seq as u8, st.acked);
        let held = served.iter().find(|r| r.0 == p).map_or(0, |r| r.2);
        let ids: Vec<usize> = quorum.iter().map(|&(p, _)| p).collect();
        let lost = format!("acked write lost: responders {ids:?} advertise only w{seq}");
        let unheld = format!("seq without data: responder p{p} advertises w{seq} but holds");
        match () {
            _ if seq < acked => Some(format!("{lost} < acked w{acked}")),
            _ if held < seq => Some(format!("{unheld} only w{held} (region revoked)")),
            _ => None,
        }
    });
    lost
}

fn successors(config: &RevokeModelConfig, st: &RevokeState) -> Vec<Edge<RevokeState>> {
    let mut out = Vec::new();
    let mut step = |label: String, edit: &dyn Fn(&mut RevokeState)| {
        let next = with(st, edit);
        let down = next.peers.iter().filter(|r| !matches!(r, Region::Held(..)));
        if down.count() <= config.f {
            out.push((label, next, None));
        }
    };
    if st.issued < config.max_writes {
        step(format!("issue(w{})", st.issued + 1), &|n| n.issued += 1);
    }
    let early = config.bug == RevokeBugMode::ApMapBeforeCatchUp;
    let stale = config.bug == RevokeBugMode::ServeAfterRevoke;
    for (p, &region) in st.peers.iter().enumerate() {
        match region {
            // A holder applies the next write, and the writer sees it.
            Region::Held(applied, false) if applied < st.issued => {
                step(format!("apply(p{p},w{})", applied + 1), &|n| {
                    n.peers[p] = Region::Held(applied + 1, false);
                    let held = n.peers.iter().map(|r| match r {
                        Region::Held(applied, _) => *applied,
                        _ => 0,
                    });
                    let quorum = scheme::ack_quorum(REPLICATED, config.f);
                    let mark = scheme::ack_watermark(&mut held.collect::<Vec<_>>(), quorum);
                    n.acked = n.acked.max(mark.expect("all 2f + 1 peers"));
                });
            }
            // The seeded bug's catch-up, landing after the publish.
            Region::Held(_, true) => {
                let label = format!("catch_up(p{p},<=w{})", st.issued);
                step(label, &|n| n.peers[p] = Region::Held(st.issued, false));
            }
            // Replacement: a fresh region caught up from the image, the
            // outcome reported to the planner, whose update republishes it.
            Region::Revoked(_) => {
                let label = match early {
                    true => format!("publish_ap_map(p{p})"),
                    false => format!("replace(p{p},<=w{})", st.issued),
                };
                step(label, &|n| {
                    let (fresh, _) = CaughtUp::landed([(p, true)]);
                    if ApMapUpdate::repair(&[], &fresh).is_ok() {
                        let held = if early { 0 } else { st.issued };
                        n.peers[p] = Region::Held(held, early);
                    }
                });
            }
            _ => {}
        }
        if let (Region::Held(applied, _), true) = (region, st.revokes_left > 0) {
            step(format!("revoke(p{p})"), &|n| {
                n.revokes_left -= 1;
                n.peers[p] = Region::Revoked(if stale { applied } else { 0 });
            });
        }
        if st.crashes_left > 0 && region != Region::Lost {
            step(format!("crash_peer(p{p})"), &|n| {
                n.crashes_left -= 1;
                n.peers[p] = Region::Lost;
            });
        }
    }
    out
}

/// Explores the revocation model breadth-first, checking the
/// every-`(f + 1)`-subset recovery invariant at each reachable state, and
/// reports the first violation with its shortest trace.
pub fn check_revoke(config: &RevokeModelConfig) -> CheckResult {
    assert!(config.f >= 1, "need f >= 1");
    let initial = RevokeState {
        issued: 0,
        acked: 0,
        peers: vec![Region::Held(0, false); scheme::peers_per_file(REPLICATED, config.f)],
        crashes_left: config.crash_budget,
        revokes_left: config.revoke_budget,
    };
    crate::explore(initial, config.max_states, |st| {
        match check_recovery(config, st) {
            Some(lost) => vec![("crash_app_and_recover".into(), st.clone(), Some(lost))],
            None => successors(config, st),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The budgets every case starts from.
    fn base() -> RevokeModelConfig {
        RevokeModelConfig {
            f: 1,
            max_writes: 2,
            crash_budget: 1,
            revoke_budget: 2,
            bug: RevokeBugMode::None,
            max_states: 0,
        }
    }

    #[test]
    fn revoke_safe_protocol_holds_for_f1() {
        let result = check_revoke(&base());
        assert!(
            result.violation.is_none(),
            "unexpected violation: {:?}",
            result.violation
        );
        assert!(result.states_explored > 100);
    }

    #[test]
    fn revoke_storm_with_bigger_budgets_holds() {
        let config = RevokeModelConfig {
            max_writes: 3,
            revoke_budget: 3,
            ..base()
        };
        let result = check_revoke(&config);
        assert!(
            result.violation.is_none(),
            "unexpected violation: {:?}",
            result.violation
        );
    }

    #[test]
    fn serve_after_revoke_bug_is_caught() {
        let config = RevokeModelConfig {
            bug: RevokeBugMode::ServeAfterRevoke,
            ..base()
        };
        let result = check_revoke(&config);
        let v = result.violation.expect("serve-after-revoke must violate");
        assert!(
            v.reason.contains("seq without data"),
            "reason: {}",
            v.reason
        );
        // Shortest counterexample: one write acked by f+1 peers, revoke
        // one of the holders, recover from the stale daemon's quorum.
        assert!(v.trace.len() <= 6, "trace not shortest: {:?}", v.trace);
        assert!(
            v.trace.iter().any(|l| l.starts_with("revoke(")),
            "trace must include the revocation: {:?}",
            v.trace
        );
    }

    #[test]
    fn ap_map_before_catch_up_bug_is_caught() {
        let config = RevokeModelConfig {
            bug: RevokeBugMode::ApMapBeforeCatchUp,
            ..base()
        };
        let result = check_revoke(&config);
        let v = result
            .violation
            .expect("publish-before-catch-up must violate");
        assert!(
            v.reason.contains("acked write lost"),
            "reason: {}",
            v.reason
        );
        assert!(
            v.trace.iter().any(|l| l.starts_with("publish_ap_map")),
            "trace must include the early publish: {:?}",
            v.trace
        );
        // The shortest schedule doesn't even need an explicit second
        // crash: once the empty replacement is published, the
        // every-(f+1)-subset recovery rule may pick a quorum that misses
        // the one surviving holder of the acked write.
        assert!(v.trace.len() <= 7, "trace not shortest: {:?}", v.trace);
    }

    #[test]
    fn revoke_budget_rule_blocks_double_failures() {
        // With the down budget enforced and the correct protocol, even an
        // adversary with both a crash and revocations in hand cannot take
        // two regions away at once.
        let config = RevokeModelConfig {
            crash_budget: 1,
            revoke_budget: 2,
            max_writes: 2,
            ..base()
        };
        assert!(check_revoke(&config).violation.is_none());
    }
}
