//! Exhaustive model of voluntary memory revocation racing replication.
//!
//! Abstraction (mirroring `ncl::peer` revocation + `ncl::file` replace):
//!
//! * Writes are tokens replicated to `n = 2f + 1` peers; a peer's `applied`
//!   counter merges message apply and completion delivery (the writer
//!   learns of an apply immediately — the interleavings that matter here
//!   are on the revocation side, not the wire). The acked prefix is the
//!   high-water mark of the `(f + 1)`-th largest `applied`, so completions
//!   delivered before a later crash or revocation still count.
//! * A peer daemon under memory pressure may **revoke** a region (§4.5.2):
//!   the region's bytes are gone instantly and, in the correct protocol,
//!   the daemon stops answering recovery lookups for it. The owning
//!   application replaces the peer through the catch-up path: it writes
//!   its local image into a fresh region (`applied = issued`) **before**
//!   publishing the new membership — modelled as one atomic `replace`
//!   step, which is exactly the `catch-up-before-ap-map-update` invariant.
//! * The adversary schedules writes, applies, revocations, and peer
//!   crashes, but honours the durability contract: at most `f` peers are
//!   *down* (crashed, or revoked-and-not-yet-replaced) at any instant. A
//!   peer that has been published back into the ap-map no longer counts as
//!   down — which is what makes publishing early dangerous.
//!
//! The invariant checked at every reachable state: the application may
//! crash now, and recovery from **every** `(f + 1)`-subset of the
//! responding peers must (1) cover the acked prefix and (2) source the
//! data from a responder that actually holds the bytes it advertises (no
//! sequence-number-without-data). Both seeded [`RevokeBugMode`]s produce
//! shortest-trace counterexamples within the down budget.

use ncl::file::scheme;
use ncl::Durability;

use crate::model::CheckResult;

/// Seeded bugs for the revocation model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RevokeBugMode {
    /// The correct protocol.
    None,
    /// The daemon revokes the region's memory but keeps answering recovery
    /// lookups with the pre-revocation sequence number. A recovery that
    /// picks the stale daemon as its max-advertiser sources data the peer
    /// no longer holds.
    ServeAfterRevoke,
    /// The application publishes the replacement peer into the ap-map
    /// before catching it up. The published peer stops counting against
    /// the down budget, so a second failure becomes admissible while the
    /// acked prefix exists on too few regions.
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

impl Default for RevokeModelConfig {
    fn default() -> Self {
        RevokeModelConfig {
            f: 1,
            max_writes: 2,
            crash_budget: 1,
            revoke_budget: 2,
            bug: RevokeBugMode::None,
            max_states: 0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RPeer {
    alive: bool,
    /// Holds a granted region (false after a crash or revocation).
    region: bool,
    /// Writes actually present in the region.
    applied: u8,
    /// Sequence number a stale daemon still advertises after revoking the
    /// bytes ([`RevokeBugMode::ServeAfterRevoke`] only).
    phantom: u8,
    /// Region revoked and the peer not yet replaced.
    revoked: bool,
    /// Published in the ap-map with catch-up still pending
    /// ([`RevokeBugMode::ApMapBeforeCatchUp`] only).
    needs_catchup: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct RevokeState {
    issued: u8,
    /// High-water mark of the `(f + 1)`-th largest `applied`.
    acked: u8,
    peers: Vec<RPeer>,
    crashes_left: u8,
    revokes_left: u8,
}

impl RevokeState {
    fn initial(config: &RevokeModelConfig) -> Self {
        RevokeState {
            issued: 0,
            acked: 0,
            peers: vec![
                RPeer {
                    alive: true,
                    region: true,
                    applied: 0,
                    phantom: 0,
                    revoked: false,
                    needs_catchup: false,
                };
                scheme::peers_per_file(Durability::Replicated, config.f)
            ],
            crashes_left: config.crash_budget,
            revokes_left: config.revoke_budget,
        }
    }

    /// Peers currently counting against the `f` failure budget: crashed,
    /// or revoked without a replacement. A peer published back into the
    /// ap-map no longer counts — correct only if it was caught up first.
    fn down(&self) -> usize {
        self.peers.iter().filter(|p| !p.alive || p.revoked).count()
    }

    /// Recomputes the acked high-water mark after an apply.
    fn refresh_acked(&mut self, f: usize) {
        let mut applied: Vec<u8> = self.peers.iter().map(|p| p.applied).collect();
        let quorum = scheme::ack_quorum(Durability::Replicated, f);
        let mark = scheme::ack_watermark(&mut applied, quorum);
        self.acked = self
            .acked
            .max(mark.expect("the model runs all 2f + 1 peers"));
    }

    /// Does peer `p` answer a recovery lookup, and with which sequence
    /// number? Correctly, only live region holders respond; the seeded
    /// [`RevokeBugMode::ServeAfterRevoke`] daemon also answers for the
    /// region it revoked, advertising bytes it no longer has.
    fn responder(&self, p: usize, bug: RevokeBugMode) -> Option<(u8, u8)> {
        let peer = &self.peers[p];
        if !peer.alive {
            return None;
        }
        if peer.region {
            return Some((peer.applied, peer.applied));
        }
        if peer.revoked && bug == RevokeBugMode::ServeAfterRevoke {
            return Some((peer.phantom, 0));
        }
        None
    }
}

/// Runs the recovery rule for every `(f + 1)`-subset of the responders and
/// returns the first subset that loses acked data or sources an advertised
/// sequence number no responder holds.
fn check_recovery(config: &RevokeModelConfig, st: &RevokeState) -> Option<String> {
    if st.acked == 0 {
        return None;
    }
    let responders: Vec<(usize, u8, u8)> = (0..st.peers.len())
        .filter_map(|p| {
            st.responder(p, config.bug)
                .map(|(adv, held)| (p, adv, held))
        })
        .collect();
    let quorum = scheme::recovery_quorum(Durability::Replicated, config.f);
    if responders.len() < quorum {
        // Fewer than `f + 1` responders: recovery legitimately reports
        // `QuorumUnavailable` — outside the durability contract (and, with
        // the down budget enforced, unreachable without a stale daemon).
        return None;
    }
    for combo in crate::k_subsets(responders.len(), quorum) {
        let subset: Vec<&(usize, u8, u8)> = combo.iter().map(|&i| &responders[i]).collect();
        let recovered = subset
            .iter()
            .map(|(_, adv, _)| *adv)
            .max()
            .expect("nonempty");
        if recovered < st.acked {
            let ids: Vec<usize> = subset.iter().map(|(p, _, _)| *p).collect();
            return Some(format!(
                "acked write lost: responders {ids:?} advertise only w{recovered} \
                 < acked w{}",
                st.acked
            ));
        }
        // The recovery sources its image from a max-advertiser; every one
        // of them must actually hold the bytes behind the advertised seq.
        for (p, adv, held) in &subset {
            if *adv == recovered && *held < recovered {
                return Some(format!(
                    "seq without data: responder p{p} advertises w{recovered} but holds \
                     only w{held} (region revoked)"
                ));
            }
        }
    }
    None
}

type Successor = (String, RevokeState);

fn successors(config: &RevokeModelConfig, st: &RevokeState) -> Vec<Successor> {
    let n = st.peers.len();
    let mut out: Vec<Successor> = Vec::new();

    // --- The application issues the next write. ---
    if st.issued < config.max_writes {
        let mut next = st.clone();
        next.issued += 1;
        out.push((format!("issue(w{})", next.issued), next));
    }

    // --- Replication: a live region holder applies the next write (and
    // its completion reaches the writer). ---
    for p in 0..n {
        let peer = st.peers[p];
        if peer.alive && peer.region && !peer.needs_catchup && peer.applied < st.issued {
            let mut next = st.clone();
            next.peers[p].applied += 1;
            next.refresh_acked(config.f);
            out.push((format!("apply(p{p},w{})", peer.applied + 1), next));
        }
    }

    // --- Voluntary revocation under memory pressure. ---
    if st.revokes_left > 0 {
        for p in 0..n {
            let peer = st.peers[p];
            if !(peer.alive && peer.region && !peer.revoked) {
                continue;
            }
            let mut next = st.clone();
            next.revokes_left -= 1;
            let victim = &mut next.peers[p];
            victim.region = false;
            victim.revoked = true;
            victim.phantom = if config.bug == RevokeBugMode::ServeAfterRevoke {
                victim.applied
            } else {
                0
            };
            victim.applied = 0;
            victim.needs_catchup = false;
            if next.down() <= config.f {
                out.push((format!("revoke(p{p})"), next));
            }
        }
    }

    // --- Replacement of a revoked peer. ---
    for p in 0..n {
        let peer = st.peers[p];
        if !(peer.alive && peer.revoked) {
            continue;
        }
        match config.bug {
            RevokeBugMode::ApMapBeforeCatchUp => {
                // Seeded bug: publish first — the peer leaves the down
                // budget holding an empty region.
                let mut next = st.clone();
                let repl = &mut next.peers[p];
                repl.revoked = false;
                repl.region = true;
                repl.applied = 0;
                repl.phantom = 0;
                repl.needs_catchup = true;
                out.push((format!("publish_ap_map(p{p})"), next));
            }
            _ => {
                // Correct protocol: catch up from the application's local
                // image, then publish — one atomic step from the model's
                // point of view (`catch-up-before-ap-map-update`).
                let mut next = st.clone();
                let repl = &mut next.peers[p];
                repl.revoked = false;
                repl.region = true;
                repl.applied = st.issued;
                repl.phantom = 0;
                out.push((format!("replace(p{p},<=w{})", st.issued), next));
            }
        }
    }
    // The seeded bug's deferred catch-up.
    for p in 0..n {
        if st.peers[p].alive && st.peers[p].needs_catchup {
            let mut next = st.clone();
            let repl = &mut next.peers[p];
            repl.needs_catchup = false;
            repl.applied = st.issued;
            out.push((format!("catch_up(p{p},<=w{})", st.issued), next));
        }
    }

    // --- Failures: a crash loses the region for good. ---
    if st.crashes_left > 0 {
        for p in 0..n {
            if !st.peers[p].alive {
                continue;
            }
            let mut next = st.clone();
            next.crashes_left -= 1;
            let victim = &mut next.peers[p];
            victim.alive = false;
            victim.region = false;
            victim.applied = 0;
            victim.phantom = 0;
            victim.needs_catchup = false;
            if next.down() <= config.f {
                out.push((format!("crash_peer(p{p})"), next));
            }
        }
    }

    out
}

/// Explores the revocation model breadth-first, checking the
/// every-`(f + 1)`-subset recovery invariant at each reachable state (the
/// application may crash anywhere), and reports the first violation with
/// its shortest trace.
pub fn check_revoke(config: &RevokeModelConfig) -> CheckResult {
    assert!(config.f >= 1, "need f >= 1");
    crate::explore(RevokeState::initial(config), config.max_states, |st| {
        crate::recovery_checked(st, check_recovery(config, st), || successors(config, st))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn revoke_safe_protocol_holds_for_f1() {
        let result = check_revoke(&RevokeModelConfig::default());
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
            ..Default::default()
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
            ..Default::default()
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
            ..Default::default()
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
            ..Default::default()
        };
        assert!(check_revoke(&config).violation.is_none());
    }
}
