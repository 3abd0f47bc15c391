//! Exhaustive model of the erasure-coded durability path.
//!
//! Abstraction (mirroring the `Ec` arm of `ncl::file::scheme`):
//!
//! * Writes are coalesced; the unit of the model is one **burst** — one
//!   fragment entry posted to each of the `n` peers plus one header write
//!   per peer, in QP order (entry before header, burst `b` before burst
//!   `b+1`). Bursts are abstract tokens; fragment contents are not modelled
//!   because the MDS property of the code is checked separately in
//!   `ncl::ec` — here a burst is *reconstructible* from a responder set iff
//!   at least `k` members hold its fragment entry.
//! * A peer's state is `(entries, headers)` — how many of the posted
//!   messages it has applied, with `headers <= entries` (in-order QP).
//!   A peer *serves* during recovery exactly what its **header** covers:
//!   the active-half fragments of bursts `<= headers` in the header's
//!   generation, plus (once flipped) every fragment of the previous
//!   generation via `prev_tail` — the production rule,
//!   `scheme::served_logs`, called here rather than restated.
//! * The spill tier is a three-step protocol: `spill_start` snapshots the
//!   acked prefix at a burst boundary, `snap_durable` lands it in the sink,
//!   and `gen_switch` flips the fragment area to the next generation —
//!   *only after* the snapshot is durable (the seeded
//!   [`EcBugMode::ResetBeforeSnapshot`] flips early).
//! * Acknowledgement requires header completions from **all** `n` peers
//!   (the seeded [`EcBugMode::AckAtK`] acks at `k`, which is exactly the
//!   classic erasure-coding mistake: `k` completions make a burst
//!   *readable today*, not *reconstructible after `n - k` failures*).
//!
//! The invariant checked at every reachable state: for **every** `k`-subset
//! of the live peers, running the recovery decode rule (max responder
//! generation `G`, durable snapshot for `G`, then a contiguous walk over
//! generations `G-1` and `G` requiring `>= k` fragment holders per burst)
//! recovers at least the acked prefix. With [`EcBugMode::None`] no
//! interleaving of bursts, deliveries, spills, generation switches, and
//! peer crashes violates it; both seeded bugs produce shortest-trace
//! counterexamples.

use ncl::file::scheme::{self, ServedThrough};
use ncl::Durability;

use crate::model::CheckResult;

/// Seeded bugs for the erasure-coded durability model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcBugMode {
    /// The correct protocol.
    None,
    /// Acknowledge a burst once `k` (instead of all `n`) header
    /// completions arrive. Recovery from an unlucky `k`-subset of
    /// survivors then lacks the fragments to reconstruct an acked burst.
    AckAtK,
    /// Flip the fragment area to the next generation before the spill
    /// snapshot is durable. A crash after the flip strands the demoted
    /// prefix: the max-generation responders need `snapshot(G)`, which
    /// never landed.
    ResetBeforeSnapshot,
}

/// Bounds for the erasure-coded model exploration.
#[derive(Debug, Clone, Copy)]
pub struct EcModelConfig {
    /// Data fragments needed for reconstruction.
    pub k: usize,
    /// Total fragments (peers holding the log).
    pub n: usize,
    /// Bursts the writer may flush.
    pub max_bursts: u8,
    /// Peer crashes the adversary may inject.
    pub crash_budget: u8,
    /// Highest generation the spill tier may reach (so at most
    /// `max_gens` switches are explored).
    pub max_gens: u8,
    /// Seeded bug to inject.
    pub bug: EcBugMode,
    /// Safety valve on exploration size (0 = unbounded).
    pub max_states: usize,
}

impl EcModelConfig {
    /// The modelled code as the implementation names it.
    fn durability(&self) -> Durability {
        Durability::Ec {
            k: self.k,
            n: self.n,
        }
    }
}

impl Default for EcModelConfig {
    fn default() -> Self {
        EcModelConfig {
            k: 2,
            n: 3,
            max_bursts: 3,
            crash_budget: 1,
            max_gens: 2,
            bug: EcBugMode::None,
            max_states: 0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct EcPeer {
    alive: bool,
    /// Fragment entries applied (bursts `1..=entries`).
    entries: u8,
    /// Header writes applied (`headers <= entries`).
    headers: u8,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct EcState {
    /// Bursts flushed to the wire.
    issued: u8,
    /// Writer's current generation.
    gen: u8,
    /// Generation each burst was posted under (`gen_of[b - 1]`).
    gen_of: Vec<u8>,
    /// In-flight spill: covered burst boundary + snapshot durability.
    /// Target generation is always `gen + 1`.
    spill: Option<(u8, bool)>,
    /// Durable snapshot boundary per generation (`snaps[g]`).
    snaps: Vec<Option<u8>>,
    peers: Vec<EcPeer>,
    crashes_left: u8,
}

impl EcState {
    fn initial(config: &EcModelConfig) -> Self {
        EcState {
            issued: 0,
            gen: 0,
            gen_of: Vec::new(),
            spill: None,
            snaps: vec![None; config.max_gens as usize + 1],
            peers: vec![
                EcPeer {
                    alive: true,
                    entries: 0,
                    headers: 0,
                };
                scheme::peers_per_file(config.durability(), 0)
            ],
            crashes_left: config.crash_budget,
        }
    }

    /// Generation of the header a peer last applied (gen of its newest
    /// applied burst; a peer with no headers is still at generation 0).
    fn header_gen(&self, p: usize) -> u8 {
        let h = self.peers[p].headers;
        if h == 0 {
            0
        } else {
            self.gen_of[h as usize - 1]
        }
    }

    /// What the application believes is acked, derived from delivered
    /// header completions: the correct rule needs all `n`, the seeded
    /// [`EcBugMode::AckAtK`] stops at `k`. Completions delivered before a
    /// peer crashed still count (they reached the writer).
    fn acked(&self, config: &EcModelConfig) -> u8 {
        let mut hs: Vec<u8> = self.peers.iter().map(|p| p.headers).collect();
        let need = match config.bug {
            EcBugMode::AckAtK => config.k,
            _ => scheme::ack_quorum(config.durability(), 0),
        };
        scheme::ack_watermark(&mut hs, need).expect("the model runs all n peers")
    }

    /// Does responder `p` serve burst `b` when the decode walk targets
    /// `gmax`? The production serve rule ([`scheme::served_logs`]) says
    /// which generations' logs `p` serves and through which tail; the
    /// model's `frag_tail` is the responder's applied-header count.
    fn serves(&self, p: usize, b: u8, gmax: u8) -> bool {
        let bg = u64::from(self.gen_of[b as usize - 1]);
        scheme::served_logs(u64::from(self.header_gen(p)), u64::from(gmax)).any(|(gen, through)| {
            gen == bg
                && match through {
                    ServedThrough::FragTail => b <= self.peers[p].headers,
                    ServedThrough::PrevTail => true,
                }
        })
    }
}

/// Runs the recovery decode rule for every `k`-subset of the live peers
/// and returns the first subset that loses acked data.
fn check_recovery(config: &EcModelConfig, st: &EcState) -> Option<String> {
    let acked = st.acked(config);
    if acked == 0 {
        return None;
    }
    let live: Vec<usize> = (0..config.n).filter(|&p| st.peers[p].alive).collect();
    let k = scheme::recovery_quorum(config.durability(), 0);
    if live.len() < k {
        // Fewer than `k` survivors: recovery legitimately reports
        // `QuorumUnavailable` — outside the durability contract.
        return None;
    }
    for combo in crate::k_subsets(live.len(), k) {
        let responders: Vec<usize> = combo.iter().map(|&i| live[i]).collect();
        let gmax = responders
            .iter()
            .map(|&p| st.header_gen(p))
            .max()
            .expect("responders nonempty");
        // Base prefix: the durable snapshot for `gmax`. Recovery
        // refuses to proceed without it — modelled as recovering nothing.
        let base = if gmax == 0 {
            0
        } else {
            match st.snaps[gmax as usize] {
                Some(seq) => seq,
                None => {
                    if acked > 0 {
                        return Some(format!(
                            "responders {responders:?} sit at generation {gmax} but \
                             snapshot({gmax}) never became durable; acked burst b{acked} lost"
                        ));
                    }
                    continue;
                }
            }
        };
        // Contiguous walk over generations `gmax-1` and `gmax`: burst
        // `b` extends the prefix iff at least `k` responders serve it.
        let mut recovered = base;
        while recovered < st.issued {
            let b = recovered + 1;
            let bg = st.gen_of[b as usize - 1];
            if bg + 1 < gmax || bg > gmax {
                break;
            }
            let holders = responders
                .iter()
                .filter(|&&p| st.serves(p, b, gmax))
                .count();
            if holders < config.k {
                break;
            }
            recovered = b;
        }
        if recovered < acked {
            return Some(format!(
                "acked burst lost: responders {responders:?} reconstruct only b{recovered} \
                 < acked b{acked} (gmax={gmax}, base=b{base})"
            ));
        }
    }
    None
}

type Successor = (String, EcState);

fn successors(config: &EcModelConfig, st: &EcState) -> Vec<Successor> {
    let mut out: Vec<Successor> = Vec::new();

    // --- Flush the next burst under the writer's current generation. ---
    if st.issued < config.max_bursts {
        let mut next = st.clone();
        next.issued += 1;
        next.gen_of.push(st.gen);
        out.push((format!("flush(b{},g{})", next.issued, st.gen), next));
    }

    // --- Message delivery: each live peer advances one message, entry
    // before header (QP order). ---
    for p in 0..config.n {
        let peer = st.peers[p];
        if !peer.alive {
            continue;
        }
        if peer.entries == peer.headers && peer.entries < st.issued {
            let mut next = st.clone();
            next.peers[p].entries += 1;
            out.push((format!("apply_entry(p{p},b{})", peer.entries + 1), next));
        } else if peer.headers < peer.entries {
            let mut next = st.clone();
            next.peers[p].headers += 1;
            out.push((format!("apply_header(p{p},b{})", peer.headers + 1), next));
        }
    }

    // --- Spill tier. ---
    if st.spill.is_none() && st.issued > 0 && st.gen < config.max_gens {
        let boundary_new = st
            .snaps
            .iter()
            .flatten()
            .copied()
            .max()
            .is_none_or(|s| st.issued > s);
        if boundary_new {
            let mut next = st.clone();
            next.spill = Some((st.issued, false));
            out.push((
                format!("spill_start(<=b{},g{})", st.issued, st.gen + 1),
                next,
            ));
        }
    }
    if let Some((seq, false)) = st.spill {
        let mut next = st.clone();
        next.spill = Some((seq, true));
        out.push((format!("snap_durable(<=b{seq})"), next));
    }
    if let Some((seq, durable)) = st.spill {
        // Correct protocol flips only once the snapshot is durable; the
        // seeded bug flips eagerly.
        if durable || config.bug == EcBugMode::ResetBeforeSnapshot {
            let mut next = st.clone();
            if durable {
                next.snaps[st.gen as usize + 1] = Some(seq);
            }
            next.gen += 1;
            next.spill = None;
            out.push((format!("gen_switch(g{},<=b{seq})", st.gen + 1), next));
        }
    }

    // --- Failures: region memory is DRAM; a crash loses it for good
    // (peer replacement is modelled in `model.rs`; here crashed peers
    // simply drop out of the recovery responder pool). ---
    if st.crashes_left > 0 {
        for p in 0..config.n {
            if st.peers[p].alive {
                let mut next = st.clone();
                next.peers[p].alive = false;
                next.crashes_left -= 1;
                out.push((format!("crash_peer(p{p})"), next));
            }
        }
    }

    out
}

/// Explores the erasure-coded model breadth-first, checking the
/// every-`k`-subset recovery invariant at each reachable state (the
/// application may crash anywhere), and reports the first violation with
/// its shortest trace.
pub fn check_ec(config: &EcModelConfig) -> CheckResult {
    assert!(config.k >= 1 && config.n > config.k, "need 1 <= k < n");
    crate::explore(EcState::initial(config), config.max_states, |st| {
        crate::recovery_checked(st, check_recovery(config, st), || successors(config, st))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ec_correct_protocol_holds_for_2of3() {
        let result = check_ec(&EcModelConfig::default());
        assert!(
            result.violation.is_none(),
            "unexpected violation: {:?}",
            result.violation
        );
        assert!(result.states_explored > 1_000);
    }

    #[test]
    fn ec_correct_protocol_holds_for_2of4_with_two_crashes() {
        let config = EcModelConfig {
            k: 2,
            n: 4,
            max_bursts: 3,
            crash_budget: 2,
            ..Default::default()
        };
        let result = check_ec(&config);
        assert!(
            result.violation.is_none(),
            "unexpected violation: {:?}",
            result.violation
        );
    }

    #[test]
    fn ec_ack_at_k_bug_is_caught() {
        let config = EcModelConfig {
            bug: EcBugMode::AckAtK,
            ..Default::default()
        };
        let result = check_ec(&config);
        let v = result.violation.expect("ack-at-k must violate");
        assert!(
            v.reason.contains("acked burst lost"),
            "reason: {}",
            v.reason
        );
        // Shortest counterexample: flush one burst, deliver entry+header
        // to k peers, crash-free recovery from a subset holding < k
        // fragments of the acked burst.
        assert!(v.trace.len() <= 7, "trace not shortest: {:?}", v.trace);
    }

    #[test]
    fn ec_reset_before_snapshot_bug_is_caught() {
        let config = EcModelConfig {
            bug: EcBugMode::ResetBeforeSnapshot,
            ..Default::default()
        };
        let result = check_ec(&config);
        let v = result
            .violation
            .expect("reset-before-snapshot must violate");
        assert!(
            v.reason.contains("never became durable"),
            "reason: {}",
            v.reason
        );
        assert!(
            v.trace.iter().any(|l| l.starts_with("gen_switch")),
            "trace must include the premature flip: {:?}",
            v.trace
        );
    }

    #[test]
    fn ec_crash_budget_below_parity_never_violates() {
        // With n - k = 1 spare fragment, one peer crash is survivable by
        // construction; the model agrees.
        let config = EcModelConfig {
            crash_budget: 1,
            max_bursts: 2,
            ..Default::default()
        };
        assert!(check_ec(&config).violation.is_none());
    }
}
