//! The erasure-coded protocol model (the `Ec` arm of `ncl::file::scheme`).
//!
//! The unit is one burst: a fragment entry, then a header, to each of the
//! `n` peers in QP order. Fragment contents are not modelled (the code's MDS
//! property is checked in `ncl::ec`): a burst is reconstructible iff at
//! least `k` responders serve its entry. A burst is acked on header
//! completions from `scheme::ack_quorum` peers, all `n`. The spill tier
//! snapshots the acked prefix (`spill_start`), lands it (`snap_durable`),
//! and only then flips the fragment area to the next generation
//! (`gen_switch`). At every state the application may crash: recovery from
//! every `k`-subset of the live peers takes the planner's source — the
//! snapshot of the highest generation any responder reached — then walks
//! the bursts they serve (`scheme::served_logs`), and must cover the acked
//! prefix.

use ncl::file::plan::Source;
use ncl::file::scheme::{self, ServedThrough};
use ncl::Durability;

use crate::{header, with, CheckResult, Edge};

/// Seeded bugs for the erasure-coded durability model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcBugMode {
    /// The correct protocol.
    None,
    /// Acknowledge a burst once `k` (instead of all `n`) header completions
    /// arrive: readable today, not reconstructible after `n - k` failures.
    AckAtK,
    /// Flip the fragment area to the next generation before the spill
    /// snapshot is durable.
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
    /// Highest generation the spill tier may reach.
    pub max_gens: u8,
    /// Seeded bug to inject.
    pub bug: EcBugMode,
    /// Safety valve on exploration size (0 = unbounded).
    pub max_states: usize,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct EcState {
    /// Bursts flushed to the wire, and the writer's generation.
    issued: u8,
    gen: u8,
    /// Generation each burst was posted under (`gen_of[b - 1]`).
    gen_of: Vec<u8>,
    /// In-flight spill to `gen + 1`: covered burst, snapshot durable.
    spill: Option<(u8, bool)>,
    /// Durable snapshot boundary per generation.
    snaps: Vec<Option<u8>>,
    /// Per peer: alive, entries and headers applied (kept after a crash).
    peers: Vec<(bool, u8, u8)>,
    crashes_left: u8,
}

impl EcState {
    /// Generation of the header peer `p` last applied (0 before any).
    fn header_gen(&self, p: usize) -> u8 {
        match self.peers[p].2 {
            0 => 0,
            h => self.gen_of[h as usize - 1],
        }
    }

    /// Does responder `p` serve burst `b` to a walk at `gmax`, by the serve
    /// rule, its `frag_tail` being its applied-header count?
    fn serves(&self, p: usize, b: u8, gmax: u8) -> bool {
        let bg = u64::from(self.gen_of[b as usize - 1]);
        let mut served = scheme::served_logs(u64::from(self.header_gen(p)), u64::from(gmax));
        served.any(|(gen, through)| {
            gen == bg && (through == ServedThrough::PrevTail || b <= self.peers[p].2)
        })
    }
}

/// Recovers from every `k`-subset of the live peers and returns the first
/// one that loses acked data.
fn check_recovery(config: &EcModelConfig, st: &EcState) -> Option<String> {
    let (k, n) = (config.k, config.n);
    let durability = Durability::Ec { k, n };
    // What the writer believes is acked; the seeded bug acks at `k`.
    let mut headers: Vec<u8> = st.peers.iter().map(|p| p.2).collect();
    let need = match config.bug {
        EcBugMode::AckAtK => config.k,
        _ => scheme::ack_quorum(durability, 0),
    };
    let acked = scheme::ack_watermark(&mut headers, need).expect("the model runs all n peers");
    // The live responders; none before an ack, when there is nothing to lose.
    let live = (0..config.n).filter(|&p| st.peers[p].0 && acked > 0);
    let live: Vec<_> = live.map(|p| (p, header(0, st.header_gen(p)))).collect();
    let lost = crate::recoveries(durability, 0, &live).find_map(|(quorum, source)| {
        let ids: Vec<usize> = quorum.iter().map(|&(p, _)| p).collect();
        let Source::Decode { gmax } = source else {
            unreachable!("erasure-coded")
        };
        let gmax = gmax as u8;
        let base = match source.snapshot().map(|g| st.snaps[g as usize]) {
            None => 0,
            Some(Some(seq)) => seq,
            Some(None) => {
                let at = format!("responders {ids:?} sit at generation {gmax}");
                let lost = format!("never became durable; acked burst b{acked} lost");
                return Some(format!("{at} but snapshot({gmax}) {lost}"));
            }
        };
        // Burst `b` extends the prefix iff at least `k` responders serve it.
        let mut got = base;
        let holders = |b| ids.iter().filter(|&&p| st.serves(p, b, gmax)).count();
        while got < st.issued && holders(got + 1) >= config.k {
            got += 1;
        }
        let only = format!("acked burst lost: responders {ids:?} reconstruct only b{got}");
        (got < acked).then(|| format!("{only} < acked b{acked} (gmax={gmax}, base=b{base})"))
    });
    lost
}

fn successors(config: &EcModelConfig, st: &EcState) -> Vec<Edge<EcState>> {
    let mut out = Vec::new();
    let mut step = |label, edit: &dyn Fn(&mut EcState)| out.push((label, with(st, edit), None));
    if st.issued < config.max_bursts {
        step(format!("flush(b{},g{})", st.issued + 1, st.gen), &|n| {
            n.issued += 1;
            n.gen_of.push(st.gen);
        });
    }
    for (p, &(alive, entries, headers)) in st.peers.iter().enumerate() {
        // A live peer applies its next message: entry before header.
        if alive && entries == headers && entries < st.issued {
            let label = format!("apply_entry(p{p},b{})", entries + 1);
            step(label, &|n| n.peers[p].1 += 1);
        } else if alive && headers < entries {
            let label = format!("apply_header(p{p},b{})", headers + 1);
            step(label, &|n| n.peers[p].2 += 1);
        }
        // A crash loses the region for good; the peer leaves the responders.
        if alive && st.crashes_left > 0 {
            step(format!("crash_peer(p{p})"), &|n| {
                n.peers[p].0 = false;
                n.crashes_left -= 1;
            });
        }
    }
    let newest = st.snaps.iter().flatten().max();
    let boundary_new = newest.is_none_or(|&s| st.issued > s);
    if st.spill.is_none() && st.issued > 0 && st.gen < config.max_gens && boundary_new {
        let label = format!("spill_start(<=b{},g{})", st.issued, st.gen + 1);
        step(label, &|n| n.spill = Some((st.issued, false)));
    }
    if let Some((seq, durable)) = st.spill {
        if !durable {
            let label = format!("snap_durable(<=b{seq})");
            step(label, &|n| n.spill = Some((seq, true)));
        }
        // The seeded bug flips before the snapshot is durable.
        if durable || config.bug == EcBugMode::ResetBeforeSnapshot {
            step(format!("gen_switch(g{},<=b{seq})", st.gen + 1), &|n| {
                if durable {
                    n.snaps[st.gen as usize + 1] = Some(seq);
                }
                (n.gen, n.spill) = (n.gen + 1, None);
            });
        }
    }
    out
}

/// Explores the erasure-coded model breadth-first, checking the
/// every-`k`-subset recovery invariant at each reachable state, and reports
/// the first violation with its shortest trace.
pub fn check_ec(config: &EcModelConfig) -> CheckResult {
    assert!(config.k >= 1 && config.n > config.k, "need 1 <= k < n");
    let (k, n) = (config.k, config.n);
    let durability = Durability::Ec { k, n };
    let initial = EcState {
        issued: 0,
        gen: 0,
        gen_of: Vec::new(),
        spill: None,
        snaps: vec![None; config.max_gens as usize + 1],
        peers: vec![(true, 0, 0); scheme::peers_per_file(durability, 0)],
        crashes_left: config.crash_budget,
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
    fn base() -> EcModelConfig {
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

    #[test]
    fn ec_correct_protocol_holds_for_2of3() {
        let result = check_ec(&base());
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
            ..base()
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
            ..base()
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
            ..base()
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
            ..base()
        };
        assert!(check_ec(&config).violation.is_none());
    }
}
