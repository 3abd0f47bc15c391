//! Explicit-state model checker for NCL's replication and recovery
//! protocols (§4.6 of the SplitFT paper): every interleaving of writes,
//! crashes, recoveries and repairs within a budget, plus seeded bugs the
//! checker must catch. Each model's decisions are production code — the ack
//! rule is `ncl::file::scheme`'s; recovery's quorum check and source, each
//! responder's catch-up, the replacements and the ap-map publish are
//! `ncl::file::plan`'s — so a model only runs their effects, and a seeded
//! bug mutates that runner or the headers it feeds the planner.
//!
//! * [`check`]: replicated writes, replacement and recovery ([`BugMode`]).
//! * [`check_ec`]: `k`-of-`n` bursts and the spill tier ([`EcBugMode`]).
//! * [`check_revoke`]: memory revocation racing writes ([`RevokeBugMode`]).

pub mod ec;
pub mod model;
pub mod revoke;

pub use ec::{check_ec, EcBugMode, EcModelConfig};
pub use model::{check, BugMode, ModelConfig};
pub use revoke::{check_revoke, RevokeBugMode, RevokeModelConfig};

use std::collections::HashSet;
use std::hash::Hash;

use ncl::file::plan::{self, Source};
use ncl::file::scheme;
use ncl::{Durability, RegionHeader};

/// Outcome of a check.
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

/// An edge: its label, the state it reaches, and why it violates, if it does.
type Edge<S> = (String, S, Option<String>);

/// The one explorer behind the three checks: breadth-first from `initial`,
/// asking `step` for each state's edges in order, until an edge violates
/// (reported with its shortest trace), the frontier empties, or
/// `max_states` distinct states exist (0 = no cap).
fn explore<S: Clone + Eq + Hash>(
    initial: S,
    max_states: usize,
    mut step: impl FnMut(&S) -> Vec<Edge<S>>,
) -> CheckResult {
    // Every state reached, in breadth-first order, with its parent's index
    // and the label of the edge that reached it: the queue is the tail.
    let mut seen = HashSet::from([initial.clone()]);
    let mut states = vec![(initial, 0, String::new())];
    let (mut cur, mut transitions, mut violation) = (0, 0, None);
    while cur < states.len() && (max_states == 0 || states.len() < max_states) {
        for (label, next, reason) in step(&states[cur].0) {
            transitions += 1;
            if let Some(reason) = reason {
                let mut trace = vec![label];
                let mut at = cur;
                while at != 0 {
                    trace.push(states[at].2.clone());
                    at = states[at].1;
                }
                trace.reverse();
                violation = Some(Violation { reason, trace });
                break;
            }
            if seen.insert(next.clone()) {
                states.push((next, cur, label));
            }
        }
        if violation.is_some() {
            break;
        }
        cur += 1;
    }
    let states_explored = states.len();
    CheckResult {
        states_explored,
        transitions,
        violation,
    }
}

/// `st` changed by `edit`: one successor.
fn with<S: Clone>(st: &S, edit: impl FnOnce(&mut S)) -> S {
    let mut next = st.clone();
    edit(&mut next);
    next
}

/// Every recovery that `responders` (each an id and the header it serves)
/// allow: each recovery-quorum subset of them, every one exactly once, with
/// the source `ncl::file::plan` picks among it. Fewer responders than the
/// quorum allow none (recovery reports `QuorumUnavailable`).
pub fn recoveries<T: Copy>(
    durability: Durability,
    f: usize,
    responders: &[(T, RegionHeader)],
) -> impl Iterator<Item = (Vec<(T, RegionHeader)>, Source)> + '_ {
    let (n, quorum) = (responders.len(), scheme::recovery_quorum(durability, f));
    let subsets = (0u32..1 << n).filter(move |m| m.count_ones() as usize == quorum);
    subsets.map(move |m| {
        let picked = (0..n).filter(|i| m >> i & 1 == 1);
        let subset: Vec<_> = picked.map(|i| responders[i]).collect();
        let headers: Vec<RegionHeader> = subset.iter().map(|&(_, h)| h).collect();
        let source = plan::source(durability, f, n, &headers).expect("a quorum");
        (subset, source)
    })
}

/// A region header at `seq` and generation `gen`, as a model writes it:
/// one byte per record, appended.
fn header(seq: u8, gen: u8) -> RegionHeader {
    let mut header = RegionHeader::default();
    (header.seq, header.len, header.gen) = (seq.into(), seq.into(), gen.into());
    header
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recoveries_take_every_quorum_once_with_the_planners_source() {
        let responders = [(7u8, header(2, 0)), (8, header(5, 0)), (9, header(3, 0))];
        let seen: Vec<_> = recoveries(Durability::Replicated, 1, &responders)
            .map(|(quorum, source)| (quorum.iter().map(|(p, _)| *p).collect::<Vec<_>>(), source))
            .collect();
        assert_eq!(
            seen,
            [
                (vec![7, 8], Source::Image(1)),
                (vec![7, 9], Source::Image(1)),
                (vec![8, 9], Source::Image(0)),
            ]
        );
        assert_eq!(
            recoveries(Durability::Replicated, 1, &responders[..1]).count(),
            0
        );
        let ec = Durability::Ec { k: 2, n: 4 };
        let four = [
            (0u8, header(0, 1)),
            (1, header(0, 2)),
            (2, header(0, 2)),
            (3, header(0, 1)),
        ];
        assert_eq!(recoveries(ec, 0, &four).count(), 6, "every 2-subset of 4");
        assert!(recoveries(ec, 0, &four).all(|(q, s)| q.len() == 2 && s.snapshot().is_some()));
    }
}
