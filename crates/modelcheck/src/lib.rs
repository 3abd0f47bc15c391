//! Explicit-state model checker for NCL's replication and recovery
//! protocols (§4.6 of the SplitFT paper).
//!
//! The paper reports model-checking the protocol over millions of states,
//! injecting peer and application failures at every point and asserting the
//! durability condition; it also describes three seeded bugs the checker
//! catches. This crate reproduces that methodology:
//!
//! * [`check`] exhaustively explores an abstract model of the protocol —
//!   writes replicated as ordered (data, sequence-number) message pairs to
//!   `2f + 1` peers, majority acknowledgement, peer crash/restart,
//!   application crash, quorum recovery with catch-up, and two-step peer
//!   replacement — from budgets on writes and failures.
//! * [`BugMode`] re-introduces the paper's seeded bugs: writing the
//!   sequence number before the data, updating the ap-map before catching
//!   up a replacement peer, and skipping the lagging-peer catch-up during
//!   recovery. [`check`] must (and does) return a counterexample trace for
//!   each.
//! * [`ModelConfig::coalesce`] switches the model to the batched submission
//!   path (one header message per flushed burst, stamped with the
//!   burst-final sequence number) and explores every burst partition; the
//!   acked prefix must survive crashes mid-burst, and every seeded bug must
//!   still be caught.
//!
//! The invariant asserted at every recovery:
//!
//! 1. the recovered sequence number covers every acknowledged write;
//! 2. it also covers everything externalized by earlier recoveries;
//! 3. the recovery peer actually holds the data for every sequence number
//!    it advertises (no sequence-number-without-data).

//!
//! [`check_ec`] applies the same methodology to the erasure-coded
//! durability path (PR 7): bursts striped as `k`-of-`n` fragments, all-`n`
//! header acknowledgement, the spill tier's snapshot/generation-switch
//! protocol, and a recovery rule that must reconstruct the acked prefix
//! from **every** `k`-subset of the surviving fragment holders. Its seeded
//! bugs ([`EcBugMode`]) are acking at `k` completions and flipping the
//! fragment generation before the spill snapshot is durable.
//!
//! [`check_revoke`] covers the multi-tenant memory plane (PR 9): a peer
//! daemon under memory pressure may unilaterally revoke a lent region, and
//! the owning application must replace the peer — catch-up before the
//! ap-map update — while the adversary keeps at most `f` peers down
//! (crashed or revoked-and-unreplaced). Its seeded bugs
//! ([`RevokeBugMode`]) are a stale daemon that keeps advertising a revoked
//! region's sequence number during recovery, and publishing the
//! replacement into the ap-map before catching it up.

pub mod ec;
pub mod model;
pub mod revoke;

pub use ec::{check_ec, EcBugMode, EcModelConfig};
pub use model::{check, BugMode, CheckResult, ModelConfig};
pub use revoke::{check_revoke, RevokeBugMode, RevokeModelConfig};

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

use model::Violation;

/// One edge out of a state: its event label, the state it reaches, and —
/// when taking it breaks the invariant — why.
type Edge<S> = (String, S, Option<String>);

/// The one explorer behind [`check`], [`check_ec`] and [`check_revoke`]:
/// breadth-first from `initial`, asking `step` for each state's edges in
/// order, until an edge violates (reported with its shortest trace), the
/// frontier empties, or `max_states` distinct states exist (0 = no cap).
fn explore<S: Clone + Eq + Hash>(
    initial: S,
    max_states: usize,
    mut step: impl FnMut(&S) -> Vec<Edge<S>>,
) -> CheckResult {
    let mut index: HashMap<S, usize> = HashMap::new();
    let mut parents: Vec<(usize, String)> = Vec::new();
    let mut states: Vec<S> = Vec::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    index.insert(initial.clone(), 0);
    states.push(initial);
    parents.push((usize::MAX, String::new()));
    queue.push_back(0);
    let mut transitions = 0usize;

    while let Some(cur) = queue.pop_front() {
        if max_states > 0 && states.len() >= max_states {
            break;
        }
        for (label, next, violation) in step(&states[cur]) {
            transitions += 1;
            if let Some(reason) = violation {
                let mut trace = vec![label];
                let mut at = cur;
                while at != 0 {
                    let (parent, l) = &parents[at];
                    trace.push(l.clone());
                    at = *parent;
                }
                trace.reverse();
                return CheckResult {
                    states_explored: states.len(),
                    transitions,
                    violation: Some(Violation { reason, trace }),
                };
            }
            if !index.contains_key(&next) {
                let id = states.len();
                index.insert(next.clone(), id);
                states.push(next);
                parents.push((cur, label));
                queue.push_back(id);
            }
        }
    }

    CheckResult {
        states_explored: states.len(),
        transitions,
        violation: None,
    }
}

/// The edges of a state in the models whose invariant is a terminal
/// recovery check ([`check_ec`], [`check_revoke`]): the application can
/// crash at any reachable state, so a failing check (`lost`) is the state's
/// only edge; otherwise the model's own successors, none of which violates.
fn recovery_checked<S: Clone>(
    st: &S,
    lost: Option<String>,
    successors: impl FnOnce() -> Vec<(String, S)>,
) -> Vec<Edge<S>> {
    match lost {
        Some(reason) => vec![(
            "crash_app_and_recover".to_string(),
            st.clone(),
            Some(reason),
        )],
        None => successors()
            .into_iter()
            .map(|(label, next)| (label, next, None))
            .collect(),
    }
}

/// Every `k`-subset of `0..n`, as ascending index lists in lexicographic
/// order (the order the recovery checks report their first failing subset
/// in).
fn k_subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
    fn rec(n: usize, k: usize, start: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for i in start..n {
            cur.push(i);
            rec(n, k, i + 1, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    rec(n, k, 0, &mut Vec::new(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_subsets_are_lexicographic_and_complete() {
        assert_eq!(
            k_subsets(4, 2),
            [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
        );
        assert_eq!(k_subsets(3, 3), [[0, 1, 2]]);
        assert!(k_subsets(2, 3).is_empty());
    }
}
