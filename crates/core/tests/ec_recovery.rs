//! Erasure-coded durability property: for random write/crash schedules,
//! recovery from **every** `k`-subset of the surviving fragment holders
//! yields an acked prefix byte-identical to what replicated mode recovers
//! (both equal the local mirror of every acknowledged write).
//!
//! The schedule mixes pipelined appends and overwrites (`record_nowait`),
//! durability barriers, and a mid-run peer crash (which forces an EC
//! replacement: a reset header plus a synchronous snapshot demotion). A
//! tiny spill watermark forces frequent generation flips, so recovered
//! prefixes routinely span a snapshot plus both fragment halves.

use std::sync::Arc;

use ncl::{Controller, Durability, MemSpillSink, NclConfig, NclLib, NclRegistry, Peer};
use proptest::prelude::*;
use sim::{Cluster, LatencyModel};
use telemetry::Telemetry;

const CAPACITY: usize = 8192;

#[derive(Debug, Clone)]
enum Op {
    /// Stage `len` bytes of the next fill pattern at the current end.
    Write { len: usize },
    /// Stage an overwrite of `len` bytes somewhere inside the existing data.
    Overwrite { len: usize, pos_seed: u64 },
    /// Durability barrier over everything staged so far.
    Fsync,
    /// Crash one peer (skipped if a peer is already down).
    CrashPeer { idx_seed: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (1usize..48).prop_map(|len| Op::Write { len }),
        2 => ((1usize..16), any::<u64>()).prop_map(|(len, pos_seed)| Op::Overwrite { len, pos_seed }),
        1 => Just(Op::Fsync),
        1 => (0usize..8).prop_map(|idx_seed| Op::CrashPeer { idx_seed }),
    ]
}

/// All `k`-element subsets of `0..n`.
fn k_subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    fn rec(start: usize, n: usize, k: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for i in start..n {
            cur.push(i);
            rec(i + 1, n, k, cur, out);
            cur.pop();
        }
    }
    rec(0, n, k, &mut cur, &mut out);
    out
}

/// Plays `ops` against a fresh cluster of `pool` peers under `config`,
/// fsyncs, crashes the application, kills the ap-map peers at positions
/// `kill` (into the final ap-map order), and recovers on a fresh node.
/// Returns `(mirror, recovered)` — the acked model and what came back.
fn run_schedule(config: &NclConfig, pool: usize, ops: &[Op], kill: &[usize]) -> (Vec<u8>, Vec<u8>) {
    let cluster = Cluster::new();
    let controller = Controller::start(&cluster, Telemetry::disabled());
    let registry = NclRegistry::new();
    let peers: Vec<Peer> = (0..pool)
        .map(|i| {
            Peer::start(
                &cluster,
                &format!("p{i}"),
                8 << 20,
                config,
                &controller,
                &registry,
            )
        })
        .collect();
    let node = cluster.add_node("app-0".to_string());
    let lib = NclLib::new(
        &cluster,
        node,
        "ecapp",
        config.clone(),
        &controller,
        &registry,
    )
    .expect("instance lock free");
    let file = lib.create("wal", CAPACITY).unwrap();

    let mut mirror: Vec<u8> = Vec::new();
    let mut fill: u8 = 0;
    for op in ops {
        match op {
            Op::Write { len } => {
                if mirror.len() + len > CAPACITY {
                    continue;
                }
                fill = fill.wrapping_add(1);
                let data = vec![fill; *len];
                file.record_nowait(mirror.len() as u64, &data).unwrap();
                mirror.extend_from_slice(&data);
            }
            Op::Overwrite { len, pos_seed } => {
                if mirror.is_empty() {
                    continue;
                }
                let pos = (*pos_seed as usize) % mirror.len();
                let len = (*len).min(CAPACITY - pos);
                fill = fill.wrapping_add(1);
                let data = vec![fill; len];
                file.record_nowait(pos as u64, &data).unwrap();
                if pos + len > mirror.len() {
                    mirror.resize(pos + len, 0);
                }
                mirror[pos..pos + len].copy_from_slice(&data);
            }
            Op::Fsync => file.fsync().unwrap(),
            Op::CrashPeer { idx_seed } => {
                if peers.iter().any(|p| !cluster.is_alive(p.node())) {
                    continue; // One peer down at a time.
                }
                cluster.crash(peers[idx_seed % peers.len()].node());
            }
        }
    }
    // Heal the pool (a dead ap peer was already replaced by the barrier
    // below if not earlier), then acknowledge everything staged.
    for p in &peers {
        if !cluster.is_alive(p.node()) {
            cluster.restart(p.node());
        }
    }
    file.fsync().unwrap();

    // Crash the application, then the chosen fragment holders.
    drop(file);
    drop(lib);
    cluster.crash(node);
    let entry = controller
        .client(LatencyModel::ZERO)
        .call(controller.node(), |c, _| c.get_ap_entry("ecapp", "wal"))
        .unwrap()
        .expect("ap entry exists");
    for &pos in kill {
        // Names are `p<i>`; index the pool directly.
        let name = &entry.peers[pos];
        let idx: usize = name.trim_start_matches('p').parse().expect("peer name");
        if cluster.is_alive(peers[idx].node()) {
            cluster.crash(peers[idx].node());
        }
    }

    let node2 = cluster.add_node("app-1".to_string());
    let lib2 = NclLib::new(
        &cluster,
        node2,
        "ecapp",
        config.clone(),
        &controller,
        &registry,
    )
    .expect("instance lock free");
    let recovered = lib2.recover("wal").unwrap();
    (mirror, recovered.contents())
}

fn ec_config(k: usize, n: usize) -> NclConfig {
    let mut config = NclConfig::zero();
    config.durability = Durability::Ec { k, n };
    config.spill = Some(Arc::new(MemSpillSink::new()));
    // Tiny watermark: bursts overflow into spill demotions constantly, so
    // recovery exercises snapshot + both generation halves.
    config.spill_watermark = 256;
    config
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        max_shrink_iters: 40,
    })]

    /// ec-2of3: every 2-subset of the fragment holders recovers the same
    /// bytes as replicated mode under the same schedule.
    #[test]
    fn every_k_subset_recovers_the_replicated_prefix(
        ops in prop::collection::vec(op_strategy(), 1..28)
    ) {
        let (k, n) = (2usize, 3usize);
        let ec = ec_config(k, n);
        let mut expected: Option<Vec<u8>> = None;
        for survivors in k_subsets(n, k) {
            let kill: Vec<usize> = (0..n).filter(|i| !survivors.contains(i)).collect();
            let (mirror, recovered) = run_schedule(&ec, 6, &ops, &kill);
            prop_assert_eq!(
                &recovered, &mirror,
                "EC recovery from survivors {:?} diverged from the acked mirror", survivors
            );
            expected = Some(mirror);
        }
        // The replicated twin of the same schedule recovers byte-identical
        // contents.
        let (mirror, recovered) = run_schedule(&NclConfig::zero(), 6, &ops, &[]);
        prop_assert_eq!(&recovered, &mirror);
        prop_assert_eq!(Some(mirror), expected, "EC and replicated prefixes diverged");
    }
}

/// ec-4of6 with a fixed burst-heavy schedule: every 4-subset of the six
/// fragment holders reconstructs the acked prefix.
#[test]
fn four_of_six_recovers_from_every_survivor_subset() {
    let (k, n) = (4usize, 6usize);
    let ec = ec_config(k, n);
    let mut ops = Vec::new();
    for round in 0..12usize {
        ops.push(Op::Write { len: 40 + round });
        ops.push(Op::Write { len: 17 });
        if round % 3 == 0 {
            ops.push(Op::Overwrite {
                len: 9,
                pos_seed: (round as u64) * 131,
            });
        }
        if round % 4 == 0 {
            ops.push(Op::Fsync);
        }
    }
    for survivors in k_subsets(n, k) {
        let kill: Vec<usize> = (0..n).filter(|i| !survivors.contains(i)).collect();
        let (mirror, recovered) = run_schedule(&ec, 9, &ops, &kill);
        assert_eq!(
            recovered, mirror,
            "survivors {survivors:?} failed to reconstruct the acked prefix"
        );
    }
}
