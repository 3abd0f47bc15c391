//! Property-based tests of the NCL durability guarantee.
//!
//! For arbitrary interleavings of writes, single-peer crashes/restarts, and
//! application crash–recover cycles (staying within the `f = 1` failure
//! budget at any instant), every acknowledged byte must be recovered in
//! order.

use std::sync::Arc;

use ncl::{Controller, NclConfig, NclFile, NclLib, NclRegistry, Peer};
use proptest::prelude::*;
use sim::Cluster;

#[derive(Debug, Clone)]
enum Op {
    /// Append `len` bytes of the next fill pattern.
    Write { len: usize },
    /// Overwrite `len` bytes somewhere inside the existing data.
    Overwrite { len: usize, pos_seed: u64 },
    /// Crash one peer (skipped if another peer is already down).
    CrashPeer { idx_seed: usize },
    /// Restart every crashed peer.
    RestartPeers,
    /// Crash the application and recover on a fresh node.
    AppRestart,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (1usize..48).prop_map(|len| Op::Write { len }),
        2 => ((1usize..16), any::<u64>()).prop_map(|(len, pos_seed)| Op::Overwrite { len, pos_seed }),
        1 => (0usize..6).prop_map(|idx_seed| Op::CrashPeer { idx_seed }),
        1 => Just(Op::RestartPeers),
        1 => Just(Op::AppRestart),
    ]
}

struct World {
    cluster: Cluster,
    controller: Controller,
    registry: Arc<NclRegistry>,
    peers: Vec<Peer>,
    config: NclConfig,
    app_counter: usize,
}

impl World {
    fn new() -> Self {
        Self::with_config(NclConfig::zero())
    }

    fn with_config(config: NclConfig) -> Self {
        let cluster = Cluster::new();
        let controller = Controller::start(&cluster);
        let registry = NclRegistry::new();
        let peers = (0..6)
            .map(|i| {
                Peer::start(
                    &cluster,
                    &format!("p{i}"),
                    8 << 20,
                    &config,
                    &controller,
                    &registry,
                )
            })
            .collect();
        World {
            cluster,
            controller,
            registry,
            peers,
            config,
            app_counter: 0,
        }
    }

    fn fresh_app(&mut self) -> NclLib {
        self.app_counter += 1;
        let node = self.cluster.add_node(format!("app-{}", self.app_counter));
        NclLib::new(
            &self.cluster,
            node,
            "propapp",
            self.config.clone(),
            &self.controller,
            &self.registry,
        )
        .expect("instance lock free")
    }

    fn crashed_peer_count(&self) -> usize {
        self.peers
            .iter()
            .filter(|p| !self.cluster.is_alive(p.node()))
            .count()
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 20,
        max_shrink_iters: 200,
    })]

    #[test]
    fn acked_writes_survive_arbitrary_schedules(ops in prop::collection::vec(op_strategy(), 1..24)) {
        let mut world = World::new();
        let capacity = 8192usize;
        let mut lib = world.fresh_app();
        let mut file: Arc<NclFile> = lib.create("wal", capacity).unwrap();
        // Model of the acknowledged image.
        let mut expected: Vec<u8> = Vec::new();
        let mut fill: u8 = 0;

        for op in ops {
            match op {
                Op::Write { len } => {
                    if expected.len() + len > capacity {
                        continue;
                    }
                    fill = fill.wrapping_add(1);
                    let data = vec![fill; len];
                    file.record(expected.len() as u64, &data).unwrap();
                    expected.extend_from_slice(&data);
                }
                Op::Overwrite { len, pos_seed } => {
                    if expected.is_empty() {
                        continue;
                    }
                    let pos = (pos_seed as usize) % expected.len();
                    let len = len.min(capacity - pos);
                    fill = fill.wrapping_add(1);
                    let data = vec![fill; len];
                    file.record(pos as u64, &data).unwrap();
                    if pos + len > expected.len() {
                        expected.resize(pos + len, 0);
                    }
                    expected[pos..pos + len].copy_from_slice(&data);
                }
                Op::CrashPeer { idx_seed } => {
                    if world.crashed_peer_count() >= 1 {
                        continue; // Stay within the f = 1 budget.
                    }
                    let idx = idx_seed % world.peers.len();
                    world.cluster.crash(world.peers[idx].node());
                }
                Op::RestartPeers => {
                    for p in &world.peers {
                        if !world.cluster.is_alive(p.node()) {
                            world.cluster.restart(p.node());
                        }
                    }
                }
                Op::AppRestart => {
                    let node = lib.node();
                    drop(file);
                    drop(lib);
                    world.cluster.crash(node);
                    lib = world.fresh_app();
                    file = lib.recover("wal").unwrap();
                    prop_assert_eq!(file.contents(), expected.clone(), "post-restart image");
                }
            }
        }

        // Final crash-recover: the full acknowledged image must survive.
        let node = lib.node();
        drop(file);
        drop(lib);
        world.cluster.crash(node);
        let lib2 = world.fresh_app();
        let file = lib2.recover("wal").unwrap();
        prop_assert_eq!(file.contents(), expected);
    }
}

/// Operations for the batched-submission property: appends
/// staged through `record_nowait`, with burst boundaries (`submit`),
/// durability barriers (`wait_durable` / `fsync`), and app crash–recover
/// cycles at proptest-chosen points.
#[derive(Debug, Clone)]
enum BurstOp {
    /// Stage `len` bytes of the next fill pattern via `record_nowait`.
    Append { len: usize },
    /// Ring the doorbell: flush the staged burst without waiting.
    Submit,
    /// Drain via `wait_durable` on the latest staged record.
    WaitDurable,
    /// Full durability barrier (`fsync`).
    Fsync,
    /// Crash the application and recover on a fresh node.
    AppRestart,
}

fn burst_op_strategy() -> impl Strategy<Value = BurstOp> {
    prop_oneof![
        6 => (1usize..32).prop_map(|len| BurstOp::Append { len }),
        2 => Just(BurstOp::Submit),
        1 => Just(BurstOp::WaitDurable),
        1 => Just(BurstOp::Fsync),
        1 => Just(BurstOp::AppRestart),
    ]
}

fn burst_world(capacity: usize) -> (World, NclLib, Arc<NclFile>) {
    let mut config = NclConfig::zero();
    // Posted requests apply at post time, so the wire state at every crash
    // point is deterministic. The window exceeds the op count, so burst
    // boundaries come only from the ops.
    config.pipeline_window = 64;
    let mut world = World::with_config(config);
    let lib = world.fresh_app();
    let file = lib.create("wal", capacity).unwrap();
    (world, lib, file)
}

fn burst_restart(world: &mut World, lib: NclLib, file: Arc<NclFile>) -> (NclLib, Arc<NclFile>) {
    let node = lib.node();
    drop(file);
    drop(lib);
    world.cluster.crash(node);
    let lib = world.fresh_app();
    let file = lib.recover("wal").unwrap();
    (lib, file)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 20,
        max_shrink_iters: 200,
    })]

    /// Under every interleaving of `record_nowait`, `submit`,
    /// `wait_durable`, `fsync`, and app restarts, recovery returns exactly
    /// the flushed prefix: batching changes how many header writes a burst
    /// posts, never which bytes survive a barrier.
    #[test]
    fn batched_bursts_recover_the_flushed_prefix(
        ops in prop::collection::vec(burst_op_strategy(), 1..40)
    ) {
        let capacity = 8192usize;
        let (mut world, mut lib, mut file) = burst_world(capacity);
        // Model: all bytes staged, and the prefix flushed to the wire (a
        // post applies its requests, so flushed == on the peers;
        // staged-but-unflushed records die with the app).
        let mut appended: Vec<u8> = Vec::new();
        let mut flushed_len = 0usize;
        let mut fill: u8 = 0;

        for op in ops {
            match op {
                BurstOp::Append { len } => {
                    if appended.len() + len > capacity {
                        continue;
                    }
                    fill = fill.wrapping_add(1);
                    let data = vec![fill; len];
                    file.record_nowait(appended.len() as u64, &data).unwrap();
                    appended.extend_from_slice(&data);
                }
                BurstOp::Submit => {
                    file.submit();
                    flushed_len = appended.len();
                }
                BurstOp::WaitDurable => {
                    file.wait_durable(file.seq()).unwrap();
                    flushed_len = appended.len();
                }
                BurstOp::Fsync => {
                    file.fsync().unwrap();
                    flushed_len = appended.len();
                }
                BurstOp::AppRestart => {
                    (lib, file) = burst_restart(&mut world, lib, file);
                    prop_assert_eq!(file.contents(), appended[..flushed_len].to_vec());
                    appended.truncate(flushed_len);
                }
            }
        }

        let (_, file) = burst_restart(&mut world, lib, file);
        prop_assert_eq!(file.contents(), appended[..flushed_len].to_vec());
    }
}
