//! Property-based tests of the multi-tenant peer memory plane.
//!
//! For arbitrary interleavings of region allocation (new files and new
//! writes), GC sweeps, voluntary revocation under memory pressure, and
//! application crash–recover (replace/catch-up) cycles over a bounded peer
//! budget, two properties must hold at every step:
//!
//! * the allocator never double-assigns or double-releases: every peer's
//!   used-byte counter equals the sum of its tenant ledger, the region
//!   ledger equals the live + staged region maps, and usage never exceeds
//!   the budget;
//! * no reclaim loses acknowledged bytes: after any schedule, recovering
//!   every tenant yields each file's full acked prefix.

use std::sync::Arc;

use ncl::{Controller, NclConfig, NclFile, NclLib, NclRegistry, Peer};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sim::Cluster;
use telemetry::Telemetry;

const CAPACITY: usize = 4096;
const MAX_FILES: usize = 3;
const TENANTS: usize = 2;

#[derive(Debug, Clone)]
enum Op {
    /// Append `len` bytes to one of a tenant's files.
    Write {
        tenant: usize,
        file_seed: usize,
        len: usize,
    },
    /// Allocate: the tenant opens one more file (capped at [`MAX_FILES`]).
    NewFile { tenant: usize },
    /// A peer sheds half of what it holds, coldest regions first.
    Revoke { peer_seed: usize },
    /// Run one epoch + lease GC sweep on a peer.
    GcSweep { peer_seed: usize },
    /// Crash the tenant's node and recover on a fresh one — every replaced
    /// region goes through catch-up before the ap-map update.
    CrashRecover { tenant: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => ((0usize..TENANTS), (0usize..MAX_FILES), (1usize..32))
            .prop_map(|(tenant, file_seed, len)| Op::Write { tenant, file_seed, len }),
        2 => (0usize..TENANTS).prop_map(|tenant| Op::NewFile { tenant }),
        2 => (0usize..8).prop_map(|peer_seed| Op::Revoke { peer_seed }),
        2 => (0usize..8).prop_map(|peer_seed| Op::GcSweep { peer_seed }),
        1 => (0usize..TENANTS).prop_map(|tenant| Op::CrashRecover { tenant }),
    ]
}

struct Tenant {
    app_id: String,
    lib: NclLib,
    /// (file name, open handle, acked bytes).
    files: Vec<(String, Arc<NclFile>, Vec<u8>)>,
    fill: u8,
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
        let config = NclConfig::zero();
        let cluster = Cluster::new();
        let controller = Controller::start(&cluster, Telemetry::disabled());
        let registry = NclRegistry::new();
        // A bounded budget: enough for every tenant's files plus staging,
        // small enough that accounting drift would hit the ceiling fast.
        let peers = (0..4)
            .map(|i| {
                Peer::start(
                    &cluster,
                    &format!("p{i}"),
                    64 << 10,
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

    fn fresh_lib(&mut self, app_id: &str) -> NclLib {
        self.app_counter += 1;
        let node = self
            .cluster
            .add_node(format!("{app_id}-n{}", self.app_counter));
        NclLib::new(
            &self.cluster,
            node,
            app_id,
            self.config.clone(),
            &self.controller,
            &self.registry,
        )
        .expect("instance lock free")
    }

    fn fresh_tenant(&mut self, idx: usize) -> Tenant {
        let app_id = format!("prop-tenant-{idx}");
        let lib = self.fresh_lib(&app_id);
        let file = lib.create("wal-0", CAPACITY).expect("initial file");
        Tenant {
            app_id,
            lib,
            files: vec![("wal-0".to_string(), file, Vec::new())],
            fill: 0,
        }
    }

    /// The ledger invariants that catch a double-assign or double-release
    /// the moment it happens.
    fn check_accounting(&self) -> Result<(), TestCaseError> {
        for p in &self.peers {
            let ledger = p.tenants();
            let bytes: u64 = ledger.iter().map(|(_, u)| u.bytes).sum();
            let regions: u64 = ledger.iter().map(|(_, u)| u.regions).sum();
            prop_assert_eq!(
                p.mem_used(),
                bytes,
                "peer {}: used bytes diverge from the tenant ledger",
                p.name()
            );
            prop_assert!(
                p.mem_used() <= p.mem_total(),
                "peer {}: used {} exceeds budget {}",
                p.name(),
                p.mem_used(),
                p.mem_total()
            );
            prop_assert_eq!(
                (p.region_count() + p.staged_count()) as u64,
                regions,
                "peer {}: region maps diverge from the tenant ledger",
                p.name()
            );
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        max_shrink_iters: 100,
    })]

    #[test]
    fn alloc_gc_revoke_replace_interleavings_keep_ledgers_and_acked_bytes(
        ops in prop::collection::vec(op_strategy(), 1..28)
    ) {
        let mut world = World::new();
        let mut tenants: Vec<Tenant> = (0..TENANTS).map(|i| world.fresh_tenant(i)).collect();

        for op in ops {
            match op {
                Op::Write { tenant, file_seed, len } => {
                    let t = &mut tenants[tenant];
                    let slot = file_seed % t.files.len();
                    let (_, file, acked) = &mut t.files[slot];
                    if acked.len() + len > CAPACITY {
                        continue;
                    }
                    t.fill = t.fill.wrapping_add(1);
                    let data = vec![t.fill; len];
                    // A refused write (e.g. every candidate peer exhausted
                    // mid-revocation) is simply not acknowledged.
                    if file.record(acked.len() as u64, &data).is_ok() {
                        acked.extend_from_slice(&data);
                    }
                }
                Op::NewFile { tenant } => {
                    let t = &mut tenants[tenant];
                    if t.files.len() >= MAX_FILES {
                        continue;
                    }
                    let name = format!("wal-{}", t.files.len());
                    if let Ok(file) = t.lib.create(&name, CAPACITY) {
                        t.files.push((name, file, Vec::new()));
                    }
                }
                Op::Revoke { peer_seed } => {
                    let peer = &world.peers[peer_seed % world.peers.len()];
                    let used = peer.mem_used();
                    if used == 0 {
                        continue;
                    }
                    peer.revoke_for_pressure(used / 2);
                    // The durability contract allows at most `f` lost
                    // regions per file at any instant; the controller's
                    // revocation notice makes apps replace promptly. Model
                    // that repair: every tenant touches its files, so a
                    // write to a revoked region fails over to a fresh peer
                    // (catch-up then ap-map update) before the next fault.
                    for t in &mut tenants {
                        for (_, file, acked) in &mut t.files {
                            if acked.len() + 1 > CAPACITY {
                                continue;
                            }
                            t.fill = t.fill.wrapping_add(1);
                            if file.record(acked.len() as u64, &[t.fill]).is_ok() {
                                acked.push(t.fill);
                            }
                        }
                    }
                }
                Op::GcSweep { peer_seed } => {
                    let peer = &world.peers[peer_seed % world.peers.len()];
                    peer.gc_sweep();
                }
                Op::CrashRecover { tenant } => {
                    let t = &mut tenants[tenant];
                    let node = t.lib.node();
                    let spec: Vec<(String, Vec<u8>)> = t
                        .files
                        .drain(..)
                        .map(|(name, file, acked)| {
                            drop(file);
                            (name, acked)
                        })
                        .collect();
                    let app_id = t.app_id.clone();
                    // Crash first: the controller hands the instance lock
                    // to the fresh node because the old holder is dead.
                    world.cluster.crash(node);
                    t.lib = world.fresh_lib(&app_id);
                    for (name, acked) in spec {
                        let file = t.lib.recover(&name).expect("recovery");
                        let image = file.contents();
                        prop_assert!(
                            image.len() >= acked.len()
                                && image[..acked.len()] == acked[..],
                            "{app_id}/{name}: acked prefix lost across crash-recover"
                        );
                        t.files.push((name, file, acked));
                    }
                }
            }
            world.check_accounting()?;
        }

        // Final crash–recover of every tenant: no interleaving of
        // allocation, GC, revocation and replacement may have reclaimed a
        // byte the application was told is durable.
        for t in &mut tenants {
            let node = t.lib.node();
            let spec: Vec<(String, Vec<u8>)> = t
                .files
                .drain(..)
                .map(|(name, file, acked)| {
                    drop(file);
                    (name, acked)
                })
                .collect();
            world.cluster.crash(node);
            let app_id = t.app_id.clone();
            let lib = world.fresh_lib(&app_id);
            for (name, acked) in spec {
                let file = lib.recover(&name).expect("final recovery");
                let image = file.contents();
                prop_assert!(
                    image.len() >= acked.len() && image[..acked.len()] == acked[..],
                    "{app_id}/{name}: acked prefix lost at final recovery"
                );
            }
            t.lib = lib;
        }
        world.check_accounting()?;
    }
}
