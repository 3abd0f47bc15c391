//! Integration tests of the thread-per-core sharded runtime: the zero-lock
//! acked fast path, the record path's lock count, and the hosted lifecycle
//! (create / recover).

use std::sync::Arc;

use ncl::{lockaudit, Controller, NclConfig, NclFile, NclLib, NclRegistry, NclRuntime, Peer};
use sim::Cluster;

/// A minimal live deployment: controller, registry, and peers are held so
/// their services keep running for the duration of a test.
struct World {
    cluster: Cluster,
    controller: Controller,
    registry: Arc<NclRegistry>,
    _peers: Vec<Peer>,
}

impl World {
    fn new() -> Self {
        let cluster = Cluster::new();
        let controller = Controller::start(&cluster);
        let registry = NclRegistry::new();
        let config = NclConfig::zero();
        let peers = (0..3)
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
            _peers: peers,
        }
    }

    fn lib(&self, app_id: &str, node_name: &str, runtime: Option<Arc<NclRuntime>>) -> NclLib {
        let mut config = NclConfig::zero();
        config.runtime = runtime;
        self.lib_with(app_id, node_name, config)
    }

    fn lib_with(&self, app_id: &str, node_name: &str, config: NclConfig) -> NclLib {
        let node = self.cluster.add_node(node_name);
        NclLib::new(
            &self.cluster,
            node,
            app_id,
            config,
            &self.controller,
            &self.registry,
        )
        .expect("instance lock free")
    }
}

/// The headline guarantee of the sharded runtime, pinned in tier-1: once a
/// record is acked, `wait_durable` (and `fsync` behind it) observes the
/// published watermark and returns without acquiring a single mutex.
#[test]
fn acked_fast_path_holds_zero_locks() {
    let rt = NclRuntime::start(2);
    let world = World::new();
    let lib = world.lib("shardapp", "app", Some(rt));
    let file: Arc<NclFile> = lib.create("wal", 1 << 20).unwrap();
    file.record(0, b"hello sharded world").unwrap();
    let seq = file.seq();
    assert!(
        file.durable_seq() >= seq,
        "record() returns only once durable"
    );

    let (result, locks) = lockaudit::audited(|| file.wait_durable(seq));
    result.unwrap();
    assert_eq!(
        locks, 0,
        "wait_durable on an acked record must hold zero mutexes"
    );

    let (result, locks) = lockaudit::audited(|| file.fsync());
    result.unwrap();
    assert_eq!(locks, 0, "fsync with nothing staged must hold zero mutexes");
}

/// The classic (unhosted) path still takes locks — the audit itself must be
/// able to tell the difference, or the zero assertion above is vacuous.
#[test]
fn lock_audit_counts_locks_on_the_unhosted_path() {
    let world = World::new();
    let lib = world.lib("plainapp", "app", None);
    let file = lib.create("wal", 1 << 20).unwrap();
    file.record(0, b"data").unwrap();
    // record_nowait stages under the stage lock: a known lock-taking call.
    let (_, locks) = lockaudit::audited(|| file.record(32, b"more").unwrap());
    assert!(locks > 0, "the slow path must register lock acquisitions");
}

/// A count gate, not a timing: a flight that takes no modelled time lands
/// with its post, so a steady-state synchronous `record` on the zero profile
/// takes exactly the same locks every time — `stage` to stage the
/// record, `stage` then `rep` for the barrier's doorbell, `rep` for the one
/// drain that finds the quorum. A fifth acquisition is a lock hand-off
/// added to every acknowledged write.
#[test]
fn synchronous_record_takes_four_stage_or_rep_locks() {
    let world = World::new();
    let lib = world.lib_with("syncapp", "app", NclConfig::zero());
    let file = lib.create("wal", 1 << 20).unwrap();
    for i in 0..8u64 {
        file.record(i * 16, b"warm").unwrap();
    }
    for i in 8..16u64 {
        let (result, locks) = lockaudit::audited(|| file.record(i * 16, b"steady"));
        result.unwrap();
        assert_eq!(locks, 4, "record {i}: Stage/Rep acquisitions may not grow");
    }
}

/// A hosted file that dies with its application recovers, hosted again,
/// under the same runtime: the acked bytes come back and the recovered file
/// is on the reactor's fast path like its first life was.
#[test]
fn hosted_file_recovers_onto_the_same_runtime() {
    let rt = NclRuntime::start(4);
    let world = World::new();
    let lib = world.lib("recapp", "app-1", Some(Arc::clone(&rt)));
    let node = lib.node();
    let file = lib.create("wal", 1 << 20).unwrap();
    file.record(0, b"survives").unwrap();
    world.cluster.crash(node);
    drop(file);
    drop(lib);

    let lib2 = world.lib("recapp", "app-2", Some(Arc::clone(&rt)));
    let file2 = lib2.recover("wal").unwrap();
    assert_eq!(&file2.contents()[..8], b"survives");

    file2.record(8, b" twice").unwrap();
    let seq = file2.seq();
    let (result, locks) = lockaudit::audited(|| file2.wait_durable(seq));
    result.unwrap();
    assert_eq!(locks, 0, "a recovered file is hosted like a created one");
}
