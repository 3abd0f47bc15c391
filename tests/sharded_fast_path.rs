//! Tier-1 pin of the sharded runtime's headline guarantee, through the full
//! testbed: with NCL files hosted on shard reactors, `wait_durable` (and
//! `fsync` behind it) on an already-acked record holds **zero** mutexes —
//! the caller observes the published watermark atomics and returns.
//!
//! The deeper version of this test (the unhosted contrast case, the record
//! path's lock count, hosted recovery) lives in `crates/core/tests/shard_runtime.rs`;
//! this one exists so the property is checked by the root-package suite the
//! CI tier-1 step runs.

use splitft::ncl::{lockaudit, NclLib};
use splitft::splitfs::{Testbed, TestbedConfig};

#[test]
fn acked_fast_path_is_lock_free_on_the_sharded_testbed() {
    let mut cfg = TestbedConfig::zero(3);
    cfg.shards = 2;
    let tb = Testbed::start(cfg);
    let node = tb.add_app_node("audit-app");
    let lib = NclLib::new(
        &tb.cluster,
        node,
        "audit-app",
        tb.config().ncl.clone(),
        &tb.controller,
        &tb.registry,
    )
    .unwrap();

    // The testbed-started runtime hosts the file at create; record() blocks
    // until the write is durable, so by the time it returns the reactor has
    // published a watermark covering it.
    let file = lib.create("wal", 1 << 20).unwrap();
    file.record(0, b"audited payload").unwrap();
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
