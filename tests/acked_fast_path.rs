//! Tier-1 pin of the acked fast path, through the full testbed: once a
//! record is durable, `wait_durable` (and `fsync` behind it) holds **zero**
//! mutexes — the barrier that acked the record published the watermark
//! atomics, and the caller observes them and returns.
//!
//! The deeper version of this test (the audit's non-vacuity check, the
//! record path's lock count, the recovered file) lives in
//! `crates/core/tests/ncl_protocol.rs`; this one exists so the property is
//! checked by the root-package suite the CI tier-1 step runs.

use splitft::ncl::{lockaudit, NclLib};
use splitft::splitfs::{Testbed, TestbedConfig};

#[test]
fn acked_fast_path_is_lock_free_on_the_testbed() {
    let tb = Testbed::start(TestbedConfig::zero(3));
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

    // record() blocks until the write is durable, so by the time it returns
    // its barrier has published a watermark covering it.
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
