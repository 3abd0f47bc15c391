//! End-to-end tests of MiniKvell, the §6 no-log store with the NCL
//! write-absorption tier.

use apps::minikvell::{KvellOptions, MiniKvell};
use splitfs::{Mode, Testbed, TestbedConfig};

fn setup() -> (Testbed, splitfs::SplitFs, sim::NodeId) {
    let tb = Testbed::start(TestbedConfig::zero(4));
    let (fs, node) = tb.mount(Mode::SplitFt, "kvell");
    (tb, fs, node)
}

#[test]
fn put_get_remove_roundtrip() {
    let (_tb, fs, _) = setup();
    let db = MiniKvell::open(fs, "kv/", KvellOptions::tiny()).unwrap();
    db.put(b"alpha", b"1").unwrap();
    db.put(b"beta", b"2").unwrap();
    assert_eq!(db.get(b"alpha").unwrap(), Some(b"1".to_vec()));
    db.put(b"alpha", b"updated").unwrap();
    assert_eq!(db.get(b"alpha").unwrap(), Some(b"updated".to_vec()));
    assert!(db.remove(b"beta").unwrap());
    assert!(!db.remove(b"beta").unwrap());
    assert_eq!(db.get(b"beta").unwrap(), None);
}

#[test]
fn bulk_flush_triggers_and_preserves_data() {
    let (_tb, fs, _) = setup();
    let db = MiniKvell::open(fs, "kv/", KvellOptions::tiny()).unwrap();
    for i in 0..200u32 {
        db.put(format!("key{i:04}").as_bytes(), &[i as u8; 64])
            .unwrap();
    }
    assert!(
        db.flush_count() > 0,
        "staging must have overflowed into the slab"
    );
    for i in 0..200u32 {
        assert_eq!(
            db.get(format!("key{i:04}").as_bytes()).unwrap(),
            Some(vec![i as u8; 64])
        );
    }
}

#[test]
fn unflushed_staging_survives_crash() {
    let (tb, fs, node) = setup();
    {
        let db = MiniKvell::open(fs, "kv/", KvellOptions::tiny()).unwrap();
        for i in 0..20u32 {
            db.put(format!("key{i:04}").as_bytes(), b"durable-in-ncl")
                .unwrap();
        }
        assert!(
            db.staged_bytes() > 0,
            "writes should be absorbed, not flushed"
        );
    }
    tb.cluster.crash(node);
    let (fs2, _) = tb.mount(Mode::SplitFt, "kvell");
    let db = MiniKvell::open(fs2, "kv/", KvellOptions::tiny()).unwrap();
    for i in 0..20u32 {
        assert_eq!(
            db.get(format!("key{i:04}").as_bytes()).unwrap(),
            Some(b"durable-in-ncl".to_vec()),
            "key{i}"
        );
    }
}

#[test]
fn crash_after_flush_recovers_from_slab_scan() {
    let (tb, fs, node) = setup();
    {
        let db = MiniKvell::open(fs, "kv/", KvellOptions::tiny()).unwrap();
        for i in 0..100u32 {
            db.put(format!("key{i:04}").as_bytes(), &[7u8; 80]).unwrap();
        }
        db.flush().unwrap();
        // A few more records after the flush, staged only.
        db.put(b"tail-1", b"staged").unwrap();
        db.put(b"tail-2", b"staged").unwrap();
    }
    tb.cluster.crash(node);
    let (fs2, _) = tb.mount(Mode::SplitFt, "kvell");
    let db = MiniKvell::open(fs2, "kv/", KvellOptions::tiny()).unwrap();
    for i in 0..100u32 {
        assert_eq!(
            db.get(format!("key{i:04}").as_bytes()).unwrap(),
            Some(vec![7u8; 80])
        );
    }
    assert_eq!(db.get(b"tail-1").unwrap(), Some(b"staged".to_vec()));
    assert_eq!(db.get(b"tail-2").unwrap(), Some(b"staged".to_vec()));
}

#[test]
fn deletes_survive_crash() {
    let (tb, fs, node) = setup();
    {
        let db = MiniKvell::open(fs, "kv/", KvellOptions::tiny()).unwrap();
        db.put(b"keep", b"v").unwrap();
        db.put(b"drop", b"v").unwrap();
        db.flush().unwrap();
        assert!(db.remove(b"drop").unwrap()); // Staged tombstone.
    }
    tb.cluster.crash(node);
    let (fs2, _) = tb.mount(Mode::SplitFt, "kvell");
    let db = MiniKvell::open(fs2, "kv/", KvellOptions::tiny()).unwrap();
    assert_eq!(db.get(b"keep").unwrap(), Some(b"v".to_vec()));
    assert_eq!(db.get(b"drop").unwrap(), None);
}

#[test]
fn slot_reuse_after_delete() {
    let (_tb, fs, _) = setup();
    let mut opts = KvellOptions::tiny();
    opts.slots = 4; // Tiny slab: reuse is mandatory.
    let db = MiniKvell::open(fs, "kv/", opts).unwrap();
    for round in 0..5u8 {
        for i in 0..4u8 {
            db.put(format!("r{round}k{i}").as_bytes(), &[round; 16])
                .unwrap();
        }
        for i in 0..4u8 {
            assert!(db.remove(format!("r{round}k{i}").as_bytes()).unwrap());
        }
    }
    // Slab never overflowed because slots were recycled.
    db.put(b"final", b"fits").unwrap();
    assert_eq!(db.get(b"final").unwrap(), Some(b"fits".to_vec()));
}

#[test]
fn slab_full_is_reported() {
    let (_tb, fs, _) = setup();
    let mut opts = KvellOptions::tiny();
    opts.slots = 2;
    let db = MiniKvell::open(fs, "kv/", opts).unwrap();
    db.put(b"a", b"1").unwrap();
    db.put(b"b", b"2").unwrap();
    assert!(db.put(b"c", b"3").is_err());
    // Updates of existing keys still work.
    db.put(b"a", b"1-updated").unwrap();
}

#[test]
fn oversized_record_rejected() {
    let (_tb, fs, _) = setup();
    let db = MiniKvell::open(fs, "kv/", KvellOptions::tiny()).unwrap();
    let huge = vec![0u8; 10_000];
    assert!(db.put(b"big", &huge).is_err());
}
