//! End-to-end tests of the three ported applications over the full stack
//! (DFS + controller + peers), in all three paper configurations.
//!
//! The recurring pattern mirrors the paper's durability claims: after an
//! application-server crash, *strong* and *SplitFT* recover every
//! acknowledged operation, while *weak* may lose the tail that was still in
//! the page cache.

use apps::miniredis::{Command, MiniRedis, Query, RedisOptions, Reply};
use apps::minirocks::{MiniRocks, RocksOptions};
use apps::minisql::{MiniSql, SqlOptions};
use apps::KvApp;
use splitfs::{Mode, Testbed, TestbedConfig};

fn value_of(i: u32) -> Vec<u8> {
    format!("value-{i:06}-{}", "x".repeat(80)).into_bytes()
}

/// An application workload is fully traceable end to end: every log write
/// MiniRocks acknowledged carries a complete causal span chain (stage →
/// doorbell → quorum wire coverage → ack under one `ncl.write` root), and
/// the write-path histograms the operator scrapes carry the same samples.
#[test]
fn rocks_workload_leaves_complete_causal_traces() {
    let tb = Testbed::start(TestbedConfig::zero(3));
    let (fs, _) = tb.mount(Mode::SplitFt, "rocks-traced");
    let db = MiniRocks::open(fs, "db/", RocksOptions::tiny()).unwrap();
    for i in 0..50u32 {
        db.put(format!("k{i:04}").as_bytes(), &value_of(i)).unwrap();
    }

    let tel = &tb.config().ncl.telemetry;
    let report = telemetry::analyze::analyze(&tel.spans(), tb.config().ncl.quorum());
    assert!(
        report.ok(),
        "trace invariants violated:\n{}",
        report.render()
    );
    assert_eq!(report.orphan_spans, 0);
    assert!(
        report.acked_writes >= 50,
        "each acked put leaves a rooted write trace (got {})",
        report.acked_writes
    );
    let snap = tel.snapshot();
    let e2e = snap
        .summary("ncl.record.e2e")
        .expect("write-path histogram");
    assert!(e2e.count >= report.acked_writes as u64);
}

// ---------------------------------------------------------------- minirocks

#[test]
fn rocks_basic_crud_all_modes() {
    let tb = Testbed::start(TestbedConfig::zero(3));
    for (i, mode) in [Mode::StrongDft, Mode::WeakDft, Mode::SplitFt]
        .iter()
        .enumerate()
    {
        let (fs, _) = tb.mount(*mode, &format!("rocks{i}"));
        let db = MiniRocks::open(fs, &format!("rocks{i}/"), RocksOptions::tiny()).unwrap();
        db.put(b"alpha", b"1").unwrap();
        db.put(b"beta", b"2").unwrap();
        assert_eq!(db.get(b"alpha").unwrap(), Some(b"1".to_vec()));
        db.put(b"alpha", b"updated").unwrap();
        assert_eq!(db.get(b"alpha").unwrap(), Some(b"updated".to_vec()));
        db.delete(b"beta").unwrap();
        assert_eq!(db.get(b"beta").unwrap(), None);
        assert_eq!(db.get(b"missing").unwrap(), None);
    }
}

#[test]
fn rocks_flush_and_compaction_preserve_data() {
    let tb = Testbed::start(TestbedConfig::zero(3));
    let (fs, _) = tb.mount(Mode::SplitFt, "rocks-compact");
    let db = MiniRocks::open(fs, "db/", RocksOptions::tiny()).unwrap();
    // Enough data to force several flushes and at least one compaction.
    for i in 0..600u32 {
        db.put(format!("key{i:05}").as_bytes(), &value_of(i))
            .unwrap();
    }
    // Overwrite a slice of keys so compaction must pick newest versions.
    for i in 0..100u32 {
        db.put(format!("key{i:05}").as_bytes(), b"v2").unwrap();
    }
    db.quiesce();
    assert!(db.flush_count() > 0, "expected background flushes");
    for i in 0..100u32 {
        assert_eq!(
            db.get(format!("key{i:05}").as_bytes()).unwrap(),
            Some(b"v2".to_vec()),
            "key{i}"
        );
    }
    for i in 100..600u32 {
        assert_eq!(
            db.get(format!("key{i:05}").as_bytes()).unwrap(),
            Some(value_of(i)),
            "key{i}"
        );
    }
}

#[test]
fn rocks_tombstones_survive_flush() {
    let tb = Testbed::start(TestbedConfig::zero(3));
    let (fs, _) = tb.mount(Mode::SplitFt, "rocks-tomb");
    let db = MiniRocks::open(fs, "db/", RocksOptions::tiny()).unwrap();
    db.put(b"doomed", b"v").unwrap();
    // Force a flush so "doomed" lands in an SSTable.
    for i in 0..200u32 {
        db.put(format!("fill{i:04}").as_bytes(), &value_of(i))
            .unwrap();
    }
    db.quiesce();
    db.delete(b"doomed").unwrap();
    // Another wave of flushes puts the tombstone into L0 too.
    for i in 200..400u32 {
        db.put(format!("fill{i:04}").as_bytes(), &value_of(i))
            .unwrap();
    }
    db.quiesce();
    assert_eq!(db.get(b"doomed").unwrap(), None);
}

#[test]
fn rocks_crash_recovery_strong_and_splitft_keep_all_acked() {
    for mode in [Mode::StrongDft, Mode::SplitFt] {
        let tb = Testbed::start(TestbedConfig::zero(3));
        let app_node;
        {
            let (fs, node) = tb.mount(mode, "rocks-crash");
            app_node = node;
            let db = MiniRocks::open(fs, "db/", RocksOptions::tiny()).unwrap();
            for i in 0..300u32 {
                db.put(format!("key{i:05}").as_bytes(), &value_of(i))
                    .unwrap();
            }
            // Crash without clean shutdown: leak the handle's state by
            // dropping after marking the node dead.
            tb.cluster.crash(node);
        }
        let _ = app_node;
        let (fs2, _) = tb.mount(mode, "rocks-crash");
        let db = MiniRocks::open(fs2, "db/", RocksOptions::tiny()).unwrap();
        for i in 0..300u32 {
            assert_eq!(
                db.get(format!("key{i:05}").as_bytes()).unwrap(),
                Some(value_of(i)),
                "mode {mode:?} key{i}"
            );
        }
    }
}

#[test]
fn rocks_weak_mode_loses_unflushed_tail() {
    let tb = Testbed::start(TestbedConfig::zero(3));
    {
        // Flush interval far in the future: nothing reaches the DFS.
        let (fs, node) = tb.mount(Mode::WeakDft, "rocks-weak");
        let db = MiniRocks::open(fs, "db/", RocksOptions::default()).unwrap();
        for i in 0..50u32 {
            db.put(format!("key{i:05}").as_bytes(), b"acked!").unwrap();
        }
        tb.cluster.crash(node);
        drop(db);
    }
    let (fs2, _) = tb.mount(Mode::StrongDft, "rocks-weak-reader");
    let db = MiniRocks::open(fs2, "db/", RocksOptions::default()).unwrap();
    let survivors = (0..50u32)
        .filter(|i| db.get(format!("key{i:05}").as_bytes()).unwrap().is_some())
        .count();
    assert_eq!(survivors, 0, "weak mode must lose the unflushed tail");
}

/// Eight writers share write groups: every put is readable, on the slow
/// commits of strong mode they need fewer WAL barriers than puts, and every
/// acknowledged key survives a crash.
#[test]
fn rocks_concurrent_writers_group_commit() {
    for (config, mode) in [
        (TestbedConfig::zero(3), Mode::SplitFt),
        (TestbedConfig::calibrated(3), Mode::StrongDft),
    ] {
        let tb = Testbed::start(config);
        let (fs, node) = tb.mount(mode, "rocks-mt");
        let trace = dfs::IoTrace::new();
        fs.set_trace(std::sync::Arc::clone(&trace));
        trace.enable();
        let db = MiniRocks::open(fs, "db/", RocksOptions::tiny()).unwrap();
        std::thread::scope(|s| {
            for t in 0..8 {
                let db = &db;
                s.spawn(move || {
                    for i in 0..100u32 {
                        db.put(format!("t{t}-k{i:04}").as_bytes(), &value_of(i))
                            .unwrap();
                    }
                });
            }
        });
        let all_present = |db: &MiniRocks| {
            for t in 0..8 {
                for i in 0..100u32 {
                    assert_eq!(
                        db.get(format!("t{t}-k{i:04}").as_bytes()).unwrap(),
                        Some(value_of(i)),
                        "mode {mode:?} t{t}-k{i:04}"
                    );
                }
            }
        };
        all_present(&db);
        if mode == Mode::StrongDft {
            // A strong-mode barrier is a ~2 ms DFS flush of the WAL: the
            // writers that arrive during one share the next.
            let barriers = trace
                .events()
                .iter()
                .filter(|e| e.path.contains("wal-") && e.kind == dfs::IoKind::FlushWrite)
                .count();
            assert!(
                (1..800).contains(&barriers),
                "{barriers} WAL barriers for 800 puts: no group had a follower"
            );
        }
        tb.cluster.crash(node);
        drop(db);
        let (fs, _) = tb.mount(mode, "rocks-mt");
        all_present(&MiniRocks::open(fs, "db/", RocksOptions::tiny()).unwrap());
    }
}

/// A leader whose commit fails strands nobody: when the application node
/// dies under four writers, each gets an error and returns, and every put
/// that was acknowledged before is there after the remount.
#[test]
fn rocks_failed_commit_strands_no_follower() {
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    for mode in [Mode::SplitFt, Mode::StrongDft] {
        let mut config = TestbedConfig::calibrated(3);
        // How long a barrier waits on a dead node's queue pairs: the failed
        // leader's, then that of the one it promoted.
        config.ncl.write_timeout = std::time::Duration::from_millis(200);
        let tb = Testbed::start(config);
        let (fs, node) = tb.mount(mode, "rocks-strand");
        let db = Arc::new(MiniRocks::open(fs, "db/", RocksOptions::default()).unwrap());
        let acked_total = Arc::new(AtomicU32::new(0));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let (db, acked_total, done_tx) =
                    (Arc::clone(&db), Arc::clone(&acked_total), done_tx.clone());
                std::thread::spawn(move || {
                    let mut acked = Vec::new();
                    for i in 0u32.. {
                        if db
                            .put(format!("t{t}-k{i:06}").as_bytes(), &value_of(i))
                            .is_err()
                        {
                            break;
                        }
                        acked.push(i);
                        acked_total.fetch_add(1, Ordering::SeqCst);
                    }
                    done_tx.send((t, acked)).unwrap();
                })
            })
            .collect();
        while acked_total.load(Ordering::SeqCst) < 40 {
            std::thread::yield_now();
        }
        tb.cluster.crash(node);
        // A stranded writer would hang a join: wait for the lists first.
        let mut acked = vec![Vec::new(); 4];
        for _ in 0..4 {
            let (t, keys): (usize, _) = done_rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("a writer is stranded in write_batch");
            acked[t] = keys;
        }
        for writer in writers {
            writer.join().unwrap();
        }
        drop(db);
        let (fs, _) = tb.mount(mode, "rocks-strand");
        let db = MiniRocks::open(fs, "db/", RocksOptions::default()).unwrap();
        for (t, keys) in acked.iter().enumerate() {
            for i in keys {
                assert_eq!(
                    db.get(format!("t{t}-k{i:06}").as_bytes()).unwrap(),
                    Some(value_of(*i)),
                    "mode {mode:?}: acked t{t}-k{i:06} is missing"
                );
            }
        }
    }
}

/// Recovery adds an L0 table per reopen and queues no flush job behind it:
/// the compaction it makes due must run anyway, or `quiesce` waits out its
/// deadline on a store that will never settle.
#[test]
fn rocks_quiesce_compacts_what_recovery_left_in_l0() {
    let tb = Testbed::start(TestbedConfig::zero(3));
    let opts = RocksOptions::tiny();
    // Crash and reopen until recovery alone has left L0 at the trigger:
    // a handful of puts never fills even the tiny memtable.
    for round in 0..opts.l0_compaction_trigger as u32 {
        let (fs, node) = tb.mount(Mode::SplitFt, "rocks-quiesce");
        let db = MiniRocks::open(fs, "db/", opts.clone()).unwrap();
        assert_eq!(db.flush_count() + db.compaction_count(), 0);
        for i in 0..5u32 {
            db.put(format!("r{round}-k{i}").as_bytes(), &value_of(i))
                .unwrap();
        }
        tb.cluster.crash(node);
    }
    let (fs, _) = tb.mount(Mode::SplitFt, "rocks-quiesce");
    let db = MiniRocks::open(fs, "db/", opts.clone()).unwrap();
    db.quiesce();
    assert_eq!(db.flush_count(), 0, "no memtable ever filled");
    assert!(db.compaction_count() >= 1, "recovery's L0 tables compact");
    let (l0, l1) = db.level_file_counts();
    assert!(
        l0 < opts.l0_compaction_trigger && l1 >= 1,
        "L0 {l0}, L1 {l1}"
    );
    for round in 0..opts.l0_compaction_trigger as u32 {
        for i in 0..5u32 {
            assert_eq!(
                db.get(format!("r{round}-k{i}").as_bytes()).unwrap(),
                Some(value_of(i))
            );
        }
    }
}

// ---------------------------------------------------------------- miniredis

#[test]
fn redis_data_structures_all_modes() {
    let tb = Testbed::start(TestbedConfig::zero(3));
    for (i, mode) in [Mode::StrongDft, Mode::WeakDft, Mode::SplitFt]
        .iter()
        .enumerate()
    {
        let (fs, _) = tb.mount(*mode, &format!("redis{i}"));
        let r = MiniRedis::open(fs, &format!("redis{i}/"), RedisOptions::tiny()).unwrap();
        r.execute(Command::Set("s".into(), b"str".to_vec()))
            .unwrap();
        r.execute(Command::HSet("h".into(), "f".into(), b"hv".to_vec()))
            .unwrap();
        r.execute(Command::RPush("l".into(), b"item".to_vec()))
            .unwrap();
        r.execute(Command::SAdd("set".into(), b"m".to_vec()))
            .unwrap();
        assert_eq!(
            r.query(Query::Get("s".into())).unwrap(),
            Reply::Bulk(Some(b"str".to_vec()))
        );
        assert_eq!(
            r.query(Query::HGet("h".into(), "f".into())).unwrap(),
            Reply::Bulk(Some(b"hv".to_vec()))
        );
        assert_eq!(r.query(Query::LLen("l".into())).unwrap(), Reply::Int(1));
        assert_eq!(r.query(Query::SCard("set".into())).unwrap(), Reply::Int(1));
        assert_eq!(r.query(Query::DbSize).unwrap(), Reply::Int(4));
    }
}

#[test]
fn redis_crash_recovery_replays_aof() {
    for mode in [Mode::StrongDft, Mode::SplitFt] {
        let tb = Testbed::start(TestbedConfig::zero(3));
        {
            let (fs, node) = tb.mount(mode, "redis-crash");
            let r = MiniRedis::open(fs, "r/", RedisOptions::default()).unwrap();
            for i in 0..200u32 {
                r.execute(Command::Set(format!("key{i}"), value_of(i)))
                    .unwrap();
            }
            r.execute(Command::Incr("counter".into())).unwrap();
            r.execute(Command::Incr("counter".into())).unwrap();
            tb.cluster.crash(node);
        }
        let (fs2, _) = tb.mount(mode, "redis-crash");
        let r = MiniRedis::open(fs2, "r/", RedisOptions::default()).unwrap();
        for i in 0..200u32 {
            assert_eq!(
                r.query(Query::Get(format!("key{i}"))).unwrap(),
                Reply::Bulk(Some(value_of(i))),
                "mode {mode:?}"
            );
        }
        assert_eq!(
            r.query(Query::Get("counter".into())).unwrap(),
            Reply::Bulk(Some(b"2".to_vec()))
        );
    }
}

/// Eight clients' commands share the server's batches on strong mode's
/// ~2 ms barrier, yet run one at a time: each `INCR` answers its own count,
/// and every acknowledged one survives a crash.
#[test]
fn redis_concurrent_clients_get_their_own_replies() {
    let tb = Testbed::start(TestbedConfig::calibrated(3));
    let (fs, node) = tb.mount(Mode::StrongDft, "redis-mt");
    let r = MiniRedis::open(fs, "r/", RedisOptions::default()).unwrap();
    let mut counts: Vec<i64> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..8)
            .map(|_| {
                let r = &r;
                s.spawn(move || {
                    (0..25)
                        .map(|_| match r.execute(Command::Incr("n".into())).unwrap() {
                            Reply::Int(n) => n,
                            other => panic!("INCR answered {other:?}"),
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect()
    });
    counts.sort_unstable();
    assert_eq!(counts, (1..=200).collect::<Vec<_>>());
    tb.cluster.crash(node);
    drop(r);
    let (fs, _) = tb.mount(Mode::StrongDft, "redis-mt");
    let r = MiniRedis::open(fs, "r/", RedisOptions::default()).unwrap();
    assert_eq!(
        r.query(Query::Get("n".into())).unwrap(),
        Reply::Bulk(Some(b"200".to_vec()))
    );
}

#[test]
fn redis_rewrite_compacts_and_survives_crash() {
    let tb = Testbed::start(TestbedConfig::zero(3));
    {
        let (fs, node) = tb.mount(Mode::SplitFt, "redis-rw");
        let r = MiniRedis::open(fs, "r/", RedisOptions::tiny()).unwrap();
        // Overwrite one key many times: the AOF grows, the RDB stays tiny.
        for i in 0..500u32 {
            r.execute(Command::Set("hot".into(), value_of(i))).unwrap();
        }
        // Land the background save in flight, then write more.
        r.quiesce();
        assert!(r.rewrite_count() > 0, "rewrite should have triggered");
        r.execute(Command::Set("after".into(), b"rewrite".to_vec()))
            .unwrap();
        tb.cluster.crash(node);
    }
    let (fs2, _) = tb.mount(Mode::SplitFt, "redis-rw");
    let r = MiniRedis::open(fs2, "r/", RedisOptions::tiny()).unwrap();
    assert_eq!(
        r.query(Query::Get("after".into())).unwrap(),
        Reply::Bulk(Some(b"rewrite".to_vec()))
    );
    assert!(matches!(
        r.query(Query::Get("hot".into())).unwrap(),
        Reply::Bulk(Some(_))
    ));
}

#[test]
fn redis_weak_mode_loses_tail() {
    let tb = Testbed::start(TestbedConfig::zero(3));
    {
        let (fs, node) = tb.mount(Mode::WeakDft, "redis-weak");
        let r = MiniRedis::open(fs, "r/", RedisOptions::default()).unwrap();
        r.execute(Command::Set("gone".into(), b"poof".to_vec()))
            .unwrap();
        tb.cluster.crash(node);
    }
    let (fs2, _) = tb.mount(Mode::StrongDft, "redis-weak-reader");
    let r = MiniRedis::open(fs2, "r/", RedisOptions::default()).unwrap();
    assert_eq!(
        r.query(Query::Get("gone".into())).unwrap(),
        Reply::Bulk(None)
    );
}

// ------------------------------------------------------------------ minisql

#[test]
fn sql_crud_and_transactions() {
    let tb = Testbed::start(TestbedConfig::zero(3));
    let (fs, _) = tb.mount(Mode::SplitFt, "sql-crud");
    let db = MiniSql::open(fs, "sql/", SqlOptions::tiny()).unwrap();
    db.put(b"k1", b"v1").unwrap();
    assert_eq!(db.get(b"k1").unwrap(), Some(b"v1".to_vec()));
    db.put(b"k1", b"v2").unwrap();
    assert_eq!(db.get(b"k1").unwrap(), Some(b"v2".to_vec()));
    assert!(db.delete(b"k1").unwrap());
    assert!(!db.delete(b"k1").unwrap());
    assert_eq!(db.get(b"k1").unwrap(), None);

    // Multi-op transaction commits atomically.
    db.txn(|t| {
        t.put(b"a", b"1")?;
        t.put(b"b", b"2")?;
        Ok(())
    })
    .unwrap();
    assert_eq!(db.get(b"a").unwrap(), Some(b"1".to_vec()));
    assert_eq!(db.get(b"b").unwrap(), Some(b"2".to_vec()));

    // Failed transaction rolls back everything.
    let result: Result<(), _> = db.txn(|t| {
        t.put(b"c", b"3")?;
        Err(apps::AppError::Storage("forced abort".into()))
    });
    assert!(result.is_err());
    assert_eq!(db.get(b"c").unwrap(), None);
}

#[test]
fn sql_overflow_chains_work() {
    let tb = Testbed::start(TestbedConfig::zero(3));
    let (fs, _) = tb.mount(Mode::SplitFt, "sql-overflow");
    // Tiny pages + few buckets force overflow chains quickly.
    let db = MiniSql::open(fs, "sql/", SqlOptions::tiny()).unwrap();
    for i in 0..300u32 {
        db.put(format!("key{i:05}").as_bytes(), &value_of(i))
            .unwrap();
    }
    for i in 0..300u32 {
        assert_eq!(
            db.get(format!("key{i:05}").as_bytes()).unwrap(),
            Some(value_of(i))
        );
    }
}

#[test]
fn sql_checkpoint_resets_wal_and_data_survives() {
    let tb = Testbed::start(TestbedConfig::zero(3));
    let app_node;
    {
        let (fs, node) = tb.mount(Mode::SplitFt, "sql-ckpt");
        app_node = node;
        let db = MiniSql::open(fs, "sql/", SqlOptions::tiny()).unwrap();
        for i in 0..400u32 {
            db.put(format!("key{i:05}").as_bytes(), &value_of(i))
                .unwrap();
        }
        assert!(db.checkpoint_count() > 0, "tiny WAL must have checkpointed");
        tb.cluster.crash(app_node);
    }
    let (fs2, _) = tb.mount(Mode::SplitFt, "sql-ckpt");
    let db = MiniSql::open(fs2, "sql/", SqlOptions::tiny()).unwrap();
    for i in 0..400u32 {
        assert_eq!(
            db.get(format!("key{i:05}").as_bytes()).unwrap(),
            Some(value_of(i)),
            "key{i}"
        );
    }
}

#[test]
fn sql_crash_recovery_all_strong_modes() {
    for mode in [Mode::StrongDft, Mode::SplitFt] {
        let tb = Testbed::start(TestbedConfig::zero(3));
        {
            let (fs, node) = tb.mount(mode, "sql-crash");
            let db = MiniSql::open(fs, "sql/", SqlOptions::default()).unwrap();
            for i in 0..100u32 {
                db.put(format!("key{i:05}").as_bytes(), &value_of(i))
                    .unwrap();
            }
            tb.cluster.crash(node);
        }
        let (fs2, _) = tb.mount(mode, "sql-crash");
        let db = MiniSql::open(fs2, "sql/", SqlOptions::default()).unwrap();
        for i in 0..100u32 {
            assert_eq!(
                db.get(format!("key{i:05}").as_bytes()).unwrap(),
                Some(value_of(i)),
                "mode {mode:?}"
            );
        }
    }
}

#[test]
fn sql_weak_mode_loses_recent_commits() {
    let tb = Testbed::start(TestbedConfig::zero(3));
    {
        let (fs, node) = tb.mount(Mode::WeakDft, "sql-weak");
        let db = MiniSql::open(fs, "sql/", SqlOptions::default()).unwrap();
        db.put(b"volatile", b"row").unwrap();
        tb.cluster.crash(node);
    }
    let (fs2, _) = tb.mount(Mode::StrongDft, "sql-weak-reader");
    let db = MiniSql::open(fs2, "sql/", SqlOptions::default()).unwrap();
    assert_eq!(db.get(b"volatile").unwrap(), None);
}

#[test]
fn sql_read_modify_write_is_transactional() {
    let tb = Testbed::start(TestbedConfig::zero(3));
    let (fs, _) = tb.mount(Mode::SplitFt, "sql-rmw");
    let db = MiniSql::open(fs, "sql/", SqlOptions::tiny()).unwrap();
    db.insert("k", b"v0").unwrap();
    db.read_modify_write("k", b"v1").unwrap();
    assert_eq!(db.read("k").unwrap(), Some(b"v1".to_vec()));
}

// -------------------------------------------------- cross-app: NCL behavior

#[test]
fn splitft_apps_tolerate_peer_failure() {
    let tb = Testbed::start(TestbedConfig::zero(5));
    let (fs, _) = tb.mount(Mode::SplitFt, "rocks-peerfail");
    let db = MiniRocks::open(fs, "db/", RocksOptions::tiny()).unwrap();
    for i in 0..50u32 {
        db.put(format!("pre{i:03}").as_bytes(), b"v").unwrap();
    }
    // Crash one peer mid-workload; writes must continue.
    tb.cluster.crash(tb.peers[0].node());
    for i in 0..50u32 {
        db.put(format!("post{i:03}").as_bytes(), b"v").unwrap();
    }
    for i in 0..50u32 {
        assert_eq!(
            db.get(format!("pre{i:03}").as_bytes()).unwrap(),
            Some(b"v".to_vec())
        );
        assert_eq!(
            db.get(format!("post{i:03}").as_bytes()).unwrap(),
            Some(b"v".to_vec())
        );
    }
}
