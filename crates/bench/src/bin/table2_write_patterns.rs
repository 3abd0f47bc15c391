//! Table 2 — write patterns of storage-centric applications.
//!
//! The paper surveys eight applications; this binary demonstrates the same
//! classification *empirically* for the three we implement: which files
//! receive the small synchronous writes, which receive bulk background
//! writes, and how the log is reclaimed (deletion vs overwrite), observed
//! from live runs rather than asserted.

use std::sync::Arc;

use apps::miniredis::{Command, MiniRedis, RedisOptions};
use apps::minirocks::{MiniRocks, RocksOptions};
use apps::minisql::{MiniSql, SqlOptions};
use apps::KvApp;
use bench::{header, row};
use dfs::IoTrace;
use splitfs::{Mode, Testbed, TestbedConfig};

fn main() {
    // Zero latencies: this experiment is about IO structure, not speed.
    let tb = Testbed::start(TestbedConfig::zero(3));

    header("Table 2: writes in storage-centric applications (observed)");
    row(&[
        "app".into(),
        "small sync writes".into(),
        "large bg writes".into(),
        "reclaim".into(),
        "evidence".into(),
    ]);

    // --- RocksDB stand-in: WAL deleted after each memtable flush. ---
    {
        let (fs, _) = tb.mount(Mode::StrongDft, "t2-rocks");
        let trace = IoTrace::new();
        trace.enable();
        fs.set_trace(Arc::clone(&trace));
        let db = MiniRocks::open(fs.clone(), "r/", RocksOptions::tiny()).unwrap();
        for i in 0..400u32 {
            db.put(format!("key{i:05}").as_bytes(), &[0x11; 100])
                .unwrap();
        }
        db.quiesce();
        let flushes = db.flush_count();
        let wals_left = fs.list("r/wal-").unwrap().len();
        row(&[
            "minirocks".into(),
            "write-ahead log (wal-*)".into(),
            "sorted tables (sst-*)".into(),
            "delete".into(),
            format!("{flushes} flushes, {wals_left} live WAL"),
        ]);
    }

    // --- Redis stand-in: AOF deleted after each RDB rewrite. ---
    {
        let (fs, _) = tb.mount(Mode::StrongDft, "t2-redis");
        let r = MiniRedis::open(fs.clone(), "d/", RedisOptions::tiny()).unwrap();
        for i in 0..2_000u32 {
            r.execute(Command::Set(format!("k{i}"), vec![0x22; 100]))
                .unwrap();
        }
        r.quiesce();
        let rewrites = r.rewrite_count();
        let aofs_left = fs.list("d/aof-").unwrap().len();
        row(&[
            "miniredis".into(),
            "append-only file (aof-*)".into(),
            "snapshot (rdb-*)".into(),
            "delete".into(),
            format!("{rewrites} rewrites, {aofs_left} live AOF"),
        ]);
    }

    // --- SQLite stand-in: the WAL is reset and overwritten in place. ---
    {
        let (fs, _) = tb.mount(Mode::StrongDft, "t2-sql");
        let db = MiniSql::open(fs.clone(), "s/", SqlOptions::tiny()).unwrap();
        for i in 0..400u32 {
            db.put(format!("key{i:05}").as_bytes(), &[0x33; 100])
                .unwrap();
        }
        let checkpoints = db.checkpoint_count();
        let wal_count = fs.list("s/db-wal").unwrap().len();
        row(&[
            "minisql".into(),
            "write-ahead log (db-wal)".into(),
            "database pages (db)".into(),
            "overwrite".into(),
            format!("{checkpoints} checkpoints, same {wal_count} WAL file reused"),
        ]);
    }

    println!(
        "\npaper Table 2: RocksDB/LevelDB/Redis/MongoDB delete their logs after \
         flush; SQLite/Postgres/HyperSQL/MariaDB reuse the log as a circular \
         buffer (overwrite). Both reclaim policies are exercised above."
    );
}
