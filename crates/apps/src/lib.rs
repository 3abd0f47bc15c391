//! Ported storage-centric applications.
//!
//! The paper ports three POSIX applications to SplitFT by tagging their log
//! files with `O_NCL` (§4.7): RocksDB (10 LOC), Redis (19 LOC), and SQLite
//! (6 LOC). This crate reimplements the storage engines of all three at the
//! fidelity the paper's evaluation depends on — their *write paths*:
//!
//! * [`minirocks`] — an LSM key-value store: group-committed write-ahead
//!   log (small synchronous appends), memtable, sorted-string-table flushes
//!   and leveled compaction (large background writes), manifest, bloom
//!   filters. Log reclaim: **delete** (Table 2).
//! * [`miniredis`] — a single-threaded data-structure store (strings,
//!   hashes, lists, sets): append-only file on the critical path, RDB
//!   snapshot rewrite in the background. Log reclaim: **delete**. The
//!   single-threaded command loop reproduces the head-of-line blocking the
//!   paper observes for strong-mode Redis under YCSB (§5.3).
//! * [`minisql`] — a paged storage engine with transactions: page-image
//!   write-ahead log used as a **circular buffer** (reset and overwritten
//!   after each checkpoint, SQLite-style — the reclaim pattern that forces
//!   NCL's full-region catch-up, §4.5.1), database pages checkpointed in
//!   bulk.
//!
//! All three run unmodified over the [`splitfs::SplitFs`] facade in each of
//! its modes; "porting" to SplitFT is exactly the paper's experience — the
//! one `open` flag on the log file.
//!
//! [`KvApp`] is the uniform key-value surface the YCSB harness drives.

pub mod kv;
pub mod miniredis;
pub mod minirocks;
pub mod minisql;

pub use kv::{AppError, Entry, KvApp};
pub use miniredis::{MiniRedis, RedisOptions};
pub use minirocks::{MiniRocks, RocksOptions};
pub use minisql::{MiniSql, SqlOptions};
