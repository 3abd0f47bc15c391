//! The single-threaded MiniRedis server.
//!
//! Like Redis, all commands are executed by **one** thread, in arrival
//! order. Each event-loop iteration drains a batch of pending requests,
//! applies the writes, appends one AOF record per command (staged on the
//! pipelined NCL handle and flushed as a single doorbell batch per peer),
//! and — in strong/SplitFT configurations — waits for durability *before
//! replying to anything in the batch*. That head-of-line blocking is why
//! strong-mode Redis is slow even on read-heavy YCSB mixes (§5.3), and the
//! structure here reproduces it.
//!
//! Background rewrite: when the AOF grows past the configured threshold,
//! the keyspace is snapshotted and written as an RDB file to the DFS in the
//! background (a large bulk write). Commands arriving during the rewrite
//! are retained in a tail buffer; on completion a fresh AOF seeded with the
//! tail is installed, the generation meta-record is durably advanced, and
//! the old AOF is **deleted** (Table 2's reclaim policy).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use splitfs::{File, OpenOptions, SplitFs};

use super::aof;
use super::store::{Command, Query, Reply, Store};
use crate::kv::{decode_frame, encode_frame, AppError, KvApp};

/// Tuning knobs for [`MiniRedis`].
#[derive(Debug, Clone)]
pub struct RedisOptions {
    /// AOF region capacity (NCL allocation size in SplitFT mode).
    pub aof_capacity: usize,
    /// AOF size that triggers a background RDB rewrite.
    pub rewrite_threshold: usize,
    /// Maximum requests drained per event-loop iteration.
    pub batch_max: usize,
}

impl Default for RedisOptions {
    fn default() -> Self {
        RedisOptions {
            aof_capacity: 16 << 20,
            rewrite_threshold: 8 << 20,
            batch_max: 64,
        }
    }
}

impl RedisOptions {
    /// Small limits for tests (frequent rewrites).
    pub fn tiny() -> Self {
        RedisOptions {
            aof_capacity: 64 << 10,
            rewrite_threshold: 4 << 10,
            batch_max: 16,
        }
    }
}

type ReplyTx = SyncSender<Result<Reply, AppError>>;

enum Request {
    Write(Command, ReplyTx),
    Read(Query, ReplyTx),
    /// Join the background save in flight and land its rewrite.
    Quiesce(ReplyTx),
}

/// A MiniRedis instance (see module docs).
pub struct MiniRedis {
    tx: Option<Sender<Request>>,
    thread: Option<JoinHandle<()>>,
    rewrites: Arc<AtomicU64>,
}

struct Executor {
    fs: SplitFs,
    prefix: String,
    opts: RedisOptions,
    store: Store,
    aof: File,
    aof_size: usize,
    generation: u64,
    /// Commands applied since the in-flight snapshot started (replayed into
    /// the fresh AOF when the rewrite lands).
    rewrite_tail: Vec<Command>,
    /// The snapshot being written in the background, if any.
    bgsave: Option<JoinHandle<Result<(), AppError>>>,
    rewrites: Arc<AtomicU64>,
}

impl MiniRedis {
    /// Opens (creating or recovering) an instance named `prefix` on `fs`.
    pub fn open(fs: SplitFs, prefix: &str, opts: RedisOptions) -> Result<Self, AppError> {
        let meta_path = format!("{prefix}REDIS-META");
        let mut generation = 1u64;
        let mut store = Store::new();
        if fs.exists(&meta_path) {
            let meta = fs.open(&meta_path, OpenOptions::plain())?;
            let buf = meta.read(0, meta.size()? as usize)?;
            if let Ok(Some((body, _))) = decode_frame(&buf, 0) {
                if body.len() >= 8 {
                    generation = u64::from_le_bytes(body[0..8].try_into().expect("8"));
                }
            }
            // Load the snapshot, then replay the AOF over it.
            let rdb_path = rdb_name(prefix, generation);
            if fs.exists(&rdb_path) {
                let rdb = fs.open(&rdb_path, OpenOptions::plain())?;
                let blob = rdb.read(0, rdb.size()? as usize)?;
                if let Ok(Some((body, _))) = decode_frame(&blob, 0) {
                    store = Store::deserialize(body)?;
                }
            }
        } else {
            let meta = fs.open(&meta_path, OpenOptions::create())?;
            meta.write_at(0, &encode_frame(&generation.to_le_bytes()))?;
            meta.fsync()?;
        }
        let aof_path = aof_name(prefix, generation);
        let (aof, aof_size) = if fs.exists(&aof_path) {
            let aof = fs.open(
                &aof_path,
                OpenOptions {
                    create: false,
                    ncl: true,
                    capacity: opts.aof_capacity,
                    pipelined: true,
                },
            )?;
            let buf = aof.read(0, aof.size()? as usize)?;
            for cmd in aof::replay(&buf) {
                store.apply(&cmd);
            }
            let size = buf.len();
            (aof, size)
        } else {
            (
                fs.open(
                    &aof_path,
                    OpenOptions {
                        create: true,
                        ncl: true,
                        capacity: opts.aof_capacity,
                        pipelined: true,
                    },
                )?,
                0,
            )
        };

        let rewrites = Arc::new(AtomicU64::new(0));
        let (tx, rx) = channel::<Request>();
        let mut exec = Executor {
            fs,
            prefix: prefix.to_string(),
            opts,
            store,
            aof,
            aof_size,
            generation,
            rewrite_tail: Vec::new(),
            bgsave: None,
            rewrites: Arc::clone(&rewrites),
        };
        let thread = std::thread::Builder::new()
            .name("redis-main".to_string())
            .spawn(move || exec.run(rx))
            .expect("spawn redis thread");
        Ok(MiniRedis {
            tx: Some(tx),
            thread: Some(thread),
            rewrites,
        })
    }

    /// Executes a mutating command.
    pub fn execute(&self, cmd: Command) -> Result<Reply, AppError> {
        self.call(|reply| Request::Write(cmd, reply))
    }

    /// Evaluates a read-only query.
    pub fn query(&self, q: Query) -> Result<Reply, AppError> {
        self.call(|reply| Request::Read(q, reply))
    }

    /// Sends one request to the server thread and waits for its reply.
    fn call(&self, request: impl FnOnce(ReplyTx) -> Request) -> Result<Reply, AppError> {
        let (reply_tx, reply_rx) = sync_channel(1);
        self.tx
            .as_ref()
            .ok_or(AppError::Closed)?
            .send(request(reply_tx))
            .map_err(|_| AppError::Closed)?;
        reply_rx.recv().map_err(|_| AppError::Closed)?
    }

    /// Number of completed AOF rewrites.
    pub fn rewrite_count(&self) -> u64 {
        self.rewrites.load(Ordering::Relaxed)
    }
}

impl Drop for MiniRedis {
    fn drop(&mut self) {
        self.tx.take();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl KvApp for MiniRedis {
    fn insert(&self, key: &str, value: &[u8]) -> Result<(), AppError> {
        self.execute(Command::Set(key.to_string(), value.to_vec()))
            .map(|_| ())
    }

    fn update(&self, key: &str, value: &[u8]) -> Result<(), AppError> {
        self.insert(key, value)
    }

    fn read(&self, key: &str) -> Result<Option<Vec<u8>>, AppError> {
        match self.query(Query::Get(key.to_string()))? {
            Reply::Bulk(v) => Ok(v),
            other => Err(AppError::Storage(format!("unexpected reply {other:?}"))),
        }
    }

    /// Joins the background save in flight, if any, and lands its rewrite.
    fn quiesce(&self) {
        let _ = self.call(Request::Quiesce);
    }
}

fn aof_name(prefix: &str, generation: u64) -> String {
    format!("{prefix}aof-{generation:06}")
}

fn rdb_name(prefix: &str, generation: u64) -> String {
    format!("{prefix}rdb-{generation:06}")
}

impl Executor {
    fn run(&mut self, rx: Receiver<Request>) {
        while let Ok(first) = rx.recv() {
            // Land a finished background rewrite first.
            self.land_rewrite(false);
            let mut batch = vec![first];
            while batch.len() < self.opts.batch_max {
                match rx.try_recv() {
                    Ok(req) => batch.push(req),
                    Err(_) => break,
                }
            }
            // Apply in arrival order; collect write commands for the AOF.
            let mut commands = Vec::new();
            let mut replies: Vec<(ReplyTx, Reply)> = Vec::new();
            let mut quiescers = Vec::new();
            for req in batch {
                match req {
                    Request::Write(cmd, reply) => {
                        let r = self.store.apply(&cmd);
                        if !matches!(r, Reply::WrongType) {
                            if self.bgsave.is_some() {
                                self.rewrite_tail.push(cmd.clone());
                            }
                            commands.push(cmd);
                        }
                        replies.push((reply, r));
                    }
                    Request::Read(q, reply) => {
                        let r = self.store.query(&q);
                        replies.push((reply, r));
                    }
                    Request::Quiesce(reply) => quiescers.push(reply),
                }
            }
            // One AOF record per command, staged on the pipelined handle and
            // flushed to every peer as a single doorbell batch; the fsync is
            // the group's one durability barrier. *All* replies (reads
            // included) wait behind it — Redis's single-threaded
            // head-of-line blocking.
            let flush_result = if commands.is_empty() {
                Ok(())
            } else {
                let mut staged = Ok(());
                for cmd in &commands {
                    let frame = aof::encode_batch(std::slice::from_ref(cmd));
                    match self.aof.write_at(self.aof_size as u64, &frame) {
                        Ok(()) => self.aof_size += frame.len(),
                        Err(e) => {
                            staged = Err(AppError::from(e));
                            break;
                        }
                    }
                }
                staged.and_then(|()| {
                    self.aof.submit();
                    self.aof.fsync().map_err(AppError::from)
                })
            };
            for (tx, r) in replies {
                let _ = tx.send(flush_result.clone().map(|()| r));
            }
            if flush_result.is_ok() {
                self.maybe_start_rewrite();
            }
            // After the batch, so a rewrite it started lands too.
            if !quiescers.is_empty() {
                self.land_rewrite(true);
            }
            for tx in quiescers {
                let _ = tx.send(Ok(Reply::Ok));
            }
        }
        // Closed: finish a save in flight rather than leave it writing behind
        // an instance that is gone.
        if let Some(save) = self.bgsave.take() {
            let _ = save.join();
        }
    }

    fn maybe_start_rewrite(&mut self) {
        if self.bgsave.is_some() || self.aof_size < self.opts.rewrite_threshold {
            return;
        }
        // "Fork": snapshot the keyspace and write the RDB in the background.
        let snapshot = self.store.serialize();
        let fs = self.fs.clone();
        let rdb_path = rdb_name(&self.prefix, self.generation + 1);
        let bgsave = std::thread::Builder::new()
            .name("redis-bgsave".to_string())
            .spawn(move || {
                let rdb = fs.open(&rdb_path, OpenOptions::create())?;
                rdb.write_at(0, &encode_frame(&snapshot))?;
                rdb.fsync()?;
                Ok(())
            })
            .expect("spawn bgsave");
        self.bgsave = Some(bgsave);
        self.rewrite_tail.clear();
    }

    /// Installs the snapshot a background save wrote, if one has finished
    /// or, with `join`, once the one in flight finishes.
    fn land_rewrite(&mut self, join: bool) {
        let Some(save) = self.bgsave.take_if(|s| join || s.is_finished()) else {
            return;
        };
        if !matches!(save.join(), Ok(Ok(()))) {
            // Snapshot failed: keep the current AOF, try again later.
            return;
        }
        let new_gen = self.generation + 1;
        let install = (|| -> Result<(File, usize), AppError> {
            // Fresh AOF seeded with everything since the snapshot.
            let new_aof = self.fs.open(
                &aof_name(&self.prefix, new_gen),
                OpenOptions {
                    create: true,
                    ncl: true,
                    capacity: self.opts.aof_capacity,
                    pipelined: true,
                },
            )?;
            let mut size = 0usize;
            if !self.rewrite_tail.is_empty() {
                let frame = aof::encode_batch(&self.rewrite_tail);
                new_aof.write_at(0, &frame)?;
                new_aof.fsync()?;
                size = frame.len();
            }
            // Durably advance the generation pointer.
            let meta = self
                .fs
                .open(&format!("{}REDIS-META", self.prefix), OpenOptions::plain())?;
            meta.write_at(0, &encode_frame(&new_gen.to_le_bytes()))?;
            meta.fsync()?;
            Ok((new_aof, size))
        })();
        let Ok((new_aof, size)) = install else { return };
        // Delete the obsolete generation (AOF reclaim by deletion).
        let _ = self.fs.unlink(&aof_name(&self.prefix, self.generation));
        let _ = self.fs.unlink(&rdb_name(&self.prefix, self.generation));
        self.aof = new_aof;
        self.aof_size = size;
        self.generation = new_gen;
        self.rewrite_tail.clear();
        self.rewrites.fetch_add(1, Ordering::Relaxed);
    }
}
