//! The MiniRocks database: group-committed WAL, memtable, flush, compaction.
//!
//! The write path mirrors RocksDB's as the paper characterises it (§3):
//! update requests from many threads are *batched* into a single WAL write
//! (group commit) followed by one durability barrier, applied to an
//! in-memory memtable, and acknowledged. When the memtable fills (or the
//! WAL nears its capacity), it is frozen and flushed in the background as an
//! SSTable — a large bulk write to the DFS — after which the WAL is
//! **deleted** (Table 2's reclaim policy). L0 tables are compacted into the
//! sorted L1 run when they pile up.
//!
//! **Write groups.** There is no commit thread: like RocksDB's
//! `WriteThread::JoinBatchGroup`, a writer enqueues its request
//! (`WriteQueue`) and the one that finds no group in flight *leads*. It
//! takes its own request plus whatever is queued (up to `batch_max`), lets
//! go of the queue and commits the group on its own thread
//! (`Inner::commit`). It then files the result for every follower and wakes
//! the head of the queue, the next leader, *before* its followers: the WAL
//! idles for one wake-up, not for a group's worth. One group is in flight at
//! a time — a barrier must not cover the next group's record, and a
//! rotation must not run under an unsettled one — so writers that arrive
//! while a group replicates form the next one; that is the group commit. A
//! single writer runs the same code and finds nobody to wait for or wake:
//! no channel, no sleep, no system call of the store's own (DESIGN.md §5).
//!
//! In SplitFT mode the WAL is opened with `O_NCL`, so every group commit is
//! a microsecond-scale replicated record instead of a millisecond-scale DFS
//! flush; nothing else changes — that is the entire port, exactly as in the
//! paper (10 LOC for RocksDB).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};

use parking_lot::{Condvar, Mutex, RwLock};
use splitfs::{File, OpenOptions, SplitFs};

use super::manifest::{Edit, Manifest};
use super::memtable::MemTable;
use super::sstable::{SstBuilder, SstReader};
use crate::kv::{encode_record_into, replay_records, AppError, Entry, KvApp};

/// Tuning knobs for [`MiniRocks`].
#[derive(Debug, Clone)]
pub struct RocksOptions {
    /// Memtable size that triggers a flush.
    pub memtable_bytes: usize,
    /// WAL region capacity (the log size the application would configure;
    /// NCL allocates peer memory of this size).
    pub wal_capacity: usize,
    /// SSTable block size.
    pub block_size: usize,
    /// Bloom filter density.
    pub bloom_bits_per_key: usize,
    /// Number of L0 files that triggers compaction into L1.
    pub l0_compaction_trigger: usize,
    /// L0 file count at which writers stall waiting for compaction.
    pub l0_stall_trigger: usize,
    /// Target size of compacted L1 files.
    pub target_sst_bytes: usize,
    /// Maximum requests a leader takes into one write group (its own
    /// included); the rest of the queue leads the group after.
    pub batch_max: usize,
    /// Open the WAL in pipelined mode: the leader's `write_at` only stages
    /// the group's record, `submit` rings one doorbell per peer and `fsync`
    /// is the barrier, instead of a `write_at` that replicates before it
    /// returns. Only changes behaviour on an NCL-backed WAL; either way one
    /// group is in flight at a time and groups are acknowledged in order.
    pub pipelined_wal: bool,
}

impl Default for RocksOptions {
    fn default() -> Self {
        RocksOptions {
            memtable_bytes: 4 << 20,
            wal_capacity: 16 << 20,
            block_size: 4096,
            bloom_bits_per_key: 10,
            l0_compaction_trigger: 4,
            l0_stall_trigger: 10,
            target_sst_bytes: 4 << 20,
            batch_max: 64,
            pipelined_wal: true,
        }
    }
}

impl RocksOptions {
    /// Small limits for tests, forcing frequent flush/compaction activity.
    pub fn tiny() -> Self {
        RocksOptions {
            memtable_bytes: 4 << 10,
            wal_capacity: 64 << 10,
            block_size: 512,
            l0_compaction_trigger: 2,
            l0_stall_trigger: 6,
            target_sst_bytes: 8 << 10,
            ..RocksOptions::default()
        }
    }
}

/// The queue of the leader–follower group commit as a pure state machine:
/// no thread, lock or clock in it — [`MiniRocks::write_batch`] brings those.
/// Writers are known by *tickets*, handed out in arrival order, so a group
/// is a run of consecutive tickets starting at its leader's.
struct WriteQueue<T> {
    batch_max: usize,
    next_ticket: u64,
    /// Who leads the group in flight, or has been promoted to lead the next
    /// one. `None` exactly while nothing is queued and nothing in flight.
    leader: Option<u64>,
    /// Size of the group in flight, its leader included.
    in_flight: usize,
    /// Requests no group has taken yet, oldest first; the last one holds
    /// ticket `next_ticket - 1`.
    queued: VecDeque<T>,
    /// Results of finished groups their followers have yet to collect.
    results: Vec<(u64, Result<(), AppError>)>,
}

/// What a writer does next.
#[derive(Debug, PartialEq)]
enum Turn {
    /// Take a batch, commit it, `finish` it.
    Lead,
    /// A group this request belongs to, or queues behind, is in flight.
    Wait,
    /// The leader of this request's group finished it.
    Done(Result<(), AppError>),
}

impl<T> WriteQueue<T> {
    fn new(batch_max: usize) -> Self {
        WriteQueue {
            batch_max: batch_max.max(1),
            next_ticket: 0,
            leader: None,
            in_flight: 0,
            queued: VecDeque::new(),
            results: Vec::new(),
        }
    }

    /// Enqueues a request; with no group in flight its writer leads.
    fn join(&mut self, req: T) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.queued.push_back(req);
        self.leader.get_or_insert(ticket);
        ticket
    }

    fn turn(&mut self, ticket: u64) -> Turn {
        if let Some(i) = self.results.iter().position(|(t, _)| *t == ticket) {
            Turn::Done(self.results.swap_remove(i).1)
        } else if self.leader == Some(ticket) {
            Turn::Lead
        } else {
            Turn::Wait
        }
    }

    /// Moves the leader's group — its own request first, then the queue up
    /// to `batch_max` — onto `batch`.
    fn take_batch(&mut self, batch: &mut Vec<T>) {
        self.in_flight = self.queued.len().min(self.batch_max);
        batch.extend(self.queued.drain(..self.in_flight));
    }

    /// Ends the group in flight: files `result` for each follower and
    /// promotes the head of the queue, if there is one. Returns whom to
    /// wake, in that order: the promoted leader, then the followers.
    fn finish(&mut self, result: &Result<(), AppError>) -> impl Iterator<Item = u64> {
        let leader = self.leader.take().expect("a group is in flight");
        let followers = leader + 1..leader + self.in_flight as u64;
        self.in_flight = 0;
        self.results
            .extend(followers.clone().map(|t| (t, result.clone())));
        if !self.queued.is_empty() {
            self.leader = Some(self.next_ticket - self.queued.len() as u64);
        }
        self.leader.into_iter().chain(followers)
    }
}

/// The queue and the sleepers on it.
struct Writers {
    queue: WriteQueue<Vec<Entry>>,
    /// Every writer asleep in `write_batch`, by ticket.
    parked: Vec<(u64, Thread)>,
}

/// The active WAL and the leader's scratch: touched only by the leader of
/// the group in flight, so its lock never waits.
struct Wal {
    file: File,
    number: u64,
    written: usize,
    /// The group's requests and its encoded record; both keep their
    /// capacity from group to group.
    batch: Vec<Vec<Entry>>,
    record: Vec<u8>,
    /// Taken on drop, so the flush thread sees its channel close.
    flush_tx: Option<Sender<FlushJob>>,
}

/// A leader's request to rotate away from WAL `wal_number`. The flush thread
/// creates the next WAL, freezes the memtable, answers with the new WAL and
/// then flushes what it froze: every WAL image is allocated by the store's
/// one thread, not left in the malloc arena of whichever client led. Served
/// in order, so at most one frozen memtable waits: a leader that fills the
/// next one meanwhile waits too, RocksDB's default write-buffer limit.
struct FlushJob {
    wal_number: u64,
    next_wal: SyncSender<Result<(u64, File), AppError>>,
}

/// The flush thread's ledger. A job — one [`FlushJob`] or, as job 0, the
/// compaction check after recovery — is done once all of it has ended and
/// been published, on every path, so a waiter that checks under the lock
/// misses no wake-up.
struct Jobs {
    asked: u64,
    done: u64,
}

/// `[0]`: L0, newest last. `[1]`: L1, disjoint, sorted by first key.
type Levels = [Vec<Arc<SstReader>>; 2];

struct State {
    mem: MemTable,
    /// Frozen memtables awaiting flush, oldest first, with their WALs.
    frozen: Vec<(u64, Arc<MemTable>)>,
    /// The live tables, published whole: a flush or compaction installs a
    /// new `Levels` under the write lock, a reader that misses the
    /// memtables takes the `Arc` and searches with no lock held.
    levels: Arc<Levels>,
}

struct Inner {
    fs: SplitFs,
    prefix: String,
    opts: RocksOptions,
    state: RwLock<State>,
    manifest: Mutex<Manifest>,
    next_file: AtomicU64,
    seq: AtomicU64,
    writers: Mutex<Writers>,
    wal: Mutex<Wal>,
    jobs: Mutex<Jobs>,
    /// Signalled each time a job ends.
    job_done: Condvar,
    stalls: AtomicU64,
    compactions: AtomicU64,
    flushes: AtomicU64,
}

/// A RocksDB-style LSM key-value store over the SplitFT facade.
pub struct MiniRocks {
    inner: Arc<Inner>,
    flush_thread: Option<JoinHandle<()>>,
}

impl MiniRocks {
    /// Opens (creating or recovering) a database named `prefix` on `fs`.
    ///
    /// Recovery replays the manifest to find live SSTables and WALs, replays
    /// every intact WAL record (in SplitFT mode the `open` of each WAL is
    /// the NCL `recover` call), flushes the recovered memtable, and starts
    /// fresh.
    pub fn open(fs: SplitFs, prefix: &str, opts: RocksOptions) -> Result<Self, AppError> {
        let manifest_path = format!("{prefix}MANIFEST");
        let (mut manifest, version) = Manifest::open(&fs, &manifest_path)?;
        let mut next_file = version.max_file_number() + 1;

        // Load live tables.
        let mut levels: Levels = [Vec::new(), Vec::new()];
        for &(level, file) in &version.ssts {
            let reader = SstReader::open(&fs, &sst_name(prefix, file))?;
            levels[level.min(1) as usize].push(Arc::new(reader));
        }
        levels[1].sort_by(|a, b| a.first_key().cmp(b.first_key()));

        // Replay WALs, oldest first.
        let mut recovered = MemTable::new();
        let mut max_seq = 0;
        let mut wals = version.wals.clone();
        wals.sort_unstable();
        for wal in &wals {
            let path = wal_name(prefix, *wal);
            if !fs.exists(&path) {
                continue; // Crash between manifest edit and file creation.
            }
            let file = fs.open(
                &path,
                open_wal_opts(opts.wal_capacity, false, opts.pipelined_wal),
            )?;
            let size = file.size()? as usize;
            let buf = file.read(0, size)?;
            let (seq, batches) = replay_records(&buf);
            for entry in batches.into_iter().flatten() {
                recovered.apply(entry);
            }
            max_seq = max_seq.max(seq);
        }

        // Flush the recovered memtable so the old WALs can be dropped.
        if !recovered.is_empty() {
            let file_no = next_file;
            next_file += 1;
            let mut builder = SstBuilder::new(opts.block_size, opts.bloom_bits_per_key);
            for (k, v) in recovered.iter() {
                builder.add(k, v);
            }
            let reader = builder.finish(&fs, &sst_name(prefix, file_no))?;
            let mut edits = vec![Edit::AddSst {
                level: 0,
                file: file_no,
            }];
            edits.extend(wals.iter().map(|&w| Edit::RemoveWal { file: w }));
            manifest.log(&edits)?;
            levels[0].push(Arc::new(reader));
        } else if !wals.is_empty() {
            let edits: Vec<Edit> = wals.iter().map(|&w| Edit::RemoveWal { file: w }).collect();
            manifest.log(&edits)?;
        }
        for wal in &wals {
            let path = wal_name(prefix, *wal);
            if fs.exists(&path) {
                let _ = fs.unlink(&path);
            }
        }
        // Reap orphan WALs (created but never recorded, or recorded-removed
        // but not deleted before the crash).
        for orphan in fs.list(&format!("{prefix}wal-")).unwrap_or_default() {
            let _ = fs.unlink(&orphan);
        }

        // Fresh WAL for new writes.
        let wal_number = next_file;
        next_file += 1;
        let wal_file = fs.open(
            &wal_name(prefix, wal_number),
            open_wal_opts(opts.wal_capacity, true, opts.pipelined_wal),
        )?;
        manifest.log(&[Edit::AddWal { file: wal_number }])?;

        let (flush_tx, flush_rx) = channel::<FlushJob>();
        let inner = Arc::new(Inner {
            fs,
            prefix: prefix.to_string(),
            state: RwLock::new(State {
                mem: MemTable::new(),
                frozen: Vec::new(),
                levels: Arc::new(levels),
            }),
            manifest: Mutex::new(manifest),
            next_file: AtomicU64::new(next_file),
            seq: AtomicU64::new(max_seq + 1),
            writers: Mutex::new(Writers {
                queue: WriteQueue::new(opts.batch_max),
                parked: Vec::new(),
            }),
            wal: Mutex::new(Wal {
                file: wal_file,
                number: wal_number,
                written: 0,
                batch: Vec::new(),
                record: Vec::new(),
                flush_tx: Some(flush_tx),
            }),
            jobs: Mutex::new(Jobs { asked: 1, done: 0 }),
            job_done: Condvar::new(),
            stalls: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            opts,
        });
        let flush_thread = Some(spawn_flush_thread(Arc::clone(&inner), flush_rx));
        Ok(MiniRocks {
            inner,
            flush_thread,
        })
    }

    /// Applies a batch of entries atomically and durably (per the mounted
    /// mode's guarantee): on this thread if it leads the batch's write
    /// group, on the leader's otherwise.
    pub fn write_batch(&self, entries: Vec<Entry>) -> Result<(), AppError> {
        let inner = &*self.inner;
        let mut writers = inner.writers.lock();
        let me = writers.queue.join(entries);
        let mut parked = false;
        loop {
            match writers.queue.turn(me) {
                Turn::Done(result) => return result,
                Turn::Lead => break,
                Turn::Wait => {
                    if !parked {
                        writers.parked.push((me, std::thread::current()));
                        parked = true;
                    }
                    drop(writers);
                    std::thread::park();
                    writers = inner.writers.lock();
                }
            }
        }
        // The last leader let go of the WAL before it promoted this one.
        let mut wal = inner.wal.lock();
        writers.queue.take_batch(&mut wal.batch);
        drop(writers);
        let result = inner.commit(&mut wal);
        wal.batch.clear();
        drop(wal);

        let mut writers = inner.writers.lock();
        // The next leader first: the WAL idles until it runs, a follower
        // only has to return. (Nobody to wake allocates nothing.)
        let sleepers: Vec<Thread> = (writers.queue.finish(&result))
            .filter_map(|ticket| {
                let i = writers.parked.iter().position(|(t, _)| *t == ticket)?;
                Some(writers.parked.swap_remove(i).1)
            })
            .collect();
        // Woken with the queue free: each of them takes it first thing.
        drop(writers);
        sleepers.iter().for_each(Thread::unpark);
        result
    }

    /// Inserts or overwrites one key.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), AppError> {
        self.write_batch(vec![Entry::Put {
            key: key.to_vec(),
            value: value.to_vec(),
        }])
    }

    /// Deletes one key.
    pub fn delete(&self, key: &[u8]) -> Result<(), AppError> {
        self.write_batch(vec![Entry::Delete { key: key.to_vec() }])
    }

    /// Point lookup through memtable → frozen → L0 → L1.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, AppError> {
        // Reading a snapshotted table can race a compaction that has
        // already deleted its file; the replacement tables are always
        // published before the inputs are unlinked, so re-snapshotting is
        // guaranteed to observe a consistent newer state.
        let mut attempts = 0;
        loop {
            // The memtables under the lock, the tables without it.
            let levels = {
                let st = self.inner.state.read();
                let memtables =
                    std::iter::once(&st.mem).chain(st.frozen.iter().rev().map(|(_, m)| &**m));
                for mem in memtables {
                    if let Some(v) = mem.get(key) {
                        return Ok(v.map(<[u8]>::to_vec));
                    }
                }
                Arc::clone(&st.levels)
            };
            let mut raced = false;
            for reader in levels[0].iter().rev().chain(levels[1].iter()) {
                match reader.get(key) {
                    Ok(Some(v)) => return Ok(v),
                    Ok(None) => {}
                    Err(e) => {
                        attempts += 1;
                        if attempts > 3 {
                            return Err(e);
                        }
                        raced = true;
                        break;
                    }
                }
            }
            if !raced {
                return Ok(None);
            }
        }
    }

    /// Number of background flushes performed.
    pub fn flush_count(&self) -> u64 {
        self.inner.flushes.load(Ordering::Relaxed)
    }

    /// Number of compactions performed.
    pub fn compaction_count(&self) -> u64 {
        self.inner.compactions.load(Ordering::Relaxed)
    }

    /// Number of times a leader waited for a flush job to end because L0
    /// was at the stall trigger (back-pressure): a count of waits, not of
    /// time stalled.
    pub fn stall_count(&self) -> u64 {
        self.inner.stalls.load(Ordering::Relaxed)
    }

    /// Current L0/L1 file counts (introspection for tests and benches).
    pub fn level_file_counts(&self) -> (usize, usize) {
        let st = self.inner.state.read();
        (st.levels[0].len(), st.levels[1].len())
    }
}

impl Drop for MiniRocks {
    fn drop(&mut self) {
        // `&mut self`: no write is in flight. Let the flush thread drain.
        self.inner.wal.lock().flush_tx.take();
        if let Some(t) = self.flush_thread.take() {
            let _ = t.join();
        }
    }
}

impl KvApp for MiniRocks {
    fn insert(&self, key: &str, value: &[u8]) -> Result<(), AppError> {
        self.put(key.as_bytes(), value)
    }

    fn update(&self, key: &str, value: &[u8]) -> Result<(), AppError> {
        self.put(key.as_bytes(), value)
    }

    fn read(&self, key: &str) -> Result<Option<Vec<u8>>, AppError> {
        self.get(key.as_bytes())
    }

    /// Waits until every flush job asked for has ended, compaction included.
    fn quiesce(&self) {
        let mut jobs = self.inner.jobs.lock();
        while jobs.done < jobs.asked {
            self.inner.job_done.wait(&mut jobs);
        }
    }
}

fn wal_name(prefix: &str, n: u64) -> String {
    format!("{prefix}wal-{n:06}.log")
}

fn sst_name(prefix: &str, n: u64) -> String {
    format!("{prefix}sst-{n:06}.sst")
}

fn open_wal_opts(capacity: usize, create: bool, pipelined: bool) -> OpenOptions {
    OpenOptions {
        create,
        ncl: true,
        capacity,
        pipelined,
    }
}

impl Inner {
    /// Commits the write group in `wal.batch` on the calling thread, the
    /// group's leader; no other group is in flight.
    fn commit(&self, wal: &mut Wal) -> Result<(), AppError> {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        encode_record_into(&mut wal.record, seq, wal.batch.iter().flatten());

        // L0 back-pressure: wait for the flush thread's jobs ([`Jobs`]).
        let mut jobs = self.jobs.lock();
        while self.state.read().levels[0].len() >= self.opts.l0_stall_trigger {
            self.stalls.fetch_add(1, Ordering::Relaxed);
            self.job_done.wait(&mut jobs);
        }
        drop(jobs);
        // Rotate first if this record would overflow the WAL region.
        if wal.written + wal.record.len() > self.opts.wal_capacity * 9 / 10 {
            self.rotate(wal)?;
        }
        // One write system call for the whole group; on a pipelined WAL it
        // returns with the record merely staged, `submit` rings the doorbell
        // — one batched post per peer — and `fsync` is the barrier.
        wal.file.write_at(wal.written as u64, &wal.record)?;
        wal.file.submit();
        wal.written += wal.record.len();
        wal.file.fsync()?;
        let full = {
            let mut st = self.state.write();
            for entry in wal.batch.drain(..).flatten() {
                st.mem.apply(entry);
            }
            st.mem.approx_bytes() >= self.opts.memtable_bytes
        };
        // Memtable full → freeze and hand to the flusher. The group is
        // durable and applied: a failed rotation fails the next group.
        if full {
            let _ = self.rotate(wal);
        }
        Ok(())
    }

    /// Has the flush thread rotate ([`FlushJob`]); adopts the WAL it answers.
    fn rotate(&self, wal: &mut Wal) -> Result<(), AppError> {
        let (next_wal, answer) = sync_channel(1);
        let job = FlushJob {
            wal_number: wal.number,
            next_wal,
        };
        let jobs = wal.flush_tx.as_ref().ok_or(AppError::Closed)?;
        self.jobs.lock().asked += 1;
        jobs.send(job).map_err(|_| AppError::Closed)?;
        (wal.number, wal.file) = answer.recv().map_err(|_| AppError::Closed)??;
        wal.written = 0;
        Ok(())
    }

    /// The flush thread's half of a rotation, up to its answer. The asking
    /// leader holds the WAL meanwhile, so no write is in flight.
    fn freeze(&self, wal_number: u64) -> Result<(u64, File, Arc<MemTable>), AppError> {
        let new_number = self.next_file.fetch_add(1, Ordering::SeqCst);
        let new_file = self.fs.open(
            &wal_name(&self.prefix, new_number),
            open_wal_opts(self.opts.wal_capacity, true, self.opts.pipelined_wal),
        )?;
        self.manifest
            .lock()
            .log(&[Edit::AddWal { file: new_number }])?;
        let mut st = self.state.write();
        let mem = Arc::new(std::mem::take(&mut st.mem));
        st.frozen.push((wal_number, Arc::clone(&mem)));
        Ok((new_number, new_file, mem))
    }

    fn end_job(&self) {
        self.jobs.lock().done += 1;
        self.job_done.notify_all();
    }
}

fn spawn_flush_thread(inner: Arc<Inner>, rx: Receiver<FlushJob>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("rocks-flush".to_string())
        .spawn(move || {
            // Job 0: recovery adds an L0 table per reopen and no flush job
            // follows it, so check once before waiting for the first one.
            compact_if_due(&inner);
            inner.end_job();
            while let Ok(job) = rx.recv() {
                match inner.freeze(job.wal_number) {
                    Ok((number, file, mem)) => {
                        let _ = job.next_wal.send(Ok((number, file)));
                        match run_flush(&inner, job.wal_number, &mem) {
                            Ok(()) => compact_if_due(&inner),
                            // A failed flush keeps the frozen memtable and
                            // WAL; data stays durable in the WAL.
                            Err(e) => eprintln!("minirocks: flush failed: {e}"),
                        }
                    }
                    Err(e) => _ = job.next_wal.send(Err(e)),
                }
                inner.end_job();
            }
        })
        .expect("spawn flush thread")
}

fn compact_if_due(inner: &Arc<Inner>) {
    if inner.state.read().levels[0].len() >= inner.opts.l0_compaction_trigger {
        if let Err(e) = run_compaction(inner) {
            eprintln!("minirocks: compaction failed: {e}");
        }
    }
}

fn run_flush(inner: &Arc<Inner>, wal_number: u64, mem: &MemTable) -> Result<(), AppError> {
    if mem.is_empty() {
        // Nothing to write; just retire the WAL.
        inner
            .manifest
            .lock()
            .log(&[Edit::RemoveWal { file: wal_number }])?;
        let mut st = inner.state.write();
        st.frozen.retain(|(w, _)| *w != wal_number);
        drop(st);
        let _ = inner.fs.unlink(&wal_name(&inner.prefix, wal_number));
        return Ok(());
    }
    let file_no = inner.next_file.fetch_add(1, Ordering::SeqCst);
    let mut builder = SstBuilder::new(inner.opts.block_size, inner.opts.bloom_bits_per_key);
    for (k, v) in mem.iter() {
        builder.add(k, v);
    }
    // Large background write + fsync to the DFS.
    let reader = builder.finish(&inner.fs, &sst_name(&inner.prefix, file_no))?;
    inner.manifest.lock().log(&[
        Edit::AddSst {
            level: 0,
            file: file_no,
        },
        Edit::RemoveWal { file: wal_number },
    ])?;
    {
        let mut st = inner.state.write();
        Arc::make_mut(&mut st.levels)[0].push(Arc::new(reader));
        st.frozen.retain(|(w, _)| *w != wal_number);
        // Counted before the job ends (`quiesce`).
        inner.flushes.fetch_add(1, Ordering::Relaxed);
    }
    // The log is now redundant: garbage-collect it by deletion (Table 2).
    let _ = inner.fs.unlink(&wal_name(&inner.prefix, wal_number));
    Ok(())
}

fn run_compaction(inner: &Arc<Inner>) -> Result<(), AppError> {
    // Inputs: every L0 table plus all L1 tables (single-run L1).
    let inputs = Arc::clone(&inner.state.read().levels);
    let [l0, l1] = &*inputs;
    if l0.is_empty() {
        return Ok(());
    }
    // Oldest-to-newest apply order: L1 is oldest, then L0 in push order.
    let mut merged: std::collections::BTreeMap<Vec<u8>, Option<Vec<u8>>> =
        std::collections::BTreeMap::new();
    for reader in l1.iter().chain(l0.iter()) {
        for (k, v) in reader.scan_all()? {
            merged.insert(k, v);
        }
    }
    // Bottom level: tombstones can be dropped.
    merged.retain(|_, v| v.is_some());

    // Write out L1 files capped at the target size.
    let mut outputs: Vec<(u64, Arc<SstReader>)> = Vec::new();
    let mut builder = SstBuilder::new(inner.opts.block_size, inner.opts.bloom_bits_per_key);
    let mut built_bytes = 0usize;
    let mut file_no = inner.next_file.fetch_add(1, Ordering::SeqCst);
    for (k, v) in &merged {
        builder.add(k, v.as_deref());
        built_bytes += k.len() + v.as_ref().map(|x| x.len()).unwrap_or(0) + 16;
        if built_bytes >= inner.opts.target_sst_bytes {
            let reader = builder.finish(&inner.fs, &sst_name(&inner.prefix, file_no))?;
            outputs.push((file_no, Arc::new(reader)));
            builder = SstBuilder::new(inner.opts.block_size, inner.opts.bloom_bits_per_key);
            built_bytes = 0;
            file_no = inner.next_file.fetch_add(1, Ordering::SeqCst);
        }
    }
    if built_bytes > 0 || outputs.is_empty() {
        let reader = builder.finish(&inner.fs, &sst_name(&inner.prefix, file_no))?;
        outputs.push((file_no, Arc::new(reader)));
    }

    // Publish the edit.
    let mut edits = Vec::new();
    for r in l0.iter().chain(l1.iter()) {
        let n = file_number_of(r.path());
        edits.push(Edit::RemoveSst { file: n });
    }
    for (n, _) in &outputs {
        edits.push(Edit::AddSst { level: 1, file: *n });
    }
    inner.manifest.lock().log(&edits)?;
    {
        let mut st = inner.state.write();
        // Keep any L0 files that were flushed while we compacted.
        let consumed: Vec<String> = l0.iter().map(|r| r.path().to_string()).collect();
        let levels = Arc::make_mut(&mut st.levels);
        levels[0].retain(|r| !consumed.contains(&r.path().to_string()));
        levels[1] = outputs.iter().map(|(_, r)| Arc::clone(r)).collect();
        levels[1].sort_by(|a, b| a.first_key().cmp(b.first_key()));
        // Counted under the lock: whoever sees the new levels sees the count.
        inner.compactions.fetch_add(1, Ordering::Relaxed);
    }
    for r in l0.iter().chain(l1.iter()) {
        let _ = inner.fs.unlink(r.path());
    }
    Ok(())
}

fn file_number_of(path: &str) -> u64 {
    // Paths look like "{prefix}sst-000123.sst" / "{prefix}wal-000123.log".
    let stem = path.rsplit('-').next().unwrap_or("0");
    stem.trim_end_matches(".sst")
        .trim_end_matches(".log")
        .parse()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Joins `n` requests numbered from `from` and returns their tickets.
    fn join_all(q: &mut WriteQueue<u32>, from: u32, n: u32) -> Vec<u64> {
        (from..from + n).map(|req| q.join(req)).collect()
    }

    /// Finishes the group in flight; whom to wake, in order.
    fn finish(q: &mut WriteQueue<u32>, result: Result<(), AppError>) -> Vec<u64> {
        q.finish(&result).collect()
    }

    /// Leads as `ticket`: asserts the turn, takes and returns the batch.
    fn lead(q: &mut WriteQueue<u32>, ticket: u64) -> Vec<u32> {
        assert_eq!(q.turn(ticket), Turn::Lead);
        let mut batch = Vec::new();
        q.take_batch(&mut batch);
        batch
    }

    #[test]
    fn a_single_writer_leads_a_group_of_one_and_wakes_nobody() {
        let mut q = WriteQueue::new(64);
        for req in 0..3 {
            let me = q.join(req);
            assert_eq!(lead(&mut q, me), vec![req]);
            assert_eq!(finish(&mut q, Ok(())), [], "nobody to wake");
            assert!(q.leader.is_none() && q.queued.is_empty() && q.results.is_empty());
        }
    }

    #[test]
    fn joins_during_a_group_follow_and_form_the_next_group() {
        let mut q = WriteQueue::new(64);
        let first = q.join(0);
        assert_eq!(lead(&mut q, first), vec![0]);
        let late = join_all(&mut q, 1, 5);
        for t in &late {
            assert_eq!(q.turn(*t), Turn::Wait, "a group is in flight");
        }

        assert_eq!(finish(&mut q, Ok(())), [late[0]], "the head of the queue");
        for t in &late[1..] {
            assert_eq!(q.turn(*t), Turn::Wait, "queued behind a promoted leader");
        }
        assert_eq!(lead(&mut q, late[0]), vec![1, 2, 3, 4, 5]);

        assert_eq!(finish(&mut q, Ok(())), late[1..], "followers only");
        for t in &late[1..] {
            assert_eq!(q.turn(*t), Turn::Done(Ok(())));
        }
        assert!(q.leader.is_none() && q.results.is_empty());
    }

    #[test]
    fn batch_max_is_honoured_and_the_remainder_leads_the_group_after() {
        let mut q = WriteQueue::new(3);
        let first = q.join(0);
        assert_eq!(lead(&mut q, first), vec![0]);
        let late = join_all(&mut q, 1, 5);
        assert_eq!(finish(&mut q, Ok(())), [late[0]]);

        assert_eq!(lead(&mut q, late[0]), vec![1, 2, 3]);
        let woken = finish(&mut q, Ok(()));
        assert_eq!(woken, [late[3], late[1], late[2]], "next leader first");
        assert_eq!(q.turn(late[4]), Turn::Wait);

        assert_eq!(lead(&mut q, late[3]), vec![4, 5]);
        assert_eq!(finish(&mut q, Ok(())), [late[4]]);
    }

    #[test]
    fn an_error_reaches_every_member_and_no_one_else() {
        let mut q = WriteQueue::new(4);
        let first = q.join(0);
        assert_eq!(lead(&mut q, first), vec![0]);
        let late = join_all(&mut q, 1, 5);
        finish(&mut q, Ok(()));
        assert_eq!(lead(&mut q, late[0]).len(), 4);

        let failed = Err(AppError::Storage("wal write failed".into()));
        assert_eq!(finish(&mut q, failed.clone())[0], late[4]);
        for t in &late[1..4] {
            assert_eq!(q.turn(*t), Turn::Done(failed.clone()));
        }
        // The writer behind the failed group leads its own and succeeds.
        assert_eq!(lead(&mut q, late[4]), vec![5]);
        finish(&mut q, Ok(()));
        assert!(q.results.is_empty());
    }

    #[test]
    fn leadership_is_held_exactly_while_work_is_queued_or_in_flight() {
        // A seeded walk over join / lead / finish, checking after every step.
        let mut q = WriteQueue::new(3);
        let mut rng = sim::Xoshiro256StarStar::new(17);
        let mut committing = false;
        let mut grouped = 0;
        for _ in 0..2_000 {
            if rng.next_below(3) > 0 {
                q.join(q.next_ticket as u32); // A request is its own ticket.
            }
            match q.leader {
                Some(leader) if !committing => {
                    let batch = lead(&mut q, leader);
                    assert!((1..=3).contains(&batch.len()));
                    let tickets = leader as u32..leader as u32 + batch.len() as u32;
                    assert_eq!(batch, tickets.collect::<Vec<_>>(), "own request first");
                    grouped += batch.len() as u64;
                    committing = true;
                }
                Some(_) if rng.next_below(2) == 0 => {
                    let woken = finish(&mut q, Ok(()));
                    assert_eq!(q.leader.is_some(), !q.queued.is_empty());
                    assert!(q.leader.is_none() || woken.first() == q.leader.as_ref());
                    committing = false;
                }
                _ => {}
            }
            assert_eq!(
                q.leader.is_some(),
                committing || !q.queued.is_empty(),
                "leader {:?}, committing {committing}, queued {}",
                q.leader,
                q.queued.len()
            );
        }
        assert_eq!(grouped + q.queued.len() as u64, q.next_ticket);
    }
}
