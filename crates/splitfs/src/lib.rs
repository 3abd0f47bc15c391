//! The SplitFT file facade: POSIX-style files with `O_NCL` routing.
//!
//! SplitFT intercepts file-system operations and directs them either to the
//! underlying disaggregated file system or to NCL (§4.1 of the paper). The
//! classification is **per file and static**: the application tags a file
//! that will receive small, synchronous writes with the `O_NCL` open flag
//! (its write-ahead log, append-only file, ...), and everything else — bulk
//! checkpoint and compaction output — takes the usual DFS path.
//!
//! The same facade also implements the paper's two baselines so that all
//! three configurations run the exact same application code:
//!
//! * [`Mode::StrongDft`] — every `fsync` flushes to the DFS before
//!   returning (strong guarantees, milliseconds per flush);
//! * [`Mode::WeakDft`] — `fsync` is a no-op; the mount's own writes and
//!   `fsync`s post a writeback of its dirty data once per interval, so
//!   acknowledged writes are lost if the application crashes (the weak
//!   configuration the paper's Table 1 contrasts);
//! * [`Mode::SplitFt`] — `O_NCL` files go to near-compute logs (synchronous
//!   replication, microseconds), the rest to the DFS with real `fsync`s;
//! * [`Mode::Local`] — everything on a private one-replica DFS charged
//!   local-SSD costs ([`dfs::DfsConfig::local_ssd`]) with real `fsync`s: the
//!   unrealistic `ext4` reference of Figure 11b.

pub mod fallback;
pub mod spill;
pub mod testbed;

pub use spill::DfsSpillSink;
pub use testbed::{Testbed, TestbedConfig};

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dfs::{DfsClient, DfsError, DfsFile, IoKind, IoTrace};
use fallback::{Fallback, NclRoute};
use ncl::{NclError, NclFile, NclLib};
use parking_lot::Mutex;
use telemetry::{spans, Counter, HistHandle, Telemetry};

/// How the facade maps file operations onto storage tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// DFT with synchronous flushes: strong guarantees, slow small writes.
    StrongDft,
    /// DFT with lazy flushes: fast but loses acknowledged data on a crash.
    WeakDft,
    /// The paper's contribution: `O_NCL` files on near-compute logs, bulk
    /// files on the DFS.
    SplitFt,
    /// Local file system baseline: a strong mount of a one-replica DFS on
    /// local-SSD latencies, which loses unsynced writes at a remount.
    Local,
}

/// Errors from the facade (a union of the tiers' error domains).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Path not found.
    NotFound(String),
    /// Path already exists.
    AlreadyExists(String),
    /// Storage tier failure.
    Unavailable(String),
    /// Operation not supported on this file class (e.g. rename of an ncl
    /// file).
    Unsupported(String),
    /// Capacity of an ncl region exceeded.
    CapacityExceeded(String),
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "no such file: {p}"),
            FsError::AlreadyExists(p) => write!(f, "file exists: {p}"),
            FsError::Unavailable(m) => write!(f, "unavailable: {m}"),
            FsError::Unsupported(m) => write!(f, "unsupported: {m}"),
            FsError::CapacityExceeded(m) => write!(f, "capacity exceeded: {m}"),
        }
    }
}

impl std::error::Error for FsError {}

impl From<DfsError> for FsError {
    fn from(e: DfsError) -> Self {
        match e {
            DfsError::NotFound(p) => FsError::NotFound(p),
            DfsError::AlreadyExists(p) => FsError::AlreadyExists(p),
            DfsError::Unavailable(m) => FsError::Unavailable(m),
            DfsError::Invalid(m) => FsError::Unavailable(m),
        }
    }
}

impl From<NclError> for FsError {
    fn from(e: NclError) -> Self {
        match e {
            NclError::NotFound(p) => FsError::NotFound(p),
            NclError::AlreadyExists(p) => FsError::AlreadyExists(p),
            NclError::CapacityExceeded { capacity, needed } => {
                FsError::CapacityExceeded(format!("need {needed}, capacity {capacity}"))
            }
            other => FsError::Unavailable(other.to_string()),
        }
    }
}

/// Options for [`SplitFs::open`], mirroring the POSIX flags the paper's
/// port touches: `O_CREAT` and the new `O_NCL`.
#[derive(Debug, Clone, Copy)]
pub struct OpenOptions {
    /// Create the file if it does not exist.
    pub create: bool,
    /// Tag the file as an ncl file (small synchronous writes). Ignored —
    /// exactly like an unknown `open` flag — outside [`Mode::SplitFt`].
    pub ncl: bool,
    /// Region capacity for ncl files (the application's configured log
    /// size). Ignored for non-ncl files.
    pub capacity: usize,
    /// Route writes through the pipelined NCL path: `write` posts the
    /// record without waiting ([`ncl::NclFile::record_nowait`]) and `fsync`
    /// is the durability barrier. For applications with their own group
    /// commit this overlaps replication of consecutive records. Ignored for
    /// non-ncl files.
    pub pipelined: bool,
}

impl OpenOptions {
    /// Plain open of an existing file.
    pub fn plain() -> Self {
        OpenOptions {
            create: false,
            ncl: false,
            capacity: 0,
            pipelined: false,
        }
    }

    /// `O_CREAT` for a bulk (non-ncl) file.
    pub fn create() -> Self {
        OpenOptions {
            create: true,
            ..Self::plain()
        }
    }

    /// `O_CREAT | O_NCL` with the given log capacity; every write is
    /// synchronously durable (the paper's baseline semantics).
    pub fn create_ncl(capacity: usize) -> Self {
        OpenOptions {
            ncl: true,
            capacity,
            ..Self::create()
        }
    }

    /// `O_CREAT | O_NCL` with pipelined writes: durability is deferred to
    /// the `fsync` barrier, letting consecutive records' replication
    /// overlap.
    pub fn create_ncl_pipelined(capacity: usize) -> Self {
        OpenOptions {
            pipelined: true,
            ..Self::create_ncl(capacity)
        }
    }
}

struct FsInner {
    mode: Mode,
    dfs: DfsClient,
    ncl: Option<NclLib>,
    ncl_files: Mutex<HashMap<String, Arc<NclRoute>>>,
    trace: Mutex<Option<Arc<IoTrace>>>,
    /// Set once `trace` holds a trace, so an NCL write with none attached
    /// takes no lock.
    traced: AtomicBool,
    /// Weak DFT only: the writeback interval and when the next is due.
    writeback: Option<(Duration, Mutex<Instant>)>,
    /// Phase breakdown of the most recent NCL file recovery (Figure 11b).
    last_recovery: Mutex<Option<ncl::file::RecoveryStats>>,
    /// Shared telemetry handle (inherited from the NCL library when
    /// mounted in SplitFT mode; disabled otherwise).
    telemetry: Telemetry,
    /// Latency of bulk writes taking the DFS route.
    dfs_write: HistHandle,
    /// Latency of the `fsync` durability barrier, whichever tier serves it.
    fsync_barrier: HistHandle,
    /// Times a route degraded to the DFS shadow journal on quorum loss.
    fallback_engaged: Counter,
    /// Records accepted while degraded (each synchronously on the DFS).
    fallback_records: Counter,
    /// Times a degraded route replayed its journal and re-attached to NCL.
    fallback_reattach: Counter,
}

/// The mounted SplitFT facade (see module docs).
#[derive(Clone)]
pub struct SplitFs {
    inner: Arc<FsInner>,
}

impl SplitFs {
    fn new(mode: Mode, dfs: DfsClient, ncl: Option<NclLib>) -> Self {
        let telemetry = ncl
            .as_ref()
            .map(|n| n.telemetry().clone())
            .unwrap_or_else(Telemetry::disabled);
        SplitFs {
            inner: Arc::new(FsInner {
                mode,
                dfs,
                ncl,
                ncl_files: Mutex::new(HashMap::new()),
                trace: Mutex::new(None),
                traced: AtomicBool::new(false),
                writeback: None,
                last_recovery: Mutex::new(None),
                dfs_write: telemetry.histogram("splitfs.dfs.write"),
                fsync_barrier: telemetry.histogram("splitfs.fsync.barrier"),
                fallback_engaged: telemetry.counter("splitfs.fallback.engaged"),
                fallback_records: telemetry.counter("splitfs.fallback.records"),
                fallback_reattach: telemetry.counter("splitfs.fallback.reattach"),
                telemetry,
            }),
        }
    }

    /// Strong DFT: every fsync is a synchronous replicated flush.
    pub fn dft_strong(dfs: DfsClient) -> Self {
        SplitFs::new(Mode::StrongDft, dfs, None)
    }

    /// Weak DFT: fsync is a no-op; once every `flush_interval` (1 s is a
    /// typical weak-configuration value) the mount's next write or `fsync`
    /// posts a writeback of its dirty data without waiting. A crash loses
    /// what no writeback posted.
    pub fn dft_weak(dfs: DfsClient, flush_interval: Duration) -> Self {
        let mut fs = SplitFs::new(Mode::WeakDft, dfs, None);
        let due = Mutex::new(sim::time::now() + flush_interval);
        Arc::get_mut(&mut fs.inner).expect("unshared").writeback = Some((flush_interval, due));
        fs
    }

    /// SplitFT: `O_NCL` files on near-compute logs, the rest on the DFS.
    pub fn splitft(dfs: DfsClient, ncl: NclLib) -> Self {
        SplitFs::new(Mode::SplitFt, dfs, Some(ncl))
    }

    /// Local file system baseline: `dfs` mounts a store started with
    /// [`dfs::DfsConfig::local_ssd`], and every `fsync` flushes to it.
    pub fn local(dfs: DfsClient) -> Self {
        SplitFs::new(Mode::Local, dfs, None)
    }

    /// The mounted mode.
    pub fn mode(&self) -> Mode {
        self.inner.mode
    }

    /// Attaches an IO trace that records NCL record sizes and DFS flush
    /// sizes (the Figure 1 measurement).
    pub fn set_trace(&self, trace: Arc<IoTrace>) {
        self.inner.dfs.set_trace(Arc::clone(&trace));
        *self.inner.trace.lock() = Some(trace);
        self.inner.traced.store(true, Ordering::Release);
    }

    /// Access to the NCL library (SplitFT mode only).
    pub fn ncl(&self) -> Option<&NclLib> {
        self.inner.ncl.as_ref()
    }

    /// The facade's telemetry handle — the same registry and span trace
    /// the NCL library records into (disabled outside SplitFT mode).
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// Access to the DFS client: always `Some`, since every mode mounts one
    /// (Local's is its private store).
    pub fn dfs(&self) -> Option<&DfsClient> {
        Some(&self.inner.dfs)
    }

    /// Phase breakdown of the most recent NCL recovery triggered through
    /// this facade (used by the Figure 11b harness).
    pub fn last_ncl_recovery(&self) -> Option<ncl::file::RecoveryStats> {
        *self.inner.last_recovery.lock()
    }

    fn is_ncl_route(&self, opts: &OpenOptions) -> bool {
        self.inner.mode == Mode::SplitFt && opts.ncl
    }

    /// Opens (optionally creating) a file.
    pub fn open(&self, path: &str, opts: OpenOptions) -> Result<File, FsError> {
        if self.is_ncl_route(&opts) {
            let ncl = self.inner.ncl.as_ref().expect("splitft mode has ncl");
            // Reuse an already-open handle (multiple writers of one WAL).
            if let Some(r) = self.inner.ncl_files.lock().get(path) {
                return Ok(File {
                    fs: self.clone(),
                    path: path.to_string(),
                    backend: Backend::Ncl(Arc::clone(r)),
                    pipelined: opts.pipelined,
                });
            }
            let exists = ncl.exists(path)?;
            let file = if exists {
                // An open of an existing ncl file during application
                // recovery triggers the recover call (§4.2).
                match ncl.recover(path) {
                    Ok(f) => {
                        *self.inner.last_recovery.lock() = Some(f.recovery_stats());
                        f
                    }
                    Err(NclError::QuorumUnavailable(m)) => {
                        // More than `f` peers died while the route was
                        // degraded; the shadow journal snapshotted at engage
                        // time holds everything issued. Rebuild the log on a
                        // fresh peer set at a bumped epoch instead of
                        // failing the open.
                        self.rebuild_from_shadow(path, opts.capacity)?
                            .ok_or(FsError::Unavailable(format!("quorum unavailable: {m}")))?
                    }
                    Err(e) => return Err(e.into()),
                }
            } else if opts.create {
                ncl.create(path, opts.capacity)?
            } else {
                return Err(FsError::NotFound(path.to_string()));
            };
            if exists {
                // A crash while degraded left a shadow journal behind; bring
                // the recovered log up to date before serving the handle.
                if let Some(frames) = fallback::read_journal(&self.inner.dfs, path)? {
                    self.replay_journal(path, &file, &frames, "at open")?;
                }
            }
            let route = NclRoute::new(file);
            self.inner
                .ncl_files
                .lock()
                .insert(path.to_string(), Arc::clone(&route));
            return Ok(File {
                fs: self.clone(),
                path: path.to_string(),
                backend: Backend::Ncl(route),
                pipelined: opts.pipelined,
            });
        }
        let dfs = &self.inner.dfs;
        if !dfs.exists(path) {
            if opts.create {
                dfs.create(path)?;
            } else {
                return Err(FsError::NotFound(path.to_string()));
            }
        }
        Ok(File {
            fs: self.clone(),
            path: path.to_string(),
            backend: Backend::Dfs(dfs.open(path)?),
            pipelined: false,
        })
    }

    /// True when the path exists on any tier.
    pub fn exists(&self, path: &str) -> bool {
        if let Some(ncl) = &self.inner.ncl {
            if ncl.exists(path).unwrap_or(false) {
                return true;
            }
        }
        self.inner.dfs.exists(path)
    }

    /// Removes a file. For ncl files this is the `release` path: the log
    /// peers' regions are freed (the application just checkpointed and is
    /// garbage-collecting its log).
    pub fn unlink(&self, path: &str) -> Result<(), FsError> {
        if let Some(ncl) = &self.inner.ncl {
            if ncl.exists(path)? {
                if let Some(open) = self.inner.ncl_files.lock().remove(path) {
                    open.file.release()?;
                } else {
                    ncl.delete(path)?;
                }
                // The log is gone; any shadow journal of it is stale.
                let shadow = fallback::shadow_path(path);
                if self.inner.dfs.exists(&shadow) {
                    self.inner.dfs.delete(&shadow)?;
                }
                return Ok(());
            }
        }
        Ok(self.inner.dfs.delete(path)?)
    }

    /// Renames a bulk file. NCL files cannot be renamed (the applications
    /// ported in the paper never rename their logs — they delete or reuse
    /// them, Table 2).
    pub fn rename(&self, old: &str, new: &str) -> Result<(), FsError> {
        if let Some(ncl) = &self.inner.ncl {
            if ncl.exists(old)? {
                return Err(FsError::Unsupported("rename of an ncl file".to_string()));
            }
        }
        Ok(self.inner.dfs.rename(old, new)?)
    }

    /// Lists files with the given prefix across tiers (sorted, deduped).
    pub fn list(&self, prefix: &str) -> Result<Vec<String>, FsError> {
        let mut out = Vec::new();
        if let Some(ncl) = &self.inner.ncl {
            out.extend(
                ncl.list_files()?
                    .into_iter()
                    .filter(|f| f.starts_with(prefix)),
            );
        }
        out.extend(self.inner.dfs.list(prefix)?);
        out.sort();
        out.dedup();
        Ok(out)
    }

    /// Weak DFT, after the mount's own writes and `fsync`s: posts a
    /// writeback of every dirty file once one is due, unless another thread
    /// is checking. Best-effort, like a kernel's: a failed flush leaves its
    /// data dirty for the next.
    fn writeback_if_due(&self) {
        let Some((interval, due)) = &self.inner.writeback else {
            return;
        };
        let (now, due) = (sim::time::now(), due.try_lock());
        if let Some(mut due) = due.filter(|due| now >= **due) {
            *due = now + *interval;
            let _ = self.inner.dfs.flush_all_at(now);
        }
    }

    fn trace_ncl_write(&self, path: &str, bytes: usize) {
        if !self.inner.traced.load(Ordering::Acquire) {
            return;
        }
        if let Some(t) = self.inner.trace.lock().as_ref() {
            t.record(path, IoKind::FlushWrite, bytes);
        }
    }

    /// Degrades a route to direct-DFS strong mode after a quorum loss: the
    /// NCL staged image (which already contains every issued record,
    /// acknowledged or not) is snapshotted into the shadow journal with a
    /// synchronous flush, and subsequent records append to the journal until
    /// [`SplitFs::probe_reattach`] succeeds. Idempotent under races: the
    /// first caller through the lock engages, the rest observe it.
    fn engage_fallback(
        &self,
        path: &str,
        route: &NclRoute,
        cause: &NclError,
    ) -> Result<(), FsError> {
        let mut fb = route.fb.lock();
        if route.engaged() {
            return Ok(());
        }
        let dfs = &self.inner.dfs;
        let shadow = fallback::shadow_path(path);
        let image = route.file.contents();
        if dfs.exists(&shadow) {
            dfs.delete(&shadow)?;
        }
        dfs.create(&shadow)?;
        if !image.is_empty() {
            dfs.append(&shadow, &fallback::encode_frame(0, &image))?;
        }
        dfs.fsync(&shadow)?;
        fb.len = image.len() as u64;
        fb.image = image;
        fb.records.clear();
        route.set_engaged(&mut fb, true);
        fb.last_probe = sim::time::now();
        self.inner.fallback_engaged.inc();
        self.inner.telemetry.fact(
            spans::DFS_FALLBACK_ENGAGE,
            &self.ncl_scope(path),
            route.file.epoch(),
            format!("quorum unreachable ({cause}); new records go direct-dfs"),
        );
        Ok(())
    }

    /// Accepts one record while degraded, at `at` or at the end of the file
    /// when `None`: append a journal frame, `fsync` it (strong-mode
    /// semantics — the record is durable on the DFS before the call
    /// returns), and update the read overlay. A record past the log's
    /// capacity is refused, as NCL would refuse it: the journal only holds
    /// what a re-attach can replay. Returns the offset written.
    fn degraded_write(
        &self,
        path: &str,
        route: &NclRoute,
        at: Option<u64>,
        data: &[u8],
    ) -> Result<u64, FsError> {
        let mut fb = route.fb.lock();
        if !route.engaged() {
            // Re-attached under our feet; the caller retries through NCL.
            return Err(FsError::Unavailable("fallback disengaged".to_string()));
        }
        let offset = at.unwrap_or(fb.len);
        let capacity = route.file.capacity();
        let needed = fallback::frame_end(offset, data.len()).unwrap_or(usize::MAX);
        if needed > capacity {
            return Err(NclError::CapacityExceeded { capacity, needed }.into());
        }
        let dfs = &self.inner.dfs;
        let shadow = fallback::shadow_path(path);
        dfs.append(&shadow, &fallback::encode_frame(offset, data))?;
        dfs.fsync(&shadow)?;
        fb.apply(offset, data);
        self.inner.fallback_records.inc();
        Ok(offset)
    }

    /// While degraded, periodically retries NCL maintenance; once a fresh
    /// peer set is published (bumped epoch), replays the queued records
    /// through the log, deletes the journal, and disengages. Returns `true`
    /// when the route is attached to NCL (i.e. not, or no longer, degraded).
    fn probe_reattach(&self, path: &str, route: &NclRoute) -> bool {
        let mut fb = route.fb.lock();
        if !route.engaged() {
            return true;
        }
        let ncl = self.inner.ncl.as_ref().expect("splitft mode has ncl");
        let now = sim::time::now();
        if now.duration_since(fb.last_probe) < ncl.config().reattach_probe {
            return false;
        }
        fb.last_probe = now;
        // Repair the peer set (replacement + catch-up of the pre-degradation
        // image happens inside `maintain`). Failure means the cluster still
        // cannot host a quorum: stay degraded. A failed replay keeps every
        // record queued and the journal intact for the next probe.
        if route.file.maintain().is_err()
            || route.file.repair_pending()
            || self
                .replay_journal(path, &route.file, &fb.records, "on re-attach")
                .is_err()
        {
            return false;
        }
        *fb = Fallback::new();
        route.set_engaged(&mut fb, false);
        true
    }

    /// Rebuilds an ncl file whose peer quorum is gone from its shadow
    /// journal: the engage-time snapshot (frame 0) plus every degraded
    /// record hold everything ever issued, so the log is recreated on a
    /// fresh peer set at a bumped epoch and replayed. Returns `Ok(None)`
    /// when no journal exists (a plain > `f` failure, outside both the NCL
    /// fault model and the fallback's protection).
    fn rebuild_from_shadow(
        &self,
        path: &str,
        capacity: usize,
    ) -> Result<Option<Arc<NclFile>>, FsError> {
        let Some(frames) = fallback::read_journal(&self.inner.dfs, path)? else {
            return Ok(None);
        };
        let mut ends = frames.iter().map(|(o, d)| fallback::frame_end(*o, d.len()));
        let needed = ends
            .try_fold(capacity, |cap, end| Some(cap.max(end?)))
            .ok_or_else(|| FsError::CapacityExceeded("journal frame ends past usize".into()))?;
        let ncl = self.inner.ncl.as_ref().expect("splitft mode has ncl");
        ncl.delete(path)?;
        let file = ncl.create(path, needed)?;
        self.replay_journal(path, &file, &frames, "into a log rebuilt after quorum loss")?;
        Ok(Some(file))
    }

    /// The one journal replay: stages every frame into `file`, waits once,
    /// and closes one `splitfs.reattach.replay` span over it all, which exempts
    /// the replay's root writes from "no new acks while degraded". Then
    /// deletes the journal and reports the re-attach. A failure (a frame
    /// past the log's capacity included) leaves the journal to be replayed
    /// whole next time: a frame replayed twice lands the same bytes.
    fn replay_journal(
        &self,
        path: &str,
        file: &NclFile,
        frames: &[fallback::Record],
        why: &str,
    ) -> Result<(), FsError> {
        let tel = &self.inner.telemetry;
        let scope = self.ncl_scope(path);
        let start = sim::time::now();
        let replayed = frames
            .iter()
            .try_for_each(|(offset, data)| file.record_nowait(*offset, data).map(drop))
            .and_then(|()| file.fsync());
        let (trace, epoch, end) = (tel.next_trace_id(), file.epoch(), sim::time::now());
        let (name, interned) = (spans::FS_REATTACH_REPLAY, telemetry::intern_scope(&scope));
        tel.span(trace, trace, 0, name, interned, epoch, start, end);
        replayed?;
        self.inner.dfs.delete(&fallback::shadow_path(path))?;
        self.inner.fallback_reattach.inc();
        let n = frames.len();
        let message = format!("replayed {n} shadow-journal records {why}; resuming NCL");
        tel.fact(spans::NCL_REATTACH, &scope, epoch, message);
        Ok(())
    }

    /// Span scope of an ncl route, matching the NCL layer's `app/file`.
    fn ncl_scope(&self, path: &str) -> String {
        match &self.inner.ncl {
            Some(n) => format!("{}/{}", n.app_id(), path),
            None => path.to_string(),
        }
    }
}

enum Backend {
    /// Reads go through the handle; writes, `fsync` and `size` by path.
    Dfs(DfsFile),
    Ncl(Arc<NclRoute>),
}

/// An open file handle.
pub struct File {
    fs: SplitFs,
    path: String,
    backend: Backend,
    /// NCL files only: writes post without waiting and `fsync` is the
    /// durability barrier (see [`OpenOptions::pipelined`]).
    pipelined: bool,
}

impl File {
    /// The file's path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// True when this handle routes to a near-compute log.
    pub fn is_ncl(&self) -> bool {
        matches!(self.backend, Backend::Ncl(_))
    }

    /// Writes `data` at `offset`.
    ///
    /// NCL files replicate here — synchronously (acknowledged when a
    /// majority of peers hold the write), or posted without waiting when
    /// the handle is pipelined; bulk files buffer until [`File::fsync`].
    pub fn write_at(&self, offset: u64, data: &[u8]) -> Result<(), FsError> {
        match &self.backend {
            Backend::Ncl(route) => {
                self.ncl_write(route, Some(offset), data)?;
                self.fs.trace_ncl_write(&self.path, data.len());
                Ok(())
            }
            Backend::Dfs(_) => {
                let t0 = self.fs.inner.dfs_write.is_live().then(sim::time::now);
                self.fs.inner.dfs.write(&self.path, offset, data)?;
                if let Some(t0) = t0 {
                    self.fs.inner.dfs_write.record_since(t0);
                }
                self.fs.writeback_if_due();
                Ok(())
            }
        }
    }

    /// Appends at the end of file, returning the write offset.
    pub fn append(&self, data: &[u8]) -> Result<u64, FsError> {
        match &self.backend {
            Backend::Ncl(route) => {
                let offset = self.ncl_write(route, None, data)?;
                self.fs.trace_ncl_write(&self.path, data.len());
                Ok(offset)
            }
            Backend::Dfs(_) => {
                let t0 = self.fs.inner.dfs_write.is_live().then(sim::time::now);
                let offset = self.fs.inner.dfs.append(&self.path, data)?;
                if let Some(t0) = t0 {
                    self.fs.inner.dfs_write.record_since(t0);
                }
                self.fs.writeback_if_due();
                Ok(offset)
            }
        }
    }

    /// Flushes any staged (pipelined) NCL records to the NIC — one doorbell
    /// batch per peer — without waiting for durability. Lets a caller start
    /// a group's replication and overlap it with other work before the
    /// [`File::fsync`] barrier. A no-op for non-NCL backends and for
    /// synchronous NCL handles (nothing is ever staged there).
    pub fn submit(&self) {
        if let Backend::Ncl(route) = &self.backend {
            if !route.engaged() {
                route.file.submit();
            }
        }
    }

    /// Routes one NCL record at `at`, or at the end of the file when `None`
    /// (the offset is chosen where the record is staged or journaled, so
    /// concurrent appends never share one), degrading to the DFS shadow
    /// journal on quorum loss and retrying re-attachment while degraded.
    /// Returns the offset written.
    fn ncl_write(
        &self,
        route: &Arc<NclRoute>,
        at: Option<u64>,
        data: &[u8],
    ) -> Result<u64, FsError> {
        if route.engaged() && !self.fs.probe_reattach(&self.path, route) {
            return self.fs.degraded_write(&self.path, route, at, data);
        }
        let file = &route.file;
        let (offset, result) = match at {
            Some(offset) if self.pipelined => (offset, file.record_nowait(offset, data).map(drop)),
            Some(offset) => (offset, file.record(offset, data)),
            None => match file.append_nowait(data) {
                (offset, staged) if self.pipelined => (offset, staged.map(drop)),
                (offset, staged) => (offset, staged.and_then(|seq| file.wait_durable(seq))),
            },
        };
        match result {
            Ok(()) => Ok(offset),
            Err(cause @ NclError::QuorumUnavailable(_)) => {
                // The staged image snapshotted by `engage_fallback` already
                // holds this record's bytes; the explicit degraded write
                // keeps the journal frame (and ordering) uniform.
                self.fs.engage_fallback(&self.path, route, &cause)?;
                self.fs
                    .degraded_write(&self.path, route, Some(offset), data)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Durability barrier. Mode-dependent: weak DFT posts at most a due
    /// writeback, every other mode flushes to its DFS (Local's is the local
    /// disk). For NCL files this waits until
    /// every issued record is durable — a no-op after synchronous writes,
    /// the real barrier for pipelined handles.
    pub fn fsync(&self) -> Result<(), FsError> {
        let t0 = self.fs.inner.fsync_barrier.is_live().then(sim::time::now);
        let result = match &self.backend {
            Backend::Ncl(route) => {
                if route.engaged() {
                    // Degraded records were each synchronously flushed to
                    // the DFS; the barrier is already satisfied. Use it as a
                    // re-attachment opportunity.
                    self.fs.probe_reattach(&self.path, route);
                    Ok(())
                } else {
                    match route.file.fsync() {
                        Ok(()) => Ok(()),
                        Err(cause @ NclError::QuorumUnavailable(_)) => {
                            // Snapshotting the staged image journals every
                            // issued-but-unacknowledged record, so the
                            // barrier's contract is met on the DFS instead.
                            self.fs.engage_fallback(&self.path, route, &cause)?;
                            Ok(())
                        }
                        Err(e) => Err(e.into()),
                    }
                }
            }
            Backend::Dfs(_) => match self.fs.inner.mode {
                Mode::WeakDft => {
                    // Lazy: at most a posted writeback, once it is due.
                    self.fs.writeback_if_due();
                    Ok(())
                }
                _ => Ok(self.fs.inner.dfs.fsync(&self.path)?),
            },
        };
        if let (Some(t0), Ok(())) = (t0, &result) {
            self.fs.inner.fsync_barrier.record_since(t0);
        }
        result
    }

    /// Reads up to `len` bytes at `offset` (short at end of file): a copy of
    /// what [`File::read_with`] lends.
    pub fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>, FsError> {
        self.read_with(offset, len, <[u8]>::to_vec)
    }

    /// Runs `f` over up to `len` bytes at `offset` (short at end of file,
    /// empty past it; `len` may be `usize::MAX`) and returns what it
    /// returns. Where the backend holds the range as one piece of memory —
    /// the DFS page cache or the NCL image — `f` sees those
    /// bytes in place and only what it keeps is copied. `f` runs under the
    /// backend's lock on the file: it must not call back into the facade.
    pub fn read_with<R>(
        &self,
        offset: u64,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, FsError> {
        match &self.backend {
            Backend::Ncl(route) => {
                let fb = route.fb.lock();
                if route.engaged() {
                    let image = &fb.image[..fb.len as usize];
                    Ok(f(&image[sim::short_read(image.len(), offset, len)]))
                } else {
                    Ok(route.file.read_with(offset, len, f))
                }
            }
            Backend::Dfs(file) => Ok(self.fs.inner.dfs.read_with(file, offset, len, f)?),
        }
    }

    /// Current file size.
    pub fn size(&self) -> Result<u64, FsError> {
        match &self.backend {
            Backend::Ncl(route) => {
                let fb = route.fb.lock();
                if route.engaged() {
                    Ok(fb.len)
                } else {
                    Ok(route.file.len())
                }
            }
            Backend::Dfs(_) => Ok(self.fs.inner.dfs.size(&self.path)?),
        }
    }

    /// The underlying NCL handle for ncl files (used by recovery-oriented
    /// benchmarks that need `read_remote`/stats access).
    pub fn ncl_handle(&self) -> Option<&Arc<NclFile>> {
        match &self.backend {
            Backend::Ncl(route) => Some(&route.file),
            _ => None,
        }
    }

    /// True while this handle is degraded to the DFS shadow journal
    /// (quorum loss; see the [`fallback`] module).
    pub fn is_degraded(&self) -> bool {
        match &self.backend {
            Backend::Ncl(route) => route.engaged(),
            _ => false,
        }
    }
}
