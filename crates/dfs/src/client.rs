//! The DFS client: a per-application-server "mount".
//!
//! Reproduces the behaviour of a CephFS kernel client that the paper's DFT
//! baseline relies on:
//!
//! * `write` buffers dirty data in the client page cache and is cheap;
//! * `fsync` pushes dirty ranges to the OSDs (striped into objects, each
//!   replicated on every OSD) and waits for all replicas — this is the
//!   expensive, milliseconds-scale operation that forces the paper's
//!   strong/weak dilemma. `fsync_at` posts the same flush without waiting
//!   and returns the instant it is durable;
//! * `read` is served from the cache with sequential readahead (CephFS
//!   clients prefetch aggressively, which Figure 11 highlights), or can
//!   bypass the cache entirely (`read_direct`, the paper's "DFS direct IO"
//!   comparison line); `read_with` through an open [`DfsFile`] lends the
//!   cached bytes to its caller instead of copying them out;
//! * dropping the client models an application-server crash: clean and
//!   dirty cached state disappears, but everything fsynced survives in the
//!   [`crate::DfsCluster`].
//!
//! An optional [`IoTrace`] records the sizes of data submitted to the DFS —
//! exactly the quantity plotted in Figure 1(a–c) of the paper.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, MutexGuard};
use sim::{NodeId, RpcClient};

use crate::config::DfsConfig;
use crate::extent::ExtentMap;
use crate::mds::{FileMeta, MdsReq, MdsResp};
use crate::osd::{OsdReq, OsdResp};
use crate::DfsError;

/// Classification of a traced IO event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind {
    /// Data submitted to the DFS by an `fsync` (one event per fsync).
    FlushWrite,
    /// Data fetched from the OSDs by a read miss.
    FetchRead,
}

/// One traced IO event.
#[derive(Debug, Clone)]
pub struct IoEvent {
    /// File path the IO belongs to.
    pub path: String,
    /// Flush or fetch.
    pub kind: IoKind,
    /// Bytes transferred.
    pub bytes: usize,
}

/// Shared recorder for DFS-level IO sizes (Figure 1 / Table 2 evidence).
#[derive(Debug, Default)]
pub struct IoTrace {
    enabled: AtomicBool,
    events: Mutex<Vec<IoEvent>>,
}

impl IoTrace {
    /// Creates a disabled trace; call [`IoTrace::enable`] to start recording.
    pub fn new() -> Arc<Self> {
        Arc::new(IoTrace::default())
    }

    /// Starts recording.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stops recording.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Records one event (no-op while disabled). Public so other layers —
    /// e.g. the SplitFT facade tracing NCL record sizes — can feed the same
    /// trace.
    pub fn record(&self, path: &str, kind: IoKind, bytes: usize) {
        if self.enabled.load(Ordering::Relaxed) {
            self.events.lock().push(IoEvent {
                path: path.to_string(),
                kind,
                bytes,
            });
        }
    }

    /// Returns a snapshot of all recorded events.
    pub fn events(&self) -> Vec<IoEvent> {
        self.events.lock().clone()
    }

    /// Clears recorded events.
    pub fn clear(&self) {
        self.events.lock().clear();
    }
}

struct FileEntry {
    /// Current name, for the IO trace (a rename moves it).
    path: String,
    meta: FileMeta,
    /// Local view of the size including buffered writes.
    size: u64,
    dirty: ExtentMap,
    cached: ExtentMap,
    /// End offset of the last read, for sequential-readahead detection.
    last_read_end: u64,
    /// When the last flush posted for this file is durable.
    flushed: Option<Instant>,
    /// Unlinked: the OSDs hold no object of it any more (they would answer
    /// a fetch with a hole's zeros), so only what is cached can be read.
    deleted: bool,
}

impl FileEntry {
    fn new(path: &str, meta: FileMeta) -> Arc<Mutex<FileEntry>> {
        Arc::new(Mutex::new(FileEntry {
            path: path.to_string(),
            meta,
            size: meta.size,
            dirty: ExtentMap::new(),
            cached: ExtentMap::new(),
            last_read_end: 0,
            flushed: None,
            deleted: false,
        }))
    }
}

/// An open file of one [`DfsClient`]: what [`DfsClient::open`] resolves a
/// path to, once. Like a POSIX descriptor it names the file, not the path:
/// it stays valid across [`DfsClient::rename`], and after
/// [`DfsClient::delete`] it still serves what the page cache holds (a read
/// that would have to fetch fails with [`DfsError::NotFound`]).
#[derive(Clone)]
pub struct DfsFile {
    entry: Arc<Mutex<FileEntry>>,
}

struct Shared {
    files: Mutex<HashMap<String, Arc<Mutex<FileEntry>>>>,
    trace: Mutex<Option<Arc<IoTrace>>>,
}

impl Shared {
    /// The path map, every acquisition of it: tests count them, the way
    /// `ncl::lockaudit` counts the record path's.
    fn files(&self) -> MutexGuard<'_, HashMap<String, Arc<Mutex<FileEntry>>>> {
        #[cfg(test)]
        tests::FILES_LOCKS.with(|n| n.set(n.get() + 1));
        self.files.lock()
    }
}

/// A mounted DFS client (see module docs).
///
/// Cloning shares the cache — clones behave like threads of the same
/// application process. To model a *restarted* application, mount a fresh
/// client via [`crate::DfsCluster::client`].
#[derive(Clone)]
pub struct DfsClient {
    node: NodeId,
    config: DfsConfig,
    mds: RpcClient<MdsReq, MdsResp>,
    osds: Vec<RpcClient<OsdReq, OsdResp>>,
    shared: Arc<Shared>,
}

impl DfsClient {
    pub(crate) fn new(
        node: NodeId,
        config: DfsConfig,
        mds: RpcClient<MdsReq, MdsResp>,
        osds: Vec<RpcClient<OsdReq, OsdResp>>,
    ) -> Self {
        DfsClient {
            node,
            config,
            mds,
            osds,
            shared: Arc::new(Shared {
                files: Mutex::new(HashMap::new()),
                trace: Mutex::new(None),
            }),
        }
    }

    /// The application-server node this client runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Attaches an IO trace recorder.
    pub fn set_trace(&self, trace: Arc<IoTrace>) {
        *self.shared.trace.lock() = Some(trace);
    }

    fn trace(&self, path: &str, kind: IoKind, bytes: usize) {
        if let Some(t) = self.shared.trace.lock().as_ref() {
            t.record(path, kind, bytes);
        }
    }

    fn mds_call(&self, req: MdsReq) -> Result<MdsResp, DfsError> {
        self.mds
            .call(self.node, req)
            .map_err(|e| DfsError::Unavailable(e.to_string()))
    }

    /// [`Self::mds_call`] posted at `at`: the answer and when it is back.
    fn mds_call_at(&self, at: Instant, req: MdsReq) -> Result<(MdsResp, Instant), DfsError> {
        self.mds
            .call_at(self.node, at, req)
            .map_err(|e| DfsError::Unavailable(e.to_string()))
    }

    /// Creates a new empty file.
    pub fn create(&self, path: &str) -> Result<(), DfsError> {
        sim::delay_until(self.create_at(path, sim::time::now())?);
        Ok(())
    }

    /// [`DfsClient::create`] posted at `at` without waiting: returns the
    /// instant the MDS's answer is back. The file is usable at once.
    pub fn create_at(&self, path: &str, at: Instant) -> Result<Instant, DfsError> {
        match self.mds_call_at(at, MdsReq::Create(path.to_string()))? {
            (MdsResp::Meta(meta), ready) => {
                self.shared
                    .files()
                    .insert(path.to_string(), FileEntry::new(path, meta));
                Ok(ready)
            }
            (MdsResp::Exists, _) => Err(DfsError::AlreadyExists(path.to_string())),
            (other, _) => Err(DfsError::Invalid(format!("unexpected MDS reply {other:?}"))),
        }
    }

    /// Opens an existing file: one path lookup, after which
    /// [`DfsClient::read_with`] needs none.
    pub fn open(&self, path: &str) -> Result<DfsFile, DfsError> {
        self.entry(path).map(|entry| DfsFile { entry })
    }

    /// True when the path exists.
    pub fn exists(&self, path: &str) -> bool {
        if self.shared.files().contains_key(path) {
            return true;
        }
        matches!(
            self.mds_call(MdsReq::Lookup(path.to_string())),
            Ok(MdsResp::Meta(_))
        )
    }

    fn entry(&self, path: &str) -> Result<Arc<Mutex<FileEntry>>, DfsError> {
        if let Some(e) = self.shared.files().get(path) {
            return Ok(Arc::clone(e));
        }
        match self.mds_call(MdsReq::Lookup(path.to_string()))? {
            MdsResp::Meta(meta) => Ok(Arc::clone(
                self.shared
                    .files()
                    .entry(path.to_string())
                    .or_insert_with(|| FileEntry::new(path, meta)),
            )),
            _ => Err(DfsError::NotFound(path.to_string())),
        }
    }

    /// Buffered write: lands in the client page cache, cheap and volatile.
    pub fn write(&self, path: &str, offset: u64, data: &[u8]) -> Result<(), DfsError> {
        let entry = self.entry(path)?;
        let mut e = entry.lock();
        self.cached(data.len(), || e.dirty.insert(offset, data));
        e.size = e.size.max(offset + data.len() as u64);
        Ok(())
    }

    /// Appends at the current end of file, returning the write offset.
    pub fn append(&self, path: &str, data: &[u8]) -> Result<u64, DfsError> {
        let entry = self.entry(path)?;
        let mut e = entry.lock();
        let offset = e.size;
        self.cached(data.len(), || e.dirty.insert(offset, data));
        e.size = offset + data.len() as u64;
        Ok(offset)
    }

    /// Runs `copy` of `bytes`, then waits out the rest of its page-cache charge.
    fn cached(&self, bytes: usize, copy: impl FnOnce()) {
        let cost = self.config.cache_write.cost(bytes);
        let t0 = (!cost.is_zero()).then(sim::time::now);
        copy();
        if let Some(t0) = t0 {
            sim::time::delay_until_from(t0, t0 + cost);
        }
    }

    /// Flushes all dirty data of `path` to the OSDs and updates the MDS.
    /// Returns only after every replica of every touched object has
    /// committed — the durable point of the DFT paradigm — and after any
    /// flush of the file posted before it is durable too.
    pub fn fsync(&self, path: &str) -> Result<(), DfsError> {
        sim::delay_until(self.fsync_at(path, sim::time::now())?);
        Ok(())
    }

    /// [`DfsClient::fsync`] posted at `at` without waiting: every Put chain
    /// is priced from `at` and the MDS `SetSize` from their answers.
    /// Returns the instant the flush is durable, no earlier than the last
    /// flush posted for the file. A flush is posted under the file's lock,
    /// so the OSDs apply one file's flushes in the order they were posted;
    /// writers wait out the posting only, not the modelled flight.
    pub fn fsync_at(&self, path: &str, at: Instant) -> Result<Instant, DfsError> {
        let entry = self.entry(path)?;
        let mut e = entry.lock();
        let after = e.flushed.map_or(at, |t| t.max(at));
        let extents = e.dirty.drain();
        if extents.is_empty() && e.size == e.meta.size {
            return Ok(after);
        }
        // The data stays readable from the clean cache once flushed.
        for (off, data) in &extents {
            e.cached.insert(*off, data);
        }
        let set_size = MdsReq::SetSize {
            path: path.to_string(),
            size: e.size,
            exact: false,
        };
        let durable = self
            .flush_extents(e.meta.id, &extents, at)
            .and_then(|puts| self.mds_call_at(puts, set_size));
        let (meta, ready) = match durable {
            Ok((MdsResp::Meta(meta), ready)) => (meta, ready),
            Ok(_) => return Err(DfsError::NotFound(path.to_string())),
            Err(err) => {
                // Back to dirty so a retry re-flushes.
                for (off, data) in &extents {
                    e.dirty.insert(*off, data);
                }
                return Err(err);
            }
        };
        e.meta = meta;
        let durable = ready.max(after);
        e.flushed = Some(durable);
        drop(e);
        self.trace(
            path,
            IoKind::FlushWrite,
            extents.iter().map(|(_, d)| d.len()).sum(),
        );
        Ok(durable)
    }

    /// Writes every extent to every replica of its object and returns when
    /// the last is committed. Objects go in ascending order and replicas in
    /// index order, each (object, replica) chain of Puts priced from `post`: the
    /// replicas commit side by side, as a client → primary write with
    /// parallel forwarding does, while each OSD's commits queue on it.
    /// Every replica is attempted even after a failure; any failure fails
    /// the flush (CephFS acks after full replication).
    fn flush_extents(
        &self,
        file_id: u64,
        extents: &[(u64, Vec<u8>)],
        post: Instant,
    ) -> Result<Instant, DfsError> {
        // Split extents on object boundaries and group per object.
        let osz = self.config.object_size as u64;
        let mut per_object: BTreeMap<u64, Vec<(usize, &[u8])>> = BTreeMap::new();
        for (off, data) in extents {
            let mut cursor = 0usize;
            while cursor < data.len() {
                let abs = off + cursor as u64;
                let in_obj = (abs % osz) as usize;
                let n = (osz as usize - in_obj).min(data.len() - cursor);
                let writes = per_object.entry(abs / osz).or_default();
                writes.push((in_obj, &data[cursor..cursor + n]));
                cursor += n;
            }
        }
        let (mut ready, mut failed) = (post, None);
        let replicas = self.osds.len();
        for (&obj, writes) in &per_object {
            for (r, osd) in self.osds.iter().enumerate() {
                let mut at = post;
                for &(offset, data) in writes {
                    let put = OsdReq::Put {
                        file: file_id,
                        obj,
                        offset,
                        data: data.to_vec(),
                        forwarded: (obj % replicas as u64) as usize != r,
                    };
                    // The data goes out ahead of the request leg.
                    let sent = at + (self.config.hop.cost(data.len()) - self.config.hop.base);
                    match osd.call_at(self.node, sent, put) {
                        Ok((_, back)) => at = back,
                        Err(e) => {
                            failed.get_or_insert(DfsError::Unavailable(e.to_string()));
                        }
                    }
                }
                ready = ready.max(at);
            }
        }
        failed.map_or(Ok(ready), Err)
    }

    /// Reads up to `len` bytes at `offset`, returning fewer at end of file.
    /// Served from the page cache; misses fetch whole readahead windows.
    /// A caller that reads a file more than once, or needs only part of
    /// what it reads, wants [`DfsClient::read_with`].
    pub fn read(&self, path: &str, offset: u64, len: usize) -> Result<Vec<u8>, DfsError> {
        self.fill(&mut self.entry(path)?.lock(), offset, len, true)
    }

    /// Direct IO read: bypasses the cache and readahead, always fetching
    /// from the OSDs (the paper's "DFS direct IO" line in Figure 11a).
    pub fn read_direct(&self, path: &str, offset: u64, len: usize) -> Result<Vec<u8>, DfsError> {
        self.fill(&mut self.entry(path)?.lock(), offset, len, false)
    }

    /// [`DfsClient::read`] without the copy: runs `f` over up to `len`
    /// bytes at `offset` of an open file and returns what it returns.
    ///
    /// When the range lies in one cached extent and no unsynced write
    /// overlaps it, `f` sees the page cache's own bytes — no path lookup,
    /// no allocation, no copy. Otherwise the range is assembled once, as
    /// `read` would (fetch with readahead, dirty data on top), and `f` sees
    /// that. Either way `f` runs under the file's lock: it must not call
    /// back into this file.
    pub fn read_with<R>(
        &self,
        file: &DfsFile,
        offset: u64,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, DfsError> {
        let mut e = file.entry.lock();
        let span = sim::short_read(e.size as usize, offset, len);
        if !span.is_empty() && !e.dirty.overlaps(span.start as u64, span.len()) {
            if let Some(bytes) = e.cached.slice(span.start as u64, span.len()) {
                let out = f(bytes);
                e.last_read_end = span.end as u64;
                return Ok(out);
            }
        }
        Ok(f(&self.fill(&mut e, offset, len, true)?))
    }

    /// Up to `len` bytes at `offset`, short at end of file, as one buffer:
    /// from the page cache (fetching what it lacks) or, with `use_cache`
    /// off, straight from the OSDs; unsynced writes on top.
    fn fill(
        &self,
        e: &mut FileEntry,
        offset: u64,
        len: usize,
        use_cache: bool,
    ) -> Result<Vec<u8>, DfsError> {
        let span = sim::short_read(e.size as usize, offset, len);
        let (offset, len) = (span.start as u64, span.len());
        if len == 0 {
            return Ok(Vec::new());
        }
        let mut buf;
        if use_cache {
            buf = Vec::with_capacity(len);
            // Readahead only helps sequential streams (log replay, scans);
            // a random page read fetches just its page-aligned window, like
            // the kernel's readahead heuristic.
            let sequential = offset == e.last_read_end;
            let missing = e.cached.append_to(offset, len, &mut buf);
            if !missing.is_empty() {
                for (miss_off, miss_len) in missing {
                    let window = if sequential {
                        self.config.readahead.max(miss_len)
                    } else {
                        miss_len.max(4096)
                    };
                    let fetch_len = window.min((e.size - miss_off) as usize);
                    let data = self.fetch(e, miss_off, fetch_len)?;
                    e.cached.insert(miss_off, &data);
                }
                buf.clear();
                let still_missing = e.cached.append_to(offset, len, &mut buf);
                debug_assert!(still_missing.is_empty(), "fetch must fill cache");
            }
            e.last_read_end = offset + len as u64;
        } else {
            buf = self.fetch(e, offset, len)?;
        }
        // Dirty data overlays whatever came from the OSDs.
        if e.dirty.overlaps(offset, len) {
            e.dirty.read_into(offset, &mut buf);
        }
        Ok(buf)
    }

    /// Fetches `[offset, offset+len)` from the OSDs (no cache interaction).
    fn fetch(&self, e: &FileEntry, offset: u64, len: usize) -> Result<Vec<u8>, DfsError> {
        if e.deleted {
            return Err(DfsError::NotFound(e.path.clone()));
        }
        let osz = self.config.object_size as u64;
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let abs = offset + out.len() as u64;
            let in_obj = (abs % osz) as usize;
            let n = (osz as usize - in_obj).min(len - out.len());
            out.extend_from_slice(&self.fetch_object(e.meta.id, abs / osz, in_obj, n)?);
        }
        self.trace(&e.path, IoKind::FetchRead, len);
        Ok(out)
    }

    /// Reads one object range, trying the primary first and failing over to
    /// the other replicas.
    fn fetch_object(
        &self,
        file_id: u64,
        obj: u64,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, DfsError> {
        let replicas = self.osds.len();
        let primary = (obj % replicas as u64) as usize;
        for attempt in 0..replicas {
            let r = (primary + attempt) % replicas;
            match self.osds[r].call_sized(
                self.node,
                OsdReq::Get {
                    file: file_id,
                    obj,
                    offset,
                    len,
                },
                0,
                len,
            ) {
                Ok(OsdResp::Data(data)) => return Ok(data),
                _ => continue, // Down, or not an answer to a read.
            }
        }
        Err(DfsError::Unavailable(format!(
            "object {obj} of file {file_id}: all replicas unreachable"
        )))
    }

    /// Current size of the file (including buffered writes).
    pub fn size(&self, path: &str) -> Result<u64, DfsError> {
        Ok(self.entry(path)?.lock().size)
    }

    /// Deletes a file: removes metadata, purges OSD objects and local cache.
    pub fn delete(&self, path: &str) -> Result<(), DfsError> {
        let meta = match self.mds_call(MdsReq::Delete(path.to_string()))? {
            MdsResp::Meta(meta) => meta,
            _ => return Err(DfsError::NotFound(path.to_string())),
        };
        let unlinked = self.shared.files().remove(path);
        if let Some(entry) = unlinked {
            // Open handles keep the entry: see `DfsFile`.
            entry.lock().deleted = true;
        }
        // One round to every OSD, best-effort: a down OSD's objects are
        // orphaned (real systems run scrub/GC for this).
        let at = sim::time::now();
        let ready = self.osds.iter().filter_map(|osd| {
            let (_, back) = osd
                .call_at(self.node, at, OsdReq::DeleteFile(meta.id))
                .ok()?;
            Some(back)
        });
        sim::delay_until(ready.max().unwrap_or(at));
        Ok(())
    }

    /// Renames a file (metadata-only, like CephFS within one directory).
    pub fn rename(&self, old: &str, new: &str) -> Result<(), DfsError> {
        match self.mds_call(MdsReq::Rename(old.to_string(), new.to_string()))? {
            MdsResp::Ok => {
                let mut files = self.shared.files();
                if let Some(e) = files.remove(old) {
                    e.lock().path = new.to_string();
                    files.insert(new.to_string(), e);
                }
                Ok(())
            }
            MdsResp::Exists => Err(DfsError::AlreadyExists(new.to_string())),
            _ => Err(DfsError::NotFound(old.to_string())),
        }
    }

    /// Lists files whose path starts with `prefix`.
    pub fn list(&self, prefix: &str) -> Result<Vec<String>, DfsError> {
        match self.mds_call(MdsReq::List(prefix.to_string()))? {
            MdsResp::Paths(p) => Ok(p),
            _ => Err(DfsError::Invalid("unexpected MDS reply".into())),
        }
    }

    /// Drops clean cached data for `path` (dirty data is preserved).
    pub fn drop_cache(&self, path: &str) {
        if let Some(e) = self.shared.files().get(path) {
            e.lock().cached.clear();
        }
    }

    /// Posts a flush of every file with dirty data at `at` (the weak mode's
    /// writeback); returns the instant the last is durable.
    pub fn flush_all_at(&self, at: Instant) -> Result<Instant, DfsError> {
        let paths: Vec<String> = {
            let files = self.shared.files();
            files
                .iter()
                .filter(|(_, e)| !e.lock().dirty.is_empty())
                .map(|(p, _)| p.clone())
                .collect()
        };
        paths
            .iter()
            .try_fold(at, |ready, p| Ok(ready.max(self.fsync_at(p, at)?)))
    }

    /// Total dirty bytes currently buffered (for tests and the flusher).
    pub fn dirty_bytes(&self) -> usize {
        let files = self.shared.files();
        files.values().map(|e| e.lock().dirty.byte_len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osd::DfsCluster;
    use sim::{Cluster, LatencyModel};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        /// Acquisitions of the path map by the calling thread.
        pub(super) static FILES_LOCKS: Cell<u64> = const { Cell::new(0) };
        /// Heap allocations (and reallocations) by the calling thread.
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    /// Counts per thread, so tests running beside this one do not show.
    struct CountingAlloc;

    fn count_alloc() {
        // A `const` thread-local of a `Cell<u64>` has no destructor and
        // allocates nothing itself; a thread past its teardown is not
        // counted.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds `GlobalAlloc`'s contract; the counter touches no memory
    // the allocator hands out.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count_alloc();
            // SAFETY: the caller's `layout`, as `alloc` requires.
            unsafe { System.alloc(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count_alloc();
            // SAFETY: `ptr` came from `System` with `layout` (this type
            // allocates nowhere else) and `new_size` is the caller's.
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` with `layout`.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: CountingAlloc = CountingAlloc;

    fn setup() -> (Cluster, DfsCluster, DfsClient) {
        let cluster = Cluster::new();
        let dfs = DfsCluster::start(&cluster, DfsConfig::zero_small_objects());
        let app = cluster.add_node("app");
        let client = dfs.client(app);
        (cluster, dfs, client)
    }

    #[test]
    fn write_fsync_read_roundtrip() {
        let (_c, _dfs, client) = setup();
        client.create("f").unwrap();
        client.write("f", 0, b"hello world").unwrap();
        client.fsync("f").unwrap();
        assert_eq!(client.read("f", 0, 11).unwrap(), b"hello world");
        assert_eq!(client.read("f", 6, 5).unwrap(), b"world");
    }

    #[test]
    fn unsynced_data_readable_locally_but_lost_on_crash() {
        let (cluster, dfs, client) = setup();
        client.create("f").unwrap();
        client.write("f", 0, b"volatile").unwrap();
        // Local read sees the buffered data.
        assert_eq!(client.read("f", 0, 8).unwrap(), b"volatile");
        // "Crash": a new client mounts the same DFS.
        drop(client);
        let app2 = cluster.add_node("app-restarted");
        let client2 = dfs.client(app2);
        // MDS still has size 0: the data never reached the DFS.
        assert_eq!(client2.size("f").unwrap(), 0);
        assert_eq!(client2.read("f", 0, 8).unwrap(), b"");
    }

    #[test]
    fn fsynced_data_survives_crash() {
        let (cluster, dfs, client) = setup();
        client.create("f").unwrap();
        client.write("f", 0, b"durable!").unwrap();
        client.fsync("f").unwrap();
        drop(client);
        let client2 = dfs.client(cluster.add_node("app2"));
        assert_eq!(client2.read("f", 0, 8).unwrap(), b"durable!");
    }

    #[test]
    fn multi_object_file_roundtrips() {
        let (_c, _dfs, client) = setup();
        client.create("big").unwrap();
        // 10 KiB with 1 KiB objects => 10 objects.
        let data: Vec<u8> = (0..10_240).map(|i| (i % 251) as u8).collect();
        client.write("big", 0, &data).unwrap();
        client.fsync("big").unwrap();
        assert_eq!(client.read("big", 0, data.len()).unwrap(), data);
        // Unaligned read spanning object boundaries.
        assert_eq!(client.read("big", 1000, 100).unwrap(), &data[1000..1100]);
    }

    #[test]
    fn append_tracks_size() {
        // A charged page-cache copy reads the clock once, for the entry its
        // charge runs from; a free one never does.
        let charged = LatencyModel::page_cache_write();
        for (cache_write, reads) in [(LatencyModel::ZERO, 0), (charged, 1)] {
            let cluster = Cluster::new();
            let config = DfsConfig {
                cache_write,
                ..DfsConfig::zero_small_objects()
            };
            let dfs = DfsCluster::start(&cluster, config);
            let client = dfs.client(cluster.add_node("app"));
            client.create("log").unwrap();
            let (at, read) = sim::time::audited(|| client.append("log", b"aaa"));
            assert_eq!((at.unwrap(), read), (0, reads));
            assert_eq!(client.append("log", b"bb").unwrap(), 3);
            assert_eq!(client.size("log").unwrap(), 5);
        }
    }

    #[test]
    fn read_past_eof_is_short() {
        let (_c, _dfs, client) = setup();
        client.create("f").unwrap();
        client.write("f", 0, b"abc").unwrap();
        assert_eq!(client.read("f", 0, 100).unwrap(), b"abc");
        assert_eq!(client.read("f", 3, 10).unwrap(), b"");
    }

    #[test]
    fn delete_removes_file_everywhere() {
        let (cluster, dfs, client) = setup();
        client.create("f").unwrap();
        client.write("f", 0, b"x").unwrap();
        client.fsync("f").unwrap();
        client.delete("f").unwrap();
        assert!(!client.exists("f"));
        let client2 = dfs.client(cluster.add_node("app2"));
        assert!(matches!(
            client2.read("f", 0, 1),
            Err(DfsError::NotFound(_))
        ));
    }

    #[test]
    fn rename_preserves_data() {
        let (_c, _dfs, client) = setup();
        client.create("a").unwrap();
        client.write("a", 0, b"data").unwrap();
        client.fsync("a").unwrap();
        client.rename("a", "b").unwrap();
        assert!(!client.exists("a"));
        assert_eq!(client.read("b", 0, 4).unwrap(), b"data");
    }

    #[test]
    fn create_duplicate_fails() {
        let (_c, _dfs, client) = setup();
        client.create("f").unwrap();
        assert!(matches!(
            client.create("f"),
            Err(DfsError::AlreadyExists(_))
        ));
    }

    #[test]
    fn overwrite_after_fsync_visible_on_fresh_mount() {
        let (cluster, dfs, client) = setup();
        client.create("f").unwrap();
        client.write("f", 0, b"aaaa").unwrap();
        client.fsync("f").unwrap();
        client.write("f", 1, b"bb").unwrap();
        client.fsync("f").unwrap();
        let client2 = dfs.client(cluster.add_node("app2"));
        assert_eq!(client2.read("f", 0, 4).unwrap(), b"abba");
    }

    #[test]
    fn direct_read_bypasses_dirty_overlay_is_still_applied() {
        let (_c, _dfs, client) = setup();
        client.create("f").unwrap();
        client.write("f", 0, b"abcd").unwrap();
        client.fsync("f").unwrap();
        client.write("f", 0, b"Z").unwrap(); // Dirty, unsynced.
                                             // Direct IO fetches from OSDs but the local dirty byte still wins,
                                             // matching POSIX read-your-writes semantics.
        assert_eq!(client.read_direct("f", 0, 4).unwrap(), b"Zbcd");
    }

    #[test]
    fn osd_failure_tolerated_on_read() {
        let (cluster, dfs, client) = setup();
        client.create("f").unwrap();
        client.write("f", 0, b"replicated").unwrap();
        client.fsync("f").unwrap();
        client.drop_cache("f");
        // Kill one OSD; reads fail over to replicas.
        cluster.crash(dfs.osd_nodes()[0]);
        assert_eq!(client.read("f", 0, 10).unwrap(), b"replicated");
    }

    #[test]
    fn trace_records_flush_sizes() {
        let (_c, _dfs, client) = setup();
        let trace = IoTrace::new();
        trace.enable();
        client.set_trace(Arc::clone(&trace));
        client.create("f").unwrap();
        client.write("f", 0, &[0u8; 100]).unwrap();
        client.write("f", 100, &[1u8; 50]).unwrap();
        client.fsync("f").unwrap();
        let events = trace.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, IoKind::FlushWrite);
        assert_eq!(events[0].bytes, 150);
    }

    #[test]
    fn flush_all_clears_dirty() {
        let (_c, _dfs, client) = setup();
        client.create("a").unwrap();
        client.create("b").unwrap();
        client.write("a", 0, b"1").unwrap();
        client.write("b", 0, b"2").unwrap();
        assert_eq!(client.dirty_bytes(), 2);
        client.flush_all_at(std::time::Instant::now()).unwrap();
        assert_eq!(client.dirty_bytes(), 0);
    }

    #[test]
    fn fsync_with_no_dirty_data_is_cheap_noop() {
        let (_c, _dfs, client) = setup();
        client.create("f").unwrap();
        client.fsync("f").unwrap();
        client.fsync("f").unwrap();
    }

    #[test]
    fn sparse_write_reads_zeros_in_hole() {
        let (_c, _dfs, client) = setup();
        client.create("f").unwrap();
        client.write("f", 4096, b"tail").unwrap();
        client.fsync("f").unwrap();
        let head = client.read("f", 0, 4).unwrap();
        assert_eq!(head, vec![0; 4]);
    }

    #[test]
    fn a_cached_read_with_borrows_the_page_cache() {
        let (_c, _dfs, client) = setup();
        client.create("f").unwrap();
        let data: Vec<u8> = (0..8192).map(|i| (i % 251) as u8).collect();
        client.write("f", 0, &data).unwrap();
        client.fsync("f").unwrap();
        let file = client.open("f").unwrap();

        // No path lookup and no allocation: not the map's lock, not a
        // buffer. Counts of this thread, so they repeat exactly.
        let (locks, allocs) = (FILES_LOCKS.get(), ALLOCS.get());
        let sum = client
            .read_with(&file, 4096, 4096, |block| {
                assert_eq!(block, &data[4096..]);
                block.iter().map(|b| *b as u64).sum::<u64>()
            })
            .unwrap();
        assert_eq!(FILES_LOCKS.get() - locks, 0, "`files` mutex acquisitions");
        assert_eq!(ALLOCS.get() - allocs, 0, "allocations");
        assert_eq!(sum, data[4096..].iter().map(|b| *b as u64).sum::<u64>());

        // An unsynced write over the range takes the assembling arm, which
        // allocates its one buffer.
        client.write("f", 5000, b"dirty").unwrap();
        let allocs = ALLOCS.get();
        client
            .read_with(&file, 4096, 4096, |block| {
                assert_eq!(&block[904..909], b"dirty");
                assert_eq!(&block[..904], &data[4096..5000]);
            })
            .unwrap();
        assert!(ALLOCS.get() - allocs >= 1);
        assert_eq!(
            client.read("f", 4096, 4096).unwrap()[904..909],
            *b"dirty",
            "by path, the same bytes"
        );
    }

    /// A one-object fsync costs its slowest replica's chain: the data and
    /// request leg, the primary's forwarding hop, the commit and the
    /// response leg.
    #[test]
    fn a_one_object_fsync_costs_the_forwarded_replicas_chain() {
        let cluster = Cluster::new();
        let config = crate::osd::tests::slow();
        let dfs = DfsCluster::start(&cluster, config.clone());
        let client = dfs.client(cluster.add_node("app"));
        let data = vec![7u8; 4096];
        let (hop, commit) = (config.hop.cost(data.len()), config.commit.cost(data.len()));
        client.create("f").unwrap();
        client.write("f", 0, &data).unwrap();
        let t = std::time::Instant::now();
        client.fsync("f").unwrap();
        let (took, chain) = (t.elapsed(), 2 * hop + commit + config.hop.base);
        assert!(took >= chain, "{took:?}");
        assert!(took < chain + chain / 4, "{took:?}");
    }

    /// Two threads fsync one file behind a flush posted for it: neither
    /// returns before that flush is durable, with no poll, and the OSDs
    /// hold the later write's bytes.
    #[test]
    fn concurrent_fsyncs_wait_out_the_posted_flush_and_keep_the_later_bytes() {
        let cluster = Cluster::new();
        let dfs = DfsCluster::start(&cluster, crate::osd::tests::slow());
        let client = dfs.client(cluster.add_node("app"));
        client.create("f").unwrap();
        client.write("f", 0, b"first").unwrap();
        let first = client.fsync_at("f", std::time::Instant::now()).unwrap();
        let returned = std::thread::scope(|s| {
            let idle = s.spawn(|| {
                client.fsync("f").unwrap();
                std::time::Instant::now()
            });
            let later = s.spawn(|| {
                client.write("f", 0, b"later").unwrap();
                client.fsync("f").unwrap();
                std::time::Instant::now()
            });
            [idle.join().unwrap(), later.join().unwrap()]
        });
        assert!(
            returned.iter().all(|&t| t >= first),
            "{returned:?} < {first:?}"
        );
        let fresh = dfs.client(cluster.add_node("app-2"));
        assert_eq!(fresh.read_direct("f", 0, 5).unwrap(), b"later");
    }

    #[test]
    fn a_handle_survives_rename() {
        let (_c, _dfs, client) = setup();
        client.create("a").unwrap();
        client.write("a", 0, b"data").unwrap();
        client.fsync("a").unwrap();
        let file = client.open("a").unwrap();
        client.rename("a", "b").unwrap();
        let read = |c: &DfsClient| c.read_with(&file, 0, 4, <[u8]>::to_vec);
        assert_eq!(read(&client).unwrap(), b"data");
        // And cold: the fetch goes by file id, the trace by the new name.
        let trace = IoTrace::new();
        trace.enable();
        client.set_trace(Arc::clone(&trace));
        client.drop_cache("b");
        assert_eq!(read(&client).unwrap(), b"data");
        assert_eq!(trace.events()[0].path, "b");
    }

    #[test]
    fn a_handle_to_a_deleted_file_serves_what_is_cached_and_nothing_else() {
        let (_c, _dfs, client) = setup();
        client.create("f").unwrap();
        client.write("f", 0, &[7u8; 8192]).unwrap();
        client.fsync("f").unwrap();
        let file = client.open("f").unwrap();
        client.delete("f").unwrap();
        let read = |offset| client.read_with(&file, offset, 4096, <[u8]>::to_vec);
        assert_eq!(read(4096).unwrap(), vec![7u8; 4096]);
        assert!(matches!(client.open("f"), Err(DfsError::NotFound(_))));

        // Cold, the OSDs would answer with a hole's zeros: an error instead.
        file.entry.lock().cached.clear();
        assert_eq!(read(4096), Err(DfsError::NotFound("f".to_string())));
    }
}
