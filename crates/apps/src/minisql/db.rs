//! The MiniSql engine: transactions, circular WAL, checkpoints.
//!
//! SQLite in WAL mode — as the paper's port configures it (§5, exclusive
//! locking, single process) — appends full page images of each transaction
//! to `db-wal`, fsyncs on commit, and periodically *checkpoints*: writes the
//! pages back into the main database file and **resets the WAL to offset
//! zero, overwriting old frames** (Table 2's "overwrite" reclaim). That
//! circular reuse is the pattern that exercises NCL's full-region catch-up
//! (§4.5.1, Figure 7ii): a lagging peer of an overwritten log cannot be
//! repaired by shipping a tail.
//!
//! The engine is single-writer (a mutex serialises transactions), matching
//! the paper's single-threaded SQLite results.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use splitfs::{File, OpenOptions, SplitFs};

use super::pages::{bucket_of, DataPage, Meta};
use crate::kv::{AppError, KvApp};

/// Tuning knobs for [`MiniSql`].
#[derive(Debug, Clone)]
pub struct SqlOptions {
    /// Page size in bytes.
    pub page_size: usize,
    /// Number of hash-bucket pages.
    pub npages: u32,
    /// WAL region capacity in bytes (fixed at creation; the circular log
    /// never grows past it).
    pub wal_capacity: usize,
    /// WAL fill level that triggers a checkpoint.
    pub checkpoint_threshold: usize,
}

impl Default for SqlOptions {
    fn default() -> Self {
        SqlOptions {
            page_size: 4096,
            npages: 1024,
            wal_capacity: 8 << 20,
            checkpoint_threshold: 4 << 20,
        }
    }
}

impl SqlOptions {
    /// Small limits for tests (frequent checkpoints and overflow chains).
    pub fn tiny() -> Self {
        SqlOptions {
            page_size: 512,
            npages: 8,
            wal_capacity: 32 << 10,
            checkpoint_threshold: 8 << 10,
        }
    }
}

/// WAL layout constants.
const WAL_HEADER_SIZE: usize = 64;
const FRAME_HEADER_SIZE: usize = 24;
const WAL_MAGIC: u32 = 0x5751_4C31; // "WQL1"

struct Engine {
    opts: SqlOptions,
    db: File,
    wal: File,
    /// Salt distinguishing the current WAL generation from overwritten
    /// frames of previous generations.
    salt: u64,
    wal_offset: usize,
    meta: Meta,
    /// Page cache: authoritative current images (db ∪ replayed WAL ∪ txns).
    cache: std::collections::HashMap<u32, Vec<u8>>,
    /// Pages committed since the last checkpoint (must be written to the db
    /// file at the next checkpoint; exactly the pages in the live WAL).
    committed_dirty: std::collections::HashSet<u32>,
    checkpoints: Arc<AtomicU64>,
}

/// A SQLite-style embedded store over the SplitFT facade.
pub struct MiniSql {
    inner: Mutex<Engine>,
    checkpoints: Arc<AtomicU64>,
}

/// An open transaction. Mutations are buffered in the page cache with undo
/// images; committing (via [`MiniSql::txn`]) logs them; dropping without
/// commit rolls back.
pub struct Txn<'a> {
    engine: &'a mut Engine,
    /// Pre-images for rollback; also the set of pages this txn touched.
    undo: std::collections::HashMap<u32, Vec<u8>>,
    committed: bool,
}

impl MiniSql {
    /// Opens (creating or recovering) a database named `prefix` on `fs`.
    pub fn open(fs: SplitFs, prefix: &str, opts: SqlOptions) -> Result<Self, AppError> {
        let db_path = format!("{prefix}db");
        let wal_path = format!("{prefix}db-wal");
        let mut fresh = !fs.exists(&db_path);
        let db = fs.open(&db_path, OpenOptions::create())?;
        if !fresh && db.size()? == 0 {
            // A zero-length database file (e.g. created under a weak
            // configuration that crashed before any flush) is a fresh
            // database, as in SQLite.
            fresh = true;
        }
        let wal = fs.open(
            &wal_path,
            OpenOptions {
                create: true,
                ncl: true,
                capacity: opts.wal_capacity,
                pipelined: false,
            },
        )?;

        let checkpoints = Arc::new(AtomicU64::new(0));
        let mut engine = Engine {
            opts,
            db,
            wal,
            salt: 1,
            wal_offset: WAL_HEADER_SIZE,
            meta: Meta {
                npages: 0,
                next_free: 0,
            },
            cache: std::collections::HashMap::new(),
            committed_dirty: std::collections::HashSet::new(),
            checkpoints: Arc::clone(&checkpoints),
        };

        if fresh {
            engine.meta = Meta {
                npages: engine.opts.npages,
                next_free: engine.opts.npages + 1,
            };
            // Initialise the main file (not on the critical path) and the
            // WAL header.
            let meta_page = engine.meta.encode(engine.opts.page_size);
            engine.db.write_at(0, &meta_page)?;
            engine.db.fsync()?;
            engine.write_wal_header()?;
        } else {
            engine.recover()?;
        }
        Ok(MiniSql {
            inner: Mutex::new(engine),
            checkpoints,
        })
    }

    /// Runs a closure inside a transaction; commits on `Ok`, rolls back on
    /// `Err`.
    pub fn txn<T>(
        &self,
        body: impl FnOnce(&mut Txn<'_>) -> Result<T, AppError>,
    ) -> Result<T, AppError> {
        let mut engine = self.inner.lock();
        let mut txn = Txn {
            engine: &mut engine,
            undo: std::collections::HashMap::new(),
            committed: false,
        };
        match body(&mut txn) {
            Ok(v) => {
                txn.commit()?;
                Ok(v)
            }
            Err(e) => {
                txn.rollback();
                Err(e)
            }
        }
    }

    /// Inserts or updates one row (a single-op transaction, as the paper's
    /// YCSB harness converts each operation into a SQLite transaction).
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), AppError> {
        self.txn(|t| t.put(key, value))
    }

    /// Reads one row.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, AppError> {
        let mut engine = self.inner.lock();
        engine.get(key)
    }

    /// Deletes one row.
    pub fn delete(&self, key: &[u8]) -> Result<bool, AppError> {
        self.txn(|t| t.delete(key))
    }

    /// Number of checkpoints performed (WAL resets).
    pub fn checkpoint_count(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    /// Forces a checkpoint now (tests and benches).
    pub fn checkpoint(&self) -> Result<(), AppError> {
        self.inner.lock().checkpoint()
    }
}

impl KvApp for MiniSql {
    fn insert(&self, key: &str, value: &[u8]) -> Result<(), AppError> {
        self.put(key.as_bytes(), value)
    }

    fn update(&self, key: &str, value: &[u8]) -> Result<(), AppError> {
        self.put(key.as_bytes(), value)
    }

    fn read(&self, key: &str) -> Result<Option<Vec<u8>>, AppError> {
        self.get(key.as_bytes())
    }

    fn read_modify_write(&self, key: &str, value: &[u8]) -> Result<(), AppError> {
        // A native transaction: read and write under one commit.
        self.txn(|t| {
            let _ = t.get(key.as_bytes())?;
            t.put(key.as_bytes(), value)
        })
    }
}

impl Engine {
    fn page(&mut self, no: u32) -> Result<&Vec<u8>, AppError> {
        self.load_page(no)?;
        Ok(self.cache.get(&no).expect("just loaded"))
    }

    fn load_page(&mut self, no: u32) -> Result<(), AppError> {
        if self.cache.contains_key(&no) {
            return Ok(());
        }
        let offset = no as u64 * self.opts.page_size as u64;
        let bytes = self.db.read(offset, self.opts.page_size)?;
        let mut page = bytes;
        page.resize(self.opts.page_size, 0); // Beyond-EOF pages are fresh.
        self.cache.insert(no, page);
        Ok(())
    }

    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, AppError> {
        let mut no = bucket_of(key, self.meta.npages);
        loop {
            let page = DataPage::decode(self.page(no)?)?;
            if let Some(v) = page.get(key) {
                return Ok(Some(v.to_vec()));
            }
            if page.next_overflow == 0 {
                return Ok(None);
            }
            no = page.next_overflow;
        }
    }

    fn write_wal_header(&mut self) -> Result<(), AppError> {
        let mut hdr = vec![0u8; WAL_HEADER_SIZE];
        hdr[0..4].copy_from_slice(&WAL_MAGIC.to_le_bytes());
        hdr[4..12].copy_from_slice(&self.salt.to_le_bytes());
        let crc = sim::crc32c(&hdr[0..12]);
        hdr[12..16].copy_from_slice(&crc.to_le_bytes());
        // Offset 0: this is the overwrite that makes the log circular.
        self.wal.write_at(0, &hdr)?;
        self.wal.fsync()?;
        self.wal_offset = WAL_HEADER_SIZE;
        Ok(())
    }

    fn frame_bytes(&self, page_no: u32, commit: bool, image: &[u8]) -> Vec<u8> {
        let mut hdr = [0u8; FRAME_HEADER_SIZE];
        hdr[0..8].copy_from_slice(&self.salt.to_le_bytes());
        hdr[8..12].copy_from_slice(&page_no.to_le_bytes());
        hdr[12..16].copy_from_slice(&(commit as u32).to_le_bytes());
        let crc = sim::crc32c_extend(sim::crc32c(&hdr[0..16]), image);
        hdr[16..20].copy_from_slice(&crc.to_le_bytes());
        let mut out = Vec::with_capacity(FRAME_HEADER_SIZE + image.len());
        out.extend_from_slice(&hdr);
        out.extend_from_slice(image);
        out
    }

    /// Appends a transaction's page images as WAL frames (last one flagged
    /// commit) with a single write + durability barrier.
    fn log_txn(&mut self, pages: &[u32]) -> Result<(), AppError> {
        let frame_len = FRAME_HEADER_SIZE + self.opts.page_size;
        let need = pages.len() * frame_len;
        if self.wal_offset + need > self.opts.wal_capacity {
            // The circular log is full: checkpoint and restart from the top.
            self.checkpoint()?;
            if WAL_HEADER_SIZE + need > self.opts.wal_capacity {
                return Err(AppError::Storage(
                    "transaction larger than WAL capacity".into(),
                ));
            }
        }
        let mut buf = Vec::with_capacity(need);
        for (i, &no) in pages.iter().enumerate() {
            let image = self.cache.get(&no).expect("txn page cached").clone();
            buf.extend_from_slice(&self.frame_bytes(no, i + 1 == pages.len(), &image));
        }
        self.wal.write_at(self.wal_offset as u64, &buf)?;
        self.wal.fsync()?;
        self.wal_offset += buf.len();
        for &no in pages {
            self.committed_dirty.insert(no);
        }
        if self.wal_offset >= self.opts.checkpoint_threshold {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Writes committed pages back to the database file (bulk background
    /// writes), then resets the WAL to be overwritten from the top.
    fn checkpoint(&mut self) -> Result<(), AppError> {
        if self.committed_dirty.is_empty() {
            self.salt += 1;
            self.write_wal_header()?;
            return Ok(());
        }
        let mut pages: Vec<u32> = self.committed_dirty.iter().copied().collect();
        pages.sort_unstable();
        for no in &pages {
            let image = self.cache.get(no).expect("committed page cached").clone();
            self.db
                .write_at(*no as u64 * self.opts.page_size as u64, &image)?;
        }
        self.db.fsync()?;
        self.committed_dirty.clear();
        // Only now is it safe to reuse the log: bump the salt and overwrite
        // the header at offset 0.
        self.salt += 1;
        self.write_wal_header()?;
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Crash recovery: load the meta page, then replay committed WAL frames
    /// of the current salt over the database image.
    fn recover(&mut self) -> Result<(), AppError> {
        let meta_bytes = self.db.read(0, self.opts.page_size)?;
        self.meta = Meta::decode(&meta_bytes)?;
        self.cache.insert(0, {
            let mut p = meta_bytes;
            p.resize(self.opts.page_size, 0);
            p
        });

        let wal_size = self.wal.size()? as usize;
        if wal_size < WAL_HEADER_SIZE {
            // No WAL header yet (crash right after creation): start fresh.
            self.salt = 1;
            self.write_wal_header()?;
            return Ok(());
        }
        let buf = self.wal.read(0, wal_size)?;
        let magic = u32::from_le_bytes(buf[0..4].try_into().expect("4"));
        let salt = u64::from_le_bytes(buf[4..12].try_into().expect("8"));
        let hdr_crc = u32::from_le_bytes(buf[12..16].try_into().expect("4"));
        if magic != WAL_MAGIC || sim::crc32c(&buf[0..12]) != hdr_crc {
            // Unreadable header: treat the WAL as empty (it was being reset).
            self.salt = 1;
            self.write_wal_header()?;
            return Ok(());
        }
        self.salt = salt;

        // Scan frames; apply only up to the last commit frame.
        let frame_len = FRAME_HEADER_SIZE + self.opts.page_size;
        let mut pending: Vec<(u32, Vec<u8>)> = Vec::new();
        let mut offset = WAL_HEADER_SIZE;
        let mut valid_end = WAL_HEADER_SIZE;
        while offset + frame_len <= buf.len() {
            let hdr = &buf[offset..offset + FRAME_HEADER_SIZE];
            let fsalt = u64::from_le_bytes(hdr[0..8].try_into().expect("8"));
            if fsalt != self.salt {
                break; // Frame from an overwritten generation.
            }
            let page_no = u32::from_le_bytes(hdr[8..12].try_into().expect("4"));
            let commit = u32::from_le_bytes(hdr[12..16].try_into().expect("4")) != 0;
            let crc = u32::from_le_bytes(hdr[16..20].try_into().expect("4"));
            let image = &buf[offset + FRAME_HEADER_SIZE..offset + frame_len];
            if sim::crc32c_extend(sim::crc32c(&hdr[0..16]), image) != crc {
                break; // Torn frame: the transaction never committed.
            }
            pending.push((page_no, image.to_vec()));
            offset += frame_len;
            if commit {
                for (no, image) in pending.drain(..) {
                    self.cache.insert(no, image);
                    self.committed_dirty.insert(no);
                }
                valid_end = offset;
            }
        }
        self.wal_offset = valid_end;
        // Meta page may have been updated through the WAL.
        if let Some(p) = self.cache.get(&0) {
            self.meta = Meta::decode(p)?;
        }
        Ok(())
    }
}

impl<'a> Txn<'a> {
    fn touch(&mut self, no: u32) -> Result<(), AppError> {
        self.engine.load_page(no)?;
        if !self.undo.contains_key(&no) {
            self.undo
                .insert(no, self.engine.cache.get(&no).expect("loaded").clone());
        }
        Ok(())
    }

    /// Reads a row (sees the transaction's own writes).
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, AppError> {
        self.engine.get(key)
    }

    /// Inserts or updates a row.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), AppError> {
        let page_size = self.engine.opts.page_size;
        let mut no = bucket_of(key, self.engine.meta.npages);
        loop {
            self.touch(no)?;
            let mut page = DataPage::decode(self.engine.cache.get(&no).expect("touched"))?;
            // Replace in place if the key lives here.
            if page.get(key).is_some() || page.upsert(key, value, page_size) {
                if page.get(key).map(|v| v != value).unwrap_or(true) {
                    // The in-place replacement may itself overflow the page;
                    // handle by forcing the upsert (we know key exists here).
                    if !page.upsert(key, value, page_size) {
                        // Rare: grown value no longer fits. Remove here and
                        // re-insert down the chain.
                        page.remove(key);
                        self.engine.cache.insert(no, page.encode(page_size));
                        return self.put_into_chain(no, key, value);
                    }
                }
                self.engine.cache.insert(no, page.encode(page_size));
                return Ok(());
            }
            if page.next_overflow == 0 {
                // Allocate an overflow page.
                return self.append_overflow(no, page, key, value);
            }
            no = page.next_overflow;
        }
    }

    fn put_into_chain(&mut self, start: u32, key: &[u8], value: &[u8]) -> Result<(), AppError> {
        let page_size = self.engine.opts.page_size;
        let mut no = start;
        loop {
            self.touch(no)?;
            let mut page = DataPage::decode(self.engine.cache.get(&no).expect("touched"))?;
            if page.upsert(key, value, page_size) {
                self.engine.cache.insert(no, page.encode(page_size));
                return Ok(());
            }
            if page.next_overflow == 0 {
                return self.append_overflow(no, page, key, value);
            }
            no = page.next_overflow;
        }
    }

    fn append_overflow(
        &mut self,
        tail_no: u32,
        mut tail: DataPage,
        key: &[u8],
        value: &[u8],
    ) -> Result<(), AppError> {
        let page_size = self.engine.opts.page_size;
        // Update the meta page's allocation cursor (transactionally).
        self.touch(0)?;
        let new_no = self.engine.meta.next_free;
        self.engine.meta.next_free += 1;
        let meta_image = self.engine.meta.encode(page_size);
        self.engine.cache.insert(0, meta_image);

        tail.next_overflow = new_no;
        self.engine.cache.insert(tail_no, tail.encode(page_size));

        self.touch(new_no)?;
        let mut fresh = DataPage::default();
        if !fresh.upsert(key, value, page_size) {
            return Err(AppError::Storage(format!(
                "record of {} bytes exceeds page size {page_size}",
                key.len() + value.len()
            )));
        }
        self.engine.cache.insert(new_no, fresh.encode(page_size));
        Ok(())
    }

    /// Deletes a row; true when it existed.
    pub fn delete(&mut self, key: &[u8]) -> Result<bool, AppError> {
        let page_size = self.engine.opts.page_size;
        let mut no = bucket_of(key, self.engine.meta.npages);
        loop {
            self.touch(no)?;
            let mut page = DataPage::decode(self.engine.cache.get(&no).expect("touched"))?;
            if page.remove(key) {
                self.engine.cache.insert(no, page.encode(page_size));
                return Ok(true);
            }
            if page.next_overflow == 0 {
                return Ok(false);
            }
            no = page.next_overflow;
        }
    }

    fn commit(mut self) -> Result<(), AppError> {
        if self.undo.is_empty() {
            self.committed = true;
            return Ok(());
        }
        // Only pages whose images actually changed need logging.
        let mut pages: Vec<u32> = self
            .undo
            .iter()
            .filter(|(no, pre)| self.engine.cache.get(no) != Some(pre))
            .map(|(no, _)| *no)
            .collect();
        pages.sort_unstable();
        if pages.is_empty() {
            self.committed = true;
            return Ok(());
        }
        self.engine.log_txn(&pages)?;
        self.committed = true;
        Ok(())
    }

    fn rollback(mut self) {
        self.rollback_in_place();
        self.committed = true;
    }

    fn rollback_in_place(&mut self) {
        for (no, pre) in self.undo.drain() {
            self.engine.cache.insert(no, pre);
        }
        // The meta may have been touched; restore it from page 0.
        if let Some(p) = self.engine.cache.get(&0) {
            if let Ok(m) = Meta::decode(p) {
                self.engine.meta = m;
            }
        }
    }
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        if !self.committed {
            self.rollback_in_place();
        }
    }
}
