//! The MiniKvell engine (see module docs in [`super`]).

use std::collections::HashMap;

use parking_lot::Mutex;
use splitfs::{File, OpenOptions, SplitFs};

use crate::kv::{checksum, AppError, KvApp};

/// Tuning knobs for [`MiniKvell`].
#[derive(Debug, Clone)]
pub struct KvellOptions {
    /// Fixed slot size; a record (key + value + header) must fit in one.
    pub slot_size: usize,
    /// Number of slots in the slab.
    pub slots: u32,
    /// Capacity of the NCL staging buffer.
    pub staging_capacity: usize,
    /// Staging fill level that triggers a bulk flush to the slab.
    pub flush_threshold: usize,
}

impl Default for KvellOptions {
    fn default() -> Self {
        KvellOptions {
            slot_size: 256,
            slots: 64 << 10,
            staging_capacity: 8 << 20,
            flush_threshold: 4 << 20,
        }
    }
}

impl KvellOptions {
    /// Small limits for tests (frequent bulk flushes).
    pub fn tiny() -> Self {
        KvellOptions {
            slot_size: 192,
            slots: 256,
            staging_capacity: 16 << 10,
            flush_threshold: 8 << 10,
        }
    }
}

struct Inner {
    slab: File,
    staging: File,
    staging_used: u64,
    /// slot → serialised record, pending bulk flush.
    pending: HashMap<u32, Vec<u8>>,
    /// key → slot.
    index: HashMap<Vec<u8>, u32>,
    /// Free slots, recycled on delete (popped for new keys).
    free: Vec<u32>,
    flushes: u64,
}

/// A KVell-style no-log store (see module docs).
pub struct MiniKvell {
    fs: SplitFs,
    prefix: String,
    opts: KvellOptions,
    inner: Mutex<Inner>,
}

/// Slot record layout: `klen u16 | vlen u16 | key | value | crc u32` padded
/// to the slot size; an all-zero slot is free.
fn encode_slot(key: &[u8], value: &[u8], slot_size: usize) -> Result<Vec<u8>, AppError> {
    let need = 4 + key.len() + value.len() + 4;
    if need > slot_size {
        return Err(AppError::Storage(format!(
            "record of {} bytes exceeds slot size {slot_size}",
            key.len() + value.len()
        )));
    }
    let mut out = vec![0u8; slot_size];
    out[0..2].copy_from_slice(&(key.len() as u16).to_le_bytes());
    out[2..4].copy_from_slice(&(value.len() as u16).to_le_bytes());
    out[4..4 + key.len()].copy_from_slice(key);
    out[4 + key.len()..4 + key.len() + value.len()].copy_from_slice(value);
    let crc = checksum(&out[..4 + key.len() + value.len()]);
    let crc_at = 4 + key.len() + value.len();
    out[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    Ok(out)
}

fn decode_slot(slot: &[u8]) -> Option<(Vec<u8>, Vec<u8>)> {
    if slot.len() < 8 {
        return None;
    }
    let klen = u16::from_le_bytes(slot[0..2].try_into().expect("2")) as usize;
    let vlen = u16::from_le_bytes(slot[2..4].try_into().expect("2")) as usize;
    if klen == 0 || 4 + klen + vlen + 4 > slot.len() {
        return None;
    }
    let crc_at = 4 + klen + vlen;
    let crc = u32::from_le_bytes(slot[crc_at..crc_at + 4].try_into().expect("4"));
    if checksum(&slot[..crc_at]) != crc {
        return None;
    }
    Some((
        slot[4..4 + klen].to_vec(),
        slot[4 + klen..4 + klen + vlen].to_vec(),
    ))
}

/// Opens (creating or recovering) the NCL staging file of the store `prefix`.
fn open_staging(fs: &SplitFs, prefix: &str, capacity: usize) -> Result<File, AppError> {
    let opts = OpenOptions {
        create: true,
        ncl: true,
        capacity,
        pipelined: false,
    };
    Ok(fs.open(&format!("{prefix}staging"), opts)?)
}

impl MiniKvell {
    /// Opens (creating or recovering) a store named `prefix` on `fs`.
    ///
    /// Recovery scans the slab to rebuild the in-memory index (as KVell
    /// does), then replays the NCL staging buffer over it.
    pub fn open(fs: SplitFs, prefix: &str, opts: KvellOptions) -> Result<Self, AppError> {
        let slab_path = format!("{prefix}slab");
        let slab = fs.open(&slab_path, OpenOptions::create())?;

        let mut index = HashMap::new();
        let mut used = vec![false; opts.slots as usize];
        let slab_size = slab.size()? as usize;
        if slab_size > 0 {
            // Sequential slab scan (benefits from DFS readahead).
            let image = slab.read(0, slab_size)?;
            for (i, chunk) in image.chunks(opts.slot_size).enumerate() {
                if let Some((key, _)) = decode_slot(chunk) {
                    index.insert(key, i as u32);
                    used[i] = true;
                }
            }
        }

        let staging = open_staging(&fs, prefix, opts.staging_capacity)?;

        // Replay the staging buffer: newest record per slot wins.
        let mut pending: HashMap<u32, Vec<u8>> = HashMap::new();
        let image = staging.read(0, staging.size()? as usize)?;
        let mut pos = 0usize;
        while pos + 8 + opts.slot_size <= image.len() {
            let slot = u32::from_le_bytes(image[pos..pos + 4].try_into().expect("4"));
            let crc = u32::from_le_bytes(image[pos + 4..pos + 8].try_into().expect("4"));
            let rec = &image[pos + 8..pos + 8 + opts.slot_size];
            if slot == u32::MAX || checksum(rec) != crc || slot >= opts.slots {
                break;
            }
            match decode_slot(rec) {
                Some((key, _)) => {
                    index.insert(key, slot);
                    used[slot as usize] = true;
                }
                None => {
                    // A validly framed zero record is a staged tombstone:
                    // drop whatever key the slab scan attributed to the
                    // slot and free it.
                    index.retain(|_, &mut s| s != slot);
                    used[slot as usize] = false;
                }
            }
            pending.insert(slot, rec.to_vec());
            pos += 8 + opts.slot_size;
        }
        let staging_used = pos as u64;

        let free: Vec<u32> = (0..opts.slots)
            .rev()
            .filter(|&s| !used[s as usize])
            .collect();
        Ok(MiniKvell {
            fs,
            prefix: prefix.to_string(),
            opts,
            inner: Mutex::new(Inner {
                slab,
                staging,
                staging_used,
                pending,
                index,
                free,
                flushes: 0,
            }),
        })
    }

    /// Inserts or updates a record.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), AppError> {
        let record = encode_slot(key, value, self.opts.slot_size)?;
        let mut inner = self.inner.lock();
        let slot = match inner.index.get(key) {
            Some(&s) => s,
            None => {
                let s = inner
                    .free
                    .pop()
                    .ok_or_else(|| AppError::Storage("slab full: no free slots".to_string()))?;
                inner.index.insert(key.to_vec(), s);
                s
            }
        };
        self.stage_locked(&mut inner, slot, record)
    }

    /// Stages `record` for `slot`: one microsecond-scale durable append to
    /// the NCL tier, and a bulk flush once the tier is full enough.
    fn stage_locked(&self, inner: &mut Inner, slot: u32, record: Vec<u8>) -> Result<(), AppError> {
        let mut frame = Vec::with_capacity(8 + record.len());
        frame.extend_from_slice(&slot.to_le_bytes());
        frame.extend_from_slice(&checksum(&record).to_le_bytes());
        frame.extend_from_slice(&record);
        inner.staging.write_at(inner.staging_used, &frame)?;
        inner.staging_used += frame.len() as u64;
        inner.pending.insert(slot, record);
        if inner.staging_used as usize >= self.opts.flush_threshold {
            self.flush_locked(inner)?;
        }
        Ok(())
    }

    /// Point read.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, AppError> {
        let inner = self.inner.lock();
        let Some(&slot) = inner.index.get(key) else {
            return Ok(None);
        };
        if let Some(rec) = inner.pending.get(&slot) {
            return Ok(decode_slot(rec).map(|(_, v)| v));
        }
        let raw = inner.slab.read(
            slot as u64 * self.opts.slot_size as u64,
            self.opts.slot_size,
        )?;
        Ok(decode_slot(&raw).map(|(_, v)| v))
    }

    /// Deletes a record. The slot is zeroed (lazily via the staging tier).
    pub fn remove(&self, key: &[u8]) -> Result<bool, AppError> {
        let mut inner = self.inner.lock();
        let Some(slot) = inner.index.remove(key) else {
            return Ok(false);
        };
        inner.free.push(slot);
        let zero = vec![0u8; self.opts.slot_size];
        self.stage_locked(&mut inner, slot, zero)?;
        Ok(true)
    }

    /// Number of bulk staging→slab flushes so far.
    pub fn flush_count(&self) -> u64 {
        self.inner.lock().flushes
    }

    /// Bytes currently absorbed in the NCL staging tier.
    pub fn staged_bytes(&self) -> u64 {
        self.inner.lock().staging_used
    }

    /// Forces the staging tier into the slab now.
    pub fn flush(&self) -> Result<(), AppError> {
        let mut inner = self.inner.lock();
        self.flush_locked(&mut inner)
    }

    /// Writes pending records to the slab in ascending slot order (one
    /// coalesced bulk pass), fsyncs, and resets the staging buffer.
    fn flush_locked(&self, inner: &mut Inner) -> Result<(), AppError> {
        if inner.pending.is_empty() {
            return Ok(());
        }
        let mut slots: Vec<u32> = inner.pending.keys().copied().collect();
        slots.sort_unstable();
        for s in slots {
            let rec = inner.pending.remove(&s).expect("present");
            inner
                .slab
                .write_at(s as u64 * self.opts.slot_size as u64, &rec)?;
        }
        inner.slab.fsync()?;
        // Reset the staging file: release the region and start fresh (the
        // delete-reclaim pattern, like RocksDB's WAL).
        self.fs
            .unlink(&format!("{}staging", self.prefix))
            .map_err(AppError::from)?;
        inner.staging = open_staging(&self.fs, &self.prefix, self.opts.staging_capacity)?;
        inner.staging_used = 0;
        inner.flushes += 1;
        Ok(())
    }
}

impl KvApp for MiniKvell {
    fn insert(&self, key: &str, value: &[u8]) -> Result<(), AppError> {
        self.put(key.as_bytes(), value)
    }

    fn update(&self, key: &str, value: &[u8]) -> Result<(), AppError> {
        self.put(key.as_bytes(), value)
    }

    fn read(&self, key: &str) -> Result<Option<Vec<u8>>, AppError> {
        self.get(key.as_bytes())
    }
}
