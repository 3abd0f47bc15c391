//! Local file system stand-in (`ext4` on a SATA SSD).
//!
//! Figure 11(b) of the paper compares recovery from CephFS and from NCL
//! against recovery from a local ext4 partition — a baseline that is *not
//! realistic* in the disaggregated setting (a restarted application instance
//! generally lands on different hardware and cannot see the old local disk),
//! but useful as a speed-of-light reference. This module provides that
//! baseline: an in-memory file store charged with local-SSD latencies.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use sim::LatencyModel;

use crate::DfsError;

struct LocalFile {
    data: Vec<u8>,
    /// Bytes written since the last fsync (charged at fsync time).
    dirty_bytes: usize,
    /// Whether the file is resident in the OS page cache; cold reads charge
    /// media latency.
    in_page_cache: bool,
}

/// An in-process local file system with SSD-class latencies.
///
/// Cloning shares the underlying store (same machine). Unlike
/// [`crate::DfsClient`], there is no remote tier: `fsync` charges the local
/// media write cost for dirty bytes.
#[derive(Clone)]
pub struct LocalFs {
    write_model: LatencyModel,
    read_model: LatencyModel,
    cache_model: LatencyModel,
    files: Arc<Mutex<HashMap<String, LocalFile>>>,
}

impl LocalFs {
    /// Creates a local FS with calibrated SATA-SSD latencies.
    pub fn new() -> Self {
        LocalFs {
            write_model: LatencyModel::local_ssd_write(),
            read_model: LatencyModel::local_ssd_read(),
            cache_model: LatencyModel::page_cache_write(),
            files: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Creates a local FS that charges no latency (for functional tests).
    pub fn zero() -> Self {
        LocalFs {
            write_model: LatencyModel::ZERO,
            read_model: LatencyModel::ZERO,
            cache_model: LatencyModel::ZERO,
            files: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Creates a new empty file.
    pub fn create(&self, path: &str) -> Result<(), DfsError> {
        let mut files = self.files.lock();
        if files.contains_key(path) {
            return Err(DfsError::AlreadyExists(path.to_string()));
        }
        files.insert(
            path.to_string(),
            LocalFile {
                data: Vec::new(),
                dirty_bytes: 0,
                in_page_cache: true,
            },
        );
        Ok(())
    }

    /// True when the path exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.lock().contains_key(path)
    }

    /// Buffered write at `offset` (page-cache cost only).
    pub fn write(&self, path: &str, offset: u64, data: &[u8]) -> Result<(), DfsError> {
        self.cache_model.charge(data.len());
        let mut files = self.files.lock();
        let f = files
            .get_mut(path)
            .ok_or_else(|| DfsError::NotFound(path.to_string()))?;
        let end = offset as usize + data.len();
        if f.data.len() < end {
            f.data.resize(end, 0);
        }
        f.data[offset as usize..end].copy_from_slice(data);
        f.dirty_bytes += data.len();
        Ok(())
    }

    /// Flushes dirty bytes to "media".
    pub fn fsync(&self, path: &str) -> Result<(), DfsError> {
        let dirty = {
            let mut files = self.files.lock();
            let f = files
                .get_mut(path)
                .ok_or_else(|| DfsError::NotFound(path.to_string()))?;
            std::mem::take(&mut f.dirty_bytes)
        };
        if dirty > 0 {
            self.write_model.charge(dirty);
        }
        Ok(())
    }

    /// Reads up to `len` bytes at `offset` (short at end of file). Cold files
    /// charge media read latency once, then are page-cache resident.
    pub fn read(&self, path: &str, offset: u64, len: usize) -> Result<Vec<u8>, DfsError> {
        self.read_with(path, offset, len, <[u8]>::to_vec)
    }

    /// [`LocalFs::read`] without the copy: `f` runs over the file's own
    /// bytes, under the store's lock — it must not call back into this
    /// file system.
    pub fn read_with<R>(
        &self,
        path: &str,
        offset: u64,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, DfsError> {
        let (out, cold_bytes) = {
            let mut files = self.files.lock();
            let file = files
                .get_mut(path)
                .ok_or_else(|| DfsError::NotFound(path.to_string()))?;
            let cold = !std::mem::replace(&mut file.in_page_cache, true);
            let span = sim::short_read(file.data.len(), offset, len);
            (f(&file.data[span]), cold.then_some(file.data.len()))
        };
        if let Some(file_len) = cold_bytes {
            // Media read of the whole file (ext4 readahead on sequential log
            // recovery effectively streams it in).
            self.read_model.charge(file_len);
        }
        Ok(out)
    }

    /// File size in bytes.
    pub fn size(&self, path: &str) -> Result<u64, DfsError> {
        self.files
            .lock()
            .get(path)
            .map(|f| f.data.len() as u64)
            .ok_or_else(|| DfsError::NotFound(path.to_string()))
    }

    /// Deletes a file.
    pub fn delete(&self, path: &str) -> Result<(), DfsError> {
        self.files
            .lock()
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| DfsError::NotFound(path.to_string()))
    }

    /// Renames a file.
    pub fn rename(&self, old: &str, new: &str) -> Result<(), DfsError> {
        let mut files = self.files.lock();
        if files.contains_key(new) {
            return Err(DfsError::AlreadyExists(new.to_string()));
        }
        let f = files
            .remove(old)
            .ok_or_else(|| DfsError::NotFound(old.to_string()))?;
        files.insert(new.to_string(), f);
        Ok(())
    }

    /// Lists files with the given prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        let mut v: Vec<String> = self
            .files
            .lock()
            .keys()
            .filter(|p| p.starts_with(prefix))
            .cloned()
            .collect();
        v.sort();
        v
    }

    /// Evicts the file from the simulated page cache, making the next read
    /// charge media latency (used to measure cold recovery reads).
    pub fn drop_cache(&self, path: &str) {
        if let Some(f) = self.files.lock().get_mut(path) {
            f.in_page_cache = false;
        }
    }
}

impl Default for LocalFs {
    fn default() -> Self {
        LocalFs::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let fs = LocalFs::zero();
        fs.create("f").unwrap();
        fs.write("f", 0, b"abc").unwrap();
        fs.fsync("f").unwrap();
        assert_eq!(fs.read("f", 0, 3).unwrap(), b"abc");
        assert_eq!(fs.size("f").unwrap(), 3);
    }

    #[test]
    fn sparse_write_zero_fills() {
        let fs = LocalFs::zero();
        fs.create("f").unwrap();
        fs.write("f", 4, b"x").unwrap();
        assert_eq!(fs.read("f", 0, 5).unwrap(), vec![0, 0, 0, 0, b'x']);
    }

    #[test]
    fn rename_and_delete() {
        let fs = LocalFs::zero();
        fs.create("a").unwrap();
        fs.write("a", 0, b"1").unwrap();
        fs.rename("a", "b").unwrap();
        assert!(!fs.exists("a"));
        assert_eq!(fs.read("b", 0, 1).unwrap(), b"1");
        fs.delete("b").unwrap();
        assert!(!fs.exists("b"));
    }

    #[test]
    fn list_sorted_by_prefix() {
        let fs = LocalFs::zero();
        for p in ["x/2", "x/1", "y/1"] {
            fs.create(p).unwrap();
        }
        assert_eq!(fs.list("x/"), vec!["x/1".to_string(), "x/2".to_string()]);
    }

    #[test]
    fn cold_read_charges_latency() {
        let fs = LocalFs {
            read_model: LatencyModel::from_nanos(500_000, 0.0, 0.0),
            ..LocalFs::zero()
        };
        fs.create("f").unwrap();
        fs.write("f", 0, b"data").unwrap();
        fs.drop_cache("f");
        let sw = std::time::Instant::now();
        fs.read("f", 0, 4).unwrap();
        assert!(sw.elapsed() >= std::time::Duration::from_micros(500));
        // Second read is warm.
        let sw = std::time::Instant::now();
        fs.read("f", 0, 4).unwrap();
        assert!(sw.elapsed() < std::time::Duration::from_micros(400));
    }

    #[test]
    fn duplicate_create_rejected() {
        let fs = LocalFs::zero();
        fs.create("f").unwrap();
        assert!(matches!(fs.create("f"), Err(DfsError::AlreadyExists(_))));
    }
}
