//! Metadata service (MDS) of the simulated DFS.
//!
//! Holds the namespace: path → file id + size. Like the paper's CephFS MDS
//! (and the NCL controller), it is treated as a fault-tolerant service: the
//! simulation never crashes it. File *data* is addressed by the immutable
//! file id, so renames are pure metadata operations. A call is a method of
//! `Mds` run through `sim::rpc`.

use std::collections::HashMap;

use crate::DfsError;

/// Metadata for one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileMeta {
    /// Immutable identifier used to address the file's objects on the OSDs.
    pub id: u64,
    /// Current file size in bytes (as of the last `fsync`/`set_size`).
    pub size: u64,
}

/// The namespace, and the id the next file gets; every call is one of its
/// methods.
pub(crate) struct Mds {
    files: HashMap<String, FileMeta>,
    next_id: u64,
}

impl Mds {
    pub(crate) fn new() -> Self {
        Mds {
            files: HashMap::new(),
            next_id: 1,
        }
    }

    /// Creates a new empty file; fails if the path exists.
    pub(crate) fn create(&mut self, path: &str) -> Result<FileMeta, DfsError> {
        if self.files.contains_key(path) {
            return Err(DfsError::AlreadyExists(path.to_string()));
        }
        let meta = FileMeta {
            id: self.next_id,
            size: 0,
        };
        self.next_id += 1;
        self.files.insert(path.to_string(), meta);
        Ok(meta)
    }

    /// A file's metadata.
    pub(crate) fn lookup(&self, path: &str) -> Result<FileMeta, DfsError> {
        let meta = self.files.get(path).copied();
        meta.ok_or_else(|| DfsError::NotFound(path.to_string()))
    }

    /// Updates a file's size: only ever grows it (concurrent appenders)
    /// unless `exact`, which truncation passes with the smaller value.
    pub(crate) fn set_size(
        &mut self,
        path: &str,
        size: u64,
        exact: bool,
    ) -> Result<FileMeta, DfsError> {
        let meta =
            (self.files.get_mut(path)).ok_or_else(|| DfsError::NotFound(path.to_string()))?;
        meta.size = if exact { size } else { meta.size.max(size) };
        Ok(*meta)
    }

    /// Removes a file, returning its metadata so the caller can purge its
    /// OSD objects.
    pub(crate) fn delete(&mut self, path: &str) -> Result<FileMeta, DfsError> {
        let meta = self.files.remove(path);
        meta.ok_or_else(|| DfsError::NotFound(path.to_string()))
    }

    /// Renames a file (metadata only); fails if `new` exists.
    pub(crate) fn rename(&mut self, old: &str, new: &str) -> Result<(), DfsError> {
        if self.files.contains_key(new) {
            return Err(DfsError::AlreadyExists(new.to_string()));
        }
        let meta = self
            .files
            .remove(old)
            .ok_or_else(|| DfsError::NotFound(old.to_string()))?;
        self.files.insert(new.to_string(), meta);
        Ok(())
    }

    /// The paths with the given prefix, sorted.
    pub(crate) fn list(&self, prefix: &str) -> Vec<String> {
        let mut paths: Vec<String> = (self.files.keys())
            .filter(|p| p.starts_with(prefix))
            .cloned()
            .collect();
        paths.sort();
        paths
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_lookup_roundtrip() {
        let mut mds = Mds::new();
        let m = mds.create("a").unwrap();
        assert_eq!(m.size, 0);
        assert_eq!(mds.lookup("a").unwrap().id, m.id);
    }

    #[test]
    fn duplicate_create_rejected() {
        let mut mds = Mds::new();
        mds.create("a").unwrap();
        assert!(matches!(mds.create("a"), Err(DfsError::AlreadyExists(_))));
    }

    #[test]
    fn set_size_monotonic_unless_exact() {
        let mut mds = Mds::new();
        mds.create("a").unwrap();
        mds.set_size("a", 100, false).unwrap();
        let m = mds.set_size("a", 50, false).unwrap();
        assert_eq!(m.size, 100, "non-exact set never shrinks");
        let m = mds.set_size("a", 50, true).unwrap();
        assert_eq!(m.size, 50, "exact set truncates");
    }

    #[test]
    fn rename_moves_metadata_and_rejects_collision() {
        let mut mds = Mds::new();
        mds.create("a").unwrap();
        mds.create("b").unwrap();
        assert!(matches!(
            mds.rename("a", "b"),
            Err(DfsError::AlreadyExists(_))
        ));
        assert!(mds.rename("a", "c").is_ok());
        assert!(matches!(mds.lookup("a"), Err(DfsError::NotFound(_))));
        assert!(mds.lookup("c").is_ok());
    }

    #[test]
    fn delete_returns_meta_then_not_found() {
        let mut mds = Mds::new();
        mds.create("a").unwrap();
        assert!(mds.delete("a").is_ok());
        assert!(matches!(mds.delete("a"), Err(DfsError::NotFound(_))));
    }

    #[test]
    fn list_filters_by_prefix_sorted() {
        let mut mds = Mds::new();
        for p in ["wal/2", "wal/1", "sst/9"] {
            mds.create(p).unwrap();
        }
        assert_eq!(
            mds.list("wal/"),
            vec!["wal/1".to_string(), "wal/2".to_string()]
        );
    }
}
