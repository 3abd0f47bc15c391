//! The in-memory write buffer of the LSM tree.

use std::collections::BTreeMap;

use crate::kv::Entry;

/// A sorted in-memory table; `None` values are tombstones.
#[derive(Debug, Default, Clone)]
pub struct MemTable {
    map: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    approx_bytes: usize,
}

impl MemTable {
    /// Creates an empty memtable.
    pub fn new() -> Self {
        MemTable::default()
    }

    /// Applies one log entry, taking its key and value as they are.
    pub fn apply(&mut self, entry: Entry) {
        match entry {
            Entry::Put { key, value } => {
                self.approx_bytes += key.len() + value.len() + 32;
                self.map.insert(key, Some(value));
            }
            Entry::Delete { key } => {
                self.approx_bytes += key.len() + 32;
                self.map.insert(key, None);
            }
        }
    }

    /// Looks a key up: `None` = not present, `Some(None)` = tombstone,
    /// `Some(Some(v))` = live value.
    pub fn get(&self, key: &[u8]) -> Option<Option<&[u8]>> {
        self.map.get(key).map(|v| v.as_deref())
    }

    /// Rough memory footprint, used to trigger flushes.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Number of distinct keys (including tombstones).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries have been applied.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], Option<&[u8]>)> {
        self.map.iter().map(|(k, v)| (k.as_slice(), v.as_deref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(k: &str, v: &str) -> Entry {
        Entry::Put {
            key: k.into(),
            value: v.into(),
        }
    }

    #[test]
    fn put_get_delete_cycle() {
        let mut m = MemTable::new();
        m.apply(put("a", "1"));
        assert_eq!(m.get(b"a"), Some(Some(&b"1"[..])));
        m.apply(Entry::Delete { key: b"a".to_vec() });
        assert_eq!(m.get(b"a"), Some(None), "tombstone is visible");
        assert_eq!(m.get(b"b"), None);
    }

    #[test]
    fn overwrite_replaces_value() {
        let mut m = MemTable::new();
        m.apply(put("k", "old"));
        m.apply(put("k", "new"));
        assert_eq!(m.get(b"k"), Some(Some(&b"new"[..])));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut m = MemTable::new();
        for k in ["c", "a", "b"] {
            m.apply(put(k, "v"));
        }
        let keys: Vec<&[u8]> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![&b"a"[..], b"b", b"c"]);
    }

    #[test]
    fn size_grows_with_entries() {
        let mut m = MemTable::new();
        assert_eq!(m.approx_bytes(), 0);
        m.apply(put("key", "value"));
        assert!(m.approx_bytes() > 0);
    }
}
