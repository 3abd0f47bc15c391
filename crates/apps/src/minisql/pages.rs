//! Page formats of the MiniSql storage engine.
//!
//! The database file is an array of fixed-size pages. Page 0 is the meta
//! page (table geometry + allocation cursor); data pages hold sorted-insert
//! records for the keys that hash to them, with an overflow chain when a
//! bucket outgrows one page. Pages are the atomic unit of the write-ahead
//! log: a transaction logs full images of every page it touched.

use crate::kv::AppError;
use sim::crc32c;

/// Magic tag in the meta page.
pub const META_MAGIC: u32 = 0x4D53_514C; // "MSQL"

/// Meta page contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Meta {
    /// Number of hash-bucket pages (data pages 1..=npages).
    pub npages: u32,
    /// Next free page number for overflow allocation.
    pub next_free: u32,
}

impl Meta {
    /// Serialises into a full page image.
    pub fn encode(&self, page_size: usize) -> Vec<u8> {
        let mut page = vec![0u8; page_size];
        page[0..4].copy_from_slice(&META_MAGIC.to_le_bytes());
        page[4..8].copy_from_slice(&self.npages.to_le_bytes());
        page[8..12].copy_from_slice(&self.next_free.to_le_bytes());
        let crc = crc32c(&page[0..12]);
        page[12..16].copy_from_slice(&crc.to_le_bytes());
        page
    }

    /// Parses a meta page image.
    pub fn decode(page: &[u8]) -> Result<Meta, AppError> {
        if page.len() < 16 {
            return Err(AppError::Corrupt("meta page too small".into()));
        }
        let magic = u32::from_le_bytes(page[0..4].try_into().expect("4"));
        if magic != META_MAGIC {
            return Err(AppError::Corrupt("meta page magic".into()));
        }
        let crc = u32::from_le_bytes(page[12..16].try_into().expect("4"));
        if crc32c(&page[0..12]) != crc {
            return Err(AppError::Corrupt("meta page crc".into()));
        }
        Ok(Meta {
            npages: u32::from_le_bytes(page[4..8].try_into().expect("4")),
            next_free: u32::from_le_bytes(page[8..12].try_into().expect("4")),
        })
    }
}

/// Parsed contents of a data page.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DataPage {
    /// Next page in the bucket's overflow chain (0 = none).
    pub next_overflow: u32,
    /// Records in insertion order.
    pub records: Vec<(Vec<u8>, Vec<u8>)>,
}

/// Bytes of page header: next_overflow u32 + count u16.
const DATA_HEADER: usize = 6;

impl DataPage {
    /// Parses a data page image (an all-zero page is an empty page).
    pub fn decode(page: &[u8]) -> Result<DataPage, AppError> {
        if page.len() < DATA_HEADER {
            return Err(AppError::Corrupt("data page too small".into()));
        }
        let next_overflow = u32::from_le_bytes(page[0..4].try_into().expect("4"));
        let count = u16::from_le_bytes(page[4..6].try_into().expect("2")) as usize;
        let mut records = Vec::with_capacity(count);
        let mut pos = DATA_HEADER;
        for _ in 0..count {
            if pos + 4 > page.len() {
                return Err(AppError::Corrupt("data page record header".into()));
            }
            let klen = u16::from_le_bytes(page[pos..pos + 2].try_into().expect("2")) as usize;
            let vlen = u16::from_le_bytes(page[pos + 2..pos + 4].try_into().expect("2")) as usize;
            pos += 4;
            if pos + klen + vlen > page.len() {
                return Err(AppError::Corrupt("data page record body".into()));
            }
            let key = page[pos..pos + klen].to_vec();
            pos += klen;
            let value = page[pos..pos + vlen].to_vec();
            pos += vlen;
            records.push((key, value));
        }
        Ok(DataPage {
            next_overflow,
            records,
        })
    }

    /// Serialises into a full page image.
    ///
    /// # Panics
    ///
    /// Panics if the records do not fit (callers check with
    /// [`DataPage::fits`] before inserting).
    pub fn encode(&self, page_size: usize) -> Vec<u8> {
        let mut page = vec![0u8; page_size];
        page[0..4].copy_from_slice(&self.next_overflow.to_le_bytes());
        page[4..6].copy_from_slice(&(self.records.len() as u16).to_le_bytes());
        let mut pos = DATA_HEADER;
        for (k, v) in &self.records {
            page[pos..pos + 2].copy_from_slice(&(k.len() as u16).to_le_bytes());
            page[pos + 2..pos + 4].copy_from_slice(&(v.len() as u16).to_le_bytes());
            pos += 4;
            page[pos..pos + k.len()].copy_from_slice(k);
            pos += k.len();
            page[pos..pos + v.len()].copy_from_slice(v);
            pos += v.len();
        }
        page
    }

    /// Bytes the page would occupy serialised.
    pub fn encoded_len(&self) -> usize {
        DATA_HEADER
            + self
                .records
                .iter()
                .map(|(k, v)| 4 + k.len() + v.len())
                .sum::<usize>()
    }

    /// True when adding `(key, value)` keeps the page within `page_size`.
    pub fn fits(&self, key: &[u8], value: &[u8], page_size: usize) -> bool {
        self.encoded_len() + 4 + key.len() + value.len() <= page_size
    }

    /// Finds a record by key.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.records
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_slice())
    }

    /// Replaces or inserts a record; `Ok(true)` if it fit, `Ok(false)` if
    /// the page is full (caller moves down the overflow chain). A
    /// replacement that still fits always succeeds.
    pub fn upsert(&mut self, key: &[u8], value: &[u8], page_size: usize) -> bool {
        if let Some(pos) = self.records.iter().position(|(k, _)| k == key) {
            let grown = self.encoded_len() - self.records[pos].1.len() + value.len();
            if grown > page_size {
                return false;
            }
            self.records[pos].1 = value.to_vec();
            return true;
        }
        if !self.fits(key, value, page_size) {
            return false;
        }
        self.records.push((key.to_vec(), value.to_vec()));
        true
    }

    /// Removes a record; true when it existed.
    pub fn remove(&mut self, key: &[u8]) -> bool {
        let before = self.records.len();
        self.records.retain(|(k, _)| k != key);
        self.records.len() != before
    }
}

/// FNV-1a hash used to map keys to bucket pages.
pub fn bucket_of(key: &[u8], npages: u32) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    1 + (h % npages as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_roundtrip_and_corruption() {
        let m = Meta {
            npages: 128,
            next_free: 129,
        };
        let page = m.encode(4096);
        assert_eq!(Meta::decode(&page).unwrap(), m);
        let mut bad = page.clone();
        bad[5] ^= 1;
        assert!(Meta::decode(&bad).is_err());
    }

    #[test]
    fn empty_zero_page_decodes_as_empty() {
        let page = vec![0u8; 4096];
        let dp = DataPage::decode(&page).unwrap();
        assert_eq!(dp.next_overflow, 0);
        assert!(dp.records.is_empty());
    }

    #[test]
    fn data_page_roundtrip() {
        let mut dp = DataPage::default();
        assert!(dp.upsert(b"key1", b"value1", 4096));
        assert!(dp.upsert(b"key2", b"value2", 4096));
        dp.next_overflow = 77;
        let page = dp.encode(4096);
        let back = DataPage::decode(&page).unwrap();
        assert_eq!(back, dp);
        assert_eq!(back.get(b"key1"), Some(&b"value1"[..]));
        assert_eq!(back.get(b"nope"), None);
    }

    #[test]
    fn upsert_replaces_in_place() {
        let mut dp = DataPage::default();
        dp.upsert(b"k", b"old", 4096);
        dp.upsert(b"k", b"new", 4096);
        assert_eq!(dp.records.len(), 1);
        assert_eq!(dp.get(b"k"), Some(&b"new"[..]));
    }

    #[test]
    fn page_overflow_detected() {
        let mut dp = DataPage::default();
        let big = vec![0u8; 100];
        let mut inserted = 0;
        while dp.upsert(format!("key{inserted}").as_bytes(), &big, 512) {
            inserted += 1;
        }
        assert!(inserted > 0);
        assert!(dp.encoded_len() <= 512);
    }

    #[test]
    fn remove_works() {
        let mut dp = DataPage::default();
        dp.upsert(b"a", b"1", 4096);
        assert!(dp.remove(b"a"));
        assert!(!dp.remove(b"a"));
        assert_eq!(dp.get(b"a"), None);
    }

    #[test]
    fn bucket_distribution_covers_range() {
        let npages = 16;
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            let b = bucket_of(format!("user{i}").as_bytes(), npages);
            assert!((1..=npages).contains(&b));
            seen.insert(b);
        }
        assert!(seen.len() > npages as usize / 2, "poor hash spread");
    }
}
