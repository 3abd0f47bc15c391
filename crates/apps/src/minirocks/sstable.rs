//! Sorted-string tables: the LSM tree's immutable on-DFS files.
//!
//! An SSTable is built in memory and written with **one bulk write + fsync**
//! — exactly the large background IO the paper's Figure 1(a) shows dwarfing
//! the log writes by orders of magnitude. Layout:
//!
//! ```text
//! [data blocks]* [index block] [bloom filter] [footer (fixed 40 bytes)]
//! ```
//!
//! Each data block holds sorted `(key, tag, value)` entries and is the read
//! granularity; the index stores each block's last key and extent; the
//! bloom filter cuts pointless block fetches on misses.

use splitfs::{File, OpenOptions, SplitFs};

use crate::kv::AppError;
use sim::crc32c;

/// Footer magic.
const SST_MAGIC: u32 = 0x5353_5431; // "SST1"
/// Fixed footer size at the end of the file.
const FOOTER_SIZE: usize = 40;
/// Most probes a bloom filter makes per key: what the builder clamps to and
/// the decoder accepts, so a corrupt filter cannot cost 2^32 of them.
const MAX_PROBES: u32 = 30;

/// Bloom filter over the table's keys.
#[derive(Debug, Clone)]
pub struct Bloom {
    bits: Vec<u8>,
    k: u32,
}

impl Bloom {
    /// Builds a filter sized for `n` keys at `bits_per_key`.
    pub fn build<'a>(keys: impl Iterator<Item = &'a [u8]>, n: usize, bits_per_key: usize) -> Self {
        let nbits = (n.max(1) * bits_per_key).max(64);
        let nbits = nbits.next_power_of_two();
        let k = ((bits_per_key as f64) * 0.69) as u32;
        let k = k.clamp(1, MAX_PROBES);
        let mut bits = vec![0u8; nbits / 8];
        for key in keys {
            let (mut h, delta) = Self::hashes(key);
            for _ in 0..k {
                let bit = (h as usize) & (nbits - 1);
                bits[bit / 8] |= 1 << (bit % 8);
                h = h.wrapping_add(delta);
            }
        }
        Bloom { bits, k }
    }

    fn hashes(key: &[u8]) -> (u64, u64) {
        // Double hashing from one 64-bit FNV-1a pass.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in key {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        (h, (h >> 17) | 1)
    }

    /// True when the key *may* be present (no false negatives).
    pub fn may_contain(&self, key: &[u8]) -> bool {
        let nbits = self.bits.len() * 8;
        if nbits == 0 {
            return true;
        }
        let (mut h, delta) = Self::hashes(key);
        for _ in 0..self.k {
            let bit = (h as usize) & (nbits - 1);
            if self.bits[bit / 8] & (1 << (bit % 8)) == 0 {
                return false;
            }
            h = h.wrapping_add(delta);
        }
        true
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.bits.len() + 4);
        out.extend_from_slice(&self.k.to_le_bytes());
        out.extend_from_slice(&self.bits);
        out
    }

    fn decode(mut buf: &[u8]) -> Result<Self, AppError> {
        match take(&mut buf).map(u32::from_le_bytes) {
            Some(k @ 1..=MAX_PROBES) => Ok(Bloom {
                k,
                bits: buf.to_vec(),
            }),
            Some(k) => Err(AppError::Corrupt(format!(
                "bloom probes {k} outside 1..={MAX_PROBES}"
            ))),
            None => Err(AppError::Corrupt("bloom too short".into())),
        }
    }
}

/// Takes `N` bytes off the front of `buf`, or `None` when it is shorter.
fn take<const N: usize>(buf: &mut &[u8]) -> Option<[u8; N]> {
    let whole: &[u8] = buf;
    let (head, rest) = whole.split_first_chunk()?;
    *buf = rest;
    Some(*head)
}

/// Takes a `u32` length and that many bytes off the front of `buf`.
fn take_prefixed<'a>(buf: &mut &'a [u8]) -> Option<&'a [u8]> {
    let len = u32::from_le_bytes(take(buf)?) as usize;
    let (run, rest) = buf.split_at_checked(len)?;
    *buf = rest;
    Some(run)
}

/// The block index, flat: a binary search touches `ends` and one run of
/// `keys`, not a heap allocation per probe. On disk each block is one
/// `klen u32 | last key | offset u64 | len u32` entry.
#[derive(Debug, Default)]
struct BlockIndex {
    /// Every block's last key, end to end.
    keys: Vec<u8>,
    /// `ends[i]`: where block `i`'s last key ends in `keys`.
    ends: Vec<u32>,
    /// `blocks[i]`: the block's `(offset, len)` in the file.
    blocks: Vec<(u64, u32)>,
}

impl BlockIndex {
    fn push(&mut self, last_key: &[u8], offset: u64, len: u32) {
        self.keys.extend_from_slice(last_key);
        self.ends.push(self.keys.len() as u32);
        self.blocks.push((offset, len));
    }

    /// Appends one block's entry to an encoded index.
    fn encode_entry(out: &mut Vec<u8>, last_key: &[u8], offset: u64, len: u32) {
        out.extend_from_slice(&(last_key.len() as u32).to_le_bytes());
        out.extend_from_slice(last_key);
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
    }

    /// Decodes an encoded index. Only the footer carries a CRC, so an entry
    /// cut short is corruption, not a panic.
    fn decode(mut buf: &[u8]) -> Result<Self, AppError> {
        let mut index = BlockIndex::default();
        while !buf.is_empty() {
            let (last_key, offset, len) = Self::next_entry(&mut buf)
                .ok_or_else(|| AppError::Corrupt("sstable index entry cut short".into()))?;
            index.push(last_key, offset, len);
        }
        Ok(index)
    }

    /// Takes one entry off the front of `buf`.
    fn next_entry<'a>(buf: &mut &'a [u8]) -> Option<(&'a [u8], u64, u32)> {
        let last_key = take_prefixed(buf)?;
        let offset = u64::from_le_bytes(take(buf)?);
        Some((last_key, offset, u32::from_le_bytes(take(buf)?)))
    }

    fn last_key(&self, block: usize) -> &[u8] {
        let start = block.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.keys[start as usize..self.ends[block] as usize]
    }

    /// The first block whose last key is `>= key`: the only one that can
    /// hold it.
    fn find(&self, key: &[u8]) -> Option<(u64, u32)> {
        let (mut lo, mut hi) = (0, self.blocks.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.last_key(mid) < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        self.blocks.get(lo).copied()
    }
}

/// One data-block entry: a key and its value, `None` for a tombstone.
type BlockEntry<'a> = (&'a [u8], Option<&'a [u8]>);

/// The entries of one data block, in key order. Blocks carry no checksum
/// of their own, so an entry that runs past its block (a short read, say)
/// ends the walk with `Corrupt`, not a panic.
fn entries(mut block: &[u8]) -> impl Iterator<Item = Result<BlockEntry<'_>, AppError>> {
    std::iter::from_fn(move || {
        (!block.is_empty()).then(|| {
            next_entry(&mut block).ok_or_else(|| {
                block = &[];
                AppError::Corrupt("sstable entry runs past its block".into())
            })
        })
    })
}

/// Takes one data-block entry off the front of `buf`.
fn next_entry<'a>(buf: &mut &'a [u8]) -> Option<BlockEntry<'a>> {
    let key = take_prefixed(buf)?;
    match take(buf)? {
        [0] => Some((key, None)),
        [1] => Some((key, Some(take_prefixed(buf)?))),
        _ => None,
    }
}

/// Streaming SSTable builder.
pub struct SstBuilder {
    block_size: usize,
    bits_per_key: usize,
    buf: Vec<u8>,
    block_start: usize,
    block_last_key: Vec<u8>,
    /// The block index, encoded.
    index: Vec<u8>,
    keys: Vec<Vec<u8>>,
    first_key: Option<Vec<u8>>,
    count: u64,
}

impl SstBuilder {
    /// Creates a builder with the given block size and bloom density.
    pub fn new(block_size: usize, bits_per_key: usize) -> Self {
        SstBuilder {
            block_size,
            bits_per_key,
            buf: Vec::new(),
            block_start: 0,
            block_last_key: Vec::new(),
            index: Vec::new(),
            keys: Vec::new(),
            first_key: None,
            count: 0,
        }
    }

    /// Adds the next entry; keys must arrive in strictly ascending order.
    /// `value = None` writes a tombstone.
    pub fn add(&mut self, key: &[u8], value: Option<&[u8]>) {
        debug_assert!(
            self.keys.last().map(|k| k.as_slice() < key).unwrap_or(true),
            "keys must be added in ascending order"
        );
        if self.first_key.is_none() {
            self.first_key = Some(key.to_vec());
        }
        self.buf
            .extend_from_slice(&(key.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(key);
        match value {
            Some(v) => {
                self.buf.push(1);
                self.buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
                self.buf.extend_from_slice(v);
            }
            None => self.buf.push(0),
        }
        self.block_last_key = key.to_vec();
        self.keys.push(key.to_vec());
        self.count += 1;
        if self.buf.len() - self.block_start >= self.block_size {
            self.finish_block();
        }
    }

    fn finish_block(&mut self) {
        if self.buf.len() == self.block_start {
            return;
        }
        let (offset, len) = (self.block_start, self.buf.len() - self.block_start);
        let last_key = &self.block_last_key;
        BlockIndex::encode_entry(&mut self.index, last_key, offset as u64, len as u32);
        self.block_start = self.buf.len();
    }

    /// Serialises the table and writes it to `path` on `fs` as a single
    /// bulk write followed by an fsync. Returns the reader-side metadata.
    pub fn finish(mut self, fs: &SplitFs, path: &str) -> Result<SstReader, AppError> {
        self.finish_block();
        let bloom = Bloom::build(
            self.keys.iter().map(Vec::as_slice),
            self.keys.len(),
            self.bits_per_key,
        );

        let mut region = |bytes: &[u8]| {
            let offset = self.buf.len() as u64;
            self.buf.extend_from_slice(bytes);
            (offset, bytes.len() as u32)
        };
        let (index, bloom_region) = (region(&self.index), region(&bloom.encode()));
        self.buf
            .extend_from_slice(&footer(index, bloom_region, self.count));

        let file = fs.open(path, OpenOptions::create())?;
        file.write_at(0, &self.buf)?;
        file.fsync()?;

        // The reader's index is what an open decodes, allocated once the
        // table's buffer has stopped growing.
        Ok(SstReader {
            file,
            path: path.to_string(),
            index: BlockIndex::decode(&self.index)?,
            bloom,
            first_key: self.first_key.unwrap_or_default(),
            last_key: self.block_last_key,
            count: self.count,
        })
    }
}

/// The footer: where the index and the bloom filter lie, each
/// `(offset, len)`, the entry count, the magic and a CRC over all of it.
fn footer(index: (u64, u32), bloom: (u64, u32), count: u64) -> [u8; FOOTER_SIZE] {
    let mut footer = [0; FOOTER_SIZE];
    footer[0..8].copy_from_slice(&index.0.to_le_bytes());
    footer[8..12].copy_from_slice(&index.1.to_le_bytes());
    footer[12..20].copy_from_slice(&bloom.0.to_le_bytes());
    footer[20..24].copy_from_slice(&bloom.1.to_le_bytes());
    footer[24..32].copy_from_slice(&count.to_le_bytes());
    footer[32..36].copy_from_slice(&SST_MAGIC.to_le_bytes());
    let crc = crc32c(&footer[..36]);
    footer[36..].copy_from_slice(&crc.to_le_bytes());
    footer
}

/// Read-side handle to an SSTable.
pub struct SstReader {
    file: File,
    path: String,
    index: BlockIndex,
    bloom: Bloom,
    first_key: Vec<u8>,
    last_key: Vec<u8>,
    count: u64,
}

impl SstReader {
    /// Opens an existing table: reads the footer, index and bloom filter.
    pub fn open(fs: &SplitFs, path: &str) -> Result<Self, AppError> {
        let file = fs.open(path, OpenOptions::plain())?;
        let size = file.size()? as usize;
        if size < FOOTER_SIZE {
            return Err(AppError::Corrupt(format!("{path}: too small")));
        }
        let footer = file.read((size - FOOTER_SIZE) as u64, FOOTER_SIZE)?;
        let crc = u32::from_le_bytes(footer[36..40].try_into().expect("4"));
        if crc32c(&footer[..36]) != crc {
            return Err(AppError::Corrupt(format!("{path}: footer crc")));
        }
        let magic = u32::from_le_bytes(footer[32..36].try_into().expect("4"));
        if magic != SST_MAGIC {
            return Err(AppError::Corrupt(format!("{path}: bad magic")));
        }
        let index_off = u64::from_le_bytes(footer[0..8].try_into().expect("8"));
        let index_len = u32::from_le_bytes(footer[8..12].try_into().expect("4")) as usize;
        let bloom_off = u64::from_le_bytes(footer[12..20].try_into().expect("8"));
        let bloom_len = u32::from_le_bytes(footer[20..24].try_into().expect("4")) as usize;
        let count = u64::from_le_bytes(footer[24..32].try_into().expect("8"));

        // A footer pointing past the end of the file reads short.
        let whole = |buf: &[u8], len: usize, what: &str| {
            if buf.len() == len {
                Ok(())
            } else {
                Err(AppError::Corrupt(format!("{path}: {what} cut short")))
            }
        };
        let index = file.read_with(index_off, index_len, |buf| {
            whole(buf, index_len, "index").and_then(|()| BlockIndex::decode(buf))
        })??;
        let bloom = file.read_with(bloom_off, bloom_len, |buf| {
            whole(buf, bloom_len, "bloom").and_then(|()| Bloom::decode(buf))
        })??;
        let last_block = index.blocks.len().checked_sub(1);
        let last_key = last_block.map_or(Vec::new(), |b| index.last_key(b).to_vec());
        // First key needs the first block's first entry.
        let first_key = match index.blocks.first() {
            Some(&(offset, len)) => file.read_with(offset, len as usize, |block| {
                let first = entries(block).next().unwrap_or(Ok((&[], None)));
                first.map(|(k, _)| k.to_vec())
            })??,
            None => Vec::new(),
        };
        Ok(SstReader {
            file,
            path: path.to_string(),
            index,
            bloom,
            first_key,
            last_key,
            count,
        })
    }

    /// The table's path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Smallest key in the table.
    pub fn first_key(&self) -> &[u8] {
        &self.first_key
    }

    /// Largest key in the table.
    pub fn last_key(&self) -> &[u8] {
        &self.last_key
    }

    /// Number of entries (including tombstones).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when `key` falls inside the table's key range.
    pub fn covers(&self, key: &[u8]) -> bool {
        !self.index.blocks.is_empty()
            && key >= self.first_key.as_slice()
            && key <= self.last_key.as_slice()
    }

    /// Point lookup: `None` = absent, `Some(None)` = tombstone.
    pub fn get(&self, key: &[u8]) -> Result<Option<Option<Vec<u8>>>, AppError> {
        if !self.covers(key) || !self.bloom.may_contain(key) {
            return Ok(None);
        }
        let Some((offset, len)) = self.index.find(key) else {
            return Ok(None);
        };
        // The block is searched where the file system holds it; only the
        // match is copied out.
        self.file.read_with(offset, len as usize, |block| {
            for entry in entries(block) {
                let (k, value) = entry?;
                match k.cmp(key) {
                    std::cmp::Ordering::Equal => return Ok(Some(value.map(<[u8]>::to_vec))),
                    std::cmp::Ordering::Greater => return Ok(None),
                    std::cmp::Ordering::Less => continue,
                }
            }
            Ok(None)
        })?
    }

    /// Streams every entry in key order (used by compaction).
    #[allow(clippy::type_complexity)] // `(key, Option<value>)` rows; a named type would obscure it.
    pub fn scan_all(&self) -> Result<Vec<(Vec<u8>, Option<Vec<u8>>)>, AppError> {
        let mut out = Vec::with_capacity(self.count as usize);
        for &(offset, len) in &self.index.blocks {
            self.file.read_with(offset, len as usize, |block| {
                for entry in entries(block) {
                    let (k, v) = entry?;
                    out.push((k.to_vec(), v.map(<[u8]>::to_vec)));
                }
                Ok::<_, AppError>(())
            })??;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs::{DfsCluster, DfsConfig};
    use proptest::prelude::*;

    /// A Local mount of a zero-latency DFS, which serves while the returned
    /// store lives.
    fn local_fs() -> (DfsCluster, SplitFs) {
        let cluster = sim::Cluster::new();
        let disk = DfsCluster::start(&cluster, DfsConfig::zero());
        let fs = SplitFs::local(disk.client(cluster.add_node("app")));
        (disk, fs)
    }

    #[test]
    fn build_and_read_back() {
        let (_disk, fs) = local_fs();
        let mut b = SstBuilder::new(64, 10);
        for i in 0..100u32 {
            let k = format!("key{i:04}");
            b.add(k.as_bytes(), Some(format!("val{i}").as_bytes()));
        }
        let reader = b.finish(&fs, "sst-1").unwrap();
        assert_eq!(reader.count(), 100);
        assert_eq!(
            reader.get(b"key0042").unwrap(),
            Some(Some(b"val42".to_vec()))
        );
        assert_eq!(reader.get(b"missing").unwrap(), None);
        assert_eq!(reader.get(b"key9999").unwrap(), None);
    }

    #[test]
    fn reopen_from_disk() {
        let (_disk, fs) = local_fs();
        let mut b = SstBuilder::new(64, 10);
        b.add(b"alpha", Some(b"1"));
        b.add(b"beta", None); // Tombstone.
        b.add(b"gamma", Some(b"3"));
        b.finish(&fs, "sst-2").unwrap();
        let reader = SstReader::open(&fs, "sst-2").unwrap();
        assert_eq!(reader.first_key(), b"alpha");
        assert_eq!(reader.last_key(), b"gamma");
        assert_eq!(reader.get(b"alpha").unwrap(), Some(Some(b"1".to_vec())));
        assert_eq!(reader.get(b"beta").unwrap(), Some(None), "tombstone");
        assert_eq!(reader.get(b"aaaa").unwrap(), None);
    }

    #[test]
    fn scan_returns_everything_in_order() {
        let (_disk, fs) = local_fs();
        let mut b = SstBuilder::new(32, 10);
        for i in 0..50u32 {
            b.add(format!("k{i:03}").as_bytes(), Some(b"v"));
        }
        let reader = b.finish(&fs, "sst-3").unwrap();
        let all = reader.scan_all().unwrap();
        assert_eq!(all.len(), 50);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn bloom_filters_absent_keys() {
        let keys: Vec<Vec<u8>> = (0..1000).map(|i| format!("key-{i}").into_bytes()).collect();
        let bloom = Bloom::build(keys.iter().map(|k| k.as_slice()), keys.len(), 10);
        for k in &keys {
            assert!(bloom.may_contain(k), "no false negatives");
        }
        let mut false_positives = 0;
        for i in 0..1000 {
            if bloom.may_contain(format!("absent-{i}").as_bytes()) {
                false_positives += 1;
            }
        }
        assert!(
            false_positives < 50,
            "fp rate too high: {false_positives}/1000"
        );
    }

    #[test]
    fn corrupt_footer_detected() {
        let (_disk, fs) = local_fs();
        let mut b = SstBuilder::new(64, 10);
        b.add(b"k", Some(b"v"));
        b.finish(&fs, "sst-4").unwrap();
        // Flip a byte in the footer region.
        let f = fs.open("sst-4", OpenOptions::plain()).unwrap();
        let size = f.size().unwrap();
        f.write_at(size - 10, &[0xFF]).unwrap();
        assert!(matches!(
            SstReader::open(&fs, "sst-4"),
            Err(AppError::Corrupt(_))
        ));
    }

    #[test]
    fn covers_respects_key_range() {
        let (_disk, fs) = local_fs();
        let mut b = SstBuilder::new(64, 10);
        b.add(b"m", Some(b"1"));
        b.add(b"p", Some(b"2"));
        let r = b.finish(&fs, "sst-5").unwrap();
        assert!(!r.covers(b"a"));
        assert!(r.covers(b"m"));
        assert!(r.covers(b"n"));
        assert!(r.covers(b"p"));
        assert!(!r.covers(b"z"));
    }

    #[test]
    fn empty_table_roundtrips() {
        let (_disk, fs) = local_fs();
        let b = SstBuilder::new(64, 10);
        let r = b.finish(&fs, "sst-6").unwrap();
        assert_eq!(r.count(), 0);
        assert_eq!(r.get(b"anything").unwrap(), None);
        let r2 = SstReader::open(&fs, "sst-6").unwrap();
        assert_eq!(r2.count(), 0);
    }

    /// The reader changed, the format did not: the bytes a builder writes
    /// for a fixed input, by length and CRC as this test read them at the
    /// commit before the reader's index went flat.
    #[test]
    fn table_bytes_on_the_file_system_are_unchanged() {
        let (_disk, fs) = local_fs();
        let mut b = SstBuilder::new(256, 10);
        for i in 0..200u32 {
            let k = format!("key{i:05}");
            let v = (i % 7 != 0).then(|| format!("value-{i}-{}", "x".repeat(i as usize % 40)));
            b.add(k.as_bytes(), v.as_deref().map(str::as_bytes));
        }
        let built = b.finish(&fs, "sst-golden").unwrap();
        let f = fs.open("sst-golden", OpenOptions::plain()).unwrap();
        let bytes = f.read(0, f.size().unwrap() as usize).unwrap();
        assert_eq!((bytes.len(), crc32c(&bytes)), (9259, 151_272_950));
        // And both ways to a reader agree on every key.
        let opened = SstReader::open(&fs, "sst-golden").unwrap();
        assert_eq!(opened.scan_all().unwrap(), built.scan_all().unwrap());
        for (k, v) in built.scan_all().unwrap() {
            assert_eq!(opened.get(&k).unwrap(), Some(v.clone()));
            assert_eq!(built.get(&k).unwrap(), Some(v));
        }
    }

    /// Writes `meta` as a table whose valid footer places the index and the
    /// bloom filter at `index` and `bloom`, each `(offset, len)`.
    fn write_meta(fs: &SplitFs, path: &str, meta: &[u8], index: (u64, u32), bloom: (u64, u32)) {
        let file = fs.open(path, OpenOptions::create()).unwrap();
        file.write_at(0, &[meta, &footer(index, bloom, 0)].concat())
            .unwrap();
    }

    /// Only the footer carries a CRC: an index or bloom region it points at
    /// that is cut short, or a filter that asks for 2^32 - 1 probes, is
    /// corruption, not a panic or a hang.
    #[test]
    fn corrupt_metadata_behind_a_valid_footer_is_corrupt() {
        let (_disk, fs) = local_fs();
        let mut index = Vec::new();
        BlockIndex::encode_entry(&mut index, b"", 0, 0);
        let bloom = Bloom::build([&b"k"[..]].into_iter(), 1, 10).encode();
        let mut wild = bloom.clone();
        wild[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let (ilen, blen) = (index.len() as u32, bloom.len() as u32);
        let at_bloom = (ilen as u64, blen);
        let cases = [
            ("sound", &bloom, (0, ilen), at_bloom, true),
            (
                "index past the end",
                &bloom,
                (1 << 20, ilen),
                at_bloom,
                false,
            ),
            (
                "index entry cut short",
                &bloom,
                (0, ilen - 1),
                at_bloom,
                false,
            ),
            (
                "bloom past the end",
                &bloom,
                (0, ilen),
                (1 << 20, blen),
                false,
            ),
            ("2^32 - 1 bloom probes", &wild, (0, ilen), at_bloom, false),
        ];
        for (what, bloom, at_index, at_bloom, sound) in cases {
            write_meta(&fs, what, &[&index[..], bloom].concat(), at_index, at_bloom);
            match SstReader::open(&fs, what) {
                Ok(_) => assert!(sound, "{what}"),
                Err(e) => assert!(!sound && matches!(e, AppError::Corrupt(_)), "{what}: {e}"),
            }
        }
    }

    fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(any::<u8>(), 0..max)
    }

    /// A data block's second entry cut one byte short by its index extent,
    /// as a short read at the end of the file would cut it: the lookup and
    /// the scan that reach it fail `Corrupt`, so a compaction keeps its
    /// inputs.
    #[test]
    fn a_cut_data_block_is_corrupt_not_a_panic() {
        let (_disk, fs) = local_fs();
        let mut b = SstBuilder::new(usize::MAX, 10);
        b.add(b"a", Some(b"1"));
        let first = b.buf.len();
        b.add(b"k", Some(b"value"));
        let mut index = Vec::new();
        BlockIndex::encode_entry(&mut index, b"a", 0, first as u32);
        let cut = (b.buf.len() - first - 1) as u32;
        BlockIndex::encode_entry(&mut index, b"k", first as u64, cut);
        let bloom = Bloom::build([&b"a"[..], b"k"].into_iter(), 2, 10).encode();
        let at_index = (b.buf.len() as u64, index.len() as u32);
        let at_bloom = (at_index.0 + index.len() as u64, bloom.len() as u32);
        let meta = [&b.buf[..], &index, &bloom].concat();
        write_meta(&fs, "cut", &meta, at_index, at_bloom);
        let table = SstReader::open(&fs, "cut").unwrap();
        assert_eq!(table.get(b"a").unwrap(), Some(Some(b"1".to_vec())));
        assert!(matches!(table.get(b"k"), Err(AppError::Corrupt(_))));
        assert!(matches!(table.scan_all(), Err(AppError::Corrupt(_))));
    }

    /// Block index entries: a last key and an extent each.
    fn index_entries() -> impl Strategy<Value = Vec<(Vec<u8>, u64, u32)>> {
        prop::collection::vec((bytes(12), any::<u64>(), any::<u32>()), 0..6)
    }

    // The index and the bloom filter are read back from the file system
    // with no checksum of their own, so no bytes may panic their decoders,
    // and an encoded value decodes as written.
    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic_the_metadata_decoders(raw in bytes(96)) {
            let _ = BlockIndex::decode(&raw);
            if let Ok(bloom) = Bloom::decode(&raw) {
                prop_assert!((1..=MAX_PROBES).contains(&bloom.k));
                let _ = bloom.may_contain(&raw);
            }
        }

        #[test]
        fn an_index_decodes_as_written_and_a_cut_one_is_corrupt(case in (index_entries(), any::<u16>())) {
            let (written, cut) = case;
            let (mut raw, mut ends) = (Vec::new(), vec![0]);
            for (last_key, offset, len) in &written {
                BlockIndex::encode_entry(&mut raw, last_key, *offset, *len);
                ends.push(raw.len());
            }
            // A cut between entries is a shorter index; anywhere else it is
            // corruption.
            for cut in [raw.len(), cut as usize % (raw.len() + 1)] {
                match (BlockIndex::decode(&raw[..cut]), ends.iter().position(|&e| e == cut)) {
                    (Ok(index), Some(n)) => {
                        let read = (0..index.blocks.len()).map(|b| (index.last_key(b), index.blocks[b]));
                        let want = written[..n].iter().map(|(k, o, l)| (&k[..], (*o, *l)));
                        prop_assert!(read.eq(want), "cut at {cut}");
                    }
                    (Err(AppError::Corrupt(_)), None) => {}
                    (read, _) => prop_assert!(false, "cut at {cut} of {ends:?}: {read:?}"),
                }
            }
        }

        #[test]
        fn a_bloom_filter_decodes_as_written(case in (prop::collection::vec(bytes(12), 0..40), 1..24usize)) {
            let (keys, bits_per_key) = case;
            let written = Bloom::build(keys.iter().map(Vec::as_slice), keys.len(), bits_per_key);
            let read = Bloom::decode(&written.encode()).unwrap();
            prop_assert_eq!((read.k, &read.bits), (written.k, &written.bits));
            prop_assert!(keys.iter().all(|k| read.may_contain(k)));
        }

        #[test]
        fn a_table_with_arbitrary_metadata_opens_or_is_corrupt(case in (bytes(64), bytes(64))) {
            let (index, bloom) = case;
            let (_disk, fs) = local_fs();
            let (at_index, at_bloom) = ((0, index.len() as u32), (index.len() as u64, bloom.len() as u32));
            write_meta(&fs, "sst", &[index, bloom].concat(), at_index, at_bloom);
            match SstReader::open(&fs, "sst") {
                Ok(_) | Err(AppError::Corrupt(_)) => {}
                Err(e) => prop_assert!(false, "{e}"),
            }
        }
    }

    /// Data-block entries: a key, a value, and whether a tombstone replaces
    /// the value.
    fn block_entries() -> impl Strategy<Value = Vec<(Vec<u8>, Vec<u8>, bool)>> {
        prop::collection::vec((bytes(12), bytes(12), any::<bool>()), 0..6)
    }

    // A data block has no checksum of its own either.
    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic_the_block_decoder(raw in bytes(96)) {
            let _ = entries(&raw).count();
        }

        #[test]
        fn a_block_decodes_as_written_and_a_cut_one_is_corrupt(case in (block_entries(), any::<u16>())) {
            let (mut written, cut) = case;
            written.sort_by(|a, b| a.0.cmp(&b.0));
            written.dedup_by(|a, b| a.0 == b.0);
            let (mut block, mut ends) = (SstBuilder::new(usize::MAX, 10), vec![0]);
            for (key, value, tombstone) in &written {
                block.add(key, (!tombstone).then_some(&value[..]));
                ends.push(block.buf.len());
            }
            let raw = &block.buf;
            // A cut between entries is a shorter block; anywhere else it is
            // corruption.
            for cut in [raw.len(), cut as usize % (raw.len() + 1)] {
                let read: Result<Vec<_>, _> = entries(&raw[..cut]).collect();
                match (read, ends.iter().position(|&e| e == cut)) {
                    (Ok(read), Some(n)) => {
                        let want = written[..n].iter().map(|(k, v, t)| (&k[..], (!t).then_some(&v[..])));
                        prop_assert!(read.into_iter().eq(want), "cut at {cut}");
                    }
                    (Err(AppError::Corrupt(_)), None) => {}
                    (read, _) => prop_assert!(false, "cut at {cut} of {ends:?}: {read:?}"),
                }
            }
        }
    }
}
