//! Sparse byte-extent map used by the client page cache.
//!
//! Stores non-overlapping, non-adjacent extents of file data keyed by byte
//! offset. Overlapping inserts overwrite (newest wins) and contiguous
//! neighbours are coalesced, so a sequential append workload — the common
//! case for write-ahead logs — degenerates to a single growing extent.

use std::collections::BTreeMap;

/// A sparse map from byte offsets to data extents.
#[derive(Debug, Clone, Default)]
pub struct ExtentMap {
    extents: BTreeMap<u64, Vec<u8>>,
}

impl ExtentMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        ExtentMap::default()
    }

    /// True when the map holds no data.
    pub fn is_empty(&self) -> bool {
        self.extents.is_empty()
    }

    /// Total bytes stored across all extents.
    pub fn byte_len(&self) -> usize {
        self.extents.values().map(Vec::len).sum()
    }

    /// Inserts `data` at `offset`, overwriting any overlapped bytes and
    /// coalescing with contiguous neighbours.
    pub fn insert(&mut self, offset: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let end = offset + data.len() as u64;

        // Fast path: append directly onto the extent ending exactly at
        // `offset` (sequential log writes). Only valid if nothing at or
        // after `offset` overlaps the new range.
        let fast_prev = self
            .extents
            .range(..=offset)
            .next_back()
            .filter(|(s, d)| **s + d.len() as u64 == offset)
            .map(|(s, _)| *s);
        if let Some(prev_off) = fast_prev {
            if self.extents.range(offset..end).next().is_none() {
                self.extents
                    .get_mut(&prev_off)
                    .expect("prev extent")
                    .extend_from_slice(data);
                self.coalesce_at(prev_off);
                return;
            }
        }

        // General path: trim every overlapping extent, then insert.
        let overlapping: Vec<u64> = {
            // Any extent starting before `end` could overlap; find those whose
            // end exceeds `offset`.
            self.extents
                .range(..end)
                .filter(|(s, d)| **s + d.len() as u64 > offset)
                .map(|(s, _)| *s)
                .collect()
        };
        for s in overlapping {
            let d = self.extents.remove(&s).expect("extent present");
            let e = s + d.len() as u64;
            if s < offset {
                let keep = (offset - s) as usize;
                self.extents.insert(s, d[..keep].to_vec());
            }
            if e > end {
                let skip = (end - s) as usize;
                self.extents.insert(end, d[skip..].to_vec());
            }
        }
        self.extents.insert(offset, data.to_vec());
        self.coalesce_at(offset);
    }

    /// Merges the extent at `at` with contiguous neighbours on both sides.
    fn coalesce_at(&mut self, at: u64) {
        // Merge with previous neighbour.
        let mut start = at;
        if let Some((&prev_off, prev)) = self.extents.range(..at).next_back() {
            if prev_off + prev.len() as u64 == at {
                let cur = self.extents.remove(&at).expect("current extent");
                self.extents
                    .get_mut(&prev_off)
                    .expect("prev extent")
                    .extend_from_slice(&cur);
                start = prev_off;
            }
        }
        // Merge with the following neighbour.
        let cur_end = {
            let cur = self.extents.get(&start).expect("merged extent");
            start + cur.len() as u64
        };
        if let Some(next) = self.extents.remove(&cur_end) {
            self.extents
                .get_mut(&start)
                .expect("merged extent")
                .extend_from_slice(&next);
        }
    }

    /// Visits `[offset, offset + len)` in offset order as maximal runs:
    /// `visit(at, Ok(bytes))` where an extent covers the run starting at
    /// `at`, `visit(at, Err(n))` for a gap of `n` bytes.
    fn walk<'a>(
        &'a self,
        offset: u64,
        len: usize,
        mut visit: impl FnMut(u64, Result<&'a [u8], usize>),
    ) {
        let end = offset + len as u64;
        let mut cursor = offset;
        // Start from the extent that could cover `offset`.
        let start_key = self
            .extents
            .range(..=offset)
            .next_back()
            .map(|(s, _)| *s)
            .unwrap_or(offset);
        for (&s, d) in self.extents.range(start_key..end) {
            let e = s + d.len() as u64;
            if e <= cursor {
                continue;
            }
            if s > cursor {
                visit(cursor, Err((s - cursor) as usize));
                cursor = s;
            }
            let run = &d[(cursor - s) as usize..(e.min(end) - s) as usize];
            visit(cursor, Ok(run));
            cursor += run.len() as u64;
        }
        if cursor < end {
            visit(cursor, Err((end - cursor) as usize));
        }
    }

    /// Copies available bytes for `[offset, offset + buf.len())` into `buf`
    /// and returns the uncovered sub-ranges as `(offset, len)` pairs.
    pub fn read_into(&self, offset: u64, buf: &mut [u8]) -> Vec<(u64, usize)> {
        let mut missing = Vec::new();
        self.walk(offset, buf.len(), |at, run| match run {
            Ok(bytes) => buf[(at - offset) as usize..][..bytes.len()].copy_from_slice(bytes),
            Err(n) => missing.push((at, n)),
        });
        missing
    }

    /// [`ExtentMap::read_into`] onto the end of `out`: appends the `len`
    /// bytes of `[offset, offset + len)`, zeros standing in for the
    /// uncovered sub-ranges it returns. Nothing is written twice, so a
    /// caller with an empty `out` of that capacity pays for no zero-fill.
    pub fn append_to(&self, offset: u64, len: usize, out: &mut Vec<u8>) -> Vec<(u64, usize)> {
        let mut missing = Vec::new();
        self.walk(offset, len, |at, run| match run {
            Ok(bytes) => out.extend_from_slice(bytes),
            Err(n) => {
                out.resize(out.len() + n, 0);
                missing.push((at, n));
            }
        });
        missing
    }

    /// The bytes of `[offset, offset + len)` where they lie in one extent:
    /// a borrow of the map's own memory, `None` when any byte of the range
    /// is uncovered.
    pub fn slice(&self, offset: u64, len: usize) -> Option<&[u8]> {
        let (s, d) = self.extents.range(..=offset).next_back()?;
        let start = usize::try_from(offset - s).ok()?;
        d.get(start..start.checked_add(len)?)
    }

    /// True when any byte of `[offset, offset + len)` is covered.
    pub fn overlaps(&self, offset: u64, len: usize) -> bool {
        // Extents are disjoint and sorted: of those starting before the
        // range's end, the last one reaches furthest.
        len > 0
            && self
                .extents
                .range(..offset + len as u64)
                .next_back()
                .is_some_and(|(s, d)| s + d.len() as u64 > offset)
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.extents.clear();
    }

    /// Iterates `(offset, data)` extents in offset order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.extents.iter().map(|(o, d)| (*o, d.as_slice()))
    }

    /// Drains all extents in offset order, leaving the map empty.
    pub fn drain(&mut self) -> Vec<(u64, Vec<u8>)> {
        std::mem::take(&mut self.extents).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(m: &ExtentMap, offset: u64, len: usize) -> (Vec<u8>, Vec<(u64, usize)>) {
        let mut buf = vec![0u8; len];
        let missing = m.read_into(offset, &mut buf);
        (buf, missing)
    }

    #[test]
    fn empty_map_reports_whole_range_missing() {
        let m = ExtentMap::new();
        let (_, missing) = read_all(&m, 10, 5);
        assert_eq!(missing, vec![(10, 5)]);
        assert!(m.is_empty());
    }

    #[test]
    fn sequential_appends_coalesce_to_one_extent() {
        let mut m = ExtentMap::new();
        for i in 0..100u64 {
            m.insert(i * 4, &[i as u8; 4]);
        }
        assert_eq!(m.extents.len(), 1);
        assert_eq!(m.byte_len(), 400);
        let first = m.extents.first_key_value().map(|(o, d)| (*o, d.len()));
        assert_eq!(first, Some((0, 400)));
        let (buf, missing) = read_all(&m, 396, 4);
        assert!(missing.is_empty());
        assert_eq!(buf, vec![99u8; 4]);
    }

    #[test]
    fn overwrite_newest_wins() {
        let mut m = ExtentMap::new();
        m.insert(0, &[1; 10]);
        m.insert(3, &[2; 4]);
        let (buf, missing) = read_all(&m, 0, 10);
        assert!(missing.is_empty());
        assert_eq!(buf, vec![1, 1, 1, 2, 2, 2, 2, 1, 1, 1]);
        assert_eq!(m.extents.len(), 1, "still contiguous");
    }

    #[test]
    fn overwrite_spanning_multiple_extents() {
        let mut m = ExtentMap::new();
        m.insert(0, &[1; 4]);
        m.insert(8, &[2; 4]);
        m.insert(16, &[3; 4]);
        m.insert(2, &[9; 15]); // Covers tail of 1st, all of 2nd, head of 3rd.
        let (buf, missing) = read_all(&m, 0, 20);
        assert_eq!(missing, vec![]);
        assert_eq!(&buf[0..2], &[1, 1]);
        assert_eq!(&buf[2..17], &[9; 15]);
        assert_eq!(&buf[17..20], &[3, 3, 3]);
    }

    #[test]
    fn disjoint_extents_report_gaps() {
        let mut m = ExtentMap::new();
        m.insert(0, &[1; 4]);
        m.insert(10, &[2; 4]);
        let (buf, missing) = read_all(&m, 0, 14);
        assert_eq!(missing, vec![(4, 6)]);
        assert_eq!(&buf[0..4], &[1; 4]);
        assert_eq!(&buf[10..14], &[2; 4]);
    }

    #[test]
    fn read_starting_inside_an_extent() {
        let mut m = ExtentMap::new();
        m.insert(0, &[7; 100]);
        let (buf, missing) = read_all(&m, 50, 10);
        assert!(missing.is_empty());
        assert_eq!(buf, vec![7; 10]);
    }

    #[test]
    fn drain_returns_sorted_and_clears() {
        let mut m = ExtentMap::new();
        m.insert(10, &[2; 2]);
        m.insert(0, &[1; 2]);
        let drained = m.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].0, 0);
        assert_eq!(drained[1].0, 10);
        assert!(m.is_empty());
    }

    #[test]
    fn insert_empty_is_noop() {
        let mut m = ExtentMap::new();
        m.insert(5, &[]);
        assert!(m.is_empty());
    }

    #[test]
    fn backward_adjacent_insert_coalesces() {
        let mut m = ExtentMap::new();
        m.insert(4, &[2; 4]);
        m.insert(0, &[1; 4]);
        assert_eq!(m.extents.len(), 1);
        let (buf, missing) = read_all(&m, 0, 8);
        assert!(missing.is_empty());
        assert_eq!(buf, vec![1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn exact_overwrite_of_existing_extent() {
        let mut m = ExtentMap::new();
        m.insert(0, &[1; 8]);
        m.insert(0, &[2; 8]);
        assert_eq!(m.extents.len(), 1);
        let (buf, _) = read_all(&m, 0, 8);
        assert_eq!(buf, vec![2; 8]);
    }
}
