//! Shared application plumbing: the uniform KV surface driven by YCSB and
//! the checksummed record framing used by the logs.

use std::fmt;

use sim::crc32c;
use splitfs::FsError;

/// Errors surfaced by the applications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppError {
    /// Underlying storage failed.
    Storage(String),
    /// The store is shutting down.
    Closed,
    /// Malformed persistent state that checksums could not repair.
    Corrupt(String),
}

impl fmt::Display for AppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppError::Storage(m) => write!(f, "storage error: {m}"),
            AppError::Closed => write!(f, "store closed"),
            AppError::Corrupt(m) => write!(f, "corrupt state: {m}"),
        }
    }
}

impl std::error::Error for AppError {}

impl From<FsError> for AppError {
    fn from(e: FsError) -> Self {
        AppError::Storage(e.to_string())
    }
}

/// The uniform key-value interface the YCSB harness drives (§5.3 runs YCSB
/// against RocksDB and Redis servers and converts each operation into a
/// SQLite transaction).
pub trait KvApp: Send + Sync {
    /// Inserts a new key (YCSB load phase and workload D inserts).
    fn insert(&self, key: &str, value: &[u8]) -> Result<(), AppError>;
    /// Updates an existing key (workloads A, B, F).
    fn update(&self, key: &str, value: &[u8]) -> Result<(), AppError>;
    /// Point read.
    fn read(&self, key: &str) -> Result<Option<Vec<u8>>, AppError>;
    /// Read-modify-write (workload F); default implementation composes the
    /// primitives, applications may override with a native transaction.
    fn read_modify_write(&self, key: &str, value: &[u8]) -> Result<(), AppError> {
        let _ = self.read(key)?;
        self.update(key, value)
    }

    /// Waits for background work (flushes, compactions) to settle. Used by
    /// benchmark harnesses between workload phases so one phase's write
    /// debt does not distort the next phase's measurement.
    fn quiesce(&self) {}
}

/// One log entry: a put or a delete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    /// Insert/overwrite `key` with `value`.
    Put {
        /// The key.
        key: Vec<u8>,
        /// The value.
        value: Vec<u8>,
    },
    /// Remove `key` (a tombstone in LSM terms).
    Delete {
        /// The key.
        key: Vec<u8>,
    },
}

impl Entry {
    /// The entry's key.
    pub fn key(&self) -> &[u8] {
        match self {
            Entry::Put { key, .. } | Entry::Delete { key } => key,
        }
    }
}

/// Frames a batch of entries as one checksummed log record:
/// `len u32 | crc u32 | seq u64 | count u32 | entries...` where each entry is
/// `tag u8 | klen u32 | key | (vlen u32 | value)?`.
///
/// The CRC covers everything after the `crc` field, letting recovery detect
/// the torn tail of a partially persisted record — the application-level
/// atomicity mechanism the paper notes POSIX applications already have
/// (§4.5.1).
pub fn encode_record(seq: u64, entries: &[Entry]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_record_into(&mut out, seq, entries);
    out
}

/// [`encode_record`] into a buffer the caller keeps from record to record
/// (cleared first): every key and value is copied once, straight into the
/// frame, and the length, CRC and entry count are patched in afterwards.
pub fn encode_record_into<'a>(
    out: &mut Vec<u8>,
    seq: u64,
    entries: impl IntoIterator<Item = &'a Entry>,
) {
    out.clear();
    out.extend_from_slice(&[0; 8]); // len | crc
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&[0; 4]); // count
    let mut count = 0u32;
    for e in entries {
        count += 1;
        match e {
            Entry::Put { key, value } => {
                out.push(1);
                out.extend_from_slice(&(key.len() as u32).to_le_bytes());
                out.extend_from_slice(key);
                out.extend_from_slice(&(value.len() as u32).to_le_bytes());
                out.extend_from_slice(value);
            }
            Entry::Delete { key } => {
                out.push(0);
                out.extend_from_slice(&(key.len() as u32).to_le_bytes());
                out.extend_from_slice(key);
            }
        }
    }
    out[16..20].copy_from_slice(&count.to_le_bytes());
    let len = (out.len() - 8) as u32;
    out[0..4].copy_from_slice(&len.to_le_bytes());
    let crc = crc32c(&out[8..]);
    out[4..8].copy_from_slice(&crc.to_le_bytes());
}

/// Decodes one record at `buf[offset..]`.
///
/// Returns `Ok(Some((seq, entries, next_offset)))`, `Ok(None)` at a clean
/// end (zero length / truncated header — nothing was written here), or
/// `Err` for a corrupt/torn record (recovery stops replaying there).
pub fn decode_record(
    buf: &[u8],
    offset: usize,
) -> Result<Option<(u64, Vec<Entry>, usize)>, AppError> {
    // The envelope is a frame's; its body is `seq | count | entries`.
    let Some((body, next)) = decode_frame(buf, offset)? else {
        return Ok(None);
    };
    if body.len() < 12 {
        return Err(AppError::Corrupt("record body too short".into()));
    }
    let seq = u64::from_le_bytes(body[0..8].try_into().expect("8"));
    let count = u32::from_le_bytes(body[8..12].try_into().expect("4")) as usize;
    // Reserve no more than the body can hold: an entry is at least 5 bytes.
    let mut entries = Vec::with_capacity(count.min((body.len() - 12) / 5));
    let mut pos = 12;
    for _ in 0..count {
        if pos + 5 > body.len() {
            return Err(AppError::Corrupt("entry header truncated".into()));
        }
        let tag = body[pos];
        let klen = u32::from_le_bytes(body[pos + 1..pos + 5].try_into().expect("4")) as usize;
        pos += 5;
        if pos + klen > body.len() {
            return Err(AppError::Corrupt("entry key truncated".into()));
        }
        let key = body[pos..pos + klen].to_vec();
        pos += klen;
        match tag {
            0 => entries.push(Entry::Delete { key }),
            1 => {
                if pos + 4 > body.len() {
                    return Err(AppError::Corrupt("entry value length truncated".into()));
                }
                let vlen = u32::from_le_bytes(body[pos..pos + 4].try_into().expect("4")) as usize;
                pos += 4;
                if pos + vlen > body.len() {
                    return Err(AppError::Corrupt("entry value truncated".into()));
                }
                entries.push(Entry::Put {
                    key,
                    value: body[pos..pos + vlen].to_vec(),
                });
                pos += vlen;
            }
            t => return Err(AppError::Corrupt(format!("unknown entry tag {t}"))),
        }
    }
    Ok(Some((seq, entries, next)))
}

/// Replays every intact record in `buf`, stopping cleanly at the first torn
/// or unwritten position; returns `(max_seq, batches)`.
pub fn replay_records(buf: &[u8]) -> (u64, Vec<Vec<Entry>>) {
    let mut offset = 0;
    let mut out = Vec::new();
    let mut max_seq = 0;
    while let Ok(Some((seq, entries, next))) = decode_record(buf, offset) {
        max_seq = max_seq.max(seq);
        out.push(entries);
        offset = next;
    }
    (max_seq, out)
}

/// Frames an opaque body as `len u32 | crc u32 | body` — the shared
/// torn-write-detecting envelope used by the AOF, manifest and meta files.
pub fn encode_frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 8);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32c(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Decodes a frame at `buf[offset..]`: `Ok(Some((body, next_offset)))`,
/// `Ok(None)` at a clean end, `Err` on a torn or corrupt frame.
pub fn decode_frame(buf: &[u8], offset: usize) -> Result<Option<(&[u8], usize)>, AppError> {
    if offset + 8 > buf.len() {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[offset..offset + 4].try_into().expect("4")) as usize;
    if len == 0 {
        return Ok(None);
    }
    let crc = u32::from_le_bytes(buf[offset + 4..offset + 8].try_into().expect("4"));
    let start = offset + 8;
    if start + len > buf.len() {
        return Err(AppError::Corrupt("frame truncated".into()));
    }
    let body = &buf[start..start + len];
    if crc32c(body) != crc {
        return Err(AppError::Corrupt("frame crc mismatch".into()));
    }
    Ok(Some((body, start + len)))
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
    fn roundtrip_single_batch() {
        let entries = vec![
            put("k1", "v1"),
            Entry::Delete {
                key: b"k2".to_vec(),
            },
        ];
        let rec = encode_record(7, &entries);
        let (seq, got, next) = decode_record(&rec, 0).unwrap().unwrap();
        assert_eq!(seq, 7);
        assert_eq!(got, entries);
        assert_eq!(next, rec.len());
    }

    #[test]
    fn roundtrip_multiple_records_in_stream() {
        let mut buf = Vec::new();
        buf.extend(encode_record(1, &[put("a", "1")]));
        buf.extend(encode_record(2, &[put("b", "2"), put("c", "3")]));
        let (max_seq, batches) = replay_records(&buf);
        assert_eq!(max_seq, 2);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[1].len(), 2);
    }

    #[test]
    fn clean_end_detected() {
        let mut buf = encode_record(1, &[put("a", "1")]);
        buf.extend_from_slice(&[0u8; 32]); // Unwritten zeroed tail.
        let (_, batches) = replay_records(&buf);
        assert_eq!(batches.len(), 1);
    }

    #[test]
    fn torn_tail_stops_replay() {
        let mut buf = encode_record(1, &[put("a", "1")]);
        let rec2 = encode_record(2, &[put("b", "2")]);
        buf.extend_from_slice(&rec2[..rec2.len() - 3]); // Torn write.
        let (max_seq, batches) = replay_records(&buf);
        assert_eq!(batches.len(), 1, "torn record must be dropped");
        assert_eq!(max_seq, 1);
    }

    #[test]
    fn bitflip_detected() {
        let mut buf = encode_record(1, &[put("key", "value")]);
        let n = buf.len();
        buf[n - 2] ^= 0x40;
        assert!(matches!(decode_record(&buf, 0), Err(AppError::Corrupt(_))));
    }

    #[test]
    fn reused_buffer_encodes_the_same_bytes_as_a_framed_body() {
        let groups = [
            vec![put("k1", "v1"), put("key-two", "")],
            vec![Entry::Delete {
                key: b"k1".to_vec(),
            }],
            vec![],
        ];
        let mut out = vec![0xEE; 3]; // Stale bytes of an earlier record.
        for (seq, entries) in groups.iter().enumerate() {
            let mut body = (seq as u64).to_le_bytes().to_vec();
            body.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for e in entries {
                body.push(matches!(e, Entry::Put { .. }) as u8);
                body.extend_from_slice(&(e.key().len() as u32).to_le_bytes());
                body.extend_from_slice(e.key());
                if let Entry::Put { value, .. } = e {
                    body.extend_from_slice(&(value.len() as u32).to_le_bytes());
                    body.extend_from_slice(value);
                }
            }
            encode_record_into(&mut out, seq as u64, entries);
            assert_eq!(out, encode_frame(&body));
            assert_eq!(out, encode_record(seq as u64, entries));
        }
    }

    #[test]
    fn empty_batch_roundtrips() {
        let rec = encode_record(9, &[]);
        let (seq, entries, _) = decode_record(&rec, 0).unwrap().unwrap();
        assert_eq!(seq, 9);
        assert!(entries.is_empty());
    }

    #[test]
    fn decode_at_nonzero_offset() {
        let mut buf = vec![0xAA; 10]; // Garbage prefix we skip explicitly.
        let rec = encode_record(3, &[put("x", "y")]);
        buf.extend_from_slice(&rec);
        let (seq, _, next) = decode_record(&buf, 10).unwrap().unwrap();
        assert_eq!(seq, 3);
        assert_eq!(next, 10 + rec.len());
    }
}
