//! Graceful degradation of `O_NCL` files to direct-DFS strong mode.
//!
//! When the durable quorum behind an NCL file is unreachable past the record
//! deadline, the facade must not fail the application's `write`/`fsync`: the
//! paper's availability argument is that SplitFT never does *worse* than the
//! strong-DFT baseline. So the route degrades: new records are appended to a
//! **shadow journal** on the DFS (`<path>.fallback`) with a synchronous
//! `fsync` per record — exactly strong-mode semantics — while an in-memory
//! overlay keeps reads and sizes coherent. A throttled probe retries NCL
//! maintenance; once a fresh peer set is published (bumped epoch), the
//! journal is replayed through the log, deleted, and the route re-attaches.
//! A crash while degraded replays the journal at the next `open` instead.
//!
//! The shadow journal is a sequence of self-delimiting frames:
//!
//! ```text
//! [offset: u64 LE][len: u32 LE][crc: u32 LE (CRC-32C of offset‖data)][data]
//! ```
//!
//! Parsing stops at the first truncated or corrupt frame, so a crash in the
//! middle of an append loses only that (never-acknowledged) record.

use std::sync::Arc;
use std::time::Instant;

use dfs::{DfsClient, DfsError};
use ncl::NclFile;
use parking_lot::Mutex;

/// Fixed bytes before each frame's data: offset + length + checksum.
const FRAME_HEADER: usize = 8 + 4 + 4;

/// One journaled write: `(offset, data)`.
pub(crate) type Record = (u64, Vec<u8>);

/// One `O_NCL` file's route: the NCL handle plus the degradation state that
/// lets the facade fall back to direct-DFS strong mode on quorum loss.
pub(crate) struct NclRoute {
    pub(crate) file: Arc<NclFile>,
    pub(crate) fb: Mutex<Fallback>,
}

impl NclRoute {
    pub(crate) fn new(file: Arc<NclFile>) -> Arc<Self> {
        Arc::new(NclRoute {
            file,
            fb: Mutex::new(Fallback::new()),
        })
    }

    /// True while the route is degraded to the DFS shadow journal.
    pub(crate) fn engaged(&self) -> bool {
        self.fb.lock().engaged
    }
}

/// Degradation state of one route. All fields are meaningful only while
/// `engaged`.
pub(crate) struct Fallback {
    pub(crate) engaged: bool,
    /// Overlay image serving reads while degraded; starts as a snapshot of
    /// the NCL staged image (which includes every issued record).
    pub(crate) image: Vec<u8>,
    /// Logical file length of the overlay.
    pub(crate) len: u64,
    /// Records accepted while degraded, in issue order, pending replay
    /// through NCL on re-attach.
    pub(crate) records: Vec<Record>,
    /// When the controller was last probed for a fresh peer set.
    pub(crate) last_probe: Instant,
}

impl Fallback {
    pub(crate) fn new() -> Self {
        Fallback {
            engaged: false,
            image: Vec::new(),
            len: 0,
            records: Vec::new(),
            last_probe: sim::time::now(),
        }
    }

    /// Applies a degraded record to the overlay and queues it for replay.
    pub(crate) fn apply(&mut self, offset: u64, data: &[u8]) {
        let end = offset as usize + data.len();
        if self.image.len() < end {
            self.image.resize(end, 0);
        }
        self.image[offset as usize..end].copy_from_slice(data);
        self.len = self.len.max(end as u64);
        self.records.push((offset, data.to_vec()));
    }
}

/// End offset of a `len`-byte record at `offset`, or `None` when it does
/// not fit `usize` (and so cannot fit any log).
pub(crate) fn frame_end(offset: u64, len: usize) -> Option<usize> {
    usize::try_from(offset).ok()?.checked_add(len)
}

/// The DFS path of a route's shadow journal.
pub(crate) fn shadow_path(path: &str) -> String {
    format!("{path}.fallback")
}

/// The decoded frames of `path`'s shadow journal, if it has one.
pub(crate) fn read_journal(dfs: &DfsClient, path: &str) -> Result<Option<Vec<Record>>, DfsError> {
    let shadow = shadow_path(path);
    if !dfs.exists(&shadow) {
        return Ok(None);
    }
    let raw = dfs.read(&shadow, 0, dfs.size(&shadow)? as usize)?;
    Ok(Some(decode_frames(&raw)))
}

/// Encodes one journal frame.
pub(crate) fn encode_frame(offset: u64, data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + data.len());
    out.extend_from_slice(&offset.to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    let crc = sim::crc32c_extend(sim::crc32c(&out[..8]), data);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(data);
    out
}

/// Decodes a journal back into `(offset, data)` records, stopping at the
/// first truncated or corrupt frame (the crash-interrupted tail).
pub(crate) fn decode_frames(raw: &[u8]) -> Vec<Record> {
    let mut out = Vec::new();
    let mut at = 0usize;
    while raw.len() - at >= FRAME_HEADER {
        let offset = u64::from_le_bytes(raw[at..at + 8].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(raw[at + 8..at + 12].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(raw[at + 12..at + 16].try_into().expect("4 bytes"));
        let data_at = at + FRAME_HEADER;
        if raw.len() - data_at < len {
            break; // Truncated mid-append.
        }
        let data = &raw[data_at..data_at + len];
        if sim::crc32c_extend(sim::crc32c(&raw[at..at + 8]), data) != crc {
            break; // Torn or corrupt frame; nothing after it is trusted.
        }
        out.push((offset, data.to_vec()));
        at = data_at + len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn frames_round_trip() {
        let mut raw = encode_frame(0, b"hello");
        raw.extend_from_slice(&encode_frame(5, b" world"));
        let frames = decode_frames(&raw);
        assert_eq!(
            frames,
            vec![(0, b"hello".to_vec()), (5, b" world".to_vec())]
        );
    }

    #[test]
    fn truncated_tail_is_dropped() {
        let mut raw = encode_frame(0, b"keep");
        let second = encode_frame(4, b"lost");
        raw.extend_from_slice(&second[..second.len() - 2]);
        assert_eq!(decode_frames(&raw), vec![(0, b"keep".to_vec())]);
    }

    #[test]
    fn corrupt_frame_stops_the_parse() {
        let mut raw = encode_frame(0, b"keep");
        let mut second = encode_frame(4, b"torn");
        let flip = second.len() - 1;
        second[flip] ^= 0xff;
        raw.extend_from_slice(&second);
        raw.extend_from_slice(&encode_frame(8, b"after"));
        assert_eq!(decode_frames(&raw), vec![(0, b"keep".to_vec())]);
    }

    #[test]
    fn overlay_apply_extends_and_overwrites() {
        let mut fb = Fallback::new();
        fb.apply(0, b"aaaa");
        fb.apply(2, b"bbbb");
        assert_eq!(fb.len, 6);
        assert_eq!(&fb.image, b"aabbbb");
        assert_eq!(fb.records.len(), 2);
    }

    /// Journal records: an offset anywhere in `u64` and up to 40 bytes.
    fn records() -> impl Strategy<Value = Vec<Record>> {
        let data = prop::collection::vec(any::<u8>(), 0..40);
        prop::collection::vec((any::<u64>(), data), 0..6)
    }

    // `decode_frames` reads bytes a crashed process may have torn, so no
    // input may panic it, and damage must never let a frame through.
    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic(raw in prop::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_frames(&raw);
        }

        #[test]
        fn encoded_records_decode_as_written(written in records()) {
            let raw: Vec<u8> = written.iter().flat_map(|(o, d)| encode_frame(*o, d)).collect();
            prop_assert_eq!(decode_frames(&raw), written);
        }

        #[test]
        fn a_flipped_bit_truncates_at_or_before_its_frame(case in (records(), any::<u64>())) {
            let (written, pick) = case;
            let frames: Vec<Vec<u8>> = written.iter().map(|(o, d)| encode_frame(*o, d)).collect();
            let mut raw = frames.concat();
            if raw.is_empty() {
                return Ok(());
            }
            let bit = pick as usize % (raw.len() * 8);
            raw[bit / 8] ^= 1 << (bit % 8);
            // The frame holding the flipped byte: the first one ending past it.
            let ends = frames.iter().scan(0, |end, f| {
                *end += f.len();
                Some(*end)
            });
            let hit = ends.take_while(|&end| end <= bit / 8).count();
            let read = decode_frames(&raw);
            prop_assert!(read.len() <= hit, "frame {hit} damaged, {} decoded", read.len());
            prop_assert_eq!(&read[..], &written[..read.len()]);
        }
    }
}
