//! The manifest: a log of version edits describing the live file set.
//!
//! Like RocksDB's MANIFEST, this is an append-only record of which SSTables
//! exist at which level and which WALs are still live. It is written rarely
//! (per flush/compaction/WAL rotation) and fsynced on every edit in all
//! modes — manifest updates are off the client critical path, so SplitFT
//! leaves them on the DFS.

use splitfs::{File, OpenOptions, SplitFs};

use crate::kv::{decode_frame, encode_frame, AppError};

/// One version edit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edit {
    /// SSTable `file` now lives at `level`.
    AddSst {
        /// LSM level.
        level: u8,
        /// File number (`sst-{n}`).
        file: u64,
    },
    /// SSTable `file` was compacted away.
    RemoveSst {
        /// File number.
        file: u64,
    },
    /// WAL `file` is live (receiving or awaiting flush).
    AddWal {
        /// File number (`wal-{n}`).
        file: u64,
    },
    /// WAL `file` was flushed and deleted.
    RemoveWal {
        /// File number.
        file: u64,
    },
}

impl Edit {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Edit::AddSst { level, file } => {
                out.push(1);
                out.push(*level);
                out.extend_from_slice(&file.to_le_bytes());
            }
            Edit::RemoveSst { file } => {
                out.push(2);
                out.extend_from_slice(&file.to_le_bytes());
            }
            Edit::AddWal { file } => {
                out.push(3);
                out.extend_from_slice(&file.to_le_bytes());
            }
            Edit::RemoveWal { file } => {
                out.push(4);
                out.extend_from_slice(&file.to_le_bytes());
            }
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Result<Edit, AppError> {
        let tag = *buf
            .get(*pos)
            .ok_or_else(|| AppError::Corrupt("manifest edit truncated".into()))?;
        *pos += 1;
        let take_u64 = |pos: &mut usize| -> Result<u64, AppError> {
            if *pos + 8 > buf.len() {
                return Err(AppError::Corrupt("manifest edit truncated".into()));
            }
            let v = u64::from_le_bytes(buf[*pos..*pos + 8].try_into().expect("8"));
            *pos += 8;
            Ok(v)
        };
        match tag {
            1 => {
                if *pos >= buf.len() {
                    return Err(AppError::Corrupt("manifest edit truncated".into()));
                }
                let level = buf[*pos];
                *pos += 1;
                Ok(Edit::AddSst {
                    level,
                    file: take_u64(pos)?,
                })
            }
            2 => Ok(Edit::RemoveSst {
                file: take_u64(pos)?,
            }),
            3 => Ok(Edit::AddWal {
                file: take_u64(pos)?,
            }),
            4 => Ok(Edit::RemoveWal {
                file: take_u64(pos)?,
            }),
            t => Err(AppError::Corrupt(format!("unknown manifest edit {t}"))),
        }
    }
}

/// The file set described by a manifest replay.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Version {
    /// `(level, file_number)` pairs of live SSTables, in edit order.
    pub ssts: Vec<(u8, u64)>,
    /// Live WAL numbers, oldest first.
    pub wals: Vec<u64>,
}

impl Version {
    /// Applies one edit.
    pub fn apply(&mut self, edit: Edit) {
        match edit {
            Edit::AddSst { level, file } => self.ssts.push((level, file)),
            Edit::RemoveSst { file } => self.ssts.retain(|&(_, f)| f != file),
            Edit::AddWal { file } => self.wals.push(file),
            Edit::RemoveWal { file } => self.wals.retain(|&f| f != file),
        }
    }

    /// Highest file number mentioned (for numbering new files).
    pub fn max_file_number(&self) -> u64 {
        self.ssts
            .iter()
            .map(|&(_, f)| f)
            .chain(self.wals.iter().copied())
            .max()
            .unwrap_or(0)
    }
}

/// Append-only manifest writer.
pub struct Manifest {
    file: File,
    offset: u64,
}

impl Manifest {
    /// Opens (or creates) the manifest at `path`, replaying its edits.
    pub fn open(fs: &SplitFs, path: &str) -> Result<(Self, Version), AppError> {
        let existed = fs.exists(path);
        let file = fs.open(path, OpenOptions::create())?;
        let (version, offset) = if existed {
            file.read_with(0, usize::MAX, replay)??
        } else {
            (Version::default(), 0)
        };
        Ok((Manifest { file, offset }, version))
    }

    /// Appends a batch of edits as one fsynced frame. An empty batch writes
    /// nothing: its frame would read as the end of the log.
    pub fn log(&mut self, edits: &[Edit]) -> Result<(), AppError> {
        if edits.is_empty() {
            return Ok(());
        }
        let frame = encode_edits(edits);
        self.file.write_at(self.offset, &frame)?;
        self.file.fsync()?;
        self.offset += frame.len() as u64;
        Ok(())
    }
}

/// A batch of edits as one frame (`kv::encode_frame`).
fn encode_edits(edits: &[Edit]) -> Vec<u8> {
    let mut body = Vec::new();
    for e in edits {
        e.encode_into(&mut body);
    }
    encode_frame(&body)
}

/// Replays manifest bytes: the version its committed frames describe and
/// where the next frame goes. A torn or corrupt frame ends the log there —
/// its edits never committed — but a checksummed frame that does not decode
/// is corruption.
fn replay(buf: &[u8]) -> Result<(Version, u64), AppError> {
    let (mut version, mut offset) = (Version::default(), 0);
    while let Ok(Some((body, next))) = decode_frame(buf, offset) {
        let mut pos = 0;
        while pos < body.len() {
            version.apply(Edit::decode(body, &mut pos)?);
        }
        offset = next;
    }
    Ok((version, offset as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs::{DfsCluster, DfsConfig};
    use proptest::prelude::*;

    /// A Local mount of a zero-latency DFS, which serves while the returned
    /// store lives.
    fn fs() -> (DfsCluster, SplitFs) {
        let cluster = sim::Cluster::new();
        let disk = DfsCluster::start(&cluster, DfsConfig::zero());
        let fs = SplitFs::local(disk.client(cluster.add_node("app")));
        (disk, fs)
    }

    #[test]
    fn fresh_manifest_is_empty() {
        let (_disk, fs) = fs();
        let (_m, v) = Manifest::open(&fs, "MANIFEST").unwrap();
        assert!(v.ssts.is_empty());
        assert!(v.wals.is_empty());
        assert_eq!(v.max_file_number(), 0);
    }

    #[test]
    fn edits_replay_across_reopen() {
        let (_disk, fs) = fs();
        {
            let (mut m, _) = Manifest::open(&fs, "MANIFEST").unwrap();
            m.log(&[Edit::AddWal { file: 1 }]).unwrap();
            m.log(&[
                Edit::AddSst { level: 0, file: 2 },
                Edit::RemoveWal { file: 1 },
            ])
            .unwrap();
            m.log(&[Edit::AddWal { file: 3 }]).unwrap();
        }
        let (_m, v) = Manifest::open(&fs, "MANIFEST").unwrap();
        assert_eq!(v.ssts, vec![(0, 2)]);
        assert_eq!(v.wals, vec![3]);
        assert_eq!(v.max_file_number(), 3);
    }

    #[test]
    fn remove_sst_after_compaction() {
        let mut v = Version::default();
        v.apply(Edit::AddSst { level: 0, file: 1 });
        v.apply(Edit::AddSst { level: 0, file: 2 });
        v.apply(Edit::AddSst { level: 1, file: 3 });
        v.apply(Edit::RemoveSst { file: 1 });
        v.apply(Edit::RemoveSst { file: 2 });
        assert_eq!(v.ssts, vec![(1, 3)]);
    }

    #[test]
    fn torn_tail_is_ignored() {
        let (_disk, fs) = fs();
        {
            let (mut m, _) = Manifest::open(&fs, "MANIFEST").unwrap();
            m.log(&[Edit::AddWal { file: 1 }]).unwrap();
        }
        // Append garbage simulating a torn frame.
        let f = fs.open("MANIFEST", OpenOptions::plain()).unwrap();
        let size = f.size().unwrap();
        f.write_at(size, &[9, 0, 0, 0, 1, 2, 3]).unwrap();
        let (_m, v) = Manifest::open(&fs, "MANIFEST").unwrap();
        assert_eq!(v.wals, vec![1]);
    }

    fn edit() -> impl Strategy<Value = Edit> {
        prop_oneof![
            1 => (any::<u8>(), any::<u64>()).prop_map(|(level, file)| Edit::AddSst { level, file }),
            1 => any::<u64>().prop_map(|file| Edit::RemoveSst { file }),
            1 => any::<u64>().prop_map(|file| Edit::AddWal { file }),
            1 => any::<u64>().prop_map(|file| Edit::RemoveWal { file }),
        ]
    }

    /// Logged batches: one to three edits each.
    fn batches() -> impl Strategy<Value = Vec<Vec<Edit>>> {
        prop::collection::vec(prop::collection::vec(edit(), 1..4), 0..5)
    }

    /// The version `batches` describe, applied in order.
    fn applied<'a>(batches: impl IntoIterator<Item = &'a Vec<Edit>>) -> Version {
        let mut version = Version::default();
        batches
            .into_iter()
            .flatten()
            .for_each(|e| version.apply(*e));
        version
    }

    // A reopen replays what a crashed process wrote: no bytes may panic the
    // replay, logged batches replay as written, and a flipped bit keeps a
    // prefix of them or is reported.
    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic_the_replay(raw in prop::collection::vec(any::<u8>(), 0..96)) {
            let _ = replay(&raw);
            let mut pos = 0;
            while pos < raw.len() && Edit::decode(&raw, &mut pos).is_ok() {}
        }

        #[test]
        fn logged_edits_replay_as_written(written in batches()) {
            let raw: Vec<u8> = written.iter().flat_map(|b| encode_edits(b)).collect();
            prop_assert_eq!(replay(&raw).unwrap(), (applied(&written), raw.len() as u64));
        }

        #[test]
        fn a_flipped_bit_keeps_a_prefix(case in (batches(), any::<u64>())) {
            let (written, pick) = case;
            let frames: Vec<Vec<u8>> = written.iter().map(|b| encode_edits(b)).collect();
            let mut raw = frames.concat();
            if raw.is_empty() {
                return Ok(());
            }
            let bit = pick as usize % (raw.len() * 8);
            raw[bit / 8] ^= 1 << (bit % 8);
            let Ok((version, end)) = replay(&raw) else { return Ok(()) };
            let kept = frames.iter().scan(0, |at, f| {
                *at += f.len() as u64;
                Some(*at)
            });
            let kept = kept.take_while(|&at| at <= end).count();
            prop_assert!(end as usize <= bit / 8, "replayed past the flip at byte {}", bit / 8);
            prop_assert_eq!(version, applied(&written[..kept]));
        }
    }
}
