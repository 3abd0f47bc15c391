//! DFS-backed spill sink for erasure-coded NCL files.
//!
//! The EC durability path demotes cold acked log prefixes out of peer
//! memory before recycling a fragment generation (see `ncl::ec`). The
//! snapshot must survive an application crash, so the production tier is
//! the DFS itself: one file per `(scope, generation)` under
//! `ncl-spill/<scope>/<gen>`, created, written and fsynced as one posted
//! chain whose durable instant the engine waits for before it flips a
//! generation. Recovery loads the snapshot for the maximum responder
//! generation and replays fragments on top of it.
//!
//! Wire format (little-endian): `[spill_seq u64 | len u64 | capacity u64 |
//! overwritten u8 | data[..len]]`. A re-stored snapshot for the same key
//! may shrink the payload; the `len` field bounds the read, so stale tail
//! bytes from a longer predecessor are harmless.

use std::time::Instant;

use dfs::{DfsClient, DfsError};
use ncl::{SpillSink, SpillSnapshot};

/// Fixed-size snapshot header preceding the data image.
const SPILL_HEADER: usize = 25;

/// [`SpillSink`] over a [`DfsClient`]: the spill tier of a SplitFT
/// deployment. [`crate::Testbed::start`] wires one up automatically for
/// erasure-coded configurations that did not bring their own sink.
pub struct DfsSpillSink {
    client: DfsClient,
}

impl std::fmt::Debug for DfsSpillSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DfsSpillSink")
            .field("node", &self.client.node())
            .finish()
    }
}

impl DfsSpillSink {
    /// Wraps a DFS client (typically one on a dedicated service node).
    pub fn new(client: DfsClient) -> Self {
        DfsSpillSink { client }
    }

    fn path(scope: &str, gen: u64) -> String {
        format!("ncl-spill/{scope}/{gen}")
    }
}

impl SpillSink for DfsSpillSink {
    fn store(
        &self,
        scope: &str,
        gen: u64,
        snap: &SpillSnapshot,
        at: Instant,
    ) -> Result<Instant, String> {
        let path = Self::path(scope, gen);
        let created = match self.client.create_at(&path, at) {
            Ok(ready) => ready,
            Err(DfsError::AlreadyExists(_)) => at,
            Err(e) => return Err(format!("spill create {path}: {e}")),
        };
        let mut buf = Vec::with_capacity(SPILL_HEADER + snap.data.len());
        buf.extend_from_slice(&snap.spill_seq.to_le_bytes());
        buf.extend_from_slice(&snap.len.to_le_bytes());
        buf.extend_from_slice(&snap.capacity.to_le_bytes());
        buf.push(snap.overwritten as u8);
        buf.extend_from_slice(&snap.data[..snap.len as usize]);
        self.client
            .write(&path, 0, &buf)
            .map_err(|e| format!("spill write {path}: {e}"))?;
        // The engine flips the fragment generation once this instant has
        // passed; the snapshot must be durable, not merely cached, by then.
        self.client
            .fsync_at(&path, created)
            .map_err(|e| format!("spill fsync {path}: {e}"))
    }

    fn load(&self, scope: &str, gen: u64) -> Result<Option<SpillSnapshot>, String> {
        let path = Self::path(scope, gen);
        if !self.client.exists(&path) {
            return Ok(None);
        }
        let size = self
            .client
            .size(&path)
            .map_err(|e| format!("spill size {path}: {e}"))? as usize;
        if size < SPILL_HEADER {
            return Err(format!("spill snapshot {path} truncated ({size} bytes)"));
        }
        let buf = self
            .client
            .read_direct(&path, 0, size)
            .map_err(|e| format!("spill read {path}: {e}"))?;
        let spill_seq = u64::from_le_bytes(buf[0..8].try_into().expect("8 bytes"));
        let len = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
        let capacity = u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes"));
        let overwritten = buf[24] != 0;
        if buf.len() < SPILL_HEADER + len as usize {
            return Err(format!(
                "spill snapshot {path} short: header says {len} data bytes, file holds {}",
                buf.len() - SPILL_HEADER
            ));
        }
        let mut data = buf;
        data.drain(..SPILL_HEADER);
        data.truncate(len as usize);
        Ok(Some(SpillSnapshot {
            spill_seq,
            len,
            overwritten,
            capacity,
            data,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs::{DfsCluster, DfsConfig};
    use sim::Cluster;

    #[test]
    fn snapshots_round_trip_through_the_dfs() {
        let cluster = Cluster::new();
        let dfs = DfsCluster::start(&cluster, DfsConfig::zero());
        let node = cluster.add_node("spill-test");
        let sink = DfsSpillSink::new(dfs.client(node));
        assert_eq!(sink.load("app/wal", 1).unwrap(), None);
        let snap = SpillSnapshot {
            spill_seq: 42,
            len: 5,
            overwritten: true,
            capacity: 4096,
            data: b"hello".to_vec(),
        };
        let at = std::time::Instant::now();
        assert!(sink.store("app/wal", 1, &snap, at).unwrap() >= at);
        assert_eq!(sink.load("app/wal", 1).unwrap(), Some(snap.clone()));
        // Re-store with a shorter image: the header bounds the read.
        let smaller = SpillSnapshot {
            spill_seq: 43,
            len: 2,
            overwritten: false,
            capacity: 4096,
            data: b"hi".to_vec(),
        };
        sink.store("app/wal", 1, &smaller, at).unwrap();
        assert_eq!(sink.load("app/wal", 1).unwrap(), Some(smaller));
        // Other generations and scopes are independent keys.
        assert_eq!(sink.load("app/wal", 2).unwrap(), None);
        assert_eq!(sink.load("other/wal", 1).unwrap(), None);
    }
}
