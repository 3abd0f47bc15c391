//! Configuration for the simulated DFS.

use sim::LatencyModel;

/// Tunable parameters of the simulated disaggregated file system.
///
/// The calibrated defaults reproduce the shape of the paper's measurements:
/// ~1–2 ms small synchronous writes (Figure 8's strong-bench line, Table 1's
/// latency column) and a roughly three-orders-of-magnitude throughput gap
/// between 512-B and 64-MB sequential writes (Figure 1d).
#[derive(Debug, Clone)]
pub struct DfsConfig {
    /// Number of OSD replicas. The paper deploys CephFS with three.
    pub replicas: usize,
    /// Stripe unit: files are split into objects of this many bytes.
    pub object_size: usize,
    /// One network hop between client and OSD (kernel TCP, no bypass).
    pub hop: LatencyModel,
    /// OSD commit cost (accept into buffer cache / journal).
    pub commit: LatencyModel,
    /// OSD media read cost.
    pub osd_read: LatencyModel,
    /// Client-side buffered write (page-cache memcpy).
    pub cache_write: LatencyModel,
    /// Metadata service RPC cost.
    pub mds: LatencyModel,
    /// Sequential readahead window in bytes (0 disables readahead).
    pub readahead: usize,
}

impl DfsConfig {
    /// Calibrated against the paper's CephFS measurements (see crate docs).
    pub fn calibrated() -> Self {
        DfsConfig {
            replicas: 3,
            object_size: 4 << 20,
            hop: LatencyModel::dfs_hop(),
            commit: LatencyModel::dfs_commit(),
            osd_read: LatencyModel::from_nanos(250_000, 8.0),
            cache_write: LatencyModel::page_cache_write(),
            mds: LatencyModel::rpc(),
            readahead: 4 << 20,
        }
    }

    /// A local `ext4` partition on a SATA SSD (the unrealistic reference of
    /// Figure 11b): one replica, no network or metadata round trips, and
    /// local-SSD commits and media reads behind the same page cache.
    pub fn local_ssd() -> Self {
        DfsConfig {
            replicas: 1,
            hop: LatencyModel::ZERO,
            commit: LatencyModel::local_ssd_write(),
            osd_read: LatencyModel::local_ssd_read(),
            cache_write: LatencyModel::page_cache_write(),
            mds: LatencyModel::ZERO,
            ..DfsConfig::calibrated()
        }
    }

    /// All latencies zero — functional tests run at memory speed while still
    /// exercising the full replication/striping machinery.
    pub fn zero() -> Self {
        DfsConfig {
            replicas: 3,
            object_size: 64 << 10,
            hop: LatencyModel::ZERO,
            commit: LatencyModel::ZERO,
            osd_read: LatencyModel::ZERO,
            cache_write: LatencyModel::ZERO,
            mds: LatencyModel::ZERO,
            readahead: 128 << 10,
        }
    }

    /// Zero latencies with a tiny stripe unit, to exercise multi-object code
    /// paths with small test files.
    pub fn zero_small_objects() -> Self {
        DfsConfig {
            object_size: 1 << 10,
            readahead: 2 << 10,
            ..DfsConfig::zero()
        }
    }
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_has_three_replicas_and_nonzero_latency() {
        let c = DfsConfig::calibrated();
        assert_eq!(c.replicas, 3);
        assert!(!c.hop.is_zero());
        assert!(!c.commit.is_zero());
    }

    #[test]
    fn zero_config_is_fast() {
        let c = DfsConfig::zero();
        assert!(c.hop.is_zero() && c.commit.is_zero() && c.cache_write.is_zero());
    }

    #[test]
    fn local_ssd_is_one_replica_with_no_network() {
        let c = DfsConfig::local_ssd();
        assert_eq!(c.replicas, 1);
        assert!(c.hop.is_zero() && c.mds.is_zero());
        assert_eq!(c.commit, LatencyModel::local_ssd_write());
        assert_eq!(c.osd_read, LatencyModel::local_ssd_read());
    }

    #[test]
    fn small_object_config_uses_tiny_stripes() {
        let c = DfsConfig::zero_small_objects();
        assert_eq!(c.object_size, 1024);
    }
}
