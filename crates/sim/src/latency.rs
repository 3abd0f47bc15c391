//! Latency models for network links and storage media.
//!
//! Every simulated device (RDMA NIC, DFS OSD, local SSD) is parameterised by
//! a [`LatencyModel`]: a fixed base cost plus a per-byte bandwidth term. The
//! calibrated defaults in
//! [`LatencyModel::rdma_write`], [`LatencyModel::dfs_hop`], etc. were chosen
//! so the reproduction matches the *shape* of the paper's numbers (§5):
//! ~4.6 µs 128-B NCL writes (1.56 µs of it modelled: a 128-B data write
//! and the 64-B header behind it sharing one propagation on one queue pair,
//! the peers in parallel),
//! ~2 ms small synchronous CephFS writes, and a three-orders-of-magnitude
//! gap between 512-B and 64-MB DFS write throughput (Figure 1d).

use std::time::Duration;

/// A base + per-byte latency model.
///
/// The cost of an operation touching `bytes` bytes is
/// `base + bytes * per_byte`: deterministic, so a modelled delay is the same
/// on every run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Fixed cost per operation.
    pub base: Duration,
    /// Cost per byte transferred in nanoseconds (i.e. inverse bandwidth).
    /// Stored as `f64` because fast links cost well under 1 ns per byte.
    pub per_byte_ns: f64,
}

impl LatencyModel {
    /// A model that charges nothing — used by unit tests so they run at full
    /// speed while exercising identical code paths.
    pub const ZERO: LatencyModel = LatencyModel {
        base: Duration::ZERO,
        per_byte_ns: 0.0,
    };

    /// Creates a model from explicit parameters.
    pub const fn new(base: Duration, per_byte_ns: f64) -> Self {
        LatencyModel { base, per_byte_ns }
    }

    /// Convenience constructor from nanosecond counts.
    ///
    /// `gbps` is the link bandwidth in gigabits per second used to derive the
    /// per-byte term; pass 0.0 for an infinite-bandwidth link.
    pub fn from_nanos(base_ns: u64, gbps: f64) -> Self {
        let per_byte_ns = if gbps > 0.0 {
            // ns per byte = 8 bits / (gbps bits/ns)
            8.0 / gbps
        } else {
            0.0
        };
        LatencyModel {
            base: Duration::from_nanos(base_ns),
            per_byte_ns,
        }
    }

    /// One-sided RDMA write/read over a 25 Gb/s RoCE fabric.
    ///
    /// Calibration: the paper reports a 4.6 µs NCL latency for a 128-B
    /// application write, which NCL turns into a data WR plus a sequence
    /// number WR replicated to three peers with a majority wait — one
    /// propagation behind two serializations on the critical path, which is
    /// what back-to-back WRs on an RC queue pair cost.
    pub fn rdma_write() -> Self {
        LatencyModel::from_nanos(1_500, 25.0)
    }

    /// Control-plane RPC within the compute cluster (TCP-like).
    pub fn rpc() -> Self {
        LatencyModel::from_nanos(60_000, 10.0)
    }

    /// RDMA memory-region registration (page pinning + NIC translation-table
    /// install). Table 3 of the paper attributes ~50 ms to allocating and
    /// registering a 60 MB region on a new peer; this model reproduces that
    /// (1 ms base + ~0.8 ns/byte).
    pub fn mr_register() -> Self {
        LatencyModel::from_nanos(1_000_000, 10.0)
    }

    /// One network hop of the disaggregated file system (client→OSD or
    /// OSD→OSD replication) — kernel TCP stack, no kernel bypass.
    pub fn dfs_hop() -> Self {
        LatencyModel::from_nanos(150_000, 8.0)
    }

    /// OSD commit cost: the time for a CephFS server to accept a write into
    /// its buffer cache / journal and acknowledge it (the paper configures
    /// CephFS to ack once data is replicated to the server buffer caches).
    pub fn dfs_commit() -> Self {
        LatencyModel::from_nanos(800_000, 4.0)
    }

    /// Local SATA-SSD write (the `ext4` comparison point of Figure 11b).
    pub fn local_ssd_write() -> Self {
        LatencyModel::from_nanos(80_000, 4.0)
    }

    /// Local SATA-SSD read.
    pub fn local_ssd_read() -> Self {
        LatencyModel::from_nanos(60_000, 4.0)
    }

    /// In-memory buffered write on the application server (the "weak" mode's
    /// critical-path cost: a memcpy into the OS page cache). The paper
    /// measures 1.2 µs for a 128-B buffered write.
    pub fn page_cache_write() -> Self {
        LatencyModel::from_nanos(900, 120.0)
    }

    /// Computes the duration charged for an operation on `bytes` bytes.
    pub fn cost(&self, bytes: usize) -> Duration {
        self.base + Duration::from_nanos((self.per_byte_ns * bytes as f64) as u64)
    }

    /// True when this model never waits (all parameters zero).
    pub fn is_zero(&self) -> bool {
        self.base.is_zero() && self.per_byte_ns == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_charges_nothing() {
        assert!(LatencyModel::ZERO.is_zero());
        assert_eq!(LatencyModel::ZERO.cost(1 << 20), Duration::ZERO);
    }

    #[test]
    fn cost_scales_with_bytes() {
        let m = LatencyModel::from_nanos(1_000, 8.0);
        assert!(m.cost(4096) > m.cost(128));
        assert_eq!(m.cost(0), Duration::from_nanos(1_000));
    }

    #[test]
    fn bandwidth_term_matches_link_speed() {
        // 25 Gb/s => 1 MiB should take ~335 µs of serialisation time.
        let m = LatencyModel::from_nanos(0, 25.0);
        let d = m.cost(1 << 20);
        let us = d.as_secs_f64() * 1e6;
        assert!((300.0..380.0).contains(&us), "got {us} µs");
    }

    #[test]
    fn rdma_small_write_is_microseconds() {
        let us = LatencyModel::rdma_write().cost(128).as_secs_f64() * 1e6;
        assert!((1.0..4.0).contains(&us), "got {us} µs");
    }

    #[test]
    fn dfs_sync_write_is_milliseconds() {
        // One hop + one commit on a small write is already ~0.75 ms; a full
        // replicated fsync (client→primary→replicas) lands near 2 ms.
        let hop = LatencyModel::dfs_hop().cost(512);
        let commit = LatencyModel::dfs_commit().cost(512);
        let total = 2 * (hop + commit);
        let ms = total.as_secs_f64() * 1e3;
        assert!((1.0..4.0).contains(&ms), "got {ms} ms");
    }
}
