//! Simulation substrate for the SplitFT reproduction.
//!
//! The SplitFT paper evaluates on a CloudLab cluster: an application server,
//! three log peers reachable over RDMA, and a three-node CephFS cluster. This
//! crate provides the in-process stand-in for that hardware:
//!
//! * [`Cluster`] — a registry of simulated nodes with liveness, crash
//!   generations, and pairwise network partitions. Components built on top
//!   (the RDMA queue pairs, the DFS OSDs, the NCL controller and peers) consult
//!   the cluster before delivering any message, so failure injection composes
//!   across every layer. It also holds the one timer list
//!   ([`Cluster::every`]): periodic work that owns no thread.
//! * [`LatencyModel`] — calibrated base + per-byte delays, realised by
//!   [`delay`] (busy-wait below a threshold so that
//!   microsecond-scale RDMA latencies are actually observable, `sleep`
//!   above it).
//! * [`rng`] — small deterministic PRNGs (SplitMix64, xoshiro256**) so that
//!   workloads and failure schedules are reproducible from a seed.
//! * [`fault`] — seeded fault plans ([`FaultPlan`]) armed as a
//!   [`FaultScheduler`] the wire model and control plane consult at decision
//!   points: crashes, partitions, delayed/dropped/duplicated completions,
//!   stalled doorbells and gray peers, all replayable from a `u64` seed.
//! * [`rpc`] — a typed request/response service abstraction for
//!   *control-plane* traffic (controller RPCs, peer setup, DFS client/OSD
//!   messages): a service is a handler behind a mutex that runs on its
//!   caller's thread, and a top-level call first runs the timers due at its
//!   instant. Data-plane RDMA lives in the `rdma` crate.
//! * [`short_read`] — the one end-of-file rule every simulated file backend
//!   (DFS client, NCL image) clamps a read with.
//! * [`stats`] — log-bucketed latency histograms and a windowed throughput
//!   sampler (used to regenerate Figure 12 of the paper).
//!
//! Everything here is deliberately free of global state: a test constructs a
//! `Cluster`, wires components to it, and drops it at the end.

pub mod cluster;
pub mod crc;
pub mod error;
pub mod fault;
pub mod latency;
pub mod rng;
pub mod rpc;
pub mod stats;
pub mod time;

pub use cluster::{Cluster, NodeId, NodeInfo, TimerGuard};
pub use crc::{crc32c, crc32c_extend};
pub use error::SimError;
pub use fault::{
    Binding, ClusterOp, FaultAction, FaultEvent, FaultPlan, FaultScheduler, FaultSite, PlanParams,
    Trigger, WireFault,
};
pub use latency::LatencyModel;
pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use rpc::{RpcClient, RpcServer};
pub use stats::ThroughputSampler;
pub use time::{delay, delay_until};

/// The bytes a read of `len` at `offset` gets from a file of `size` bytes,
/// as a range into the file: short at end of file, empty at or past it.
/// `len` may be `usize::MAX` ("to end of file") and `offset` anything.
pub fn short_read(size: usize, offset: u64, len: usize) -> std::ops::Range<usize> {
    let start = usize::try_from(offset).map_or(size, |o| o.min(size));
    start..start + len.min(size - start)
}

#[cfg(test)]
mod tests {
    use super::short_read;

    #[test]
    fn short_read_clamps_to_the_file() {
        assert_eq!(short_read(10, 0, 4), 0..4);
        assert_eq!(short_read(10, 8, 4), 8..10);
        assert_eq!(short_read(10, 0, usize::MAX), 0..10);
        assert_eq!(short_read(10, 5, usize::MAX), 5..10);
        assert_eq!(short_read(10, 10, 1), 10..10);
        assert_eq!(short_read(10, 11, 1), 10..10);
        assert_eq!(short_read(10, u64::MAX, usize::MAX), 10..10);
        assert_eq!(short_read(0, 0, 1), 0..0);
    }
}
