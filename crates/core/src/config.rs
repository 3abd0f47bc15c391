//! NCL configuration.

use std::sync::Arc;
use std::time::Duration;

use sim::LatencyModel;
use telemetry::Telemetry;

use crate::ec::SpillSink;
use crate::file::scheme;

/// How a file's log is made durable across peers.
///
/// Replicated mode (the paper's protocol) writes every byte to all
/// `2f + 1` peers. Erasure-coded mode Reed–Solomon-stripes each flushed
/// burst into `k` data + `n − k` parity fragments, one per peer — wire
/// bytes and peer memory drop from `(2f + 1)×` to `(n / k)×` while any
/// `n − k` simultaneous peer losses remain survivable (the acked prefix
/// reconstructs from any `k` of the `n` fragments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Full-copy replication to `2f + 1` peers.
    Replicated,
    /// Reed–Solomon `k`-of-`n` striping: `k` data + `n − k` parity
    /// fragments across `n` peers. Requires `1 <= k < n <= 255`.
    Ec {
        /// Data fragments per burst (reconstruction threshold).
        k: usize,
        /// Total fragments / peers per file.
        n: usize,
    },
}

impl Durability {
    /// Whether this is an erasure-coded mode.
    pub fn is_ec(&self) -> bool {
        matches!(self, Durability::Ec { .. })
    }

    /// Stable label for telemetry and bench output
    /// (`"replicated"` / `"ec-2of3"`).
    pub fn label(&self) -> String {
        match *self {
            Durability::Replicated => "replicated".to_string(),
            Durability::Ec { k, n } => format!("ec-{k}of{n}"),
        }
    }
}

/// Tunables for the NCL layer.
#[derive(Debug, Clone)]
pub struct NclConfig {
    /// Failure budget: NCL allocates `2f + 1` peers per file and tolerates
    /// `f` simultaneous peer failures. The paper evaluates with `f = 1`.
    /// Ignored under [`Durability::Ec`], where the peer count is `n` and
    /// the failure budget is `n − k`.
    pub f: usize,
    /// Replication scheme ([`Durability::Replicated`] or erasure coding).
    pub durability: Durability,
    /// Durable store for cold acked log prefixes demoted off peer memory.
    /// Required by erasure-coded mode (the fragment area is smaller than
    /// the file and recycles in generations; the displaced prefix must
    /// land here before a generation flips). Ignored when replicated.
    pub spill: Option<Arc<dyn SpillSink>>,
    /// Fragment-area fill (bytes within the active generation half) at
    /// which an async spill of the acked prefix is kicked off. `0` selects
    /// the default: ¾ of the half capacity.
    pub spill_watermark: usize,
    /// One-sided RDMA write/read cost.
    pub rdma: LatencyModel,
    /// Control-plane RPC cost (controller and peer setup traffic).
    pub control: LatencyModel,
    /// Memory-region registration cost on peers (fresh allocations only;
    /// recycled pool regions skip it). Registrations on one peer queue
    /// behind each other on its registration pipe; registrations on
    /// different peers overlap, and the application waits once for all of
    /// a file's.
    pub mr_register: LatencyModel,
    /// How long `record` keeps retrying to assemble a majority (waiting for
    /// peer replacement) before giving up.
    pub write_timeout: Duration,
    /// The floor of the adaptive failure detector: a peer with outstanding
    /// work is declared suspect only once it has been silent this long and
    /// its phi is past the threshold.
    pub detect_timeout: Duration,
    /// First delay of the bounded exponential backoff used on replication
    /// wait loops, peer-acquisition rounds and controller retries.
    pub backoff_base: Duration,
    /// Ceiling of the exponential backoff (full jitter is applied below it).
    pub backoff_cap: Duration,
    /// How often a file short of peers asks for fresh ones: an NCL file's
    /// durability barrier retries a pending replacement at most once per
    /// interval, and a splitfs route degraded to direct DFS after a quorum
    /// loss probes the controller for a fresh peer set to re-attach to.
    pub reattach_probe: Duration,
    /// Local buffer memcpy cost per record (the in-memory staging write).
    pub local_copy: LatencyModel,
    /// Maximum records a [`record_nowait`](crate::NclFile::record_nowait)
    /// caller may have staged or posted but not yet durable before the next
    /// one blocks draining the window, and the longest burst: a burst that
    /// reaches it is posted. `record` (the synchronous path) ignores it.
    /// Depth 1 allows one outstanding record; the paper's baseline protocol
    /// corresponds to the synchronous `record` call. A pending record is a
    /// range of the staging image, not a copy, so a deep window costs no
    /// memory: both profiles default to 64, which holds a 16-record group
    /// commit in one burst and one barrier.
    pub pipeline_window: u64,
    /// Once made an RDMA post wait for its own completions. Kept for source
    /// compatibility; no effect: no post waits, the durability barrier does.
    pub inline_nic: bool,
    /// Epoch lease granted to every region a peer allocates. A region whose
    /// lease has run out — no control-plane activity renewed it — is only
    /// reclaimed once the controller confirms the owning application is
    /// dead (its ephemeral instance lock is free or its holder crashed):
    /// the lease bounds how long a crashed tenant can pin peer memory
    /// without blocking an in-progress recovery, which re-acquires the
    /// lock and thereby renews every lease.
    pub peer_lease: Duration,
    /// Observability handle. Every component wired from one config — files,
    /// peers, controller, registry — reports into the same registry and
    /// span trace, so one snapshot covers a whole deployment. Cloning the
    /// config shares the handle. [`Telemetry::disabled`] turns all
    /// instrumentation into no-ops (the overhead-gate baseline).
    pub telemetry: Telemetry,
}

impl NclConfig {
    /// Calibrated latencies matching the paper's testbed shape.
    pub fn calibrated() -> Self {
        NclConfig {
            f: 1,
            durability: Durability::Replicated,
            spill: None,
            spill_watermark: 0,
            rdma: LatencyModel::rdma_write(),
            control: LatencyModel::rpc(),
            mr_register: LatencyModel::mr_register(),
            write_timeout: Duration::from_secs(10),
            detect_timeout: Duration::from_millis(250),
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(100),
            reattach_probe: Duration::from_millis(250),
            local_copy: LatencyModel::from_nanos(250, 120.0),
            pipeline_window: 64,
            inline_nic: false,
            peer_lease: Duration::from_secs(120),
            telemetry: Telemetry::new(),
        }
    }

    /// Zero latencies for functional tests.
    pub fn zero() -> Self {
        NclConfig {
            f: 1,
            durability: Durability::Replicated,
            spill: None,
            spill_watermark: 0,
            rdma: LatencyModel::ZERO,
            control: LatencyModel::ZERO,
            mr_register: LatencyModel::ZERO,
            write_timeout: Duration::from_secs(5),
            detect_timeout: Duration::from_millis(200),
            backoff_base: Duration::from_micros(500),
            backoff_cap: Duration::from_millis(50),
            reattach_probe: Duration::from_millis(50),
            local_copy: LatencyModel::ZERO,
            pipeline_window: 64,
            inline_nic: false,
            peer_lease: Duration::from_secs(30),
            telemetry: Telemetry::new(),
        }
    }

    /// Number of peers allocated per file ([`scheme::peers_per_file`]).
    pub fn replicas(&self) -> usize {
        scheme::peers_per_file(self.durability, self.f)
    }

    /// Acknowledgement quorum size ([`scheme::ack_quorum`]).
    pub fn quorum(&self) -> usize {
        scheme::ack_quorum(self.durability, self.f)
    }

    /// Minimum responders recovery needs to reconstruct the acked prefix
    /// ([`scheme::recovery_quorum`]).
    pub fn recovery_quorum(&self) -> usize {
        scheme::recovery_quorum(self.durability, self.f)
    }

    /// Bytes of peer memory one region occupies for a file with `capacity`
    /// data bytes ([`scheme::region_size`]).
    pub fn region_size(&self, capacity: usize) -> usize {
        scheme::region_size(self.durability, capacity)
    }
}

impl Default for NclConfig {
    fn default() -> Self {
        NclConfig::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_and_quorum_counts() {
        let mut c = NclConfig::zero();
        assert_eq!(c.replicas(), 3);
        assert_eq!(c.quorum(), 2);
        c.f = 2;
        assert_eq!(c.replicas(), 5);
        assert_eq!(c.quorum(), 3);
    }

    #[test]
    fn ec_quorum_counts() {
        let mut c = NclConfig::zero();
        c.durability = Durability::Ec { k: 2, n: 3 };
        assert_eq!(c.replicas(), 3);
        assert_eq!(c.quorum(), 3, "EC acks only at full fragment coverage");
        assert_eq!(c.recovery_quorum(), 2);
        c.durability = Durability::Ec { k: 4, n: 6 };
        assert_eq!(c.replicas(), 6);
        assert_eq!(c.quorum(), 6);
        assert_eq!(c.recovery_quorum(), 4);
        assert_eq!(c.durability.label(), "ec-4of6");
        assert_eq!(Durability::Replicated.label(), "replicated");
    }

    #[test]
    fn ec_region_is_fractional() {
        let mut c = NclConfig::zero();
        let cap = 32 << 20;
        assert_eq!(c.region_size(cap), crate::layout::HEADER_SIZE + cap);
        c.durability = Durability::Ec { k: 2, n: 3 };
        let per_peer = c.region_size(cap);
        // Two halves of capacity/(2k) ≈ capacity/k per peer, far below a
        // full copy; n peers together hold ≈ (n/k)× the file.
        assert!(per_peer < cap * 3 / 4, "per-peer {per_peer} vs full {cap}");
        assert!(per_peer >= cap / 2, "halves must cover one striped file");
    }

    #[test]
    fn calibrated_is_nonzero() {
        let c = NclConfig::calibrated();
        assert!(!c.rdma.is_zero());
    }
}
