//! Near-compute logs (NCL) — the core contribution of the SplitFT paper.
//!
//! NCL makes an application's small, synchronous log writes fault tolerant
//! by replicating them, with 1-sided RDMA writes, to the spare memory of
//! `2f + 1` *log peers* in the compute cluster. A write is acknowledged once
//! it — and every write before it — is durable on a majority (`f + 1`) of
//! peers, so any `f` simultaneous peer failures are survivable and a crashed
//! application can recover its log from the surviving peers, in issued
//! order, possibly on different physical hardware.
//!
//! Components (mirroring §4.2 of the paper):
//!
//! * [`Controller`] — the fault-tolerant metadata service (a ZooKeeper
//!   ensemble in the paper): the registry of available peers, the *ap-map*
//!   ((application, file) → peers + epoch), and ephemeral instance locks
//!   that ensure at most one instance of an application runs at a time.
//! * [`Peer`] — the log-peer daemon that lends spare memory: it allocates
//!   RDMA memory regions on request, validates allocations against epochs,
//!   garbage-collects leaked regions, adopts a region in place or switches
//!   it atomically for recovery catch-up, and can unilaterally revoke
//!   memory.
//! * [`NclLib`] / [`NclFile`] — the application-linked library: local
//!   buffering, in-order majority replication (one data write-request plus
//!   one sequence-number write-request per record, in that order), recovery
//!   with quorum sequence reads, catch-up of lagging peers, and failed-peer
//!   replacement with epoch-stamped ap-map updates.
//!
//! The correctness condition implemented and tested throughout:
//!
//! > If a write `w_i` is acknowledged, then `w_i` and all preceding writes
//! > are recovered, in the order issued, as long as no more than `f` log
//! > peers fail simultaneously.

pub mod config;
pub mod controller;
pub mod detector;
pub mod ec;
pub mod file;
pub mod layout;
pub mod lockaudit;
pub mod peer;
pub mod registry;
pub mod slab;

pub use config::{Durability, NclConfig};
pub use controller::{ApEntry, Controller, ControllerClient, PeerInfo};
pub use detector::{Backoff, PhiDetector};
pub use ec::{MemSpillSink, SpillSink, SpillSnapshot};
pub use file::{NclFile, NclLib};
pub use layout::{RegionHeader, HEADER_SIZE};
pub use peer::Peer;
pub use registry::{NclRegistry, PeerEndpoint};
pub use slab::{SlabAllocator, SlabError, TenantUsage};

use std::fmt;

/// Errors surfaced by the NCL layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NclError {
    /// The controller or a peer rejected the request.
    Rejected(String),
    /// Fewer than `f + 1` peers are reachable; the operation cannot complete
    /// without violating the durability guarantee.
    QuorumUnavailable(String),
    /// The named file has no NCL state.
    NotFound(String),
    /// The file already exists.
    AlreadyExists(String),
    /// Another live instance of this application holds the instance lock.
    InstanceConflict(String),
    /// A write would exceed the region capacity fixed at allocation time.
    CapacityExceeded {
        /// Bytes the region can hold.
        capacity: usize,
        /// End offset the write needed.
        needed: usize,
    },
    /// Transport-level failure talking to the controller.
    Unavailable(String),
}

impl fmt::Display for NclError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NclError::Rejected(m) => write!(f, "rejected: {m}"),
            NclError::QuorumUnavailable(m) => write!(f, "quorum unavailable: {m}"),
            NclError::NotFound(m) => write!(f, "not found: {m}"),
            NclError::AlreadyExists(m) => write!(f, "already exists: {m}"),
            NclError::InstanceConflict(m) => write!(f, "instance conflict: {m}"),
            NclError::CapacityExceeded { capacity, needed } => {
                write!(f, "write needs {needed} bytes but region holds {capacity}")
            }
            NclError::Unavailable(m) => write!(f, "unavailable: {m}"),
        }
    }
}

impl std::error::Error for NclError {}
