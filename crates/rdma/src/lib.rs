//! Simulated RDMA verbs for the SplitFT reproduction.
//!
//! NCL (the paper's near-compute log) performs its data plane exclusively
//! with **1-sided RDMA operations**: the application posts WRITE/READ work
//! requests against memory regions exported by log peers, and the peers' CPUs
//! are never involved after setup. This crate reproduces the slice of the
//! verbs interface that NCL depends on:
//!
//! * [`RdmaDevice`] — one per node; registers memory regions ([`LocalMr`]
//!   on the host) protected by an [`RKey`] and identified by a portable
//!   [`RemoteMr`] token.
//! * [`QueuePair`] — a reliable connection to a remote device. Work requests
//!   are processed **in post order**, on the poster's thread (the send queue
//!   ordering guarantee NCL's protocol leans on, §4.4), each charged with
//!   the configured [`sim::LatencyModel`].
//! * [`CompletionQueue`] — per-QP completions, delivered in order, each
//!   landing when its modelled flight is over and someone reaps the queue.
//!   Once a work request fails, the QP enters an error state and all
//!   subsequent requests complete with [`WcStatus::FlushErr`], as real RC QPs
//!   do.
//!
//! ## Failure semantics
//!
//! * Crashing the **remote** node invalidates every memory region it hosts
//!   (registration is tied to the node's crash generation), so data written
//!   before the crash is genuinely lost — the paper's peer-failure model.
//! * A **partition** fails in-flight and subsequent work requests but leaves
//!   the remote memory intact: the peer becomes a *lagging* replica.
//! * The host can unilaterally [`RdmaDevice::invalidate`] a region's rkey
//!   (the paper's memory-revocation path), after which remote accesses fail
//!   with [`WcStatus::RemoteAccessErr`].

pub mod device;
pub mod qp;
pub mod types;

pub use device::{LocalMr, RdmaDevice, RemoteMr};
pub use qp::{CompletionQueue, QueuePair, WorkRequest};
pub use types::{RKey, WcStatus, WorkCompletion, WrId};
