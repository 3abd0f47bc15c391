//! Plain data types shared across the simulated verbs interface.

use bytes::Bytes;

/// Remote access key protecting a registered region ([`crate::LocalMr`]).
///
/// A remote operation must present the matching key; a revoked or recycled
/// region changes its key, so stale holders fail with
/// [`WcStatus::RemoteAccessErr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RKey(pub u64);

/// Caller-assigned work-request identifier, echoed in the completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WrId(pub u64);

/// Completion status of a work request (subset of `ibv_wc_status`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WcStatus {
    /// The operation was applied to the remote memory region.
    Success,
    /// The remote side rejected the access: bad rkey, out-of-bounds range, or
    /// region revoked/recycled.
    RemoteAccessErr,
    /// The remote node is unreachable (crashed or partitioned); retries were
    /// exhausted inside the NIC.
    RetryExceeded,
    /// The QP was already in the error state when this request reached the
    /// NIC; the request was flushed without being attempted.
    FlushErr,
}

impl WcStatus {
    /// True for [`WcStatus::Success`].
    pub fn is_success(self) -> bool {
        self == WcStatus::Success
    }
}

/// A completion entry polled from a [`crate::CompletionQueue`].
#[derive(Debug, Clone)]
pub struct WorkCompletion {
    /// The identifier given at post time.
    pub wr_id: WrId,
    /// Outcome of the operation.
    pub status: WcStatus,
    /// For successful READ operations, the data read from the remote region.
    pub read_data: Option<Bytes>,
    /// NIC-measured post→completion duration in nanoseconds (the same value
    /// the QP's wire histogram records). Consumers use it to reconstruct
    /// per-peer wire spans without a round trip back to post timestamps.
    pub wire_ns: u64,
}

impl WorkCompletion {
    /// True when the operation succeeded.
    pub fn is_success(&self) -> bool {
        self.status.is_success()
    }
}
