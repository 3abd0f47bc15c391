//! Error type shared by the simulation substrate and the layers above it.

use std::fmt;

use crate::cluster::NodeId;

/// Errors surfaced by the simulated environment.
///
/// The variants mirror the failure classes of the paper's fail-recover model
/// (§4.2): nodes can crash and later recover, and the network between any two
/// nodes can be partitioned. Higher layers map these onto their own error
/// domains (e.g. an RDMA work-request completing with a flush error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The target node is crashed (not reachable and has lost volatile state).
    NodeDown(NodeId),
    /// The two nodes are partitioned from each other; state is retained but
    /// messages are dropped.
    Partitioned(NodeId, NodeId),
    /// The remote service has shut down (its server handle was dropped).
    ServiceStopped,
    /// Catch-all for invalid requests rejected by a simulated service.
    Rejected(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NodeDown(n) => write!(f, "node {n} is down"),
            SimError::Partitioned(a, b) => write!(f, "nodes {a} and {b} are partitioned"),
            SimError::ServiceStopped => write!(f, "service stopped"),
            SimError::Rejected(msg) => write!(f, "request rejected: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}
