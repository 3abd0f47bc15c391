//! Peer endpoint directory (name → control/data-plane handles).
//!
//! In a real deployment, `ncl-lib` dials a peer by the network address the
//! controller hands out. The in-process simulation needs an equivalent name
//! resolution step: peers publish their RPC client handle and RDMA device
//! here, and applications look them up by the names the controller returns.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use rdma::RdmaDevice;
use sim::{NodeId, RpcClient};
use telemetry::{spans, Telemetry};

use crate::peer::Daemon;

/// Connection handles for one peer.
#[derive(Clone)]
pub struct PeerEndpoint {
    /// Control-plane RPC client: a call runs a [`Daemon`] method
    /// (allocation, lookup, prepare/commit, ...).
    pub rpc: RpcClient<Arc<Mutex<Daemon>>>,
    /// The peer's RDMA device, which queue pairs connect to.
    pub device: RdmaDevice,
    /// The peer's node.
    pub node: NodeId,
}

/// Shared directory of peer endpoints.
#[derive(Default)]
pub struct NclRegistry {
    peers: RwLock<HashMap<String, PeerEndpoint>>,
    telemetry: Telemetry,
}

impl NclRegistry {
    /// Creates an empty registry that records nothing.
    pub fn new() -> Arc<Self> {
        Self::with_telemetry(Telemetry::disabled())
    }

    /// Creates an empty registry that records membership changes as facts
    /// into the deployment's shared span trace.
    pub fn with_telemetry(telemetry: Telemetry) -> Arc<Self> {
        Arc::new(NclRegistry {
            peers: RwLock::new(HashMap::new()),
            telemetry,
        })
    }

    /// Publishes (or replaces) a peer's endpoint.
    pub fn publish(&self, name: &str, endpoint: PeerEndpoint) {
        let node = endpoint.node;
        self.peers.write().insert(name.to_string(), endpoint);
        self.telemetry
            .fact(spans::PEER_PUBLISH, name, 0, format!("on {node}"));
    }

    /// Resolves a peer name to its endpoint.
    pub fn lookup(&self, name: &str) -> Option<PeerEndpoint> {
        self.peers.read().get(name).cloned()
    }

    /// Names of all published peers, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.peers.read().keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_of_unknown_peer_is_none() {
        let r = NclRegistry::new();
        assert!(r.lookup("nope").is_none());
        assert!(r.names().is_empty());
    }
}
