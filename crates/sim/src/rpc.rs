//! Typed request/response services over channels (simulated control plane).
//!
//! The paper's control-plane traffic — controller RPCs (ZooKeeper in the
//! original), peer memory-region setup, and DFS client↔OSD messages — is
//! modelled as in-process RPC: a service thread per server consuming typed
//! requests from a channel. Every call consults the [`Cluster`] for
//! reachability in both directions and charges the link's [`LatencyModel`],
//! so crashing or partitioning a node transparently fails its RPCs.
//!
//! Bandwidth-dependent costs are charged by the *caller* via
//! [`RpcClient::call_sized`]; plain [`RpcClient::call`] charges only the
//! base round-trip latency. This keeps the request/response types free of a
//! size-reporting trait.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::cluster::{Cluster, NodeId};
use crate::error::SimError;
use crate::latency::LatencyModel;

/// Default per-call timeout; generous because delays are real waits.
const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

type Envelope<Req, Resp> = (Req, Sender<Resp>);

/// Handle to a running RPC service thread.
///
/// Dropping the handle stops the service and joins its thread. While the
/// service's node is crashed, requests are drained and dropped without
/// executing the handler — mimicking a dead process whose clients observe
/// connection failures. A request still queued when the thread exits is
/// discarded with the thread's receiver (the channel drops what nobody can
/// receive), so its caller sees the same disconnect instead of waiting out
/// its timeout.
pub struct RpcServer<Req, Resp> {
    cluster: Cluster,
    node: NodeId,
    tx: Sender<Envelope<Req, Resp>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl<Req: Send + 'static, Resp: Send + 'static> RpcServer<Req, Resp> {
    /// Spawns a service thread on `node` running `handler` for each request.
    ///
    /// The handler owns its state (captured by the closure). Crash semantics:
    /// whenever `node` is down, incoming requests are dropped on the floor,
    /// and the component is expected to watch
    /// [`Cluster::generation`] if it must discard volatile state after a
    /// restart (see e.g. the NCL peer daemon).
    pub fn spawn<F>(cluster: Cluster, node: NodeId, name: &str, mut handler: F) -> Self
    where
        F: FnMut(Req) -> Resp + Send + 'static,
    {
        type Channel<Req, Resp> = (Sender<Envelope<Req, Resp>>, Receiver<Envelope<Req, Resp>>);
        let (tx, rx): Channel<Req, Resp> = unbounded();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let cluster2 = cluster.clone();
        let thread = std::thread::Builder::new()
            .name(format!("rpc-{name}"))
            .spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    match rx.recv_timeout(Duration::from_millis(50)) {
                        Ok((req, reply)) => {
                            if !cluster2.is_alive(node) {
                                // Dead process: drop the request; the reply
                                // sender is dropped, failing the caller.
                                continue;
                            }
                            let resp = handler(req);
                            let _ = reply.send(resp);
                        }
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
            })
            .expect("spawn rpc thread");
        RpcServer {
            cluster,
            node,
            tx,
            stop,
            thread: Some(thread),
        }
    }

    /// The node this service runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Creates a client handle that charges `latency` per direction.
    pub fn client(&self, latency: LatencyModel) -> RpcClient<Req, Resp> {
        RpcClient {
            cluster: self.cluster.clone(),
            server_node: self.node,
            tx: self.tx.clone(),
            latency,
            timeout: DEFAULT_TIMEOUT,
        }
    }
}

impl<Req, Resp> Drop for RpcServer<Req, Resp> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Client handle for calling an [`RpcServer`].
///
/// Cloneable; each clone shares the server connection but can be used from a
/// different calling node.
pub struct RpcClient<Req, Resp> {
    cluster: Cluster,
    server_node: NodeId,
    tx: Sender<Envelope<Req, Resp>>,
    latency: LatencyModel,
    timeout: Duration,
}

impl<Req, Resp> Clone for RpcClient<Req, Resp> {
    fn clone(&self) -> Self {
        RpcClient {
            cluster: self.cluster.clone(),
            server_node: self.server_node,
            tx: self.tx.clone(),
            latency: self.latency,
            timeout: self.timeout,
        }
    }
}

impl<Req: Send + 'static, Resp: Send + 'static> RpcClient<Req, Resp> {
    /// The node hosting the remote service.
    pub fn server_node(&self) -> NodeId {
        self.server_node
    }

    /// Overrides the per-call timeout (default 30 s).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Issues a call from `from`, charging only the base link latency in each
    /// direction.
    pub fn call(&self, from: NodeId, req: Req) -> Result<Resp, SimError> {
        self.call_sized(from, req, 0, 0)
    }

    /// Issues a call charging bandwidth for `req_bytes` on the request leg
    /// and `resp_bytes` on the response leg.
    pub fn call_sized(
        &self,
        from: NodeId,
        req: Req,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> Result<Resp, SimError> {
        // Control-plane fault point: advances any armed schedule (which may
        // cut this very link) before the reachability check observes it.
        let verdict =
            self.cluster
                .fault_point(crate::fault::FaultSite::Control, from, self.server_node);
        if let crate::fault::WireFault::Delay(d) = verdict {
            crate::time::delay(d);
        }
        self.cluster.can_reach(from, self.server_node)?;
        self.latency.charge(req_bytes);
        let (reply_tx, reply_rx) = unbounded();
        self.tx
            .send((req, reply_tx))
            .map_err(|_| SimError::ServiceStopped)?;
        let resp = match reply_rx.recv_timeout(self.timeout) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => return Err(SimError::Timeout),
            Err(RecvTimeoutError::Disconnected) => {
                // Server dropped the reply without answering: the remote
                // process is dead from the caller's point of view.
                return Err(SimError::NodeDown(self.server_node));
            }
        };
        // The response must also traverse the network.
        self.cluster.can_reach(self.server_node, from)?;
        self.latency.charge(resp_bytes);
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_service(c: &Cluster) -> (RpcServer<u32, u32>, NodeId) {
        let server_node = c.add_node("server");
        let srv = RpcServer::spawn(c.clone(), server_node, "echo", |x: u32| x + 1);
        (srv, server_node)
    }

    #[test]
    fn basic_call_roundtrip() {
        let c = Cluster::new();
        let client_node = c.add_node("client");
        let (srv, _) = echo_service(&c);
        let cli = srv.client(LatencyModel::ZERO);
        assert_eq!(cli.call(client_node, 41).unwrap(), 42);
    }

    #[test]
    fn call_fails_when_server_crashed() {
        let c = Cluster::new();
        let client_node = c.add_node("client");
        let (srv, server_node) = echo_service(&c);
        let cli = srv
            .client(LatencyModel::ZERO)
            .with_timeout(Duration::from_millis(200));
        c.crash(server_node);
        match cli.call(client_node, 1) {
            Err(SimError::NodeDown(n)) => assert_eq!(n, server_node),
            other => panic!("expected NodeDown, got {other:?}"),
        }
    }

    #[test]
    fn call_fails_when_partitioned() {
        let c = Cluster::new();
        let client_node = c.add_node("client");
        let (srv, server_node) = echo_service(&c);
        let cli = srv.client(LatencyModel::ZERO);
        c.partition(client_node, server_node);
        assert!(matches!(
            cli.call(client_node, 1),
            Err(SimError::Partitioned(_, _))
        ));
        c.heal(client_node, server_node);
        assert_eq!(cli.call(client_node, 1).unwrap(), 2);
    }

    #[test]
    fn server_recovers_after_restart() {
        let c = Cluster::new();
        let client_node = c.add_node("client");
        let (srv, server_node) = echo_service(&c);
        let cli = srv
            .client(LatencyModel::ZERO)
            .with_timeout(Duration::from_millis(200));
        c.crash(server_node);
        assert!(cli.call(client_node, 1).is_err());
        c.restart(server_node);
        assert_eq!(cli.call(client_node, 1).unwrap(), 2);
    }

    #[test]
    fn stateful_handler_accumulates() {
        let c = Cluster::new();
        let client_node = c.add_node("client");
        let server_node = c.add_node("server");
        let mut total = 0u32;
        let srv = RpcServer::spawn(c.clone(), server_node, "acc", move |x: u32| {
            total += x;
            total
        });
        let cli = srv.client(LatencyModel::ZERO);
        assert_eq!(cli.call(client_node, 5).unwrap(), 5);
        assert_eq!(cli.call(client_node, 7).unwrap(), 12);
    }

    #[test]
    fn concurrent_clients_all_answered() {
        let c = Cluster::new();
        let (srv, _) = echo_service(&c);
        let mut handles = Vec::new();
        for i in 0..8u32 {
            let node = c.add_node(format!("client-{i}"));
            let cli = srv.client(LatencyModel::ZERO);
            handles.push(std::thread::spawn(move || cli.call(node, i).unwrap()));
        }
        let mut results: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        results.sort_unstable();
        assert_eq!(results, (1..=8).collect::<Vec<_>>());
    }

    /// A request enqueued between the service thread's last `recv` and its
    /// exit is never handled. Its caller must see the service die, not wait
    /// out the 30 s default timeout: the caller's own `tx` clone keeps the
    /// request channel alive, so the disconnect has to come from the queued
    /// envelope (and its reply sender) being dropped with the receiver.
    #[test]
    fn call_racing_server_shutdown_fails_promptly() {
        let c = Cluster::new();
        let client_node = c.add_node("client");
        let server_node = c.add_node("server");
        let (entered_tx, entered_rx) = unbounded();
        let (go_tx, go_rx) = unbounded::<()>();
        let srv = RpcServer::spawn(c.clone(), server_node, "slow", move |x: u32| {
            entered_tx.send(()).unwrap();
            let _ = go_rx.recv();
            x
        });
        let cli = srv.client(LatencyModel::ZERO);
        std::thread::scope(|s| {
            let first = s.spawn(|| cli.call(client_node, 1));
            entered_rx.recv().unwrap();
            // The service thread is inside the handler: a second call
            // queues behind it.
            let racer = s.spawn(|| {
                let t0 = std::time::Instant::now();
                (cli.call(client_node, 2), t0.elapsed())
            });
            while srv.tx.is_empty() {
                std::thread::yield_now();
            }
            // Stop first, then let the handler return: the loop exits
            // without another `recv`, with the racer's envelope queued.
            srv.stop.store(true, Ordering::Relaxed);
            go_tx.send(()).unwrap();
            assert_eq!(first.join().unwrap().unwrap(), 1);
            let (result, took) = racer.join().unwrap();
            match result {
                Err(SimError::NodeDown(n)) => assert_eq!(n, server_node),
                other => panic!("expected NodeDown, got {other:?}"),
            }
            assert!(
                took < Duration::from_secs(1),
                "stranded call waited {took:?}"
            );
        });
    }
}
