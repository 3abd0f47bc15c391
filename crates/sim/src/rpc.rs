//! Typed request/response services that run on their callers (simulated
//! control plane).
//!
//! The paper's control-plane traffic — controller RPCs (ZooKeeper in the
//! original), peer memory-region setup, and DFS client↔OSD messages — is
//! modelled as in-process RPC: a service is a handler behind one mutex, and
//! a call runs that handler on the calling thread. Every call consults the
//! [`Cluster`] for reachability in both directions and charges the link's
//! [`LatencyModel`], so crashing or partitioning a node transparently fails
//! its RPCs.
//!
//! The mutex is the serial server: handlers of one service never overlap,
//! so what a handler charges (an OSD commit, a memory registration) queues
//! the next caller behind it, while different services run in parallel. A
//! handler must not call a service that may be waiting on its own (peers
//! call the controller; the controller and the DFS services call nobody).
//!
//! Bandwidth-dependent costs are charged by the *caller* via
//! [`RpcClient::call_sized`]; plain [`RpcClient::call`] charges only the
//! base round-trip latency. This keeps the request/response types free of a
//! size-reporting trait.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::cluster::{Cluster, NodeId};
use crate::error::SimError;
use crate::fault::{FaultSite, WireFault};
use crate::latency::LatencyModel;

/// The handler with the state it captured; `None` once the server is gone.
type Service<Req, Resp> = Mutex<Option<Box<dyn FnMut(Req) -> Resp + Send>>>;

/// Handle to an RPC service.
///
/// Dropping the handle stops the service: the drop waits out a call that is
/// inside the handler, then drops the handler together with the state it
/// captured, and every later call fails with [`SimError::ServiceStopped`].
pub struct RpcServer<Req, Resp> {
    cluster: Cluster,
    node: NodeId,
    service: Arc<Service<Req, Resp>>,
}

impl<Req, Resp> RpcServer<Req, Resp> {
    /// Starts a service on `node` answering each request with `handler`.
    ///
    /// The handler owns its state (captured by the closure). Crash semantics:
    /// whenever `node` is down, calls fail without executing the handler — a
    /// dead process whose clients observe connection failures — and the
    /// component is expected to watch [`Cluster::generation`] if it must
    /// discard volatile state after a restart (see the NCL peer daemon).
    pub fn new<F>(cluster: Cluster, node: NodeId, handler: F) -> Self
    where
        F: FnMut(Req) -> Resp + Send + 'static,
    {
        RpcServer {
            cluster,
            node,
            service: Arc::new(Mutex::new(Some(Box::new(handler)))),
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
            service: Arc::clone(&self.service),
            latency,
        }
    }
}

impl<Req, Resp> Drop for RpcServer<Req, Resp> {
    fn drop(&mut self) {
        // Clients keep the `Arc`; the state must not live on through them.
        *self.service.lock() = None;
    }
}

/// Client handle for calling an [`RpcServer`].
///
/// Cloneable; each clone shares the server connection but can be used from a
/// different calling node.
pub struct RpcClient<Req, Resp> {
    cluster: Cluster,
    server_node: NodeId,
    service: Arc<Service<Req, Resp>>,
    latency: LatencyModel,
}

impl<Req, Resp> Clone for RpcClient<Req, Resp> {
    fn clone(&self) -> Self {
        RpcClient {
            cluster: self.cluster.clone(),
            server_node: self.server_node,
            service: Arc::clone(&self.service),
            latency: self.latency,
        }
    }
}

impl<Req, Resp> RpcClient<Req, Resp> {
    /// The node hosting the remote service.
    pub fn server_node(&self) -> NodeId {
        self.server_node
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
        let verdict = self
            .cluster
            .fault_point(FaultSite::Control, from, self.server_node);
        if let WireFault::Delay(d) = verdict {
            crate::time::delay(d);
        }
        self.cluster.can_reach(from, self.server_node)?;
        self.latency.charge(req_bytes);
        let resp = {
            let mut service = self.service.lock();
            let handler = service.as_mut().ok_or(SimError::ServiceStopped)?;
            // Under the lock, so a caller queued behind a handler that
            // crashed its own node is dropped with the dead process.
            if !self.cluster.is_alive(self.server_node) {
                return Err(SimError::NodeDown(self.server_node));
            }
            handler(req)
        };
        // The response must also traverse the network; a server that
        // crashed inside its handler applied the request and lost the reply.
        self.cluster.can_reach(self.server_node, from)?;
        self.latency.charge(resp_bytes);
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    use std::sync::Barrier;

    use super::*;
    use crate::fault::{Binding, FaultAction, FaultPlan, FaultScheduler, Trigger};

    fn echo_service(c: &Cluster) -> (RpcServer<u32, u32>, NodeId) {
        let server_node = c.add_node("server");
        let srv = RpcServer::new(c.clone(), server_node, |x: u32| x + 1);
        (srv, server_node)
    }

    /// A service answering with how many requests its handler has executed.
    fn counting_service(c: &Cluster) -> (RpcServer<(), u32>, NodeId, Arc<AtomicU32>) {
        let server_node = c.add_node("server");
        let executed = Arc::new(AtomicU32::new(0));
        let executed2 = Arc::clone(&executed);
        let srv = RpcServer::new(c.clone(), server_node, move |()| {
            executed2.fetch_add(1, Ordering::SeqCst) + 1
        });
        (srv, server_node, executed)
    }

    fn binding(app: NodeId, controller: NodeId) -> Binding {
        Binding {
            peers: Vec::new(),
            controller,
            app,
        }
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
    fn crashed_server_fails_calls_without_running_the_handler() {
        let c = Cluster::new();
        let client_node = c.add_node("client");
        let (srv, server_node, executed) = counting_service(&c);
        let cli = srv.client(LatencyModel::ZERO);
        c.crash(server_node);
        assert_eq!(
            cli.call(client_node, ()),
            Err(SimError::NodeDown(server_node))
        );
        assert_eq!(executed.load(Ordering::SeqCst), 0);
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
        let cli = srv.client(LatencyModel::ZERO);
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
        let srv = RpcServer::new(c.clone(), server_node, move |x: u32| {
            total += x;
            total
        });
        let cli = srv.client(LatencyModel::ZERO);
        assert_eq!(cli.call(client_node, 5).unwrap(), 5);
        assert_eq!(cli.call(client_node, 7).unwrap(), 12);
    }

    /// The service mutex is the serial server: eight callers released
    /// together never find another one inside the handler.
    #[test]
    fn concurrent_callers_never_overlap_inside_the_handler() {
        let c = Cluster::new();
        let server_node = c.add_node("server");
        let inside = AtomicBool::new(false);
        let overlapped = Arc::new(AtomicBool::new(false));
        let overlapped2 = Arc::clone(&overlapped);
        let srv = RpcServer::new(c.clone(), server_node, move |x: u32| {
            if inside.swap(true, Ordering::SeqCst) {
                overlapped2.store(true, Ordering::SeqCst);
            }
            // Hand the core to the callers queued on the mutex.
            for _ in 0..8 {
                std::thread::yield_now();
            }
            inside.store(false, Ordering::SeqCst);
            x + 1
        });
        let start = Barrier::new(8);
        let mut results: Vec<u32> = std::thread::scope(|s| {
            let callers: Vec<_> = (0..8u32)
                .map(|i| {
                    let node = c.add_node(format!("client-{i}"));
                    let cli = srv.client(LatencyModel::ZERO);
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        cli.call(node, i).unwrap()
                    })
                })
                .collect();
            callers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        results.sort_unstable();
        assert_eq!(results, (1..=8).collect::<Vec<_>>());
        assert!(!overlapped.load(Ordering::SeqCst));
    }

    /// A server that crashes inside its handler has applied the request and
    /// loses the reply; the caller queued behind it is dropped unexecuted.
    #[test]
    fn handler_crashing_its_node_loses_the_reply_and_drops_the_queue() {
        let c = Cluster::new();
        let client_node = c.add_node("client");
        let server_node = c.add_node("server");
        // An armed, empty schedule counts control-plane consultations: the
        // handler crashes its node once the second caller is past its fault
        // point, a reachability load away from queueing on the service
        // mutex. Should the crash win that last step, the second caller is
        // refused one check earlier, with the same answer.
        let sched = FaultScheduler::new(&FaultPlan::new(0), binding(client_node, server_node));
        c.install_faults(sched.clone());
        let executed = Arc::new(AtomicU32::new(0));
        let srv = {
            let (c, executed) = (c.clone(), Arc::clone(&executed));
            RpcServer::new(c.clone(), server_node, move |crash: bool| {
                let nth = executed.fetch_add(1, Ordering::SeqCst) + 1;
                if crash {
                    while sched.steps() < 2 {
                        std::thread::yield_now();
                    }
                    for _ in 0..8 {
                        std::thread::yield_now();
                    }
                    c.crash(server_node);
                }
                nth
            })
        };
        let cli = srv.client(LatencyModel::ZERO);
        std::thread::scope(|s| {
            let first = s.spawn(|| cli.call(client_node, true));
            while executed.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            let second = cli.call(client_node, false);
            assert_eq!(second, Err(SimError::NodeDown(server_node)));
            assert_eq!(first.join().unwrap(), Err(SimError::NodeDown(server_node)));
        });
        assert_eq!(executed.load(Ordering::SeqCst), 1);
        c.restart(server_node);
        assert_eq!(cli.call(client_node, false), Ok(2));
    }

    #[test]
    fn dropped_server_stops_its_clients_and_frees_the_handler_state() {
        let c = Cluster::new();
        let client_node = c.add_node("client");
        let server_node = c.add_node("server");
        let region = Arc::new(vec![0u8; 1 << 10]);
        let weak = Arc::downgrade(&region);
        let srv = RpcServer::new(c.clone(), server_node, move |x: usize| x + region.len());
        let cli = srv.client(LatencyModel::ZERO);
        assert_eq!(cli.call(client_node, 1), Ok(1025));
        drop(srv);
        assert_eq!(cli.call(client_node, 1), Err(SimError::ServiceStopped));
        assert!(weak.upgrade().is_none(), "a client clone keeps the state");
    }

    #[test]
    fn control_fault_cuts_the_link_of_the_call_that_trips_it() {
        let c = Cluster::new();
        let client_node = c.add_node("client");
        let (srv, server_node, executed) = counting_service(&c);
        let plan = FaultPlan::new(0)
            .push(Trigger::Step(2), FaultAction::PartitionController)
            .push(Trigger::Step(3), FaultAction::HealController);
        c.install_faults(FaultScheduler::new(
            &plan,
            binding(client_node, server_node),
        ));
        let cli = srv.client(LatencyModel::ZERO);
        assert_eq!(cli.call(client_node, ()), Ok(1));
        assert_eq!(
            cli.call(client_node, ()),
            Err(SimError::Partitioned(client_node, server_node))
        );
        assert_eq!(executed.load(Ordering::SeqCst), 1, "the cut call never ran");
        assert_eq!(cli.call(client_node, ()), Ok(2));
    }
}
