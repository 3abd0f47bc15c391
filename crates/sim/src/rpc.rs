//! Typed request/response services that run on their callers (simulated
//! control plane).
//!
//! The paper's control-plane traffic — controller RPCs (ZooKeeper in the
//! original), peer memory-region setup, and DFS client↔OSD messages — is
//! modelled as in-process RPC: a service is a handler behind one mutex, and
//! a call runs that handler on the calling thread. Every call consults the
//! [`Cluster`] for reachability in both directions and prices the link's
//! [`LatencyModel`], so crashing or partitioning a node transparently fails
//! its RPCs.
//!
//! A service is a serial server in modelled time: a request is served at
//! its arrival, or once the service is done with the request before it if
//! that is later, and is done when the handler's work is — what it prices
//! ([`RpcServer::priced`]: an OSD's hop, commit or read) plus the real time
//! it ran. A handler prices its work instead of sleeping it under the mutex,
//! which only keeps one service's handlers from overlapping; different
//! services run in parallel. A handler must not call a service that may be
//! waiting on its own (peers call the controller; the controller and the
//! DFS services call nobody).
//!
//! A call's legs are priced, not slept: [`RpcClient::call_at`] returns the
//! instant the answer is back, so a caller of several waits once. `call`
//! and [`RpcClient::call_sized`] (bandwidth by byte counts, which keeps the
//! types free of a size-reporting trait) wait for it themselves.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::cluster::{Cluster, NodeId};
use crate::error::SimError;
use crate::fault::{FaultSite, WireFault};
use crate::latency::LatencyModel;

/// The handler with the state it captured — passed the instant it serves a
/// request, it answers with what its work costs — and the instant the
/// service is done with its last request; `None` once the server is gone.
type Service<Req, Resp> = Mutex<Option<(Handler<Req, Resp>, Instant)>>;
type Handler<Req, Resp> = Box<dyn FnMut(Instant, Req) -> (Resp, Duration) + Send>;

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
    pub fn new<F>(cluster: Cluster, node: NodeId, mut handler: F) -> Self
    where
        F: FnMut(Req) -> Resp + Send + 'static,
    {
        Self::timed(cluster, node, move |_, req| handler(req))
    }

    /// Starts a service whose handler is also passed the instant it serves
    /// the request — its arrival, or later if the server was busy.
    pub fn timed<F>(cluster: Cluster, node: NodeId, mut handler: F) -> Self
    where
        F: FnMut(Instant, Req) -> Resp + Send + 'static,
    {
        Self::priced(cluster, node, move |served, req| {
            (handler(served, req), Duration::ZERO)
        })
    }

    /// Starts a service whose handler answers with what its work costs, so
    /// the service is busy for that long after it served the request.
    pub fn priced<F>(cluster: Cluster, node: NodeId, handler: F) -> Self
    where
        F: FnMut(Instant, Req) -> (Resp, Duration) + Send + 'static,
    {
        // Idle since it started.
        let service = Some((Box::new(handler) as Handler<_, _>, crate::time::now()));
        RpcServer {
            cluster,
            node,
            service: Arc::new(Mutex::new(service)),
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
    /// and `resp_bytes` on the response leg, and waits for the answer.
    pub fn call_sized(
        &self,
        from: NodeId,
        req: Req,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> Result<Resp, SimError> {
        // The request's bytes go out ahead of the call, the response's after.
        let bandwidth = |bytes| self.latency.cost(bytes) - self.latency.base;
        let at = crate::time::now() + bandwidth(req_bytes);
        let (resp, ready) = self.call_at(from, at, req)?;
        crate::time::delay_until(ready + bandwidth(resp_bytes));
        Ok(resp)
    }

    /// Issues a call from `from` at `at` without waiting; returns the answer
    /// and the instant it is back: served at `at` + request leg + any delay
    /// the fault point drew (or once the service is free), then the
    /// handler's work and the response leg.
    pub fn call_at(
        &self,
        from: NodeId,
        at: Instant,
        req: Req,
    ) -> Result<(Resp, Instant), SimError> {
        // Control-plane fault point: advances any armed schedule (which may
        // cut this very link) before the reachability check observes it.
        let verdict = self
            .cluster
            .fault_point(FaultSite::Control, from, self.server_node);
        let mut arrival = at + self.latency.base;
        if let WireFault::Delay(d) = verdict {
            arrival += d;
        }
        self.cluster.can_reach(from, self.server_node)?;
        let (resp, done) = {
            let mut service = self.service.lock();
            let (handler, free) = service.as_mut().ok_or(SimError::ServiceStopped)?;
            // Under the lock, so a caller queued behind a handler that
            // crashed its own node is dropped with the dead process.
            if !self.cluster.is_alive(self.server_node) {
                return Err(SimError::NodeDown(self.server_node));
            }
            // Served once it has arrived and the request before it is done;
            // what the handler prices, and any time it charges on the clock,
            // add to that.
            let served = arrival.max(*free);
            let taken = crate::time::now();
            let (resp, work) = handler(served, req);
            *free = served + work + crate::time::now().duration_since(taken);
            (resp, *free)
        };
        // The response must also traverse the network; a server that
        // crashed inside its handler applied the request and lost the reply.
        self.cluster.can_reach(self.server_node, from)?;
        Ok((resp, done + self.latency.base))
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

    /// What a handler charges on the clock adds to both legs instead of
    /// overlapping them, priced or waited for.
    #[test]
    fn a_handler_that_charges_adds_its_time_to_both_legs() {
        let c = Cluster::new();
        let client_node = c.add_node("client");
        let server_node = c.add_node("server");
        let work = std::time::Duration::from_millis(3);
        let srv = RpcServer::new(c.clone(), server_node, move |x: u32| {
            crate::time::delay(work);
            x
        });
        let leg = LatencyModel::new(std::time::Duration::from_millis(2), 0.0, 0.0);
        let cli = srv.client(leg);
        let at = Instant::now();
        let (_, ready) = cli.call_at(client_node, at, 1).unwrap();
        assert!(ready >= at + 2 * leg.base + work);
        let at = Instant::now();
        cli.call(client_node, 1).unwrap();
        assert!(at.elapsed() >= 2 * leg.base + work);
    }

    /// A serial server: two requests priced at one instant queue in
    /// modelled time, so the second is served once the first is done, and
    /// its answer is back a whole handler time after the first's.
    #[test]
    fn a_request_queued_behind_a_busy_handler_waits_out_its_whole_work() {
        let c = Cluster::new();
        let client_node = c.add_node("client");
        let server_node = c.add_node("server");
        let work = Duration::from_millis(9);
        let srv = RpcServer::new(c.clone(), server_node, move |x: u32| {
            crate::time::delay(work);
            x
        });
        let leg = LatencyModel::new(Duration::from_millis(4), 0.0, 0.0);
        let cli = srv.client(leg);
        let at = Instant::now();
        let (_, first) = cli.call_at(client_node, at, 1).unwrap();
        let (_, second) = cli.call_at(client_node, at, 2).unwrap();
        assert!(first >= at + 2 * leg.base + work);
        assert!(second >= first + work, "{:?} apart", second - first);
    }

    /// What a priced handler reports keeps its service busy on the clock,
    /// and nobody sleeps it.
    #[test]
    fn a_priced_handler_queues_the_next_request_without_sleeping() {
        let c = Cluster::new();
        let client_node = c.add_node("client");
        let server_node = c.add_node("server");
        let work = Duration::from_secs(5);
        let srv = RpcServer::priced(c.clone(), server_node, move |_, x: u32| (x, work));
        let cli = srv.client(LatencyModel::ZERO);
        let at = Instant::now();
        let (_, first) = cli.call_at(client_node, at, 1).unwrap();
        let (_, second) = cli.call_at(client_node, at, 2).unwrap();
        assert!(first >= at + work && second >= first + work);
        assert!(at.elapsed() < Duration::from_secs(1));
    }

    /// A timed handler is served at the request's arrival, one leg after
    /// the instant it was issued at, even one ahead of the clock.
    #[test]
    fn a_timed_handler_is_served_at_the_requests_arrival() {
        let c = Cluster::new();
        let client_node = c.add_node("client");
        let server_node = c.add_node("server");
        let srv = RpcServer::timed(c.clone(), server_node, |served: Instant, ()| served);
        let leg = LatencyModel::new(std::time::Duration::from_millis(2), 0.0, 0.0);
        let cli = srv.client(leg);
        let at = Instant::now() + std::time::Duration::from_secs(1);
        let (served, ready) = cli.call_at(client_node, at, ()).unwrap();
        assert_eq!(served, at + leg.base);
        assert!(ready >= served + leg.base);
        assert!(ready < served + leg.base + std::time::Duration::from_millis(100));
    }
}
