//! Services whose calls run on their callers (simulated control plane).
//!
//! The paper's control-plane traffic — controller RPCs (ZooKeeper in the
//! original), peer memory-region setup, and DFS client↔OSD messages — is
//! modelled as in-process RPC: a service is its state behind one mutex, and
//! a call is a closure that runs on that state on the calling thread and
//! returns a typed answer. Every call consults the [`Cluster`] for
//! reachability in both directions and prices the link's [`LatencyModel`],
//! so crashing or partitioning a node transparently fails its RPCs.
//!
//! A service is a serial server in modelled time: a call is served at its
//! arrival, or once the service is done with the call before it if that is
//! later, and is done when its work is — what it prices ([`Served::price`]:
//! an OSD's hop, commit or read) plus the real time it ran. A call prices
//! its work instead of sleeping it under the mutex, which only keeps one
//! service's calls from overlapping; different services run in parallel. A
//! call must not call a service that may be waiting on its own (peers call
//! the controller; the controller and the DFS services call nobody).
//!
//! A call's legs are priced, not slept: [`RpcClient::call_at`] returns the
//! instant the answer is back, so a caller of several waits once. `call`
//! and [`RpcClient::call_sized`] (bandwidth by byte counts) wait for it
//! themselves.
//!
//! A top-level call — one made outside any other call's closure — first
//! runs the cluster's timers that are due at its instant
//! ([`Cluster::every`]): the one drive point of periodic work, which owns no
//! thread.

use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::cluster::{Cluster, NodeId};
use crate::error::SimError;
use crate::fault::{FaultSite, WireFault};
use crate::latency::LatencyModel;

/// The service's state and the instant it is done with its last call;
/// `None` once the server is gone.
type Service<S> = Mutex<Option<(S, Instant)>>;

thread_local! {
    /// Whether this thread is inside a call's closure: its calls are not
    /// top-level and run no timers (a peer's call reaches the controller,
    /// and a GC timer there would nest a second daemon lock).
    static SERVING: Cell<bool> = const { Cell::new(false) };
}

/// What a call is handed besides the state: the instant it is served at,
/// and the work it prices.
#[derive(Debug)]
pub struct Served {
    /// The call's arrival, or later if the service was busy.
    pub at: Instant,
    work: Duration,
}

impl Served {
    /// Keeps the service busy for `work` more after the call, on the clock
    /// and without sleeping it.
    pub fn price(&mut self, work: Duration) {
        self.work += work;
    }
}

/// Handle to an RPC service.
///
/// Dropping the handle stops the service: the drop waits out a call that is
/// running on the state, then drops the state, and every later call fails
/// with [`SimError::ServiceStopped`].
pub struct RpcServer<S> {
    cluster: Cluster,
    node: NodeId,
    service: Arc<Service<S>>,
}

impl<S> RpcServer<S> {
    /// Starts a service on `node` hosting `state`.
    ///
    /// Crash semantics: whenever `node` is down, calls fail without running
    /// — a dead process whose clients observe connection failures — and the
    /// component is expected to watch [`Cluster::generation`] if it must
    /// discard volatile state after a restart (see the NCL peer daemon).
    pub fn new(cluster: Cluster, node: NodeId, state: S) -> Self {
        // Idle since it started.
        let service = Some((state, crate::time::now()));
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
    pub fn client(&self, latency: LatencyModel) -> RpcClient<S> {
        RpcClient {
            cluster: self.cluster.clone(),
            server_node: self.node,
            service: Arc::clone(&self.service),
            latency,
        }
    }
}

impl<S> Drop for RpcServer<S> {
    fn drop(&mut self) {
        // Clients keep the `Arc`; the state must not live on through them.
        *self.service.lock() = None;
    }
}

/// Client handle for calling an [`RpcServer`].
///
/// Cloneable; each clone shares the server connection but can be used from a
/// different calling node.
pub struct RpcClient<S> {
    cluster: Cluster,
    server_node: NodeId,
    service: Arc<Service<S>>,
    latency: LatencyModel,
}

impl<S> Clone for RpcClient<S> {
    fn clone(&self) -> Self {
        RpcClient {
            cluster: self.cluster.clone(),
            server_node: self.server_node,
            service: Arc::clone(&self.service),
            latency: self.latency,
        }
    }
}

impl<S> RpcClient<S> {
    /// Runs `op` on the service from `from`, charging only the base link
    /// latency in each direction, and waits for the answer.
    pub fn call<T>(
        &self,
        from: NodeId,
        op: impl FnOnce(&mut S, &mut Served) -> T,
    ) -> Result<T, SimError> {
        self.call_sized(from, 0, 0, op)
    }

    /// [`Self::call`] charging bandwidth for `req_bytes` on the request leg
    /// and `resp_bytes` on the response leg.
    pub fn call_sized<T>(
        &self,
        from: NodeId,
        req_bytes: usize,
        resp_bytes: usize,
        op: impl FnOnce(&mut S, &mut Served) -> T,
    ) -> Result<T, SimError> {
        // The request's bytes go out ahead of the call, the response's after.
        let bandwidth = |bytes| self.latency.cost(bytes) - self.latency.base;
        let at = crate::time::now() + bandwidth(req_bytes);
        let (answer, ready) = self.call_at(from, at, op)?;
        crate::time::delay_until(ready + bandwidth(resp_bytes));
        Ok(answer)
    }

    /// Runs `op` on the service from `from` at `at` without waiting; returns
    /// its answer and the instant that is back: served at `at`, plus the
    /// request leg and any delay the fault point drew (or once the service
    /// is free), then the call's work and the response leg.
    pub fn call_at<T>(
        &self,
        from: NodeId,
        at: Instant,
        op: impl FnOnce(&mut S, &mut Served) -> T,
    ) -> Result<(T, Instant), SimError> {
        if !SERVING.get() {
            self.cluster.run_timers(at);
        }
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
        let (answer, done) = {
            let mut service = self.service.lock();
            let (state, free) = service.as_mut().ok_or(SimError::ServiceStopped)?;
            // Under the lock, so a caller queued behind a call that crashed
            // its own node is dropped with the dead process.
            if !self.cluster.is_alive(self.server_node) {
                return Err(SimError::NodeDown(self.server_node));
            }
            // Served once it has arrived and the call before it is done;
            // what the call prices, and any time it charges on the clock,
            // add to that.
            let mut served = Served {
                at: arrival.max(*free),
                work: Duration::ZERO,
            };
            let taken = crate::time::now();
            let outer = SERVING.replace(true);
            let answer = op(state, &mut served);
            SERVING.set(outer);
            *free = served.at + served.work + crate::time::now().duration_since(taken);
            (answer, *free)
        };
        // The response must also traverse the network; a server that
        // crashed inside the call applied it and lost the reply.
        self.cluster.can_reach(self.server_node, from)?;
        Ok((answer, done + self.latency.base))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    use std::sync::Barrier;

    use super::*;
    use crate::fault::{Binding, FaultAction, FaultPlan, FaultScheduler, Trigger};

    /// A stateless service; its calls answer `x + 1`.
    fn echo_service(c: &Cluster) -> (RpcServer<()>, NodeId) {
        let server_node = c.add_node("server");
        (RpcServer::new(c.clone(), server_node, ()), server_node)
    }

    fn echo(x: u32) -> impl FnOnce(&mut (), &mut Served) -> u32 {
        move |_, _| x + 1
    }

    /// A service whose state counts the calls that ran on it.
    fn counting_service(c: &Cluster) -> (RpcServer<u32>, NodeId) {
        let server_node = c.add_node("server");
        (RpcServer::new(c.clone(), server_node, 0), server_node)
    }

    /// Counts one more run and answers how many have run.
    fn count(executed: &mut u32, _: &mut Served) -> u32 {
        *executed += 1;
        *executed
    }

    /// How many calls have run, read without counting this one.
    fn executed(cli: &RpcClient<u32>, from: NodeId) -> u32 {
        cli.call(from, |executed, _| *executed).unwrap()
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
        assert_eq!(cli.call(client_node, echo(41)).unwrap(), 42);
    }

    #[test]
    fn crashed_server_fails_calls_without_running_them() {
        let c = Cluster::new();
        let client_node = c.add_node("client");
        let (srv, server_node) = counting_service(&c);
        let cli = srv.client(LatencyModel::ZERO);
        c.crash(server_node);
        assert_eq!(
            cli.call(client_node, count),
            Err(SimError::NodeDown(server_node))
        );
        c.restart(server_node);
        assert_eq!(executed(&cli, client_node), 0);
    }

    #[test]
    fn call_fails_when_partitioned() {
        let c = Cluster::new();
        let client_node = c.add_node("client");
        let (srv, server_node) = echo_service(&c);
        let cli = srv.client(LatencyModel::ZERO);
        c.partition(client_node, server_node);
        assert!(matches!(
            cli.call(client_node, echo(1)),
            Err(SimError::Partitioned(_, _))
        ));
        c.heal(client_node, server_node);
        assert_eq!(cli.call(client_node, echo(1)).unwrap(), 2);
    }

    #[test]
    fn server_recovers_after_restart() {
        let c = Cluster::new();
        let client_node = c.add_node("client");
        let (srv, server_node) = echo_service(&c);
        let cli = srv.client(LatencyModel::ZERO);
        c.crash(server_node);
        assert!(cli.call(client_node, echo(1)).is_err());
        c.restart(server_node);
        assert_eq!(cli.call(client_node, echo(1)).unwrap(), 2);
    }

    #[test]
    fn stateful_service_accumulates() {
        let c = Cluster::new();
        let client_node = c.add_node("client");
        let server_node = c.add_node("server");
        let srv = RpcServer::new(c.clone(), server_node, 0u32);
        let cli = srv.client(LatencyModel::ZERO);
        let add = |x: u32| {
            move |total: &mut u32, _: &mut Served| {
                *total += x;
                *total
            }
        };
        assert_eq!(cli.call(client_node, add(5)).unwrap(), 5);
        assert_eq!(cli.call(client_node, add(7)).unwrap(), 12);
    }

    /// The service mutex is the serial server: eight callers released
    /// together never find another one running on the state.
    #[test]
    fn concurrent_callers_never_overlap_on_the_state() {
        let c = Cluster::new();
        let server_node = c.add_node("server");
        let inside = Arc::new(AtomicBool::new(false));
        let overlapped = Arc::new(AtomicBool::new(false));
        let srv = RpcServer::new(c.clone(), server_node, ());
        let start = Barrier::new(8);
        let mut results: Vec<u32> = std::thread::scope(|s| {
            let callers: Vec<_> = (0..8u32)
                .map(|i| {
                    let node = c.add_node(format!("client-{i}"));
                    let cli = srv.client(LatencyModel::ZERO);
                    let (start, inside, overlapped) = (&start, &inside, &overlapped);
                    s.spawn(move || {
                        start.wait();
                        cli.call(node, |_, _| {
                            if inside.swap(true, Ordering::SeqCst) {
                                overlapped.store(true, Ordering::SeqCst);
                            }
                            // Hand the core to the callers queued on the mutex.
                            for _ in 0..8 {
                                std::thread::yield_now();
                            }
                            inside.store(false, Ordering::SeqCst);
                            i + 1
                        })
                        .unwrap()
                    })
                })
                .collect();
            callers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        results.sort_unstable();
        assert_eq!(results, (1..=8).collect::<Vec<_>>());
        assert!(!overlapped.load(Ordering::SeqCst));
    }

    /// A server that crashes inside a call has applied it and loses the
    /// reply; the caller queued behind it is dropped without running.
    #[test]
    fn a_call_crashing_its_node_loses_the_reply_and_drops_the_queue() {
        let c = Cluster::new();
        let client_node = c.add_node("client");
        let server_node = c.add_node("server");
        // An armed, empty schedule counts control-plane consultations: the
        // first call crashes its node once the second caller is past its
        // fault point, a reachability load away from queueing on the
        // service mutex. Should the crash win that last step, the second
        // caller is refused one check earlier, with the same answer.
        let sched = FaultScheduler::new(&FaultPlan::new(0), binding(client_node, server_node));
        c.install_faults(sched.clone());
        let running = AtomicBool::new(false);
        let srv = RpcServer::new(c.clone(), server_node, 0u32);
        let cli = srv.client(LatencyModel::ZERO);
        let crashing = |executed: &mut u32, served: &mut Served| {
            running.store(true, Ordering::SeqCst);
            while sched.steps() < 2 {
                std::thread::yield_now();
            }
            for _ in 0..8 {
                std::thread::yield_now();
            }
            c.crash(server_node);
            count(executed, served)
        };
        std::thread::scope(|s| {
            let first = s.spawn(|| cli.call(client_node, crashing));
            while !running.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let second = cli.call(client_node, count);
            assert_eq!(second, Err(SimError::NodeDown(server_node)));
            assert_eq!(first.join().unwrap(), Err(SimError::NodeDown(server_node)));
        });
        c.restart(server_node);
        assert_eq!(executed(&cli, client_node), 1);
        assert_eq!(cli.call(client_node, count), Ok(2));
    }

    #[test]
    fn dropped_server_stops_its_clients_and_frees_the_state() {
        let c = Cluster::new();
        let client_node = c.add_node("client");
        let server_node = c.add_node("server");
        let region = Arc::new(vec![0u8; 1 << 10]);
        let weak = Arc::downgrade(&region);
        let srv = RpcServer::new(c.clone(), server_node, region);
        let cli = srv.client(LatencyModel::ZERO);
        let len = |region: &mut Arc<Vec<u8>>, _: &mut Served| 1 + region.len();
        assert_eq!(cli.call(client_node, len), Ok(1025));
        drop(srv);
        assert_eq!(cli.call(client_node, len), Err(SimError::ServiceStopped));
        assert!(weak.upgrade().is_none(), "a client clone keeps the state");
    }

    #[test]
    fn control_fault_cuts_the_link_of_the_call_that_trips_it() {
        let c = Cluster::new();
        let client_node = c.add_node("client");
        let (srv, server_node) = counting_service(&c);
        let plan = FaultPlan::new(0)
            .push(Trigger::Step(2), FaultAction::PartitionController)
            .push(Trigger::Step(3), FaultAction::HealController);
        c.install_faults(FaultScheduler::new(
            &plan,
            binding(client_node, server_node),
        ));
        let cli = srv.client(LatencyModel::ZERO);
        assert_eq!(cli.call(client_node, count), Ok(1));
        assert_eq!(
            cli.call(client_node, count),
            Err(SimError::Partitioned(client_node, server_node))
        );
        assert_eq!(
            cli.call(client_node, count),
            Ok(2),
            "the cut call never ran"
        );
    }

    /// What a call charges on the clock adds to both legs instead of
    /// overlapping them, priced or waited for.
    #[test]
    fn a_call_that_charges_adds_its_time_to_both_legs() {
        let c = Cluster::new();
        let client_node = c.add_node("client");
        let server_node = c.add_node("server");
        let work = std::time::Duration::from_millis(3);
        let srv = RpcServer::new(c.clone(), server_node, ());
        let charge = |_: &mut (), _: &mut Served| crate::time::delay(work);
        let leg = LatencyModel::new(std::time::Duration::from_millis(2), 0.0);
        let cli = srv.client(leg);
        let at = Instant::now();
        let (_, ready) = cli.call_at(client_node, at, charge).unwrap();
        assert!(ready >= at + 2 * leg.base + work);
        let at = Instant::now();
        cli.call(client_node, charge).unwrap();
        assert!(at.elapsed() >= 2 * leg.base + work);
    }

    /// A serial server: two calls priced at one instant queue in modelled
    /// time, so the second is served once the first is done, and its answer
    /// is back a whole call's time after the first's.
    #[test]
    fn a_call_queued_behind_a_busy_service_waits_out_its_whole_work() {
        let c = Cluster::new();
        let client_node = c.add_node("client");
        let server_node = c.add_node("server");
        let work = Duration::from_millis(9);
        let srv = RpcServer::new(c.clone(), server_node, ());
        let charge = |_: &mut (), _: &mut Served| crate::time::delay(work);
        let leg = LatencyModel::new(Duration::from_millis(4), 0.0);
        let cli = srv.client(leg);
        let at = Instant::now();
        let (_, first) = cli.call_at(client_node, at, charge).unwrap();
        let (_, second) = cli.call_at(client_node, at, charge).unwrap();
        assert!(first >= at + 2 * leg.base + work);
        assert!(second >= first + work, "{:?} apart", second - first);
    }

    /// What a call prices keeps its service busy on the clock, and nobody
    /// sleeps it.
    #[test]
    fn a_priced_call_queues_the_next_one_without_sleeping() {
        let c = Cluster::new();
        let client_node = c.add_node("client");
        let server_node = c.add_node("server");
        let work = Duration::from_secs(5);
        let srv = RpcServer::new(c.clone(), server_node, ());
        let priced = |_: &mut (), served: &mut Served| served.price(work);
        let cli = srv.client(LatencyModel::ZERO);
        let at = Instant::now();
        let (_, first) = cli.call_at(client_node, at, priced).unwrap();
        let (_, second) = cli.call_at(client_node, at, priced).unwrap();
        assert!(first >= at + work && second >= first + work);
        assert!(at.elapsed() < Duration::from_secs(1));
    }

    /// A call is served at its arrival, one leg after the instant it was
    /// issued at, even one ahead of the clock.
    #[test]
    fn a_call_is_served_at_its_arrival() {
        let c = Cluster::new();
        let client_node = c.add_node("client");
        let (srv, _) = echo_service(&c);
        let leg = LatencyModel::new(std::time::Duration::from_millis(2), 0.0);
        let cli = srv.client(leg);
        let at = Instant::now() + std::time::Duration::from_secs(1);
        let (served, ready) = cli.call_at(client_node, at, |_, served| served.at).unwrap();
        assert_eq!(served, at + leg.base);
        assert!(ready >= served + leg.base);
        assert!(ready < served + leg.base + std::time::Duration::from_millis(100));
    }
    /// Records which timers fired, in order.
    fn log_timer(
        c: &Cluster,
        log: &Arc<parking_lot::Mutex<Vec<&'static str>>>,
        name: &'static str,
        period: Duration,
    ) -> crate::TimerGuard {
        let log = Arc::clone(log);
        c.every(period, move |_| log.lock().push(name))
    }

    #[test]
    fn due_timers_fire_in_deadline_order_on_a_top_level_call() {
        let c = Cluster::new();
        let client_node = c.add_node("client");
        let (srv, _) = echo_service(&c);
        let cli = srv.client(LatencyModel::ZERO);
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let start = Instant::now();
        let _slow = log_timer(&c, &log, "slow", Duration::from_secs(20));
        let _fast = log_timer(&c, &log, "fast", Duration::from_secs(10));
        cli.call_at(client_node, start, echo(0)).unwrap();
        assert!(log.lock().is_empty(), "nothing is due yet");
        let at = start + Duration::from_secs(30);
        cli.call_at(client_node, at, echo(0)).unwrap();
        assert_eq!(*log.lock(), ["fast", "slow"]);
        // Each is next due one period after the instant it ran at.
        cli.call_at(client_node, at + Duration::from_secs(15), echo(0))
            .unwrap();
        assert_eq!(*log.lock(), ["fast", "slow", "fast"]);
    }

    #[test]
    fn a_dropped_guard_cancels_its_timer() {
        let c = Cluster::new();
        let client_node = c.add_node("client");
        let (srv, _) = echo_service(&c);
        let cli = srv.client(LatencyModel::ZERO);
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let kept = log_timer(&c, &log, "kept", Duration::from_secs(1));
        drop(log_timer(&c, &log, "dropped", Duration::from_secs(1)));
        let at = Instant::now() + Duration::from_secs(2);
        cli.call_at(client_node, at, echo(0)).unwrap();
        drop(kept);
        cli.call_at(client_node, at + Duration::from_secs(2), echo(0))
            .unwrap();
        assert_eq!(*log.lock(), ["kept"]);
    }

    /// A timer's own RPCs are not top-level: the list is not run again
    /// under it, even at an instant where the timer is due once more.
    #[test]
    fn a_timers_own_rpcs_do_not_reenter_the_list() {
        let c = Cluster::new();
        let client_node = c.add_node("client");
        let (srv, _) = counting_service(&c);
        let cli = srv.client(LatencyModel::ZERO);
        let fired = Arc::new(AtomicU32::new(0));
        let _timer = {
            let (cli, fired) = (cli.clone(), Arc::clone(&fired));
            c.every(Duration::from_secs(1), move |at| {
                fired.fetch_add(1, Ordering::SeqCst);
                cli.call_at(client_node, at + Duration::from_secs(10), count)
                    .unwrap();
            })
        };
        let at = Instant::now() + Duration::from_secs(2);
        cli.call_at(client_node, at, count).unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        let ran = cli.call_at(client_node, at, |executed, _| *executed);
        assert_eq!(ran.unwrap().0, 2, "the timer's call ran");
    }

    /// A call made from inside another call runs no timer, however late
    /// its instant; the next top-level call does.
    #[test]
    fn the_timer_list_never_runs_inside_a_call() {
        let c = Cluster::new();
        let client_node = c.add_node("client");
        let (inner, inner_node) = echo_service(&c);
        let inner_cli = inner.client(LatencyModel::ZERO);
        let outer_node = c.add_node("outer");
        let late = Instant::now() + Duration::from_secs(60);
        let outer = RpcServer::new(c.clone(), outer_node, inner_cli);
        let cli = outer.client(LatencyModel::ZERO);
        let nested = |x: u32| {
            move |inner: &mut RpcClient<()>, _: &mut Served| {
                inner.call_at(inner_node, late, echo(x)).unwrap().0
            }
        };
        let fired = Arc::new(AtomicU32::new(0));
        let _timer = {
            let fired = Arc::clone(&fired);
            c.every(Duration::from_secs(30), move |_| {
                fired.fetch_add(1, Ordering::SeqCst);
            })
        };
        assert_eq!(cli.call(client_node, nested(1)), Ok(2));
        assert_eq!(fired.load(Ordering::SeqCst), 0, "fired inside a call");
        cli.call_at(client_node, late, nested(1)).unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }
}
