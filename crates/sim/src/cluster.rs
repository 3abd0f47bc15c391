//! Simulated cluster: node registry, liveness, crash generations, partitions.
//!
//! A [`Cluster`] is the root object of every simulation. Components (RDMA
//! devices, DFS OSDs, NCL peers, application servers) are bound to a
//! [`NodeId`] at construction and consult the cluster before delivering any
//! message. Failure injection therefore composes across all layers: crashing
//! a node makes its RDMA memory unreachable, its RPC services unresponsive,
//! and — because the crash bumps the node's *generation* — lets long-lived
//! services detect that they must discard volatile state, exactly as a
//! restarted process would have lost it.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use crate::error::SimError;
use crate::fault::{ClusterOp, FaultScheduler, FaultSite, WireFault};

/// Identifier of a simulated node (machine) within a [`Cluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Point-in-time information about a node.
#[derive(Debug, Clone)]
pub struct NodeInfo {
    /// The node's identifier.
    pub id: NodeId,
    /// Human-readable name given at registration.
    pub name: String,
    /// Whether the node is currently up.
    pub alive: bool,
    /// Crash generation: incremented every time the node crashes. A service
    /// thread that observes a generation different from the one it started
    /// with knows its "process" has been killed and must drop all state.
    pub generation: u64,
}

#[derive(Debug)]
struct NodeState {
    name: String,
    alive: bool,
    generation: u64,
}

#[derive(Debug, Default)]
struct ClusterState {
    nodes: Vec<NodeState>,
    /// Symmetric set of partitioned pairs, stored with `a < b`.
    partitions: Vec<(NodeId, NodeId)>,
    /// Pending memory-pressure signals: node → target used percentage.
    /// Posted by fault injection (or an operator), consumed once by the
    /// peer daemon living on the node via [`Cluster::take_pressure`].
    pressure: Vec<(NodeId, u8)>,
}

impl ClusterState {
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`Cluster::add_node`].
    fn node(&self, id: NodeId) -> &NodeState {
        self.nodes
            .get(id.0 as usize)
            .unwrap_or_else(|| panic!("unknown node {id}"))
    }

    fn node_mut(&mut self, id: NodeId) -> &mut NodeState {
        self.nodes
            .get_mut(id.0 as usize)
            .unwrap_or_else(|| panic!("unknown node {id}"))
    }
}

/// The health word: what every message asks of the cluster, answerable
/// with one atomic load while nothing is wrong.
///
/// The low 32 bits hold the node count (for the unknown-node assert), the
/// flags above say which questions need the locked tables. With a flag
/// clear the answer is known without them: every node is up
/// ([`health::DOWN`]), every pair can talk ([`health::PARTITIONED`]), no
/// schedule wants consulting ([`health::ARMED`]), every generation is 0
/// ([`health::CRASHED`]). With it set the caller takes the lock, as every
/// caller did before the word existed.
///
/// Writers recompute the word from the tables while they still hold the
/// table's write lock, so it never calls a disturbed cluster healthy: a
/// reader that loads the word after `crash` returned sees `DOWN`, and one
/// that raced the crash is ordered before it, as a reader holding the read
/// lock would have been.
mod health {
    pub const NODES: u64 = u32::MAX as u64;
    /// Some node is down right now.
    pub const DOWN: u64 = 1 << 32;
    /// Some pair is partitioned right now.
    pub const PARTITIONED: u64 = 1 << 33;
    /// A fault schedule is armed. Owned by the `faults` lock; the other
    /// flags and the count by the `state` lock.
    pub const ARMED: u64 = 1 << 34;
    /// Some node has crashed at least once (sticky): generations differ.
    pub const CRASHED: u64 = 1 << 35;
}

#[derive(Debug, Default)]
struct Shared {
    state: RwLock<ClusterState>,
    /// Optional armed fault schedule; kept outside `state` so consulting it
    /// never nests inside the node-table lock.
    faults: RwLock<Option<FaultScheduler>>,
    health: AtomicU64,
    timers: Timers,
}

/// A periodic callback on the timer list, dropped once its guard is.
struct Timer {
    due: Instant,
    period: Duration,
    guard: Weak<()>,
    fire: Box<dyn FnMut(Instant) + Send>,
}

/// The timer list and its earliest deadline in nanoseconds past `origin`,
/// set by the first registration: a caller with nothing due pays two
/// loads and no lock.
#[derive(Default)]
struct Timers {
    origin: OnceLock<Instant>,
    earliest: AtomicU64,
    list: Mutex<Vec<Timer>>,
}

impl fmt::Debug for Timers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Timers").finish_non_exhaustive()
    }
}

/// A registration on the cluster's timer list ([`Cluster::every`]);
/// dropping it cancels the timer.
#[must_use = "dropping the guard cancels the timer"]
pub struct TimerGuard {
    _alive: Arc<()>,
}

/// A registry of simulated nodes with injectable crashes and partitions.
///
/// Cloning a `Cluster` is cheap (it is an `Arc` handle); all clones observe
/// the same state.
///
/// # Examples
///
/// ```
/// let cluster = sim::Cluster::new();
/// let a = cluster.add_node("app-server");
/// let b = cluster.add_node("peer-1");
/// assert!(cluster.can_reach(a, b).is_ok());
/// cluster.crash(b);
/// assert!(cluster.can_reach(a, b).is_err());
/// cluster.restart(b);
/// assert!(cluster.can_reach(a, b).is_ok());
/// assert_eq!(cluster.generation(b), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Cluster {
    shared: Arc<Shared>,
}

impl Cluster {
    /// Creates an empty cluster.
    pub fn new() -> Self {
        Cluster::default()
    }

    /// Loads the health word and asserts that `ids` are registered nodes.
    fn health(&self, ids: &[NodeId]) -> u64 {
        let health = self.shared.health.load(Ordering::SeqCst);
        for id in ids {
            assert!(
                u64::from(id.0) < health & health::NODES,
                "unknown node {id}"
            );
        }
        health
    }

    /// Runs `change` on the tables under the write lock and republishes the
    /// health word from the result before the lock is released.
    fn mutate<R>(&self, change: impl FnOnce(&mut ClusterState) -> R) -> R {
        let mut st = self.shared.state.write();
        let out = change(&mut st);
        let mut word = st.nodes.len() as u64;
        if st.nodes.iter().any(|n| !n.alive) {
            word |= health::DOWN;
        }
        if !st.partitions.is_empty() {
            word |= health::PARTITIONED;
        }
        if st.nodes.iter().any(|n| n.generation > 0) {
            word |= health::CRASHED;
        }
        let _ = self
            .shared
            .health
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |old| {
                Some((old & health::ARMED) | word)
            });
        out
    }

    /// Registers a new node and returns its id. Nodes start alive.
    pub fn add_node(&self, name: impl Into<String>) -> NodeId {
        self.mutate(|st| {
            let id = NodeId(st.nodes.len() as u32);
            st.nodes.push(NodeState {
                name: name.into(),
                alive: true,
                generation: 0,
            });
            id
        })
    }

    /// Number of registered nodes.
    pub fn len(&self) -> usize {
        (self.health(&[]) & health::NODES) as usize
    }

    /// True when no nodes are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns a snapshot of the node's state.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`Cluster::add_node`].
    pub fn info(&self, id: NodeId) -> NodeInfo {
        let st = self.shared.state.read();
        let n = st.node(id);
        NodeInfo {
            id,
            name: n.name.clone(),
            alive: n.alive,
            generation: n.generation,
        }
    }

    /// Whether the node is currently up.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.health(&[id]) & health::DOWN == 0 || self.shared.state.read().node(id).alive
    }

    /// The node's crash generation (0 until the first crash).
    pub fn generation(&self, id: NodeId) -> u64 {
        if self.health(&[id]) & health::CRASHED == 0 {
            return 0;
        }
        self.shared.state.read().node(id).generation
    }

    /// Crashes a node: it loses volatile state (its generation is bumped) and
    /// becomes unreachable until [`Cluster::restart`]. Crashing an already
    /// crashed node is a no-op.
    pub fn crash(&self, id: NodeId) {
        self.mutate(|st| {
            let n = st.node_mut(id);
            if n.alive {
                n.alive = false;
                n.generation += 1;
            }
        });
    }

    /// Restarts a crashed node. State lost at crash time stays lost — the
    /// generation keeps its post-crash value so services know to reinitialise.
    pub fn restart(&self, id: NodeId) {
        self.mutate(|st| st.node_mut(id).alive = true);
    }

    fn pair(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a.0 <= b.0 {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Partitions two nodes from each other: messages between them are
    /// dropped, but neither loses state (the paper's "lagging peer" case).
    pub fn partition(&self, a: NodeId, b: NodeId) {
        let key = Self::pair(a, b);
        self.mutate(|st| {
            st.node(a);
            st.node(b);
            if !st.partitions.contains(&key) {
                st.partitions.push(key);
            }
        });
    }

    /// Heals a partition between two nodes (no-op if none exists).
    pub fn heal(&self, a: NodeId, b: NodeId) {
        let key = Self::pair(a, b);
        self.mutate(|st| st.partitions.retain(|&p| p != key));
    }

    /// Checks whether `from` can currently exchange messages with `to`.
    ///
    /// Returns the specific failure so callers can distinguish a crashed
    /// remote (state lost) from a partition (state retained but unreachable).
    pub fn can_reach(&self, from: NodeId, to: NodeId) -> Result<(), SimError> {
        if self.health(&[from, to]) & (health::DOWN | health::PARTITIONED) == 0 {
            return Ok(());
        }
        let st = self.shared.state.read();
        if !st.node(from).alive {
            return Err(SimError::NodeDown(from));
        }
        if !st.node(to).alive {
            return Err(SimError::NodeDown(to));
        }
        if st.partitions.contains(&Self::pair(from, to)) {
            return Err(SimError::Partitioned(from, to));
        }
        Ok(())
    }

    /// Posts a memory-pressure signal for `id`: the peer daemon on that
    /// node must shrink its used memory to at most `pct` percent of its
    /// budget. Repeated posts before consumption keep the lowest target.
    pub fn set_pressure(&self, id: NodeId, pct: u8) {
        let mut st = self.shared.state.write();
        st.node(id);
        match st.pressure.iter_mut().find(|(n, _)| *n == id) {
            Some(entry) => entry.1 = entry.1.min(pct),
            None => st.pressure.push((id, pct)),
        }
    }

    /// Consumes the pending pressure signal for `id`, if any.
    pub fn take_pressure(&self, id: NodeId) -> Option<u8> {
        let mut st = self.shared.state.write();
        st.node(id);
        let pos = st.pressure.iter().position(|(n, _)| *n == id)?;
        Some(st.pressure.swap_remove(pos).1)
    }

    /// Arms a fault schedule. Every subsequent [`Cluster::fault_point`]
    /// consultation advances it; replaces any schedule already armed.
    pub fn install_faults(&self, scheduler: FaultScheduler) {
        let mut faults = self.shared.faults.write();
        *faults = Some(scheduler);
        self.shared.health.fetch_or(health::ARMED, Ordering::SeqCst);
    }

    /// Disarms the fault schedule (subsequent consultations are free).
    pub fn clear_faults(&self) {
        let mut faults = self.shared.faults.write();
        *faults = None;
        self.shared
            .health
            .fetch_and(!health::ARMED, Ordering::SeqCst);
    }

    /// The armed fault schedule, if any.
    pub fn faults(&self) -> Option<FaultScheduler> {
        self.shared.faults.read().clone()
    }

    /// Consults the armed fault schedule (if any) for the message
    /// `from → to` at decision point `site`: fires due events — applying
    /// their crashes/partitions to this cluster — and returns the wire
    /// verdict for the message itself. With no schedule armed this is one
    /// load of the health word.
    pub fn fault_point(&self, site: FaultSite, from: NodeId, to: NodeId) -> WireFault {
        if self.health(&[]) & health::ARMED == 0 {
            return WireFault::None;
        }
        let Some(scheduler) = self.faults() else {
            return WireFault::None;
        };
        let (ops, verdict) = scheduler.advance(site, from, to);
        // The scheduler lock is released; cluster mutations are safe here.
        for op in ops {
            match op {
                ClusterOp::Crash(n) => self.crash(n),
                ClusterOp::Restart(n) => self.restart(n),
                ClusterOp::Partition(a, b) => self.partition(a, b),
                ClusterOp::Heal(a, b) => self.heal(a, b),
                ClusterOp::Pressure(n, pct) => self.set_pressure(n, pct),
            }
        }
        verdict
    }

    /// Registers `fire` to run every `period` (non-zero), first one
    /// `period` from now. A timer owns no thread: the first top-level
    /// [`crate::RpcClient::call_at`] whose instant has reached its deadline
    /// runs it first, passing that instant, and it is next due one `period`
    /// later. Due timers run in deadline order, on one thread at a time,
    /// never inside an RPC handler and never re-entrantly.
    pub fn every(
        &self,
        period: Duration,
        fire: impl FnMut(Instant) + Send + 'static,
    ) -> TimerGuard {
        assert!(!period.is_zero(), "a timer needs a period");
        let guard = Arc::new(());
        let timer = Timer {
            due: crate::time::now() + period,
            period,
            guard: Arc::downgrade(&guard),
            fire: Box::new(fire),
        };
        let mut list = self.shared.timers.list.lock();
        list.push(timer);
        self.publish_earliest(&list);
        TimerGuard { _alive: guard }
    }

    /// Runs every live timer due at `at`, in deadline order, unless none is
    /// or another thread — or this one, from inside a timer — is running
    /// the list.
    pub(crate) fn run_timers(&self, at: Instant) {
        let timers = &self.shared.timers;
        let Some(origin) = timers.origin.get() else {
            return;
        };
        if (at.saturating_duration_since(*origin).as_nanos() as u64)
            < timers.earliest.load(Ordering::SeqCst)
        {
            return;
        }
        let Some(mut list) = timers.list.try_lock() else {
            return;
        };
        list.retain(|t| t.guard.strong_count() > 0);
        list.sort_by_key(|t| t.due);
        for timer in list.iter_mut().filter(|t| t.due <= at) {
            timer.due = at + timer.period;
            (timer.fire)(at);
        }
        self.publish_earliest(&list);
    }

    /// Publishes the earliest deadline in `list`, the locked timer list.
    fn publish_earliest(&self, list: &[Timer]) {
        let timers = &self.shared.timers;
        let origin = *timers.origin.get_or_init(|| list[0].due);
        let due = list.iter().map(|t| t.due.saturating_duration_since(origin));
        let earliest = due.min().map_or(u64::MAX, |d| d.as_nanos() as u64);
        timers.earliest.store(earliest, Ordering::SeqCst);
    }

    /// Lists all registered nodes.
    pub fn nodes(&self) -> Vec<NodeInfo> {
        let st = self.shared.state.read();
        st.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| NodeInfo {
                id: NodeId(i as u32),
                name: n.name.clone(),
                alive: n.alive,
                generation: n.generation,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_start_alive_with_generation_zero() {
        let c = Cluster::new();
        let n = c.add_node("a");
        assert!(c.is_alive(n));
        assert_eq!(c.generation(n), 0);
        assert_eq!(c.info(n).name, "a");
    }

    #[test]
    fn crash_bumps_generation_once() {
        let c = Cluster::new();
        let n = c.add_node("a");
        c.crash(n);
        c.crash(n); // Idempotent while down.
        assert!(!c.is_alive(n));
        assert_eq!(c.generation(n), 1);
        c.restart(n);
        assert_eq!(c.generation(n), 1);
        c.crash(n);
        assert_eq!(c.generation(n), 2);
    }

    #[test]
    fn reachability_respects_crashes_both_ways() {
        let c = Cluster::new();
        let a = c.add_node("a");
        let b = c.add_node("b");
        assert!(c.can_reach(a, b).is_ok());
        c.crash(b);
        assert_eq!(c.can_reach(a, b), Err(SimError::NodeDown(b)));
        assert_eq!(c.can_reach(b, a), Err(SimError::NodeDown(b)));
        c.restart(b);
        assert!(c.can_reach(a, b).is_ok());
    }

    #[test]
    fn partitions_are_symmetric_and_healable() {
        let c = Cluster::new();
        let a = c.add_node("a");
        let b = c.add_node("b");
        let x = c.add_node("x");
        c.partition(b, a);
        assert!(matches!(
            c.can_reach(a, b),
            Err(SimError::Partitioned(_, _))
        ));
        assert!(matches!(
            c.can_reach(b, a),
            Err(SimError::Partitioned(_, _))
        ));
        // Unrelated nodes unaffected.
        assert!(c.can_reach(a, x).is_ok());
        c.heal(a, b);
        assert!(c.can_reach(a, b).is_ok());
    }

    #[test]
    fn duplicate_partition_entries_are_collapsed() {
        let c = Cluster::new();
        let a = c.add_node("a");
        let b = c.add_node("b");
        c.partition(a, b);
        c.partition(b, a);
        c.heal(a, b);
        assert!(c.can_reach(a, b).is_ok());
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn unknown_node_panics() {
        let c = Cluster::new();
        c.is_alive(NodeId(3));
    }

    fn flags(c: &Cluster) -> u64 {
        c.shared.health.load(Ordering::SeqCst) & !health::NODES
    }

    #[test]
    fn health_word_follows_every_disturbance_and_its_repair() {
        use crate::fault::{Binding, FaultPlan, FaultScheduler};
        let c = Cluster::new();
        let a = c.add_node("a");
        let b = c.add_node("b");
        assert_eq!(
            c.shared.health.load(Ordering::SeqCst),
            2,
            "two nodes, no flag"
        );

        c.crash(b);
        assert_eq!(flags(&c), health::DOWN | health::CRASHED);
        assert_eq!(c.can_reach(a, b), Err(SimError::NodeDown(b)));
        c.restart(b);
        assert_eq!(
            flags(&c),
            health::CRASHED,
            "up again; generations stay bumped"
        );
        assert!(c.can_reach(a, b).is_ok());
        assert_eq!((c.generation(a), c.generation(b)), (0, 1));

        c.partition(a, b);
        assert_eq!(flags(&c), health::PARTITIONED | health::CRASHED);
        assert!(c.is_alive(b), "a partition takes nobody down");
        assert_eq!(c.can_reach(b, a), Err(SimError::Partitioned(b, a)));
        c.heal(a, b);
        assert_eq!(flags(&c), health::CRASHED);

        let binding = Binding {
            peers: vec![b],
            controller: a,
            app: a,
        };
        c.install_faults(FaultScheduler::new(&FaultPlan::new(1), binding));
        assert_eq!(flags(&c), health::ARMED | health::CRASHED);
        c.crash(a);
        assert_eq!(
            flags(&c),
            health::ARMED | health::DOWN | health::CRASHED,
            "a table change keeps the schedule's flag"
        );
        c.clear_faults();
        assert_eq!(flags(&c), health::DOWN | health::CRASHED);
        c.add_node("late");
        assert_eq!(c.len(), 3);
        assert_eq!(flags(&c), health::DOWN | health::CRASHED);
    }

    #[test]
    fn a_crash_is_seen_by_the_next_check_on_another_thread() {
        // Hand-offs, not sleeps, order the two threads: the checker's
        // second look happens after `crash` returned and must already fail.
        let c = Cluster::new();
        let a = c.add_node("a");
        let b = c.add_node("b");
        let (to_checker, from_main) = std::sync::mpsc::channel();
        let (to_main, from_checker) = std::sync::mpsc::channel();
        let checker = {
            let c = c.clone();
            std::thread::spawn(move || {
                let before = c.can_reach(a, b);
                to_main.send(()).unwrap();
                from_main.recv().unwrap();
                (before, c.can_reach(a, b), c.is_alive(b), c.generation(b))
            })
        };
        from_checker.recv().unwrap();
        c.crash(b);
        to_checker.send(()).unwrap();
        let (before, after, alive, generation) = checker.join().unwrap();
        assert!(before.is_ok());
        assert_eq!(after, Err(SimError::NodeDown(b)));
        assert!(!alive);
        assert_eq!(generation, 1);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn unknown_node_panics_on_the_locked_path_too() {
        let c = Cluster::new();
        let a = c.add_node("a");
        c.crash(a);
        c.is_alive(NodeId(3));
    }

    #[test]
    fn fault_point_applies_scheduled_crashes() {
        use crate::fault::{Binding, FaultAction, FaultPlan, FaultScheduler, Trigger};
        let c = Cluster::new();
        let peer = c.add_node("peer");
        let ctrl = c.add_node("ctrl");
        let app = c.add_node("app");
        let plan = FaultPlan::new(7).push(Trigger::Step(1), FaultAction::CrashPeer(0));
        let binding = Binding {
            peers: vec![peer],
            controller: ctrl,
            app,
        };
        c.install_faults(FaultScheduler::new(&plan, binding));
        assert_eq!(c.fault_point(FaultSite::Wire, app, peer), WireFault::None);
        assert!(!c.is_alive(peer), "scheduled crash must have been applied");
        c.clear_faults();
        assert!(c.faults().is_none());
        c.fault_point(FaultSite::Wire, app, peer); // Disarmed: free no-op.
    }
}
