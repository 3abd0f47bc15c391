//! Deterministic fault injection: seeded schedules of crashes, partitions
//! and wire misbehaviour, consulted by the RDMA model and the control plane
//! at their decision points.
//!
//! A [`FaultPlan`] is a pure description — a list of `(Trigger, FaultAction)`
//! pairs derived entirely from a `u64` seed (or built explicitly). Actions
//! name *roles* (peer index `k`, "the controller", "the app") rather than
//! node ids, so one plan can be replayed against any topology; a [`Binding`]
//! resolves roles to [`NodeId`]s when the plan is armed.
//!
//! A [`FaultScheduler`] is the armed plan: every consultation through
//! [`Cluster::fault_point`](crate::Cluster::fault_point) advances a step
//! counter, fires any due events (crashing nodes, cutting links, queueing
//! wire effects) and returns the [`WireFault`] verdict for the work request
//! at hand. Because the schedule is a pure function of the seed, printing
//! `FAULT_SEED=<seed>` on a test failure is enough to reproduce the exact
//! same injection sequence. (The *interleaving* of fault firing with
//! application threads still depends on the OS scheduler — which is why the
//! chaos assertions are safety properties, valid under every interleaving,
//! not exact-trace comparisons.)

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::cluster::NodeId;
use crate::rng::Xoshiro256StarStar;

/// Which decision point is consulting the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// An RDMA work request about to traverse the wire model.
    Wire,
    /// A doorbell ring (work-request submission) on the requester NIC.
    Doorbell,
    /// A control-plane RPC (controller, registry, DFS metadata).
    Control,
}

/// Verdict for one work request at a wire decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Proceed normally.
    None,
    /// Stall this work request (or doorbell) for the given extra time.
    Delay(Duration),
    /// Apply the work request but swallow its completion — the classic
    /// "write landed, ack lost" case the prefix-acknowledgement rule must
    /// tolerate.
    DropCompletion,
    /// Deliver the completion twice; absorption must be idempotent.
    DuplicateCompletion,
}

/// When a planned fault fires: at the Nth consultation overall, the
/// fail-stop adversary between operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fire at (or after) the given global consultation count.
    Step(u64),
}

/// A role-addressed fault. Peer roles are indices into
/// [`Binding::peers`]; the controller/app roles are single nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Crash peer role `k` (volatile state lost, generation bumped).
    CrashPeer(usize),
    /// Restart peer role `k`.
    RestartPeer(usize),
    /// Cut the app ↔ controller link (peers stay reachable).
    PartitionController,
    /// Heal the app ↔ controller link.
    HealController,
    /// Gray peer: the next `wrs` work requests towards peer role `k` each
    /// take `per_wr_us` extra microseconds.
    SlowPeer {
        peer: usize,
        per_wr_us: u64,
        wrs: u32,
    },
    /// Delay the next single work request towards peer role `k`.
    DelayWr { peer: usize, by_us: u64 },
    /// Swallow the completion of the next work request towards peer `k`.
    DropWr { peer: usize },
    /// Duplicate the completion of the next work request towards peer `k`.
    DupWr { peer: usize },
    /// Stall the next doorbell ring towards peer role `k`.
    StallDoorbell { peer: usize, by_us: u64 },
    /// Put peer role `k` under memory pressure: the peer daemon must shrink
    /// its used memory to at most `pct` percent of its budget, voluntarily
    /// revoking its coldest regions to get there.
    MemPressure { peer: usize, pct: u8 },
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAction::CrashPeer(k) => write!(f, "crash-peer#{k}"),
            FaultAction::RestartPeer(k) => write!(f, "restart-peer#{k}"),
            FaultAction::PartitionController => write!(f, "partition-controller"),
            FaultAction::HealController => write!(f, "heal-controller"),
            FaultAction::SlowPeer {
                peer,
                per_wr_us,
                wrs,
            } => {
                write!(f, "slow-peer#{peer} +{per_wr_us}us x{wrs}")
            }
            FaultAction::DelayWr { peer, by_us } => write!(f, "delay-wr peer#{peer} +{by_us}us"),
            FaultAction::DropWr { peer } => write!(f, "drop-wr peer#{peer}"),
            FaultAction::DupWr { peer } => write!(f, "dup-wr peer#{peer}"),
            FaultAction::StallDoorbell { peer, by_us } => {
                write!(f, "stall-doorbell peer#{peer} +{by_us}us")
            }
            FaultAction::MemPressure { peer, pct } => {
                write!(f, "mem-pressure peer#{peer} to {pct}%")
            }
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When it fires.
    pub trigger: Trigger,
    /// What happens.
    pub action: FaultAction,
}

/// Knobs for [`FaultPlan::random`].
#[derive(Debug, Clone)]
pub struct PlanParams {
    /// Number of peer roles actions may target.
    pub peers: usize,
    /// Number of fault events to schedule.
    pub events: usize,
    /// Step horizon: triggers are drawn from `[1, horizon_steps]`.
    pub horizon_steps: u64,
    /// Never leave more than this many peers crashed at once (the `f`
    /// budget of the deployment under test).
    pub max_concurrent_crashed: usize,
    /// Whether app ↔ controller partitions may be scheduled.
    pub allow_controller_partition: bool,
    /// A crash's matching restart fires this many steps later.
    pub restart_after_steps: u64,
    /// Whether memory-pressure events (peer revocation storms) may be
    /// scheduled. Defaults to `false` in [`PlanParams::light`]; when off,
    /// the random draw sequence is identical to plans generated before the
    /// knob existed, so historical seeds keep replaying byte-for-byte.
    pub pressure_events: bool,
}

impl PlanParams {
    /// A light schedule suited to functional chaos runs: at most `f` peers
    /// down concurrently, controller partitions allowed.
    pub fn light(peers: usize, f: usize) -> Self {
        PlanParams {
            peers,
            events: 8,
            horizon_steps: 600,
            max_concurrent_crashed: f,
            allow_controller_partition: true,
            restart_after_steps: 150,
            pressure_events: false,
        }
    }

    /// A multi-tenant schedule: [`PlanParams::light`] plus memory-pressure
    /// events, so shared peers revoke regions while the fleet is writing.
    pub fn multi_tenant(peers: usize, f: usize) -> Self {
        PlanParams {
            events: 12,
            pressure_events: true,
            ..Self::light(peers, f)
        }
    }
}

/// A seeded, replayable schedule of faults.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// The seed the schedule was derived from (0 for hand-built plans).
    pub seed: u64,
    /// The scheduled faults. Order is irrelevant; triggers decide firing.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan to extend with [`FaultPlan::push`].
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Appends one event (builder style).
    pub fn push(mut self, trigger: Trigger, action: FaultAction) -> Self {
        self.events.push(FaultEvent { trigger, action });
        self
    }

    /// Derives a schedule from `seed` alone. The same `(seed, params)` pair
    /// always yields the same plan. Crash events respect
    /// `params.max_concurrent_crashed` (every crash schedules a matching
    /// restart, and no crash is emitted while the budget is exhausted), so a
    /// plan from this constructor never exceeds the `f` failure budget.
    pub fn random(seed: u64, params: &PlanParams) -> Self {
        assert!(params.peers > 0, "need at least one peer role");
        let mut rng = Xoshiro256StarStar::new(seed ^ 0x5eed_fa17);
        let mut events = Vec::with_capacity(params.events);
        // Crash budget tracking: (peer role, restart step) for in-flight
        // crashes, swept as the step cursor advances.
        let mut down: Vec<(usize, u64)> = Vec::new();
        let mut partitioned = false;
        let mut step = 0u64;
        while events.len() < params.events {
            step += 1 + rng.next_below(params.horizon_steps / (params.events as u64 + 1) + 1);
            down.retain(|&(_, until)| until > step);
            let peer = rng.next_below(params.peers as u64) as usize;
            let kind = rng.next_below(8);
            let action = match kind {
                0 if down.len() < params.max_concurrent_crashed
                    && !down.iter().any(|&(p, _)| p == peer) =>
                {
                    let restart_at = step + params.restart_after_steps;
                    down.push((peer, restart_at));
                    events.push(FaultEvent {
                        trigger: Trigger::Step(step),
                        action: FaultAction::CrashPeer(peer),
                    });
                    events.push(FaultEvent {
                        trigger: Trigger::Step(restart_at),
                        action: FaultAction::RestartPeer(peer),
                    });
                    continue;
                }
                // At most one partition window per plan; the heal is
                // scheduled with it so the link never stays cut.
                1 if params.allow_controller_partition && !partitioned => {
                    partitioned = true;
                    events.push(FaultEvent {
                        trigger: Trigger::Step(step),
                        action: FaultAction::PartitionController,
                    });
                    events.push(FaultEvent {
                        trigger: Trigger::Step(step + params.restart_after_steps),
                        action: FaultAction::HealController,
                    });
                    continue;
                }
                2 => FaultAction::SlowPeer {
                    peer,
                    per_wr_us: 50 + rng.next_below(400),
                    wrs: 4 + rng.next_below(12) as u32,
                },
                3 => FaultAction::DropWr { peer },
                4 => FaultAction::DupWr { peer },
                5 => FaultAction::StallDoorbell {
                    peer,
                    by_us: 100 + rng.next_below(2_000),
                },
                // Guarded on the opt-in so that plans generated with the
                // knob off consume the same rng draws as before it existed.
                6 if params.pressure_events => FaultAction::MemPressure {
                    peer,
                    pct: (20 + rng.next_below(60)) as u8,
                },
                _ => FaultAction::DelayWr {
                    peer,
                    by_us: 50 + rng.next_below(1_000),
                },
            };
            events.push(FaultEvent {
                trigger: Trigger::Step(step),
                action,
            });
        }
        events.truncate(params.events);
        FaultPlan { seed, events }
    }

    /// Human-readable schedule dump, one event per line.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "fault plan seed={} ({} events)\n",
            self.seed,
            self.events.len()
        );
        for ev in &self.events {
            let Trigger::Step(s) = ev.trigger;
            out.push_str(&format!("  @step {s:>6}: {}\n", ev.action));
        }
        out
    }
}

/// Resolves plan roles to concrete nodes.
#[derive(Debug, Clone)]
pub struct Binding {
    /// Peer role `k` lives on `peers[k]`.
    pub peers: Vec<NodeId>,
    /// The controller node (partition target).
    pub controller: NodeId,
    /// The application node (partition source).
    pub app: NodeId,
}

/// A cluster mutation a fired fault requires. Returned by
/// [`FaultScheduler::advance`] and applied by the caller *after* the
/// scheduler lock is released, so fault evaluation never nests inside the
/// cluster state lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterOp {
    /// Crash this node.
    Crash(NodeId),
    /// Restart this node.
    Restart(NodeId),
    /// Cut the link between the pair.
    Partition(NodeId, NodeId),
    /// Restore the link between the pair.
    Heal(NodeId, NodeId),
    /// Put this node under memory pressure: any peer daemon living on it
    /// must shrink its used memory to at most the given percentage of its
    /// budget (consumed via [`Cluster::take_pressure`](crate::Cluster)).
    Pressure(NodeId, u8),
}

#[derive(Debug)]
struct SchedulerState {
    /// `(event, fired)` — events fire exactly once.
    events: Vec<(FaultEvent, bool)>,
    binding: Binding,
    /// Global consultation counter (drives `Trigger::Step`).
    step: u64,
    /// Gray peers: per-destination `(extra per WR, WRs remaining)`.
    slow: HashMap<NodeId, (Duration, u32)>,
    /// One-shot per-destination wire effects, consumed FIFO.
    delay_once: HashMap<NodeId, Vec<Duration>>,
    drop_once: HashMap<NodeId, u32>,
    dup_once: HashMap<NodeId, u32>,
    stall_doorbell: HashMap<NodeId, Vec<Duration>>,
    /// Injection log for failure reports.
    log: Vec<String>,
    injected: u64,
}

/// An armed [`FaultPlan`]: shared, thread-safe, consulted via
/// [`Cluster::fault_point`](crate::Cluster::fault_point).
#[derive(Debug, Clone)]
pub struct FaultScheduler {
    inner: Arc<Mutex<SchedulerState>>,
}

impl FaultScheduler {
    /// Arms `plan` against a concrete topology.
    ///
    /// # Panics
    ///
    /// Panics if an action names a peer role outside `binding.peers`.
    pub fn new(plan: &FaultPlan, binding: Binding) -> Self {
        for ev in &plan.events {
            let role = match ev.action {
                FaultAction::CrashPeer(k)
                | FaultAction::RestartPeer(k)
                | FaultAction::SlowPeer { peer: k, .. }
                | FaultAction::DelayWr { peer: k, .. }
                | FaultAction::DropWr { peer: k }
                | FaultAction::DupWr { peer: k }
                | FaultAction::StallDoorbell { peer: k, .. }
                | FaultAction::MemPressure { peer: k, .. } => Some(k),
                FaultAction::PartitionController | FaultAction::HealController => None,
            };
            if let Some(k) = role {
                assert!(
                    k < binding.peers.len(),
                    "plan names peer role {k} but binding has {}",
                    binding.peers.len()
                );
            }
        }
        FaultScheduler {
            inner: Arc::new(Mutex::new(SchedulerState {
                events: plan.events.iter().map(|&e| (e, false)).collect(),
                binding,
                step: 0,
                slow: HashMap::new(),
                delay_once: HashMap::new(),
                drop_once: HashMap::new(),
                dup_once: HashMap::new(),
                stall_doorbell: HashMap::new(),
                log: Vec::new(),
                injected: 0,
            })),
        }
    }

    /// One consultation: advances the step counter, fires due events and
    /// returns (cluster mutations to apply, verdict for this work request).
    ///
    /// `from`/`to` identify the message under consideration; wire effects
    /// keyed to a peer apply to traffic *towards* that peer, from any source
    /// (replication and recovery QPs alike).
    pub fn advance(
        &self,
        site: FaultSite,
        _from: NodeId,
        to: NodeId,
    ) -> (Vec<ClusterOp>, WireFault) {
        let mut st = self.inner.lock();
        st.step += 1;
        let step = st.step;

        let mut ops = Vec::new();
        for i in 0..st.events.len() {
            let (ev, fired) = st.events[i];
            if fired {
                continue;
            }
            let Trigger::Step(s) = ev.trigger;
            if step < s {
                continue;
            }
            st.events[i].1 = true;
            st.injected += 1;
            let line = format!("step {step}: {}", ev.action);
            st.log.push(line);
            let app = st.binding.app;
            let controller = st.binding.controller;
            match ev.action {
                FaultAction::CrashPeer(k) => ops.push(ClusterOp::Crash(st.binding.peers[k])),
                FaultAction::RestartPeer(k) => ops.push(ClusterOp::Restart(st.binding.peers[k])),
                FaultAction::PartitionController => ops.push(ClusterOp::Partition(app, controller)),
                FaultAction::HealController => ops.push(ClusterOp::Heal(app, controller)),
                FaultAction::SlowPeer {
                    peer,
                    per_wr_us,
                    wrs,
                } => {
                    let node = st.binding.peers[peer];
                    st.slow
                        .insert(node, (Duration::from_micros(per_wr_us), wrs));
                }
                FaultAction::DelayWr { peer, by_us } => {
                    let node = st.binding.peers[peer];
                    st.delay_once
                        .entry(node)
                        .or_default()
                        .push(Duration::from_micros(by_us));
                }
                FaultAction::DropWr { peer } => {
                    let node = st.binding.peers[peer];
                    *st.drop_once.entry(node).or_default() += 1;
                }
                FaultAction::DupWr { peer } => {
                    let node = st.binding.peers[peer];
                    *st.dup_once.entry(node).or_default() += 1;
                }
                FaultAction::StallDoorbell { peer, by_us } => {
                    let node = st.binding.peers[peer];
                    st.stall_doorbell
                        .entry(node)
                        .or_default()
                        .push(Duration::from_micros(by_us));
                }
                FaultAction::MemPressure { peer, pct } => {
                    ops.push(ClusterOp::Pressure(st.binding.peers[peer], pct));
                }
            }
        }

        // Resolve the verdict for this message.
        let verdict = match site {
            FaultSite::Wire => {
                if let Some(count) = st.drop_once.get_mut(&to) {
                    *count -= 1;
                    if *count == 0 {
                        st.drop_once.remove(&to);
                    }
                    WireFault::DropCompletion
                } else if let Some(count) = st.dup_once.get_mut(&to) {
                    *count -= 1;
                    if *count == 0 {
                        st.dup_once.remove(&to);
                    }
                    WireFault::DuplicateCompletion
                } else if let Some(queue) = st.delay_once.get_mut(&to) {
                    let d = queue.remove(0);
                    if queue.is_empty() {
                        st.delay_once.remove(&to);
                    }
                    WireFault::Delay(d)
                } else if let Some((per_wr, left)) = st.slow.get_mut(&to) {
                    let d = *per_wr;
                    *left -= 1;
                    if *left == 0 {
                        st.slow.remove(&to);
                    }
                    WireFault::Delay(d)
                } else {
                    WireFault::None
                }
            }
            FaultSite::Doorbell => {
                if let Some(queue) = st.stall_doorbell.get_mut(&to) {
                    let d = queue.remove(0);
                    if queue.is_empty() {
                        st.stall_doorbell.remove(&to);
                    }
                    WireFault::Delay(d)
                } else {
                    WireFault::None
                }
            }
            // Control RPCs are only perturbed through partitions, which the
            // reachability check realises; no per-message verdict.
            FaultSite::Control => WireFault::None,
        };
        if verdict != WireFault::None {
            st.injected += 1;
            let line = format!("step {step}: wire {verdict:?} -> {to}");
            st.log.push(line);
        }
        (ops, verdict)
    }

    /// Number of consultations so far.
    pub fn steps(&self) -> u64 {
        self.inner.lock().step
    }

    /// Number of faults actually injected (fired events + wire verdicts).
    pub fn injected(&self) -> u64 {
        self.inner.lock().injected
    }

    /// True once every scheduled event has fired.
    pub fn exhausted(&self) -> bool {
        self.inner.lock().events.iter().all(|&(_, fired)| fired)
    }

    /// The injection log, one line per fired fault / wire verdict.
    pub fn log(&self) -> Vec<String> {
        self.inner.lock().log.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn binding(peers: usize) -> Binding {
        Binding {
            peers: (0..peers).map(|i| NodeId(i as u32)).collect(),
            controller: NodeId(peers as u32),
            app: NodeId(peers as u32 + 1),
        }
    }

    #[test]
    fn random_plans_are_reproducible_from_the_seed() {
        let params = PlanParams::light(5, 1);
        let a = FaultPlan::random(0xDEAD_BEEF, &params);
        let b = FaultPlan::random(0xDEAD_BEEF, &params);
        assert_eq!(a.events, b.events);
        let c = FaultPlan::random(0xDEAD_BEF0, &params);
        assert_ne!(a.events, c.events, "distinct seeds should differ");
    }

    #[test]
    fn random_plans_respect_the_crash_budget() {
        for seed in 0..200u64 {
            let params = PlanParams {
                peers: 6,
                events: 16,
                horizon_steps: 1_000,
                max_concurrent_crashed: 2,
                allow_controller_partition: true,
                restart_after_steps: 100,
                pressure_events: false,
            };
            let plan = FaultPlan::random(seed, &params);
            // Replay the step-ordered crash/restart sequence and check the
            // concurrent-down watermark.
            let mut timeline: Vec<(u64, bool, usize)> = plan
                .events
                .iter()
                .filter_map(|ev| match (ev.trigger, ev.action) {
                    (Trigger::Step(s), FaultAction::CrashPeer(k)) => Some((s, true, k)),
                    (Trigger::Step(s), FaultAction::RestartPeer(k)) => Some((s, false, k)),
                    _ => None,
                })
                .collect();
            timeline.sort_by_key(|&(s, is_crash, _)| (s, is_crash));
            let mut down = std::collections::HashSet::new();
            for (_, is_crash, k) in timeline {
                if is_crash {
                    down.insert(k);
                    assert!(down.len() <= 2, "seed {seed}: crash budget exceeded");
                } else {
                    down.remove(&k);
                }
            }
        }
    }

    #[test]
    fn scheduler_fires_step_events_once_and_returns_ops() {
        let plan = FaultPlan::new(0)
            .push(Trigger::Step(2), FaultAction::CrashPeer(0))
            .push(Trigger::Step(4), FaultAction::RestartPeer(0));
        let sched = FaultScheduler::new(&plan, binding(2));
        let (ops, _) = sched.advance(FaultSite::Wire, NodeId(3), NodeId(0));
        assert!(ops.is_empty(), "step 1: nothing due");
        let (ops, _) = sched.advance(FaultSite::Wire, NodeId(3), NodeId(0));
        assert_eq!(ops, vec![ClusterOp::Crash(NodeId(0))]);
        let (ops, _) = sched.advance(FaultSite::Wire, NodeId(3), NodeId(0));
        assert!(ops.is_empty(), "already fired");
        let (ops, _) = sched.advance(FaultSite::Wire, NodeId(3), NodeId(0));
        assert_eq!(ops, vec![ClusterOp::Restart(NodeId(0))]);
        assert!(sched.exhausted());
        assert_eq!(sched.injected(), 2);
    }

    #[test]
    fn wire_effects_are_destination_keyed_and_one_shot() {
        let plan = FaultPlan::new(0)
            .push(Trigger::Step(1), FaultAction::DropWr { peer: 1 })
            .push(Trigger::Step(1), FaultAction::DupWr { peer: 0 })
            .push(Trigger::Step(1), FaultAction::DelayWr { peer: 0, by_us: 5 });
        let sched = FaultScheduler::new(&plan, binding(2));
        // Towards peer 1: the drop fires exactly once.
        let (_, v) = sched.advance(FaultSite::Wire, NodeId(9), NodeId(1));
        assert_eq!(v, WireFault::DropCompletion);
        let (_, v) = sched.advance(FaultSite::Wire, NodeId(9), NodeId(1));
        assert_eq!(v, WireFault::None);
        // Towards peer 0: dup first, then the queued delay.
        let (_, v) = sched.advance(FaultSite::Wire, NodeId(9), NodeId(0));
        assert_eq!(v, WireFault::DuplicateCompletion);
        let (_, v) = sched.advance(FaultSite::Wire, NodeId(9), NodeId(0));
        assert_eq!(v, WireFault::Delay(Duration::from_micros(5)));
        let (_, v) = sched.advance(FaultSite::Wire, NodeId(9), NodeId(0));
        assert_eq!(v, WireFault::None);
    }

    #[test]
    fn slow_peer_decays_after_its_wr_count() {
        let plan = FaultPlan::new(0).push(
            Trigger::Step(1),
            FaultAction::SlowPeer {
                peer: 0,
                per_wr_us: 7,
                wrs: 2,
            },
        );
        let sched = FaultScheduler::new(&plan, binding(1));
        for _ in 0..2 {
            let (_, v) = sched.advance(FaultSite::Wire, NodeId(2), NodeId(0));
            assert_eq!(v, WireFault::Delay(Duration::from_micros(7)));
        }
        let (_, v) = sched.advance(FaultSite::Wire, NodeId(2), NodeId(0));
        assert_eq!(v, WireFault::None);
    }

    #[test]
    fn doorbell_stalls_only_affect_doorbell_sites() {
        let plan = FaultPlan::new(0).push(
            Trigger::Step(1),
            FaultAction::StallDoorbell { peer: 0, by_us: 11 },
        );
        let sched = FaultScheduler::new(&plan, binding(1));
        let (_, v) = sched.advance(FaultSite::Wire, NodeId(2), NodeId(0));
        assert_eq!(v, WireFault::None, "wire site unaffected");
        let (_, v) = sched.advance(FaultSite::Doorbell, NodeId(2), NodeId(0));
        assert_eq!(v, WireFault::Delay(Duration::from_micros(11)));
        let (_, v) = sched.advance(FaultSite::Doorbell, NodeId(2), NodeId(0));
        assert_eq!(v, WireFault::None);
    }

    #[test]
    fn controller_partition_binds_app_and_controller() {
        let plan = FaultPlan::new(0)
            .push(Trigger::Step(1), FaultAction::PartitionController)
            .push(Trigger::Step(2), FaultAction::HealController);
        let b = binding(1);
        let (app, ctrl) = (b.app, b.controller);
        let sched = FaultScheduler::new(&plan, b);
        let (ops, _) = sched.advance(FaultSite::Control, app, ctrl);
        assert_eq!(ops, vec![ClusterOp::Partition(app, ctrl)]);
        let (ops, _) = sched.advance(FaultSite::Control, app, ctrl);
        assert_eq!(ops, vec![ClusterOp::Heal(app, ctrl)]);
    }

    #[test]
    fn describe_lists_every_event() {
        let params = PlanParams::light(3, 1);
        let plan = FaultPlan::random(42, &params);
        let desc = plan.describe();
        assert!(desc.contains("seed=42"));
        assert_eq!(desc.lines().count(), plan.events.len() + 1);
    }
}
