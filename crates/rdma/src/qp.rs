//! Queue pairs, NIC engines, and completion queues.
//!
//! A [`QueuePair`] models a reliable-connected (RC) queue pair: work requests
//! posted to its send queue are executed **in order** by a dedicated NIC
//! engine thread, and their completions appear **in the same order** on the
//! associated [`CompletionQueue`]. This is the ordering guarantee NCL's
//! replication protocol relies on (§4.4 of the paper): posting the data WR
//! before the sequence-number WR ensures the sequence number is never visible
//! on a peer without its data.
//!
//! Multiple queue pairs may share one completion queue (as in real verbs);
//! completions carry the `qp_num` so the consumer can attribute them.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Condvar, Mutex};
use sim::{Cluster, FaultSite, LatencyModel, NodeId, SimError, WireFault};
use telemetry::HistHandle;

use crate::device::{RdmaDevice, RemoteMr};
use crate::types::{WcStatus, WorkCompletion, WrId};

static NEXT_QP_NUM: AtomicU32 = AtomicU32::new(1);

/// A work request, built by the caller and posted with
/// [`QueuePair::post_many`] (or one of the single-WR convenience methods).
///
/// `WriteSg` is a scatter-gather WRITE: the source slices are gathered in
/// order and applied contiguously starting at `offset`, as one work request
/// with one completion — the verbs `sg_list` idiom that lets a burst of
/// adjacent records ride a single WR.
#[derive(Debug, Clone)]
pub enum WorkRequest {
    /// One-sided RDMA WRITE of `data` at `offset` within `mr`.
    Write {
        wr_id: WrId,
        mr: RemoteMr,
        offset: usize,
        data: Bytes,
    },
    /// One-sided RDMA WRITE gathering `slices` contiguously at `offset`.
    WriteSg {
        wr_id: WrId,
        mr: RemoteMr,
        offset: usize,
        slices: Vec<Bytes>,
    },
    /// One-sided RDMA READ of `len` bytes at `offset` within `mr`; the data
    /// arrives in the completion's `read_data`.
    Read {
        wr_id: WrId,
        mr: RemoteMr,
        offset: usize,
        len: usize,
    },
}

impl WorkRequest {
    /// The caller-assigned identifier echoed in the completion.
    pub fn wr_id(&self) -> WrId {
        match self {
            WorkRequest::Write { wr_id, .. }
            | WorkRequest::WriteSg { wr_id, .. }
            | WorkRequest::Read { wr_id, .. } => *wr_id,
        }
    }

    /// Bytes this request occupies on the wire (payload or read length).
    fn wire_bytes(&self) -> usize {
        match self {
            WorkRequest::Write { data, .. } => data.len(),
            WorkRequest::WriteSg { slices, .. } => slices.iter().map(Bytes::len).sum(),
            WorkRequest::Read { len, .. } => *len,
        }
    }
}

/// What one channel send to the NIC engine carries: a lone work request or a
/// doorbell batch. A single post allocates no vector; a batch moves its
/// vector across in one send, which is the whole point of doorbell batching
/// (one channel operation and one engine wakeup for N requests).
enum Submission {
    One(WorkRequest),
    Many(Vec<WorkRequest>),
}

#[derive(Default)]
struct CqInner {
    queue: Mutex<Vec<(u32, WorkCompletion)>>,
    /// Notified with `queue` held, which is also what [`CompletionQueue::wait`]
    /// checks emptiness and sleeps under — the discipline the waiter-counted
    /// `Condvar` needs to skip the wake-up when nobody sleeps.
    available: Condvar,
    /// Reactors watching this CQ (weakly, so a dead reactor never pins the
    /// queue). `watched` mirrors `watchers.is_empty()` so the per-completion
    /// fast path costs one relaxed load when nobody is subscribed.
    watchers: Mutex<Vec<std::sync::Weak<CqWakerInner>>>,
    watched: AtomicBool,
}

#[derive(Default)]
struct CqWakerInner {
    epoch: Mutex<u64>,
    /// Notified with `epoch` held, by [`CqWaker::signal`] and by the
    /// completion queues' pushes alike; [`CqWaker::wait`] compares and
    /// sleeps under the same lock.
    cv: Condvar,
}

/// An edge-counting wakeup channel for completion-driven polling.
///
/// A shard reactor registers one waker on every completion queue it services
/// ([`CompletionQueue::register_waker`]); each pushed completion bumps the
/// waker's epoch and notifies. The reactor sleeps with the standard
/// capture-then-wait pattern — read [`CqWaker::epoch`], poll all CQs, then
/// [`CqWaker::wait`] with the captured value — so a completion that lands
/// between the poll and the wait is never missed.
#[derive(Clone, Default)]
pub struct CqWaker {
    inner: Arc<CqWakerInner>,
}

impl CqWaker {
    /// Creates an unregistered waker.
    pub fn new() -> Self {
        CqWaker::default()
    }

    /// Current signal count. Capture this *before* polling.
    pub fn epoch(&self) -> u64 {
        *self.inner.epoch.lock()
    }

    /// Bumps the epoch and wakes sleepers. Also usable by non-CQ producers
    /// (e.g. an operation log) that share the reactor's sleep.
    pub fn signal(&self) {
        let mut e = self.inner.epoch.lock();
        *e += 1;
        self.inner.cv.notify_all();
    }

    /// Sleeps until the epoch advances past `seen` or `timeout` elapses;
    /// returns the epoch observed on wakeup.
    pub fn wait(&self, seen: u64, timeout: Duration) -> u64 {
        let mut e = self.inner.epoch.lock();
        if *e == seen {
            self.inner.cv.wait_for(&mut e, timeout);
        }
        *e
    }
}

/// A completion queue, shareable across queue pairs.
///
/// Entries are `(qp_num, completion)` pairs in completion order.
#[derive(Clone, Default)]
pub struct CompletionQueue {
    inner: Arc<CqInner>,
}

impl CompletionQueue {
    /// Creates an empty completion queue.
    pub fn new() -> Self {
        CompletionQueue::default()
    }

    /// Subscribes `waker` to completion arrivals on this queue. Held weakly:
    /// dropping the waker (reactor shutdown) unsubscribes it on the next
    /// push. Registering the same waker twice is harmless (double signals).
    pub fn register_waker(&self, waker: &CqWaker) {
        let mut ws = self.inner.watchers.lock();
        ws.push(Arc::downgrade(&waker.inner));
        self.inner.watched.store(true, Ordering::Release);
    }

    /// Posts the completions of one doorbell (inline NIC) or one moderation
    /// clump (engine thread): one queue lock, one condvar notify, and one
    /// waker signal for all of them — the CQ half of interrupt moderation.
    fn push_batch(&self, qp_num: u32, wcs: impl IntoIterator<Item = WorkCompletion>) {
        {
            let mut q = self.inner.queue.lock();
            q.extend(wcs.into_iter().map(|wc| (qp_num, wc)));
            self.inner.available.notify_all();
        }
        self.wake_watchers();
    }

    fn wake_watchers(&self) {
        if self.inner.watched.load(Ordering::Acquire) {
            let mut ws = self.inner.watchers.lock();
            ws.retain(|w| {
                let Some(inner) = w.upgrade() else {
                    return false;
                };
                let mut e = inner.epoch.lock();
                *e += 1;
                inner.cv.notify_all();
                true
            });
            if ws.is_empty() {
                self.inner.watched.store(false, Ordering::Release);
            }
        }
    }

    /// Drains all available completions without blocking.
    pub fn poll(&self) -> Vec<(u32, WorkCompletion)> {
        std::mem::take(&mut *self.inner.queue.lock())
    }

    /// [`CompletionQueue::poll`] into a buffer the caller reuses: the
    /// completions are appended to `out`, and both `out` and the queue keep
    /// their capacity, so a steady poll loop allocates nothing.
    pub fn poll_into(&self, out: &mut Vec<(u32, WorkCompletion)>) {
        out.append(&mut self.inner.queue.lock());
    }

    /// Blocks until at least one completion is available (or `timeout`
    /// expires) and drains the queue. Returns an empty vector on timeout.
    pub fn wait(&self, timeout: Duration) -> Vec<(u32, WorkCompletion)> {
        let mut q = self.inner.queue.lock();
        if q.is_empty() {
            self.inner.available.wait_for(&mut q, timeout);
        }
        std::mem::take(&mut *q)
    }
}

/// A reliable connection from a local node to a remote device's memory.
///
/// Work requests are executed asynchronously in post order; once any request
/// fails, the QP is in the error state and subsequent requests flush with
/// [`WcStatus::FlushErr`] (callers reconnect with a fresh QP, which is what
/// `ncl-lib` does when it replaces a failed peer).
enum NicMode {
    /// A dedicated engine thread drains the send queue asynchronously —
    /// the most adversarial model (work requests can be in flight when the
    /// application "crashes"). Default for correctness tests.
    ///
    /// The wire is a [`Pipe`], which lets a deep send queue achieve far
    /// higher throughput than one request per round trip — the behaviour
    /// NCL's pipelined `record_nowait` path exists to exploit. A doorbell
    /// batch posted via [`QueuePair::post_many`] arrives as one channel send
    /// and every request in it shares the batch's post instant: N batched
    /// requests cost N serializations but a single propagation tail, while
    /// completions still appear one per request, in post order.
    Threaded {
        sq: Sender<(Instant, Submission)>,
        engine: JoinHandle<()>,
    },
    /// Work requests execute synchronously at post time, in post order.
    /// Preserves ordering, failure and permission semantics while avoiding
    /// cross-thread handoffs — used by the calibrated benchmarks, where
    /// scheduler wake-ups on an oversubscribed host would otherwise dwarf
    /// the microsecond-scale latencies being modelled.
    ///
    /// Paid once per doorbell: the doorbell fault point, the send-queue lock
    /// (`sq`, which also keeps two threads' doorbells from interleaving their
    /// requests) and one [`CompletionQueue::push_batch`]. Paid per request,
    /// because an armed schedule, a crash or a partition may strike between
    /// any two: the wire fault point, the error-state check, the reachability
    /// check before and after the modelled flight, and the flight itself.
    ///
    /// A flight is a deadline, not a sleep: the same [`Pipe`] prices each
    /// request, and the poster waits for that instant before it applies the
    /// request. Queue pairs rung at one instant fly together; a second
    /// doorbell queues behind the first's bytes, not its landing. An injected
    /// wire delay occupies the pipe, so it holds back its own request and
    /// everything behind it on this queue pair only.
    Inline(InlineNic),
}

/// The wire of one queue pair, as a real RC QP behaves and as both engines
/// price it: a request occupies the link for its serialization time (the
/// per-byte term) from `max(free, posted_at)`, and lands one propagation
/// delay (the base term) after its last byte has left — so back-to-back
/// requests share one propagation and stay in post order (`free` is monotone).
struct Pipe {
    latency: LatencyModel,
    /// When the last byte sent so far has left the wire (not when it lands).
    free: Instant,
}

impl Pipe {
    /// Occupies the wire for `d`; returns the instant it is free again.
    fn occupy(&mut self, posted_at: Instant, d: Duration) -> Instant {
        self.free = self.free.max(posted_at) + d;
        self.free
    }

    /// Sends `bytes` for a request posted at `posted_at`; returns the
    /// instant it lands.
    fn send(&mut self, posted_at: Instant, bytes: usize) -> Instant {
        let ser = Duration::from_nanos((self.latency.per_byte_ns * bytes as f64) as u64);
        self.occupy(posted_at, ser) + self.latency.base
    }
}

struct InlineNic {
    remote_dev: RdmaDevice,
    /// The send queue: the wire, and the completions of the doorbell being
    /// executed, delivered together when it ends (reused: a doorbell
    /// allocates nothing).
    sq: Mutex<(Pipe, Vec<WorkCompletion>)>,
}

pub struct QueuePair {
    qp_num: u32,
    local: NodeId,
    remote: NodeId,
    /// For the doorbell fault point and the inline executor; the engine
    /// thread owns its own handle.
    cluster: Cluster,
    mode: Option<NicMode>,
    cq: CompletionQueue,
    errored: Arc<AtomicBool>,
    /// Optional wire-span histogram: post→completion nanoseconds per WR.
    /// Installed after connect (the engine thread shares the cell), so the
    /// QP API stays unchanged for callers that don't measure; read with one
    /// atomic load per doorbell.
    wire_hist: Arc<OnceLock<HistHandle>>,
}

impl QueuePair {
    /// Connects `local_node` to `remote_dev`, posting completions to `cq`,
    /// with an asynchronous NIC engine thread.
    ///
    /// `latency` is charged per work request: the per-byte term serializes
    /// on the wire, the base term is propagation that overlaps across
    /// back-to-back requests (see [`Pipe`]). Connection setup
    /// itself is control-plane work and is charged by the caller.
    pub fn connect(
        cluster: Cluster,
        local_node: NodeId,
        remote_dev: &RdmaDevice,
        cq: CompletionQueue,
        latency: LatencyModel,
    ) -> Self {
        Self::connect_with_mode(cluster, local_node, remote_dev, cq, latency, false)
    }

    /// [`QueuePair::connect`] with an explicit NIC mode: `inline = true`
    /// executes work requests synchronously at post time (see [`NicMode`]).
    pub fn connect_with_mode(
        cluster: Cluster,
        local_node: NodeId,
        remote_dev: &RdmaDevice,
        cq: CompletionQueue,
        latency: LatencyModel,
        inline: bool,
    ) -> Self {
        let qp_num = NEXT_QP_NUM.fetch_add(1, Ordering::Relaxed);
        let errored = Arc::new(AtomicBool::new(false));
        let wire_hist = Arc::new(OnceLock::new());
        let pipe = Pipe {
            latency,
            free: sim::time::now(),
        };
        let mode = if inline {
            NicMode::Inline(InlineNic {
                remote_dev: remote_dev.clone(),
                sq: Mutex::new((pipe, Vec::new())),
            })
        } else {
            let (tx, rx) = unbounded::<(Instant, Submission)>();
            let engine = spawn_engine(
                qp_num,
                cluster.clone(),
                local_node,
                remote_dev.clone(),
                rx,
                cq.clone(),
                Arc::clone(&errored),
                pipe,
                Arc::clone(&wire_hist),
            );
            NicMode::Threaded { sq: tx, engine }
        };
        QueuePair {
            qp_num,
            local: local_node,
            remote: remote_dev.node(),
            cluster,
            mode: Some(mode),
            cq,
            errored,
            wire_hist,
        }
    }

    /// Installs a histogram recording, per work request, the nanoseconds from
    /// post (doorbell) to completion — the wire span of the record lifecycle.
    /// Takes effect for all subsequently completed requests; the first
    /// histogram installed stays for the life of the queue pair.
    pub fn set_wire_hist(&self, hist: HistHandle) {
        let _ = self.wire_hist.set(hist);
    }

    /// This queue pair's number (used to attribute shared-CQ completions).
    pub fn qp_num(&self) -> u32 {
        self.qp_num
    }

    /// The remote node this QP targets.
    pub fn remote_node(&self) -> NodeId {
        self.remote
    }

    /// The local node this QP belongs to.
    pub fn local_node(&self) -> NodeId {
        self.local
    }

    /// The completion queue completions are posted to.
    pub fn cq(&self) -> &CompletionQueue {
        &self.cq
    }

    /// True once any work request has failed (QP error state).
    pub fn is_errored(&self) -> bool {
        self.errored.load(Ordering::SeqCst)
    }

    /// Posts a one-sided RDMA WRITE of `data` at `offset` within `mr`.
    pub fn post_write(
        &self,
        wr_id: WrId,
        mr: &RemoteMr,
        offset: usize,
        data: Bytes,
    ) -> Result<(), SimError> {
        self.post(WorkRequest::Write {
            wr_id,
            mr: *mr,
            offset,
            data,
        })
    }

    /// Posts a scatter-gather WRITE: `slices` are gathered in order and
    /// written contiguously starting at `offset` within `mr`, as a single
    /// work request with a single completion.
    pub fn post_write_sg(
        &self,
        wr_id: WrId,
        mr: &RemoteMr,
        offset: usize,
        slices: Vec<Bytes>,
    ) -> Result<(), SimError> {
        self.post(WorkRequest::WriteSg {
            wr_id,
            mr: *mr,
            offset,
            slices,
        })
    }

    /// Posts a one-sided RDMA READ of `len` bytes at `offset` within `mr`.
    /// The data arrives in the completion's `read_data`.
    pub fn post_read(
        &self,
        wr_id: WrId,
        mr: &RemoteMr,
        offset: usize,
        len: usize,
    ) -> Result<(), SimError> {
        self.post(WorkRequest::Read {
            wr_id,
            mr: *mr,
            offset,
            len,
        })
    }

    /// Posts a doorbell batch: all of `wrs` with one channel send and one
    /// engine wakeup (one "doorbell ring"). Execution and completions keep
    /// post order exactly as if the requests had been posted one by one; the
    /// saving is the per-request posting overhead and, on the wire, a single
    /// shared propagation tail (see [`NicMode::Threaded`]).
    pub fn post_many(&self, wrs: &[WorkRequest]) -> Result<(), SimError> {
        self.post_many_at(sim::time::now(), wrs)
    }

    /// [`QueuePair::post_many`] for a doorbell rung at `posted_at`, a past
    /// instant several queue pairs may share: the wire model starts the
    /// flights (and `wire_ns`) there, not when this call happens to run, so
    /// one caller's doorbells to different peers overlap — on the inline NIC
    /// the first post waits its flights out and the others, finding their
    /// deadlines behind that wait's last clock reading, read no clock.
    pub fn post_many_at(&self, posted_at: Instant, wrs: &[WorkRequest]) -> Result<(), SimError> {
        if wrs.is_empty() {
            return Ok(());
        }
        match self.mode.as_ref().expect("mode present until drop") {
            NicMode::Threaded { sq, .. } => {
                let submission = match wrs {
                    [wr] => Submission::One(wr.clone()),
                    _ => Submission::Many(wrs.to_vec()),
                };
                sq.send((self.ring_doorbell(posted_at), submission))
                    .map_err(|_| SimError::ServiceStopped)
            }
            NicMode::Inline(nic) => {
                self.execute_inline(nic, posted_at, wrs);
                Ok(())
            }
        }
    }

    /// Doorbell fault point: an injected stall delays the submission itself
    /// (the requester-side "NIC didn't see the doorbell" case), before any
    /// work request reaches the engine or executes inline. Returns the
    /// instant the flights start: `posted_at`, or the end of the stall.
    fn ring_doorbell(&self, posted_at: Instant) -> Instant {
        let site = FaultSite::Doorbell;
        if let WireFault::Delay(d) = self.cluster.fault_point(site, self.local, self.remote) {
            sim::delay(d);
            return sim::time::now();
        }
        posted_at
    }

    /// A doorbell of one.
    fn post(&self, wr: WorkRequest) -> Result<(), SimError> {
        self.post_many(std::slice::from_ref(&wr))
    }

    /// The inline NIC: executes one doorbell's requests in order, each
    /// landing at its deadline `due` (so `wire_ns` is the model's number, as
    /// on the engine thread), and delivers their completions together (see
    /// [`NicMode::Inline`] for what is per doorbell and what per request).
    fn execute_inline(&self, nic: &InlineNic, posted_at: Instant, wrs: &[WorkRequest]) {
        let start = self.ring_doorbell(posted_at);
        let hist = self.wire_hist.get();
        let mut sq = nic.sq.lock();
        let (pipe, clump) = &mut *sq;
        let mut due = start;
        for wr in wrs {
            let verdict = self
                .cluster
                .fault_point(FaultSite::Wire, self.local, self.remote);
            // An injected delay holds back this request and all behind it.
            if let WireFault::Delay(d) = verdict {
                pipe.occupy(start, d);
            }
            let (wr_id, status, read_data) = execute(
                &self.cluster,
                self.local,
                &nic.remote_dev,
                &self.errored,
                wr,
                |bytes| {
                    due = pipe.send(start, bytes);
                    // A flight that takes no modelled time reads no clock.
                    if due > start {
                        sim::delay_until(due);
                    }
                },
            );
            if status != WcStatus::Success {
                self.errored.store(true, Ordering::SeqCst);
            }
            let wire_ns = due.duration_since(posted_at).as_nanos() as u64;
            if let Some(hist) = hist {
                hist.record(wire_ns);
            }
            let wc = WorkCompletion {
                wr_id,
                status,
                read_data,
                wire_ns,
            };
            stage_completion(clump, wc, verdict);
        }
        if !clump.is_empty() {
            self.cq.push_batch(self.qp_num, clump.drain(..));
        }
    }
}

/// Queues a completion for delivery, honouring an injected drop or
/// duplication.
///
/// A dropped completion models "write landed, ack lost": the work request
/// *was* applied, only its completion vanishes — the case the protocol's
/// prefix-acknowledgement rule must tolerate. Error completions are always
/// delivered (a real RC QP surfaces retry exhaustion to the requester even
/// when remote acks are lost).
fn stage_completion(clump: &mut Vec<WorkCompletion>, wc: WorkCompletion, verdict: WireFault) {
    match verdict {
        WireFault::DropCompletion if wc.status == WcStatus::Success => {}
        WireFault::DuplicateCompletion => {
            clump.push(wc.clone());
            clump.push(wc);
        }
        _ => clump.push(wc),
    }
}

impl Drop for QueuePair {
    fn drop(&mut self) {
        // Close the send queue so the engine drains and exits.
        if let Some(NicMode::Threaded { sq, engine }) = self.mode.take() {
            drop(sq);
            let _ = engine.join();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn spawn_engine(
    qp_num: u32,
    cluster: Cluster,
    local: NodeId,
    remote_dev: RdmaDevice,
    rx: Receiver<(Instant, Submission)>,
    cq: CompletionQueue,
    errored: Arc<AtomicBool>,
    mut pipe: Pipe,
    wire_hist: Arc<OnceLock<HistHandle>>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("nic-qp{qp_num}"))
        .spawn(move || {
            // Completion moderation window for doorbell batches. Back-to-back
            // requests in a batch complete microseconds apart — below the
            // sleep threshold of `sim::delay`, so waiting out each gap
            // individually realises the whole batch's serialization as a
            // busy-spin, monopolising a core per QP at line rate. Instead the
            // engine executes the batch up front (the pipe keeps every
            // request's modelled completion target exact) and delivers
            // completions in clumps whose targets fall within this window:
            // one sleep per clump, the way a real NIC's interrupt moderation
            // trades a bounded delivery delay for fewer wakeups. The window
            // exceeds the spin threshold so inter-clump waits sleep; it only
            // defers completions *within* one doorbell batch (lone posts and
            // short batches deliver as before), and it is sized to cover the
            // span of the largest bursts the protocol posts so a batch
            // normally delivers as a single clump — per-doorbell completion
            // coalescing, like a NIC signalling only solicited completions.
            const MODERATION: Duration = Duration::from_millis(1);
            loop {
                let first = match rx.recv_timeout(Duration::from_millis(50)) {
                    Ok(entry) => entry,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                };
                // Execute every already-rung submission first, collecting
                // each request's modelled completion target. Execution
                // (fault-schedule advance, reachability checks, remote
                // apply) stays strictly in post order — the channel is the
                // post order. Moderation coalesces *across* doorbells:
                // back-to-back small batches complete microseconds apart,
                // and sleeping out each gap individually would spin
                // (under `sim::delay`'s threshold) per batch instead of
                // once per moderation window.
                let mut pending: Vec<(Instant, WorkCompletion, WireFault)> = Vec::new();
                let mut next = Some(first);
                while let Some((posted_at, sub)) = next {
                    let wrs = match sub {
                        Submission::One(wr) => vec![wr],
                        Submission::Many(wrs) => wrs,
                    };
                    pending.reserve(wrs.len());
                    for wr in wrs {
                        let verdict =
                            cluster.fault_point(FaultSite::Wire, local, remote_dev.node());
                        if let WireFault::Delay(d) = verdict {
                            sim::delay(d);
                        }
                        let mut target = pipe.free;
                        let (wr_id, status, read_data) =
                            execute(&cluster, local, &remote_dev, &errored, &wr, |bytes| {
                                target = pipe.send(posted_at, bytes);
                            });
                        if status != WcStatus::Success {
                            errored.store(true, Ordering::SeqCst);
                        }
                        // Wire span from the model, not the delivery
                        // instant: moderation defers delivery, not the
                        // completion the model assigns.
                        let wire_ns = target.duration_since(posted_at).as_nanos() as u64;
                        pending.push((
                            target,
                            WorkCompletion {
                                wr_id,
                                status,
                                read_data,
                                wire_ns,
                            },
                            verdict,
                        ));
                    }
                    next = rx.try_recv().ok();
                }
                let executed_at = sim::time::now();
                let hist = wire_hist.get();
                while !pending.is_empty() {
                    let window_end = pending[0].0 + MODERATION;
                    let mut n = 1;
                    while n < pending.len() && pending[n].0 <= window_end {
                        n += 1;
                    }
                    let last_target = pending[n - 1].0;
                    sim::delay_until(last_target);
                    // A partition or crash during the modelled flight
                    // surfaces as a retry error at delivery — the write may
                    // have landed, the ack is lost, which the protocol's
                    // prefix rule already tolerates. Only re-checked when
                    // the clump actually waited: with a zero-latency model
                    // nothing is in flight between execution and delivery.
                    let severed = last_target > executed_at
                        && cluster.can_reach(local, remote_dev.node()).is_err();
                    let mut clump: Vec<WorkCompletion> = Vec::with_capacity(n + 1);
                    for (_, mut wc, verdict) in pending.drain(..n) {
                        if severed && wc.status == WcStatus::Success {
                            wc.status = WcStatus::RetryExceeded;
                            wc.read_data = None;
                            errored.store(true, Ordering::SeqCst);
                        }
                        if let Some(hist) = hist {
                            hist.record(wc.wire_ns);
                        }
                        stage_completion(&mut clump, wc, verdict);
                    }
                    if !clump.is_empty() {
                        cq.push_batch(qp_num, clump);
                    }
                }
            }
        })
        .expect("spawn NIC engine")
}

fn execute(
    cluster: &Cluster,
    local: NodeId,
    remote_dev: &RdmaDevice,
    errored: &AtomicBool,
    wr: &WorkRequest,
    wait: impl FnOnce(usize),
) -> (WrId, WcStatus, Option<Bytes>) {
    let (wr_id, bytes) = (wr.wr_id(), wr.wire_bytes());
    if errored.load(Ordering::SeqCst) {
        return (wr_id, WcStatus::FlushErr, None);
    }
    if cluster.can_reach(local, remote_dev.node()).is_err() {
        return (wr_id, WcStatus::RetryExceeded, None);
    }
    // Time on the wire (a deadline the inline NIC waits out, a completion
    // target the engine thread delivers at). A crash or partition during
    // flight means the operation is not applied. A gathered write is one
    // request: its slices serialize as one wire occupancy.
    wait(bytes);
    if cluster.can_reach(local, remote_dev.node()).is_err() {
        return (wr_id, WcStatus::RetryExceeded, None);
    }
    let result = match wr {
        WorkRequest::Write {
            mr, offset, data, ..
        } => remote_dev.apply_remote(mr.mr_id, mr.rkey, *offset, Some(data), 0),
        WorkRequest::WriteSg {
            mr, offset, slices, ..
        } => remote_dev
            .apply_remote_sg(mr.mr_id, mr.rkey, *offset, slices)
            .map(|()| None),
        WorkRequest::Read {
            mr, offset, len, ..
        } => remote_dev.apply_remote(mr.mr_id, mr.rkey, *offset, None, *len),
    };
    match result {
        Ok(read_data) => (wr_id, WcStatus::Success, read_data),
        Err(()) => (wr_id, WcStatus::RemoteAccessErr, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RKey;

    fn setup() -> (Cluster, NodeId, RdmaDevice, NodeId) {
        let cluster = Cluster::new();
        let app = cluster.add_node("app");
        let peer = cluster.add_node("peer");
        let dev = RdmaDevice::new(cluster.clone(), peer, LatencyModel::ZERO);
        (cluster, app, dev, peer)
    }

    fn wait_n(cq: &CompletionQueue, n: usize) -> Vec<(u32, WorkCompletion)> {
        let mut out = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while out.len() < n && std::time::Instant::now() < deadline {
            out.extend(cq.wait(Duration::from_millis(100)));
        }
        out
    }

    #[test]
    fn write_then_read_roundtrip() {
        let (cluster, app, dev, _peer) = setup();
        let (_local, mr) = dev.register_mr(64).unwrap();
        let cq = CompletionQueue::new();
        let qp = QueuePair::connect(cluster, app, &dev, cq.clone(), LatencyModel::ZERO);
        qp.post_write(WrId(1), &mr, 4, Bytes::from_static(b"ncl"))
            .unwrap();
        qp.post_read(WrId(2), &mr, 4, 3).unwrap();
        let wcs = wait_n(&cq, 2);
        assert_eq!(wcs.len(), 2);
        assert_eq!(wcs[0].1.wr_id, WrId(1));
        assert!(wcs[0].1.is_success());
        assert_eq!(wcs[1].1.wr_id, WrId(2));
        assert_eq!(wcs[1].1.read_data.as_deref(), Some(&b"ncl"[..]));
    }

    #[test]
    fn completions_preserve_post_order() {
        let (cluster, app, dev, _peer) = setup();
        let (_local, mr) = dev.register_mr(1024).unwrap();
        let cq = CompletionQueue::new();
        let qp = QueuePair::connect(cluster, app, &dev, cq.clone(), LatencyModel::ZERO);
        for i in 0..100u64 {
            qp.post_write(
                WrId(i),
                &mr,
                (i as usize) * 8,
                Bytes::from(i.to_le_bytes().to_vec()),
            )
            .unwrap();
        }
        let wcs = wait_n(&cq, 100);
        let ids: Vec<u64> = wcs.iter().map(|(_, wc)| wc.wr_id.0).collect();
        assert_eq!(ids, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn bad_rkey_errors_and_flushes_subsequent() {
        let (cluster, app, dev, _peer) = setup();
        let (_local, mr) = dev.register_mr(64).unwrap();
        let bad = RemoteMr {
            rkey: RKey(0xdead),
            ..mr
        };
        let cq = CompletionQueue::new();
        let qp = QueuePair::connect(cluster, app, &dev, cq.clone(), LatencyModel::ZERO);
        qp.post_write(WrId(1), &bad, 0, Bytes::from_static(b"x"))
            .unwrap();
        qp.post_write(WrId(2), &mr, 0, Bytes::from_static(b"y"))
            .unwrap();
        let wcs = wait_n(&cq, 2);
        assert_eq!(wcs[0].1.status, WcStatus::RemoteAccessErr);
        assert_eq!(wcs[1].1.status, WcStatus::FlushErr);
        assert!(qp.is_errored());
    }

    #[test]
    fn crash_of_remote_fails_writes_and_loses_memory() {
        let (cluster, app, dev, peer) = setup();
        let (local, mr) = dev.register_mr(64).unwrap();
        let cq = CompletionQueue::new();
        let qp = QueuePair::connect(cluster.clone(), app, &dev, cq.clone(), LatencyModel::ZERO);
        qp.post_write(WrId(1), &mr, 0, Bytes::from_static(b"a"))
            .unwrap();
        assert!(wait_n(&cq, 1)[0].1.is_success());
        cluster.crash(peer);
        qp.post_write(WrId(2), &mr, 1, Bytes::from_static(b"b"))
            .unwrap();
        let wcs = wait_n(&cq, 1);
        assert_eq!(wcs[0].1.status, WcStatus::RetryExceeded);
        cluster.restart(peer);
        assert!(local.read_local(0, 1).is_none(), "memory lost across crash");
    }

    #[test]
    fn partition_fails_writes_but_preserves_memory() {
        let (cluster, app, dev, peer) = setup();
        let (local, mr) = dev.register_mr(64).unwrap();
        let cq = CompletionQueue::new();
        let qp = QueuePair::connect(cluster.clone(), app, &dev, cq.clone(), LatencyModel::ZERO);
        qp.post_write(WrId(1), &mr, 0, Bytes::from_static(b"a"))
            .unwrap();
        assert!(wait_n(&cq, 1)[0].1.is_success());
        cluster.partition(app, peer);
        qp.post_write(WrId(2), &mr, 0, Bytes::from_static(b"b"))
            .unwrap();
        let wcs = wait_n(&cq, 1);
        assert_eq!(wcs[0].1.status, WcStatus::RetryExceeded);
        // The lagging peer still has the first write.
        assert_eq!(local.read_local(0, 1).unwrap(), b"a");
    }

    #[test]
    fn shared_cq_attributes_completions_by_qp_num() {
        let cluster = Cluster::new();
        let app = cluster.add_node("app");
        let p1 = cluster.add_node("p1");
        let p2 = cluster.add_node("p2");
        let d1 = RdmaDevice::new(cluster.clone(), p1, LatencyModel::ZERO);
        let d2 = RdmaDevice::new(cluster.clone(), p2, LatencyModel::ZERO);
        let (_l1, m1) = d1.register_mr(8).unwrap();
        let (_l2, m2) = d2.register_mr(8).unwrap();
        let cq = CompletionQueue::new();
        let q1 = QueuePair::connect(cluster.clone(), app, &d1, cq.clone(), LatencyModel::ZERO);
        let q2 = QueuePair::connect(cluster, app, &d2, cq.clone(), LatencyModel::ZERO);
        q1.post_write(WrId(1), &m1, 0, Bytes::from_static(b"x"))
            .unwrap();
        q2.post_write(WrId(2), &m2, 0, Bytes::from_static(b"y"))
            .unwrap();
        let wcs = wait_n(&cq, 2);
        let nums: std::collections::HashSet<u32> = wcs.iter().map(|(n, _)| *n).collect();
        assert!(nums.contains(&q1.qp_num()));
        assert!(nums.contains(&q2.qp_num()));
    }

    #[test]
    fn reads_of_invalidated_region_fail() {
        let (cluster, app, dev, _peer) = setup();
        let (_local, mr) = dev.register_mr(8).unwrap();
        dev.invalidate(mr.mr_id);
        let cq = CompletionQueue::new();
        let qp = QueuePair::connect(cluster, app, &dev, cq.clone(), LatencyModel::ZERO);
        qp.post_read(WrId(1), &mr, 0, 4).unwrap();
        let wcs = wait_n(&cq, 1);
        assert_eq!(wcs[0].1.status, WcStatus::RemoteAccessErr);
    }

    #[test]
    fn inline_mode_matches_threaded_semantics() {
        let (cluster, app, dev, peer) = setup();
        let (local, mr) = dev.register_mr(64).unwrap();
        let cq = CompletionQueue::new();
        let qp = QueuePair::connect_with_mode(
            cluster.clone(),
            app,
            &dev,
            cq.clone(),
            LatencyModel::ZERO,
            true,
        );
        // Writes apply immediately; completions are already queued.
        qp.post_write(WrId(1), &mr, 0, Bytes::from_static(b"inl"))
            .unwrap();
        let wcs = cq.poll();
        assert_eq!(wcs.len(), 1);
        assert!(wcs[0].1.is_success());
        assert_eq!(local.read_local(0, 3).unwrap(), b"inl");
        // Reads carry data.
        qp.post_read(WrId(2), &mr, 0, 3).unwrap();
        assert_eq!(cq.poll()[0].1.read_data.as_deref(), Some(&b"inl"[..]));
        // Errors still transition the QP to the error state and flush.
        cluster.crash(peer);
        qp.post_write(WrId(3), &mr, 0, Bytes::from_static(b"x"))
            .unwrap();
        assert_eq!(cq.poll()[0].1.status, WcStatus::RetryExceeded);
        assert!(qp.is_errored());
        qp.post_write(WrId(4), &mr, 0, Bytes::from_static(b"y"))
            .unwrap();
        assert_eq!(cq.poll()[0].1.status, WcStatus::FlushErr);
    }

    #[test]
    fn post_many_executes_in_order_with_one_doorbell() {
        let (cluster, app, dev, _peer) = setup();
        let (local, mr) = dev.register_mr(1024).unwrap();
        let cq = CompletionQueue::new();
        let qp = QueuePair::connect(cluster, app, &dev, cq.clone(), LatencyModel::ZERO);
        let wrs: Vec<WorkRequest> = (0..32u64)
            .map(|i| WorkRequest::Write {
                wr_id: WrId(i),
                mr,
                offset: (i as usize) * 8,
                data: Bytes::from(i.to_le_bytes().to_vec()),
            })
            .chain(std::iter::once(WorkRequest::Read {
                wr_id: WrId(99),
                mr,
                offset: 0,
                len: 8,
            }))
            .collect();
        qp.post_many(&wrs).unwrap();
        let wcs = wait_n(&cq, 33);
        let ids: Vec<u64> = wcs.iter().map(|(_, wc)| wc.wr_id.0).collect();
        let expect: Vec<u64> = (0..32).chain(std::iter::once(99)).collect();
        assert_eq!(ids, expect, "batch completions keep post order");
        assert!(wcs.iter().all(|(_, wc)| wc.is_success()));
        assert_eq!(local.read_local(8, 8).unwrap(), 1u64.to_le_bytes());
        assert_eq!(
            wcs[32].1.read_data.as_deref(),
            Some(&0u64.to_le_bytes()[..])
        );
    }

    #[test]
    fn scatter_gather_write_lands_contiguously() {
        let (cluster, app, dev, _peer) = setup();
        let (local, mr) = dev.register_mr(64).unwrap();
        let cq = CompletionQueue::new();
        let qp = QueuePair::connect(cluster, app, &dev, cq.clone(), LatencyModel::ZERO);
        qp.post_write_sg(
            WrId(7),
            &mr,
            4,
            vec![
                Bytes::from_static(b"sp"),
                Bytes::from_static(b"lit"),
                Bytes::from_static(b"ft"),
            ],
        )
        .unwrap();
        let wcs = wait_n(&cq, 1);
        assert_eq!(wcs.len(), 1, "one WR, one completion");
        assert_eq!(wcs[0].1.wr_id, WrId(7));
        assert!(wcs[0].1.is_success());
        assert_eq!(local.read_local(4, 7).unwrap(), b"splitft");
    }

    #[test]
    fn batch_failure_mid_batch_flushes_the_rest() {
        let (cluster, app, dev, _peer) = setup();
        let (_local, mr) = dev.register_mr(64).unwrap();
        let bad = RemoteMr {
            rkey: RKey(0xdead),
            ..mr
        };
        let cq = CompletionQueue::new();
        let qp = QueuePair::connect(cluster, app, &dev, cq.clone(), LatencyModel::ZERO);
        let wrs = vec![
            WorkRequest::Write {
                wr_id: WrId(1),
                mr,
                offset: 0,
                data: Bytes::from_static(b"a"),
            },
            WorkRequest::Write {
                wr_id: WrId(2),
                mr: bad,
                offset: 0,
                data: Bytes::from_static(b"b"),
            },
            WorkRequest::Write {
                wr_id: WrId(3),
                mr,
                offset: 0,
                data: Bytes::from_static(b"c"),
            },
        ];
        qp.post_many(&wrs).unwrap();
        let wcs = wait_n(&cq, 3);
        assert_eq!(wcs[0].1.status, WcStatus::Success);
        assert_eq!(wcs[1].1.status, WcStatus::RemoteAccessErr);
        assert_eq!(wcs[2].1.status, WcStatus::FlushErr);
        assert!(qp.is_errored());
    }

    #[test]
    fn inline_post_many_matches_threaded_semantics() {
        let (cluster, app, dev, _peer) = setup();
        let (local, mr) = dev.register_mr(64).unwrap();
        let cq = CompletionQueue::new();
        let qp =
            QueuePair::connect_with_mode(cluster, app, &dev, cq.clone(), LatencyModel::ZERO, true);
        let wrs = vec![
            WorkRequest::Write {
                wr_id: WrId(1),
                mr,
                offset: 0,
                data: Bytes::from_static(b"ab"),
            },
            WorkRequest::WriteSg {
                wr_id: WrId(2),
                mr,
                offset: 2,
                slices: vec![Bytes::from_static(b"cd"), Bytes::from_static(b"ef")],
            },
        ];
        qp.post_many(&wrs).unwrap();
        let wcs = cq.poll();
        assert_eq!(wcs.len(), 2);
        assert!(wcs.iter().all(|(_, wc)| wc.is_success()));
        assert_eq!(local.read_local(0, 6).unwrap(), b"abcdef");
    }

    #[test]
    fn doorbell_batch_overlaps_propagation() {
        // 8 batched requests pay one overlapped propagation tail, not 8
        // round trips: with base = 200 µs and no bandwidth term the batch
        // must finish far sooner than 8 × base.
        let (cluster, app, dev, _peer) = setup();
        let (_local, mr) = dev.register_mr(1024).unwrap();
        let cq = CompletionQueue::new();
        let lat = LatencyModel::from_nanos(200_000, 0.0, 0.0);
        let qp = QueuePair::connect(cluster, app, &dev, cq.clone(), lat);
        let wrs: Vec<WorkRequest> = (0..8u64)
            .map(|i| WorkRequest::Write {
                wr_id: WrId(i),
                mr,
                offset: (i as usize) * 8,
                data: Bytes::from(i.to_le_bytes().to_vec()),
            })
            .collect();
        let sw = sim::Stopwatch::start();
        qp.post_many(&wrs).unwrap();
        let wcs = wait_n(&cq, 8);
        let elapsed = sw.elapsed();
        assert!(wcs.iter().all(|(_, wc)| wc.is_success()));
        assert!(elapsed >= Duration::from_micros(200), "base is charged");
        assert!(
            elapsed < Duration::from_micros(8 * 200),
            "propagation must overlap across the batch, took {elapsed:?}"
        );
    }

    #[test]
    fn wire_hist_records_post_to_completion_span() {
        let (cluster, app, dev, _peer) = setup();
        let (_local, mr) = dev.register_mr(64).unwrap();
        let cq = CompletionQueue::new();
        let lat = LatencyModel::from_nanos(50_000, 0.0, 0.0);
        let qp = QueuePair::connect(cluster, app, &dev, cq.clone(), lat);
        let tel = telemetry::Telemetry::new();
        qp.set_wire_hist(tel.histogram("rdma.wr.wire"));
        for i in 0..4u64 {
            qp.post_write(WrId(i), &mr, 0, Bytes::from_static(b"w"))
                .unwrap();
        }
        assert_eq!(wait_n(&cq, 4).len(), 4);
        let s = tel.snapshot().summary("rdma.wr.wire").unwrap();
        assert_eq!(s.count, 4);
        assert!(s.min_ns >= 50_000, "wire span includes propagation: {s:?}");
    }

    #[test]
    fn injected_wire_faults_drop_and_duplicate_completions() {
        use sim::{Binding, FaultAction, FaultPlan, FaultScheduler, Trigger};
        let (cluster, app, dev, peer) = setup();
        let (local, mr) = dev.register_mr(64).unwrap();
        let plan = FaultPlan::new(1)
            .push(Trigger::Step(1), FaultAction::DropWr { peer: 0 })
            .push(Trigger::Step(1), FaultAction::DupWr { peer: 0 });
        let binding = Binding {
            peers: vec![peer],
            controller: app,
            app,
        };
        cluster.install_faults(FaultScheduler::new(&plan, binding));
        let cq = CompletionQueue::new();
        let qp = QueuePair::connect(cluster.clone(), app, &dev, cq.clone(), LatencyModel::ZERO);
        qp.post_write(WrId(1), &mr, 0, Bytes::from_static(b"a"))
            .unwrap();
        qp.post_write(WrId(2), &mr, 1, Bytes::from_static(b"b"))
            .unwrap();
        // First completion swallowed, second doubled: two completions, both
        // for WR 2, and the dropped WR's bytes still landed.
        let wcs = wait_n(&cq, 2);
        let ids: Vec<u64> = wcs.iter().map(|(_, wc)| wc.wr_id.0).collect();
        assert_eq!(ids, vec![2, 2], "first dropped, second duplicated");
        assert_eq!(
            local.read_local(0, 2).unwrap(),
            b"ab",
            "a dropped completion must not unapply the write"
        );
        cluster.clear_faults();
    }

    /// Posts one doorbell batch of four 1-byte writes (ids 1..=4; `bad_rkey`
    /// names the id, if any, that carries a revoked key) under `plan`, on a
    /// threaded or an inline NIC, and returns the completions in arrival
    /// order, the consultations the schedule counted, and the peer's bytes.
    fn doorbell_under_plan(
        inline: bool,
        plan: &sim::FaultPlan,
        bad_rkey: Option<u64>,
    ) -> (Vec<(u64, WcStatus)>, u64, Option<Vec<u8>>) {
        use sim::{Binding, FaultScheduler};
        let (cluster, app, dev, peer) = setup();
        let (local, mr) = dev.register_mr(64).unwrap();
        let binding = Binding {
            peers: vec![peer],
            controller: app,
            app,
        };
        let scheduler = FaultScheduler::new(plan, binding);
        cluster.install_faults(scheduler.clone());
        let cq = CompletionQueue::new();
        let qp = QueuePair::connect_with_mode(
            cluster.clone(),
            app,
            &dev,
            cq.clone(),
            LatencyModel::ZERO,
            inline,
        );
        let wrs: Vec<WorkRequest> = (1..=4u64)
            .map(|i| WorkRequest::Write {
                wr_id: WrId(i),
                mr: if bad_rkey == Some(i) {
                    RemoteMr {
                        rkey: RKey(0xdead),
                        ..mr
                    }
                } else {
                    mr
                },
                offset: i as usize - 1,
                data: Bytes::from(vec![b'a' + i as u8 - 1]),
            })
            .collect();
        qp.post_many(&wrs).unwrap();
        let mut wcs = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        // Drops and duplicates change the count; wait for the last request's
        // completion (never dropped below) and one more quiet poll.
        while !wcs
            .iter()
            .any(|(_, wc): &(u32, WorkCompletion)| wc.wr_id == WrId(4))
            && Instant::now() < deadline
        {
            wcs.extend(cq.wait(Duration::from_millis(50)));
        }
        wcs.extend(cq.wait(Duration::from_millis(20)));
        cluster.clear_faults();
        cluster.restart(peer);
        (
            wcs.iter().map(|(_, wc)| (wc.wr_id.0, wc.status)).collect(),
            scheduler.steps(),
            local.read_local(0, 4),
        )
    }

    #[test]
    fn inline_batch_failure_mid_batch_flushes_the_rest() {
        let plan = sim::FaultPlan::new(1);
        let expect = vec![
            (1, WcStatus::Success),
            (2, WcStatus::RemoteAccessErr),
            (3, WcStatus::FlushErr),
            (4, WcStatus::FlushErr),
        ];
        for inline in [false, true] {
            let (wcs, steps, mem) = doorbell_under_plan(inline, &plan, Some(2));
            assert_eq!(wcs, expect, "inline={inline}");
            assert_eq!(steps, 5, "one doorbell + four wire consultations");
            assert_eq!(mem.unwrap(), [b'a', 0, 0, 0], "inline={inline}");
        }
    }

    #[test]
    fn inline_batch_meets_an_armed_schedule_at_the_same_request() {
        use sim::{FaultAction, FaultPlan, Trigger};
        // Consultation 1 is the doorbell, 2..=5 the four requests. The drop
        // armed at consultation 3 takes request 2's completion (its byte
        // still lands), the duplicate armed at 4 doubles request 3's.
        let wire = FaultPlan::new(1)
            .push(Trigger::Step(3), FaultAction::DropWr { peer: 0 })
            .push(Trigger::Step(4), FaultAction::DupWr { peer: 0 });
        let ok = WcStatus::Success;
        for inline in [false, true] {
            let (wcs, steps, mem) = doorbell_under_plan(inline, &wire, None);
            assert_eq!(
                wcs,
                vec![(1, ok), (3, ok), (3, ok), (4, ok)],
                "inline={inline}"
            );
            assert_eq!(steps, 5, "inline={inline}");
            assert_eq!(mem.unwrap(), *b"abcd", "inline={inline}");
        }
        // A crash armed at consultation 4 strikes between requests 2 and 3
        // of the same doorbell: 3 finds the peer gone, 4 is flushed.
        let crash = FaultPlan::new(2).push(Trigger::Step(4), FaultAction::CrashPeer(0));
        for inline in [false, true] {
            let (wcs, steps, mem) = doorbell_under_plan(inline, &crash, None);
            assert_eq!(
                wcs,
                vec![
                    (1, ok),
                    (2, ok),
                    (3, WcStatus::RetryExceeded),
                    (4, WcStatus::FlushErr)
                ],
                "inline={inline}"
            );
            assert_eq!(steps, 5, "inline={inline}");
            assert!(mem.is_none(), "the peer's memory went with the crash");
        }
    }

    #[test]
    fn a_crash_between_two_posts_fails_the_very_next_request() {
        // The poster runs on its own thread; channel hand-offs put the crash
        // strictly between its two posts. The second must not ride a stale
        // "cluster is healthy" answer.
        let (cluster, app, dev, peer) = setup();
        let (_local, mr) = dev.register_mr(64).unwrap();
        let cq = CompletionQueue::new();
        let qp = QueuePair::connect_with_mode(
            cluster.clone(),
            app,
            &dev,
            cq.clone(),
            LatencyModel::ZERO,
            true,
        );
        let (to_poster, from_main) = std::sync::mpsc::channel();
        let (to_main, from_poster) = std::sync::mpsc::channel();
        let poster = std::thread::spawn(move || {
            qp.post_write(WrId(1), &mr, 0, Bytes::from_static(b"a"))
                .unwrap();
            to_main.send(()).unwrap();
            from_main.recv().unwrap();
            qp.post_write(WrId(2), &mr, 1, Bytes::from_static(b"b"))
                .unwrap();
        });
        from_poster.recv().unwrap();
        cluster.crash(peer);
        to_poster.send(()).unwrap();
        poster.join().unwrap();
        let wcs = cq.poll();
        assert_eq!(wcs[0].1.status, WcStatus::Success);
        assert_eq!(wcs[1].1.status, WcStatus::RetryExceeded);
    }

    #[test]
    fn poll_into_appends_and_keeps_the_callers_buffer() {
        let (cluster, app, dev, _peer) = setup();
        let (_local, mr) = dev.register_mr(64).unwrap();
        let cq = CompletionQueue::new();
        let qp =
            QueuePair::connect_with_mode(cluster, app, &dev, cq.clone(), LatencyModel::ZERO, true);
        let mut buf = Vec::new();
        for round in 0..3u64 {
            qp.post_write(WrId(round), &mr, 0, Bytes::from_static(b"x"))
                .unwrap();
            cq.poll_into(&mut buf);
        }
        let ids: Vec<u64> = buf.iter().map(|(_, wc)| wc.wr_id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert!(cq.poll().is_empty());
    }

    #[test]
    fn injected_doorbell_stall_delays_submission() {
        use sim::{Binding, FaultAction, FaultPlan, FaultScheduler, Trigger};
        let (cluster, app, dev, peer) = setup();
        let (_local, mr) = dev.register_mr(64).unwrap();
        let plan = FaultPlan::new(2).push(
            Trigger::Step(1),
            FaultAction::StallDoorbell {
                peer: 0,
                by_us: 2_000,
            },
        );
        let binding = Binding {
            peers: vec![peer],
            controller: app,
            app,
        };
        cluster.install_faults(FaultScheduler::new(&plan, binding));
        let cq = CompletionQueue::new();
        let qp = QueuePair::connect(cluster.clone(), app, &dev, cq.clone(), LatencyModel::ZERO);
        let sw = sim::Stopwatch::start();
        qp.post_write(WrId(1), &mr, 0, Bytes::from_static(b"x"))
            .unwrap();
        assert!(
            sw.elapsed() >= Duration::from_micros(2_000),
            "the stall is paid at post time, before the send returns"
        );
        assert!(wait_n(&cq, 1)[0].1.is_success());
        cluster.clear_faults();
    }

    #[test]
    fn write_latency_is_charged() {
        let (cluster, app, dev, _peer) = setup();
        let (_local, mr) = dev.register_mr(64).unwrap();
        let cq = CompletionQueue::new();
        let lat = LatencyModel::from_nanos(200_000, 0.0, 0.0);
        let qp = QueuePair::connect(cluster, app, &dev, cq.clone(), lat);
        let sw = sim::Stopwatch::start();
        qp.post_write(WrId(1), &mr, 0, Bytes::from_static(b"x"))
            .unwrap();
        let wcs = wait_n(&cq, 1);
        assert!(wcs[0].1.is_success());
        assert!(sw.elapsed() >= Duration::from_micros(200));
    }

    /// `n` inline queue pairs from one node to `n` peers, sharing one CQ, on
    /// the calibrated fabric. The pipe carries no jitter: a 128-B write
    /// lands 1,540 ns after its doorbell starts, a 64-B one behind it at
    /// 1,560 — numbers the model assigns, so the tests compare them exactly.
    fn calibrated_inline_qps(
        n: usize,
    ) -> (
        Cluster,
        sim::Binding,
        Vec<(QueuePair, RemoteMr)>,
        CompletionQueue,
    ) {
        let cluster = Cluster::new();
        let app = cluster.add_node("app");
        let cq = CompletionQueue::new();
        let mut peers = Vec::new();
        let qps = (0..n)
            .map(|i| {
                let peer = cluster.add_node(format!("peer{i}"));
                peers.push(peer);
                let dev = RdmaDevice::new(cluster.clone(), peer, LatencyModel::ZERO);
                let (_local, mr) = dev.register_mr(256).unwrap();
                let lat = LatencyModel::rdma_write();
                let qp =
                    QueuePair::connect_with_mode(cluster.clone(), app, &dev, cq.clone(), lat, true);
                (qp, mr)
            })
            .collect();
        let binding = sim::Binding {
            peers,
            controller: app,
            app,
        };
        (cluster, binding, qps, cq)
    }

    /// An NCL record as one peer sees it: 128 B of data, then a 64-B header.
    fn data_then_header(mr: RemoteMr) -> [WorkRequest; 2] {
        [128usize, 64].map(|len| WorkRequest::Write {
            wr_id: WrId(len as u64),
            mr,
            offset: 0,
            data: Bytes::from(vec![7u8; len]),
        })
    }

    fn wire_ns_on(qp: &QueuePair, wcs: &[(u32, WorkCompletion)]) -> Vec<u64> {
        wcs.iter()
            .filter(|(qp_num, _)| *qp_num == qp.qp_num())
            .map(|(_, wc)| wc.wire_ns)
            .collect()
    }

    #[test]
    fn inline_qps_rung_at_one_instant_fly_together() {
        let (_cluster, _binding, qps, cq) = calibrated_inline_qps(3);
        let t = Instant::now();
        for (qp, mr) in &qps {
            qp.post_many_at(t, &data_then_header(*mr)).unwrap();
        }
        // The poster waited out every flight: nothing lands after the post.
        let wcs = cq.poll();
        assert_eq!(wcs.len(), 6);
        assert!(t.elapsed() >= Duration::from_nanos(1_560));
        for (qp, _) in &qps {
            assert_eq!(wire_ns_on(qp, &wcs), [1_540, 1_560]);
        }
    }

    #[test]
    fn an_inline_qp_never_flies_two_doorbells_at_once() {
        // A second doorbell of the same instant queues behind the first's
        // bytes (60 ns of wire), not behind its landing.
        let (_cluster, _binding, qps, cq) = calibrated_inline_qps(1);
        let (qp, mr) = &qps[0];
        let t = Instant::now();
        qp.post_many_at(t, &data_then_header(*mr)).unwrap();
        qp.post_many_at(t, &data_then_header(*mr)).unwrap();
        assert_eq!(wire_ns_on(qp, &cq.poll()), [1_540, 1_560, 1_600, 1_620]);
    }

    #[test]
    fn an_injected_wire_delay_holds_back_its_own_queue_pair_only() {
        use sim::{FaultAction, FaultPlan, FaultScheduler, Trigger};
        let (cluster, binding, qps, cq) = calibrated_inline_qps(2);
        // Armed by the first doorbell, taken by the first request behind it.
        let delay = FaultAction::DelayWr { peer: 0, by_us: 50 };
        let plan = FaultPlan::new(1).push(Trigger::Step(1), delay);
        cluster.install_faults(FaultScheduler::new(&plan, binding));
        let t = Instant::now();
        for (qp, mr) in &qps {
            qp.post_many_at(t, &data_then_header(*mr)).unwrap();
        }
        let wcs = cq.poll();
        assert_eq!(wire_ns_on(&qps[0].0, &wcs), [51_540, 51_560]);
        assert_eq!(wire_ns_on(&qps[1].0, &wcs), [1_540, 1_560]);
        cluster.clear_faults();
    }

    #[test]
    fn inline_flights_start_when_a_stalled_doorbell_ends() {
        use sim::{FaultAction, FaultPlan, FaultScheduler, Trigger};
        let (cluster, binding, qps, cq) = calibrated_inline_qps(1);
        let stall = FaultAction::StallDoorbell { peer: 0, by_us: 50 };
        let plan = FaultPlan::new(1).push(Trigger::Step(1), stall);
        cluster.install_faults(FaultScheduler::new(&plan, binding));
        let (qp, mr) = &qps[0];
        qp.post_many(&data_then_header(*mr)).unwrap();
        let wire = wire_ns_on(qp, &cq.poll());
        assert!(wire[0] >= 51_540, "stall + data flight, got {wire:?}");
        assert_eq!(wire[1] - wire[0], 20);
        cluster.clear_faults();
    }

    #[test]
    fn both_engines_price_a_doorbell_by_one_formula() {
        let (cluster, app, dev, _peer) = setup();
        let (_local, mr) = dev.register_mr(2048).unwrap();
        let gather = WorkRequest::WriteSg {
            wr_id: WrId(1),
            mr,
            offset: 0,
            slices: vec![Bytes::from(vec![7u8; 64]); 16],
        };
        let [_, header] = data_then_header(mr);
        let doorbells = [data_then_header(mr), [gather, header]];
        let [threaded, inline] = [false, true].map(|inline| {
            let cq = CompletionQueue::new();
            let lat = LatencyModel::rdma_write();
            let qp =
                QueuePair::connect_with_mode(cluster.clone(), app, &dev, cq.clone(), lat, inline);
            doorbells.each_ref().map(|wrs| {
                qp.post_many(wrs).unwrap();
                wire_ns_on(&qp, &wait_n(&cq, 2))
            })
        });
        assert_eq!(threaded, inline);
        assert_eq!(inline, [[1_540, 1_560], [1_827, 1_847]]);
    }

    #[test]
    fn a_crash_between_two_flights_of_a_doorbell_fails_the_second() {
        use sim::{Binding, FaultAction, FaultPlan, FaultScheduler, Trigger};
        // Consultation 1 is the doorbell, 2 and 3 the two requests: the peer
        // dies after the first has flown and landed. The latency is all base
        // (no serialization), so on the engine thread the failed request's
        // target is never ahead of the clock and delivery re-checks nothing.
        let plan = FaultPlan::new(1).push(Trigger::Step(3), FaultAction::CrashPeer(0));
        for inline in [false, true] {
            let (cluster, app, dev, peer) = setup();
            let (_local, mr) = dev.register_mr(256).unwrap();
            let binding = Binding {
                peers: vec![peer],
                controller: app,
                app,
            };
            cluster.install_faults(FaultScheduler::new(&plan, binding));
            let cq = CompletionQueue::new();
            let lat = LatencyModel::from_nanos(1_500, 0.0, 0.0);
            let qp =
                QueuePair::connect_with_mode(cluster.clone(), app, &dev, cq.clone(), lat, inline);
            qp.post_many(&data_then_header(mr)).unwrap();
            let status: Vec<WcStatus> = wait_n(&cq, 2).iter().map(|(_, wc)| wc.status).collect();
            assert_eq!(
                status,
                [WcStatus::Success, WcStatus::RetryExceeded],
                "inline={inline}"
            );
            assert!(qp.is_errored(), "inline={inline}");
            qp.post_write(WrId(9), &mr, 0, Bytes::from_static(b"x"))
                .unwrap();
            assert_eq!(
                wait_n(&cq, 1)[0].1.status,
                WcStatus::FlushErr,
                "inline={inline}"
            );
            cluster.clear_faults();
        }
    }
}
