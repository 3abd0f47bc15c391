//! Queue pairs and completion queues.
//!
//! A [`QueuePair`] models a reliable-connected (RC) queue pair: work requests
//! posted to its send queue are executed **in post order**, and their
//! completions appear **in the same order** on the associated
//! [`CompletionQueue`]. This is the ordering guarantee NCL's replication
//! protocol relies on (§4.4 of the paper): posting the data WR before the
//! sequence-number WR ensures the sequence number is never visible on a peer
//! without its data.
//!
//! The NIC owns no thread and nobody waits inside a post. A post applies
//! each request to the peer's region and prices its flight (`Pipe::send`)
//! on the poster's thread, hands the completions to the completion queue
//! with the instant the model assigns each, its `due`, and returns; whoever
//! next reaps that queue lands what is due.
//!
//! The rule of landing: a completion whose flight took modelled time is
//! re-checked against the link when it lands, each on its own `due`.
//! A link severed by then turns a success into [`WcStatus::RetryExceeded`]
//! and errors the queue pair, although the bytes are in the peer's region:
//! "landed, ack lost", which the protocol's prefix rule tolerates.
//!
//! Selective signalling: a request that succeeds at its post and is not its
//! doorbell's last gets no flight and no completion; it is still consulted,
//! priced, applied and counted (one failing at post is signalled, as verbs
//! always report errors), and a doorbell of one signals its request. QP
//! order makes the last completion — NCL's header — imply the rest, and it
//! lands later on the same link and is re-checked there: a body whose link
//! is still severed fails its header, and a link that heals within the
//! header's serialization gap is one a real RC retry would also survive.
//!
//! Multiple queue pairs may share one completion queue (as in real verbs);
//! completions carry the `qp_num` so the consumer can attribute them.

use std::borrow::{Borrow, Cow};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Condvar, Mutex, MutexGuard};
use sim::{Cluster, FaultSite, LatencyModel, NodeId, SimError, WireFault};
use telemetry::HistHandle;

use crate::device::{RdmaDevice, RemoteMr};
use crate::types::{WcStatus, WorkCompletion, WrId};

static NEXT_QP_NUM: AtomicU32 = AtomicU32::new(1);

/// `sim::time`'s spin range: a deadline this near is waited out by its clock
/// poll; a condvar's timed sleep would overshoot it by more than a flight.
const SPIN_RANGE: Duration = Duration::from_micros(20);

/// A work request, built by the caller and posted with
/// [`QueuePair::post_many_at`] (or one of the single-WR convenience methods).
///
/// A write borrows its source bytes, as a verbs WR names a registered local
/// buffer instead of carrying a copy: NCL posts straight from its staging
/// image. A post applies every request before it returns, so no borrow
/// outlives the call that posts it. (`Write`'s `data` also takes an owned
/// buffer, for callers that have nothing to borrow from.)
///
/// `WriteSg` is a scatter-gather WRITE: the source slices are gathered in
/// order and applied contiguously from `offset` as one work request with one
/// completion — the verbs `sg_list` idiom. `S` is a gather element: a
/// borrowed slice, or the caller's `Bytes` for [`QueuePair::post_write_sg`].
#[derive(Debug, Clone)]
pub enum WorkRequest<'a, S = &'a [u8]> {
    /// One-sided RDMA WRITE of `data` at `offset` within `mr`.
    Write {
        wr_id: WrId,
        mr: RemoteMr,
        offset: usize,
        data: Cow<'a, [u8]>,
    },
    /// One-sided RDMA WRITE gathering `slices` contiguously at `offset`.
    WriteSg {
        wr_id: WrId,
        mr: RemoteMr,
        offset: usize,
        slices: &'a [S],
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

impl<S: AsRef<[u8]>> WorkRequest<'_, S> {
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
            WorkRequest::WriteSg { slices, .. } => slices.iter().map(|s| s.as_ref().len()).sum(),
            WorkRequest::Read { len, .. } => *len,
        }
    }
}

/// `(qp_num, completion)` pairs, as a completion queue hands them out.
type Completions = Vec<(u32, WorkCompletion)>;

/// A completion between its request's post and its landing.
struct Flight {
    due: Instant,
    /// Whether the flight took modelled time: only then can the link have
    /// changed since the post checked it.
    flew: bool,
    /// The wire fault point's verdict on the request, honoured at landing.
    verdict: WireFault,
    wc: WorkCompletion,
}

#[derive(Default)]
struct CqState {
    /// Landed completions, in landing order.
    ready: Completions,
    /// Completions in flight, by `due` with ties in arrival order: a queue
    /// pair's `due`s are monotone, so each one's completions stay in post
    /// order however many share the queue.
    flying: VecDeque<(Arc<Link>, Flight)>,
}

impl CqState {
    /// Lands every flight whose `due` has passed.
    fn land_due(&mut self, now: Instant) {
        while self.flying.front().is_some_and(|(_, f)| f.due <= now) {
            let (link, flight) = self.flying.pop_front().expect("front just seen");
            link.land(flight, &mut self.ready);
        }
    }
}

#[derive(Default)]
struct CqInner {
    state: Mutex<CqState>,
    /// Notified with `state` held, which `wait` also checks and sleeps under:
    /// what the waiter-counted `Condvar` needs to skip an unheard wake-up.
    available: Condvar,
}

/// A completion queue, shareable across queue pairs.
///
/// Entries are `(qp_num, completion)` pairs in completion order. The queue
/// holds the completions flying to it too: a reap first lands what is due.
#[derive(Clone, Default)]
pub struct CompletionQueue {
    inner: Arc<CqInner>,
}

impl CompletionQueue {
    /// Creates an empty completion queue.
    pub fn new() -> Self {
        CompletionQueue::default()
    }

    /// Takes one doorbell's completions: one queue lock, one condvar notify (a
    /// sleeper in `wait` re-reads the earliest `due`). A
    /// flight that took no modelled time is due at an instant its poster has
    /// read: it lands here, behind whatever was due before it, clock unread.
    fn accept(&self, link: &Arc<Link>, flights: &mut Vec<Flight>) {
        if flights.is_empty() {
            return;
        }
        let mut st = self.inner.state.lock();
        for flight in flights.drain(..) {
            if flight.flew {
                let at = st.flying.partition_point(|(_, f)| f.due <= flight.due);
                st.flying.insert(at, (Arc::clone(link), flight));
            } else {
                st.land_due(flight.due);
                link.land(flight, &mut st.ready);
            }
        }
        self.inner.available.notify_all();
    }

    /// The queue with every completion whose `due` has passed landed. With
    /// nothing in flight it reads no clock.
    fn reaped(&self) -> MutexGuard<'_, CqState> {
        let mut st = self.inner.state.lock();
        if !st.flying.is_empty() {
            st.land_due(sim::time::now());
        }
        st
    }

    /// Drains all available completions without blocking.
    pub fn poll(&self) -> Vec<(u32, WorkCompletion)> {
        std::mem::take(&mut self.reaped().ready)
    }

    /// [`CompletionQueue::poll`] into a buffer the caller reuses: the
    /// completions are appended to `out`, and both `out` and the queue keep
    /// their capacity, so a steady poll loop allocates nothing.
    pub fn poll_into(&self, out: &mut Vec<(u32, WorkCompletion)>) {
        out.append(&mut self.reaped().ready);
    }

    /// When the earliest completion in flight lands, if any is: whether a
    /// reap now would be in vain.
    pub fn next_due(&self) -> Option<Instant> {
        self.inner.state.lock().flying.front().map(|(_, f)| f.due)
    }

    /// Blocks until at least one completion is available (or `timeout`
    /// expires) and drains the queue. Returns an empty vector on timeout.
    pub fn wait(&self, timeout: Duration) -> Vec<(u32, WorkCompletion)> {
        std::mem::take(&mut self.awaited(timeout).0.ready)
    }

    /// [`CompletionQueue::wait`] that leaves what it landed on the queue, for
    /// a [`CompletionQueue::poll_into`] under the caller's own lock, and
    /// returns the clock reading it ended on — the instant of that landing —
    /// or `None` if it read no clock.
    pub fn wait_landed(&self, timeout: Duration) -> Option<Instant> {
        self.awaited(timeout).1
    }

    /// The queue once a completion is available or `timeout` has expired.
    ///
    /// With nothing in flight this is a sleep a doorbell ends, and what is
    /// already landed ends it at once: clock unread either way. Otherwise it
    /// sleeps to the earliest `due` and lands it; a doorbell ends that sleep
    /// too, since its flights may land sooner.
    fn awaited(&self, timeout: Duration) -> (MutexGuard<'_, CqState>, Option<Instant>) {
        let mut st = self.inner.state.lock();
        if st.ready.is_empty() && st.flying.is_empty() {
            self.inner.available.wait_for(&mut st, timeout);
        }
        if !st.ready.is_empty() || st.flying.is_empty() {
            return (st, None);
        }
        let mut now = sim::time::now();
        let deadline = now + timeout;
        loop {
            st.land_due(now);
            if !st.ready.is_empty() || now >= deadline {
                return (st, Some(now));
            }
            let next = st.flying.front().map_or(deadline, |(_, f)| f.due);
            let until = next.min(deadline);
            if until - now <= SPIN_RANGE {
                drop(st);
                now = sim::delay_until(until);
                st = self.inner.state.lock();
            } else {
                self.inner.available.wait_for(&mut st, until - now);
                now = sim::time::now();
            }
        }
    }
}

/// The wire of one queue pair, as a real RC QP behaves: a request occupies
/// the link for its serialization time (the per-byte term) from
/// `max(free, posted_at)`, and lands one propagation delay (the base term)
/// after its last byte has left — so back-to-back requests share one
/// propagation and stay in post order (`free` and `due` are monotone).
struct Pipe {
    latency: LatencyModel,
    /// When the last byte sent so far has left the wire (not when it lands).
    free: Instant,
    /// When the last request sent so far lands.
    due: Instant,
}

impl Pipe {
    /// Occupies the wire for `d`; returns the instant it is free again.
    fn occupy(&mut self, posted_at: Instant, d: Duration) -> Instant {
        self.free = self.free.max(posted_at) + d;
        self.free
    }

    /// Sends `bytes` for a request posted at `posted_at`; returns its `due`.
    fn send(&mut self, posted_at: Instant, bytes: usize) -> Instant {
        let ser = Duration::from_nanos((self.latency.per_byte_ns * bytes as f64) as u64);
        self.due = self.occupy(posted_at, ser) + self.latency.base;
        self.due
    }

    /// A request posted at `posted_at` that never reaches the wire (flushed,
    /// or its peer unreachable) completes with the one before it.
    fn skip(&mut self, posted_at: Instant) -> Instant {
        self.due = self.due.max(posted_at);
        self.due
    }
}

/// What a landing needs of the queue pair that posted the request; shared,
/// so that a completion in flight outlives its [`QueuePair`].
struct Link {
    qp_num: u32,
    local: NodeId,
    remote: NodeId,
    cluster: Cluster,
    errored: AtomicBool,
    /// Optional wire-span histogram: post→completion nanoseconds per WR,
    /// stamped once per doorbell. Installed after connect: callers that
    /// don't measure see no change.
    wire_hist: OnceLock<HistHandle>,
}

impl Link {
    /// Lands one completion into `out`: re-checks the link if the flight
    /// took modelled time (the module doc's rule), then honours an
    /// injected drop or duplication. A dropped completion is "landed, ack
    /// lost" again: the request *was* applied. Error completions are always
    /// delivered (a real RC QP surfaces retry exhaustion to the requester
    /// even when remote acks are lost).
    fn land(&self, flight: Flight, out: &mut Completions) {
        let (verdict, mut wc) = (flight.verdict, flight.wc);
        let severed = || self.cluster.can_reach(self.local, self.remote).is_err();
        if flight.flew && wc.status == WcStatus::Success && severed() {
            wc.status = WcStatus::RetryExceeded;
            wc.read_data = None;
            self.errored.store(true, Ordering::SeqCst);
        }
        match verdict {
            WireFault::DropCompletion if wc.status == WcStatus::Success => {}
            WireFault::DuplicateCompletion => {
                out.push((self.qp_num, wc.clone()));
                out.push((self.qp_num, wc));
            }
            _ => out.push((self.qp_num, wc)),
        }
    }
}

/// A reliable connection from a local node to a remote device's memory.
///
/// Work requests are executed in post order; once any request fails, the QP
/// is in the error state and subsequent requests flush with
/// [`WcStatus::FlushErr`] (callers reconnect with a fresh QP, as `ncl-lib`
/// does when it replaces a failed peer).
///
/// Paid once per doorbell: the doorbell fault point, the send-queue lock
/// (which also keeps two threads' doorbells from interleaving their requests)
/// and one hand-over to the completion queue. Paid per request, because an
/// armed schedule, a crash or a partition may strike between any two: the
/// wire fault point, the error-state and reachability checks, the remote
/// apply and the flight's price. Queue pairs rung at one instant fly
/// together; a second doorbell queues behind the first's bytes, not its
/// landing; an injected wire delay occupies the pipe, holding back its own
/// request and everything behind it on this queue pair only.
pub struct QueuePair {
    link: Arc<Link>,
    remote_dev: RdmaDevice,
    cq: CompletionQueue,
    /// The send queue: the wire, and the running doorbell's completions,
    /// handed to `cq` together (reused: no allocation).
    sq: Mutex<(Pipe, Vec<Flight>)>,
}

impl QueuePair {
    /// Connects `local_node` to `remote_dev`, posting completions to `cq`; a
    /// post returns with its requests applied and their completions flying.
    ///
    /// `latency` is charged per work request: the per-byte term serializes
    /// on the wire, the base term is propagation that overlaps across
    /// back-to-back requests (see `Pipe`). Connection setup itself is
    /// control-plane work and is charged by the caller.
    pub fn connect(
        cluster: Cluster,
        local_node: NodeId,
        remote_dev: &RdmaDevice,
        cq: CompletionQueue,
        latency: LatencyModel,
    ) -> Self {
        Self::connect_with_mode(cluster, local_node, remote_dev, cq, latency, false)
    }

    /// [`QueuePair::connect`]. `_inline` once made a post wait for its own
    /// completions; it is kept for source compatibility and has no effect.
    pub fn connect_with_mode(
        cluster: Cluster,
        local_node: NodeId,
        remote_dev: &RdmaDevice,
        cq: CompletionQueue,
        latency: LatencyModel,
        _inline: bool,
    ) -> Self {
        let now = sim::time::now();
        let pipe = Pipe {
            latency,
            free: now,
            due: now,
        };
        QueuePair {
            link: Arc::new(Link {
                qp_num: NEXT_QP_NUM.fetch_add(1, Ordering::Relaxed),
                local: local_node,
                remote: remote_dev.node(),
                cluster,
                errored: AtomicBool::new(false),
                wire_hist: OnceLock::new(),
            }),
            remote_dev: remote_dev.clone(),
            cq,
            sq: Mutex::new((pipe, Vec::new())),
        }
    }

    /// Installs a histogram of the nanoseconds from post (doorbell) to
    /// completion of every work request — the wire span of the record
    /// lifecycle — from now on; the first one installed stays for the queue
    /// pair's life. A request's `wire_ns` is the model's number, known when
    /// it is posted, so a doorbell stamps its requests there, in one
    /// [`HistHandle`] stamp: one sample per request, all at the
    /// doorbell's mean, sum exact.
    pub fn set_wire_hist(&self, hist: HistHandle) {
        let _ = self.link.wire_hist.set(hist);
    }

    /// This queue pair's number (used to attribute shared-CQ completions).
    pub fn qp_num(&self) -> u32 {
        self.link.qp_num
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
            data: Cow::Borrowed(&data),
        })
    }

    /// Posts a scatter-gather WRITE: `slices` are gathered in order and
    /// written contiguously from `offset` within `mr`, as one work request.
    pub fn post_write_sg(
        &self,
        wr_id: WrId,
        mr: &RemoteMr,
        offset: usize,
        slices: Vec<Bytes>,
    ) -> Result<(), SimError> {
        let gather = WorkRequest::WriteSg {
            wr_id,
            mr: *mr,
            offset,
            slices: &slices[..],
        };
        self.ring(sim::time::now(), [gather])
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

    /// Posts a doorbell batch: all of `wrs` with one "doorbell ring".
    /// Execution keeps post order exactly as if the requests had been posted
    /// one by one; the saving is the per-doorbell overhead and, on the wire,
    /// one shared propagation tail (see `Pipe`). Only the last request, and
    /// any that fails, is signalled (the module doc's selective signalling).
    pub fn post_many(&self, wrs: &[WorkRequest<'_>]) -> Result<(), SimError> {
        self.post_many_at(sim::time::now(), wrs)
    }

    /// [`QueuePair::post_many`] for a doorbell rung at `posted_at`, a past
    /// instant several queue pairs may share: the flights (and `wire_ns`)
    /// start there, not when this call happens to run, so one caller's
    /// doorbells to different peers overlap, the posts' own CPU under them.
    /// `wrs` may be a slice or requests built as they are posted, so a
    /// doorbell of any length needs no buffer.
    pub fn post_many_at<'a, W: Borrow<WorkRequest<'a>>>(
        &self,
        posted_at: Instant,
        wrs: impl IntoIterator<Item = W>,
    ) -> Result<(), SimError> {
        self.ring(posted_at, wrs)
    }

    /// Rings one doorbell for `wrs`, whatever a gather's elements are:
    /// `post_many_at` fixes them to borrowed slices, so a caller's requests
    /// need no type annotation, and `post_write_sg` gathers `Bytes`.
    fn ring<'a, S, W>(
        &self,
        posted_at: Instant,
        wrs: impl IntoIterator<Item = W>,
    ) -> Result<(), SimError>
    where
        S: AsRef<[u8]> + 'a,
        W: Borrow<WorkRequest<'a, S>>,
    {
        let mut wrs = wrs.into_iter().peekable();
        if wrs.peek().is_none() {
            return Ok(());
        }
        let (link, site) = (&*self.link, FaultSite::Doorbell);
        // Doorbell fault point: an injected stall delays the submission itself
        // (the requester-side "NIC didn't see the doorbell" case) before any
        // request executes, and the flights start when it ends.
        let mut start = posted_at;
        if let WireFault::Delay(d) = link.cluster.fault_point(site, link.local, link.remote) {
            sim::delay(d);
            start = sim::time::now();
        }
        let mut sq = self.sq.lock();
        let (pipe, flying) = &mut *sq;
        let (mut wire_ns, mut posted) = (0, 0);
        while let Some(wr) = wrs.next() {
            let wr = wr.borrow();
            let verdict = link
                .cluster
                .fault_point(FaultSite::Wire, link.local, link.remote);
            // An injected delay holds back this request and all behind it.
            if let WireFault::Delay(d) = verdict {
                pipe.occupy(start, d);
            }
            let (status, read_data) = self.execute(wr);
            let due = match status {
                WcStatus::FlushErr | WcStatus::RetryExceeded => pipe.skip(start),
                // A gathered write is one request, one wire occupancy.
                WcStatus::Success | WcStatus::RemoteAccessErr => pipe.send(start, wr.wire_bytes()),
            };
            if status != WcStatus::Success {
                link.errored.store(true, Ordering::SeqCst);
            }
            let wc = WorkCompletion {
                wr_id: wr.wr_id(),
                status,
                read_data,
                wire_ns: due.duration_since(posted_at).as_nanos() as u64,
            };
            (wire_ns, posted) = (wire_ns + wc.wire_ns, posted + 1);
            // Verbs always report an error; an unsignalled success is silent.
            if status == WcStatus::Success && wrs.peek().is_some() {
                continue;
            }
            flying.push(Flight {
                due,
                flew: due > start,
                verdict,
                wc,
            });
        }
        if let Some(hist) = link.wire_hist.get() {
            hist.record_n([(wire_ns, posted)]);
        }
        self.cq.accept(&self.link, flying);
        Ok(())
    }

    /// A doorbell of one.
    fn post(&self, wr: WorkRequest<'_>) -> Result<(), SimError> {
        self.ring(sim::time::now(), [wr])
    }

    /// Executes one request now: flushed if the queue pair is in the error
    /// state, failed if the peer cannot be reached, applied to its region
    /// (the device checks rkey, bounds and revocation) otherwise.
    fn execute<S: AsRef<[u8]>>(&self, wr: &WorkRequest<'_, S>) -> (WcStatus, Option<Bytes>) {
        let (link, dev) = (&self.link, &self.remote_dev);
        if link.errored.load(Ordering::SeqCst) {
            return (WcStatus::FlushErr, None);
        }
        if link.cluster.can_reach(link.local, link.remote).is_err() {
            return (WcStatus::RetryExceeded, None);
        }
        let result = match wr {
            WorkRequest::Write {
                mr, offset, data, ..
            } => dev.apply_remote(mr.mr_id, mr.rkey, *offset, Some(data), 0),
            WorkRequest::WriteSg {
                mr, offset, slices, ..
            } => dev
                .apply_remote_sg(mr.mr_id, mr.rkey, *offset, slices)
                .map(|()| None),
            WorkRequest::Read {
                mr, offset, len, ..
            } => dev.apply_remote(mr.mr_id, mr.rkey, *offset, None, *len),
        };
        match result {
            Ok(read_data) => (WcStatus::Success, read_data),
            Err(()) => (WcStatus::RemoteAccessErr, None),
        }
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
        assert!(qp.link.errored.load(Ordering::SeqCst));
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
    fn a_post_applies_at_once_and_a_flight_of_no_time_is_there_for_the_next_poll() {
        let (cluster, app, dev, peer) = setup();
        let (local, mr) = dev.register_mr(64).unwrap();
        let cq = CompletionQueue::new();
        let zero = LatencyModel::ZERO;
        let qp = QueuePair::connect(cluster.clone(), app, &dev, cq.clone(), zero);
        // Writes apply immediately; with no modelled flight the
        // completions are there for the next poll.
        qp.post_write(WrId(1), &mr, 0, Bytes::from_static(b"inl"))
            .unwrap();
        assert_eq!(local.read_local(0, 3).unwrap(), b"inl");
        let wcs = cq.poll();
        assert_eq!(wcs.len(), 1);
        assert!(wcs[0].1.is_success());
        // Reads carry data.
        qp.post_read(WrId(2), &mr, 0, 3).unwrap();
        assert_eq!(cq.poll()[0].1.read_data.as_deref(), Some(&b"inl"[..]));
        // Errors still transition the QP to the error state and flush.
        cluster.crash(peer);
        qp.post_write(WrId(3), &mr, 0, Bytes::from_static(b"x"))
            .unwrap();
        assert_eq!(cq.poll()[0].1.status, WcStatus::RetryExceeded);
        assert!(qp.link.errored.load(Ordering::SeqCst));
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
                data: i.to_le_bytes().to_vec().into(),
            })
            .chain(std::iter::once(WorkRequest::Read {
                wr_id: WrId(99),
                mr,
                offset: 0,
                len: 8,
            }))
            .collect();
        qp.post_many(&wrs).unwrap();
        // Only the last request is signalled; it read what the writes ahead
        // of it left, so they ran first.
        let wcs = wait_n(&cq, 1);
        let ids: Vec<u64> = wcs.iter().map(|(_, wc)| wc.wr_id.0).collect();
        assert_eq!(ids, [99], "one completion, the batch's last");
        assert!(wcs[0].1.is_success());
        assert_eq!(local.read_local(8 * 31, 8).unwrap(), 31u64.to_le_bytes());
        assert_eq!(wcs[0].1.read_data.as_deref(), Some(&0u64.to_le_bytes()[..]));
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
                data: b"a"[..].into(),
            },
            WorkRequest::Write {
                wr_id: WrId(2),
                mr: bad,
                offset: 0,
                data: b"b"[..].into(),
            },
            WorkRequest::Write {
                wr_id: WrId(3),
                mr,
                offset: 0,
                data: b"c"[..].into(),
            },
        ];
        qp.post_many(&wrs).unwrap();
        // The success ahead of the error is unsignalled; every error is not.
        let wcs = wait_n(&cq, 2);
        assert_eq!(wcs[0].1.status, WcStatus::RemoteAccessErr);
        assert_eq!(wcs[1].1.status, WcStatus::FlushErr);
        assert!(qp.link.errored.load(Ordering::SeqCst));
    }

    #[test]
    fn post_many_applies_a_write_and_a_gather_before_it_returns() {
        let (cluster, app, dev, _peer) = setup();
        let (local, mr) = dev.register_mr(64).unwrap();
        let cq = CompletionQueue::new();
        let qp = QueuePair::connect(cluster, app, &dev, cq.clone(), LatencyModel::ZERO);
        let gathered: [&[u8]; 2] = [b"cd", b"ef"];
        let wrs = [
            WorkRequest::Write {
                wr_id: WrId(1),
                mr,
                offset: 0,
                data: b"ab"[..].into(),
            },
            WorkRequest::WriteSg {
                wr_id: WrId(2),
                mr,
                offset: 2,
                slices: &gathered,
            },
        ];
        qp.post_many(&wrs).unwrap();
        assert_eq!(local.read_local(0, 6).unwrap(), b"abcdef");
        let wcs = cq.poll();
        assert_eq!(wcs.len(), 1, "the gather, the last request, is signalled");
        assert_eq!(wcs[0].1.wr_id, WrId(2));
        assert!(wcs[0].1.is_success());
    }

    #[test]
    fn doorbell_batch_overlaps_propagation() {
        // 8 batched requests pay one overlapped propagation tail, not 8
        // round trips: with base = 200 µs and no bandwidth term the batch
        // must finish far sooner than 8 × base.
        let (cluster, app, dev, _peer) = setup();
        let (_local, mr) = dev.register_mr(1024).unwrap();
        let cq = CompletionQueue::new();
        let lat = LatencyModel::from_nanos(200_000, 0.0);
        let qp = QueuePair::connect(cluster, app, &dev, cq.clone(), lat);
        let wrs: Vec<WorkRequest> = (0..8u64)
            .map(|i| WorkRequest::Write {
                wr_id: WrId(i),
                mr,
                offset: (i as usize) * 8,
                data: i.to_le_bytes().to_vec().into(),
            })
            .collect();
        let sw = Instant::now();
        qp.post_many(&wrs).unwrap();
        let wcs = wait_n(&cq, 1);
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
        let lat = LatencyModel::from_nanos(50_000, 0.0);
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
    /// names the id, if any, that carries a revoked key) under `plan` and
    /// returns the completions in arrival order, the consultations the
    /// schedule counted, and the peer's bytes.
    fn doorbell_under_plan(
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
        let qp = QueuePair::connect(cluster.clone(), app, &dev, cq.clone(), LatencyModel::ZERO);
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
                data: vec![b'a' + i as u8 - 1].into(),
            })
            .collect();
        qp.post_many_at(Instant::now(), &wrs).unwrap();
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
    fn a_batch_failure_mid_batch_under_a_schedule_flushes_the_rest() {
        let plan = sim::FaultPlan::new(1);
        let expect = vec![
            (2, WcStatus::RemoteAccessErr),
            (3, WcStatus::FlushErr),
            (4, WcStatus::FlushErr),
        ];
        let (wcs, steps, mem) = doorbell_under_plan(&plan, Some(2));
        assert_eq!(
            wcs, expect,
            "every error is signalled, the success before it is not"
        );
        assert_eq!(steps, 5, "one doorbell + four wire consultations");
        assert_eq!(mem.unwrap(), [b'a', 0, 0, 0]);
    }

    #[test]
    fn a_batch_meets_an_armed_schedule_at_the_same_request() {
        use sim::{FaultAction, FaultPlan, Trigger};
        // Consultation 1 is the doorbell, 2..=5 the four requests. A drop
        // armed at consultation 3 meets request 2, which has no completion
        // to lose (its byte still lands); the duplicate armed at 5 doubles
        // request 4's, the one signalled.
        let wire = FaultPlan::new(1)
            .push(Trigger::Step(3), FaultAction::DropWr { peer: 0 })
            .push(Trigger::Step(5), FaultAction::DupWr { peer: 0 });
        let ok = WcStatus::Success;
        let (wcs, steps, mem) = doorbell_under_plan(&wire, None);
        assert_eq!(wcs, vec![(4, ok), (4, ok)]);
        assert_eq!(steps, 5);
        assert_eq!(mem.unwrap(), *b"abcd");
    }

    #[test]
    fn an_unsignalled_request_meets_every_fault_point_its_signalled_twin_does() {
        use sim::{FaultAction, FaultPlan, Trigger};
        // Only the last request is signalled, but every request consults the
        // wire fault point: a crash armed at consultation `k` strikes request
        // `k - 1` exactly, which is then the first to fail (an error is
        // always signalled) and flushes the rest.
        let (retry, flushed) = (WcStatus::RetryExceeded, WcStatus::FlushErr);
        for (k, expect) in [
            (3, vec![(2, retry), (3, flushed), (4, flushed)]),
            (4, vec![(3, retry), (4, flushed)]),
            (5, vec![(4, retry)]),
        ] {
            let crash = FaultPlan::new(2).push(Trigger::Step(k), FaultAction::CrashPeer(0));
            let (wcs, steps, mem) = doorbell_under_plan(&crash, None);
            assert_eq!(wcs, expect, "crash at consultation {k}");
            assert_eq!(steps, 5, "one doorbell + four wire consultations");
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
        let qp = QueuePair::connect(cluster.clone(), app, &dev, cq.clone(), LatencyModel::ZERO);
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
        let qp = QueuePair::connect(cluster, app, &dev, cq.clone(), LatencyModel::ZERO);
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
        let sw = Instant::now();
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
        let lat = LatencyModel::from_nanos(200_000, 0.0);
        let qp = QueuePair::connect(cluster, app, &dev, cq.clone(), lat);
        let sw = Instant::now();
        qp.post_write(WrId(1), &mr, 0, Bytes::from_static(b"x"))
            .unwrap();
        let wcs = wait_n(&cq, 1);
        assert!(wcs[0].1.is_success());
        assert!(sw.elapsed() >= Duration::from_micros(200));
    }

    /// `n` queue pairs from one node to `n` peers, sharing one CQ, on the
    /// calibrated fabric. The pipe carries no jitter: a 128-B write
    /// lands 1,540 ns after its doorbell starts, a 64-B one behind it at
    /// 1,560 — numbers the model assigns, so the tests compare them exactly.
    fn calibrated_qps(
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
                let qp = QueuePair::connect(cluster.clone(), app, &dev, cq.clone(), lat);
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
    fn data_then_header(mr: RemoteMr) -> [WorkRequest<'static>; 2] {
        [128usize, 64].map(|len| WorkRequest::Write {
            wr_id: WrId(len as u64),
            mr,
            offset: 0,
            data: vec![7u8; len].into(),
        })
    }

    fn wire_ns_on(qp: &QueuePair, wcs: &[(u32, WorkCompletion)]) -> Vec<u64> {
        wcs.iter()
            .filter(|(qp_num, _)| *qp_num == qp.qp_num())
            .map(|(_, wc)| wc.wire_ns)
            .collect()
    }

    #[test]
    fn qps_rung_at_one_instant_fly_together() {
        let (_cluster, _binding, qps, cq) = calibrated_qps(3);
        let t = Instant::now();
        for (qp, mr) in &qps {
            qp.post_many_at(t, data_then_header(*mr)).unwrap();
        }
        // Nobody waited inside a post: every header is still in the air.
        assert_eq!(cq.next_due(), Some(t + Duration::from_nanos(1_560)));
        let wcs = wait_n(&cq, 3);
        assert_eq!(wcs.len(), 3);
        assert!(t.elapsed() >= Duration::from_nanos(1_560));
        for (qp, _) in &qps {
            assert_eq!(wire_ns_on(qp, &wcs), [1_560]);
        }
    }

    #[test]
    fn a_qp_never_flies_two_doorbells_at_once() {
        // A second doorbell of the same instant queues behind the first's
        // bytes (60 ns of wire), not behind its landing.
        let (_cluster, _binding, qps, cq) = calibrated_qps(1);
        let (qp, mr) = &qps[0];
        let t = Instant::now();
        qp.post_many_at(t, data_then_header(*mr)).unwrap();
        qp.post_many_at(t, data_then_header(*mr)).unwrap();
        assert_eq!(wire_ns_on(qp, &wait_n(&cq, 2)), [1_560, 1_620]);
    }

    #[test]
    fn an_injected_wire_delay_holds_back_its_own_queue_pair_only() {
        use sim::{FaultAction, FaultPlan, FaultScheduler, Trigger};
        let (cluster, binding, qps, cq) = calibrated_qps(2);
        // Armed by the first doorbell, taken by the first request behind it.
        let delay = FaultAction::DelayWr { peer: 0, by_us: 50 };
        let plan = FaultPlan::new(1).push(Trigger::Step(1), delay);
        cluster.install_faults(FaultScheduler::new(&plan, binding));
        let t = Instant::now();
        for (qp, mr) in &qps {
            qp.post_many_at(t, data_then_header(*mr)).unwrap();
        }
        let wcs = wait_n(&cq, 2);
        assert_eq!(wire_ns_on(&qps[0].0, &wcs), [51_560]);
        assert_eq!(wire_ns_on(&qps[1].0, &wcs), [1_560]);
        cluster.clear_faults();
    }

    #[test]
    fn flights_start_when_a_stalled_doorbell_ends() {
        use sim::{FaultAction, FaultPlan, FaultScheduler, Trigger};
        let (cluster, binding, qps, cq) = calibrated_qps(1);
        let stall = FaultAction::StallDoorbell { peer: 0, by_us: 50 };
        let plan = FaultPlan::new(1).push(Trigger::Step(1), stall);
        cluster.install_faults(FaultScheduler::new(&plan, binding));
        let (qp, mr) = &qps[0];
        qp.post_many(&data_then_header(*mr)).unwrap();
        let wire = wire_ns_on(qp, &wait_n(&cq, 1));
        assert!(
            wire[0] >= 51_560,
            "stall + data and header flight, got {wire:?}"
        );
        cluster.clear_faults();
    }

    #[test]
    fn a_doorbell_is_priced_by_one_formula() {
        let (cluster, app, dev, _peer) = setup();
        let (_local, mr) = dev.register_mr(2048).unwrap();
        let gather = WorkRequest::WriteSg {
            wr_id: WrId(1),
            mr,
            offset: 0,
            slices: &[&[7u8; 64][..]; 16],
        };
        let [_, header] = data_then_header(mr);
        let doorbells = [data_then_header(mr), [gather, header]];
        let cq = CompletionQueue::new();
        let lat = LatencyModel::rdma_write();
        let qp = QueuePair::connect(cluster, app, &dev, cq.clone(), lat);
        let wire = doorbells.each_ref().map(|wrs| {
            qp.post_many(wrs).unwrap();
            wire_ns_on(&qp, &wait_n(&cq, 1))
        });
        // The header lands behind its body's bytes: 20 ns of its own.
        assert_eq!(wire, [[1_560], [1_847]]);
    }

    #[test]
    fn a_crash_between_two_flights_of_a_doorbell_fails_the_second() {
        use sim::{Binding, FaultAction, FaultPlan, FaultScheduler, Trigger};
        // Consultation 1 is the doorbell, 2 and 3 the two requests: the peer
        // dies at the second request's fault point. The post has applied the
        // first, unsignalled, and the second finds the peer gone: its error
        // is the doorbell's one completion.
        let plan = FaultPlan::new(1).push(Trigger::Step(3), FaultAction::CrashPeer(0));
        let (cluster, app, dev, peer) = setup();
        let (_local, mr) = dev.register_mr(256).unwrap();
        let binding = Binding {
            peers: vec![peer],
            controller: app,
            app,
        };
        cluster.install_faults(FaultScheduler::new(&plan, binding));
        let cq = CompletionQueue::new();
        let lat = LatencyModel::from_nanos(1_500, 0.0);
        let qp = QueuePair::connect(cluster.clone(), app, &dev, cq.clone(), lat);
        qp.post_many(&data_then_header(mr)).unwrap();
        let status: Vec<WcStatus> = wait_n(&cq, 1).iter().map(|(_, wc)| wc.status).collect();
        assert_eq!(status, [WcStatus::RetryExceeded]);
        assert!(qp.link.errored.load(Ordering::SeqCst));
        qp.post_write(WrId(9), &mr, 0, Bytes::from_static(b"x"))
            .unwrap();
        assert_eq!(wait_n(&cq, 1)[0].1.status, WcStatus::FlushErr);
        cluster.clear_faults();
    }

    #[test]
    fn a_link_severed_under_a_flying_completion_loses_the_ack_not_the_write() {
        let (cluster, app, dev, peer) = setup();
        let (local, mr) = dev.register_mr(64).unwrap();
        let cq = CompletionQueue::new();
        let lat = LatencyModel::rdma_write();
        let qp = QueuePair::connect(cluster.clone(), app, &dev, cq.clone(), lat);
        qp.post_write(WrId(1), &mr, 0, Bytes::from_static(b"landed"))
            .unwrap();
        // Nobody has reaped the queue: the completion is still in flight.
        cluster.partition(app, peer);
        let wcs = wait_n(&cq, 1);
        assert_eq!(wcs[0].1.status, WcStatus::RetryExceeded);
        assert!(qp.link.errored.load(Ordering::SeqCst));
        assert_eq!(local.read_local(0, 6).unwrap(), b"landed");
    }

    #[test]
    fn queue_pairs_sharing_a_cq_land_in_due_order_and_each_in_post_order() {
        let cluster = Cluster::new();
        let app = cluster.add_node("app");
        let cq = CompletionQueue::new();
        let [slow, fast] = [2_000_000, 1_000_000].map(|base_ns| {
            let peer = cluster.add_node(format!("peer-{base_ns}"));
            let dev = RdmaDevice::new(cluster.clone(), peer, LatencyModel::ZERO);
            let (_local, mr) = dev.register_mr(64).unwrap();
            let lat = LatencyModel::from_nanos(base_ns, 0.0);
            (
                QueuePair::connect(cluster.clone(), app, &dev, cq.clone(), lat),
                mr,
            )
        });
        // Four doorbells of one instant, slow and fast by turns.
        let t = Instant::now();
        for (id, (qp, mr)) in [(1, &slow), (2, &fast), (3, &slow), (4, &fast)] {
            let write = WorkRequest::Write {
                wr_id: WrId(id),
                mr: *mr,
                offset: 0,
                data: b"x"[..].into(),
            };
            qp.post_many_at(t, &[write]).unwrap();
        }
        assert_eq!(cq.next_due(), Some(t + Duration::from_millis(1)));
        let landed: Vec<(u32, u64, u64)> = wait_n(&cq, 4)
            .iter()
            .map(|(qp_num, wc)| (*qp_num, wc.wr_id.0, wc.wire_ns))
            .collect();
        let (s, f) = (slow.0.qp_num(), fast.0.qp_num());
        assert_eq!(
            landed,
            [
                (f, 2, 1_000_000),
                (f, 4, 1_000_000),
                (s, 1, 2_000_000),
                (s, 3, 2_000_000)
            ]
        );
        assert_eq!(cq.next_due(), None);
    }

    #[test]
    fn a_wait_shorter_than_the_flight_times_out_and_a_poll_after_due_delivers() {
        let (cluster, app, dev, _peer) = setup();
        let (_local, mr) = dev.register_mr(64).unwrap();
        let cq = CompletionQueue::new();
        let flight = Duration::from_millis(100);
        let lat = LatencyModel::from_nanos(flight.as_nanos() as u64, 0.0);
        let qp = QueuePair::connect(cluster, app, &dev, cq.clone(), lat);
        let t = Instant::now();
        qp.post_many_at(t, data_then_header(mr)).unwrap();
        let timeout = Duration::from_millis(1);
        assert!(cq.wait(timeout).is_empty());
        assert!(t.elapsed() >= timeout);
        assert!(cq.poll().is_empty(), "still in flight");
        std::thread::sleep((t + flight).saturating_duration_since(Instant::now()));
        assert_eq!(cq.poll().len(), 2);
    }

    #[test]
    fn a_post_from_another_thread_ends_a_sleep_on_an_empty_cq_at_its_due() {
        let (cluster, app, dev, _peer) = setup();
        let (_local, mr) = dev.register_mr(64).unwrap();
        let cq = CompletionQueue::new();
        let flight = Duration::from_millis(5);
        let lat = LatencyModel::from_nanos(flight.as_nanos() as u64, 0.0);
        let qp = QueuePair::connect(cluster, app, &dev, cq.clone(), lat);
        let (asleep, waiter_ready) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                asleep.send(()).unwrap();
                // Its own timeout is an hour away.
                let wcs = cq.wait(Duration::from_secs(3_600));
                (wcs, Instant::now())
            });
            waiter_ready.recv().unwrap();
            // Either order passes; the pause makes the sleeping waiter likely.
            std::thread::sleep(Duration::from_millis(2));
            let t = Instant::now();
            qp.post_many_at(t, data_then_header(mr)).unwrap();
            let (wcs, returned_at) = waiter.join().unwrap();
            assert_eq!(wcs.len(), 2);
            assert!(returned_at >= t + flight);
        });
    }

    #[test]
    fn a_dropped_queue_pair_leaves_its_flying_completions_deliverable() {
        let (cluster, app, dev, _peer) = setup();
        let (local, mr) = dev.register_mr(64).unwrap();
        let cq = CompletionQueue::new();
        let lat = LatencyModel::from_nanos(1_000_000, 0.0);
        let qp = QueuePair::connect(cluster, app, &dev, cq.clone(), lat);
        let qp_num = qp.qp_num();
        qp.post_write(WrId(1), &mr, 0, Bytes::from_static(b"kept"))
            .unwrap();
        drop(qp);
        let wcs = wait_n(&cq, 1);
        assert_eq!((wcs[0].0, wcs[0].1.status), (qp_num, WcStatus::Success));
        assert_eq!(local.read_local(0, 4).unwrap(), b"kept");
    }

    #[test]
    fn a_reap_with_nothing_in_flight_reads_no_clock() {
        let (cluster, app, dev, _peer) = setup();
        let (_local, mr) = dev.register_mr(64).unwrap();
        let cq = CompletionQueue::new();
        let qp = QueuePair::connect(cluster, app, &dev, cq.clone(), LatencyModel::ZERO);
        let ((), reads) = sim::time::audited(|| {
            assert!(cq.poll().is_empty());
            assert!(cq.wait(Duration::from_millis(1)).is_empty());
            assert_eq!(cq.next_due(), None);
        });
        assert_eq!(reads, 0, "empty");
        // A flight that took no modelled time landed with its post: not in
        // flight either, and a wait finds it without asking when.
        qp.post_write(WrId(1), &mr, 0, Bytes::from_static(b"x"))
            .unwrap();
        let mut buf = Vec::new();
        let ((), reads) = sim::time::audited(|| cq.poll_into(&mut buf));
        assert_eq!((buf.len(), reads), (1, 0));
        qp.post_write(WrId(2), &mr, 0, Bytes::from_static(b"y"))
            .unwrap();
        let (landed_at, reads) = sim::time::audited(|| cq.wait_landed(Duration::from_secs(5)));
        assert_eq!((landed_at, reads), (None, 0));
        assert_eq!(cq.poll().len(), 1);
    }

    #[test]
    fn a_completion_of_no_flight_lands_behind_the_flights_due_before_it() {
        let (cluster, app, dev, peer) = setup();
        let (_local, mr) = dev.register_mr(64).unwrap();
        let cq = CompletionQueue::new();
        let lat = LatencyModel::rdma_write();
        let qp = QueuePair::connect(cluster.clone(), app, &dev, cq.clone(), lat);
        qp.post_write(WrId(1), &mr, 0, Bytes::from_static(b"x"))
            .unwrap();
        let due = cq.next_due().expect("in flight: nobody has reaped");
        sim::delay_until(due);
        // Unreachable: the request never reaches the wire, its completion
        // takes no flight and lands with the post, the first ahead of it.
        cluster.partition(app, peer);
        qp.post_write(WrId(2), &mr, 0, Bytes::from_static(b"y"))
            .unwrap();
        assert_eq!(cq.next_due(), None);
        let ids: Vec<u64> = cq.poll().iter().map(|(_, wc)| wc.wr_id.0).collect();
        assert_eq!(ids, [1, 2]);
    }

    /// Two 128-B bodies and a 64-B header, as NCL bursts a pair of records.
    fn burst(mr: RemoteMr) -> [WorkRequest<'static>; 3] {
        [(2, 128, b'b'), (4, 128, b'c'), (5, 64, b'h')].map(|(id, len, byte)| WorkRequest::Write {
            wr_id: WrId(id),
            mr,
            offset: if id == 5 {
                0
            } else {
                64 + 128 * (id as usize / 2 - 1)
            },
            data: vec![byte; len].into(),
        })
    }

    #[test]
    fn a_burst_signalling_its_header_lands_one_completion_at_the_headers_due() {
        let (cluster, app, dev, _peer) = setup();
        let (local, mr) = dev.register_mr(320).unwrap();
        let cq = CompletionQueue::new();
        let qp = QueuePair::connect(cluster, app, &dev, cq.clone(), LatencyModel::rdma_write());
        let tel = telemetry::Telemetry::new();
        qp.set_wire_hist(tel.histogram("rdma.wr.wire"));
        let t = Instant::now();
        qp.post_many_at(t, burst(mr)).unwrap();
        // The bodies still occupy the wire: 40 + 40 + 20 ns, one propagation.
        assert_eq!(cq.next_due(), Some(t + Duration::from_nanos(1_600)));
        let wcs = wait_n(&cq, 1);
        sim::delay_until(t + Duration::from_micros(20));
        assert!(cq.poll().is_empty(), "no body completion behind it");
        let header: Vec<_> = wcs.iter().map(|(_, wc)| (wc.wr_id.0, wc.wire_ns)).collect();
        assert_eq!(header, [(5, 1_600)]);
        assert!(wcs[0].1.is_success());
        // Every request was applied, and every one counts on the wire.
        let region = local.read_local(0, 320).unwrap();
        assert_eq!((region[0], region[64], region[192]), (b'h', b'b', b'c'));
        let s = tel.snapshot().summary("rdma.wr.wire").unwrap();
        assert_eq!(s.count, 3);
        assert_eq!((s.mean_ns * 3.0).round(), (1_540 + 1_580 + 1_600) as f64);
    }

    #[test]
    fn an_unsignalled_body_to_a_revoked_region_still_fails_its_header() {
        let (cluster, app, dev, _peer) = setup();
        let (_local, mr) = dev.register_mr(320).unwrap();
        let cq = CompletionQueue::new();
        let qp = QueuePair::connect(cluster, app, &dev, cq.clone(), LatencyModel::rdma_write());
        dev.invalidate(mr.mr_id);
        qp.post_many_at(Instant::now(), burst(mr)).unwrap();
        let wcs = wait_n(&cq, 3);
        let statuses: Vec<_> = wcs.iter().map(|(_, wc)| (wc.wr_id.0, wc.status)).collect();
        let flushed = WcStatus::FlushErr;
        assert_eq!(
            statuses,
            [(2, WcStatus::RemoteAccessErr), (4, flushed), (5, flushed)]
        );
    }

    #[test]
    fn wait_landed_says_when_and_leaves_the_completions_for_a_poll() {
        let (_cluster, _binding, qps, cq) = calibrated_qps(1);
        let (qp, mr) = &qps[0];
        let t = Instant::now();
        qp.post_many_at(t, data_then_header(*mr)).unwrap();
        let landed_at = cq.wait_landed(Duration::from_secs(5)).expect("a flight");
        assert!(landed_at >= t + Duration::from_nanos(1_560));
        assert!(landed_at <= Instant::now());
        assert_eq!(wait_n(&cq, 1).len(), 1);
    }
}
