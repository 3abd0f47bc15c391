//! Peer slots, completion absorption, and the acknowledgement watermark:
//! the `rep` half of a file's state, the lock-free published acked state,
//! the durability barrier ([`NclFile::wait_durable`]) where all write-path
//! failure handling lives, and the one wait for a list of completions that
//! the catch-up and recovery transfers use.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::MutexGuard;
use rdma::{CompletionQueue, QueuePair, RemoteMr, WcStatus, WorkCompletion, WorkRequest, WrId};
use telemetry::{spans, Burst, ScopeId};

use super::recovery::RecoveryStats;
use super::repair::RepairStats;
use super::scheme;
use super::staging::{FileMetrics, FlushReason};
use super::{Ctx, NclFile};
use crate::config::NclConfig;
use crate::detector::{Backoff, PhiDetector};
use crate::layout::{RegionHeader, HEADER_SIZE};
use crate::lockaudit;
use crate::registry::PeerEndpoint;
use crate::NclError;

/// Attention bit: a completion reported a peer failure not yet repaired.
const ATTN_FAILURE: u32 = 1;
/// Attention bit: fewer than `f + 1` peers are alive.
const ATTN_NO_QUORUM: u32 = 2;

/// The lock-free published acknowledgement state of one file.
///
/// `refresh_durable` (under the `rep` lock, on the durability waiter that
/// ran it) publishes the quorum watermark and the attention bits here;
/// [`NclFile::wait_durable`] observes them with two atomic loads and
/// returns without touching a mutex when the awaited record is already
/// acked and nothing needs attention.
///
/// The attention bits may lag a failure absorbed-but-not-yet-refreshed by
/// at most one `refresh_durable` call. That is sound: a fast-path return
/// linearizes at the moment the watermark was published, when the record
/// was durable on a quorum and no failure had been observed — the same
/// answer a barrier at that instant would have given. The failure is
/// sticky in `Rep::failure_seen` and the very next refresh publishes it,
/// so repair is never lost, only (briefly) not yet visible.
pub(super) struct AckedState {
    /// Highest sequence number durable on the acknowledgement quorum.
    pub watermark: AtomicU64,
    /// [`ATTN_FAILURE`] | [`ATTN_NO_QUORUM`]; non-zero sends every barrier
    /// down the slow path where repair lives.
    attention: AtomicU32,
}

impl AckedState {
    pub fn new(durable: u64) -> Arc<Self> {
        Arc::new(AckedState {
            watermark: AtomicU64::new(durable),
            attention: AtomicU32::new(0),
        })
    }

    /// True when a barrier on `seq` can return without locking anything.
    #[inline]
    fn fast_acked(&self, seq: u64) -> bool {
        self.attention.load(Ordering::Acquire) == 0 && self.watermark.load(Ordering::Acquire) >= seq
    }

    /// Publishes a new watermark/attention pair. Callers hold the `rep`
    /// lock, so publications are serialized. The `Release` store pairs
    /// with `fast_acked`'s `Acquire` load: a barrier that reads these
    /// attention bits also reads a watermark at least this new.
    fn publish(&self, durable: u64, attention: u32) {
        self.watermark.fetch_max(durable, Ordering::AcqRel);
        self.attention.store(attention, Ordering::Release);
    }
}

/// One posted-but-not-yet-acked burst, the records `burst.seq`; queued in
/// sequence order in [`Rep::flights`] and retired when the durability
/// watermark passes its last record. Bounded by the pipeline window.
pub(super) struct Flight {
    /// Σ(entry − `burst.entry`) over the burst's records, ns: what the
    /// `e2e` stamp subtracts from `records() · (durable − burst.entry)`.
    pub entry_ns: u64,
    /// The burst's instants and wire spans as they are observed, recorded
    /// as one entry when it retires.
    pub burst: Burst,
}

impl Flight {
    /// The burst's last record: a header completion covers the burst, and
    /// the watermark retires it, once it reaches this one.
    pub fn hi(&self) -> u64 {
        self.burst.seq.1
    }

    /// Records in the burst: its sequence numbers are consecutive.
    fn records(&self) -> u64 {
        self.hi() - self.burst.seq.0 + 1
    }
}

/// Recovery responders: each peer that answered, with the region header it
/// served.
pub(super) type Responders = Vec<(PeerSlot, RegionHeader)>;

/// One peer of the file's peer set: its region, its queue pair, and what
/// the completions so far say about it.
pub(super) struct PeerSlot {
    pub name: String,
    /// `name`, interned once so the per-peer spans of the completion path
    /// never touch the interner.
    pub scope: ScopeId,
    pub endpoint: PeerEndpoint,
    pub mr: RemoteMr,
    pub qp: QueuePair,
    /// Highest sequence number whose data + header completed on this peer.
    /// Also what its wire spans go by: a header completing `s` credits this
    /// peer with the flights in `(completed_seq, s]`, once each.
    pub completed_seq: u64,
    /// Position in the file's peer set, which the scheme addresses per-peer
    /// encodings by. Stable across the slot's lifetime; a replacement
    /// inherits the dead slot's row.
    pub row: u32,
    pub alive: bool,
    /// Adaptive phi-accrual detector fed by this peer's completions; lets a
    /// gray (silent-but-connected) peer be suspected long before the record
    /// deadline.
    pub detector: PhiDetector,
}

impl PeerSlot {
    /// Connects a queue pair (completing into `cq`) to the region `mr` that
    /// peer `name` lent this file.
    pub fn connect(
        ctx: &Ctx,
        name: String,
        endpoint: PeerEndpoint,
        mr: RemoteMr,
        cq: &CompletionQueue,
    ) -> PeerSlot {
        let qp = QueuePair::connect_with_mode(
            ctx.cluster.clone(),
            ctx.node,
            &endpoint.device,
            cq.clone(),
            ctx.config.rdma,
            ctx.config.inline_nic,
        );
        if ctx.config.telemetry.is_enabled() {
            qp.set_wire_hist(ctx.config.telemetry.histogram("rdma.wr.wire"));
        }
        PeerSlot {
            scope: ScopeId::of(&name),
            name,
            endpoint,
            mr,
            qp,
            completed_seq: 0,
            row: 0,
            alive: true,
            detector: PhiDetector::new(sim::time::now()),
        }
    }
}

/// Replication state: peer slots and completion bookkeeping. Locked briefly
/// to post work requests or absorb completions; all blocking happens on the
/// completion queue with no lock held. Lock order is `stage` before `rep`.
pub(super) struct Rep {
    pub peers: Vec<PeerSlot>,
    /// `qp_num → index into peers`, so absorbing a completion is a map
    /// lookup rather than a linear scan (ordered: with a handful of peers a
    /// few key compares beat hashing the number); rebuilt whenever slots
    /// change. Completions from replaced peers simply miss the map.
    slot_of_qp: BTreeMap<u32, usize>,
    pub cq: CompletionQueue,
    pub epoch: u64,
    /// Highest sequence number acknowledged durable (prefix on a quorum).
    durable_seq: u64,
    /// A completion reported a peer failure that has not been repaired yet.
    pub failure_seen: bool,
    /// Completions that could not be attributed to a slot, kept for a
    /// [`RepWait`]: one-off RDMA reads (`wr_id ≥ u64::MAX - 2`) and fresh
    /// replacement peers mid-catch-up, until the repair commits.
    pub stray: Vec<(u32, WorkCompletion)>,
    /// Set while the file is short of peers: a replacement was deferred (no
    /// spare while a quorum was still alive), or the file opened on an ack
    /// quorum. The instant is when a barrier next retries it, one
    /// `reattach_probe` after the open or the last attempt;
    /// [`NclFile::maintain`] retries at once.
    pub repair_due: Option<Instant>,
    /// Posted-but-not-durable bursts being timed, one flight each (empty
    /// with telemetry disabled). Registered at the back in sequence order,
    /// retired from the front in [`Rep::refresh_durable`]; size is bounded
    /// by the pipeline window. A header completion finds the flights it
    /// newly covers by binary search on [`Flight::hi`] — a full scan per
    /// completion is O(window) under the `rep` lock and visibly stalls
    /// concurrent doorbells at deep windows.
    pub flights: VecDeque<Flight>,
    /// Every flight whose last record is at or below this sequence number
    /// has had its wire stamp taken by some peer's header completion.
    /// Advanced monotonically in [`Rep::absorb`]; flights are registered in
    /// sequence order before their headers can complete, so nothing is ever
    /// inserted below it.
    wire_covered_seq: u64,
    /// Reused by [`Rep::drain`] and [`Rep::refresh_durable`], so the
    /// steady-state completion path allocates nothing.
    wc_buf: Vec<(u32, WorkCompletion)>,
    seq_scratch: Vec<u64>,
    metrics: Arc<FileMetrics>,
    /// Shared with the owning [`NclFile`]; republished after every
    /// watermark refresh so the barrier fast path stays current.
    acked: Arc<AckedState>,
    pub last_recovery: RecoveryStats,
    pub last_repair: RepairStats,
}

impl Rep {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        peers: Vec<PeerSlot>,
        cq: CompletionQueue,
        epoch: u64,
        durable_seq: u64,
        repair_due: Option<Instant>,
        metrics: Arc<FileMetrics>,
        acked: Arc<AckedState>,
        last_recovery: RecoveryStats,
    ) -> Self {
        let mut rep = Rep {
            peers,
            slot_of_qp: BTreeMap::new(),
            cq,
            epoch,
            durable_seq,
            failure_seen: false,
            stray: Vec::new(),
            repair_due,
            flights: VecDeque::new(),
            wire_covered_seq: 0,
            wc_buf: Vec::new(),
            seq_scratch: Vec::new(),
            metrics,
            acked,
            last_recovery,
            last_repair: RepairStats::default(),
        };
        rep.rebuild_qp_map();
        rep
    }

    pub fn rebuild_qp_map(&mut self) {
        self.slot_of_qp = self
            .peers
            .iter()
            .enumerate()
            .map(|(i, s)| (s.qp.qp_num(), i))
            .collect();
    }

    fn alive(&self) -> usize {
        self.peers.iter().filter(|s| s.alive).count()
    }

    /// Marks slot `idx` dead on a failed completion. `failure_seen` is
    /// sticky: it sends the next barrier down the repair path.
    fn declare_dead(&mut self, idx: usize, why: &str) {
        self.peers[idx].alive = false;
        self.failure_seen = true;
        let name = &self.peers[idx].name;
        self.metrics
            .tel
            .fact(spans::PEER_FAILURE, name, self.epoch, why);
    }

    /// Applies the completions in `wcs` (emptying it) to the slots, as of
    /// `now`, the instant they were taken off the queue. Unattributable
    /// completions are parked in `stray`.
    fn absorb(&mut self, wcs: &mut Vec<(u32, WorkCompletion)>, now: Instant) {
        for (qp_num, wc) in wcs.drain(..) {
            if wc.wr_id.0 >= u64::MAX - 2 {
                // One-off RDMA read (recovery lookup / read_remote): a
                // failure still means the peer died; the data (or error) is
                // routed to the waiter via `stray`.
                if wc.status != WcStatus::Success {
                    if let Some(&idx) = self.slot_of_qp.get(&qp_num) {
                        self.declare_dead(idx, "one-off read failed");
                    }
                }
                self.stray.push((qp_num, wc));
                continue;
            }
            let Some(&idx) = self.slot_of_qp.get(&qp_num) else {
                // A fresh peer's catch-up, or a stale completion from a
                // replaced peer that the next repair's commit drops.
                self.stray.push((qp_num, wc));
                continue;
            };
            let slot = &mut self.peers[idx];
            if !slot.alive {
                continue;
            }
            match wc.status {
                WcStatus::Success => {
                    slot.detector.heartbeat(now);
                    // Header writes carry odd ids 2s+1; data writes even 2s.
                    if wc.wr_id.0 % 2 == 1 {
                        let seq = wc.wr_id.0 / 2;
                        let prev = slot.completed_seq;
                        slot.completed_seq = prev.max(seq);
                        if self.metrics.enabled && !self.flights.is_empty() {
                            self.credit_wire(idx, prev, seq, wc.wire_ns, now);
                        }
                    }
                }
                _ => self.declare_dead(idx, "work request failed"),
            }
        }
    }

    /// Notes what a header completion for `seq` from peer `idx` (whose
    /// headers had completed through `prev`), observed at `now`, ends: the
    /// wire stage of the flights it is the first to cover, and this peer's
    /// wire span of each flight it newly covers. A coalesced header
    /// acknowledges every flight at or below it.
    fn credit_wire(&mut self, idx: usize, prev: u64, seq: u64, wire_ns: u64, now: Instant) {
        let (flights, scope) = (&mut self.flights, self.peers[idx].scope);
        let through =
            |flights: &VecDeque<Flight>, seq: u64| flights.partition_point(|f| f.hi() <= seq);
        // The wire stage ends at the first peer whose header covers the
        // burst. Every flight at or below `wire_covered_seq` was covered by
        // an earlier header, so this one only touches the flights it newly
        // covers — never the whole in-flight window.
        if seq > self.wire_covered_seq {
            let newly = through(flights, self.wire_covered_seq)..through(flights, seq);
            for flight in flights.range_mut(newly) {
                let at = flight.burst.ns(now);
                flight.burst.cover(at);
            }
            self.wire_covered_seq = seq;
        }
        // Each peer's wire span of a flight starts at its own post →
        // completion time, the model's number, back from `now`.
        if seq > prev {
            let newly = through(flights, prev)..through(flights, seq);
            for flight in flights.range_mut(newly) {
                let end = flight.burst.ns(now);
                let tel = &self.metrics.tel;
                tel.add_wire(&mut flight.burst, scope, self.epoch, (wire_ns, end));
            }
        }
    }

    /// Drains the completion queue without blocking and applies the result
    /// as of `landed_at`, the reading a wait just landed it at, or of a
    /// reading of its own. Returns that instant, which the refresh that
    /// follows closes its spans with: one clock read per landing, not per
    /// completion.
    pub fn drain(&mut self, landed_at: Option<Instant>) -> Instant {
        let mut wcs = std::mem::take(&mut self.wc_buf);
        self.cq.poll_into(&mut wcs);
        let now = landed_at.unwrap_or_else(sim::time::now);
        self.absorb(&mut wcs, now);
        self.wc_buf = wcs;
        now
    }

    /// Declares alive-but-silent peers holding back `awaited_seq` suspect,
    /// per the adaptive phi detector, so a gray peer stalls a barrier for
    /// the detector's horizon instead of the full record deadline. Suspects
    /// go through the normal dead-peer path (replacement at the next epoch).
    fn suspect_stalled(&mut self, config: &NclConfig, awaited_seq: u64, now: Instant) {
        let epoch = self.epoch;
        for slot in self.peers.iter_mut() {
            if slot.alive
                && slot.completed_seq < awaited_seq
                && slot.detector.is_suspect(now, config.detect_timeout)
            {
                slot.alive = false;
                self.failure_seen = true;
                self.metrics.tel.fact(
                    spans::PEER_SUSPECT,
                    &slot.name,
                    epoch,
                    format!(
                        "phi={:.1} silence={:?} awaiting seq={awaited_seq}",
                        slot.detector.phi(now),
                        slot.detector.silence(now)
                    ),
                );
            }
        }
    }

    /// Advances `durable_seq` to the highest sequence number complete on the
    /// acknowledgement quorum, as of `now`. Monotonic: peer replacement
    /// catches fresh peers up to the full staged image before they join, so
    /// the watermark never has to move backwards.
    pub fn refresh_durable(&mut self, config: &NclConfig, now: Instant) {
        let mut seqs = std::mem::take(&mut self.seq_scratch);
        seqs.clear();
        seqs.extend(
            self.peers
                .iter()
                .filter(|s| s.alive)
                .map(|s| s.completed_seq),
        );
        let candidate = scheme::ack_watermark(&mut seqs, config.quorum());
        self.seq_scratch = seqs;
        let prev = self.durable_seq;
        self.durable_seq = prev.max(candidate.unwrap_or(prev));
        // Retire flights the watermark just passed, oldest first: one stamp
        // set and one ring entry each.
        let metrics = &self.metrics;
        let mut retired = 0;
        for flight in self.flights.iter_mut() {
            if flight.hi() > self.durable_seq {
                break;
            }
            let (n, burst) = (flight.records(), &mut flight.burst);
            let (posted, durable) = (burst.posted_ns(), burst.ns(now));
            // A burst no header covered (a repair's catch-up made it
            // durable) has no wire stage, and its ack runs from the post.
            let (wire, first) = match burst.first_peer_ns() {
                Some(first) => ((n * first.saturating_sub(posted), n), first),
                None => ((0, 0), posted),
            };
            // Σ(durable − entry) = n·(durable − t0) − Σ(entry − t0).
            let e2e = n * durable - flight.entry_ns;
            let ack = n * durable.saturating_sub(first);
            metrics.stages.retire.record_n([wire, (ack, n), (e2e, n)]);
            burst.retire(self.epoch, durable);
            metrics.tel.record_burst(burst);
            retired += 1;
        }
        self.flights.drain(..retired);
        self.publish_acked(config);
    }

    /// Republishes the lock-free acked state from the authoritative `rep`
    /// fields. Called under the `rep` lock (waiter loop, repair commit), so
    /// publications never race each other.
    pub fn publish_acked(&self, config: &NclConfig) {
        let mut attention = 0;
        if self.failure_seen {
            attention |= ATTN_FAILURE;
        }
        if self.alive() < config.quorum() {
            attention |= ATTN_NO_QUORUM;
        }
        self.acked.publish(self.durable_seq, attention);
    }
}

impl NclFile {
    /// Acquires the replication lock through the lock-audit hook.
    #[inline]
    pub(super) fn rep_guard(&self) -> MutexGuard<'_, Rep> {
        lockaudit::note_lock();
        self.rep.lock()
    }

    /// Highest sequence number known durable on an acknowledgement quorum.
    /// Reads the published watermark: lock-free.
    pub fn durable_seq(&self) -> u64 {
        self.acked.watermark.load(Ordering::Acquire)
    }

    /// Current ap-map epoch.
    pub fn epoch(&self) -> u64 {
        self.rep_guard().epoch
    }

    /// Names of the currently assigned peers (alive ones first-class; dead
    /// ones pending replacement are excluded).
    pub fn peer_names(&self) -> Vec<String> {
        self.rep_guard()
            .peers
            .iter()
            .filter(|s| s.alive)
            .map(|s| s.name.clone())
            .collect()
    }

    /// Reads directly from a peer via one-sided RDMA, bypassing the local
    /// buffer — the "NCL no prefetch" variant measured in Figure 11(a).
    pub fn read_remote(&self, offset: u64, len: usize) -> Result<Vec<u8>, NclError> {
        let flen = {
            let stage = self.stage_guard();
            if !stage.scheme.ships_image() {
                // No peer holds a readable image of the file. Read from the
                // local staging buffer instead.
                return Err(NclError::Rejected(
                    "read_remote unsupported: the durability scheme keeps no file image on peers"
                        .to_string(),
                ));
            }
            stage.image.len
        };
        let n = len.min(flen.saturating_sub(offset) as usize);
        if n == 0 {
            return Ok(Vec::new());
        }
        let wr = WrId(u64::MAX - 2);
        let qp_num = {
            let mut rep = self.rep_guard();
            // Clear leftovers of an earlier timed-out read before reposting.
            rep.stray.retain(|(_, wc)| wc.wr_id != wr);
            let slot = rep
                .peers
                .iter()
                .find(|s| s.alive)
                .ok_or_else(|| NclError::QuorumUnavailable("no live peer".to_string()))?;
            slot.qp
                .post_read(wr, &slot.mr, HEADER_SIZE + offset as usize, n)
                .map_err(|e| NclError::Unavailable(e.to_string()))?;
            slot.qp.qp_num()
        };
        let wait = RepWait { file: self };
        match landed(&self.ctx, &wait, &[Some((qp_num, wr))])
            .pop()
            .flatten()
        {
            Some(wc) => Ok(wc.read_data.expect("read data").to_vec()),
            None => Err(NclError::Unavailable("remote read failed".to_string())),
        }
    }

    /// Durability barrier: returns once every record up to and including
    /// `seq` is durable on the acknowledgement quorum.
    ///
    /// This is the only wait on the write path, a straight line when nothing
    /// fails: ring the doorbell if the record is still staged, wait for a
    /// landing, drain and refresh at the instant of that landing. It returns
    /// at the `f + 1`-th header; a slower peer's completions are absorbed by
    /// whichever drain finds them landed.
    ///
    /// All failure handling of the write path lives here, in the drain
    /// path: a dead peer is replaced inline once the awaited prefix is
    /// durable on the survivors (the Figure 12 "blip"); a lost majority
    /// blocks until replacement restores a quorum (replacement catch-up
    /// copies the staged image, which includes every in-flight record, so
    /// the prefix-acknowledgement invariant is preserved).
    pub fn wait_durable(&self, seq: u64) -> Result<(), NclError> {
        enum Next {
            Done,
            Repair { must: bool },
            Wait,
        }
        // Fast path: the record is already acked and nothing needs
        // attention. Two atomic loads, zero mutexes — the property the
        // lock-audit tests pin.
        if self.acked.fast_acked(seq) {
            return Ok(());
        }
        let ctx = &self.ctx;
        // The write timeout runs from the first drain that leaves the barrier
        // waiting; one the first landing satisfies never computes it.
        let mut deadline = None;
        let mut time_left = |now: Instant| {
            deadline
                .get_or_insert(now + ctx.config.write_timeout)
                .saturating_duration_since(now)
        };
        let mut backoff = Backoff::new(ctx.config.backoff_base, ctx.config.backoff_cap, seq);
        // A barrier on a record still sitting in the staged burst must ring
        // the doorbell first, or it would wait on never-posted requests.
        {
            let mut stage = self.stage_guard();
            if stage.flushed_seq < seq {
                self.flush_staged(&mut stage, FlushReason::Barrier);
            }
        }
        // How long to wait for a landing before the next drain, if at all:
        // with flights in the air a drain now would be in vain.
        let slice = Duration::from_millis(50);
        let mut wait = self
            .cq
            .next_due()
            .map(|_| ctx.config.write_timeout.min(slice));
        loop {
            // NCL polls the completion queue (§4.4): the wait lands what is
            // due, sleeps to the earliest flight otherwise and wakes on every
            // doorbell, so a timeout derived from the record deadline costs
            // nothing in the common case.
            let landed_at = wait.take().and_then(|d| self.cq.wait_landed(d));
            let (next, now) = {
                let mut rep = self.rep_guard();
                let now = rep.drain(landed_at);
                rep.suspect_stalled(&ctx.config, seq, now);
                rep.refresh_durable(&ctx.config, now);
                let next = if rep.durable_seq >= seq {
                    // A file short of peers asks for fresh ones again once
                    // its probe interval has passed: no other caller would.
                    let due = rep.repair_due.is_some_and(|at| now >= at);
                    if rep.failure_seen || due {
                        Next::Repair { must: false }
                    } else {
                        Next::Done
                    }
                } else if rep.alive() < ctx.config.quorum() {
                    Next::Repair { must: true }
                } else {
                    Next::Wait
                };
                (next, now)
            };
            match next {
                Next::Done => return Ok(()),
                Next::Repair { must } => {
                    let mut stage = self.stage_guard();
                    match self.replace_failed(&mut stage) {
                        Ok(()) => continue,
                        Err(e) => {
                            if !must {
                                // The awaited prefix is durable on the
                                // survivors; replacement is deferred to a
                                // later barrier instead of failing the
                                // record.
                                let mut rep = self.rep_guard();
                                let retry = sim::time::now() + ctx.config.reattach_probe;
                                rep.repair_due = Some(retry);
                                rep.failure_seen = false;
                                // Clear the attention bit so fast-path
                                // barriers resume while repair is deferred.
                                rep.publish_acked(&ctx.config);
                                return Ok(());
                            }
                            if time_left(sim::time::now()).is_zero() {
                                return Err(e);
                            }
                            drop(stage);
                            // Bounded exponential backoff with jitter: the
                            // cluster is short of peers, and hammering the
                            // controller will not conjure one.
                            sim::delay(backoff.next_delay());
                        }
                    }
                }
                Next::Wait => {
                    let left = time_left(now);
                    if left.is_zero() {
                        return Err(NclError::QuorumUnavailable(format!(
                            "record {seq} not durable within timeout"
                        )));
                    }
                    wait = Some(left.min(slice));
                }
            }
        }
    }
}

/// One wait for a list of work completions, each named by `(qp_num, wr
/// id)`: whoever posted them waits once, on its own thread, for all of them.
pub(super) trait WcWait {
    /// Waits until every completion `want` names has landed or `timeout` has
    /// passed, and returns them in `want`'s order: `None` for one that did
    /// not land, or that `want` does not name (its post failed).
    fn wait_all(&self, want: &[Option<(u32, WrId)>], timeout: Duration) -> Completions;
}

/// Completions in the order a [`WcWait`] was asked for them.
type Completions = Vec<Option<WorkCompletion>>;

/// How long one reap may block before the wait checks its deadline.
const REAP_SLICE: Duration = Duration::from_millis(2);

/// Moves each completion of `wcs` that `want` names, and `got` still lacks,
/// into `got`; leaves the rest in `wcs`. Returns whether `got` still lacks
/// one.
fn claim(
    got: &mut Completions,
    want: &[Option<(u32, WrId)>],
    wcs: &mut Vec<(u32, WorkCompletion)>,
) -> bool {
    for (qp_num, wc) in std::mem::take(wcs) {
        let named =
            (0..want.len()).find(|&i| got[i].is_none() && want[i] == Some((qp_num, wc.wr_id)));
        match named {
            Some(i) => got[i] = Some(wc),
            None => wcs.push((qp_num, wc)),
        }
    }
    got.iter()
        .zip(want)
        .any(|(got, want)| got.is_none() && want.is_some())
}

/// [`WcWait`] over a private completion queue (create and recovery, before
/// the file handle exists): what nobody named (a catch-up's body writes, a
/// duplicate) has no reader and is dropped.
impl WcWait for CompletionQueue {
    fn wait_all(&self, want: &[Option<(u32, WrId)>], timeout: Duration) -> Completions {
        let mut got = vec![None; want.len()];
        let deadline = sim::time::now() + timeout;
        let mut pending = want.iter().any(Option::is_some);
        while pending && sim::time::now() < deadline {
            pending = claim(&mut got, want, &mut self.wait(REAP_SLICE));
        }
        got
    }
}

/// [`WcWait`] over a live file's shared completion queue: everything drained
/// is absorbed into the replication state, and the waiter's own completions
/// come back out of [`Rep::stray`] where `absorb` parks them.
pub(super) struct RepWait<'a> {
    pub file: &'a NclFile,
}

impl WcWait for RepWait<'_> {
    fn wait_all(&self, want: &[Option<(u32, WrId)>], timeout: Duration) -> Completions {
        let mut got = vec![None; want.len()];
        let deadline = sim::time::now() + timeout;
        let mut landed_at = None;
        loop {
            let mut rep = self.file.rep_guard();
            rep.drain(landed_at);
            if !claim(&mut got, want, &mut rep.stray) || sim::time::now() >= deadline {
                return got;
            }
            drop(rep);
            landed_at = self.file.cq.wait_landed(REAP_SLICE);
        }
    }
}

/// Posts every read of `reads` — `(slot, wr id, region offset, length)` —
/// at one instant and waits once for them all. Returns each read's
/// completion if it succeeded.
pub(super) fn read_all<'s>(
    ctx: &Ctx,
    wait: &dyn WcWait,
    reads: impl IntoIterator<Item = (&'s PeerSlot, WrId, usize, usize)>,
) -> Completions {
    let at = sim::time::now();
    let want: Vec<_> = reads
        .into_iter()
        .map(|(slot, wr_id, offset, len)| {
            let read = WorkRequest::Read {
                wr_id,
                mr: slot.mr,
                offset,
                len,
            };
            let posted = slot.qp.post_many_at(at, [read]);
            posted.ok().map(|()| (slot.qp.qp_num(), wr_id))
        })
        .collect();
    landed(ctx, wait, &want)
}

/// Waits once, up to the write timeout, for the completions `want` names
/// and returns, in its order, each one that succeeded.
pub(super) fn landed(ctx: &Ctx, wait: &dyn WcWait, want: &[Option<(u32, WrId)>]) -> Completions {
    let wcs = wait.wait_all(want, ctx.config.write_timeout).into_iter();
    wcs.map(|wc| wc.filter(|wc| wc.status == WcStatus::Success))
        .collect()
}
