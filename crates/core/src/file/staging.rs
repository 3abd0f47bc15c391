//! Staging and the pipeline window: the local image, the pending burst,
//! the `record_nowait` / `submit` entry points, the one flush function
//! every burst goes through, and the stage metrics, stamped once per burst.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::MutexGuard;
use telemetry::{Counter, HistSet, ScopeId, Telemetry};

use super::scheme::Scheme;
use super::slots::{Flight, Rep};
use super::NclFile;
use crate::layout::RegionHeader;
use crate::lockaudit;
use crate::NclError;

/// Why a staged burst was posted to the peers — each flush site increments
/// its own counter, so ablation runs can see which trigger dominates.
#[derive(Clone, Copy)]
pub(super) enum FlushReason {
    /// The application rang the doorbell explicitly ([`NclFile::submit`]).
    Submit,
    /// The pending burst reached the pipeline window.
    WindowFull,
    /// A durability barrier needed a record still sitting in the burst.
    Barrier,
    /// Peer replacement froze the image (replace-implies-flush).
    Replace,
}

/// The span histograms that decompose a record's lifetime into consecutive
/// segments — `stage` (copying the record into the image) → `doorbell`
/// (staged, waiting for a flush) → `wire` (posted until the first peer
/// completes it) → `ack` (first peer until the quorum watermark passes
/// it) — so their means sum to the `e2e` mean by construction. Each takes
/// one stamp per burst, its records' summed time
/// ([`HistSet::record_n`]): counts are records, sums are exact. A burst's
/// stamps are two sets, each one lock: the two it knows at the flush, and
/// the three it knows at retirement.
pub(super) struct Stages {
    /// `ncl.record.{stage,doorbell}`.
    pub flush: HistSet<2>,
    /// `ncl.record.{wire,ack,e2e}`.
    pub retire: HistSet<3>,
}

impl Stages {
    /// Interns `ncl.record.<stage>` for the five stages.
    fn new(tel: &Telemetry) -> Self {
        Stages {
            flush: tel.histograms(["ncl.record.stage", "ncl.record.doorbell"]),
            retire: tel.histograms(["ncl.record.wire", "ncl.record.ack", "ncl.record.e2e"]),
        }
    }
}

/// Per-file metric handles, interned once at open so the record hot path
/// never touches the registry.
pub(super) struct FileMetrics {
    /// Cached `telemetry.is_enabled()`: gates the staging timestamps, the
    /// burst accumulator and the flight bookkeeping behind one branch.
    pub enabled: bool,
    pub tel: Telemetry,
    /// `app/file`, the scope every span of this file carries.
    /// Interned so span recording on the hot path never allocates.
    pub scope: &'static str,
    /// The same scope as a burst names it.
    scope_id: ScopeId,
    /// The stage histograms (`ncl.record.<stage>`).
    pub stages: Stages,
    flush_submit: Counter,
    flush_window_full: Counter,
    flush_barrier: Counter,
    flush_replace: Counter,
    /// `record_nowait` entered its barrier with the window full and the
    /// oldest in-flight record not yet durable.
    window_stall: Counter,
    /// Total bytes posted to peers on the replication hot path (payload +
    /// headers + fragment framing, summed over peers) — the wire-cost
    /// denominator the durability bench axis reports per record.
    wire_bytes: Counter,
}

impl FileMetrics {
    pub fn new(tel: &Telemetry, scope: &'static str) -> Arc<Self> {
        Arc::new(FileMetrics {
            enabled: tel.is_enabled(),
            tel: tel.clone(),
            scope,
            scope_id: ScopeId::of(scope),
            stages: Stages::new(tel),
            flush_submit: tel.counter("ncl.flush.submit"),
            flush_window_full: tel.counter("ncl.flush.window_full"),
            flush_barrier: tel.counter("ncl.flush.barrier"),
            flush_replace: tel.counter("ncl.flush.replace"),
            window_stall: tel.counter("ncl.window.stall"),
            wire_bytes: tel.counter("ncl.wire.bytes"),
        })
    }

    fn count_flush(&self, reason: FlushReason) {
        match reason {
            FlushReason::Submit => self.flush_submit.inc(),
            FlushReason::WindowFull => self.flush_window_full.inc(),
            FlushReason::Barrier => self.flush_barrier.inc(),
            FlushReason::Replace => self.flush_replace.inc(),
        }
    }
}

/// One staged-but-unposted record: the range `[offset, offset + len)` of the
/// image it wrote. The image is the record's only copy: every post borrows
/// its bytes from there. A run of these is a burst, posted as one doorbell
/// batch per peer at flush time.
///
/// A later record may overwrite a pending range before the flush, and the
/// range then carries the later bytes. No peer can observe the state in
/// between: a replicated burst posts only its final header, and an
/// erasure-coded burst's entry decodes whole (DESIGN.md, "Stage once").
pub(super) struct PendingRecord {
    pub seq: u64,
    pub offset: usize,
    pub len: usize,
}

impl PendingRecord {
    /// One past the last image byte this record wrote.
    pub fn end(&self) -> usize {
        self.offset + self.len
    }
}

/// Nanoseconds from `from` to `to`, 0 if `to` is earlier.
fn ns_between(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

/// The pending burst's telemetry, accumulated as its records are staged and
/// spent by the flush that posts them: the burst's stage and doorbell
/// stamps, and what its [`Flight`] carries on to the wire, ack and
/// end-to-end stamps and the burst's spans. A record's instants are kept
/// only as sums of offsets from `first`, so the burst costs the same
/// whatever its length.
struct BurstStamps {
    /// The earliest `record_nowait` entry among the burst's records.
    first: Instant,
    /// The last record's staging-complete instant.
    last_staged: Instant,
    /// Records stamped so far.
    n: u64,
    /// Σ(entry − first), ns.
    entry_ns: u64,
    /// Σ(staged − first), ns; less `entry_ns`, the records' summed stage.
    staged_ns: u64,
}

impl BurstStamps {
    /// Adds a record that entered `record_nowait` at `entry` and was staged
    /// at `staged`.
    fn add(&mut self, entry: Instant, staged: Instant) {
        if entry < self.first {
            // A writer that read the clock before the first record's did but
            // staged after it: move the origin back, so every offset stays
            // non-negative and every sum exact.
            let back = ns_between(entry, self.first);
            self.entry_ns += self.n * back;
            self.staged_ns += self.n * back;
            self.first = entry;
        }
        self.n += 1;
        self.entry_ns += ns_between(self.first, entry);
        self.staged_ns += ns_between(self.first, staged);
        self.last_staged = staged;
    }
}

/// The file image and its tip: what staging mutates, what recovery
/// reconstructs, and what a catch-up copy or a spill snapshot captures.
pub(super) struct Image {
    pub buffer: Vec<u8>,
    pub len: u64,
    pub seq: u64,
    pub overwritten: bool,
}

impl Image {
    /// A fresh, zero-filled file of `capacity` bytes at sequence 0.
    pub fn empty(capacity: usize) -> Self {
        Image {
            buffer: vec![0; capacity],
            len: 0,
            seq: 0,
            overwritten: false,
        }
    }

    /// The valid bytes, `[0, len)`.
    pub fn valid(&self) -> &[u8] {
        &self.buffer[..self.len as usize]
    }

    /// The plain region header at this tip.
    pub fn header(&self) -> RegionHeader {
        RegionHeader {
            seq: self.seq,
            len: self.len,
            overwritten: self.overwritten,
            ..Default::default()
        }
    }
}

/// Staging state: the local image, the pending burst, and the scheme's
/// encoder state. Held while a record is staged and while a burst is
/// flushed (so per-QP post order equals sequence order) and while a
/// replacement copies the buffer; never held across a durability wait.
pub(super) struct Stage {
    pub image: Image,
    /// Records staged by `record_nowait` but not yet posted to the peers.
    pending: Vec<PendingRecord>,
    /// The pending records' telemetry (`None` with telemetry disabled or
    /// nothing pending).
    stamps: Option<BurstStamps>,
    /// Highest sequence number whose work requests have been posted.
    pub flushed_seq: u64,
    pub scheme: Scheme,
}

impl Stage {
    /// Staging state for a file whose log starts (or resumes) at `image`.
    pub fn new(image: Image, scheme: Scheme) -> Self {
        Stage {
            flushed_seq: image.seq,
            image,
            pending: Vec::new(),
            stamps: None,
            scheme,
        }
    }

    /// Adds the record just staged to the pending burst's telemetry.
    fn stamp(&mut self, entry: Instant, staged: Instant) {
        let burst = self.stamps.get_or_insert(BurstStamps {
            first: entry,
            last_staged: staged,
            n: 0,
            entry_ns: 0,
            staged_ns: 0,
        });
        burst.add(entry, staged);
    }
}

impl NclFile {
    /// Acquires the staging lock through the lock-audit hook. Every
    /// `stage` acquisition inside this module tree goes through here (and
    /// `rep_guard` for `rep`) so the zero-mutex fast-path guarantee is
    /// checkable by tests.
    #[inline]
    pub(super) fn stage_guard(&self) -> MutexGuard<'_, Stage> {
        lockaudit::note_lock();
        self.stage.lock()
    }

    /// Current valid length.
    pub fn len(&self) -> u64 {
        self.stage_guard().image.len
    }

    /// True when no data has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sequence number of the latest issued record (lock-free).
    pub fn seq(&self) -> u64 {
        self.issued.load(Ordering::Acquire)
    }

    /// Reads from the local buffer (logs are only read during recovery; this
    /// serves the application's replay pass from the prefetched image). A
    /// range running past the valid length is a short read. A copy of what
    /// [`NclFile::read_with`] lends.
    pub fn read(&self, offset: u64, len: usize) -> Vec<u8> {
        self.read_with(offset, len, <[u8]>::to_vec)
    }

    /// Runs `f` over up to `len` bytes at `offset` of the local buffer
    /// itself. `f` runs under the staging lock: it must not call back into
    /// this file.
    pub fn read_with<R>(&self, offset: u64, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        let stage = self.stage_guard();
        let valid = stage.image.valid();
        f(&valid[sim::short_read(valid.len(), offset, len)])
    }

    /// Returns the full valid contents (`[0, len)`).
    pub fn contents(&self) -> Vec<u8> {
        self.read(0, usize::MAX)
    }

    /// Records a write at `offset` — the paper's `record(offset, data)`.
    ///
    /// Returns once the write (and all prior writes) is durable on a
    /// majority of peers. Detected peer failures trigger inline replacement:
    /// a short stall if a quorum survives, blocking until a quorum is
    /// restored otherwise.
    pub fn record(&self, offset: u64, data: &[u8]) -> Result<(), NclError> {
        let seq = self.record_nowait(offset, data)?;
        self.wait_durable(seq)
    }

    /// Stages a write into the pending burst without posting or waiting;
    /// returns the record's sequence number for a later
    /// [`NclFile::wait_durable`] barrier.
    ///
    /// The burst is posted with one doorbell per peer when it reaches the
    /// pipeline window, when a barrier needs one of its records, or on an
    /// explicit [`NclFile::submit`]. At most [`NclConfig::pipeline_window`]
    /// records may be in flight; a post beyond the window first drains the
    /// oldest in-flight record. On a drain error the record has still been
    /// staged — a subsequent barrier reports its fate.
    ///
    /// [`NclConfig::pipeline_window`]: crate::NclConfig::pipeline_window
    pub fn record_nowait(&self, offset: u64, data: &[u8]) -> Result<u64, NclError> {
        self.stage_nowait(Some(offset), data).1
    }

    /// [`NclFile::record_nowait`] at the end of the file: the offset is the
    /// valid length read under the staging lock that stages the record, so
    /// concurrent appends never share one. Returns that offset with
    /// `record_nowait`'s outcome; a failed window wait leaves the record
    /// staged there.
    pub fn append_nowait(&self, data: &[u8]) -> (u64, Result<u64, NclError>) {
        self.stage_nowait(None, data)
    }

    /// Stages `data` at `at`, or at the valid length when `None`, and
    /// returns the offset used with the record's sequence number.
    #[inline(always)]
    fn stage_nowait(&self, at: Option<u64>, data: &[u8]) -> (u64, Result<u64, NclError>) {
        let ctx = &self.ctx;
        let window = ctx.config.pipeline_window.max(1);
        // One clock reading per record: the entry, which also starts the
        // local copy's modelled charge; the copy itself runs inside it.
        let copy = ctx.config.local_copy.cost(data.len());
        let entry = (self.metrics.enabled || !copy.is_zero()).then(sim::time::now);
        let (offset, seq);
        {
            let mut stage = self.stage_guard();
            offset = at.unwrap_or(stage.image.len);
            // An end offset that does not even fit `usize` cannot fit the file.
            let end = usize::try_from(offset)
                .ok()
                .and_then(|start| start.checked_add(data.len()))
                .unwrap_or(usize::MAX);
            if end > self.capacity {
                let (capacity, needed) = (self.capacity, end);
                return (offset, Err(NclError::CapacityExceeded { capacity, needed }));
            }
            // Stage locally, then wait out what is left of the copy's
            // charge. The reading that wait ends on is the staged instant;
            // a free copy is staged at its entry.
            let image = &mut stage.image;
            image.buffer[offset as usize..end].copy_from_slice(data);
            let staged = entry.map(|t0| {
                let staged = if copy.is_zero() {
                    t0
                } else {
                    sim::time::delay_until_from(t0, t0 + copy)
                };
                (t0, staged)
            });
            if offset < image.len {
                image.overwritten = true;
            }
            image.len = image.len.max(end as u64);
            image.seq += 1;
            seq = image.seq;
            self.issued.store(seq, Ordering::Release);
            if let Some((t0, staged)) = staged.filter(|_| self.metrics.enabled) {
                stage.stamp(t0, staged);
            }
            stage.pending.push(PendingRecord {
                seq,
                offset: offset as usize,
                len: data.len(),
            });
            // Window-full: ring the doorbell for the accumulated burst.
            if stage.pending.len() as u64 >= window {
                self.flush_staged(&mut stage, FlushReason::WindowFull);
            }
        }
        // Bounded in-flight window. The stall check reads the published
        // watermark — no lock on the record hot path.
        if seq > window {
            if self.metrics.enabled && self.durable_seq() < seq - window {
                self.metrics.window_stall.inc();
            }
            if let Err(e) = self.wait_durable(seq - window) {
                return (offset, Err(e));
            }
        }
        (offset, Ok(seq))
    }

    /// Rings the doorbell for the staged burst without waiting: every record
    /// staged since the last flush is posted to all live peers, one doorbell
    /// batch per peer. Durability still requires a barrier
    /// ([`NclFile::wait_durable`] / [`NclFile::fsync`]); group-commit
    /// callers use this to start replicating a finished group while they
    /// assemble the next one. A no-op when nothing is pending.
    pub fn submit(&self) {
        let mut stage = self.stage_guard();
        self.flush_staged(&mut stage, FlushReason::Submit);
    }

    /// Posts the pending burst to every live peer as one doorbell batch
    /// each. The scheme encodes the burst once ([`Scheme::begin_burst`])
    /// and then translates it into each peer's work requests, which borrow
    /// their bytes from the image — QP order makes "header completed" imply
    /// "everything before it landed" under every scheme. The flush reads
    /// the clock once: that instant is the burst's (an EC spill is posted or
    /// seen durable at it), ends its doorbell stage, starts idle peers'
    /// silence clocks at the header's modelled landing and is when every peer's doorbell is rung
    /// ([`rdma::QueuePair::post_many_at`]), so the peers' modelled flights
    /// overlap, and cover the posts' own CPU, although the posts are made in
    /// a loop. Only an EC overflow waits (its spill, once, moving the
    /// instant). Post errors are left to the completion path, like every
    /// other posting site.
    pub(super) fn flush_staged(&self, stage: &mut Stage, reason: FlushReason) {
        let (Some(first), Some(last)) = (stage.pending.first(), stage.pending.last()) else {
            return;
        };
        let records = (first.seq, last.seq);
        let flushed = last.seq;
        self.metrics.count_flush(reason);
        let mut rep = self.rep_guard();
        let mut now = sim::time::now();
        let burst = stage
            .scheme
            .begin_burst(&mut now, &stage.image, &stage.pending);
        if let Some(stamps) = stage.stamps.take() {
            self.register_flight(&mut rep, stamps, records, now);
        }
        let per_peer_bytes = burst.wire_bytes(&stage.pending);
        // Only the header signals, and the link's model lands it no earlier
        // than this (a gray peer's injected delay is not in the model).
        let header_due = now + self.ctx.config.rdma.cost(per_peer_bytes as usize);
        let (idle_below, mut posted) = (stage.flushed_seq, 0);
        for slot in rep.peers.iter_mut().filter(|s| s.alive) {
            // A peer with nothing outstanding was silent because nothing was
            // asked of it: its silence clock restarts when the new work's
            // header is due, so neither idle time nor a slow fabric's flight
            // reads as suspicious.
            if slot.completed_seq >= idle_below {
                slot.detector.touch(header_due);
            }
            let _ = burst.post(slot, now, &stage.image, &stage.pending);
            posted += 1;
        }
        drop(rep);
        if self.metrics.enabled {
            self.metrics.wire_bytes.add(posted * per_peer_bytes);
        }
        stage.flushed_seq = flushed;
        stage.pending.clear();
        stage.scheme.end_burst(now, &stage.image, burst);
    }

    /// Stamps the stage and doorbell histograms and opens the [`Flight`] of
    /// the burst of `records` (inclusive), posted at the flush's instant
    /// `posted_at`, with its span ids reserved for every peer it may be
    /// posted to. Runs before the posts so that the flight is registered
    /// before its header can land; completions cannot be absorbed
    /// concurrently because the caller holds the replication lock.
    fn register_flight(
        &self,
        rep: &mut Rep,
        burst: BurstStamps,
        records: (u64, u64),
        posted_at: Instant,
    ) {
        let (metrics, n) = (&self.metrics, burst.n);
        let (staged, peers) = ((burst.first, burst.last_staged), rep.peers.len() as u32);
        let opened = (metrics.tel).open_burst(metrics.scope_id, records, staged, posted_at, peers);
        // Σ(posted − staged) = n·(posted − first) − Σ(staged − first).
        let waited = n * opened.posted_ns() - burst.staged_ns;
        let staged = burst.staged_ns - burst.entry_ns;
        metrics.stages.flush.record_n([(staged, n), (waited, n)]);
        rep.flights.push_back(Flight {
            entry_ns: burst.entry_ns,
            burst: opened,
        });
    }

    /// Durability barrier over everything issued so far: waits until the
    /// latest staged record is durable. A no-op after synchronous `record`
    /// calls; the real fence for `record_nowait` pipelines.
    pub fn fsync(&self) -> Result<(), NclError> {
        // Lock-free read of the issued counter: an fsync of fully durable
        // data composes with the `wait_durable` fast path into a
        // zero-mutex barrier.
        self.wait_durable(self.seq())
    }
}
