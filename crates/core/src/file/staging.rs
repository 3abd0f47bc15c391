//! Staging and the pipeline window: the local image, the pending burst,
//! the `record_nowait` / `submit` entry points, the one flush function
//! every burst goes through, and the stage metrics, stamped once per burst.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::MutexGuard;
use telemetry::{spans, Counter, HistHandle, Telemetry};

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
/// ([`HistHandle::record_n`]): counts are records, sums are exact.
pub(super) struct Stages {
    pub stage: HistHandle,
    pub doorbell: HistHandle,
    pub wire: HistHandle,
    pub ack: HistHandle,
    pub e2e: HistHandle,
}

impl Stages {
    /// Interns `ncl.record.<stage>` for the five stages.
    fn new(tel: &Telemetry) -> Self {
        let hist = |stage: &str| tel.histogram(&format!("ncl.record.{stage}"));
        Stages {
            stage: hist("stage"),
            doorbell: hist("doorbell"),
            wire: hist("wire"),
            ack: hist("ack"),
            e2e: hist("e2e"),
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
pub(super) fn ns_between(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

/// The pending burst's telemetry, accumulated as its records are staged and
/// spent by the flush that posts them: the burst's stage and doorbell spans
/// and stamps, and what its [`Flight`] carries on to the wire, ack and
/// end-to-end stamps. A record's instants are kept only as sums of offsets
/// from `first`, so the burst costs the same whatever its length.
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
    /// Root span id of the burst's causal chain, taken when its first
    /// record is staged (0 when tracing is off).
    trace: u64,
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

    /// Adds the record just staged to the pending burst's telemetry; its
    /// first record also takes the burst's trace id from `tel`.
    fn stamp(&mut self, entry: Instant, staged: Instant, tel: &Telemetry) {
        let burst = self.stamps.get_or_insert_with(|| BurstStamps {
            first: entry,
            last_staged: staged,
            n: 0,
            entry_ns: 0,
            staged_ns: 0,
            trace: tel.next_trace_id(),
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
        let t0 = self.metrics.enabled.then(sim::time::now);
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
            let image = &mut stage.image;
            // Stage locally.
            ctx.config.local_copy.charge(data.len());
            image.buffer[offset as usize..end].copy_from_slice(data);
            if offset < image.len {
                image.overwritten = true;
            }
            image.len = image.len.max(end as u64);
            image.seq += 1;
            seq = image.seq;
            self.issued.store(seq, Ordering::Release);
            if let Some(t0) = t0 {
                stage.stamp(t0, sim::time::now(), &self.metrics.tel);
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
    /// seen durable at it), closes the doorbell spans, restarts idle peers'
    /// silence clocks and is when every peer's doorbell is rung
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
        let per_peer_bytes = if self.metrics.enabled {
            burst.wire_bytes(&stage.pending)
        } else {
            0
        };
        let idle_below = stage.flushed_seq;
        for slot in rep.peers.iter_mut().filter(|s| s.alive) {
            // A peer with nothing outstanding was silent because nothing was
            // asked of it: restart its silence clock as the new work posts,
            // so idle time never reads as suspicious.
            if slot.completed_seq >= idle_below {
                slot.detector.touch(now);
            }
            let _ = burst.post(slot, now, &stage.image, &stage.pending);
            if self.metrics.enabled {
                self.metrics.wire_bytes.add(per_peer_bytes);
            }
        }
        drop(rep);
        stage.flushed_seq = flushed;
        stage.pending.clear();
        stage.scheme.end_burst(now, &stage.image, burst);
    }

    /// Stamps the stage and doorbell histograms, queues the stage and
    /// doorbell spans and opens the [`Flight`] of the burst of `records`
    /// (inclusive), posted at the flush's instant `posted_at`. Runs before
    /// the posts so that the flight is registered before its header can
    /// land; completions cannot be absorbed concurrently because the caller
    /// holds the replication lock.
    fn register_flight(
        &self,
        rep: &mut Rep,
        burst: BurstStamps,
        records: (u64, u64),
        posted_at: Instant,
    ) {
        let (metrics, n) = (&self.metrics, burst.n);
        metrics
            .stages
            .stage
            .record_n(burst.staged_ns - burst.entry_ns, n);
        // Σ(posted − staged) = n·(posted − first) − Σ(staged − first).
        let waited = n * ns_between(burst.first, posted_at) - burst.staged_ns;
        metrics.stages.doorbell.record_n(waited, n);
        if burst.trace != 0 {
            for (name, start, end) in [
                (spans::NCL_STAGE, burst.first, burst.last_staged),
                (spans::NCL_DOORBELL, burst.last_staged, posted_at),
            ] {
                rep.span_buf.push(metrics.tel.closed_span(
                    burst.trace,
                    metrics.tel.next_trace_id(),
                    burst.trace,
                    name,
                    metrics.scope,
                    0,
                    records,
                    start,
                    end,
                ));
            }
        }
        rep.flights.push_back(Flight {
            lo: records.0,
            hi: records.1,
            t0: burst.first,
            entry_ns: burst.entry_ns,
            posted: posted_at,
            first_peer: None,
            trace: burst.trace,
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
