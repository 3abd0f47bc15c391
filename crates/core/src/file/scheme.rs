//! The durability-scheme seam: everything that differs between full-copy
//! replication and `k`-of-`n` erasure coding.
//!
//! A `Scheme` is chosen **once** per open from
//! [`NclConfig::durability`] — `Scheme::new` at create,
//! `Scheme::reconstruct` at recovery — and the rest of `ncl::file` is one
//! pipeline that asks it three things:
//!
//! 1. **How is a burst encoded into per-peer work requests**
//!    (`Scheme::begin_burst` / `Burst::post`), how large a region
//!    a peer lends (`Scheme::region_data`), and what a fresh or caught-up
//!    peer receives (`Scheme::initial_header`, `Scheme::reset_header`,
//!    `Scheme::ships_image`). Replicated: one data WR per contiguous run
//!    of the image plus the burst-final header, and a full copy of the
//!    image. Erasure-coded: one fragment entry (this peer's row of the
//!    stripe) appended to the active generation half plus the header, and
//!    — because a fresh peer's row of every past stripe is gone — a spill
//!    snapshot followed by a generation-reset header instead of a copy.
//!    The generation/spill state this needs lives inside the `Ec` variant:
//!    a spill is a store posted at a burst's instant, and the first burst
//!    past its durable instant flips the generation.
//! 2. **When is a prefix acked**: the pure functions [`peers_per_file`],
//!    [`ack_quorum`], [`recovery_quorum`] and [`ack_watermark`].
//!    `crates/modelcheck` calls the same functions, so the checked model
//!    cannot drift from the code that runs.
//! 3. **What can a set of responders reconstruct**
//!    (`Scheme::reconstruct`), from the source [`plan::source`](super::plan::source) picked:
//!    that responder's image read back whole, or the highest generation's
//!    spill snapshot plus a lockstep fragment walk over any `k` holders.

use std::sync::Arc;
use std::time::Instant;

use rdma::{WorkRequest, WrId};
use sim::SimError;
use telemetry::{spans, Counter, Telemetry};

use super::plan::Source;
use super::slots::{read_all, PeerSlot, Responders, WcWait};
use super::staging::{Image, PendingRecord};
use super::Ctx;
use crate::config::{Durability, NclConfig};
use crate::ec::{self, FragEntry, SpillSink, SpillSnapshot, FRAG_ENTRY_SIZE};
use crate::layout::{RegionHeader, HEADER_SIZE, HEADER_WIRE_SIZE};
use crate::NclError;

// --- The ack rule, as pure functions of the durability scheme. ---

/// Peers allocated per file: `2f + 1` replicated, `n` erasure-coded.
pub fn peers_per_file(durability: Durability, f: usize) -> usize {
    match durability {
        Durability::Replicated => 2 * f + 1,
        Durability::Ec { n, .. } => n,
    }
}

/// Acknowledgement quorum: `f + 1` replicated (a majority holds every acked
/// byte), `n` erasure-coded (every peer holds its fragment, so the stripe
/// survives any `n − k` post-ack losses).
pub fn ack_quorum(durability: Durability, f: usize) -> usize {
    match durability {
        Durability::Replicated => f + 1,
        Durability::Ec { n, .. } => n,
    }
}

/// Minimum responders recovery needs to reconstruct the acked prefix: one
/// holder of the full copy replicated (`f + 1` responders guarantee one
/// overlaps the ack quorum), `k` fragment holders erasure-coded.
pub fn recovery_quorum(durability: Durability, f: usize) -> usize {
    match durability {
        Durability::Replicated => f + 1,
        Durability::Ec { k, .. } => k,
    }
}

/// The acknowledgement watermark: the `quorum`-th largest completed
/// sequence number, i.e. the longest prefix `quorum` peers all hold. `None`
/// when fewer than `quorum` peers report. Sorts `completed` in place.
pub fn ack_watermark<T: Ord + Copy>(completed: &mut [T], quorum: usize) -> Option<T> {
    if quorum == 0 || completed.len() < quorum {
        return None;
    }
    completed.sort_unstable();
    Some(completed[completed.len() - quorum])
}

// --- The EC serve rule, as a pure function of two generations. ---

/// How far into a generation's fragment log a responder's header vouches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedThrough {
    /// The responder's active half, through its header's `frag_tail`.
    FragTail,
    /// A generation the responder has moved past, through `prev_tail`:
    /// all of it, since QP order applied every burst of a generation
    /// before the header that left it.
    PrevTail,
}

/// The fragment logs a responder whose header is at `peer_gen` serves to a
/// decode walk that targets `gmax`, the highest generation any responder
/// reached: at `gmax`, its active half plus the whole previous generation;
/// one generation behind, its active half only. Anything older is covered
/// by the snapshot of `gmax`.
pub fn served_logs(peer_gen: u64, gmax: u64) -> impl Iterator<Item = (u64, ServedThrough)> {
    let at_max = peer_gen == gmax;
    let active = (at_max || peer_gen + 1 == gmax).then_some((peer_gen, ServedThrough::FragTail));
    let previous = (at_max && gmax > 0).then(|| (gmax - 1, ServedThrough::PrevTail));
    active.into_iter().chain(previous)
}

/// Bytes of peer memory one region occupies for a file with `capacity`
/// data bytes: header + full copy replicated, header + two fragment halves
/// (≈ `capacity · n / k` aggregated across `n` peers) erasure-coded.
pub fn region_size(durability: Durability, capacity: usize) -> usize {
    HEADER_SIZE
        + match durability {
            Durability::Replicated => capacity,
            Durability::Ec { k, .. } => 2 * half_capacity(k, capacity),
        }
}

/// Per-peer capacity of one generation half of the fragment area:
/// `capacity / (2k)` so the two halves together hold roughly one striped
/// file, plus slack for entry framing and record overheads.
fn half_capacity(k: usize, capacity: usize) -> usize {
    capacity.div_ceil(2 * k) + (64 << 10)
}

// --- The seam. ---

/// The durability scheme of one open file, with its encoder state. Lives in
/// the staging state (under the `stage` lock), because encoding a burst
/// advances it.
pub(super) enum Scheme {
    /// Every byte on all `2f + 1` peers; stateless.
    Replicated,
    /// Reed–Solomon `k`-of-`n` fragment striping.
    Ec(Box<EcState>),
}

/// Encoder state of an erasure-coded file: the two-generation fragment
/// area's cursor and the spill demotion in flight.
pub(super) struct EcState {
    k: usize,
    n: usize,
    /// File capacity as it travels in every region header: the fragment
    /// area is smaller than the file, so recovery cannot infer the
    /// staging-buffer size from the region length and reads it from there.
    capacity: u32,
    /// Bytes per generation half of a peer's fragment area.
    half_cap: usize,
    /// Fragment-tail fill past which a posted spill demotion starts.
    watermark: usize,
    sink: Arc<dyn SpillSink>,
    /// Fragment-area generation; bursts land in half `gen % 2`.
    gen: u64,
    /// Next entry offset within the active generation half.
    frag_tail: u64,
    /// Final tail of generation `gen - 1` in the other half.
    prev_tail: u64,
    /// Highest sequence number covered by this generation's spill
    /// snapshot; fragments at or below it are dead weight for recovery.
    spill_seq: u64,
    spill: Option<PendingSpill>,
    tel: Telemetry,
    scope: &'static str,
    /// Spill demotions started.
    spills: Counter,
}

/// A posted demotion of the acked prefix to the spill sink. The first
/// burst whose instant has passed `durable` flips the fragment area to
/// `gen` — the snapshot is durable before any header carrying the new
/// generation is posted, which is the ordering the recovery rule rests on.
struct PendingSpill {
    /// Generation the snapshot is keyed under (current generation + 1).
    gen: u64,
    /// Highest sequence number the snapshot covers.
    seq: u64,
    /// When the snapshot is durable, or the sink's error (the demotion is
    /// then dropped and retried).
    durable: Result<Instant, String>,
}

/// One flushed burst, encoded once and then posted to each peer.
pub(super) enum Burst {
    /// Each peer gets the pending ranges of the image, then the plain header
    /// at the burst's tip — the only header of the burst that is ever
    /// posted, so the only one that is ever encoded.
    Replicated { header: [u8; HEADER_WIRE_SIZE] },
    /// Each peer gets its row of the burst's stripe.
    Ec {
        /// Burst-final sequence number.
        seq: u64,
        /// Length of the un-padded burst image.
        burst_len: u32,
        /// The `k` data units followed by the `n − k` parity units.
        units: Vec<Vec<u8>>,
        /// Offset of this burst's fragment entry within every region.
        entry_off: usize,
        /// The region header every peer receives after its entry.
        header: [u8; HEADER_WIRE_SIZE],
    },
}

impl Burst {
    /// Rings `slot`'s doorbell at `posted_at` for this burst of `pending`,
    /// staged on top of `image`: everything the peer must apply, then the
    /// header, the one signalled — QP order makes "header completed" imply
    /// "the rest landed". Every request borrows from the image or the burst.
    ///
    /// Replicated, each run of remotely-contiguous pending ranges is one
    /// write cut from the image (a pure append burst is a single data WR);
    /// runs keep sequence order, so overlapping overwrites still apply in
    /// order. Only the burst-final header follows — every header overwrites
    /// the same fixed location and the prefix rule needs only the highest
    /// sequence number per barrier.
    pub fn post(
        &self,
        slot: &PeerSlot,
        posted_at: Instant,
        image: &Image,
        pending: &[PendingRecord],
    ) -> Result<(), SimError> {
        let mr = slot.mr;
        match self {
            Burst::Replicated { header } => {
                let last = pending.last().expect("burst nonempty");
                let data = runs(pending).map(|(start, end, seq)| WorkRequest::Write {
                    wr_id: WrId(2 * seq),
                    mr,
                    offset: HEADER_SIZE + start,
                    data: image.buffer[start..end].into(),
                });
                let header = WorkRequest::Write {
                    wr_id: WrId(2 * last.seq + 1),
                    mr,
                    offset: 0,
                    data: header[..].into(),
                };
                slot.qp.post_many_at(posted_at, data.chain([header]))
            }
            Burst::Ec {
                seq,
                burst_len,
                units,
                entry_off,
                header,
            } => {
                let unit = &units[slot.row as usize];
                let entry = FragEntry {
                    burst_seq: *seq,
                    burst_len: *burst_len,
                    unit_len: unit.len() as u32,
                    shard: slot.row,
                };
                // The row index travels inside the entry, so recovery never
                // depends on peer order.
                let frame = entry.encode(unit);
                let gathered: [&[u8]; 2] = [&frame, unit];
                let wrs = [
                    WorkRequest::WriteSg {
                        wr_id: WrId(2 * seq),
                        mr,
                        offset: *entry_off,
                        slices: &gathered,
                    },
                    WorkRequest::Write {
                        wr_id: WrId(2 * seq + 1),
                        mr,
                        offset: 0,
                        data: header[..].into(),
                    },
                ];
                slot.qp.post_many_at(posted_at, &wrs)
            }
        }
    }

    /// Bytes [`Burst::post`] puts on the wire per peer.
    pub fn wire_bytes(&self, pending: &[PendingRecord]) -> u64 {
        let body: usize = match self {
            Burst::Replicated { .. } => pending.iter().map(|r| r.len).sum(),
            Burst::Ec { units, .. } => FRAG_ENTRY_SIZE + units[0].len(),
        };
        (body + HEADER_WIRE_SIZE) as u64
    }
}

/// The runs of remotely-contiguous records in `pending`, in sequence order:
/// `(start, end, seq)` per run, `seq` its last record's. A run's write takes
/// that record's data id; data ids never drive acknowledgement (only odd
/// header ids do), they only have to stay unique per QP.
fn runs(pending: &[PendingRecord]) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
    let mut rest = pending;
    std::iter::from_fn(move || {
        let first = rest.first()?;
        let mut n = 1;
        while rest.get(n).is_some_and(|r| r.offset == rest[n - 1].end()) {
            n += 1;
        }
        let run = (first.offset, rest[n - 1].end(), rest[n - 1].seq);
        rest = &rest[n..];
        Some(run)
    })
}

impl Scheme {
    /// Builds the scheme for a file of `capacity` data bytes, rejecting
    /// malformed erasure-coding configurations: the parameters must
    /// describe a real `k`-of-`n` code, a spill sink must exist (the
    /// fragment area is bounded and cold prefixes have nowhere else to go),
    /// and the capacity must fit the `u32` the region header carries it in.
    pub fn new(
        config: &NclConfig,
        capacity: usize,
        scope: &'static str,
    ) -> Result<Scheme, NclError> {
        let Durability::Ec { k, n } = config.durability else {
            return Ok(Scheme::Replicated);
        };
        if k == 0 || n <= k || n > 255 {
            return Err(NclError::Rejected(format!(
                "invalid erasure-coding parameters k={k} n={n}"
            )));
        }
        let sink = config.spill.clone().ok_or_else(|| {
            NclError::Rejected(
                "erasure-coded durability requires a spill sink (NclConfig::spill)".to_string(),
            )
        })?;
        let header_capacity = u32::try_from(capacity).map_err(|_| {
            NclError::Rejected(format!(
                "erasure-coded file capacity {capacity} exceeds the {} bytes a region header \
                 can record",
                u32::MAX
            ))
        })?;
        let half_cap = half_capacity(k, capacity);
        Ok(Scheme::Ec(Box::new(EcState {
            k,
            n,
            capacity: header_capacity,
            half_cap,
            watermark: match config.spill_watermark {
                0 => half_cap * 3 / 4,
                bytes => bytes,
            },
            sink,
            gen: 0,
            frag_tail: 0,
            prev_tail: 0,
            spill_seq: 0,
            spill: None,
            tel: config.telemetry.clone(),
            scope,
            spills: config.telemetry.counter("ncl.spill.demotions"),
        })))
    }

    /// Data bytes (past the header) each peer lends a file of `capacity`.
    pub fn region_data(&self, capacity: usize) -> usize {
        match self {
            Scheme::Replicated => capacity,
            Scheme::Ec(ec) => 2 * ec.half_cap,
        }
    }

    /// Whether peers hold the file image itself: catch-up then copies it,
    /// and `read_remote` can serve from it.
    pub fn ships_image(&self) -> bool {
        matches!(self, Scheme::Replicated)
    }

    /// The seq-0 header every region of a brand-new file is seeded with,
    /// as recovery catches a fresh peer up to an empty image. An
    /// erasure-coded one names the file capacity.
    pub fn initial_header(&self) -> RegionHeader {
        match self {
            Scheme::Replicated => RegionHeader::default(),
            Scheme::Ec(ec) => RegionHeader {
                capacity: ec.capacity,
                ..Default::default()
            },
        }
    }

    /// Publishes the scheme: a [`spans::DURABILITY_MODE`] fact (the checker
    /// parses `k=` out of it to pick the coverage an acked write must
    /// have) and, erasure-coded, the effective spill watermark.
    pub fn announce(&self, tel: &Telemetry, scope: &str, epoch: u64) {
        let detail = match self {
            Scheme::Replicated => "replicated".to_string(),
            Scheme::Ec(ec) => {
                tel.gauge("ncl.spill.watermark").set(ec.watermark as i64);
                format!("ec k={} n={}", ec.k, ec.n)
            }
        };
        tel.fact(spans::DURABILITY_MODE, scope, epoch, detail);
    }

    /// Encodes the pending burst, staged on top of `image`, once for all
    /// peers, at the burst's instant `now`. The caller holds the staging
    /// lock, so `image` is exactly the file as of the burst's last record.
    /// An erasure-coded overflow that waits out a spill moves `now` to the
    /// wait's end.
    pub fn begin_burst(
        &mut self,
        now: &mut Instant,
        image: &Image,
        pending: &[PendingRecord],
    ) -> Burst {
        match self {
            Scheme::Replicated => Burst::Replicated {
                header: image.header().encode(),
            },
            Scheme::Ec(ec) => ec.begin_burst(now, image, pending),
        }
    }

    /// Accounts for a burst whose work requests were posted at `now`.
    pub fn end_burst(&mut self, now: Instant, image: &Image, burst: Burst) {
        if let (Scheme::Ec(ec), Burst::Ec { units, .. }) = (self, burst) {
            ec.frag_tail += (FRAG_ENTRY_SIZE + units[0].len()) as u64;
            if ec.spill.is_none() && ec.frag_tail as usize > ec.watermark {
                ec.start_spill(now, image);
            }
        }
    }

    /// The header a caught-up or fresh peer receives so that it holds
    /// `image` through `image.seq`. Replicated, the plain header — the
    /// image itself is copied in front of it. Erasure-coded, a peer cannot
    /// be caught up from fragment history, so the image is stored as the
    /// next generation's spill snapshot — synchronously, and after any
    /// posted demotion that shares the sink key, because no peer may
    /// observe a generation whose snapshot is not durable — and
    /// the header carries that generation with empty fragment tails.
    /// Survivors of a replacement need no reset write of their own: after
    /// [`Scheme::adopt_reset`] the next flush posts this same header,
    /// atomically with its first new-generation entry.
    pub fn reset_header(&mut self, image: &Image) -> Result<RegionHeader, NclError> {
        let Scheme::Ec(ec) = self else {
            return Ok(image.header());
        };
        // A posted store has landed, in order, ahead of this one under the
        // same key: forgetting it is enough.
        ec.spill = None;
        let gen = ec.gen + 1;
        let durable = ec
            .sink
            .store(ec.scope, gen, &ec.snapshot(image), sim::time::now())
            .map_err(NclError::Unavailable)?;
        sim::delay_until(durable);
        Ok(RegionHeader {
            gen,
            spill_seq: image.seq,
            capacity: ec.capacity,
            ..image.header()
        })
    }

    /// Mirrors a reset header the peers now hold into the encoder state, so
    /// the next burst continues from it.
    pub fn adopt_reset(&mut self, header: &RegionHeader) {
        if let Scheme::Ec(ec) = self {
            ec.gen = header.gen;
            ec.frag_tail = header.frag_tail;
            ec.prev_tail = header.prev_tail;
            ec.spill_seq = header.spill_seq;
        }
    }

    /// Reconstructs the acked prefix from `responders` (each with the
    /// region header it served) and the `source` the planner picked among
    /// them, by the configured scheme's decode rule. Returns the scheme, the
    /// image, and the responders still usable for catch-up.
    pub fn reconstruct(
        ctx: &Ctx,
        scope: &'static str,
        responders: Responders,
        source: Source,
        wait: &dyn WcWait,
    ) -> Result<(Scheme, Image, Responders), NclError> {
        // A full-copy region is as large as the file; any other scheme's
        // headers name the capacity.
        let named = responders.iter().map(|(_, h)| h.capacity).max();
        let mut scheme = Scheme::new(&ctx.config, named.unwrap_or(0) as usize, scope)?;
        let (image, survivors) = match (&mut scheme, source) {
            (Scheme::Replicated, Source::Image(i)) => {
                (read_back(ctx, &responders[i], wait)?, responders)
            }
            (Scheme::Ec(ec), Source::Decode { gmax }) => {
                ec.reconstruct(ctx, responders, gmax, source.snapshot(), wait)?
            }
            _ => unreachable!("the planner picks the configured scheme's source"),
        };
        Ok((scheme, image, survivors))
    }
}

/// Replicated decode rule: read the source responder's image back whole.
fn read_back(
    ctx: &Ctx,
    (slot, header): &(PeerSlot, RegionHeader),
    wait: &dyn WcWait,
) -> Result<Image, NclError> {
    let mut image = Image {
        len: header.len,
        seq: header.seq,
        overwritten: header.overwritten,
        ..Image::empty(slot.mr.len - HEADER_SIZE)
    };
    if header.len > 0 {
        let len = header.len as usize;
        let read = [(slot, WrId(u64::MAX - 1), HEADER_SIZE, len)];
        let data = read_all(ctx, wait, read)
            .pop()
            .flatten()
            .and_then(|wc| wc.read_data);
        let failed = || NclError::Unavailable("recovery peer failed during data read".into());
        image.buffer[..len].copy_from_slice(&data.ok_or_else(failed)?);
    }
    Ok(image)
}

/// Region offset of generation `gen`'s half of the fragment area.
fn half_offset(half_cap: usize, gen: u64) -> usize {
    HEADER_SIZE + (gen % 2) as usize * half_cap
}

/// One EC recovery responder: its slot, final header, and the fragment
/// logs it served, keyed by generation.
type FetchedResponder = (PeerSlot, RegionHeader, Vec<(u64, Vec<u8>)>);

impl EcState {
    fn snapshot(&self, image: &Image) -> SpillSnapshot {
        SpillSnapshot {
            spill_seq: image.seq,
            len: image.len,
            overwritten: image.overwritten,
            capacity: self.capacity as u64,
            data: image.valid().to_vec(),
        }
    }

    /// The pending burst becomes one fragment entry per peer — the burst
    /// image is striped into `k` data units plus `n − k` parity units, and
    /// the peer holding row `i` receives only unit `i`, appended to the
    /// active generation half of its region. Acknowledgement then requires
    /// header completions from **all** `n` peers ([`ack_quorum`]), because
    /// each peer holds a fragment no other peer can substitute.
    ///
    /// Spill demotion hangs off this path: when the fragment tail crosses
    /// the watermark a snapshot store is posted, and the first burst whose
    /// instant has passed its durable instant flips the generation — the
    /// flip rides in that burst's (atomic) header write, so no extra WR and
    /// no barrier is needed. An overflow of the half forces the flip,
    /// waiting once.
    fn begin_burst(
        &mut self,
        now: &mut Instant,
        image: &Image,
        pending: &[PendingRecord],
    ) -> Burst {
        self.try_finalize_spill(*now);
        let burst_image = {
            let records: Vec<(u64, u64, &[u8])> = pending
                .iter()
                .map(|r| (r.seq, r.offset as u64, &image.buffer[r.offset..r.end()]))
                .collect();
            ec::encode_burst(&records)
        };
        let (unit_len, data_units) = ec::split_units(&burst_image, self.k);
        let entry_len = FRAG_ENTRY_SIZE + unit_len;
        if self.frag_tail as usize + entry_len > self.half_cap {
            // The active half cannot take this entry: demote and flip now,
            // waiting out any posted demotion first.
            self.wait_spill_and_flip(now, image);
            assert!(
                entry_len <= self.half_cap,
                "one burst entry ({entry_len} B) exceeds the fragment half ({} B)",
                self.half_cap
            );
        }
        let parity = ec::parity_units(self.k, self.n, &data_units);
        let seq = pending.last().expect("burst nonempty").seq;
        let header = RegionHeader {
            seq,
            gen: self.gen,
            frag_tail: self.frag_tail + entry_len as u64,
            prev_tail: self.prev_tail,
            spill_seq: self.spill_seq,
            capacity: self.capacity,
            ..image.header()
        };
        Burst::Ec {
            seq,
            burst_len: burst_image.len() as u32,
            units: data_units.into_iter().chain(parity).collect(),
            entry_off: half_offset(self.half_cap, self.gen) + self.frag_tail as usize,
            header: header.encode(),
        }
    }

    /// Observes a posted spill demotion durable at `now`, if any: the
    /// fragment area flips to the spilled generation — the *next* burst's
    /// header carries the flip, atomically with its tail reset. A store the
    /// sink refused is dropped and retried by a later burst.
    fn try_finalize_spill(&mut self, now: Instant) {
        let Some(sp) = &self.spill else {
            return;
        };
        if sp.durable.as_ref().is_ok_and(|&t| now < t) {
            return;
        }
        let sp = self.spill.take().expect("spill present");
        let kind = if sp.durable.is_err() {
            spans::SPILL_FAIL
        } else {
            self.prev_tail = self.frag_tail;
            self.frag_tail = 0;
            self.gen = sp.gen;
            self.spill_seq = sp.seq;
            spans::SPILL_FINISH
        };
        let detail = format!("gen={} seq={}", sp.gen, sp.seq);
        self.tel.fact(kind, self.scope, 0, detail);
    }

    /// Posts the current image to the spill sink at `now` as the snapshot
    /// of generation `gen + 1`; [`EcState::try_finalize_spill`] observes it.
    fn start_spill(&mut self, now: Instant, image: &Image) {
        let snap = self.snapshot(image);
        let (gen, seq) = (self.gen + 1, image.seq);
        self.spills.inc();
        self.tel.fact(
            spans::SPILL_START,
            self.scope,
            0,
            format!("gen={gen} seq={seq} bytes={}", snap.len),
        );
        let durable = self.sink.store(self.scope, gen, &snap, now);
        self.spill = Some(PendingSpill { gen, seq, durable });
    }

    /// Forces a generation flip at `now`: posts a demotion if none is
    /// pending, waits once for it to be durable, moving `now` to the wait's
    /// end, and finalizes it, leaving the active half empty. A refused store
    /// is posted again. Called when a burst entry cannot fit.
    fn wait_spill_and_flip(&mut self, now: &mut Instant, image: &Image) {
        let g0 = self.gen;
        while self.gen == g0 {
            match self.spill.as_ref().map(|sp| &sp.durable) {
                None => self.start_spill(*now, image),
                Some(Ok(durable)) => *now = sim::delay_until(*durable),
                Some(Err(_)) => {}
            }
            self.try_finalize_spill(*now);
        }
    }

    /// Erasure-coded decode rule: the acked prefix is the spill snapshot
    /// the planner names (that of `gmax`, the highest generation any
    /// responder reached), plus a lockstep reassembly walk over the
    /// surviving fragment logs — any `k` of the `n` peers suffice. Leaves
    /// the encoder at `gmax`; the caller's reset moves it past.
    fn reconstruct(
        &mut self,
        ctx: &Ctx,
        responders: Responders,
        gmax: u64,
        snapshot: Option<u64>,
        wait: &dyn WcWait,
    ) -> Result<(Image, Responders), NclError> {
        let (k, n, half_cap) = (self.k, self.n, self.half_cap);
        let capacity = self.capacity as usize;
        if capacity == 0 {
            return Err(NclError::Unavailable(
                "no EC region header carries the file capacity".to_string(),
            ));
        }
        let base = match snapshot {
            Some(gen) => {
                let snap = self.sink.load(self.scope, gen);
                Some(snap.map_err(NclError::Unavailable)?.ok_or_else(|| {
                    NclError::Unavailable(format!("spill snapshot for generation {gen} missing"))
                })?)
            }
            None => None,
        };

        // Fetch the fragment logs each responder serves ([`served_logs`]),
        // skipping empty ones: every read posted at one instant, one wait.
        // A responder that fails any of its reads is dropped.
        let logs: Vec<Vec<(u64, usize, usize)>> = responders
            .iter()
            .map(|(_, h)| {
                let tail = |through| match through {
                    ServedThrough::FragTail => h.frag_tail as usize,
                    ServedThrough::PrevTail => h.prev_tail as usize,
                };
                let served = served_logs(h.gen, gmax).map(|(gen, t)| (gen, tail(t).min(half_cap)));
                let served = served.filter(|&(_, len)| len > 0);
                served
                    .map(|(gen, len)| (gen, half_offset(half_cap, gen), len))
                    .collect()
            })
            .collect();
        let reads = responders.iter().zip(&logs).flat_map(|((slot, _), logs)| {
            let logs = (0..).zip(logs);
            logs.map(move |(i, &(_, offset, len))| (slot, WrId(u64::MAX - i), offset, len))
        });
        let mut data = read_all(ctx, wait, reads).into_iter();
        let fetched: Vec<FetchedResponder> = responders
            .into_iter()
            .zip(logs)
            .filter_map(|((slot, header), logs)| {
                let read: Vec<_> = data.by_ref().take(logs.len()).collect();
                let logs = logs.into_iter().zip(read);
                let logs = logs.map(|((gen, ..), wc)| Some((gen, wc?.read_data?.to_vec())));
                Some((slot, header, logs.collect::<Option<_>>()?))
            })
            .collect();
        if fetched.len() < k {
            return Err(NclError::QuorumUnavailable(format!(
                "{} fragment holders survived the log fetch, need {k}",
                fetched.len()
            )));
        }

        // Lockstep reassembly: previous generation first, then the active
        // one, skipping bursts the snapshot already covers.
        let min_seq = base.as_ref().map(|s| s.spill_seq).unwrap_or(0);
        let mut bursts: Vec<(u64, Vec<u8>)> = Vec::new();
        for walk_gen in gmax.saturating_sub(1)..=gmax {
            let logs: Vec<&[u8]> = fetched
                .iter()
                .flat_map(|(_, _, ls)| {
                    ls.iter()
                        .filter(move |(g, _)| *g == walk_gen)
                        .map(|(_, l)| l.as_slice())
                })
                .collect();
            if !logs.is_empty() {
                bursts.extend(ec::reassemble(k, n, &logs, min_seq));
            }
        }

        // Apply: snapshot image first, then the replayed bursts — stopping
        // at the first sequence gap, so only a contiguous issued-order
        // prefix is ever exposed (a gap can only exist in the unacked
        // tail: an acked burst has entries on all n peers, hence on every
        // responder).
        let mut image = Image::empty(capacity);
        if let Some(s) = &base {
            image.buffer[..s.len as usize].copy_from_slice(&s.data[..s.len as usize]);
            (image.len, image.overwritten, image.seq) = (s.len, s.overwritten, s.spill_seq);
        }
        'apply: for (_, burst) in &bursts {
            let Some(records) = ec::decode_burst(burst) else {
                break;
            };
            for (rseq, off, payload) in records {
                let end = (off as usize).saturating_add(payload.len());
                if rseq != image.seq + 1 || end > capacity {
                    break 'apply;
                }
                if off < image.len {
                    image.overwritten = true;
                }
                image.buffer[off as usize..end].copy_from_slice(&payload);
                image.len = image.len.max(end as u64);
                image.seq = rseq;
            }
        }
        self.gen = gmax;
        let survivors = fetched.into_iter().map(|(s, h, _)| (s, h)).collect();
        Ok((image, survivors))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_is_the_quorum_th_largest() {
        assert_eq!(ack_watermark(&mut [5u64, 9, 7], 2), Some(7));
        assert_eq!(ack_watermark(&mut [5u64, 9, 7], 3), Some(5));
        assert_eq!(ack_watermark(&mut [5u64, 9, 7], 1), Some(9));
        assert_eq!(ack_watermark(&mut [5u64], 2), None, "below quorum");
        assert_eq!(ack_watermark::<u64>(&mut [], 0), None);
    }

    #[test]
    fn a_responder_serves_its_active_half_and_the_generation_it_left() {
        use ServedThrough::{FragTail, PrevTail};
        let served = |peer_gen, gmax| served_logs(peer_gen, gmax).collect::<Vec<_>>();
        assert_eq!(served(0, 0), [(0, FragTail)], "no generation before 0");
        assert_eq!(served(2, 2), [(2, FragTail), (1, PrevTail)]);
        assert_eq!(served(1, 2), [(1, FragTail)], "one behind");
        assert_eq!(served(0, 2), [], "older: the snapshot covers it");
    }

    #[test]
    fn quorum_counts_per_scheme() {
        let ec = Durability::Ec { k: 4, n: 6 };
        assert_eq!(peers_per_file(Durability::Replicated, 2), 5);
        assert_eq!(ack_quorum(Durability::Replicated, 2), 3);
        assert_eq!(recovery_quorum(Durability::Replicated, 2), 3);
        assert_eq!(peers_per_file(ec, 1), 6);
        assert_eq!(ack_quorum(ec, 1), 6, "EC acks only at full coverage");
        assert_eq!(recovery_quorum(ec, 1), 4);
    }
}
