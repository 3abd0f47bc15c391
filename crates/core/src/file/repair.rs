//! Repair: inline peer replacement (§4.5.2), peer acquisition, and the
//! two catch-up transfers — a fresh peer's bulk copy and an existing
//! peer's tail in place or staged full copy — that recovery's rearm
//! shares.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use rdma::{CompletionQueue, RemoteMr, WcStatus, WorkRequest, WrId};
use telemetry::spans;

use super::phases::Phases;
use super::slots::{Flight, PeerSlot, Rep, RepWait, WcWait};
use super::staging::{FlushReason, Stage};
use super::{fan_out, free_regions, Ctx, NclFile};
use crate::detector::Backoff;
use crate::layout::{RegionHeader, HEADER_SIZE};
use crate::peer::{PeerReq, PeerResp};
use crate::NclError;

/// Phase timings of the last peer replacement (Table 3's breakdown): the
/// sums of the `ncl.repair` root's same-named children.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepairStats {
    /// Getting a new peer from the controller.
    pub get_peer: Duration,
    /// Connecting to the new peer and setting up its memory region.
    pub connect_mr: Duration,
    /// Catching the new peer up from the local buffer.
    pub catch_up: Duration,
    /// Updating the ap-map on the controller.
    pub update_ap_map: Duration,
}

impl NclFile {
    /// Phase timings of the most recent peer replacement.
    pub fn repair_stats(&self) -> RepairStats {
        self.rep_guard().last_repair
    }

    /// Replaces every dead peer slot, restoring the scheme's full peer set.
    ///
    /// Steps per the paper (§4.5.2) and Table 3: get new peers from the
    /// controller; connect and set up their memory regions; catch them up
    /// from the local buffer in parallel (so each holds everything up to
    /// the current sequence number); and only after that update the ap-map —
    /// first bumping the surviving peers' region epochs so the leak GC
    /// cannot misfire.
    ///
    /// The caller holds the staging lock (freezing the image and blocking
    /// new posts); the replication lock is dropped during the catch-up
    /// copies so concurrent durability waiters keep draining completions.
    pub(super) fn replace_failed(&self, stage: &mut Stage) -> Result<(), NclError> {
        let ctx = &*self.ctx;
        let tel = &ctx.config.telemetry;
        let scope = self.metrics.scope;
        let mut phases = Phases::start(tel, scope);
        // Catch-up stamps the image's tip, which covers any records still in
        // the pending burst (the staged image already contains their bytes).
        // Post the burst to the survivors first so the flush boundary and
        // the catch-up header agree — the model checker's
        // replace-implies-flush rule.
        self.flush_staged(stage, FlushReason::Replace);
        let header = stage.scheme.reset_header(&stage.image)?;

        // Phase A: drop dead slots (their QPs are in error state) and
        // acquire all replacements.
        let (epoch, mut fresh) = {
            let mut rep = self.rep_guard();
            if rep.peers.iter().all(|s| s.alive) && rep.peers.len() == ctx.config.replicas() {
                rep.repair_pending = false;
                rep.failure_seen = false;
                rep.publish_acked(&ctx.config);
                return Ok(());
            }
            let epoch = rep.epoch + 1;
            let mut exclude: Vec<String> = rep.peers.iter().map(|s| s.name.clone()).collect();
            rep.peers.retain(|s| s.alive);
            rep.rebuild_qp_map();
            phases.close(spans::NCL_REPAIR_FLUSH, epoch);
            let region_data = stage.scheme.region_data(self.capacity);
            // Each fresh peer inherits a dead slot's row — what the scheme
            // addresses its share of every burst by.
            let used: HashSet<u32> = rep.peers.iter().map(|s| s.row).collect();
            let free = (0..ctx.config.replicas() as u32).filter(|r| !used.contains(r));
            let missing = ctx.config.replicas() - rep.peers.len();
            let mut fresh = acquire_peers(
                ctx,
                &self.name,
                epoch,
                region_data,
                [missing, missing],
                &rep.cq,
                &mut exclude,
                &mut phases,
                [spans::NCL_REPAIR_GET_PEER, spans::NCL_REPAIR_CONNECT_MR],
            )?;
            for (slot, row) in fresh.iter_mut().zip(free) {
                slot.row = row;
            }
            for s in &fresh {
                rep.expecting.insert(s.qp.qp_num());
            }
            (epoch, fresh)
        };

        // Phase B (replication lock released): catch the fresh peers up in
        // parallel — each copy is a bulk RDMA write whose latency would
        // otherwise serialise.
        let wait = RepWait { file: self };
        let image = stage.scheme.ships_image().then(|| stage.image.valid());
        let results = fan_out(fresh.iter_mut(), |slot| {
            let name = spans::NCL_REPAIR_CATCH_UP_PEER;
            phases.peer(name, slot.scope, epoch, || {
                (catch_up_fresh(ctx, &wait, slot, &header, image), FRESH)
            })
        });
        let catchup_start = phases.mark;
        phases.close(spans::NCL_REPAIR_CATCH_UP, epoch);
        let catchup_end = phases.mark;

        // Phase C: commit.
        let mut rep = self.rep_guard();
        for s in &fresh {
            rep.expecting.remove(&s.qp.qp_num());
        }
        rep.prune_stray();
        if let Some(e) = results.into_iter().find_map(|r| r.err()) {
            // Survivors are kept; the fresh regions are freed, so a retry at
            // this epoch finds the peers clean. The caller defers or
            // retries. Close the repair root so its child spans stay
            // reachable.
            free_regions(ctx, &self.name, epoch, fresh.iter().map(|s| &s.endpoint));
            phases.finish(spans::NCL_REPAIR, epoch);
            return Err(e);
        }
        // Survivors first: bump their region epochs so e_r stays ≥ the
        // ap-map epoch (see peer::PeerReq::BumpEpoch).
        for slot in rep.peers.iter() {
            let _ = slot.endpoint.rpc.call(
                ctx.node,
                PeerReq::BumpEpoch {
                    app: ctx.app_id.clone(),
                    file: self.name.clone(),
                    epoch,
                },
            );
        }
        // Replaced-in peers never produced wire completions for bursts that
        // were in flight when they joined — the catch-up copy is what made
        // those records durable on them. Credit each such flight with a
        // catch-up coverage span over its range so its quorum is
        // reconstructible from the trace alone; the refresh below records
        // them ahead of any root it closes. (Their own wire spans start
        // above `header.seq`, where catch-up left their `completed_seq`.)
        let Rep {
            flights, span_buf, ..
        } = &mut *rep;
        let credited = |f: &&Flight| f.hi <= header.seq && f.trace != 0;
        for flight in flights.iter().filter(credited) {
            for slot in &fresh {
                span_buf.push(tel.closed_span(
                    flight.trace,
                    tel.next_span_id(),
                    flight.trace,
                    spans::NCL_CATCHUP_PEER,
                    slot.scope,
                    epoch,
                    (flight.lo, flight.hi),
                    catchup_start,
                    catchup_end,
                ));
            }
        }
        rep.peers.extend(fresh);
        rep.rebuild_qp_map();
        let names: Vec<String> = rep.peers.iter().map(|s| s.name.clone()).collect();
        ctx.controller
            .set_ap_entry(ctx.node, &ctx.app_id, &self.name, names, epoch)?;
        phases.close(spans::NCL_REPAIR_AP_MAP, epoch);
        let stats = RepairStats {
            get_peer: phases.total(spans::NCL_REPAIR_GET_PEER),
            connect_mr: phases.total(spans::NCL_REPAIR_CONNECT_MR),
            catch_up: phases.total(spans::NCL_REPAIR_CATCH_UP),
            update_ap_map: phases.total(spans::NCL_REPAIR_AP_MAP),
        };

        stage.scheme.adopt_reset(&header);
        rep.epoch = epoch;
        rep.repair_pending = false;
        // A survivor may have died while the replacements caught up; leave
        // the flag set so the next barrier repairs again.
        rep.failure_seen = rep.peers.iter().any(|s| !s.alive);
        rep.last_repair = stats;
        rep.refresh_durable(&ctx.config, sim::time::now());
        phases.finish(spans::NCL_REPAIR, epoch);
        Ok(())
    }

    /// Retries a deferred peer replacement (call from a background
    /// maintenance loop; the paper's "maintaining FT level").
    pub fn maintain(&self) -> Result<bool, NclError> {
        {
            let mut rep = self.rep_guard();
            let now = rep.drain(None);
            rep.refresh_durable(&self.ctx.config, now);
            if !rep.repair_pending && rep.peers.iter().all(|s| s.alive) {
                return Ok(false);
            }
        }
        let mut stage = self.stage_guard();
        self.replace_failed(&mut stage)?;
        Ok(true)
    }

    /// True when a peer failure is pending replacement.
    pub fn repair_pending(&self) -> bool {
        self.rep_guard().repair_pending
    }
}

/// Obtains up to `n` fresh peers for `file` at `epoch`, each lending a
/// region of `capacity` data bytes: one controller round asks for the
/// candidates (their availability is only a hint) and the `Alloc`s go out
/// in placement order on the caller's thread. A peer prices its
/// registration and answers at once, so the regions register side by side
/// and the caller waits once, for the last of them, before it returns —
/// every returned slot can be posted to. Another round runs only for
/// candidates that were stale or down, after a backoff when a whole round
/// came to nothing.
///
/// Returns fewer than `n` only when the controller runs out of eligible
/// peers or stops answering; fewer than `at_least` is an error, and then
/// the regions already allocated are freed again. On the caller's clock,
/// each controller round closes a `get_peer` phase (a backoff wait counts
/// toward the next round), each allocation attempt a `connect` one, and the
/// wait closes the last `connect` phase.
#[allow(clippy::too_many_arguments)]
pub(super) fn acquire_peers(
    ctx: &Ctx,
    file: &str,
    epoch: u64,
    capacity: usize,
    [n, at_least]: [usize; 2],
    cq: &CompletionQueue,
    exclude: &mut Vec<String>,
    phases: &mut Phases<'_>,
    [get_peer, connect]: [&'static str; 2],
) -> Result<Vec<PeerSlot>, NclError> {
    let need = (HEADER_SIZE + capacity) as u64;
    let mut backoff = Backoff::new(ctx.config.backoff_base, ctx.config.backoff_cap, epoch);
    let mut slots: Vec<PeerSlot> = Vec::with_capacity(n);
    let mut ready: Option<Instant> = None;
    let mut refused = None;
    while slots.len() < n {
        // A few spares per round, so one stale hint costs no extra round.
        let count = n - slots.len() + 3;
        let candidates = match ctx
            .controller
            .get_peers(ctx.node, &ctx.app_id, need, count, exclude)
        {
            Ok(candidates) => candidates,
            Err(e) => {
                refused = Some(e);
                break;
            }
        };
        phases.close(get_peer, epoch);
        if candidates.is_empty() {
            break;
        }
        let before = slots.len();
        for cand in candidates {
            if slots.len() == n {
                break;
            }
            exclude.push(cand.name.clone());
            let Some(endpoint) = ctx.registry.lookup(&cand.name) else {
                continue;
            };
            let resp = endpoint.rpc.call(
                ctx.node,
                PeerReq::Alloc {
                    app: ctx.app_id.clone(),
                    file: file.to_string(),
                    epoch,
                    capacity,
                },
            );
            let Ok(PeerResp::Mr(mr, at)) = resp else {
                phases.close(connect, epoch);
                continue; // The hint was stale or the peer is down.
            };
            // Connection setup is one more control round trip.
            ctx.config.control.charge(0);
            slots.push(PeerSlot::connect(ctx, cand.name, endpoint, mr, cq));
            ready = ready.max(Some(at));
            if slots.len() < n {
                phases.close(connect, epoch);
            }
        }
        if slots.len() == before {
            // Every candidate of this round was stale or down; back off
            // before asking the controller again so a flapping cluster is
            // not hammered.
            sim::delay(backoff.next_delay());
        }
    }
    if slots.len() < at_least {
        free_regions(ctx, file, epoch, slots.iter().map(|s| &s.endpoint));
        return Err(refused.unwrap_or_else(|| {
            NclError::QuorumUnavailable("controller has no eligible peers".to_string())
        }));
    }
    if let Some(ready) = ready {
        sim::delay_until(ready);
        phases.close(connect, epoch);
    }
    Ok(slots)
}

/// Posts `body` (bytes to place at data offset `.0`) and then `header`
/// into `mr` over the slot's queue pair without waiting, and returns the
/// header write's id, what [`landed`] waits for. Both writes borrow: the
/// body from the caller's image, the header from the stack. The WR ids are
/// the header sequence's, so on a live file the normal completion path
/// credits the peer with `header.seq`.
pub(super) fn post(
    slot: &PeerSlot,
    mr: &RemoteMr,
    header: &RegionHeader,
    body: Option<(usize, &[u8])>,
) -> Result<WrId, NclError> {
    let write = |wr_id, offset, data: &[u8]| {
        let wr = WorkRequest::Write {
            wr_id,
            mr: *mr,
            offset,
            data: data.into(),
        };
        slot.qp
            .post_many(&[wr])
            .map_err(|e| NclError::Unavailable(e.to_string()))
    };
    let seq = header.seq;
    if let Some((start, bytes)) = body.filter(|(_, bytes)| !bytes.is_empty()) {
        write(WrId(2 * seq), HEADER_SIZE + start, bytes)?;
    }
    let id = WrId(2 * seq + 1);
    write(id, 0, &header.encode())?;
    Ok(id)
}

/// Waits for the header write `id` that [`post`] put on the slot's queue
/// pair to complete.
pub(super) fn landed(
    ctx: &Ctx,
    wait: &dyn WcWait,
    slot: &PeerSlot,
    id: WrId,
) -> Result<(), NclError> {
    match wait.wait_for(slot.qp.qp_num(), id, ctx.config.write_timeout) {
        Some(wc) if wc.status == WcStatus::Success => Ok(()),
        _ => Err(NclError::Unavailable(format!(
            "header write to {} failed",
            slot.name
        ))),
    }
}

/// [`post`], then [`landed`].
pub(super) fn ship(
    ctx: &Ctx,
    wait: &dyn WcWait,
    slot: &PeerSlot,
    mr: &RemoteMr,
    header: &RegionHeader,
    body: Option<(usize, &[u8])>,
) -> Result<(), NclError> {
    let id = post(slot, mr, header, body)?;
    landed(ctx, wait, slot, id)
}

/// The detail of a per-peer catch-up span: how the peer was caught up.
pub(super) const FRESH: &str = "fresh peer";
const IN_PLACE: &str = "tail in place";
const FULL_COPY: &str = "full copy";

/// Catches a freshly allocated peer up: the scheme's reset `header`,
/// preceded by one bulk copy of `image` when the scheme ships the file
/// image to peers.
pub(super) fn catch_up_fresh(
    ctx: &Ctx,
    wait: &dyn WcWait,
    slot: &mut PeerSlot,
    header: &RegionHeader,
    image: Option<&[u8]>,
) -> Result<(), NclError> {
    let body = image.map(|bytes| (0, bytes));
    ship(ctx, wait, slot, &slot.mr, header, body)?;
    slot.completed_seq = header.seq;
    Ok(())
}

/// Recovery catch-up of a peer that still holds a (possibly lagging)
/// region, under the new `epoch`. Returns the caught-up slot, and how it
/// was caught up (the per-peer span's detail).
///
/// **In place** (a deviation from the paper's switch, §4.5.1) when the
/// scheme ships the image, neither header is overwritten and the peer's
/// length does not exceed the recovered one: the peer's bytes are then a
/// prefix of the recovered image (§6 byte-diff). One `Adopt` raises the
/// live region's epoch and re-keys it, fencing any earlier writer as the
/// switch's invalidate did; then the missing tail and the header go into
/// that region as one post and one wait. QP order lands the tail before
/// the header, so a crash mid-way leaves the old prefix or the recovered
/// header. A refused `Adopt` (a predecessor's recovery or repair already
/// raised the region to `epoch`) falls back to the full copy.
///
/// **Full copy** otherwise: stage a fresh region of `capacity` data bytes,
/// ship the whole image into it (only the reset header when the scheme
/// ships none), and atomically switch. A lagging circular region's bytes
/// are not a prefix of the recovered image (Figure 7ii), and an
/// erasure-coded reset rewrites the fragment area, so writing those in
/// place would destroy the only copy.
#[allow(clippy::too_many_arguments)]
pub(super) fn catch_up_existing(
    ctx: &Ctx,
    file: &str,
    epoch: u64,
    capacity: usize,
    wait: &dyn WcWait,
    slot: PeerSlot,
    peer_header: RegionHeader,
    header: &RegionHeader,
    image: Option<&[u8]>,
) -> (Result<PeerSlot, NclError>, &'static str) {
    let call = |req| slot.endpoint.rpc.call(ctx.node, req);
    let ids = || (ctx.app_id.clone(), file.to_string());
    let prefix = !header.overwritten && !peer_header.overwritten && peer_header.len <= header.len;
    if let Some(bytes) = image.filter(|_| prefix) {
        let (app, file) = ids();
        if let Ok(PeerResp::Mr(mr, _)) = call(PeerReq::Adopt { app, file, epoch }) {
            let start = peer_header.len as usize;
            let tail = Some((start, &bytes[start..]));
            let done = ship(ctx, wait, &slot, &mr, header, tail);
            let slot = PeerSlot {
                mr,
                completed_seq: header.seq,
                ..slot
            };
            return (done.map(|()| slot), IN_PLACE);
        }
    }
    let rejected = |what| NclError::Unavailable(format!("peer {} rejected {what}", slot.name));
    let (app, file) = ids();
    let Ok(PeerResp::Mr(staged, ready)) = call(PeerReq::Prepare {
        app,
        file,
        epoch,
        capacity,
    }) else {
        return (Err(rejected("prepare")), FULL_COPY);
    };
    // The staged region registers on the peer's pipe; post no earlier.
    sim::delay_until(ready);
    let body = image.map(|bytes| (0, bytes));
    let done = ship(ctx, wait, &slot, &staged, header, body).and_then(|()| {
        let (app, file) = ids();
        match call(PeerReq::Commit { app, file, epoch }) {
            Ok(PeerResp::Ok) => Ok(()),
            _ => Err(rejected("commit")),
        }
    });
    let slot = PeerSlot {
        mr: staged,
        completed_seq: header.seq,
        ..slot
    };
    (done.map(|()| slot), FULL_COPY)
}
