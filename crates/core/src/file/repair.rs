//! Repair: inline peer replacement (§4.5.2), a runner of [`plan`]'s
//! decisions; peer acquisition; and the catch-up that recovery shares — a
//! fresh peer's bulk copy, an existing peer's tail in place or staged full
//! copy — posted to every peer at once and waited for once.

use std::time::{Duration, Instant};

use rdma::{CompletionQueue, RemoteMr, WorkRequest, WrId};
use telemetry::{spans, Span};

use super::phases::Phases;
use super::plan::{self, Action, ApMapUpdate, CaughtUp};
use super::slots::{self, Flight, PeerSlot, RepWait, Responders, WcWait};
use super::staging::{FlushReason, Stage};
use super::{call_all, free_regions, Ctx, NclFile};
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
    /// from the local buffer, every copy posted at one instant and waited
    /// for once (so each holds everything up to the current sequence
    /// number); and only after that update the ap-map — first bumping the
    /// surviving peers' region epochs so the leak GC cannot misfire. A
    /// repair that fails after allocating keeps the survivors, frees the
    /// fresh regions and returns the error, so the caller defers or
    /// retries it at the same epoch.
    ///
    /// The caller holds the staging lock (freezing the image and blocking
    /// new posts); the replication lock is dropped during the catch-up
    /// copies so concurrent durability waiters keep draining completions.
    pub(super) fn replace_failed(&self, stage: &mut Stage) -> Result<(), NclError> {
        let ctx = &*self.ctx;
        let tel = &ctx.config.telemetry;
        let scope = self.metrics.scope;
        let mut phases = Phases::start(tel, spans::NCL_REPAIR, scope);
        // Catch-up stamps the image's tip, which covers any records still in
        // the pending burst (the staged image already contains their bytes).
        // Post the burst to the survivors first so the flush boundary and
        // the catch-up header agree — the model checker's
        // replace-implies-flush rule.
        self.flush_staged(stage, FlushReason::Replace);
        let header = stage.scheme.reset_header(&stage.image)?;

        // Phase A: drop dead slots (their QPs are in error state) and
        // acquire all replacements.
        let (epoch, fresh) = {
            let mut rep = self.rep_guard();
            if rep.peers.iter().all(|s| s.alive) && rep.peers.len() == ctx.config.replicas() {
                rep.repair_due = None;
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
            let (durability, f) = (ctx.config.durability, ctx.config.f);
            let free = plan::replacements(durability, f, rep.peers.iter().map(|s| s.row));
            let missing = free.len();
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
            (epoch, fresh)
        };

        // Phase B (replication lock released): catch the fresh peers up —
        // every bulk copy posted at one instant, one wait for them all.
        let wait = RepWait { file: self };
        let image = stage.scheme.ships_image().then(|| stage.image.valid());
        let body = Action::Fresh.body(image);
        let plans = fresh
            .into_iter()
            .map(|s| (s, body, Action::Fresh))
            .collect();
        let span = spans::NCL_REPAIR_CATCH_UP_PEER;
        let round = catch_up(ctx, &self.name, epoch, &wait, &phases, span, &header, plans);
        let (fresh, missed) = CaughtUp::landed(round);
        let catchup_start = phases.mark;
        phases.close(spans::NCL_REPAIR_CATCH_UP, epoch);
        let catchup_end = phases.mark;

        // Phase C: commit.
        let mut rep = self.rep_guard();
        // What the catch-up left parked has no waiter; a one-off read may.
        rep.stray.retain(|(_, wc)| wc.wr_id.0 >= u64::MAX - 2);
        let ids = || (ctx.app_id.clone(), self.name.clone());
        let published = ApMapUpdate::repair(&rep.peers, &fresh).and_then(|update| {
            // Survivors first: bump their region epochs so e_r stays ≥ the
            // ap-map epoch (see peer::PeerReq::BumpEpoch).
            let bump = || {
                let (app, file) = ids();
                PeerReq::BumpEpoch { app, file, epoch }
            };
            call_all(ctx, rep.peers.iter().map(|s| &s.endpoint), bump);
            let names = update.peers().map(|s| s.name.clone());
            let (app, file) = ids();
            ctx.controller
                .set_ap_entry(ctx.node, &app, &file, names.collect(), epoch)
        });
        if let Err(e) = published {
            // Survivors are kept; the fresh regions are freed, so a retry at
            // this epoch finds the peers clean. The caller defers or
            // retries.
            let fresh = fresh.peers().iter().chain(&missed);
            free_regions(ctx, &self.name, epoch, fresh.map(|s| &s.endpoint));
            return Err(e);
        }
        let fresh = fresh.into_peers();
        phases.close(spans::NCL_REPAIR_AP_MAP, epoch);
        // Replaced-in peers never produced wire completions for bursts that
        // were in flight when they joined — the catch-up copy is what made
        // those records durable on them. Credit each such flight with a
        // catch-up coverage span over its range so its quorum is
        // reconstructible from the trace alone; they are recorded here,
        // ahead of any root the refresh below closes. (Their own wire spans
        // start above `header.seq`, where catch-up left their
        // `completed_seq`.)
        let credited = |f: &&Flight| f.hi() <= header.seq && f.burst.trace != 0;
        let (start_ns, end_ns) = (tel.instant_ns(catchup_start), tel.instant_ns(catchup_end));
        let credits = rep.flights.iter().filter(credited).flat_map(|flight| {
            let (trace, seq) = (flight.burst.trace, flight.burst.seq);
            fresh.iter().map(move |slot| Span {
                trace,
                id: tel.next_trace_id(),
                parent: trace,
                name: spans::NCL_CATCHUP_PEER,
                scope: slot.scope.name(),
                epoch,
                seq,
                start_ns,
                end_ns,
                detail: None,
            })
        });
        tel.record_spans(credits);
        rep.peers.extend(fresh);
        rep.rebuild_qp_map();
        let stats = RepairStats {
            get_peer: phases.total(spans::NCL_REPAIR_GET_PEER),
            connect_mr: phases.total(spans::NCL_REPAIR_CONNECT_MR),
            catch_up: phases.total(spans::NCL_REPAIR_CATCH_UP),
            update_ap_map: phases.total(spans::NCL_REPAIR_AP_MAP),
        };

        stage.scheme.adopt_reset(&header);
        rep.epoch = epoch;
        rep.repair_due = None;
        // A survivor may have died while the replacements caught up; leave
        // the flag set so the next barrier repairs again.
        rep.failure_seen = rep.peers.iter().any(|s| !s.alive);
        rep.last_repair = stats;
        rep.refresh_durable(&ctx.config, sim::time::now());
        Ok(())
    }

    /// Retries a pending peer replacement now (the paper's "maintaining FT
    /// level"). The write path needs no caller: its barrier retries one by
    /// itself at most once per [`NclConfig::reattach_probe`]; splitfs calls
    /// this from a degraded route's re-attach probe.
    ///
    /// [`NclConfig::reattach_probe`]: crate::NclConfig::reattach_probe
    pub fn maintain(&self) -> Result<bool, NclError> {
        {
            let mut rep = self.rep_guard();
            let now = rep.drain(None);
            rep.refresh_durable(&self.ctx.config, now);
            if rep.repair_due.is_none() && rep.peers.iter().all(|s| s.alive) {
                return Ok(false);
            }
        }
        let mut stage = self.stage_guard();
        self.replace_failed(&mut stage)?;
        Ok(true)
    }

    /// True while the file is short of peers and a replacement is pending:
    /// a failed peer not yet replaced, or a create that opened on an ack
    /// quorum.
    pub fn repair_pending(&self) -> bool {
        self.rep_guard().repair_due.is_some()
    }
}

/// Obtains up to `n` fresh peers for `file` at `epoch`, each lending a
/// region of `capacity` data bytes: one controller round asks for the
/// candidates (their availability is only a hint) and the `Alloc`s go out
/// at one instant, in placement order on the caller's thread. A peer
/// prices its registration and answers at once, and each connection is one
/// more control round trip priced after its answer, so the regions
/// register and connect side by side and the caller waits once, for the
/// last of them, before it returns — every returned slot can be posted to.
/// Another round runs only for candidates that were stale or down, after a
/// backoff when a whole round came to nothing.
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
        let (before, at) = (slots.len(), sim::time::now());
        for cand in candidates {
            if slots.len() == n {
                break;
            }
            exclude.push(cand.name.clone());
            let Some(endpoint) = ctx.registry.lookup(&cand.name) else {
                continue;
            };
            let resp = endpoint.rpc.call_at(
                ctx.node,
                at,
                PeerReq::Alloc {
                    app: ctx.app_id.clone(),
                    file: file.to_string(),
                    epoch,
                    capacity,
                },
            );
            let Ok((PeerResp::Mr(mr, registered), back)) = resp else {
                phases.close(connect, epoch);
                continue; // The hint was stale or the peer is down.
            };
            // Connection setup is one more control round trip.
            let connected = back + ctx.config.control.base;
            slots.push(PeerSlot::connect(ctx, cand.name, endpoint, mr, cq));
            ready = ready.max(Some(registered.max(connected)));
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

/// Posts to every slot at one instant — per peer one doorbell: its body
/// (bytes for a data offset), if any, then `header`, the one signalled
/// write, into the slot's region — and waits once for the headers to land.
/// Both writes borrow: the body from the caller's image, the header from
/// the stack. The WR ids are the header sequence's, so on a live file the
/// normal completion path credits the peer with `header.seq`. Returns the
/// post instant and, per slot, its header's wire time if it landed.
pub(super) fn ship_all<'s, 'b>(
    ctx: &Ctx,
    wait: &dyn WcWait,
    header: &RegionHeader,
    transfers: impl IntoIterator<Item = (&'s PeerSlot, Option<(usize, &'b [u8])>)>,
) -> (Instant, Vec<Option<Duration>>) {
    fn write(wr_id: u64, mr: RemoteMr, offset: usize, data: &[u8]) -> WorkRequest<'_> {
        let (wr_id, data) = (WrId(wr_id), data.into());
        WorkRequest::Write {
            wr_id,
            mr,
            offset,
            data,
        }
    }
    let at = sim::time::now();
    let (seq, encoded) = (header.seq, header.encode());
    let want: Vec<_> = transfers
        .into_iter()
        .map(|(slot, body)| {
            let (mr, body) = (slot.mr, body.filter(|(_, bytes)| !bytes.is_empty()));
            let body = body.map(|(start, bytes)| write(2 * seq, mr, HEADER_SIZE + start, bytes));
            let wrs = body
                .into_iter()
                .chain([write(2 * seq + 1, mr, 0, &encoded)]);
            let posted = slot.qp.post_many_at(at, wrs);
            posted.ok().map(|()| (slot.qp.qp_num(), WrId(2 * seq + 1)))
        })
        .collect();
    let landed = slots::landed(ctx, wait, &want).into_iter();
    let wire = landed.map(|wc| wc.map(|wc| Duration::from_nanos(wc.wire_ns)));
    (at, wire.collect())
}

/// One peer's catch-up: its slot, pointed at the region its bytes go into,
/// the body (bytes for a data offset) ahead of the header, and its action.
pub(super) type Plan<'b> = (PeerSlot, Option<(usize, &'b [u8])>, Action);

/// Catches peers up by their `plans` at once: every transfer posted at one
/// instant and waited for once, then every landed full copy's `Commit`
/// priced at one instant and waited for once. Records each peer's `span`
/// and returns each slot with whether it caught up.
#[allow(clippy::too_many_arguments)]
pub(super) fn catch_up(
    ctx: &Ctx,
    file: &str,
    epoch: u64,
    wait: &dyn WcWait,
    phases: &Phases<'_>,
    span: &'static str,
    header: &RegionHeader,
    plans: Vec<Plan<'_>>,
) -> Vec<(PeerSlot, bool)> {
    let transfers = plans.iter().map(|(slot, body, _)| (slot, *body));
    let (at, landed) = ship_all(ctx, wait, header, transfers);
    let copies = plans
        .iter()
        .zip(&landed)
        .filter(|((.., how), wire)| *how == Action::FullCopy && wire.is_some());
    let endpoints = copies.map(|((slot, ..), _)| &slot.endpoint);
    let commit = || {
        let (app, file) = (ctx.app_id.clone(), file.to_string());
        PeerReq::Commit { app, file, epoch }
    };
    let mut committed = call_all(ctx, endpoints, commit).into_iter();
    let plans = plans.into_iter().zip(landed);
    plans
        .map(|((mut slot, _, how), wire)| {
            phases.peer(span, slot.scope.name(), epoch, (at, wire), how);
            slot.completed_seq = header.seq;
            let ok = wire.is_some()
                && (how != Action::FullCopy
                    || matches!(committed.next(), Some(Some(PeerResp::Ok))));
            (slot, ok)
        })
        .collect()
}

/// Prepares the recovery catch-up of the responders, peers that still hold
/// a (possibly lagging) region, under the new `epoch`, by each one's
/// planned [`Action`]: every `Adopt` or `Prepare` priced at one instant, and
/// one wait. An in-place catch-up (a deviation from the paper's switch,
/// §4.5.1) is one `Adopt` — it fences any earlier writer as the switch's
/// invalidate did — then the tail and the header into that region as one
/// post; QP order lands the tail before the header, so a crash mid-way
/// leaves the old prefix or the recovered header. A full copy stages a
/// fresh region of `capacity` data bytes for the `Commit` that switches it
/// in. A refused step takes the action's [`Action::refused`] successor,
/// asked for once the refusal is back: a full copy, or dropping the peer.
pub(super) fn prepare_existing<'b>(
    ctx: &Ctx,
    file: &str,
    epoch: u64,
    capacity: usize,
    responders: Responders,
    header: &RegionHeader,
    image: Option<&'b [u8]>,
) -> Vec<Plan<'b>> {
    let ids = || (ctx.app_id.clone(), file.to_string());
    let now = sim::time::now();
    let mut ready = now;
    let mut plans = Vec::with_capacity(responders.len());
    for (slot, peer) in responders {
        let mut at = now;
        let mut action = Some(Action::for_responder(image.is_some(), header, &peer));
        while let Some(how) = action {
            let (app, file) = ids();
            let req = match how {
                Action::InPlace { .. } => PeerReq::Adopt { app, file, epoch },
                Action::Fresh | Action::FullCopy => PeerReq::Prepare {
                    app,
                    file,
                    epoch,
                    capacity,
                },
            };
            match slot.endpoint.rpc.call_at(ctx.node, at, req) {
                // A staged region registers on the peer's pipe; post no
                // earlier.
                Ok((PeerResp::Mr(mr, registered), back)) => {
                    ready = ready.max(back).max(registered);
                    plans.push((PeerSlot { mr, ..slot }, how.body(image), how));
                    break;
                }
                Ok((_, back)) => at = back,
                Err(_) => {}
            }
            action = how.refused();
        }
    }
    sim::delay_until(ready);
    plans
}
