//! Repair: inline peer replacement (§4.5.2), a runner of [`plan`]'s
//! decisions; and the runner step that create, recover and repair share —
//! [`fill_and_publish`]: peer acquisition, the catch-up — a fresh peer's
//! bulk copy, an existing peer's tail in place or staged full copy —
//! posted to every peer at once and waited for once, and the publish.

use std::time::{Duration, Instant};

use rdma::{CompletionQueue, RemoteMr, WorkRequest, WrId};
use telemetry::{spans, Span};

use super::phases::Phases;
use super::plan::{self, Action, ApMapUpdate, CaughtUp};
use super::scheme;
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
    /// Steps per the paper (§4.5.2) and Table 3, run by [`fill_and_publish`]:
    /// get new peers from the controller; connect and set up their memory
    /// regions; catch them up from the local buffer; and only after that
    /// update the ap-map — first bumping the surviving peers' region epochs
    /// so the leak GC cannot misfire. A repair that fails keeps the
    /// survivors and returns the error; the caller defers or retries it.
    ///
    /// The caller holds the staging lock (freezing the image and blocking
    /// new posts); the replication lock is not held while peers are
    /// acquired and caught up, so concurrent durability waiters keep
    /// draining completions.
    pub(super) fn replace_failed(&self, stage: &mut Stage) -> Result<(), NclError> {
        let ctx = &*self.ctx;
        let tel = &ctx.config.telemetry;
        let mut phases = Phases::start(tel, spans::NCL_REPAIR, self.metrics.scope);
        // Catch-up stamps the image's tip, which covers any records still in
        // the pending burst (the staged image already contains their bytes).
        // Post the burst to the survivors first so the flush boundary and
        // the catch-up header agree — the model checker's
        // replace-implies-flush rule.
        self.flush_staged(stage, FlushReason::Replace);
        let header = stage.scheme.reset_header(&stage.image)?;

        // Phase A: drop dead slots (their QPs are in error state).
        let (epoch, exclude) = {
            let mut rep = self.rep_guard();
            if rep.peers.iter().all(|s| s.alive) && rep.peers.len() == ctx.config.replicas() {
                rep.repair_due = None;
                rep.failure_seen = false;
                rep.publish_acked(&ctx.config);
                return Ok(());
            }
            let exclude = rep.peers.iter().map(|s| s.name.clone()).collect();
            rep.peers.retain(|s| s.alive);
            rep.rebuild_qp_map();
            (rep.epoch + 1, exclude)
        };
        phases.close(spans::NCL_REPAIR_FLUSH, epoch);

        // Phase B: fresh peers for the dead slots' rows, caught up from the
        // image and published with the survivors.
        let target = Target {
            file: &self.name,
            epoch,
            header,
            image: stage.scheme.ships_image().then(|| stage.image.valid()),
            region_data: stage.scheme.region_data(self.capacity),
            phases: [
                spans::NCL_REPAIR_GET_PEER,
                spans::NCL_REPAIR_CONNECT_MR,
                spans::NCL_REPAIR_CATCH_UP,
            ],
            peer_span: Some(spans::NCL_REPAIR_CATCH_UP_PEER),
        };
        let none = Default::default();
        let published = fill_and_publish(
            ctx,
            &target,
            &self.cq,
            Some(self),
            none,
            exclude,
            &mut phases,
        );

        // Phase C: commit.
        let mut rep = self.rep_guard();
        // What the catch-up left parked has no waiter; a one-off read may.
        rep.stray.retain(|(_, wc)| wc.wr_id.0 >= u64::MAX - 2);
        let fresh = published?;
        let catchup_end = phases.mark;
        let catchup_start = catchup_end - phases.total(spans::NCL_REPAIR_CATCH_UP);
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

/// What one control operation catches peers up to, and the names its
/// phases close under: `file`'s regions under `epoch`, each holding
/// `image` (when the scheme ships one) through `header`. A fresh or staged
/// region lends `region_data` data bytes.
pub(super) struct Target<'a> {
    pub file: &'a str,
    pub epoch: u64,
    pub header: RegionHeader,
    pub image: Option<&'a [u8]>,
    pub region_data: usize,
    /// The `[get_peer, connect, catch_up]` phase names.
    pub phases: [&'static str; 3],
    /// One peer's share of a `catch_up` phase, if the operation has a span
    /// for it (a create's seed has none).
    pub peer_span: Option<&'static str>,
}

/// The one step create, recover and repair end with: fills the rows no
/// `live` file's survivor nor landed `caught` peer (recover's responders,
/// each with whether it landed) holds with fresh peers, caught up as
/// [`Action::Fresh`], those that missed freed; publishes what the planner
/// allows; returns the peers that caught up. A new file asks again in place
/// of peers that missed and publishes at an ack quorum; a repair is all or
/// nothing and bumps its survivors' epochs first. A failed publish frees
/// the fresh regions, so a retry at the same epoch finds the peers clean.
pub(super) fn fill_and_publish(
    ctx: &Ctx,
    target: &Target<'_>,
    cq: &CompletionQueue,
    live: Option<&NclFile>,
    (mut slots, mut landed): (Vec<PeerSlot>, Vec<bool>),
    mut exclude: Vec<String>,
    phases: &mut Phases<'_>,
) -> Result<Vec<PeerSlot>, NclError> {
    let (durability, f, epoch) = (ctx.config.durability, ctx.config.f, target.epoch);
    let rep_wait = live.map(|file| RepWait { file });
    let wait: &dyn WcWait = rep_wait.as_ref().map_or(cq, |wait| wait);
    let kept: Vec<u32> = live.map_or_else(Vec::new, |file| {
        file.rep_guard().peers.iter().map(|s| s.row).collect()
    });
    let first_fresh = slots.len();
    // Sized before the regions it names, the peer set does not sit above them
    // on the heap, cutting a freed region's hole too small for the next one.
    slots.reserve(scheme::peers_per_file(durability, f));
    loop {
        let held = slots
            .iter()
            .zip(&landed)
            .filter_map(|(s, ok)| ok.then_some(s.row));
        let rows = plan::replacements(durability, f, kept.iter().copied().chain(held));
        if rows.is_empty() {
            break;
        }
        let want = [rows.len(), if live.is_some() { rows.len() } else { 0 }];
        let mut fresh = acquire_peers(ctx, target, want, cq, &mut exclude, phases)?;
        // No spare peers: publish degraded if quorate.
        if fresh.is_empty() {
            break;
        }
        // Each fresh peer inherits a free row — what the scheme addresses its
        // share of every burst by.
        for (slot, row) in fresh.iter_mut().zip(rows) {
            slot.row = row;
        }
        let round = catch_up(ctx, target, wait, phases, &mut fresh, |_| Action::Fresh);
        phases.close(target.phases[2], epoch);
        let missed = fresh.iter().zip(&round).filter(|(_, ok)| !**ok);
        free_regions(ctx, target.file, epoch, missed.map(|(s, _)| &s.endpoint));
        // The acquisition asked for every spare there was: ask again only in
        // place of peers that missed, and never in a repair.
        let again = live.is_none() && round.contains(&false);
        slots.append(&mut fresh);
        landed.extend(round);
        if !again {
            break;
        }
    }
    let rep = live.map(NclFile::rep_guard);
    let survivors: Vec<&PeerSlot> = rep.iter().flat_map(|rep| &rep.peers).collect();
    let (caught, _) = CaughtUp::landed(slots.iter().zip(landed.iter().copied()));
    let update = match live {
        None => ApMapUpdate::recovery(durability, f, &caught),
        Some(_) => ApMapUpdate::repair(&survivors, &caught),
    };
    let published = update.and_then(|update| {
        // Survivors first: bump their region epochs so e_r stays ≥ the
        // ap-map epoch (see peer::PeerReq::BumpEpoch).
        let (app, file) = (&ctx.app_id, target.file);
        let bump = || PeerReq::BumpEpoch {
            app: app.clone(),
            file: file.to_string(),
            epoch,
        };
        call_all(ctx, survivors.iter().map(|s| &s.endpoint), bump);
        let names = update.peers().map(|s| s.name.clone()).collect();
        ctx.controller
            .set_ap_entry(ctx.node, app, file, names, epoch)
    });
    if let Err(e) = published {
        let fresh = slots[first_fresh..].iter().zip(&landed[first_fresh..]);
        let fresh = fresh.filter(|(_, ok)| **ok).map(|(s, _)| &s.endpoint);
        free_regions(ctx, target.file, epoch, fresh);
        return Err(e);
    }
    let mut landed = landed.into_iter();
    slots.retain(|_| landed.next() == Some(true));
    Ok(slots)
}

/// Obtains up to `n` fresh peers for `target`'s file at its epoch, each
/// lending a region of its `region_data` bytes: one controller round asks
/// for the candidates (their availability is only a hint) and the `Alloc`s
/// go out at one instant, in placement order on the caller's thread. A
/// peer prices its registration and answers at once, and each connection
/// is one more control round trip priced after its answer, so the regions
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
fn acquire_peers(
    ctx: &Ctx,
    target: &Target<'_>,
    [n, at_least]: [usize; 2],
    cq: &CompletionQueue,
    exclude: &mut Vec<String>,
    phases: &mut Phases<'_>,
) -> Result<Vec<PeerSlot>, NclError> {
    let (file, epoch, capacity) = (target.file, target.epoch, target.region_data);
    let [get_peer, connect, _] = target.phases;
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

/// Catches `slots` up to `target` at once, each by its action `how(i)`
/// into the region it points at, then records each peer's span, if the
/// target names one, and returns whether each caught up. Every transfer is
/// posted at one instant — per peer one doorbell: the body its action cuts
/// from the image, if any, then the header, the one signalled write — and
/// waited for once; then every landed full copy's `Commit` is priced at one
/// instant and waited for once. Both writes borrow: the body from the
/// caller's image, the header from the stack. The WR ids are the header
/// sequence's, so on a live file the normal completion path credits the
/// peer with `header.seq`.
pub(super) fn catch_up(
    ctx: &Ctx,
    target: &Target<'_>,
    wait: &dyn WcWait,
    phases: &Phases<'_>,
    slots: &mut [PeerSlot],
    how: impl Fn(usize) -> Action,
) -> Vec<bool> {
    fn write(wr_id: u64, mr: RemoteMr, offset: usize, data: &[u8]) -> WorkRequest<'_> {
        let (wr_id, data) = (WrId(wr_id), data.into());
        WorkRequest::Write {
            wr_id,
            mr,
            offset,
            data,
        }
    }
    let (file, epoch) = (target.file, target.epoch);
    let at = sim::time::now();
    let (seq, header) = (target.header.seq, target.header.encode());
    let want: Vec<_> = (slots.iter().enumerate())
        .map(|(i, slot)| {
            let body = how(i)
                .body(target.image)
                .filter(|(_, bytes)| !bytes.is_empty());
            let body =
                body.map(|(start, bytes)| write(2 * seq, slot.mr, HEADER_SIZE + start, bytes));
            let wrs = body
                .into_iter()
                .chain([write(2 * seq + 1, slot.mr, 0, &header)]);
            let posted = slot.qp.post_many_at(at, wrs);
            posted.ok().map(|()| (slot.qp.qp_num(), WrId(2 * seq + 1)))
        })
        .collect();
    let landed = slots::landed(ctx, wait, &want).into_iter();
    let landed: Vec<_> = landed
        .map(|wc| wc.map(|wc| Duration::from_nanos(wc.wire_ns)))
        .collect();
    let copies = (slots.iter().enumerate().zip(&landed))
        .filter(|((i, _), wire)| how(*i) == Action::FullCopy && wire.is_some());
    let endpoints = copies.map(|((_, slot), _)| &slot.endpoint);
    let commit = || {
        let (app, file) = (ctx.app_id.clone(), file.to_string());
        PeerReq::Commit { app, file, epoch }
    };
    let mut committed = call_all(ctx, endpoints, commit).into_iter();
    (slots.iter_mut().enumerate().zip(landed))
        .map(|((i, slot), wire)| {
            if let Some(span) = target.peer_span {
                phases.peer(span, slot.scope.name(), epoch, (at, wire), how(i));
            }
            slot.completed_seq = seq;
            wire.is_some()
                && (how(i) != Action::FullCopy
                    || matches!(committed.next(), Some(Some(PeerResp::Ok))))
        })
        .collect()
}

/// Prepares the recovery catch-up of the responders, peers that still hold
/// a (possibly lagging) region, to `target`, by each one's planned
/// [`Action`]: every `Adopt` or `Prepare` priced at one instant, and one
/// wait. Returns the slots, pointed at the regions their bytes go into,
/// and their actions. An in-place catch-up (a deviation from the paper's switch,
/// §4.5.1) is one `Adopt` — it fences any earlier writer as the switch's
/// invalidate did — then the tail and the header into that region as one
/// post; QP order lands the tail before the header, so a crash mid-way
/// leaves the old prefix or the recovered header. A full copy stages a
/// fresh region for the `Commit` that switches it in. A refused step takes
/// the action's [`Action::refused`] successor, asked for once the refusal
/// is back: a full copy, or dropping the peer.
pub(super) fn prepare_existing(
    ctx: &Ctx,
    target: &Target<'_>,
    responders: Responders,
) -> (Vec<PeerSlot>, Vec<Action>) {
    let ids = || (ctx.app_id.clone(), target.file.to_string());
    let (epoch, capacity) = (target.epoch, target.region_data);
    let now = sim::time::now();
    let mut ready = now;
    let mut plans = (Vec::with_capacity(responders.len()), Vec::new());
    for (slot, peer) in responders {
        let mut at = now;
        let ships_image = target.image.is_some();
        let mut action = Some(Action::for_responder(ships_image, &target.header, &peer));
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
                    plans.0.push(PeerSlot { mr, ..slot });
                    plans.1.push(how);
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
