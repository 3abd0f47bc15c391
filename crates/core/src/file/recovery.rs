//! Application recovery (§4.5.1): one front half — ap-map lookup, header
//! reads from a recovery quorum, the scheme's reconstruction of the acked
//! prefix — feeding one epilogue: catch every peer up under a new epoch,
//! re-arm the peer set, and only then advance the ap-map and open the file.

use std::sync::Arc;
use std::time::Duration;

use rdma::{CompletionQueue, WcStatus, WrId};
use telemetry::spans;

use super::phases::Phases;
use super::repair::{acquire_peers, catch_up_existing, catch_up_fresh, FRESH};
use super::scheme::Scheme;
use super::slots::{PeerSlot, Responders, WcRouter, WcWait};
use super::{fan_out, free_regions, NclFile, NclLib};
use crate::layout::{RegionHeader, HEADER_WIRE_SIZE};
use crate::peer::{PeerReq, PeerResp};
use crate::NclError;

/// Phase timings of the last recovery (Figure 11b's breakdown): the sums
/// of the `ncl.recover` root's same-named children.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryStats {
    /// The ap-map lookup, and each controller round for a replacement of a
    /// peer that did not respond.
    pub get_peer: Duration,
    /// Connecting to peers and reading region headers, and each
    /// replacement's region allocation and connect.
    pub connect: Duration,
    /// RDMA-reading the recovered data image.
    pub rdma_read: Duration,
    /// Catching the peers up to the recovered image under the new epoch.
    pub catch_up: Duration,
    /// Updating the ap-map on the controller.
    pub update_ap_map: Duration,
    /// Synchronising peers: `catch_up + update_ap_map`.
    pub sync_peer: Duration,
}

impl NclFile {
    /// Phase timings of the recovery that produced this handle.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.rep_guard().last_recovery
    }
}

impl NclLib {
    /// Recovers an existing ncl file after an application restart: returns
    /// the file handle with its contents reconstructed from the peers (read
    /// them with [`NclFile::contents`] / [`NclFile::read`]).
    pub fn recover(&self, file: &str) -> Result<Arc<NclFile>, NclError> {
        let ctx = &*self.ctx;
        let tel = &ctx.config.telemetry;
        let scope = telemetry::intern_scope(&format!("{}/{}", ctx.app_id, file));
        let mut phases = Phases::start(tel, scope);

        // Phase 1: ap-map from the controller.
        let entry = ctx
            .controller
            .get_ap_entry(ctx.node, &ctx.app_id, file)?
            .ok_or_else(|| NclError::NotFound(file.to_string()))?;
        phases.close(spans::NCL_RECOVER_GET_PEER, entry.epoch);

        // Phase 2: contact peers, connect, read headers — one thread per
        // peer; the connect RPC and the header-read latency of the ap-map
        // peers overlap instead of accumulating.
        let cq = CompletionQueue::new();
        let router = WcRouter::new(&cq);
        let responders: Responders = fan_out(&entry.peers, |name| {
            let endpoint = ctx.registry.lookup(name)?;
            let resp = endpoint.rpc.call(
                ctx.node,
                PeerReq::RecoveryLookup {
                    app: ctx.app_id.clone(),
                    file: file.to_string(),
                },
            );
            let Ok(PeerResp::Mr(mr, _)) = resp else {
                return None;
            };
            let slot = PeerSlot::connect(ctx, name.clone(), endpoint, mr, &cq);
            // Read the fixed-location header.
            slot.qp
                .post_read(WrId(u64::MAX), &slot.mr, 0, HEADER_WIRE_SIZE)
                .ok()?;
            let wc = router.wait_for(slot.qp.qp_num(), WrId(u64::MAX), ctx.config.write_timeout)?;
            if wc.status != WcStatus::Success {
                return None;
            }
            let header = wc
                .read_data
                .as_deref()
                .and_then(RegionHeader::decode)
                .unwrap_or_default();
            Some((slot, header))
        })
        .into_iter()
        .flatten()
        .collect();
        if responders.len() < ctx.config.recovery_quorum() {
            return Err(NclError::QuorumUnavailable(format!(
                "{} of {} peers responded, need {}",
                responders.len(),
                entry.peers.len(),
                ctx.config.recovery_quorum()
            )));
        }
        phases.close(spans::NCL_RECOVER_CONNECT, entry.epoch);

        // Phase 3: reconstruct the acked prefix from the responders, by the
        // scheme's decode rule.
        let (mut scheme, image, responders) = Scheme::reconstruct(ctx, scope, responders, &router)?;
        phases.close(spans::NCL_RECOVER_RDMA_READ, entry.epoch);

        // Phase 4: catch every peer up to the recovered image under a new
        // epoch, then (and only then) advance the ap-map. The per-peer
        // catch-ups (tail in place, or a staged full copy) are independent —
        // run them in parallel, dropping any peer that dies mid-catch-up.
        let epoch = entry.epoch + 1;
        let header = scheme.reset_header(&image)?;
        scheme.adopt_reset(&header);
        let region_data = scheme.region_data(image.buffer.len());
        let shipped = scheme.ships_image().then(|| image.valid());
        let peer_span = spans::NCL_RECOVER_CATCH_UP_PEER;
        let mut slots: Vec<PeerSlot> = fan_out(responders, |(slot, peer_header)| {
            phases
                .peer(peer_span, slot.scope, epoch, || {
                    catch_up_existing(
                        ctx,
                        file,
                        epoch,
                        region_data,
                        &router,
                        slot,
                        peer_header,
                        &header,
                        shipped,
                    )
                })
                .ok()
        })
        .into_iter()
        .flatten()
        .collect();
        phases.close(spans::NCL_RECOVER_CATCH_UP, epoch);
        // Replace unreachable/failed peers to restore the FT level: acquire
        // the replacements together (one wait for their registrations) and
        // catch them up in parallel. Another round runs only for
        // replacements whose catch-up failed; their regions are freed.
        let mut exclude = entry.peers.clone();
        let names = [spans::NCL_RECOVER_GET_PEER, spans::NCL_RECOVER_CONNECT];
        let survivors = slots.len();
        while slots.len() < ctx.config.replicas() {
            let missing = ctx.config.replicas() - slots.len();
            let acquired = acquire_peers(
                ctx,
                file,
                epoch,
                region_data,
                [missing, 0],
                &cq,
                &mut exclude,
                &mut phases,
                names,
            );
            // No spare peers: proceed degraded if quorate.
            let fresh = acquired.unwrap_or_default();
            if fresh.is_empty() {
                break;
            }
            let caught_up = fan_out(fresh, |mut slot| {
                let done = phases.peer(peer_span, slot.scope, epoch, || {
                    (
                        catch_up_fresh(ctx, &router, &mut slot, &header, shipped),
                        FRESH,
                    )
                });
                (slot, done)
            });
            phases.close(spans::NCL_RECOVER_CATCH_UP, epoch);
            for (slot, done) in caught_up {
                match done {
                    Ok(()) => slots.push(slot),
                    Err(_) => free_regions(ctx, file, epoch, [&slot.endpoint]),
                }
            }
        }
        if slots.len() < ctx.config.quorum() {
            let fresh = slots[survivors..].iter().map(|s| &s.endpoint);
            free_regions(ctx, file, epoch, fresh);
            return Err(NclError::QuorumUnavailable(format!(
                "caught up {} peers during recovery, the acknowledgement quorum is {}",
                slots.len(),
                ctx.config.quorum()
            )));
        }
        let names: Vec<String> = slots.iter().map(|s| s.name.clone()).collect();
        ctx.controller
            .set_ap_entry(ctx.node, &ctx.app_id, file, names, epoch)?;
        phases.close(spans::NCL_RECOVER_AP_MAP, epoch);
        let total = |name| phases.total(name);
        let mut stats = RecoveryStats {
            get_peer: total(spans::NCL_RECOVER_GET_PEER),
            connect: total(spans::NCL_RECOVER_CONNECT),
            rdma_read: total(spans::NCL_RECOVER_RDMA_READ),
            catch_up: total(spans::NCL_RECOVER_CATCH_UP),
            update_ap_map: total(spans::NCL_RECOVER_AP_MAP),
            ..RecoveryStats::default()
        };
        stats.sync_peer = stats.catch_up + stats.update_ap_map;
        phases.finish(spans::NCL_RECOVER, epoch);
        Ok(NclFile::open(
            &self.ctx, file, scope, image, scheme, slots, cq, epoch, stats,
        ))
    }
}
