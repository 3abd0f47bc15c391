//! Application recovery (§4.5.1): one front half — ap-map lookup, header
//! reads from a recovery quorum, the scheme's reconstruction of the acked
//! prefix — feeding one epilogue: catch every peer up under a new epoch,
//! re-arm the peer set, and only then advance the ap-map and open the file.

use std::sync::Arc;
use std::time::Duration;

use rdma::{CompletionQueue, WrId};
use telemetry::spans;

use super::phases::Phases;
use super::repair::{acquire_peers, catch_up, plan_existing, How};
use super::scheme::Scheme;
use super::slots::{read_all, PeerSlot, Responders};
use super::{call_all, free_regions, NclFile, NclLib};
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
    /// them with [`NclFile::contents`] / [`NclFile::read`]). A recovery that
    /// fails frees the replacements it allocated, so a retry at the same
    /// epoch finds them clean.
    pub fn recover(&self, file: &str) -> Result<Arc<NclFile>, NclError> {
        let ctx = &*self.ctx;
        let scope = telemetry::intern_scope(&format!("{}/{}", ctx.app_id, file));
        let mut phases = Phases::start(&ctx.config.telemetry, spans::NCL_RECOVER, scope);

        // Phase 1: ap-map from the controller.
        let entry = ctx
            .controller
            .get_ap_entry(ctx.node, &ctx.app_id, file)?
            .ok_or_else(|| NclError::NotFound(file.to_string()))?;
        phases.close(spans::NCL_RECOVER_GET_PEER, entry.epoch);

        // Phase 2: every ap-map peer's `RecoveryLookup` priced at one
        // instant and waited for once, then every fixed-location header
        // read posted at one instant and waited for once.
        let cq = CompletionQueue::new();
        let endpoints: Vec<_> = (entry.peers.iter())
            .filter_map(|name| Some((ctx.registry.lookup(name)?, name.clone())))
            .collect();
        let answers = call_all(ctx, endpoints.iter().map(|(e, _)| e), || {
            PeerReq::RecoveryLookup {
                app: ctx.app_id.clone(),
                file: file.to_string(),
            }
        });
        let connected: Vec<PeerSlot> = endpoints
            .into_iter()
            .zip(answers)
            .filter_map(|((endpoint, name), answer)| match answer {
                Some(PeerResp::Mr(mr, _)) => Some(PeerSlot::connect(ctx, name, endpoint, mr, &cq)),
                _ => None,
            })
            .collect();
        let reads = connected
            .iter()
            .map(|s| (s, WrId(u64::MAX), 0, HEADER_WIRE_SIZE));
        let headers = read_all(ctx, &cq, reads);
        let responders: Responders = connected
            .into_iter()
            .zip(headers)
            .filter_map(|(slot, wc)| {
                let data = wc?.read_data;
                let header = data.as_deref().and_then(RegionHeader::decode);
                Some((slot, header.unwrap_or_default()))
            })
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
        let (mut scheme, image, responders) = Scheme::reconstruct(ctx, scope, responders, &cq)?;
        phases.close(spans::NCL_RECOVER_RDMA_READ, entry.epoch);

        // Phase 4: catch every peer up to the recovered image under a new
        // epoch (tail in place, or a staged full copy), dropping any peer
        // that fails, then (and only then) advance the ap-map.
        let epoch = entry.epoch + 1;
        let header = scheme.reset_header(&image)?;
        scheme.adopt_reset(&header);
        let region_data = scheme.region_data(image.buffer.len());
        let shipped = scheme.ships_image().then(|| image.valid());
        let plans = plan_existing(ctx, file, epoch, region_data, responders, &header, shipped);
        let span = spans::NCL_RECOVER_CATCH_UP_PEER;
        let caught_up = catch_up(ctx, file, epoch, &cq, &phases, span, &header, plans);
        let caught_up = caught_up.into_iter().filter_map(|(s, ok)| ok.then_some(s));
        let mut slots: Vec<PeerSlot> = caught_up.collect();
        phases.close(spans::NCL_RECOVER_CATCH_UP, epoch);
        // Replace unreachable/failed peers to restore the FT level: acquire
        // the replacements together (one wait for their registrations) and
        // catch them up together (one wait for their copies). Another round
        // runs only for replacements whose catch-up failed; their regions
        // are freed.
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
            let body = shipped.map(|bytes| (0, bytes));
            let plans = fresh.into_iter().map(|s| (s, body, How::Fresh)).collect();
            let caught_up = catch_up(ctx, file, epoch, &cq, &phases, span, &header, plans);
            phases.close(spans::NCL_RECOVER_CATCH_UP, epoch);
            let (caught_up, failed): (Vec<_>, Vec<_>) =
                caught_up.into_iter().partition(|&(_, ok)| ok);
            free_regions(ctx, file, epoch, failed.iter().map(|(s, _)| &s.endpoint));
            slots.extend(caught_up.into_iter().map(|(s, _)| s));
        }
        let published = if slots.len() < ctx.config.quorum() {
            Err(NclError::QuorumUnavailable(format!(
                "caught up {} peers during recovery, the acknowledgement quorum is {}",
                slots.len(),
                ctx.config.quorum()
            )))
        } else {
            let names: Vec<String> = slots.iter().map(|s| s.name.clone()).collect();
            ctx.controller
                .set_ap_entry(ctx.node, &ctx.app_id, file, names, epoch)
        };
        if let Err(e) = published {
            // Free what this attempt allocated, so a retry at the same epoch
            // finds the peers clean.
            let fresh = slots[survivors..].iter().map(|s| &s.endpoint);
            free_regions(ctx, file, epoch, fresh);
            return Err(e);
        }
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
        Ok(NclFile::open(
            &self.ctx, file, scope, image, scheme, slots, cq, epoch, stats,
        ))
    }
}
