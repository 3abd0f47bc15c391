//! Application recovery (§4.5.1): one front half — ap-map lookup, header
//! reads from a recovery quorum, the scheme's reconstruction of the acked
//! prefix — feeding one epilogue: catch every peer up under a new epoch,
//! re-arm the peer set, and only then advance the ap-map and open the file.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rdma::{CompletionQueue, WcStatus, WrId};
use sim::Stopwatch;
use telemetry::{events, spans};

use super::repair::{acquire_peer, catch_up_existing, catch_up_fresh, RepairStats};
use super::scheme::Scheme;
use super::slots::{PeerSlot, Responders, WcRouter, WcWait};
use super::{fan_out, NclFile, NclLib};
use crate::layout::{RegionHeader, HEADER_WIRE_SIZE};
use crate::peer::{PeerReq, PeerResp};
use crate::NclError;

/// Phase timings of the last recovery (Figure 11b's breakdown).
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryStats {
    /// Fetching peer information from the controller.
    pub get_peer: Duration,
    /// Connecting to peers and reading region headers.
    pub connect: Duration,
    /// RDMA-reading the recovered data image.
    pub rdma_read: Duration,
    /// Catching the peers up to the recovered image under the new epoch,
    /// including replacing the ones that did not respond.
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
        let mut stats = RecoveryStats::default();
        let scope = telemetry::intern_scope(&format!("{}/{}", ctx.app_id, file));
        let recover_trace = tel.next_trace_id();
        let recover_start = Instant::now();
        // Closes one child span of the recovery root, ending now.
        let phase = |name: &'static str, epoch: u64, start: Instant| {
            tel.span_auto(
                recover_trace,
                recover_trace,
                name,
                scope,
                epoch,
                start,
                Instant::now(),
            );
        };

        // Phase 1: ap-map from the controller.
        let sw = Stopwatch::start();
        let entry = ctx
            .controller
            .get_ap_entry(ctx.node, &ctx.app_id, file)?
            .ok_or_else(|| NclError::NotFound(file.to_string()))?;
        stats.get_peer = sw.elapsed();
        tel.event_traced(
            events::RECOVERY_START,
            scope,
            entry.epoch,
            recover_trace,
            format!("{} ap-map peers", entry.peers.len()),
        );

        // Phase 2: contact peers, connect, read headers — one thread per
        // peer; the connect RPC and the header-read latency of the ap-map
        // peers overlap instead of accumulating.
        let sw = Stopwatch::start();
        let fetch_start = Instant::now();
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
            let Ok(PeerResp::Mr(mr)) = resp else {
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
        stats.connect = sw.elapsed();

        // Phase 3: reconstruct the acked prefix from the responders, by the
        // scheme's decode rule.
        let sw = Stopwatch::start();
        let (mut scheme, image, responders) = Scheme::reconstruct(ctx, scope, responders, &router)?;
        stats.rdma_read = sw.elapsed();
        phase(spans::NCL_RECOVER_FETCH, entry.epoch, fetch_start);

        // Phase 4: catch every peer up to the recovered image under a new
        // epoch, then (and only then) advance the ap-map. The per-peer
        // prepare/copy/commit pipelines are independent — run them in
        // parallel, dropping any peer that dies mid-catch-up.
        let sw = Stopwatch::start();
        let replay_start = Instant::now();
        let epoch = entry.epoch + 1;
        let header = scheme.reset_header(&image)?;
        scheme.adopt_reset(&header);
        let region_data = scheme.region_data(image.buffer.len());
        let shipped = scheme.ships_image().then(|| image.valid());
        let mut slots: Vec<PeerSlot> = fan_out(responders, |(slot, peer_header)| {
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
            .ok()
        })
        .into_iter()
        .flatten()
        .collect();
        phase(spans::NCL_RECOVER_REPLAY, epoch, replay_start);
        // Replace unreachable/failed peers to restore the FT level.
        let rearm_start = Instant::now();
        let mut exclude: Vec<String> = entry.peers.clone();
        exclude.extend(slots.iter().map(|s| s.name.clone()));
        exclude.sort();
        exclude.dedup();
        while slots.len() < ctx.config.replicas() {
            let acquired = acquire_peer(
                ctx,
                file,
                epoch,
                region_data,
                &cq,
                &mut exclude,
                &mut RepairStats::default(),
            );
            let Ok(mut slot) = acquired else {
                break; // No spare peers; proceed degraded if quorate.
            };
            if catch_up_fresh(ctx, &router, &mut slot, epoch, &header, shipped).is_ok() {
                slots.push(slot);
            }
        }
        if slots.len() < ctx.config.quorum() {
            return Err(NclError::QuorumUnavailable(format!(
                "caught up {} peers during recovery, the acknowledgement quorum is {}",
                slots.len(),
                ctx.config.quorum()
            )));
        }
        stats.catch_up = sw.elapsed();
        let sw = Stopwatch::start();
        let names: Vec<String> = slots.iter().map(|s| s.name.clone()).collect();
        ctx.controller
            .set_ap_entry(ctx.node, &ctx.app_id, file, names, epoch)?;
        stats.update_ap_map = sw.elapsed();
        stats.sync_peer = stats.catch_up + stats.update_ap_map;
        phase(spans::NCL_RECOVER_REARM, epoch, rearm_start);

        let seq = image.seq;
        tel.event_traced(
            events::RECOVERY_FINISH,
            scope,
            epoch,
            recover_trace,
            format!(
                "seq={seq} peers={} get_peer={:?} connect={:?} rdma_read={:?} catch_up={:?} \
                 update_ap_map={:?}",
                slots.len(),
                stats.get_peer,
                stats.connect,
                stats.rdma_read,
                stats.catch_up,
                stats.update_ap_map
            ),
        );
        tel.span(
            recover_trace,
            recover_trace,
            0,
            spans::NCL_RECOVER,
            scope,
            epoch,
            recover_start,
            Instant::now(),
        );
        Ok(NclFile::open(
            &self.ctx, file, scope, image, scheme, slots, cq, epoch, stats,
        ))
    }
}
