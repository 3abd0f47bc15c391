//! Application recovery (§4.5.1), a runner of [`plan`]'s decisions: one
//! front half — ap-map lookup, header reads, the planner's quorum check and
//! source, the scheme's reconstruction of the acked prefix — then every
//! responder caught up under a new epoch by its planned action, and the
//! epilogue create and repair end with too (`repair::fill_and_publish`):
//! replace the missing peers, and only then publish the caught-up set to
//! the ap-map, before the file opens.

use std::sync::Arc;
use std::time::Duration;

use rdma::{CompletionQueue, WrId};
use telemetry::spans;

use super::phases::Phases;
use super::plan;
use super::repair::{catch_up, fill_and_publish, prepare_existing, Target};
use super::scheme::Scheme;
use super::slots::{read_all, PeerSlot, Responders};
use super::{call_all, NclFile, NclLib};
use crate::layout::{RegionHeader, HEADER_WIRE_SIZE};
use crate::peer::Daemon;
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
            .control(|c| c.get_ap_entry(&ctx.app_id, file))?
            .ok_or_else(|| NclError::NotFound(file.to_string()))?;
        phases.close(spans::NCL_RECOVER_GET_PEER, entry.epoch);

        // Phase 2: every ap-map peer's `lookup` priced at one
        // instant and waited for once, then every fixed-location header
        // read posted at one instant and waited for once.
        let cq = CompletionQueue::new();
        let endpoints: Vec<_> = (entry.peers.iter().zip(0..))
            .filter_map(|(name, row)| Some((ctx.registry.lookup(name)?, name.clone(), row)))
            .collect();
        let lookup = |d: &mut Daemon, at| d.lookup(at, &ctx.app_id, file);
        let answers = call_all(ctx, endpoints.iter().map(|(e, ..)| e), lookup);
        let connected: Vec<PeerSlot> = endpoints
            .into_iter()
            .zip(answers)
            .filter_map(|((endpoint, name, row), answer)| match answer {
                Some(Ok((mr, _))) => {
                    let slot = PeerSlot::connect(ctx, name, endpoint, mr, &cq);
                    Some(PeerSlot { row, ..slot })
                }
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
        let (durability, f) = (ctx.config.durability, ctx.config.f);
        let headers: Vec<RegionHeader> = responders.iter().map(|(_, h)| *h).collect();
        let source = plan::source(durability, f, entry.peers.len(), &headers)?;
        phases.close(spans::NCL_RECOVER_CONNECT, entry.epoch);

        // Phase 3: reconstruct the acked prefix from the planned source.
        let (mut scheme, image, responders) =
            Scheme::reconstruct(ctx, scope, responders, source, &cq)?;
        phases.close(spans::NCL_RECOVER_RDMA_READ, entry.epoch);

        // Phase 4: catch every peer up to the recovered image under a new
        // epoch by its planned action (tail in place, or a staged full
        // copy), dropping any peer that fails, replace the missing ones, and
        // only then publish.
        let epoch = entry.epoch + 1;
        let header = scheme.reset_header(&image)?;
        scheme.adopt_reset(&header);
        let target = Target {
            file,
            epoch,
            header,
            image: scheme.ships_image().then(|| image.valid()),
            region_data: scheme.region_data(image.buffer.len()),
            phases: [
                spans::NCL_RECOVER_GET_PEER,
                spans::NCL_RECOVER_CONNECT,
                spans::NCL_RECOVER_CATCH_UP,
            ],
            peer_span: Some(spans::NCL_RECOVER_CATCH_UP_PEER),
        };
        let (mut slots, actions) = prepare_existing(ctx, &target, responders);
        let landed = catch_up(ctx, &target, &cq, &phases, &mut slots, |i| actions[i]);
        phases.close(spans::NCL_RECOVER_CATCH_UP, epoch);
        let (caught, exclude) = ((slots, landed), entry.peers.clone());
        let slots = fill_and_publish(ctx, &target, &cq, None, caught, exclude, &mut phases)?;
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
