//! `ncl-lib`: the application-linked client of NCL.
//!
//! This module implements the paper's §4.4–§4.5: the failure-free
//! replication protocol, application recovery, and peer failure handling.
//! It is one pipeline — stage, post per-peer work requests, acknowledge a
//! prefix by a rule, reconstruct from responders, catch up before the
//! ap-map moves — parameterised by a durability [`scheme`]:
//!
//! | module | responsibility |
//! |---|---|
//! | `staging` | the local image, the pending burst and the pipeline window: `record_nowait` / `submit` / the one flush function |
//! | `slots` | peer slots, completion absorption, the acknowledgement watermark and the durability barrier (`wait_durable`) |
//! | `repair` | inline peer replacement, the catch-up transfers, and the one runner step create, recover and repair end with: acquire → catch up → publish |
//! | `recovery` | `NclLib::recover`: the quorum read front half and the responders' catch-up |
//! | `phases` | the control path's one clock: each phase of create / recover / repair is one child span, and the stats are read off them |
//! | [`scheme`] | everything that differs between `Replicated` and `Ec { k, n }` |
//!
//! ## Replication (§4.4)
//!
//! Every application `record` (a POSIX `write` to an ncl file) is staged in
//! a local buffer and turned into one-sided RDMA writes per peer, in
//! send-queue order: the data, then the fixed-location region header
//! carrying the new sequence number. The record is acknowledged when every
//! record up to and including it has completed — data *and* header — on at
//! least a majority (`f + 1`) of the `2f + 1` peers. Because each queue pair
//! completes in post order, "peer completed header `2s+1`" implies all
//! records `≤ s` are fully present on that peer.
//!
//! ## Pipelining
//!
//! That prefix guarantee is also what makes the write path pipelinable:
//! acknowledging record `s` never requires records `> s` to be absent, so a
//! writer may post several records back to back and wait once. The split is
//! [`NclFile::record_nowait`] (stage, returns the sequence number) and
//! [`NclFile::wait_durable`] (the durability barrier); the synchronous
//! [`NclFile::record`] is the composition of the two. A bounded in-flight
//! window ([`NclConfig::pipeline_window`]) keeps a runaway producer from
//! queueing unbounded work on the NIC. Failure handling — peer death,
//! majority loss, inline replacement — lives entirely in the drain path
//! (`wait_durable`), which preserves the invariant that an acknowledged
//! record implies its whole prefix is durable on a quorum.
//!
//! ## Batched submission
//!
//! `record_nowait` does not post to the NIC at all: it copies the record
//! into the staging image, its only copy, and adds the range it wrote to a
//! pending burst. The whole burst is posted with **one doorbell per peer**
//! ([`rdma::QueuePair::post_many_at`]) when the burst reaches the pipeline
//! window, when a barrier needs it, or when the application rings the
//! doorbell explicitly ([`NclFile::submit`]). Within a burst, each run of
//! remotely-contiguous ranges is one write borrowed from the image, and
//! only the burst-final record's header is encoded and posted: all headers
//! overwrite the same fixed location, recovery reads only the latest one,
//! and the prefix rule above needs only the highest sequence number per
//! barrier. A crash mid-burst can therefore lose records whose data landed
//! but whose (coalesced) header did not — exactly the un-acknowledged tail,
//! which the protocol never promised to keep. `crates/modelcheck` explores
//! the coalesced interleavings explicitly.
//!
//! Internally the file state is split into two locks: `stage` (the local
//! image, the pending burst, and the scheme's encoder state) and `rep`
//! (peer slots, completion bookkeeping). Posting holds both briefly so
//! per-QP post order equals sequence order; the durability wait holds
//! neither while blocking on the completion queue, so concurrent posters
//! are never stalled behind a waiter.
//!
//! ## Recovery (§4.5.1)
//!
//! A restarted application reads the region header from at least a
//! recovery quorum of the ap-map peers, reconstructs the acknowledged
//! prefix from them (the scheme's decode rule: the maximum-sequence peer's
//! image when replicated — quorum intersection guarantees it covers every
//! acknowledged record — or a spill snapshot plus a fragment walk over any
//! `k` holders when erasure-coded), and then **catches up** the peers
//! before returning data to the application: a peer whose append-only
//! bytes are a prefix of the recovered image re-keys its region in place
//! and receives just the missing tail and header; any other peer stages a
//! fresh region, receives the whole image, and atomically switches its
//! mr-map entry. Only then is the ap-map advanced to the new epoch. Doing
//! these steps in the opposite order loses data — the model checker in
//! `crates/modelcheck` demonstrates both seeded bugs. The per-peer header
//! reads and catch-up transfers are independent, so each phase prices
//! every peer's RPCs, posts every peer's requests at one instant and waits
//! once, on the caller's thread.
//!
//! ## Peer replacement (§4.5.2)
//!
//! When a work request fails, the peer is declared dead. If a majority is
//! still alive the current record completes first; replacement then runs
//! inline (the paper's Figure 12 "blip"), and then bumps the surviving
//! peers' region epochs before it swings the ap-map. If a majority is
//! lost, the record blocks until replacement restores a quorum.
//!
//! ## One runner for create, recovery and repair
//!
//! A create is a recovery with no responders, of an empty image, and all
//! three end in one step: fill the rows no caught-up peer holds with fresh
//! peers at the new epoch, catch them up, and publish what the [`plan`]
//! lets them. The `Alloc`s of one controller round go out one after
//! another on the caller's thread, each peer prices its registration on
//! its own registration pipe, and the caller waits once, for the latest —
//! so the registrations overlap. Every fresh peer then receives the image
//! (under erasure coding, none) and the header — for a create, the
//! scheme's seq-0 header — at one instant, and one that missed is freed.
//! Create and recovery ask for a spare in its place and publish what
//! caught up if it makes the ack quorum; a repair publishes all of its
//! fresh peers or none. A publish that fails frees the fresh regions, so a
//! retry at the same epoch finds the peers clean.

mod phases;
pub mod plan;
mod recovery;
mod repair;
pub mod scheme;
mod slots;
mod staging;

pub use recovery::RecoveryStats;
pub use repair::RepairStats;

use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use rdma::CompletionQueue;
use sim::{Cluster, NodeId};
use telemetry::{spans, Telemetry};

use self::phases::Phases;
use self::repair::{fill_and_publish, Target};
use self::scheme::Scheme;
use self::slots::{AckedState, PeerSlot, Rep};
use self::staging::{FileMetrics, Image, Stage};
use crate::config::NclConfig;
use crate::controller::{Controller, ControllerClient, ControllerState};
use crate::peer::Daemon;
use crate::registry::{NclRegistry, PeerEndpoint};
use crate::NclError;

/// Shared context of one application instance.
struct Ctx {
    cluster: Cluster,
    node: NodeId,
    app_id: String,
    config: NclConfig,
    controller: ControllerClient,
    registry: Arc<NclRegistry>,
}

impl Ctx {
    /// Runs `op` on the controller and waits for its answer.
    fn control<T>(&self, op: impl FnOnce(&mut ControllerState) -> T) -> Result<T, NclError> {
        Ok(self.controller.call(self.node, |c, _| op(c))?)
    }
}

/// Runs `op` on each of `endpoints`' daemons, passed the instant it is
/// served at, all issued at one instant, and waits once, for the latest
/// answer, so the round trips overlap. Returns the answers in order, `None`
/// for a call that failed.
fn call_all<'a, T>(
    ctx: &Ctx,
    endpoints: impl IntoIterator<Item = &'a PeerEndpoint>,
    op: impl Fn(&mut Daemon, Instant) -> T,
) -> Vec<Option<T>> {
    let now = sim::time::now();
    let mut ready = now;
    let answers = endpoints
        .into_iter()
        .map(|endpoint| {
            let call = endpoint
                .rpc
                .call_at(ctx.node, now, |d, s| op(&mut d.lock(), s.at));
            let (answer, back) = call.ok()?;
            ready = ready.max(back);
            Some(answer)
        })
        .collect();
    sim::delay_until(ready);
    answers
}

/// Frees `file`'s regions on `endpoints` at `epoch`, best effort: a peer
/// that does not answer reclaims its region later, by epoch or by lease.
fn free_regions<'a>(
    ctx: &Ctx,
    file: &str,
    epoch: u64,
    endpoints: impl IntoIterator<Item = &'a PeerEndpoint>,
) {
    call_all(ctx, endpoints, |d, _| d.free(&ctx.app_id, file, epoch));
}

/// Handle to the NCL layer for one application instance.
///
/// Creating an `NclLib` acquires the application's single-instance lock on
/// the controller (backed by an ephemeral znode in the paper, §4.7): a
/// second live instance is rejected, while a restart after a crash succeeds
/// because the dead holder's session has expired. The lock is released on
/// drop.
pub struct NclLib {
    ctx: Arc<Ctx>,
}

impl NclLib {
    /// Creates the library handle for application `app_id` running on
    /// `node`, acquiring the instance lock.
    pub fn new(
        cluster: &Cluster,
        node: NodeId,
        app_id: &str,
        config: NclConfig,
        controller: &Controller,
        registry: &Arc<NclRegistry>,
    ) -> Result<Self, NclError> {
        let ctx = Ctx {
            cluster: cluster.clone(),
            node,
            app_id: app_id.to_string(),
            controller: controller.client(config.control),
            config,
            registry: Arc::clone(registry),
        };
        ctx.control(|c| c.acquire_instance(app_id, node))??;
        Ok(NclLib { ctx: Arc::new(ctx) })
    }

    /// The node this instance runs on.
    pub fn node(&self) -> NodeId {
        self.ctx.node
    }

    /// The application identifier.
    pub fn app_id(&self) -> &str {
        &self.ctx.app_id
    }

    /// The configuration in use.
    pub fn config(&self) -> &NclConfig {
        &self.ctx.config
    }

    /// The telemetry handle shared by every file opened through this
    /// instance (same handle as `config().telemetry`).
    pub fn telemetry(&self) -> &Telemetry {
        &self.ctx.config.telemetry
    }

    /// True when `(app, file)` has NCL state to recover.
    pub fn exists(&self, file: &str) -> Result<bool, NclError> {
        let ctx = &self.ctx;
        ctx.control(|c| c.get_ap_entry(&ctx.app_id, file).is_some())
    }

    /// Lists this application's ncl files (used on restart to find what to
    /// recover).
    pub fn list_files(&self) -> Result<Vec<String>, NclError> {
        self.ctx.control(|c| c.list_app_files(&self.ctx.app_id))
    }

    /// Creates a new ncl file with the given data capacity, under one
    /// `ncl.create` span tree: a recovery with no responders, of an empty
    /// image. It allocates regions on the scheme's peer set (`2f + 1`
    /// replicated, `n` under erasure coding), seeds each with the scheme's
    /// seq-0 header, and publishes the peers whose header landed. Short of
    /// them it opens on an ack quorum, [`NclFile::repair_pending`] set: a
    /// deferred replacement, as if the missing peers had failed after the
    /// create, which a durability barrier retries once per
    /// [`NclConfig::reattach_probe`](crate::NclConfig::reattach_probe).
    pub fn create(&self, file: &str, capacity: usize) -> Result<Arc<NclFile>, NclError> {
        let ctx = &self.ctx;
        let scope = telemetry::intern_scope(&format!("{}/{}", ctx.app_id, file));
        let mut phases = Phases::start(&ctx.config.telemetry, spans::NCL_CREATE, scope);
        if self.exists(file)? {
            return Err(NclError::AlreadyExists(file.to_string()));
        }
        let scheme = Scheme::new(&ctx.config, capacity, scope)?;
        let epoch = ctx.control(|c| c.get_app_epoch(&ctx.app_id, file))? + 1;
        let image = Image::empty(capacity);
        let target = Target {
            file,
            epoch,
            header: scheme.initial_header(),
            image: scheme.ships_image().then(|| image.valid()),
            region_data: scheme.region_data(capacity),
            phases: [
                spans::NCL_CREATE_GET_PEER,
                spans::NCL_CREATE_CONNECT_MR,
                spans::NCL_CREATE_SEED,
            ],
            peer_span: None,
        };
        let cq = CompletionQueue::new();
        let none = Default::default();
        let slots = fill_and_publish(ctx, &target, &cq, None, none, Vec::new(), &mut phases)?;
        phases.close(spans::NCL_CREATE_AP_MAP, epoch);
        let stats = RecoveryStats::default();
        Ok(NclFile::open(
            ctx, file, scope, image, scheme, slots, cq, epoch, stats,
        ))
    }

    /// Deletes an ncl file without recovering its contents: frees the peer
    /// regions named in the ap-map and removes the entry. Used when an
    /// application garbage-collects a log it no longer needs (e.g. stale
    /// WALs found at startup after a checkpoint).
    pub fn delete(&self, file: &str) -> Result<(), NclError> {
        let ctx = &self.ctx;
        let entry = ctx
            .control(|c| c.get_ap_entry(&ctx.app_id, file))?
            .ok_or_else(|| NclError::NotFound(file.to_string()))?;
        let endpoints: Vec<_> = entry
            .peers
            .iter()
            .filter_map(|name| ctx.registry.lookup(name))
            .collect();
        free_regions(ctx, file, entry.epoch, &endpoints);
        ctx.control(|c| c.delete_ap_entry(&ctx.app_id, file))
    }
}

impl Drop for NclLib {
    fn drop(&mut self) {
        let ctx = &self.ctx;
        let _ = ctx.control(|c| c.release_instance(&ctx.app_id, ctx.node));
    }
}

/// A fault-tolerant near-compute log file.
///
/// All methods are safe to call from multiple application threads. Records
/// may be pipelined: [`NclFile::record_nowait`] posts without waiting and
/// [`NclFile::wait_durable`] is the barrier; [`NclFile::record`] composes
/// the two for the paper's synchronous semantics.
pub struct NclFile {
    ctx: Arc<Ctx>,
    name: String,
    capacity: usize,
    metrics: Arc<FileMetrics>,
    /// Published acked state; shared with `rep` (which writes it).
    acked: Arc<AckedState>,
    /// Sequence number of the latest issued record, mirrored from the
    /// staged image under the staging lock so `seq()`/`fsync()` read it
    /// without locking.
    issued: AtomicU64,
    /// The queue every peer slot completes into; `rep` holds it too, and
    /// this handle reaches it without that lock.
    cq: CompletionQueue,
    stage: Mutex<Stage>,
    rep: Mutex<Rep>,
}

impl NclFile {
    /// The one construction site, shared by create and recovery: `image`
    /// is what every slot in `slots` (in ap-map order) already holds
    /// through `image.seq` under `epoch`. Announces the durability scheme.
    #[allow(clippy::too_many_arguments)]
    fn open(
        ctx: &Arc<Ctx>,
        name: &str,
        scope: &'static str,
        image: Image,
        scheme: Scheme,
        mut slots: Vec<PeerSlot>,
        cq: CompletionQueue,
        epoch: u64,
        recovery: RecoveryStats,
    ) -> Arc<NclFile> {
        let seq = image.seq;
        for (row, slot) in slots.iter_mut().enumerate() {
            slot.row = row as u32;
            slot.completed_seq = seq;
        }
        scheme.announce(&ctx.config.telemetry, scope, epoch);
        let metrics = FileMetrics::new(&ctx.config.telemetry, scope);
        let acked = AckedState::new(seq);
        let short = slots.len() < ctx.config.replicas();
        let repair_due = short.then(|| sim::time::now() + ctx.config.reattach_probe);
        Arc::new(NclFile {
            ctx: Arc::clone(ctx),
            name: name.to_string(),
            capacity: image.buffer.len(),
            metrics: Arc::clone(&metrics),
            acked: Arc::clone(&acked),
            issued: AtomicU64::new(seq),
            cq: cq.clone(),
            stage: Mutex::new(Stage::new(image, scheme)),
            rep: Mutex::new(Rep::new(
                slots, cq, epoch, seq, repair_due, metrics, acked, recovery,
            )),
        })
    }

    /// The file's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Data capacity fixed at allocation time.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The telemetry handle this file reports into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.ctx.config.telemetry
    }

    /// Releases the file: frees the peer regions and removes the ap-map
    /// entry (the paper's `release`, run when the application deletes the
    /// log after a checkpoint). The handle must not be used afterwards;
    /// subsequent records fail.
    pub fn release(&self) -> Result<(), NclError> {
        let ctx = &self.ctx;
        let _stage = self.stage_guard();
        let mut rep = self.rep_guard();
        let alive = rep.peers.iter().filter(|s| s.alive);
        free_regions(ctx, &self.name, rep.epoch, alive.map(|s| &s.endpoint));
        // Drop the peer slots so any later use fails fast instead of writing
        // to freed regions.
        rep.peers.clear();
        rep.rebuild_qp_map();
        ctx.control(|c| c.delete_ap_entry(&ctx.app_id, &self.name))
    }
}
