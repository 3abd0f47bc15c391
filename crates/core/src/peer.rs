//! The log-peer daemon.
//!
//! Any compute node with spare memory can run a peer daemon (§4.3). The
//! daemon is involved only in the control plane: allocating memory regions,
//! validating recovery lookups, adopting a region in place or switching it
//! atomically for a recovery's catch-up, epoch-based garbage collection of
//! leaked regions, and voluntary memory revocation. The data plane — every
//! log write and recovery read — goes through 1-sided RDMA against the
//! regions the daemon exported, without the daemon's participation.
//!
//! Multi-tenancy: the daemon serves many applications at once from a single
//! configurable budget. A [`SlabAllocator`] keeps per-tenant accounting and
//! size-class free lists; every region carries an epoch *lease* that the
//! owning application renews implicitly with each request. The GC reclaims
//! regions whose lease expired **and** whose owner the controller confirms
//! dead (instance lock gone or held by a crashed node). Under memory
//! pressure — an allocation that does not fit, or an operator/fault-injected
//! pressure signal — the daemon voluntarily revokes the coldest regions
//! first (smallest unspilled acked suffix, so spilled files lose the least),
//! notifies the controller, and lets the owning applications run the
//! ordinary replace/catch-up path.
//!
//! Crash semantics: the daemon's `mr-map` and its regions live in DRAM. When
//! the peer's node crashes, both are lost; the daemon detects the restart
//! via the cluster crash generation, wipes its state, and re-registers with
//! the controller. Recovery lookups for pre-crash regions are rejected —
//! the behaviour §4.5.1 relies on to keep quorum reasoning sound.
//!
//! Shape: all of the above is one [`Daemon`] value behind [`Peer`]'s mutex,
//! which its `sim::rpc` service hosts: a request is a `Daemon` method an
//! application runs through [`PeerEndpoint::rpc`]. Every entry point — a
//! request, a scheduled GC pass, an operator call — is one `Daemon::step`,
//! and the lease clock is an input: a request is served at the instant
//! the RPC layer hands it (its arrival), a scheduled pass at
//! the instant of the control-plane call its timer ran on
//! ([`Peer::schedule_gc`]), an operator sweep reads `sim::time::now()`
//! once, and each passes it down. The daemon owns no thread.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rdma::{LocalMr, RdmaDevice, RemoteMr};
use sim::{Cluster, NodeId, RpcServer, SimError, TimerGuard};
use telemetry::{spans, Counter, Gauge, Telemetry};

use crate::config::NclConfig;
use crate::controller::{Controller, ControllerClient, ControllerState};
use crate::layout::{RegionHeader, HEADER_SIZE, HEADER_WIRE_SIZE};
use crate::registry::{NclRegistry, PeerEndpoint};
use crate::slab::{SlabAllocator, TenantUsage};

/// A region token a call hands out, and the instant its registration
/// completes: the application posts to it no earlier. A recycled region and
/// a recovery lookup are ready when asked for. `Err` is the daemon's
/// refusal (insufficient memory, stale epoch, lost region, ...).
pub type Grant = Result<(RemoteMr, Instant), String>;

/// A region's `(app, file)`.
type Key = (String, String);

fn key(app: &str, file: &str) -> Key {
    (app.to_string(), file.to_string())
}

struct Region {
    epoch: u64,
    local: LocalMr,
    remote: RemoteMr,
    /// Last time the owning application touched this region through the
    /// control plane; the lease GC only considers regions idle longer than
    /// the configured lease, and even then reclaims only with the
    /// controller's confirmation that the owner is dead.
    lease: Instant,
}

/// Which of a file's two regions: the one in the mr-map, or the one staged
/// for a catch-up's switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Live,
    Staged,
}

/// Gauge/counter handles for the `splitft_peer_mem_*` observability plane.
///
/// Per-peer gauges are set absolutely; the fleet-wide aggregates (shared by
/// every peer on the same telemetry registry) are adjusted by delta so they
/// sum correctly across daemons.
struct MemGauges {
    used: Gauge,
    regions: Gauge,
    tenants: Gauge,
    fleet_used: Gauge,
    fleet_regions: Gauge,
    gc_reclaimed: Counter,
    revoked_regions: Counter,
    revoked_bytes: Counter,
    last_used: i64,
    last_regions: i64,
}

impl MemGauges {
    fn new(telemetry: &Telemetry, name: &str, total: u64) -> Self {
        telemetry
            .gauge(&format!("peer.mem.{name}.total_bytes"))
            .set(total as i64);
        telemetry.gauge("peer.mem.total_bytes").adjust(total as i64);
        MemGauges {
            used: telemetry.gauge(&format!("peer.mem.{name}.used_bytes")),
            regions: telemetry.gauge(&format!("peer.mem.{name}.regions")),
            tenants: telemetry.gauge(&format!("peer.mem.{name}.tenants")),
            fleet_used: telemetry.gauge("peer.mem.used_bytes"),
            fleet_regions: telemetry.gauge("peer.mem.regions"),
            gc_reclaimed: telemetry.counter("peer.mem.gc_reclaimed_regions"),
            revoked_regions: telemetry.counter("peer.mem.revoked_regions"),
            revoked_bytes: telemetry.counter("peer.mem.revoked_bytes"),
            last_used: 0,
            last_regions: 0,
        }
    }

    /// Sets the gauges to the ledger's figures. Returns false, setting
    /// nothing, when neither the bytes nor the region count moved since the
    /// last publish.
    fn publish(&mut self, alloc: &SlabAllocator, regions: usize) -> bool {
        let (used, regions) = (alloc.used() as i64, regions as i64);
        if (used, regions) == (self.last_used, self.last_regions) {
            return false;
        }
        self.used.set(used);
        self.regions.set(regions);
        self.tenants.set(alloc.tenant_count() as i64);
        self.fleet_used.adjust(used - self.last_used);
        self.fleet_regions.adjust(regions - self.last_regions);
        self.last_used = used;
        self.last_regions = regions;
        true
    }
}

/// The daemon: its context, its ledger and its two region maps (see module
/// docs). Every request is a method passed the instant it is served at —
/// the lease clock — and run inside `Daemon::step`.
pub struct Daemon {
    name: String,
    node: NodeId,
    cluster: Cluster,
    device: RdmaDevice,
    controller: ControllerClient,
    /// Where region lifecycle facts are recorded (shared via the config).
    telemetry: Telemetry,
    /// [`NclConfig::peer_lease`], copied out at start.
    lease: Duration,
    gauges: MemGauges,
    /// The node's crash generation this state belongs to.
    gen: u64,
    /// Budget, tenant ledger, and recycled-region free lists.
    alloc: SlabAllocator,
    live: HashMap<Key, Region>,
    staged: HashMap<Key, Region>,
}

impl Daemon {
    /// The one sequence every entry point runs under [`Peer`]'s lock:
    /// restart if the node crashed since the last step, drain a pending
    /// memory-pressure signal when `drain`, run `op`, then publish the
    /// gauges and `UpdateAvail` once if the ledger moved.
    fn step<R>(&mut self, drain: bool, op: impl FnOnce(&mut Self) -> R) -> R {
        let gen = self.cluster.generation(self.node);
        if gen != self.gen {
            // DRAM contents are gone: drop the mr-map, staged regions, free
            // lists and tenant ledger, and re-announce to the controller.
            self.gen = gen;
            self.live.clear();
            self.staged.clear();
            self.alloc.wipe();
            self.device.reap_stale();
            let (name, node, total) = (&self.name, self.node, self.alloc.total());
            let _ = self.control(|c| c.register_peer(name, node, total));
        }
        if drain {
            self.drain_pressure();
        }
        let out = op(self);
        let regions = self.live.len() + self.staged.len();
        if self.gauges.publish(&self.alloc, regions) {
            let (name, avail) = (&self.name, self.alloc.avail());
            let _ = self.control(|c| c.update_avail(name, avail, regions as u64));
        }
        out
    }

    /// Runs `op` on the controller from this peer's node.
    fn control<T>(&self, op: impl FnOnce(&mut ControllerState) -> T) -> Result<T, SimError> {
        self.controller.call(self.node, |c, _| op(c))
    }

    /// Allocates (or re-allocates under a newer epoch) the region for
    /// `app`'s `file`: `capacity` data bytes after the header space, at the
    /// `epoch` the application will stamp its ap-map entry with.
    pub fn alloc(
        &mut self,
        now: Instant,
        app: &str,
        file: &str,
        epoch: u64,
        capacity: usize,
    ) -> Grant {
        self.step(true, |d| {
            let key = key(app, file);
            if let Some(existing) = d.live.get(&key) {
                if existing.epoch >= epoch {
                    let held = existing.epoch;
                    return Err(format!("region exists at epoch {held} >= {epoch}"));
                }
                // A newer epoch supersedes the old allocation.
                let old = d.live.remove(&key).expect("present");
                d.release(app, old);
            }
            let len = HEADER_SIZE + capacity;
            let (local, remote, ready) = d.allocate(now, &key, len)?;
            let detail = format!("{app}/{file}: {len} bytes");
            d.telemetry
                .fact(spans::REGION_ALLOC, &d.name, epoch, detail);
            let region = Region {
                epoch,
                local,
                remote,
                lease: now,
            };
            d.live.insert(key, region);
            Ok((remote, ready))
        })
    }

    /// Releases the region for a deleted file; a free at an epoch older
    /// than the region's is refused.
    pub fn free(&mut self, app: &str, file: &str, epoch: u64) -> Result<(), String> {
        self.step(true, |d| {
            let key = key(app, file);
            if let Some(region) = d.live.get(&key).filter(|r| r.epoch > epoch) {
                let held = region.epoch;
                return Err(format!(
                    "free at epoch {epoch} older than region epoch {held}"
                ));
            }
            d.reclaim(
                Slot::Live,
                &key,
                spans::REGION_FREE,
                "released by application",
            );
            // A Free racing a replace: the application deleted the file
            // while a catch-up had a region staged for it. The staged slot
            // would otherwise never leave the tenant ledger — the
            // double-release leak. Dropping it here keeps Free idempotent
            // (repeats find both maps empty and change nothing).
            if d.staged.get(&key).is_some_and(|s| s.epoch <= epoch) {
                let why = "staged region dropped by free";
                d.reclaim(Slot::Staged, &key, spans::REGION_FREE, why);
            }
            Ok(())
        })
    }

    /// During application recovery: does this peer still hold the region?
    pub fn lookup(&mut self, now: Instant, app: &str, file: &str) -> Grant {
        self.step(true, |d| {
            // The peer crashed and recovered (mr-map lost) or never had the
            // region: it must reject so recovery quorum logic treats it as
            // data-less.
            let region = d
                .live
                .get_mut(&key(app, file))
                .ok_or("no region for file")?;
            region.lease = now;
            Ok((region.remote, now))
        })
    }

    /// Recovery of an append-only log whose bytes here are a prefix of the
    /// recovered image: raises the live region's epoch to `epoch` and
    /// fences every earlier writer by giving the region a fresh rkey, its
    /// bytes untouched; the recovering application then writes only the
    /// missing tail and the header into it. Refused unless `epoch` is above
    /// the region's. Any region still staged for the file (an aborted
    /// recovery's) is dropped.
    pub fn adopt(&mut self, now: Instant, app: &str, file: &str, epoch: u64) -> Grant {
        self.step(true, |d| {
            let key = key(app, file);
            let region = d.live.get_mut(&key).ok_or("no region for file")?;
            if region.epoch >= epoch {
                return Err(format!("region at epoch {} >= {epoch}", region.epoch));
            }
            let rkey = d.device.rekey(region.remote.mr_id).ok_or("region lost")?;
            (region.remote.rkey, region.epoch, region.lease) = (rkey, epoch, now);
            let remote = region.remote;
            let why = format!("{app}/{file}: region adopted in place");
            d.telemetry.fact(spans::EPOCH_BUMP, &d.name, epoch, why);
            // An aborted full copy's staged region: no commit will come.
            if let Some(old) = d.staged.remove(&key) {
                d.release(app, old);
            }
            Ok((remote, now))
        })
    }

    /// Stages a fresh, zeroed region of `capacity` data bytes for a full
    /// copy's atomic switch at the recovery's `epoch`: a circular or
    /// overwritten log, a peer whose bytes are not a prefix of the
    /// recovered image, or an erasure-coded reset. Writing those in place
    /// would destroy the only copy.
    pub fn prepare(
        &mut self,
        now: Instant,
        app: &str,
        file: &str,
        epoch: u64,
        capacity: usize,
    ) -> Grant {
        self.step(true, |d| {
            let key = key(app, file);
            // Drop any previous staging for this file (aborted recovery).
            if let Some(old) = d.staged.remove(&key) {
                d.release(app, old);
            }
            let (local, remote, ready) = d.allocate(now, &key, HEADER_SIZE + capacity)?;
            let region = Region {
                epoch,
                local,
                remote,
                lease: now,
            };
            d.staged.insert(key, region);
            Ok((remote, ready))
        })
    }

    /// Atomically switches the mr-map entry to the region staged at `epoch`
    /// and recycles the old one.
    pub fn commit(
        &mut self,
        now: Instant,
        app: &str,
        file: &str,
        epoch: u64,
    ) -> Result<(), String> {
        self.step(true, |d| {
            let key = key(app, file);
            match d.staged.get(&key).map(|s| s.epoch) {
                None => return Err("nothing staged".to_string()),
                Some(staged) if staged != epoch => {
                    let why = format!("staged epoch {staged} does not match commit epoch {epoch}");
                    return Err(why);
                }
                Some(_) => {}
            }
            let mut region = d.staged.remove(&key).expect("present");
            if let Some(old) = d.live.remove(&key) {
                d.release(app, old);
            }
            region.lease = now;
            d.live.insert(key, region);
            Ok(())
        })
    }

    /// Raises the epoch recorded for a surviving peer's region to `epoch`
    /// (monotonic) so the leak GC never confuses it with a stale allocation
    /// (see DESIGN.md §5 note).
    pub fn bump_epoch(
        &mut self,
        now: Instant,
        app: &str,
        file: &str,
        epoch: u64,
    ) -> Result<(), String> {
        self.step(true, |d| {
            let region = d
                .live
                .get_mut(&key(app, file))
                .ok_or("no region for file")?;
            region.epoch = region.epoch.max(epoch);
            region.lease = now;
            let why = format!("{app}/{file}: survivor region epoch raised");
            d.telemetry
                .fact(spans::EPOCH_BUMP, &d.name, region.epoch, why);
            Ok(())
        })
    }

    /// Allocates a region of `len` bytes for `key`'s app at `now`, preferring
    /// the recycled free list (cheap re-key, ready at `now`) over fresh
    /// registration, which is priced on the device's registration pipe and
    /// not waited for here: the third value is when the region is ready.
    /// When the budget is short and the request could ever fit, evicts the
    /// coldest regions (never `key`'s own live region — catch-up may still
    /// read it) and charges once more. On `Err` nothing is charged.
    fn allocate(
        &mut self,
        now: Instant,
        key: &Key,
        len: usize,
    ) -> Result<(LocalMr, RemoteMr, Instant), String> {
        let pooled = match self.alloc.charge(&key.0, len) {
            Ok(pooled) => pooled,
            Err(e) => {
                let shortfall = (len as u64).saturating_sub(self.alloc.avail());
                if len as u64 > self.alloc.total() || self.evict(shortfall, Some(key)) == 0 {
                    return Err(e.to_string());
                }
                self.alloc.charge(&key.0, len).map_err(|e| e.to_string())?
            }
        };
        if let Some(local) = pooled {
            if let Some(rkey) = self.device.recycle(local.mr_id()) {
                let remote = RemoteMr {
                    node: self.device.node(),
                    mr_id: local.mr_id(),
                    rkey,
                    len,
                };
                return Ok((local, remote, now));
            }
            // Pooled region vanished (shouldn't happen outside a crash); fall
            // through to fresh registration.
        }
        self.device.register_mr_at(now, len).map_err(|e| {
            self.alloc.uncharge(&key.0, len);
            format!("registration failed: {e}")
        })
    }

    /// Invalidates a region's token and returns its memory to the tenant
    /// ledger + size-class free list.
    fn release(&mut self, app: &str, region: Region) {
        self.device.invalidate(region.remote.mr_id);
        self.alloc.release(app, region.remote.len, region.local);
    }

    /// Drops `key`'s region in `slot` for good, recording the fact `name`
    /// with `why`. Returns false when there was none.
    fn reclaim(&mut self, slot: Slot, key: &Key, name: &'static str, why: &str) -> bool {
        let Some(region) = self.slot(slot).remove(key) else {
            return false;
        };
        let detail = format!("{}/{}: {why}", key.0, key.1);
        self.telemetry.fact(name, &self.name, region.epoch, detail);
        self.release(&key.0, region);
        true
    }

    /// Unilaterally revokes `key`'s live region (§4.5.2): the rkey is reset,
    /// later application writes fail, and the controller hears who shed it.
    /// Returns the bytes freed, 0 when there was no region.
    fn revoke(&mut self, key: &Key) -> u64 {
        let Some(region) = self.live.remove(key) else {
            return 0;
        };
        let (epoch, len) = (region.epoch, region.remote.len as u64);
        self.telemetry.fact(
            spans::REGION_REVOKE,
            &self.name,
            epoch,
            format!(
                "{}/{}: revoked under memory pressure ({len} bytes)",
                key.0, key.1
            ),
        );
        self.gauges.revoked_regions.inc();
        self.gauges.revoked_bytes.add(len);
        self.release(&key.0, region);
        let _ = self.control(|c| c.report_revocation(&self.name, &key.0, &key.1, epoch));
        len
    }

    /// Voluntary revocation (§4.5.2): revokes the coldest live regions (see
    /// [`region_coldness`]) until at least `need` bytes are reclaimed. Files
    /// with a staged region (in-flight catch-up) and `protect` are never
    /// victims. Returns the bytes reclaimed.
    fn evict(&mut self, need: u64, protect: Option<&Key>) -> u64 {
        // Coldest first; bigger regions break ties so fewer files are
        // disturbed; the key keeps the order deterministic.
        let mut victims: Vec<(u64, Reverse<usize>, Key)> = self
            .live
            .iter()
            .filter(|(key, _)| Some(*key) != protect && !self.staged.contains_key(*key))
            .map(|(key, r)| (region_coldness(r), Reverse(r.remote.len), key.clone()))
            .collect();
        victims.sort_unstable();
        let mut reclaimed = 0;
        for (_, _, key) in victims {
            if reclaimed >= need {
                break;
            }
            reclaimed += self.revoke(&key);
        }
        reclaimed
    }

    /// Drains a pending memory-pressure signal: shrink used memory to at
    /// most `pct` percent of the budget by revoking the coldest regions.
    fn drain_pressure(&mut self) {
        let Some(pct) = self.cluster.take_pressure(self.node) else {
            return;
        };
        let total = self.alloc.total();
        self.telemetry.fact(
            spans::PEER_PRESSURE,
            &self.name,
            0,
            format!("shrink to {pct}% of {total}-byte budget"),
        );
        let target = ((total as u128 * pct as u128) / 100) as u64;
        let excess = self.alloc.used().saturating_sub(target);
        if excess > 0 {
            self.evict(excess, None);
        }
    }

    fn slot(&mut self, slot: Slot) -> &mut HashMap<Key, Region> {
        match slot {
            Slot::Live => &mut self.live,
            Slot::Staged => &mut self.staged,
        }
    }

    /// Every region held, live then staged: what a GC pass visits.
    fn held(&self) -> Vec<(Slot, Key)> {
        let live = self.live.keys().map(|k| (Slot::Live, k.clone()));
        let staged = self.staged.keys().map(|k| (Slot::Staged, k.clone()));
        live.chain(staged).collect()
    }

    /// One GC sweep at `now` (see [`Peer::gc_sweep`]): the epoch pass, then
    /// the lease pass. Returns the number of regions reclaimed.
    fn gc(&mut self, now: Instant) -> usize {
        let freed = self.epoch_pass() + self.lease_pass(now);
        self.gauges.gc_reclaimed.add(freed as u64);
        freed
    }

    /// Reclaims every region whose epoch `e_r` the application's epoch
    /// high-water mark `e` at the controller has superseded (`e > e_r`), and
    /// every region, live or staged, that the ap-map entry at its own epoch
    /// does not list: the recovery that staged it moved on without this
    /// peer, and no commit will come. `e < e_r` is an allocation still in
    /// progress.
    fn epoch_pass(&mut self) -> usize {
        let mut freed = 0;
        for (slot, key) in self.held() {
            let Some(e_r) = self.slot(slot).get(&key).map(|r| r.epoch) else {
                continue;
            };
            let Ok(e) = self.control(|c| c.get_app_epoch(&key.0, &key.1)) else {
                continue;
            };
            let reclaim = e > e_r || (e == e_r && !self.member(&key));
            if reclaim {
                let why = format!("leak GC (app epoch {e})");
                freed += self.reclaim(slot, &key, spans::REGION_FREE, &why) as usize;
            }
        }
        freed
    }

    /// Whether the controller's ap-map entry for `key` lists this peer (no
    /// answer counts as no).
    fn member(&self, key: &Key) -> bool {
        self.control(|c| {
            let entry = c.get_ap_entry(&key.0, &key.1);
            entry.is_some_and(|entry| entry.peers.contains(&self.name))
        })
        .unwrap_or(false)
    }

    /// A region idle for the lease window or longer may belong to an
    /// application that crashed for good and will never free it. The
    /// controller confirms (instance lock held by a live node) before
    /// anything is reclaimed; a merely-idle live tenant gets its lease
    /// renewed to `now` instead, and an unreachable controller means no
    /// confirmation and no reclaim.
    fn lease_pass(&mut self, now: Instant) -> usize {
        let (lease, mut freed) = (self.lease, 0);
        for (slot, key) in self.held() {
            let expired = self
                .slot(slot)
                .get(&key)
                .is_some_and(|r| now.saturating_duration_since(r.lease) >= lease);
            if !expired {
                continue;
            }
            match self.control(|c| c.app_live(&key.0)) {
                Ok(true) => {
                    if let Some(region) = self.slot(slot).get_mut(&key) {
                        region.lease = now;
                    }
                }
                Ok(false) => {
                    let why = "lease expired, app confirmed dead";
                    freed += self.reclaim(slot, &key, spans::LEASE_EXPIRE, why) as usize;
                }
                Err(_) => {}
            }
        }
        freed
    }
}

/// How expendable a region is under memory pressure: the unspilled part of
/// its acked prefix (`seq - spill_seq`). A region whose acked bytes are all
/// on the spill tier (PR 7) loses nothing when revoked — catch-up rebuilds
/// it from the DFS snapshot — so it is the coldest possible victim. An
/// uninitialised header reads as 0: an empty region is also free to lose.
fn region_coldness(region: &Region) -> u64 {
    region
        .local
        .read_local(0, HEADER_WIRE_SIZE)
        .and_then(|bytes| RegionHeader::decode(&bytes))
        .map(|h| h.seq.saturating_sub(h.spill_seq))
        .unwrap_or(0)
}

/// How often a scheduled daemon steps between GC passes.
const GC_TICK: Duration = Duration::from_millis(20);

/// A running log-peer daemon (see module docs).
pub struct Peer {
    name: String,
    node: NodeId,
    daemon: Arc<Mutex<Daemon>>,
    /// The GC schedule, when one is set; dropping it cancels the timer.
    gc: Option<TimerGuard>,
    _server: RpcServer<Arc<Mutex<Daemon>>>,
}

impl Peer {
    /// Starts a peer daemon named `name` lending `lend_mem` bytes.
    ///
    /// Registers a new node on the cluster, announces the peer to the
    /// controller, and publishes its endpoint in `registry` so that
    /// applications can dial it by name.
    pub fn start(
        cluster: &Cluster,
        name: &str,
        lend_mem: u64,
        config: &NclConfig,
        controller: &Controller,
        registry: &Arc<NclRegistry>,
    ) -> Self {
        let node = cluster.add_node(format!("peer-{name}"));
        let device = RdmaDevice::new(cluster.clone(), node, config.mr_register);
        let controller = controller.client(config.control);
        (controller.call(node, |c, _| c.register_peer(name, node, lend_mem)))
            .expect("controller reachable at peer start");
        let daemon = Arc::new(Mutex::new(Daemon {
            name: name.to_string(),
            node,
            cluster: cluster.clone(),
            device: device.clone(),
            controller,
            telemetry: config.telemetry.clone(),
            lease: config.peer_lease,
            gauges: MemGauges::new(&config.telemetry, name, lend_mem),
            gen: cluster.generation(node),
            alloc: SlabAllocator::new(lend_mem),
            live: HashMap::new(),
            staged: HashMap::new(),
        }));
        let server = RpcServer::new(cluster.clone(), node, Arc::clone(&daemon));
        let rpc = server.client(config.control);
        registry.publish(name, PeerEndpoint { rpc, device, node });
        Peer {
            name: name.to_string(),
            node,
            daemon,
            gc: None,
            _server: server,
        }
    }

    /// The peer's unique name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node the daemon runs on (for failure injection).
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Currently advertised available memory.
    pub fn avail(&self) -> u64 {
        self.daemon.lock().step(false, |d| d.alloc.avail())
    }

    /// Bytes currently charged to tenants (live + staged regions).
    pub fn mem_used(&self) -> u64 {
        self.daemon.lock().alloc.used()
    }

    /// The configured memory budget in bytes.
    pub fn mem_total(&self) -> u64 {
        self.daemon.lock().alloc.total()
    }

    /// What a single tenant currently holds on this peer.
    pub fn tenant_usage(&self, app: &str) -> TenantUsage {
        self.daemon.lock().alloc.tenant(app)
    }

    /// Every tenant with a non-zero charge, sorted by name.
    pub fn tenants(&self) -> Vec<(String, TenantUsage)> {
        self.daemon.lock().alloc.tenants()
    }

    /// Number of live regions in the mr-map.
    pub fn region_count(&self) -> usize {
        self.daemon.lock().live.len()
    }

    /// Number of regions staged for an in-flight catch-up switch.
    pub fn staged_count(&self) -> usize {
        self.daemon.lock().staged.len()
    }

    /// Number of recycled regions waiting on the size-class free lists.
    pub fn pooled_regions(&self) -> usize {
        self.daemon.lock().alloc.pooled_regions()
    }

    /// Host-side read of a region's bytes (test/model-checker introspection;
    /// the application itself always goes through RDMA).
    pub fn inspect_region(
        &self,
        app: &str,
        file: &str,
        offset: usize,
        len: usize,
    ) -> Option<Vec<u8>> {
        let daemon = self.daemon.lock();
        let region = daemon.live.get(&(app.to_string(), file.to_string()))?;
        region.local.read_local(offset, len)
    }

    /// Unilaterally revokes the region for `(app, file)` — e.g. under local
    /// memory pressure (§4.5.2). Reclamation is local and instantaneous: the
    /// rkey is reset, subsequent application writes fail, and the
    /// application handles it as a peer failure. The controller is notified
    /// so operators can see who is shedding load.
    pub fn revoke(&self, app: &str, file: &str) -> bool {
        let key = (app.to_string(), file.to_string());
        self.daemon.lock().step(false, |d| d.revoke(&key) > 0)
    }

    /// Voluntarily sheds at least `need` bytes by revoking the coldest
    /// regions (see `region_coldness`). Returns the bytes reclaimed,
    /// which may fall short when everything left is staged.
    pub fn revoke_for_pressure(&self, need: u64) -> u64 {
        self.daemon.lock().step(false, |d| d.evict(need, None))
    }

    /// Runs one pass of the epoch-based leak GC (§4.5.1): for every region
    /// held, compares its recorded epoch `e_r` with the application's epoch
    /// high-water mark `e` at the controller, freeing regions whose epoch
    /// has been superseded (`e > e_r`) or that lost their ap-map membership
    /// at the same epoch. A second pass reclaims regions whose lease
    /// expired with the owner confirmed dead at the controller. Returns the
    /// number of regions freed.
    pub fn gc_sweep(&self) -> usize {
        let mut daemon = self.daemon.lock();
        let now = sim::time::now();
        daemon.step(false, |d| d.gc(now))
    }

    /// Schedules the periodic GC the paper describes ("periodically, for
    /// each memory region ... it queries the controller", §4.5.1) as a
    /// timer ([`Cluster::every`]). Every 20 ms (or `interval`, if shorter)
    /// the next top-level control-plane call steps the daemon — a
    /// restart wipes what the crash lost, a pending pressure signal is
    /// drained — and every `interval` it also runs [`Peer::gc_sweep`]'s
    /// passes, at that call's instant. A daemon busy then (on this thread
    /// too) waits for the next tick. A second call replaces the schedule; a
    /// zero `interval` is none.
    pub fn schedule_gc(&mut self, interval: Duration) {
        self.stop_gc();
        if interval.is_zero() {
            return;
        }
        let daemon = Arc::downgrade(&self.daemon);
        let cluster = self.daemon.lock().cluster.clone();
        let mut sweep_at = sim::time::now() + interval;
        let timer = cluster.every(interval.min(GC_TICK), move |now| {
            let Some(daemon) = daemon.upgrade() else {
                return;
            };
            let Some(mut daemon) = daemon.try_lock() else {
                return;
            };
            let sweep = now >= sweep_at;
            if sweep {
                sweep_at = now + interval;
            }
            if daemon.cluster.is_alive(daemon.node) {
                daemon.step(true, |d| sweep.then(|| d.gc(now)));
            }
        });
        self.gc = Some(timer);
    }

    /// Cancels the GC schedule (no-op if none is set).
    pub fn stop_gc(&mut self) {
        self.gc = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::LatencyModel;

    struct Fixture {
        cluster: Cluster,
        _controller: Controller,
        ctrl_client: ControllerClient,
        registry: Arc<NclRegistry>,
        peer: Peer,
        app_node: NodeId,
    }

    fn setup_with(lend: u64, config: NclConfig) -> Fixture {
        let cluster = Cluster::new();
        let controller = Controller::start(&cluster, Telemetry::disabled());
        let ctrl_client = controller.client(LatencyModel::ZERO);
        let registry = NclRegistry::new();
        let peer = Peer::start(&cluster, "p1", lend, &config, &controller, &registry);
        let app_node = cluster.add_node("app");
        Fixture {
            cluster,
            _controller: controller,
            ctrl_client,
            registry,
            peer,
            app_node,
        }
    }

    fn setup(lend: u64) -> Fixture {
        setup_with(lend, NclConfig::zero())
    }

    fn key(app: &str, file: &str) -> Key {
        (app.into(), file.into())
    }

    /// Runs `op` on the daemon over the peer's RPC endpoint, as an
    /// application would.
    fn call<T>(fx: &Fixture, op: impl FnOnce(&mut Daemon, Instant) -> T) -> T {
        let ep = fx.registry.lookup("p1").unwrap();
        ep.rpc
            .call(fx.app_node, |d, s| op(&mut d.lock(), s.at))
            .unwrap()
    }

    /// Runs `op` on the controller.
    fn ctl<T>(fx: &Fixture, op: impl FnOnce(&mut ControllerState) -> T) -> T {
        fx.ctrl_client.call(fx.app_node, |c, _| op(c)).unwrap()
    }

    fn alloc(fx: &Fixture, app: &str, file: &str, epoch: u64, cap: usize) -> Grant {
        call(fx, |d, at| d.alloc(at, app, file, epoch, cap))
    }

    fn free(fx: &Fixture, app: &str, file: &str, epoch: u64) -> Result<(), String> {
        call(fx, |d, _| d.free(app, file, epoch))
    }

    /// Stages a 128-byte region for `(app, file)` at `epoch`.
    fn prepare(fx: &Fixture, app: &str, file: &str, epoch: u64) -> Grant {
        call(fx, |d, at| d.prepare(at, app, file, epoch, 128))
    }

    fn adopt(fx: &Fixture, app: &str, file: &str, epoch: u64) -> Grant {
        call(fx, |d, at| d.adopt(at, app, file, epoch))
    }

    fn commit(fx: &Fixture, app: &str, file: &str, epoch: u64) -> Result<(), String> {
        call(fx, |d, at| d.commit(at, app, file, epoch))
    }

    fn lookup(fx: &Fixture, app: &str, file: &str) -> Grant {
        call(fx, |d, at| d.lookup(at, app, file))
    }

    fn bump(fx: &Fixture, app: &str, file: &str, epoch: u64) -> Result<(), String> {
        call(fx, |d, at| d.bump_epoch(at, app, file, epoch))
    }

    /// One GC sweep at `now`, run on the daemon directly.
    fn sweep(daemon: &mut Daemon, now: Instant) -> usize {
        daemon.step(false, |d| d.gc(now))
    }

    #[test]
    fn alloc_returns_region_and_decrements_avail() {
        let fx = setup(1 << 20);
        let (mr, _) = alloc(&fx, "a", "wal", 1, 4096).unwrap();
        assert_eq!(mr.len, HEADER_SIZE + 4096);
        assert_eq!(fx.peer.avail(), (1 << 20) - (HEADER_SIZE + 4096) as u64);
        assert_eq!(fx.peer.region_count(), 1);
        // The controller sees the updated availability.
        let peers = ctl(&fx, |c| c.get_peers("a", 0, 10, &[]));
        assert_eq!(peers[0].avail, fx.peer.avail());
    }

    #[test]
    fn alloc_rejected_when_memory_insufficient() {
        let fx = setup(1024);
        let resp = alloc(&fx, "a", "wal", 1, 10_000);
        assert!(resp.is_err());
        assert_eq!(fx.peer.region_count(), 0);
    }

    #[test]
    fn realloc_requires_newer_epoch() {
        let fx = setup(1 << 20);
        assert!(alloc(&fx, "a", "wal", 2, 128).is_ok());
        assert!(alloc(&fx, "a", "wal", 2, 128).is_err());
        assert!(alloc(&fx, "a", "wal", 1, 128).is_err());
        assert!(alloc(&fx, "a", "wal", 3, 128).is_ok());
        assert_eq!(
            fx.peer.region_count(),
            1,
            "newer epoch superseded the region"
        );
    }

    #[test]
    fn free_recycles_into_pool_and_pool_is_reused() {
        let fx = setup(1 << 20);
        let (mr1, _) = alloc(&fx, "a", "wal", 1, 4096).unwrap();
        free(&fx, "a", "wal", 1).unwrap();
        assert_eq!(fx.peer.avail(), 1 << 20);
        // Same-size reallocation reuses the pooled region with a fresh rkey.
        let (mr2, _) = alloc(&fx, "a", "wal2", 1, 4096).unwrap();
        assert_eq!(mr2.mr_id, mr1.mr_id, "pooled region reused");
        assert_ne!(mr2.rkey, mr1.rkey, "stale rkey revoked");
    }

    #[test]
    fn stale_free_is_rejected() {
        let fx = setup(1 << 20);
        alloc(&fx, "a", "wal", 5, 128).unwrap();
        let resp = free(&fx, "a", "wal", 4);
        assert!(resp.is_err());
        assert_eq!(fx.peer.region_count(), 1);
    }

    #[test]
    fn recovery_lookup_found_and_rejected_after_crash() {
        let fx = setup(1 << 20);
        alloc(&fx, "a", "wal", 1, 128).unwrap();
        assert!(lookup(&fx, "a", "wal").is_ok());
        // Crash + restart loses the mr-map: lookups must be rejected.
        fx.cluster.crash(fx.peer.node());
        fx.cluster.restart(fx.peer.node());
        assert!(lookup(&fx, "a", "wal").is_err());
        assert_eq!(fx.peer.avail(), 1 << 20, "memory recovered after restart");
        assert_eq!(fx.peer.mem_used(), 0, "ledger wiped after restart");
    }

    #[test]
    fn prepare_commit_switches_region_atomically() {
        let fx = setup(1 << 20);
        let (old_mr, _) = alloc(&fx, "a", "wal", 1, 128).unwrap();
        // Write something into the old region via host access (stand-in for
        // RDMA writes from the app).
        fx.peer.daemon.lock().live[&key("a", "wal")]
            .local
            .write_local(HEADER_SIZE, b"old!");
        let (new_mr, _) = prepare(&fx, "a", "wal", 2).unwrap();
        assert_ne!(new_mr.mr_id, old_mr.mr_id);
        // The staged region is fresh: the full copy fills it, not the peer.
        assert!(commit(&fx, "a", "wal", 2).is_ok());
        assert_eq!(
            fx.peer.inspect_region("a", "wal", HEADER_SIZE, 4).unwrap(),
            [0; 4]
        );
        // The old region's token is dead.
        let dev = &fx.registry.lookup("p1").unwrap().device;
        assert!(dev
            .apply_remote(old_mr.mr_id, old_mr.rkey, 0, Some(b"x"), 0)
            .is_err());
    }

    #[test]
    fn commit_with_wrong_epoch_rejected() {
        let fx = setup(1 << 20);
        alloc(&fx, "a", "wal", 1, 128).unwrap();
        prepare(&fx, "a", "wal", 2).unwrap();
        assert!(commit(&fx, "a", "wal", 3).is_err());
        // Staging survives a mismatched commit and can be committed later.
        assert!(commit(&fx, "a", "wal", 2).is_ok());
    }

    #[test]
    fn adopt_rekeys_the_live_region_in_place_at_a_higher_epoch() {
        let fx = setup(1 << 20);
        let (old_mr, _) = alloc(&fx, "a", "wal", 1, 128).unwrap();
        fx.peer.daemon.lock().live[&key("a", "wal")]
            .local
            .write_local(HEADER_SIZE, b"old!");
        // An aborted full copy left a region staged.
        prepare(&fx, "a", "wal", 2).unwrap();
        let used = (HEADER_SIZE + 128) as u64;
        let (mr, _) = adopt(&fx, "a", "wal", 2).unwrap();
        // Same region, same bytes, a fresh key; the staged region is gone.
        assert_eq!((mr.mr_id, mr.len), (old_mr.mr_id, old_mr.len));
        assert_ne!(mr.rkey, old_mr.rkey);
        assert_eq!(
            fx.peer.inspect_region("a", "wal", HEADER_SIZE, 4).unwrap(),
            b"old!"
        );
        assert_eq!((fx.peer.staged_count(), fx.peer.mem_used()), (0, used));
        assert_eq!(fx.peer.daemon.lock().live[&key("a", "wal")].epoch, 2);
        // The earlier writer is fenced; the new key writes.
        let dev = &fx.registry.lookup("p1").unwrap().device;
        assert!(dev
            .apply_remote(old_mr.mr_id, old_mr.rkey, 0, Some(b"x"), 0)
            .is_err());
        assert!(dev
            .apply_remote(mr.mr_id, mr.rkey, 0, Some(b"x"), 0)
            .is_ok());
        // Only a higher epoch adopts, and only a region that exists.
        for epoch in [1, 2] {
            let resp = adopt(&fx, "a", "wal", epoch);
            assert!(resp.is_err(), "epoch {epoch}");
        }
        let resp = adopt(&fx, "a", "other", 3);
        assert!(resp.is_err());
        assert!(dev
            .apply_remote(mr.mr_id, mr.rkey, 0, Some(b"y"), 0)
            .is_ok());
    }

    #[test]
    fn gc_reclaims_a_staged_region_the_ap_map_moved_past() {
        let fx = setup(1 << 20);
        alloc(&fx, "a", "wal", 1, 128).unwrap();
        // A recovery at epoch 2 staged a region here, then set the ap-map at
        // epoch 2 without this peer (its commit never came).
        prepare(&fx, "a", "wal", 2).unwrap();
        ctl(&fx, |c| {
            c.set_ap_entry("a", "wal", vec!["p-other".into()], 2)
        })
        .unwrap();
        assert_eq!(fx.peer.gc_sweep(), 2, "the stale live and the staged one");
        assert_eq!(fx.peer.staged_count(), 0);
        assert_eq!(fx.peer.mem_used(), 0);
    }

    #[test]
    fn revoke_frees_memory_and_invalidate_token() {
        let fx = setup(1 << 20);
        let (mr, _) = alloc(&fx, "a", "wal", 1, 128).unwrap();
        assert!(fx.peer.revoke("a", "wal"));
        assert!(!fx.peer.revoke("a", "wal"), "second revoke is a no-op");
        assert_eq!(fx.peer.avail(), 1 << 20);
        let dev = &fx.registry.lookup("p1").unwrap().device;
        assert!(dev
            .apply_remote(mr.mr_id, mr.rkey, 0, Some(b"x"), 0)
            .is_err());
        // The controller heard about the revocation.
        let peers = ctl(&fx, |c| c.get_peers("a", 0, 10, &[]));
        assert_eq!(peers[0].revocations, 1);
    }

    #[test]
    fn gc_frees_superseded_epochs_and_non_membership() {
        let fx = setup(1 << 20);
        // Region allocated at epoch 1, but the app's ap-map moved to epoch 2
        // without this peer: e > e_r → reclaim.
        alloc(&fx, "a", "leaked", 1, 128).unwrap();
        ctl(&fx, |c| {
            c.set_ap_entry("a", "leaked", vec!["p-other".into()], 2)
        })
        .unwrap();
        // Region allocated at epoch 3 and the entry at epoch 3 includes us:
        // keep.
        alloc(&fx, "a", "live", 3, 128).unwrap();
        ctl(&fx, |c| c.set_ap_entry("a", "live", vec!["p1".into()], 3)).unwrap();
        // Region allocated at epoch 5; entry still at 3: allocation in
        // progress (e < e_r) → keep.
        alloc(&fx, "a", "inflight", 5, 128).unwrap();
        ctl(&fx, |c| {
            c.set_ap_entry("a", "inflight", vec!["p1".into()], 3)
        })
        .unwrap();
        // Same epoch but we are not a member → reclaim.
        alloc(&fx, "a", "evicted", 4, 128).unwrap();
        ctl(&fx, |c| {
            c.set_ap_entry("a", "evicted", vec!["p9".into()], 4)
        })
        .unwrap();

        let freed = fx.peer.gc_sweep();
        assert_eq!(freed, 2);
        assert!(fx.peer.inspect_region("a", "live", 0, 1).is_some());
        assert!(fx.peer.inspect_region("a", "inflight", 0, 1).is_some());
        assert!(fx.peer.inspect_region("a", "leaked", 0, 1).is_none());
        assert!(fx.peer.inspect_region("a", "evicted", 0, 1).is_none());
    }

    #[test]
    fn gc_spares_bumped_survivors() {
        let fx = setup(1 << 20);
        alloc(&fx, "a", "wal", 1, 128).unwrap();
        ctl(&fx, |c| c.set_ap_entry("a", "wal", vec!["p1".into()], 1)).unwrap();
        // Simulate a peer-replacement: the app bumps the survivor's epoch
        // BEFORE writing the new ap-map entry.
        bump(&fx, "a", "wal", 2).unwrap();
        ctl(&fx, |c| {
            c.set_ap_entry("a", "wal", vec!["p1".into(), "p-new".into()], 2)
        })
        .unwrap();
        assert_eq!(fx.peer.gc_sweep(), 0, "survivor must not be reclaimed");
        assert!(fx.peer.inspect_region("a", "wal", 0, 1).is_some());
    }

    #[test]
    fn tenant_accounting_tracks_per_app_usage() {
        let fx = setup(1 << 20);
        alloc(&fx, "a", "wal1", 1, 4096).unwrap();
        alloc(&fx, "a", "wal2", 1, 4096).unwrap();
        alloc(&fx, "b", "wal", 1, 8192).unwrap();
        let small = (HEADER_SIZE + 4096) as u64;
        let big = (HEADER_SIZE + 8192) as u64;
        assert_eq!(fx.peer.tenant_usage("a").bytes, 2 * small);
        assert_eq!(fx.peer.tenant_usage("a").regions, 2);
        assert_eq!(fx.peer.tenant_usage("b").bytes, big);
        assert_eq!(fx.peer.tenant_usage("b").regions, 1);
        assert_eq!(fx.peer.tenants().len(), 2);
        assert_eq!(fx.peer.mem_used(), 2 * small + big);
        // Closing every file returns the ledger to zero; the regions wait
        // on the free lists for the next tenant.
        free(&fx, "a", "wal1", 1).unwrap();
        free(&fx, "a", "wal2", 1).unwrap();
        free(&fx, "b", "wal", 1).unwrap();
        assert_eq!(fx.peer.mem_used(), 0);
        assert_eq!(fx.peer.tenants().len(), 0);
        assert_eq!(fx.peer.pooled_regions(), 3);
    }

    #[test]
    fn free_is_idempotent_and_drops_replace_race_staging() {
        let fx = setup(1 << 20);
        alloc(&fx, "a", "wal", 1, 128).unwrap();
        prepare(&fx, "a", "wal", 2).unwrap();
        assert_eq!(fx.peer.staged_count(), 1);
        assert_eq!(fx.peer.mem_used(), 2 * (HEADER_SIZE + 128) as u64);
        // The app deletes the file while the catch-up has a region staged:
        // the free must release BOTH, or the staged slot leaks its charge.
        assert!(free(&fx, "a", "wal", 2).is_ok());
        assert_eq!(fx.peer.mem_used(), 0, "staged charge released too");
        assert_eq!(fx.peer.staged_count(), 0);
        assert_eq!(fx.peer.region_count(), 0);
        assert_eq!(fx.peer.pooled_regions(), 2);
        // Repeating the free is a no-op, not a double credit.
        assert!(free(&fx, "a", "wal", 2).is_ok());
        assert_eq!(fx.peer.mem_used(), 0);
        assert_eq!(fx.peer.pooled_regions(), 2);
    }

    #[test]
    fn alloc_under_pressure_evicts_coldest_region() {
        let region = HEADER_SIZE + 128;
        let fx = setup(2 * region as u64);
        alloc(&fx, "a", "wal1", 1, 128).unwrap();
        alloc(&fx, "a", "wal2", 1, 128).unwrap();
        // wal1's acked prefix is fully spilled (seq == spill_seq): coldest.
        // wal2 still holds 10 unspilled records: hotter.
        {
            let daemon = fx.peer.daemon.lock();
            for (file, spill_seq) in [("wal1", 10), ("wal2", 0)] {
                let header = RegionHeader {
                    seq: 10,
                    spill_seq,
                    ..Default::default()
                };
                daemon.live[&key("a", file)]
                    .local
                    .write_local(0, &header.encode());
            }
        }
        // The budget is full; the third allocation forces a voluntary
        // revocation and must pick the spilled (cold) region.
        assert!(alloc(&fx, "a", "wal3", 1, 128).is_ok());
        assert!(fx.peer.inspect_region("a", "wal1", 0, 1).is_none());
        assert!(fx.peer.inspect_region("a", "wal2", 0, 1).is_some());
        assert!(fx.peer.inspect_region("a", "wal3", 0, 1).is_some());
        let peers = ctl(&fx, |c| c.get_peers("a", 0, 10, &[]));
        assert_eq!(peers[0].revocations, 1);
    }

    #[test]
    fn lease_gc_reclaims_regions_of_dead_apps() {
        let fx = setup(1 << 20);
        let lease = NclConfig::zero().peer_lease;
        // "live" holds its instance lock from a live node: lease renewed.
        ctl(&fx, |c| c.acquire_instance("live", fx.app_node)).unwrap();
        alloc(&fx, "live", "wal", 1, 128).unwrap();
        // "dead" never held (or lost) its lock: confirmed dead → reclaim.
        alloc(&fx, "dead", "wal", 1, 128).unwrap();
        let later = Instant::now() + lease;
        assert_eq!(sweep(&mut fx.peer.daemon.lock(), later), 1);
        assert!(fx.peer.inspect_region("live", "wal", 0, 1).is_some());
        assert!(fx.peer.inspect_region("dead", "wal", 0, 1).is_none());
        assert_eq!(fx.peer.tenant_usage("dead").regions, 0);
        // The lock holder crashes: the next expiry reclaims "live" too.
        fx.cluster.crash(fx.app_node);
        assert_eq!(sweep(&mut fx.peer.daemon.lock(), later + lease), 1);
        assert_eq!(fx.peer.mem_used(), 0);
    }

    #[test]
    fn leases_expire_at_the_boundary_and_every_request_renews_them() {
        let mut config = NclConfig::zero();
        config.telemetry = Telemetry::new();
        let tel = config.telemetry.clone();
        let lease = config.peer_lease;
        let fx = setup_with(1 << 20, config);
        ctl(&fx, |c| c.acquire_instance("live", fx.app_node)).unwrap();
        let ns = Duration::from_nanos(1);
        let mut d = fx.peer.daemon.lock();

        // The boundary: touched at t, a region is still leased a nanosecond
        // before t + lease and expired at t + lease exactly.
        let t = Instant::now();
        d.alloc(t, "live", "wal", 1, 128).unwrap();
        d.alloc(t, "dead", "wal", 1, 128).unwrap();
        assert_eq!(sweep(&mut d, t + lease - ns), 0);
        assert_eq!(sweep(&mut d, t + lease), 1, "the dead app's region goes");
        assert!(!d.live.contains_key(&key("dead", "wal")));
        assert!(tel.spans().iter().any(|s| s.name == spans::LEASE_EXPIRE
            && s.detail
                .as_deref()
                .is_some_and(|d| d.starts_with("dead/wal"))));
        // The live app's region was re-leased at t + lease, so once its app
        // dies it lasts a whole lease from then.
        fx.cluster.crash(fx.app_node);
        assert_eq!(sweep(&mut d, t + 2 * lease - ns), 0);
        assert_eq!(sweep(&mut d, t + 2 * lease), 1);
        assert_eq!(d.alloc.used(), 0);

        // Renewal: every file is allocated at u, and one request of each
        // kind touches its file at v. The only region left at u is
        // "prepare"'s live one: `Prepare` leases the region it stages.
        let u = t + 3 * lease;
        let v = u + Duration::from_secs(1);
        for file in ["alloc", "lookup", "prepare", "commit", "bump", "adopt"] {
            d.alloc(u, "dead", file, 1, 128).unwrap();
        }
        d.prepare(u, "dead", "commit", 2, 128).unwrap();
        d.alloc(v, "dead", "alloc", 2, 128).unwrap();
        d.lookup(v, "dead", "lookup").unwrap();
        d.prepare(v, "dead", "prepare", 2, 128).unwrap();
        d.commit(v, "dead", "commit", 2).unwrap();
        d.bump_epoch(v, "dead", "bump", 2).unwrap();
        d.adopt(v, "dead", "adopt", 2).unwrap();
        assert_eq!(sweep(&mut d, u + lease), 1);
        assert!(!d.live.contains_key(&key("dead", "prepare")));
        assert_eq!((d.live.len(), d.staged.len()), (5, 1));
        assert_eq!(sweep(&mut d, v + lease - ns), 0);
        assert_eq!(sweep(&mut d, v + lease), 6);
        assert_eq!(d.alloc.used(), 0);
    }

    #[test]
    fn mem_gauges_track_usage() {
        let mut config = NclConfig::zero();
        config.telemetry = Telemetry::new();
        let tel = config.telemetry.clone();
        let region = (HEADER_SIZE + 128) as i64;
        let fx = setup_with(2 * region as u64, config);
        assert_eq!(tel.gauge("peer.mem.p1.total_bytes").get(), 2 * region);
        assert_eq!(tel.gauge("peer.mem.total_bytes").get(), 2 * region);
        alloc(&fx, "a", "wal", 1, 128).unwrap();
        assert_eq!(tel.gauge("peer.mem.p1.used_bytes").get(), region);
        assert_eq!(tel.gauge("peer.mem.used_bytes").get(), region);
        assert_eq!(tel.gauge("peer.mem.p1.regions").get(), 1);
        assert_eq!(tel.gauge("peer.mem.p1.tenants").get(), 1);
        free(&fx, "a", "wal", 1).unwrap();
        assert_eq!(tel.gauge("peer.mem.p1.used_bytes").get(), 0);
        assert_eq!(tel.gauge("peer.mem.used_bytes").get(), 0);
        assert_eq!(tel.gauge("peer.mem.p1.tenants").get(), 0);

        // Whatever request moved the ledger, the gauges and the controller's
        // placement hint agree with it afterwards. (Read through the plain
        // accessors: `Peer::avail` would publish by itself.)
        let published = |step: &str| {
            let regions = fx.peer.region_count() + fx.peer.staged_count();
            let avail = fx.peer.mem_total() - fx.peer.mem_used();
            let hint = ctl(&fx, |c| c.get_peers("a", 0, 10, &[]));
            assert_eq!(
                tel.gauge("peer.mem.p1.used_bytes").get(),
                fx.peer.mem_used() as i64,
                "{step}"
            );
            assert_eq!(
                tel.gauge("peer.mem.p1.regions").get(),
                regions as i64,
                "{step}"
            );
            assert_eq!(hint[0].avail, avail, "{step}");
        };
        alloc(&fx, "a", "wal", 1, 128).unwrap();
        assert!(prepare(&fx, "a", "wal", 2).is_ok());
        assert_eq!(fx.peer.mem_used(), 2 * region as u64);
        published("after Prepare");
        assert!(commit(&fx, "a", "wal", 2).is_ok());
        // A superseding Alloc releases the old region, then fails: it does
        // not fit the budget.
        assert!(alloc(&fx, "a", "wal", 3, 10_000).is_err());
        assert_eq!(fx.peer.mem_used(), 0);
        published("after a failed superseding Alloc");
    }
}
