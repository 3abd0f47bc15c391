//! The log-peer daemon.
//!
//! Any compute node with spare memory can run a peer daemon (§4.3). The
//! daemon is involved only in the control plane: allocating memory regions,
//! validating recovery lookups, the atomic region switch used by catch-up,
//! epoch-based garbage collection of leaked regions, and voluntary memory
//! revocation. The data plane — every log write and recovery read — goes
//! through 1-sided RDMA against the regions the daemon exported, without
//! the daemon's participation.
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

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rdma::{LocalMr, RdmaDevice, RemoteMr};
use sim::{Cluster, NodeId, RpcServer};
use telemetry::{events, Counter, Gauge, Telemetry};

use crate::config::NclConfig;
use crate::controller::{Controller, ControllerClient};
use crate::layout::{RegionHeader, HEADER_SIZE, HEADER_WIRE_SIZE};
use crate::registry::{NclRegistry, PeerEndpoint};
use crate::slab::{SlabAllocator, TenantUsage};

/// Requests served by a peer daemon.
#[derive(Debug, Clone)]
pub enum PeerReq {
    /// Allocate (or re-allocate under a newer epoch) the region for an ncl
    /// file. `capacity` is the data capacity; the region adds header space.
    Alloc {
        /// Application identifier.
        app: String,
        /// File name.
        file: String,
        /// Epoch the application will stamp its ap-map entry with.
        epoch: u64,
        /// Data capacity in bytes.
        capacity: usize,
    },
    /// Release the region for a deleted ncl file.
    Free {
        /// Application identifier.
        app: String,
        /// File name.
        file: String,
        /// Requesting epoch; stale frees (older than the record) are ignored.
        epoch: u64,
    },
    /// During application recovery: does this peer still hold the region?
    RecoveryLookup {
        /// Application identifier.
        app: String,
        /// File name.
        file: String,
    },
    /// Stage a fresh region for the catch-up's atomic switch, optionally
    /// pre-filled with the current region's contents (peer-local memcpy —
    /// the transport saving behind the §6 byte-diff optimisation).
    Prepare {
        /// Application identifier.
        app: String,
        /// File name.
        file: String,
        /// Epoch of the in-progress recovery.
        epoch: u64,
        /// Data capacity in bytes.
        capacity: usize,
        /// Copy the current region's bytes into the staged one.
        copy_current: bool,
    },
    /// Atomically switch the mr-map entry to the staged region and recycle
    /// the old one.
    Commit {
        /// Application identifier.
        app: String,
        /// File name.
        file: String,
        /// Epoch given at `Prepare`.
        epoch: u64,
    },
    /// Raise the epoch recorded for a surviving peer's region so the leak GC
    /// never confuses it with a stale allocation (see DESIGN.md §5 note).
    BumpEpoch {
        /// Application identifier.
        app: String,
        /// File name.
        file: String,
        /// New epoch (monotonic).
        epoch: u64,
    },
}

/// Responses from a peer daemon.
#[derive(Debug, Clone)]
pub enum PeerResp {
    /// Success without payload.
    Ok,
    /// The requested/staged region token.
    Mr(RemoteMr),
    /// Request refused (insufficient memory, stale epoch, lost region, ...).
    Rejected(String),
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

    fn publish(&mut self, alloc: &SlabAllocator, live: usize) {
        let used = alloc.used() as i64;
        let regions = live as i64;
        self.used.set(used);
        self.regions.set(regions);
        self.tenants.set(alloc.tenant_count() as i64);
        self.fleet_used.adjust(used - self.last_used);
        self.fleet_regions.adjust(regions - self.last_regions);
        self.last_used = used;
        self.last_regions = regions;
    }
}

struct PeerState {
    gen: u64,
    /// Budget, tenant ledger, and recycled-region free lists.
    alloc: SlabAllocator,
    mr_map: HashMap<(String, String), Region>,
    staged: HashMap<(String, String), Region>,
    /// Event trace for region lifecycle transitions (shared via the config).
    telemetry: Telemetry,
    /// [`NclConfig::peer_lease`], copied out at start.
    lease: Duration,
    gauges: MemGauges,
}

/// A running log-peer daemon (see module docs).
pub struct Peer {
    name: String,
    cluster: Cluster,
    node: NodeId,
    device: RdmaDevice,
    controller: ControllerClient,
    state: Arc<Mutex<PeerState>>,
    gc: Option<(
        Arc<std::sync::atomic::AtomicBool>,
        std::thread::JoinHandle<()>,
    )>,
    _server: RpcServer<PeerReq, PeerResp>,
}

impl Drop for Peer {
    fn drop(&mut self) {
        self.stop_gc();
    }
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
        Self::start_on(cluster, node, name, lend_mem, config, controller, registry)
    }

    /// Starts a peer daemon on an existing node (for co-location scenarios).
    pub fn start_on(
        cluster: &Cluster,
        node: NodeId,
        name: &str,
        lend_mem: u64,
        config: &NclConfig,
        controller: &Controller,
        registry: &Arc<NclRegistry>,
    ) -> Self {
        let device = RdmaDevice::new(cluster.clone(), node, config.mr_register);
        let controller_client = controller.client(config.control);
        controller_client
            .register_peer(node, name, node, lend_mem)
            .expect("controller reachable at peer start");
        let state = Arc::new(Mutex::new(PeerState {
            gen: cluster.generation(node),
            alloc: SlabAllocator::new(lend_mem),
            mr_map: HashMap::new(),
            staged: HashMap::new(),
            telemetry: config.telemetry.clone(),
            lease: config.peer_lease,
            gauges: MemGauges::new(&config.telemetry, name, lend_mem),
        }));

        let server = {
            let cluster2 = cluster.clone();
            let device2 = device.clone();
            let ctrl2 = controller_client.clone();
            let state2 = Arc::clone(&state);
            let name2 = name.to_string();
            RpcServer::new(cluster.clone(), node, move |req| {
                let mut guard = state2.lock();
                let st = &mut *guard;
                ensure_generation(&cluster2, node, &name2, &device2, &ctrl2, st);
                consume_pressure(&cluster2, node, &name2, &device2, &ctrl2, st);
                handle(node, &name2, &device2, &ctrl2, st, req)
            })
        };

        registry.publish(
            name,
            PeerEndpoint {
                rpc: server.client(config.control),
                device: device.clone(),
                node,
            },
        );

        Peer {
            name: name.to_string(),
            cluster: cluster.clone(),
            node,
            device,
            controller: controller_client,
            state,
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
        let mut guard = self.state.lock();
        let st = &mut *guard;
        ensure_generation(
            &self.cluster,
            self.node,
            &self.name,
            &self.device,
            &self.controller,
            st,
        );
        st.alloc.avail()
    }

    /// Bytes currently charged to tenants (live + staged regions).
    pub fn mem_used(&self) -> u64 {
        self.state.lock().alloc.used()
    }

    /// The configured memory budget in bytes.
    pub fn mem_total(&self) -> u64 {
        self.state.lock().alloc.total()
    }

    /// What a single tenant currently holds on this peer.
    pub fn tenant_usage(&self, app: &str) -> TenantUsage {
        self.state.lock().alloc.tenant(app)
    }

    /// Every tenant with a non-zero charge, sorted by name.
    pub fn tenants(&self) -> Vec<(String, TenantUsage)> {
        self.state.lock().alloc.tenants()
    }

    /// Number of live regions in the mr-map.
    pub fn region_count(&self) -> usize {
        self.state.lock().mr_map.len()
    }

    /// Number of regions staged for an in-flight catch-up switch.
    pub fn staged_count(&self) -> usize {
        self.state.lock().staged.len()
    }

    /// Number of recycled regions waiting on the size-class free lists.
    pub fn pooled_regions(&self) -> usize {
        self.state.lock().alloc.pooled_regions()
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
        let st = self.state.lock();
        let region = st.mr_map.get(&(app.to_string(), file.to_string()))?;
        region.local.read_local(offset, len)
    }

    /// Unilaterally revokes the region for `(app, file)` — e.g. under local
    /// memory pressure (§4.5.2). Reclamation is local and instantaneous: the
    /// rkey is reset, subsequent application writes fail, and the
    /// application handles it as a peer failure. The controller is notified
    /// so operators can see who is shedding load.
    pub fn revoke(&self, app: &str, file: &str) -> bool {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        ensure_generation(
            &self.cluster,
            self.node,
            &self.name,
            &self.device,
            &self.controller,
            st,
        );
        let key = (app.to_string(), file.to_string());
        if let Some(region) = st.mr_map.remove(&key) {
            let epoch = region.epoch;
            let len = region.remote.len as u64;
            st.telemetry.event(
                events::REGION_REVOKE,
                &self.name,
                epoch,
                format!("{app}/{file}: revoked under memory pressure ({len} bytes)"),
            );
            st.gauges.revoked_regions.inc();
            st.gauges.revoked_bytes.add(len);
            release_region(&self.device, st, app, region);
            let _ = self
                .controller
                .report_revocation(self.node, &self.name, app, file, epoch);
            sync_gauges(self.node, &self.name, &self.controller, st);
            true
        } else {
            false
        }
    }

    /// Voluntarily sheds at least `need` bytes by revoking the coldest
    /// regions (see [`region_coldness`]). Returns the bytes reclaimed,
    /// which may fall short when everything left is staged.
    pub fn revoke_for_pressure(&self, need: u64) -> u64 {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        ensure_generation(
            &self.cluster,
            self.node,
            &self.name,
            &self.device,
            &self.controller,
            st,
        );
        evict_bytes(
            self.node,
            &self.name,
            &self.device,
            &self.controller,
            st,
            need,
            None,
        )
    }

    /// Runs one pass of the epoch-based leak GC (§4.5.1): for every region
    /// held, compares its recorded epoch `e_r` with the application's epoch
    /// high-water mark `e` at the controller, freeing regions whose epoch
    /// has been superseded (`e > e_r`) or that lost their ap-map membership
    /// at the same epoch. A second pass reclaims regions whose lease
    /// expired with the owner confirmed dead at the controller. Returns the
    /// number of regions freed.
    pub fn gc_sweep(&self) -> usize {
        run_gc_sweep(
            &self.cluster,
            self.node,
            &self.name,
            &self.device,
            &self.controller,
            &self.state,
        )
    }

    /// Spawns the periodic GC thread the paper describes ("periodically,
    /// for each memory region ... it queries the controller", §4.5.1).
    /// The thread also drains pending memory-pressure signals every tick.
    /// The thread stops when the `Peer` is dropped. Calling this twice
    /// replaces the previous schedule; a zero `interval` is no schedule
    /// (GC stays caller-driven), not a sweep in a busy loop.
    pub fn spawn_gc(&mut self, interval: std::time::Duration) {
        self.stop_gc();
        if interval.is_zero() {
            return;
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let cluster = self.cluster.clone();
        let node = self.node;
        let name = self.name.clone();
        let device = self.device.clone();
        let controller = self.controller.clone();
        let state = Arc::clone(&self.state);
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(format!("peer-gc-{name}"))
            .spawn(move || {
                let tick = std::time::Duration::from_millis(20).min(interval);
                let mut since = std::time::Duration::ZERO;
                while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
                    std::thread::sleep(tick);
                    since += tick;
                    if cluster.is_alive(node) {
                        let mut guard = state.lock();
                        let st = &mut *guard;
                        ensure_generation(&cluster, node, &name, &device, &controller, st);
                        consume_pressure(&cluster, node, &name, &device, &controller, st);
                    }
                    if since >= interval {
                        since = std::time::Duration::ZERO;
                        if cluster.is_alive(node) {
                            run_gc_sweep(&cluster, node, &name, &device, &controller, &state);
                        }
                    }
                }
            })
            .expect("spawn gc thread");
        self.gc = Some((stop, handle));
    }

    /// Stops the periodic GC thread (no-op if none is running).
    pub fn stop_gc(&mut self) {
        if let Some((stop, handle)) = self.gc.take() {
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            let _ = handle.join();
        }
    }
}

/// Detects a restart (crash generation moved) and reinitialises: DRAM
/// contents are gone, so the mr-map, staged regions, free lists and tenant
/// ledger are dropped, and the daemon re-announces itself to the controller.
fn ensure_generation(
    cluster: &Cluster,
    node: NodeId,
    name: &str,
    device: &RdmaDevice,
    controller: &ControllerClient,
    st: &mut PeerState,
) {
    let gen = cluster.generation(node);
    if gen == st.gen {
        return;
    }
    st.gen = gen;
    st.mr_map.clear();
    st.staged.clear();
    st.alloc.wipe();
    st.gauges.publish(&st.alloc, 0);
    device.reap_stale();
    let _ = controller.register_peer(node, name, node, st.alloc.total());
}

/// Re-publishes the memory gauges and pushes availability + load to the
/// controller's placement plane.
fn sync_gauges(node: NodeId, name: &str, controller: &ControllerClient, st: &mut PeerState) {
    let live = st.mr_map.len() + st.staged.len();
    st.gauges.publish(&st.alloc, live);
    let _ = controller.update_avail(node, name, st.alloc.avail(), live as u64);
}

/// One GC pass over a peer's regions (see [`Peer::gc_sweep`]).
fn run_gc_sweep(
    cluster: &Cluster,
    node: NodeId,
    name: &str,
    device: &RdmaDevice,
    controller: &ControllerClient,
    state: &Arc<Mutex<PeerState>>,
) -> usize {
    let mut guard = state.lock();
    let st = &mut *guard;
    ensure_generation(cluster, node, name, device, controller, st);
    let mut freed = 0;
    for map_kind in 0..2 {
        let keys: Vec<(String, String)> = if map_kind == 0 {
            st.mr_map.keys().cloned().collect()
        } else {
            st.staged.keys().cloned().collect()
        };
        for key in keys {
            let e_r = {
                let map = if map_kind == 0 {
                    &st.mr_map
                } else {
                    &st.staged
                };
                map.get(&key).map(|r| r.epoch)
            };
            let Some(e_r) = e_r else { continue };
            let Ok(e) = controller.get_app_epoch(node, &key.0, &key.1) else {
                continue;
            };
            let reclaim = if e > e_r {
                true
            } else if e == e_r {
                // Same epoch: keep only if this peer is a member of the
                // entry (staged regions at the committed epoch have been
                // superseded by their committed twin and can go too).
                let member = controller
                    .get_ap_entry(node, &key.0, &key.1)
                    .ok()
                    .flatten()
                    .map(|entry| entry.peers.contains(&name.to_string()))
                    .unwrap_or(false);
                if map_kind == 0 {
                    !member
                } else {
                    false
                }
            } else {
                // e < e_r: allocation might still be in progress.
                false
            };
            if reclaim {
                let region = if map_kind == 0 {
                    st.mr_map.remove(&key)
                } else {
                    st.staged.remove(&key)
                }
                .expect("checked above");
                st.telemetry.event(
                    events::REGION_FREE,
                    name,
                    region.epoch,
                    format!("{}/{}: leak GC (app epoch {e})", key.0, key.1),
                );
                st.gauges.gc_reclaimed.inc();
                release_region(device, st, &key.0, region);
                freed += 1;
            }
        }
    }
    // Lease pass: a region idle past the lease window may belong to an
    // application that crashed for good and will never free it. The
    // controller confirms (instance lock held by a live node) before
    // anything is reclaimed; a merely-idle live tenant gets its lease
    // renewed instead, and an unreachable controller means no confirmation
    // and no reclaim.
    let now = Instant::now();
    let lease = st.lease;
    for map_kind in 0..2 {
        let keys: Vec<(String, String)> = if map_kind == 0 {
            st.mr_map.keys().cloned().collect()
        } else {
            st.staged.keys().cloned().collect()
        };
        for key in keys {
            let expired = {
                let map = if map_kind == 0 {
                    &st.mr_map
                } else {
                    &st.staged
                };
                map.get(&key)
                    .map(|r| now.saturating_duration_since(r.lease) >= lease)
                    .unwrap_or(false)
            };
            if !expired {
                continue;
            }
            match controller.app_live(node, &key.0) {
                Ok(true) => {
                    let map = if map_kind == 0 {
                        &mut st.mr_map
                    } else {
                        &mut st.staged
                    };
                    if let Some(region) = map.get_mut(&key) {
                        region.lease = now;
                    }
                }
                Ok(false) => {
                    let region = if map_kind == 0 {
                        st.mr_map.remove(&key)
                    } else {
                        st.staged.remove(&key)
                    };
                    let Some(region) = region else { continue };
                    st.telemetry.event(
                        events::LEASE_EXPIRE,
                        name,
                        region.epoch,
                        format!("{}/{}: lease expired, app confirmed dead", key.0, key.1),
                    );
                    st.gauges.gc_reclaimed.inc();
                    release_region(device, st, &key.0, region);
                    freed += 1;
                }
                Err(_) => {}
            }
        }
    }
    if freed > 0 {
        sync_gauges(node, name, controller, st);
    }
    freed
}

/// Invalidates a region's token and returns its memory to the tenant
/// ledger + size-class free list.
fn release_region(device: &RdmaDevice, st: &mut PeerState, app: &str, region: Region) {
    device.invalidate(region.remote.mr_id);
    st.alloc.release(app, region.remote.len, region.local);
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

/// Voluntary revocation (§4.5.2): revokes the coldest regions until at
/// least `need` bytes are reclaimed. Files with a staged region (in-flight
/// catch-up) and the protected key are never victims. Each victim's owner
/// is reported to the controller so the app learns to replace the peer.
fn evict_bytes(
    node: NodeId,
    name: &str,
    device: &RdmaDevice,
    controller: &ControllerClient,
    st: &mut PeerState,
    need: u64,
    protect: Option<&(String, String)>,
) -> u64 {
    let mut victims: Vec<((String, String), u64, usize)> = st
        .mr_map
        .iter()
        .filter(|(key, _)| Some(*key) != protect && !st.staged.contains_key(*key))
        .map(|(key, region)| (key.clone(), region_coldness(region), region.remote.len))
        .collect();
    // Coldest first; bigger regions break ties so fewer files are disturbed;
    // the key keeps the order deterministic.
    victims.sort_by(|a, b| a.1.cmp(&b.1).then(b.2.cmp(&a.2)).then(a.0.cmp(&b.0)));
    let mut reclaimed = 0u64;
    for (key, _, _) in victims {
        if reclaimed >= need {
            break;
        }
        let Some(region) = st.mr_map.remove(&key) else {
            continue;
        };
        let epoch = region.epoch;
        let len = region.remote.len as u64;
        st.telemetry.event(
            events::REGION_REVOKE,
            name,
            epoch,
            format!(
                "{}/{}: revoked under memory pressure ({len} bytes)",
                key.0, key.1
            ),
        );
        st.gauges.revoked_regions.inc();
        st.gauges.revoked_bytes.add(len);
        release_region(device, st, &key.0, region);
        let _ = controller.report_revocation(node, name, &key.0, &key.1, epoch);
        reclaimed += len;
    }
    if reclaimed > 0 {
        sync_gauges(node, name, controller, st);
    }
    reclaimed
}

/// Drains a pending memory-pressure signal: shrink used memory to at most
/// `pct` percent of the budget by revoking the coldest regions.
fn consume_pressure(
    cluster: &Cluster,
    node: NodeId,
    name: &str,
    device: &RdmaDevice,
    controller: &ControllerClient,
    st: &mut PeerState,
) {
    let Some(pct) = cluster.take_pressure(node) else {
        return;
    };
    st.telemetry.event(
        events::PEER_PRESSURE,
        name,
        0,
        format!("shrink to {pct}% of {}-byte budget", st.alloc.total()),
    );
    let target = ((st.alloc.total() as u128 * pct as u128) / 100) as u64;
    let used = st.alloc.used();
    if used > target {
        evict_bytes(node, name, device, controller, st, used - target, None);
    }
}

/// Allocates a region of `region_len` bytes for `app`, preferring the
/// recycled free list (cheap re-key) over fresh registration (charged with
/// page-pinning cost). On `Err` the charge has been reverted.
fn allocate_region(
    device: &RdmaDevice,
    st: &mut PeerState,
    app: &str,
    region_len: usize,
) -> Result<(LocalMr, RemoteMr), String> {
    let pooled = match st.alloc.charge(app, region_len) {
        Ok(pooled) => pooled,
        Err(e) => return Err(e.to_string()),
    };
    if let Some(local) = pooled {
        if let Some(rkey) = device.rekey(local.mr_id()) {
            let remote = RemoteMr {
                node: device.node(),
                mr_id: local.mr_id(),
                rkey,
                len: region_len,
            };
            return Ok((local, remote));
        }
        // Pooled region vanished (shouldn't happen outside a crash); fall
        // through to fresh registration.
    }
    match device.register_mr(region_len) {
        Ok(pair) => Ok(pair),
        Err(e) => {
            st.alloc.uncharge(app, region_len);
            Err(format!("registration failed: {e}"))
        }
    }
}

/// [`allocate_region`] with the voluntary-revocation retry: when the budget
/// is exhausted and the request could ever fit, evict the coldest regions
/// (never the file's own current region — catch-up may still read it) and
/// try once more.
fn allocate_with_eviction(
    node: NodeId,
    name: &str,
    device: &RdmaDevice,
    controller: &ControllerClient,
    st: &mut PeerState,
    key: &(String, String),
    region_len: usize,
) -> Result<(LocalMr, RemoteMr), String> {
    match allocate_region(device, st, &key.0, region_len) {
        Ok(pair) => Ok(pair),
        Err(msg) => {
            if region_len as u64 > st.alloc.total() {
                return Err(msg);
            }
            let shortfall = (region_len as u64).saturating_sub(st.alloc.avail());
            if evict_bytes(node, name, device, controller, st, shortfall, Some(key)) == 0 {
                return Err(msg);
            }
            allocate_region(device, st, &key.0, region_len)
        }
    }
}

fn handle(
    node: NodeId,
    name: &str,
    device: &RdmaDevice,
    controller: &ControllerClient,
    st: &mut PeerState,
    req: PeerReq,
) -> PeerResp {
    match req {
        PeerReq::Alloc {
            app,
            file,
            epoch,
            capacity,
        } => {
            let key = (app, file);
            if let Some(existing) = st.mr_map.get(&key) {
                if existing.epoch >= epoch {
                    return PeerResp::Rejected(format!(
                        "region exists at epoch {} >= {epoch}",
                        existing.epoch
                    ));
                }
                // A newer epoch supersedes the old allocation.
                let old = st.mr_map.remove(&key).expect("present");
                release_region(device, st, &key.0, old);
            }
            let region_len = HEADER_SIZE + capacity;
            match allocate_with_eviction(node, name, device, controller, st, &key, region_len) {
                Ok((local, remote)) => {
                    st.telemetry.event(
                        events::REGION_ALLOC,
                        name,
                        epoch,
                        format!("{}/{}: {region_len} bytes", key.0, key.1),
                    );
                    st.mr_map.insert(
                        key,
                        Region {
                            epoch,
                            local,
                            remote,
                            lease: Instant::now(),
                        },
                    );
                    sync_gauges(node, name, controller, st);
                    PeerResp::Mr(remote)
                }
                Err(msg) => PeerResp::Rejected(msg),
            }
        }
        PeerReq::Free { app, file, epoch } => {
            let key = (app, file);
            if let Some(region) = st.mr_map.get(&key) {
                if region.epoch > epoch {
                    return PeerResp::Rejected(format!(
                        "free at epoch {epoch} older than region epoch {}",
                        region.epoch
                    ));
                }
            }
            let mut freed = false;
            if let Some(region) = st.mr_map.remove(&key) {
                st.telemetry.event(
                    events::REGION_FREE,
                    name,
                    region.epoch,
                    format!("{}/{}: released by application", key.0, key.1),
                );
                release_region(device, st, &key.0, region);
                freed = true;
            }
            // A Free racing a replace: the application deleted the file
            // while a catch-up had a region staged for it. The staged slot
            // would otherwise never leave the tenant ledger — the
            // double-release leak. Dropping it here keeps Free idempotent
            // (repeats find both maps empty and change nothing).
            if st
                .staged
                .get(&key)
                .is_some_and(|staged| staged.epoch <= epoch)
            {
                let staged = st.staged.remove(&key).expect("present");
                st.telemetry.event(
                    events::REGION_FREE,
                    name,
                    staged.epoch,
                    format!("{}/{}: staged region dropped by free", key.0, key.1),
                );
                release_region(device, st, &key.0, staged);
                freed = true;
            }
            if freed {
                sync_gauges(node, name, controller, st);
            }
            PeerResp::Ok
        }
        PeerReq::RecoveryLookup { app, file } => {
            match st.mr_map.get_mut(&(app, file)) {
                Some(region) => {
                    region.lease = Instant::now();
                    PeerResp::Mr(region.remote)
                }
                // The peer crashed and recovered (mr-map lost) or never had
                // the region: it must reject so recovery quorum logic treats
                // it as data-less.
                None => PeerResp::Rejected("no region for file".to_string()),
            }
        }
        PeerReq::Prepare {
            app,
            file,
            epoch,
            capacity,
            copy_current,
        } => {
            let key = (app, file);
            let region_len = HEADER_SIZE + capacity;
            // Drop any previous staging for this file (aborted recovery).
            if let Some(old) = st.staged.remove(&key) {
                release_region(device, st, &key.0, old);
            }
            match allocate_with_eviction(node, name, device, controller, st, &key, region_len) {
                Ok((local, remote)) => {
                    if copy_current {
                        if let Some(cur) = st.mr_map.get(&key) {
                            let n = cur.remote.len.min(region_len);
                            if let Some(bytes) = cur.local.read_local(0, n) {
                                local.write_local(0, &bytes);
                            }
                        }
                    }
                    st.staged.insert(
                        key,
                        Region {
                            epoch,
                            local,
                            remote,
                            lease: Instant::now(),
                        },
                    );
                    PeerResp::Mr(remote)
                }
                Err(msg) => PeerResp::Rejected(msg),
            }
        }
        PeerReq::Commit { app, file, epoch } => {
            let key = (app, file);
            match st.staged.remove(&key) {
                Some(mut staged) if staged.epoch == epoch => {
                    if let Some(old) = st.mr_map.remove(&key) {
                        release_region(device, st, &key.0, old);
                    }
                    staged.lease = Instant::now();
                    st.mr_map.insert(key, staged);
                    sync_gauges(node, name, controller, st);
                    PeerResp::Ok
                }
                Some(staged) => {
                    let msg = format!(
                        "staged epoch {} does not match commit epoch {epoch}",
                        staged.epoch
                    );
                    st.staged.insert(key, staged);
                    PeerResp::Rejected(msg)
                }
                None => PeerResp::Rejected("nothing staged".to_string()),
            }
        }
        PeerReq::BumpEpoch { app, file, epoch } => {
            match st.mr_map.get_mut(&(app.clone(), file.clone())) {
                Some(region) => {
                    region.epoch = region.epoch.max(epoch);
                    region.lease = Instant::now();
                    let bumped = region.epoch;
                    st.telemetry.event(
                        events::EPOCH_BUMP,
                        name,
                        bumped,
                        format!("{app}/{file}: survivor region epoch raised"),
                    );
                    PeerResp::Ok
                }
                None => PeerResp::Rejected("no region for file".to_string()),
            }
        }
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
        let controller = Controller::start(&cluster);
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

    fn alloc(fx: &Fixture, app: &str, file: &str, epoch: u64, cap: usize) -> PeerResp {
        let ep = fx.registry.lookup("p1").unwrap();
        ep.rpc
            .call(
                fx.app_node,
                PeerReq::Alloc {
                    app: app.into(),
                    file: file.into(),
                    epoch,
                    capacity: cap,
                },
            )
            .unwrap()
    }

    fn free(fx: &Fixture, app: &str, file: &str, epoch: u64) -> PeerResp {
        let ep = fx.registry.lookup("p1").unwrap();
        ep.rpc
            .call(
                fx.app_node,
                PeerReq::Free {
                    app: app.into(),
                    file: file.into(),
                    epoch,
                },
            )
            .unwrap()
    }

    #[test]
    fn alloc_returns_region_and_decrements_avail() {
        let fx = setup(1 << 20);
        let resp = alloc(&fx, "a", "wal", 1, 4096);
        let PeerResp::Mr(mr) = resp else {
            panic!("expected Mr, got {resp:?}")
        };
        assert_eq!(mr.len, HEADER_SIZE + 4096);
        assert_eq!(fx.peer.avail(), (1 << 20) - (HEADER_SIZE + 4096) as u64);
        assert_eq!(fx.peer.region_count(), 1);
        // The controller sees the updated availability.
        let peers = fx
            .ctrl_client
            .get_peers(fx.app_node, "a", 0, 10, &[])
            .unwrap();
        assert_eq!(peers[0].avail, fx.peer.avail());
    }

    #[test]
    fn alloc_rejected_when_memory_insufficient() {
        let fx = setup(1024);
        let resp = alloc(&fx, "a", "wal", 1, 10_000);
        assert!(matches!(resp, PeerResp::Rejected(_)));
        assert_eq!(fx.peer.region_count(), 0);
    }

    #[test]
    fn realloc_requires_newer_epoch() {
        let fx = setup(1 << 20);
        assert!(matches!(alloc(&fx, "a", "wal", 2, 128), PeerResp::Mr(_)));
        assert!(matches!(
            alloc(&fx, "a", "wal", 2, 128),
            PeerResp::Rejected(_)
        ));
        assert!(matches!(
            alloc(&fx, "a", "wal", 1, 128),
            PeerResp::Rejected(_)
        ));
        assert!(matches!(alloc(&fx, "a", "wal", 3, 128), PeerResp::Mr(_)));
        assert_eq!(
            fx.peer.region_count(),
            1,
            "newer epoch superseded the region"
        );
    }

    #[test]
    fn free_recycles_into_pool_and_pool_is_reused() {
        let fx = setup(1 << 20);
        let PeerResp::Mr(mr1) = alloc(&fx, "a", "wal", 1, 4096) else {
            panic!()
        };
        free(&fx, "a", "wal", 1);
        assert_eq!(fx.peer.avail(), 1 << 20);
        // Same-size reallocation reuses the pooled region with a fresh rkey.
        let PeerResp::Mr(mr2) = alloc(&fx, "a", "wal2", 1, 4096) else {
            panic!()
        };
        assert_eq!(mr2.mr_id, mr1.mr_id, "pooled region reused");
        assert_ne!(mr2.rkey, mr1.rkey, "stale rkey revoked");
    }

    #[test]
    fn stale_free_is_rejected() {
        let fx = setup(1 << 20);
        alloc(&fx, "a", "wal", 5, 128);
        let resp = free(&fx, "a", "wal", 4);
        assert!(matches!(resp, PeerResp::Rejected(_)));
        assert_eq!(fx.peer.region_count(), 1);
    }

    #[test]
    fn recovery_lookup_found_and_rejected_after_crash() {
        let fx = setup(1 << 20);
        alloc(&fx, "a", "wal", 1, 128);
        let ep = fx.registry.lookup("p1").unwrap();
        let resp = ep
            .rpc
            .call(
                fx.app_node,
                PeerReq::RecoveryLookup {
                    app: "a".into(),
                    file: "wal".into(),
                },
            )
            .unwrap();
        assert!(matches!(resp, PeerResp::Mr(_)));
        // Crash + restart loses the mr-map: lookups must be rejected.
        fx.cluster.crash(fx.peer.node());
        fx.cluster.restart(fx.peer.node());
        let resp = ep
            .rpc
            .call(
                fx.app_node,
                PeerReq::RecoveryLookup {
                    app: "a".into(),
                    file: "wal".into(),
                },
            )
            .unwrap();
        assert!(matches!(resp, PeerResp::Rejected(_)));
        assert_eq!(fx.peer.avail(), 1 << 20, "memory recovered after restart");
        assert_eq!(fx.peer.mem_used(), 0, "ledger wiped after restart");
    }

    #[test]
    fn prepare_commit_switches_region_atomically() {
        let fx = setup(1 << 20);
        let PeerResp::Mr(old_mr) = alloc(&fx, "a", "wal", 1, 128) else {
            panic!()
        };
        // Write something into the old region via host access (stand-in for
        // RDMA writes from the app).
        {
            let st = fx.peer.state.lock();
            st.mr_map
                .get(&("a".into(), "wal".into()))
                .unwrap()
                .local
                .write_local(HEADER_SIZE, b"old!");
        }
        let ep = fx.registry.lookup("p1").unwrap();
        let PeerResp::Mr(new_mr) = ep
            .rpc
            .call(
                fx.app_node,
                PeerReq::Prepare {
                    app: "a".into(),
                    file: "wal".into(),
                    epoch: 2,
                    capacity: 128,
                    copy_current: true,
                },
            )
            .unwrap()
        else {
            panic!("prepare failed")
        };
        assert_ne!(new_mr.mr_id, old_mr.mr_id);
        // The staged copy carried the old contents.
        let resp = ep
            .rpc
            .call(
                fx.app_node,
                PeerReq::Commit {
                    app: "a".into(),
                    file: "wal".into(),
                    epoch: 2,
                },
            )
            .unwrap();
        assert!(matches!(resp, PeerResp::Ok));
        assert_eq!(
            fx.peer.inspect_region("a", "wal", HEADER_SIZE, 4).unwrap(),
            b"old!"
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
        alloc(&fx, "a", "wal", 1, 128);
        let ep = fx.registry.lookup("p1").unwrap();
        ep.rpc
            .call(
                fx.app_node,
                PeerReq::Prepare {
                    app: "a".into(),
                    file: "wal".into(),
                    epoch: 2,
                    capacity: 128,
                    copy_current: false,
                },
            )
            .unwrap();
        let resp = ep
            .rpc
            .call(
                fx.app_node,
                PeerReq::Commit {
                    app: "a".into(),
                    file: "wal".into(),
                    epoch: 3,
                },
            )
            .unwrap();
        assert!(matches!(resp, PeerResp::Rejected(_)));
        // Staging survives a mismatched commit and can be committed later.
        let resp = ep
            .rpc
            .call(
                fx.app_node,
                PeerReq::Commit {
                    app: "a".into(),
                    file: "wal".into(),
                    epoch: 2,
                },
            )
            .unwrap();
        assert!(matches!(resp, PeerResp::Ok));
    }

    #[test]
    fn revoke_frees_memory_and_invalidate_token() {
        let fx = setup(1 << 20);
        let PeerResp::Mr(mr) = alloc(&fx, "a", "wal", 1, 128) else {
            panic!()
        };
        assert!(fx.peer.revoke("a", "wal"));
        assert!(!fx.peer.revoke("a", "wal"), "second revoke is a no-op");
        assert_eq!(fx.peer.avail(), 1 << 20);
        let dev = &fx.registry.lookup("p1").unwrap().device;
        assert!(dev
            .apply_remote(mr.mr_id, mr.rkey, 0, Some(b"x"), 0)
            .is_err());
        // The controller heard about the revocation.
        let peers = fx
            .ctrl_client
            .get_peers(fx.app_node, "a", 0, 10, &[])
            .unwrap();
        assert_eq!(peers[0].revocations, 1);
    }

    #[test]
    fn gc_frees_superseded_epochs_and_non_membership() {
        let fx = setup(1 << 20);
        // Region allocated at epoch 1, but the app's ap-map moved to epoch 2
        // without this peer: e > e_r → reclaim.
        alloc(&fx, "a", "leaked", 1, 128);
        fx.ctrl_client
            .set_ap_entry(fx.app_node, "a", "leaked", vec!["p-other".into()], 2)
            .unwrap();
        // Region allocated at epoch 3 and the entry at epoch 3 includes us:
        // keep.
        alloc(&fx, "a", "live", 3, 128);
        fx.ctrl_client
            .set_ap_entry(fx.app_node, "a", "live", vec!["p1".into()], 3)
            .unwrap();
        // Region allocated at epoch 5; entry still at 3: allocation in
        // progress (e < e_r) → keep.
        alloc(&fx, "a", "inflight", 5, 128);
        fx.ctrl_client
            .set_ap_entry(fx.app_node, "a", "inflight", vec!["p1".into()], 3)
            .unwrap();
        // Same epoch but we are not a member → reclaim.
        alloc(&fx, "a", "evicted", 4, 128);
        fx.ctrl_client
            .set_ap_entry(fx.app_node, "a", "evicted", vec!["p9".into()], 4)
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
        alloc(&fx, "a", "wal", 1, 128);
        fx.ctrl_client
            .set_ap_entry(fx.app_node, "a", "wal", vec!["p1".into()], 1)
            .unwrap();
        // Simulate a peer-replacement: the app bumps the survivor's epoch
        // BEFORE writing the new ap-map entry.
        let ep = fx.registry.lookup("p1").unwrap();
        ep.rpc
            .call(
                fx.app_node,
                PeerReq::BumpEpoch {
                    app: "a".into(),
                    file: "wal".into(),
                    epoch: 2,
                },
            )
            .unwrap();
        fx.ctrl_client
            .set_ap_entry(
                fx.app_node,
                "a",
                "wal",
                vec!["p1".into(), "p-new".into()],
                2,
            )
            .unwrap();
        assert_eq!(fx.peer.gc_sweep(), 0, "survivor must not be reclaimed");
        assert!(fx.peer.inspect_region("a", "wal", 0, 1).is_some());
    }

    #[test]
    fn tenant_accounting_tracks_per_app_usage() {
        let fx = setup(1 << 20);
        alloc(&fx, "a", "wal1", 1, 4096);
        alloc(&fx, "a", "wal2", 1, 4096);
        alloc(&fx, "b", "wal", 1, 8192);
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
        free(&fx, "a", "wal1", 1);
        free(&fx, "a", "wal2", 1);
        free(&fx, "b", "wal", 1);
        assert_eq!(fx.peer.mem_used(), 0);
        assert_eq!(fx.peer.tenants().len(), 0);
        assert_eq!(fx.peer.pooled_regions(), 3);
    }

    #[test]
    fn free_is_idempotent_and_drops_replace_race_staging() {
        let fx = setup(1 << 20);
        alloc(&fx, "a", "wal", 1, 128);
        let ep = fx.registry.lookup("p1").unwrap();
        ep.rpc
            .call(
                fx.app_node,
                PeerReq::Prepare {
                    app: "a".into(),
                    file: "wal".into(),
                    epoch: 2,
                    capacity: 128,
                    copy_current: false,
                },
            )
            .unwrap();
        assert_eq!(fx.peer.staged_count(), 1);
        assert_eq!(fx.peer.mem_used(), 2 * (HEADER_SIZE + 128) as u64);
        // The app deletes the file while the catch-up has a region staged:
        // the free must release BOTH, or the staged slot leaks its charge.
        assert!(matches!(free(&fx, "a", "wal", 2), PeerResp::Ok));
        assert_eq!(fx.peer.mem_used(), 0, "staged charge released too");
        assert_eq!(fx.peer.staged_count(), 0);
        assert_eq!(fx.peer.region_count(), 0);
        assert_eq!(fx.peer.pooled_regions(), 2);
        // Repeating the free is a no-op, not a double credit.
        assert!(matches!(free(&fx, "a", "wal", 2), PeerResp::Ok));
        assert_eq!(fx.peer.mem_used(), 0);
        assert_eq!(fx.peer.pooled_regions(), 2);
    }

    #[test]
    fn alloc_under_pressure_evicts_coldest_region() {
        let region = HEADER_SIZE + 128;
        let fx = setup(2 * region as u64);
        alloc(&fx, "a", "wal1", 1, 128);
        alloc(&fx, "a", "wal2", 1, 128);
        // wal1's acked prefix is fully spilled (seq == spill_seq): coldest.
        // wal2 still holds 10 unspilled records: hotter.
        {
            let st = fx.peer.state.lock();
            let h1 = RegionHeader {
                seq: 10,
                spill_seq: 10,
                ..Default::default()
            };
            st.mr_map
                .get(&("a".into(), "wal1".into()))
                .unwrap()
                .local
                .write_local(0, &h1.encode());
            let h2 = RegionHeader {
                seq: 10,
                spill_seq: 0,
                ..Default::default()
            };
            st.mr_map
                .get(&("a".into(), "wal2".into()))
                .unwrap()
                .local
                .write_local(0, &h2.encode());
        }
        // The budget is full; the third allocation forces a voluntary
        // revocation and must pick the spilled (cold) region.
        assert!(matches!(alloc(&fx, "a", "wal3", 1, 128), PeerResp::Mr(_)));
        assert!(fx.peer.inspect_region("a", "wal1", 0, 1).is_none());
        assert!(fx.peer.inspect_region("a", "wal2", 0, 1).is_some());
        assert!(fx.peer.inspect_region("a", "wal3", 0, 1).is_some());
        let peers = fx
            .ctrl_client
            .get_peers(fx.app_node, "a", 0, 10, &[])
            .unwrap();
        assert_eq!(peers[0].revocations, 1);
    }

    #[test]
    fn lease_gc_reclaims_regions_of_dead_apps() {
        let mut config = NclConfig::zero();
        config.peer_lease = Duration::ZERO;
        let fx = setup_with(1 << 20, config);
        // "live" holds its instance lock from a live node: lease renewed.
        fx.ctrl_client
            .acquire_instance(fx.app_node, "live", fx.app_node)
            .unwrap();
        alloc(&fx, "live", "wal", 1, 128);
        // "dead" never held (or lost) its lock: confirmed dead → reclaim.
        alloc(&fx, "dead", "wal", 1, 128);
        let freed = fx.peer.gc_sweep();
        assert_eq!(freed, 1);
        assert!(fx.peer.inspect_region("live", "wal", 0, 1).is_some());
        assert!(fx.peer.inspect_region("dead", "wal", 0, 1).is_none());
        assert_eq!(fx.peer.tenant_usage("dead").regions, 0);
        // The lock holder crashes: the next sweep reclaims "live" too.
        fx.cluster.crash(fx.app_node);
        assert_eq!(fx.peer.gc_sweep(), 1);
        assert_eq!(fx.peer.mem_used(), 0);
    }

    #[test]
    fn mem_gauges_track_usage() {
        let mut config = NclConfig::zero();
        config.telemetry = Telemetry::new();
        let tel = config.telemetry.clone();
        let fx = setup_with(1 << 20, config);
        assert_eq!(tel.gauge_value("peer.mem.p1.total_bytes"), 1 << 20);
        assert_eq!(tel.gauge_value("peer.mem.total_bytes"), 1 << 20);
        alloc(&fx, "a", "wal", 1, 4096);
        let used = (HEADER_SIZE + 4096) as i64;
        assert_eq!(tel.gauge_value("peer.mem.p1.used_bytes"), used);
        assert_eq!(tel.gauge_value("peer.mem.used_bytes"), used);
        assert_eq!(tel.gauge_value("peer.mem.p1.regions"), 1);
        assert_eq!(tel.gauge_value("peer.mem.p1.tenants"), 1);
        free(&fx, "a", "wal", 1);
        assert_eq!(tel.gauge_value("peer.mem.p1.used_bytes"), 0);
        assert_eq!(tel.gauge_value("peer.mem.used_bytes"), 0);
        assert_eq!(tel.gauge_value("peer.mem.p1.tenants"), 0);
    }
}
