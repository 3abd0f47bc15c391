//! The NCL controller — peer registry, ap-map, and instance locks.
//!
//! The paper implements the controller on a fault-tolerant ZooKeeper
//! ensemble (§4.7): peers publish znodes under `/Peers` with their available
//! memory, applications keep their peer assignments (the *ap-map*) under
//! `/Apps` stamped with an epoch, and an ephemeral znode under `/Servers`
//! guarantees a single live instance per application. This module provides
//! the same semantics as an in-process service that the simulation treats as
//! always available:
//!
//! * peer availability figures are **hints** — the authoritative admission
//!   check happens on the peer (§4.3), which may reject;
//! * ap-map updates are conditional on a strictly increasing epoch, and the
//!   epoch high-water mark survives entry deletion so that the peers' leak
//!   GC (§4.5.1) remains monotonic;
//! * instance locks are "ephemeral": the lock is considered released when
//!   the holding node is crashed, mirroring ZooKeeper session expiry.

use std::collections::HashMap;

use sim::{Cluster, NodeId, RpcClient, RpcServer, SimError};
use telemetry::{spans, Telemetry};

use crate::NclError;

/// A peer as known to the controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerInfo {
    /// Unique peer name (derived from the machine identifier in the paper).
    pub name: String,
    /// Node the peer daemon runs on.
    pub node: NodeId,
    /// Available lendable memory in bytes — a hint, possibly stale.
    pub avail: u64,
    /// Live regions the peer reported with its last gauge update — the
    /// load figure placement spreads on.
    pub regions: u64,
    /// Regions this peer has voluntarily revoked under memory pressure
    /// since it registered (observability; reset on re-registration).
    pub revocations: u64,
}

/// One ap-map entry: the peers holding a file's regions plus the epoch the
/// entry was written under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApEntry {
    /// Names of the `2f + 1` assigned peers.
    pub peers: Vec<String>,
    /// Epoch stamped by the application when it wrote the entry.
    pub epoch: u64,
}

/// Controller requests.
#[derive(Debug, Clone)]
pub enum CtrlReq {
    /// A peer announces itself (or re-announces after a restart).
    RegisterPeer {
        /// Peer name.
        name: String,
        /// Peer node.
        node: NodeId,
        /// Lendable memory in bytes.
        avail: u64,
    },
    /// A peer updates its advertised memory gauges.
    UpdateAvail {
        /// Peer name.
        name: String,
        /// New absolute availability.
        avail: u64,
        /// Live regions held (the peer's load figure).
        regions: u64,
    },
    /// Ask for up to `count` peers with at least `need` available bytes,
    /// excluding the given names. Candidates are ranked by the placement
    /// policy: fewest regions already assigned to `app` (anti-affinity),
    /// then fewest regions overall (least-loaded), then most available
    /// memory, names breaking ties.
    GetPeers {
        /// Application asking — drives the anti-affinity term.
        app: String,
        /// Minimum available memory.
        need: u64,
        /// How many peers to return.
        count: usize,
        /// Peer names to skip (already assigned or known bad).
        exclude: Vec<String>,
    },
    /// A peer reports that it revoked a region under memory pressure
    /// (§4.5.2) — recorded so operators can see revocation storms in the
    /// control-plane trace and placement can observe pressured peers.
    ReportRevocation {
        /// The revoking peer.
        peer: String,
        /// Owning application.
        app: String,
        /// File whose region was revoked.
        file: String,
        /// Epoch the region was held at.
        epoch: u64,
    },
    /// Is the application's instance lock held by a live node? The peers'
    /// lease GC asks this before reclaiming an expired-lease region.
    AppLive {
        /// Application identifier.
        app: String,
    },
    /// Write an ap-map entry; succeeds only if `epoch` exceeds both the
    /// stored entry's epoch and the high-water mark.
    SetApEntry {
        /// Application identifier.
        app: String,
        /// File name.
        file: String,
        /// Assigned peers.
        peers: Vec<String>,
        /// New epoch.
        epoch: u64,
    },
    /// Read an ap-map entry.
    GetApEntry {
        /// Application identifier.
        app: String,
        /// File name.
        file: String,
    },
    /// Remove an ap-map entry (file deleted); the epoch high-water mark is
    /// retained.
    DeleteApEntry {
        /// Application identifier.
        app: String,
        /// File name.
        file: String,
    },
    /// List files that have ap-map entries for `app` (used at recovery).
    ListAppFiles {
        /// Application identifier.
        app: String,
    },
    /// The epoch high-water mark for `(app, file)` — what the peers' GC
    /// compares against.
    GetAppEpoch {
        /// Application identifier.
        app: String,
        /// File name.
        file: String,
    },
    /// Acquire the single-instance lock for `app` from `node`.
    AcquireInstance {
        /// Application identifier.
        app: String,
        /// Node attempting to become the instance.
        node: NodeId,
    },
    /// Release the instance lock (normal shutdown).
    ReleaseInstance {
        /// Application identifier.
        app: String,
        /// Node releasing.
        node: NodeId,
    },
}

/// Controller responses.
#[derive(Debug, Clone)]
pub enum CtrlResp {
    /// Success without payload.
    Ok,
    /// Matching peers for `GetPeers`.
    Peers(Vec<PeerInfo>),
    /// Entry (or `None`) for `GetApEntry`.
    Entry(Option<ApEntry>),
    /// File names for `ListAppFiles`.
    Files(Vec<String>),
    /// Epoch for `GetAppEpoch`.
    Epoch(u64),
    /// Liveness verdict for `AppLive`.
    Live(bool),
    /// Request refused (stale epoch, lock held, unknown peer, ...).
    Rejected(String),
}

struct CtrlState {
    peers: HashMap<String, PeerInfo>,
    entries: HashMap<(String, String), ApEntry>,
    /// Epoch high-water marks, surviving entry deletion.
    epochs: HashMap<(String, String), u64>,
    locks: HashMap<String, NodeId>,
    /// Where ap-map deletions and revocation reports are recorded as facts
    /// (an update is its caller's `*.ap_map` span).
    telemetry: Telemetry,
}

/// Handle to a running controller service.
pub struct Controller {
    server: RpcServer<CtrlReq, CtrlResp>,
    node: NodeId,
}

impl Controller {
    /// Starts the controller on a dedicated node of `cluster`.
    ///
    /// The node is registered by this call; the simulation does not crash it
    /// (the paper assumes a fault-tolerant ZooKeeper ensemble).
    pub fn start(cluster: &Cluster) -> Self {
        Self::start_with_telemetry(cluster, Telemetry::disabled())
    }

    /// Starts the controller with an explicit telemetry handle, so its
    /// facts land in the same span trace as the application's file and peer
    /// spans (pass the deployment's shared handle).
    pub fn start_with_telemetry(cluster: &Cluster, telemetry: Telemetry) -> Self {
        let node = cluster.add_node("ncl-controller");
        let cluster2 = cluster.clone();
        let mut st = CtrlState {
            peers: HashMap::new(),
            entries: HashMap::new(),
            epochs: HashMap::new(),
            locks: HashMap::new(),
            telemetry,
        };
        let server = RpcServer::new(cluster.clone(), node, move |req| {
            handle(&cluster2, &mut st, req)
        });
        Controller { server, node }
    }

    /// The controller's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Creates a typed client charging `latency` per direction.
    pub fn client(&self, latency: sim::LatencyModel) -> ControllerClient {
        ControllerClient {
            rpc: self.server.client(latency),
        }
    }
}

fn handle(cluster: &Cluster, st: &mut CtrlState, req: CtrlReq) -> CtrlResp {
    match req {
        CtrlReq::RegisterPeer { name, node, avail } => {
            st.peers.insert(
                name.clone(),
                PeerInfo {
                    name,
                    node,
                    avail,
                    regions: 0,
                    revocations: 0,
                },
            );
            CtrlResp::Ok
        }
        CtrlReq::UpdateAvail {
            name,
            avail,
            regions,
        } => match st.peers.get_mut(&name) {
            Some(p) => {
                p.avail = avail;
                p.regions = regions;
                CtrlResp::Ok
            }
            None => CtrlResp::Rejected(format!("unknown peer {name}")),
        },
        CtrlReq::GetPeers {
            app,
            need,
            count,
            exclude,
        } => {
            // Anti-affinity term: how many of this app's files already sit
            // on each candidate, straight off the ap-map.
            let mut app_load: HashMap<&str, u64> = HashMap::new();
            for ((a, _), entry) in &st.entries {
                if *a == app {
                    for p in &entry.peers {
                        *app_load.entry(p.as_str()).or_default() += 1;
                    }
                }
            }
            let mut matching: Vec<PeerInfo> = st
                .peers
                .values()
                .filter(|p| p.avail >= need && !exclude.contains(&p.name))
                .cloned()
                .collect();
            // Placement policy: spread the asking app across peers first,
            // then spread overall load, then prefer spare memory (ties
            // broken by name for determinism).
            matching.sort_by(|a, b| {
                let aff_a = app_load.get(a.name.as_str()).copied().unwrap_or(0);
                let aff_b = app_load.get(b.name.as_str()).copied().unwrap_or(0);
                aff_a
                    .cmp(&aff_b)
                    .then(a.regions.cmp(&b.regions))
                    .then(b.avail.cmp(&a.avail))
                    .then(a.name.cmp(&b.name))
            });
            matching.truncate(count);
            CtrlResp::Peers(matching)
        }
        CtrlReq::ReportRevocation {
            peer,
            app,
            file,
            epoch,
        } => {
            st.telemetry.fact(
                spans::REGION_REVOKE,
                &format!("{app}/{file}"),
                epoch,
                format!("revoked by {peer} under memory pressure"),
            );
            if let Some(p) = st.peers.get_mut(&peer) {
                p.revocations += 1;
            }
            CtrlResp::Ok
        }
        CtrlReq::AppLive { app } => {
            let live = st
                .locks
                .get(&app)
                .map(|&holder| cluster.is_alive(holder))
                .unwrap_or(false);
            CtrlResp::Live(live)
        }
        CtrlReq::SetApEntry {
            app,
            file,
            peers,
            epoch,
        } => {
            let key = (app, file);
            let hw = st.epochs.get(&key).copied().unwrap_or(0);
            if epoch <= hw {
                return CtrlResp::Rejected(format!("stale epoch {epoch} (high-water {hw})"));
            }
            st.epochs.insert(key.clone(), epoch);
            st.entries.insert(key, ApEntry { peers, epoch });
            CtrlResp::Ok
        }
        CtrlReq::GetApEntry { app, file } => CtrlResp::Entry(st.entries.get(&(app, file)).cloned()),
        CtrlReq::DeleteApEntry { app, file } => {
            if let Some(old) = st.entries.remove(&(app.clone(), file.clone())) {
                st.telemetry.fact(
                    spans::AP_MAP_DELETE,
                    &format!("{app}/{file}"),
                    old.epoch,
                    "entry removed (epoch high-water retained)",
                );
            }
            CtrlResp::Ok
        }
        CtrlReq::ListAppFiles { app } => {
            let mut files: Vec<String> = st
                .entries
                .keys()
                .filter(|(a, _)| *a == app)
                .map(|(_, f)| f.clone())
                .collect();
            files.sort();
            CtrlResp::Files(files)
        }
        CtrlReq::GetAppEpoch { app, file } => {
            CtrlResp::Epoch(st.epochs.get(&(app, file)).copied().unwrap_or(0))
        }
        CtrlReq::AcquireInstance { app, node } => {
            match st.locks.get(&app) {
                Some(&holder) if holder != node && cluster.is_alive(holder) => {
                    CtrlResp::Rejected(format!("instance lock held by {holder}"))
                }
                _ => {
                    // Free, re-acquired by the same node, or the holder's
                    // "session" expired with its crash.
                    st.locks.insert(app, node);
                    CtrlResp::Ok
                }
            }
        }
        CtrlReq::ReleaseInstance { app, node } => {
            if st.locks.get(&app) == Some(&node) {
                st.locks.remove(&app);
            }
            CtrlResp::Ok
        }
    }
}

/// Typed client wrapper over the controller RPC.
#[derive(Clone)]
pub struct ControllerClient {
    rpc: RpcClient<CtrlReq, CtrlResp>,
}

impl ControllerClient {
    fn call(&self, from: NodeId, req: CtrlReq) -> Result<CtrlResp, NclError> {
        self.rpc
            .call(from, req)
            .map_err(|e: SimError| NclError::Unavailable(e.to_string()))
    }

    /// Registers (or re-registers) a peer.
    pub fn register_peer(
        &self,
        from: NodeId,
        name: &str,
        node: NodeId,
        avail: u64,
    ) -> Result<(), NclError> {
        match self.call(
            from,
            CtrlReq::RegisterPeer {
                name: name.to_string(),
                node,
                avail,
            },
        )? {
            CtrlResp::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Updates a peer's advertised memory gauges (availability and live
    /// region count).
    pub fn update_avail(
        &self,
        from: NodeId,
        name: &str,
        avail: u64,
        regions: u64,
    ) -> Result<(), NclError> {
        match self.call(
            from,
            CtrlReq::UpdateAvail {
                name: name.to_string(),
                avail,
                regions,
            },
        )? {
            CtrlResp::Ok => Ok(()),
            CtrlResp::Rejected(m) => Err(NclError::Rejected(m)),
            other => Err(unexpected(other)),
        }
    }

    /// Asks for candidate peers for a file of `app` (placement-ranked).
    pub fn get_peers(
        &self,
        from: NodeId,
        app: &str,
        need: u64,
        count: usize,
        exclude: &[String],
    ) -> Result<Vec<PeerInfo>, NclError> {
        match self.call(
            from,
            CtrlReq::GetPeers {
                app: app.to_string(),
                need,
                count,
                exclude: exclude.to_vec(),
            },
        )? {
            CtrlResp::Peers(p) => Ok(p),
            other => Err(unexpected(other)),
        }
    }

    /// Reports a voluntary region revocation (peer → controller).
    pub fn report_revocation(
        &self,
        from: NodeId,
        peer: &str,
        app: &str,
        file: &str,
        epoch: u64,
    ) -> Result<(), NclError> {
        match self.call(
            from,
            CtrlReq::ReportRevocation {
                peer: peer.to_string(),
                app: app.to_string(),
                file: file.to_string(),
                epoch,
            },
        )? {
            CtrlResp::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Whether `app`'s instance lock is held by a live node.
    pub fn app_live(&self, from: NodeId, app: &str) -> Result<bool, NclError> {
        match self.call(
            from,
            CtrlReq::AppLive {
                app: app.to_string(),
            },
        )? {
            CtrlResp::Live(l) => Ok(l),
            other => Err(unexpected(other)),
        }
    }

    /// Writes an ap-map entry (conditional on a fresh epoch).
    pub fn set_ap_entry(
        &self,
        from: NodeId,
        app: &str,
        file: &str,
        peers: Vec<String>,
        epoch: u64,
    ) -> Result<(), NclError> {
        match self.call(
            from,
            CtrlReq::SetApEntry {
                app: app.to_string(),
                file: file.to_string(),
                peers,
                epoch,
            },
        )? {
            CtrlResp::Ok => Ok(()),
            CtrlResp::Rejected(m) => Err(NclError::Rejected(m)),
            other => Err(unexpected(other)),
        }
    }

    /// Reads an ap-map entry.
    pub fn get_ap_entry(
        &self,
        from: NodeId,
        app: &str,
        file: &str,
    ) -> Result<Option<ApEntry>, NclError> {
        match self.call(
            from,
            CtrlReq::GetApEntry {
                app: app.to_string(),
                file: file.to_string(),
            },
        )? {
            CtrlResp::Entry(e) => Ok(e),
            other => Err(unexpected(other)),
        }
    }

    /// Removes an ap-map entry.
    pub fn delete_ap_entry(&self, from: NodeId, app: &str, file: &str) -> Result<(), NclError> {
        match self.call(
            from,
            CtrlReq::DeleteApEntry {
                app: app.to_string(),
                file: file.to_string(),
            },
        )? {
            CtrlResp::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Lists the ncl files recorded for an application.
    pub fn list_app_files(&self, from: NodeId, app: &str) -> Result<Vec<String>, NclError> {
        match self.call(
            from,
            CtrlReq::ListAppFiles {
                app: app.to_string(),
            },
        )? {
            CtrlResp::Files(f) => Ok(f),
            other => Err(unexpected(other)),
        }
    }

    /// Reads the epoch high-water mark for `(app, file)`.
    pub fn get_app_epoch(&self, from: NodeId, app: &str, file: &str) -> Result<u64, NclError> {
        match self.call(
            from,
            CtrlReq::GetAppEpoch {
                app: app.to_string(),
                file: file.to_string(),
            },
        )? {
            CtrlResp::Epoch(e) => Ok(e),
            other => Err(unexpected(other)),
        }
    }

    /// Acquires the single-instance lock for `app` on behalf of `node`.
    pub fn acquire_instance(&self, from: NodeId, app: &str, node: NodeId) -> Result<(), NclError> {
        match self.call(
            from,
            CtrlReq::AcquireInstance {
                app: app.to_string(),
                node,
            },
        )? {
            CtrlResp::Ok => Ok(()),
            CtrlResp::Rejected(m) => Err(NclError::InstanceConflict(m)),
            other => Err(unexpected(other)),
        }
    }

    /// Releases the single-instance lock.
    pub fn release_instance(&self, from: NodeId, app: &str, node: NodeId) -> Result<(), NclError> {
        match self.call(
            from,
            CtrlReq::ReleaseInstance {
                app: app.to_string(),
                node,
            },
        )? {
            CtrlResp::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(resp: CtrlResp) -> NclError {
    NclError::Unavailable(format!("unexpected controller reply {resp:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::LatencyModel;

    fn setup() -> (Cluster, Controller, ControllerClient, NodeId) {
        let cluster = Cluster::new();
        let ctrl = Controller::start(&cluster);
        let cli = ctrl.client(LatencyModel::ZERO);
        let app_node = cluster.add_node("app");
        (cluster, ctrl, cli, app_node)
    }

    #[test]
    fn peer_registration_and_selection_by_avail() {
        let (cluster, _ctrl, cli, me) = setup();
        for (name, mem) in [("p1", 1 << 30), ("p2", 2 << 30), ("p3", 512 << 20)] {
            let node = cluster.add_node(name);
            cli.register_peer(me, name, node, mem).unwrap();
        }
        let peers = cli.get_peers(me, "a", 1 << 30, 3, &[]).unwrap();
        assert_eq!(peers.len(), 2, "p3 lacks memory");
        assert_eq!(peers[0].name, "p2", "equal load: largest first");
        let peers = cli.get_peers(me, "a", 0, 10, &["p2".into()]).unwrap();
        assert_eq!(peers.len(), 2);
        assert!(peers.iter().all(|p| p.name != "p2"));
    }

    #[test]
    fn update_avail_reflected_in_selection() {
        let (cluster, _ctrl, cli, me) = setup();
        let node = cluster.add_node("p1");
        cli.register_peer(me, "p1", node, 100).unwrap();
        cli.update_avail(me, "p1", 10, 1).unwrap();
        assert!(cli.get_peers(me, "a", 50, 1, &[]).unwrap().is_empty());
        let found = cli.get_peers(me, "a", 10, 1, &[]).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].regions, 1, "region gauge round-trips");
    }

    #[test]
    fn update_avail_unknown_peer_rejected() {
        let (_cluster, _ctrl, cli, me) = setup();
        assert!(matches!(
            cli.update_avail(me, "ghost", 1, 0),
            Err(NclError::Rejected(_))
        ));
    }

    #[test]
    fn placement_prefers_least_loaded_peer() {
        let (cluster, _ctrl, cli, me) = setup();
        // p-big has more spare memory but carries more regions; placement
        // must pick the lighter peer first.
        for (name, mem, regions) in [("p-big", 4 << 30, 40), ("p-light", 1 << 30, 2)] {
            let node = cluster.add_node(name);
            cli.register_peer(me, name, node, mem).unwrap();
            cli.update_avail(me, name, mem, regions).unwrap();
        }
        let peers = cli.get_peers(me, "a", 0, 2, &[]).unwrap();
        assert_eq!(peers[0].name, "p-light", "least-loaded first");
        assert_eq!(peers[1].name, "p-big");
    }

    #[test]
    fn placement_anti_affinity_spreads_an_apps_files() {
        let (cluster, _ctrl, cli, me) = setup();
        for name in ["p1", "p2", "p3"] {
            let node = cluster.add_node(name);
            cli.register_peer(me, name, node, 1 << 30).unwrap();
        }
        // App "a" already has two files on p1 (and one each on p2/p3):
        // its next file must not land on p1 first, even though every peer
        // reports identical avail and regions.
        cli.set_ap_entry(me, "a", "wal1", vec!["p1".into(), "p2".into()], 1)
            .unwrap();
        cli.set_ap_entry(me, "a", "wal2", vec!["p1".into(), "p3".into()], 1)
            .unwrap();
        let peers = cli.get_peers(me, "a", 0, 3, &[]).unwrap();
        assert_eq!(peers[2].name, "p1", "app-loaded peer ranked last");
        // A different app sees no affinity penalty: pure name tie-break.
        let peers = cli.get_peers(me, "b", 0, 3, &[]).unwrap();
        assert_eq!(peers[0].name, "p1");
    }

    #[test]
    fn app_live_follows_instance_lock_and_holder_liveness() {
        let (cluster, _ctrl, cli, me) = setup();
        assert!(!cli.app_live(me, "db").unwrap(), "no lock: dead");
        let holder = cluster.add_node("db-server");
        cli.acquire_instance(holder, "db", holder).unwrap();
        assert!(cli.app_live(me, "db").unwrap());
        cluster.crash(holder);
        assert!(!cli.app_live(me, "db").unwrap(), "holder crashed: dead");
    }

    #[test]
    fn revocation_reports_are_counted_per_peer() {
        let (cluster, _ctrl, cli, me) = setup();
        let node = cluster.add_node("p1");
        cli.register_peer(me, "p1", node, 1 << 30).unwrap();
        cli.report_revocation(me, "p1", "a", "wal", 3).unwrap();
        cli.report_revocation(me, "p1", "a", "wal2", 3).unwrap();
        let peers = cli.get_peers(me, "a", 0, 1, &[]).unwrap();
        assert_eq!(peers[0].revocations, 2);
    }

    #[test]
    fn ap_entry_epoch_cas() {
        let (_cluster, _ctrl, cli, me) = setup();
        cli.set_ap_entry(me, "app", "wal", vec!["p1".into()], 1)
            .unwrap();
        // Same epoch rejected.
        assert!(matches!(
            cli.set_ap_entry(me, "app", "wal", vec!["p2".into()], 1),
            Err(NclError::Rejected(_))
        ));
        // Lower epoch rejected.
        assert!(matches!(
            cli.set_ap_entry(me, "app", "wal", vec!["p2".into()], 0),
            Err(NclError::Rejected(_))
        ));
        // Higher accepted.
        cli.set_ap_entry(me, "app", "wal", vec!["p2".into()], 2)
            .unwrap();
        let e = cli.get_ap_entry(me, "app", "wal").unwrap().unwrap();
        assert_eq!(e.epoch, 2);
        assert_eq!(e.peers, vec!["p2".to_string()]);
    }

    #[test]
    fn epoch_high_water_survives_delete() {
        let (_cluster, _ctrl, cli, me) = setup();
        cli.set_ap_entry(me, "app", "wal", vec!["p1".into()], 5)
            .unwrap();
        cli.delete_ap_entry(me, "app", "wal").unwrap();
        assert_eq!(cli.get_ap_entry(me, "app", "wal").unwrap(), None);
        assert_eq!(cli.get_app_epoch(me, "app", "wal").unwrap(), 5);
        // Recreation must move past the high-water mark.
        assert!(cli
            .set_ap_entry(me, "app", "wal", vec!["p1".into()], 5)
            .is_err());
        cli.set_ap_entry(me, "app", "wal", vec!["p1".into()], 6)
            .unwrap();
    }

    #[test]
    fn list_app_files_is_scoped_and_sorted() {
        let (_cluster, _ctrl, cli, me) = setup();
        cli.set_ap_entry(me, "a", "wal2", vec![], 1).unwrap();
        cli.set_ap_entry(me, "a", "wal1", vec![], 1).unwrap();
        cli.set_ap_entry(me, "b", "other", vec![], 1).unwrap();
        assert_eq!(cli.list_app_files(me, "a").unwrap(), vec!["wal1", "wal2"]);
    }

    #[test]
    fn instance_lock_blocks_second_live_instance() {
        let (cluster, _ctrl, cli, me) = setup();
        let other = cluster.add_node("other-server");
        cli.acquire_instance(me, "db", me).unwrap();
        // Re-acquire by the same node is fine (idempotent restart path).
        cli.acquire_instance(me, "db", me).unwrap();
        assert!(matches!(
            cli.acquire_instance(other, "db", other),
            Err(NclError::InstanceConflict(_))
        ));
    }

    #[test]
    fn instance_lock_released_by_holder_crash() {
        let (cluster, _ctrl, cli, me) = setup();
        let other = cluster.add_node("other-server");
        cli.acquire_instance(me, "db", me).unwrap();
        cluster.crash(me);
        // The ephemeral lock expires with the holder's "session".
        cli.acquire_instance(other, "db", other).unwrap();
    }

    #[test]
    fn instance_lock_explicit_release() {
        let (cluster, _ctrl, cli, me) = setup();
        let other = cluster.add_node("other");
        cli.acquire_instance(me, "db", me).unwrap();
        cli.release_instance(me, "db", me).unwrap();
        cli.acquire_instance(other, "db", other).unwrap();
        // Release by a non-holder is a no-op.
        cli.release_instance(me, "db", me).unwrap();
        assert!(matches!(
            cli.acquire_instance(me, "db", me),
            Err(NclError::InstanceConflict(_))
        ));
    }
}
