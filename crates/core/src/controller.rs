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
//!
//! A call is a method of [`ControllerState`] run through `sim::rpc`:
//! `client.call(from, |c, _| c.get_app_epoch(app, file))`.

use std::collections::HashMap;

use sim::{Cluster, NodeId, RpcClient, RpcServer};
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

/// The controller's state; every call is one of its methods.
pub struct ControllerState {
    /// Where instance-lock holders' liveness is read (their "sessions").
    cluster: Cluster,
    peers: HashMap<String, PeerInfo>,
    entries: HashMap<Key, ApEntry>,
    /// Epoch high-water marks, surviving entry deletion.
    epochs: HashMap<Key, u64>,
    locks: HashMap<String, NodeId>,
    /// Where ap-map deletions and revocation reports are recorded as facts
    /// (an update is its caller's `*.ap_map` span).
    telemetry: Telemetry,
}

/// A file's `(app, file)`.
type Key = (String, String);

fn key(app: &str, file: &str) -> Key {
    (app.to_string(), file.to_string())
}

/// A client of the controller: `call` runs a [`ControllerState`] method.
pub type ControllerClient = RpcClient<ControllerState>;

/// Handle to a running controller service.
pub struct Controller {
    server: RpcServer<ControllerState>,
}

impl Controller {
    /// Starts the controller on a dedicated node of `cluster`, recording
    /// its facts into `telemetry` (the deployment's shared handle, so they
    /// land in the same span trace as the application's file and peer
    /// spans; [`Telemetry::disabled`] records nothing).
    ///
    /// The node is registered by this call; the simulation does not crash it
    /// (the paper assumes a fault-tolerant ZooKeeper ensemble).
    pub fn start(cluster: &Cluster, telemetry: Telemetry) -> Self {
        let node = cluster.add_node("ncl-controller");
        let state = ControllerState {
            cluster: cluster.clone(),
            peers: HashMap::new(),
            entries: HashMap::new(),
            epochs: HashMap::new(),
            locks: HashMap::new(),
            telemetry,
        };
        let server = RpcServer::new(cluster.clone(), node, state);
        Controller { server }
    }

    /// The controller's node id.
    pub fn node(&self) -> NodeId {
        self.server.node()
    }

    /// Creates a client charging `latency` per direction.
    pub fn client(&self, latency: sim::LatencyModel) -> ControllerClient {
        self.server.client(latency)
    }
}

impl ControllerState {
    /// A peer announces itself (or re-announces after a restart).
    pub fn register_peer(&mut self, name: &str, node: NodeId, avail: u64) {
        let info = PeerInfo {
            name: name.to_string(),
            node,
            avail,
            regions: 0,
            revocations: 0,
        };
        self.peers.insert(name.to_string(), info);
    }

    /// A peer updates its advertised memory gauges: availability and live
    /// regions held (its load figure).
    pub fn update_avail(&mut self, name: &str, avail: u64, regions: u64) -> Result<(), NclError> {
        let p = (self.peers.get_mut(name))
            .ok_or_else(|| NclError::Rejected(format!("unknown peer {name}")))?;
        (p.avail, p.regions) = (avail, regions);
        Ok(())
    }

    /// Up to `count` peers with at least `need` available bytes, not in
    /// `exclude`, ranked by the placement policy: fewest regions already
    /// assigned to `app` (anti-affinity), then fewest regions overall
    /// (least-loaded), then most available memory, names breaking ties.
    pub fn get_peers(
        &self,
        app: &str,
        need: u64,
        count: usize,
        exclude: &[String],
    ) -> Vec<PeerInfo> {
        // Anti-affinity term: how many of this app's files already sit on
        // each candidate, straight off the ap-map.
        let mut app_load: HashMap<&str, u64> = HashMap::new();
        for ((a, _), entry) in &self.entries {
            if a == app {
                for p in &entry.peers {
                    *app_load.entry(p.as_str()).or_default() += 1;
                }
            }
        }
        let mut matching: Vec<PeerInfo> = (self.peers.values())
            .filter(|p| p.avail >= need && !exclude.contains(&p.name))
            .cloned()
            .collect();
        let affinity = |p: &PeerInfo| app_load.get(p.name.as_str()).copied().unwrap_or(0);
        matching.sort_by(|a, b| {
            (affinity(a).cmp(&affinity(b)))
                .then(a.regions.cmp(&b.regions))
                .then(b.avail.cmp(&a.avail))
                .then(a.name.cmp(&b.name))
        });
        matching.truncate(count);
        matching
    }

    /// A peer reports that it revoked `app`'s region for `file`, held at
    /// `epoch`, under memory pressure (§4.5.2) — recorded so operators can
    /// see revocation storms in the control-plane trace and placement can
    /// observe pressured peers.
    pub fn report_revocation(&mut self, peer: &str, app: &str, file: &str, epoch: u64) {
        self.telemetry.fact(
            spans::REGION_REVOKE,
            &format!("{app}/{file}"),
            epoch,
            format!("revoked by {peer} under memory pressure"),
        );
        if let Some(p) = self.peers.get_mut(peer) {
            p.revocations += 1;
        }
    }

    /// Whether `app`'s instance lock is held by a live node. The peers'
    /// lease GC asks this before reclaiming an expired-lease region.
    pub fn app_live(&self, app: &str) -> bool {
        (self.locks.get(app)).is_some_and(|&holder| self.cluster.is_alive(holder))
    }

    /// Writes an ap-map entry; succeeds only if `epoch` exceeds both the
    /// stored entry's epoch and the high-water mark.
    pub fn set_ap_entry(
        &mut self,
        app: &str,
        file: &str,
        peers: Vec<String>,
        epoch: u64,
    ) -> Result<(), NclError> {
        let key = key(app, file);
        let hw = self.epochs.get(&key).copied().unwrap_or(0);
        if epoch <= hw {
            let why = format!("stale epoch {epoch} (high-water {hw})");
            return Err(NclError::Rejected(why));
        }
        self.epochs.insert(key.clone(), epoch);
        self.entries.insert(key, ApEntry { peers, epoch });
        Ok(())
    }

    /// Reads an ap-map entry.
    pub fn get_ap_entry(&self, app: &str, file: &str) -> Option<ApEntry> {
        self.entries.get(&key(app, file)).cloned()
    }

    /// Removes an ap-map entry (file deleted); the epoch high-water mark is
    /// retained.
    pub fn delete_ap_entry(&mut self, app: &str, file: &str) {
        if let Some(old) = self.entries.remove(&key(app, file)) {
            self.telemetry.fact(
                spans::AP_MAP_DELETE,
                &format!("{app}/{file}"),
                old.epoch,
                "entry removed (epoch high-water retained)",
            );
        }
    }

    /// The files that have ap-map entries for `app`, sorted (used at
    /// recovery).
    pub fn list_app_files(&self, app: &str) -> Vec<String> {
        let mut files: Vec<String> = (self.entries.keys())
            .filter(|(a, _)| a == app)
            .map(|(_, f)| f.clone())
            .collect();
        files.sort();
        files
    }

    /// The epoch high-water mark for `(app, file)` — what the peers' GC
    /// compares against.
    pub fn get_app_epoch(&self, app: &str, file: &str) -> u64 {
        self.epochs.get(&key(app, file)).copied().unwrap_or(0)
    }

    /// Acquires the single-instance lock for `app` on behalf of `node`.
    pub fn acquire_instance(&mut self, app: &str, node: NodeId) -> Result<(), NclError> {
        match self.locks.get(app) {
            Some(&holder) if holder != node && self.cluster.is_alive(holder) => Err(
                NclError::InstanceConflict(format!("instance lock held by {holder}")),
            ),
            _ => {
                // Free, re-acquired by the same node, or the holder's
                // "session" expired with its crash.
                self.locks.insert(app.to_string(), node);
                Ok(())
            }
        }
    }

    /// Releases the instance lock (normal shutdown); a non-holder's
    /// release is a no-op.
    pub fn release_instance(&mut self, app: &str, node: NodeId) {
        if self.locks.get(app) == Some(&node) {
            self.locks.remove(app);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::LatencyModel;

    /// A controller and a caller on `me` that runs one method over RPC.
    struct Fixture {
        cluster: Cluster,
        _ctrl: Controller,
        cli: ControllerClient,
        me: NodeId,
    }

    impl Fixture {
        fn on<T>(&self, op: impl FnOnce(&mut ControllerState) -> T) -> T {
            self.cli.call(self.me, |c, _| op(c)).unwrap()
        }
    }

    fn setup() -> Fixture {
        let cluster = Cluster::new();
        let ctrl = Controller::start(&cluster, Telemetry::disabled());
        let cli = ctrl.client(LatencyModel::ZERO);
        let me = cluster.add_node("app");
        Fixture {
            cluster,
            _ctrl: ctrl,
            cli,
            me,
        }
    }

    #[test]
    fn peer_registration_and_selection_by_avail() {
        let fx = setup();
        for (name, mem) in [("p1", 1 << 30), ("p2", 2 << 30), ("p3", 512 << 20)] {
            let node = fx.cluster.add_node(name);
            fx.on(|c| c.register_peer(name, node, mem));
        }
        let peers = fx.on(|c| c.get_peers("a", 1 << 30, 3, &[]));
        assert_eq!(peers.len(), 2, "p3 lacks memory");
        assert_eq!(peers[0].name, "p2", "equal load: largest first");
        let peers = fx.on(|c| c.get_peers("a", 0, 10, &["p2".into()]));
        assert_eq!(peers.len(), 2);
        assert!(peers.iter().all(|p| p.name != "p2"));
    }

    #[test]
    fn update_avail_reflected_in_selection() {
        let fx = setup();
        let node = fx.cluster.add_node("p1");
        fx.on(|c| c.register_peer("p1", node, 100));
        fx.on(|c| c.update_avail("p1", 10, 1)).unwrap();
        assert!(fx.on(|c| c.get_peers("a", 50, 1, &[])).is_empty());
        let found = fx.on(|c| c.get_peers("a", 10, 1, &[]));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].regions, 1, "region gauge round-trips");
    }

    #[test]
    fn update_avail_unknown_peer_rejected() {
        let fx = setup();
        assert!(matches!(
            fx.on(|c| c.update_avail("ghost", 1, 0)),
            Err(NclError::Rejected(_))
        ));
    }

    #[test]
    fn placement_prefers_least_loaded_peer() {
        let fx = setup();
        // p-big has more spare memory but carries more regions; placement
        // must pick the lighter peer first.
        for (name, mem, regions) in [("p-big", 4 << 30, 40), ("p-light", 1 << 30, 2)] {
            let node = fx.cluster.add_node(name);
            fx.on(|c| c.register_peer(name, node, mem));
            fx.on(|c| c.update_avail(name, mem, regions)).unwrap();
        }
        let peers = fx.on(|c| c.get_peers("a", 0, 2, &[]));
        assert_eq!(peers[0].name, "p-light", "least-loaded first");
        assert_eq!(peers[1].name, "p-big");
    }

    #[test]
    fn placement_anti_affinity_spreads_an_apps_files() {
        let fx = setup();
        for name in ["p1", "p2", "p3"] {
            let node = fx.cluster.add_node(name);
            fx.on(|c| c.register_peer(name, node, 1 << 30));
        }
        // App "a" already has two files on p1 (and one each on p2/p3):
        // its next file must not land on p1 first, even though every peer
        // reports identical avail and regions.
        fx.on(|c| c.set_ap_entry("a", "wal1", vec!["p1".into(), "p2".into()], 1))
            .unwrap();
        fx.on(|c| c.set_ap_entry("a", "wal2", vec!["p1".into(), "p3".into()], 1))
            .unwrap();
        let peers = fx.on(|c| c.get_peers("a", 0, 3, &[]));
        assert_eq!(peers[2].name, "p1", "app-loaded peer ranked last");
        // A different app sees no affinity penalty: pure name tie-break.
        let peers = fx.on(|c| c.get_peers("b", 0, 3, &[]));
        assert_eq!(peers[0].name, "p1");
    }

    #[test]
    fn app_live_follows_instance_lock_and_holder_liveness() {
        let fx = setup();
        assert!(!fx.on(|c| c.app_live("db")), "no lock: dead");
        let holder = fx.cluster.add_node("db-server");
        fx.on(|c| c.acquire_instance("db", holder)).unwrap();
        assert!(fx.on(|c| c.app_live("db")));
        fx.cluster.crash(holder);
        assert!(!fx.on(|c| c.app_live("db")), "holder crashed: dead");
    }

    #[test]
    fn revocation_reports_are_counted_per_peer() {
        let fx = setup();
        let node = fx.cluster.add_node("p1");
        fx.on(|c| c.register_peer("p1", node, 1 << 30));
        fx.on(|c| c.report_revocation("p1", "a", "wal", 3));
        fx.on(|c| c.report_revocation("p1", "a", "wal2", 3));
        let peers = fx.on(|c| c.get_peers("a", 0, 1, &[]));
        assert_eq!(peers[0].revocations, 2);
    }

    #[test]
    fn ap_entry_epoch_cas() {
        let fx = setup();
        let set =
            |peer: &str, epoch| fx.on(|c| c.set_ap_entry("app", "wal", vec![peer.into()], epoch));
        set("p1", 1).unwrap();
        // Same epoch rejected.
        assert!(matches!(set("p2", 1), Err(NclError::Rejected(_))));
        // Lower epoch rejected.
        assert!(matches!(set("p2", 0), Err(NclError::Rejected(_))));
        // Higher accepted.
        set("p2", 2).unwrap();
        let e = fx.on(|c| c.get_ap_entry("app", "wal")).unwrap();
        assert_eq!(e.epoch, 2);
        assert_eq!(e.peers, vec!["p2".to_string()]);
    }

    #[test]
    fn epoch_high_water_survives_delete() {
        let fx = setup();
        let set = |epoch| fx.on(|c| c.set_ap_entry("app", "wal", vec!["p1".into()], epoch));
        set(5).unwrap();
        fx.on(|c| c.delete_ap_entry("app", "wal"));
        assert_eq!(fx.on(|c| c.get_ap_entry("app", "wal")), None);
        assert_eq!(fx.on(|c| c.get_app_epoch("app", "wal")), 5);
        // Recreation must move past the high-water mark.
        assert!(set(5).is_err());
        set(6).unwrap();
    }

    #[test]
    fn list_app_files_is_scoped_and_sorted() {
        let fx = setup();
        for (app, file) in [("a", "wal2"), ("a", "wal1"), ("b", "other")] {
            fx.on(|c| c.set_ap_entry(app, file, vec![], 1)).unwrap();
        }
        assert_eq!(fx.on(|c| c.list_app_files("a")), vec!["wal1", "wal2"]);
    }

    #[test]
    fn instance_lock_blocks_second_live_instance() {
        let fx = setup();
        let (me, other) = (fx.me, fx.cluster.add_node("other-server"));
        fx.on(|c| c.acquire_instance("db", me)).unwrap();
        // Re-acquire by the same node is fine (idempotent restart path).
        fx.on(|c| c.acquire_instance("db", me)).unwrap();
        assert!(matches!(
            fx.on(|c| c.acquire_instance("db", other)),
            Err(NclError::InstanceConflict(_))
        ));
    }

    #[test]
    fn instance_lock_released_by_holder_crash() {
        let fx = setup();
        let holder = fx.cluster.add_node("db-server");
        fx.on(|c| c.acquire_instance("db", holder)).unwrap();
        fx.cluster.crash(holder);
        // The ephemeral lock expires with the holder's "session".
        fx.on(|c| c.acquire_instance("db", fx.me)).unwrap();
    }

    #[test]
    fn instance_lock_explicit_release() {
        let fx = setup();
        let (me, other) = (fx.me, fx.cluster.add_node("other"));
        fx.on(|c| c.acquire_instance("db", me)).unwrap();
        fx.on(|c| c.release_instance("db", me));
        fx.on(|c| c.acquire_instance("db", other)).unwrap();
        // Release by a non-holder is a no-op.
        fx.on(|c| c.release_instance("db", me));
        assert!(matches!(
            fx.on(|c| c.acquire_instance("db", me)),
            Err(NclError::InstanceConflict(_))
        ));
    }
}
