//! A full simulated deployment in one value — the "CloudLab cluster" of the
//! paper's evaluation (§5): a DFS cluster, the NCL controller, a pool of log
//! peers, and as many application servers as you mount.
//!
//! Used by integration tests, the YCSB harness, the benchmark binaries and
//! the examples; exposed here (rather than in a test-only crate) because a
//! downstream user wanting to try SplitFT needs exactly this wiring.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use dfs::{DfsCluster, DfsConfig};
use ncl::{Controller, NclConfig, NclLib, NclRegistry, Peer};
use parking_lot::Mutex;
use sim::{Cluster, NodeId};
use telemetry::export::http::ScrapeServer;
use telemetry::{FlightRecorder, Health, OnlineMonitor};

use crate::{Mode, SplitFs};

/// Parameters for [`Testbed::start`].
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// DFS latency/striping configuration.
    pub dfs: DfsConfig,
    /// NCL latency/failure-budget configuration.
    pub ncl: NclConfig,
    /// Number of log peers to start.
    pub peers: usize,
    /// Memory each peer lends, in bytes.
    pub peer_mem: u64,
    /// When set, every peer schedules its GC at this interval
    /// ([`ncl::Peer::schedule_gc`]: pressure-signal draining, epoch leak
    /// GC, lease expiry, run by the next control-plane call once due).
    /// `None` (or zero) leaves GC caller-driven via [`ncl::Peer::gc_sweep`].
    pub peer_gc_interval: Option<Duration>,
    /// Weak mode's writeback interval: a weak mount's first write or
    /// `fsync` past it posts a writeback of its dirty data.
    pub weak_flush_interval: Duration,
    /// When set, serve the shared telemetry handle over HTTP at this
    /// address (`/metrics` Prometheus text, `/snapshot` JSON, `/trace`
    /// Chrome trace, `/health` verdict). Use `"127.0.0.1:0"` to let the OS
    /// pick a port.
    pub scrape_addr: Option<String>,
    /// When true, attach a streaming [`telemetry::OnlineMonitor`] to the
    /// shared telemetry handle, for the handle's life: the invariant
    /// engine's rules ([`telemetry::checker`]) are verified against each
    /// batch of spans by the thread that records it — no thread is
    /// added. A violation increments `invariant.violations.total`, flips
    /// the scrape endpoint's `/health` to 503 and (when `FLIGHT_DUMP_DIR`
    /// is set) dumps the flight recorder, inside the call that confirmed
    /// it. Overridden by the `SPLITFT_ONLINE_MONITOR` environment
    /// variable (`1`/`true` enables, `0`/`false` disables) at
    /// [`Testbed::start`].
    pub online_monitor: bool,
}

impl TestbedConfig {
    /// Zero latencies everywhere: functional testing at memory speed.
    pub fn zero(peers: usize) -> Self {
        TestbedConfig {
            dfs: DfsConfig::zero(),
            ncl: NclConfig::zero(),
            peers,
            peer_mem: 256 << 20,
            peer_gc_interval: None,
            weak_flush_interval: Duration::from_millis(100),
            scrape_addr: None,
            online_monitor: false,
        }
    }

    /// Calibrated latencies reproducing the paper's testbed shape.
    pub fn calibrated(peers: usize) -> Self {
        TestbedConfig {
            dfs: DfsConfig::calibrated(),
            ncl: NclConfig::calibrated(),
            peers,
            peer_mem: 1 << 30,
            peer_gc_interval: Some(Duration::from_millis(100)),
            weak_flush_interval: Duration::from_secs(1),
            scrape_addr: None,
            online_monitor: false,
        }
    }
}

/// The assembled simulated datacenter.
pub struct Testbed {
    /// Node registry and failure injection.
    pub cluster: Cluster,
    /// The disaggregated file system.
    pub dfs: DfsCluster,
    /// The NCL controller.
    pub controller: Controller,
    /// Peer name resolution.
    pub registry: Arc<NclRegistry>,
    /// The running log peers.
    pub peers: Vec<Peer>,
    config: TestbedConfig,
    /// One private local-SSD store per [`Mode::Local`] mount, kept serving
    /// for the testbed's life.
    local_disks: Mutex<Vec<DfsCluster>>,
    /// The operator scrape endpoint, when [`TestbedConfig::scrape_addr`]
    /// asked for one; stops on drop.
    scrape: Option<ScrapeServer>,
    /// The health judge over the shared telemetry handle. Pre-loaded with
    /// the NCL objectives and served on the scrape endpoint's `/health`.
    health: Health,
    /// Black-box flight recorder over the same handle; dumps on a failing
    /// `/health` verdict, an invariant violation and a panic when
    /// `FLIGHT_DUMP_DIR` is set.
    flight: Arc<FlightRecorder>,
    /// Streaming invariant monitor, when [`TestbedConfig::online_monitor`]
    /// (or `SPLITFT_ONLINE_MONITOR=1`) asked for one.
    monitor: Option<OnlineMonitor>,
}

impl Testbed {
    /// Starts every service described by `config`.
    pub fn start(mut config: TestbedConfig) -> Self {
        if let Ok(v) = std::env::var("SPLITFT_ONLINE_MONITOR") {
            match v.trim() {
                "1" | "true" | "on" => config.online_monitor = true,
                "0" | "false" | "off" => config.online_monitor = false,
                _ => {}
            }
        }
        // Attach the monitor before any service starts so the very first
        // span is already streamed through it.
        let monitor = config
            .online_monitor
            .then(|| OnlineMonitor::attach(&config.ncl.telemetry, config.ncl.quorum()));
        let cluster = Cluster::new();
        let dfs = DfsCluster::start(&cluster, config.dfs.clone());
        // Erasure-coded durability needs a spill tier; unless the caller
        // brought a sink, demote cold acked prefixes to the DFS itself.
        if config.ncl.durability.is_ec() && config.ncl.spill.is_none() {
            let node = cluster.add_node("ncl-spill-sink");
            config.ncl.spill = Some(Arc::new(crate::DfsSpillSink::new(dfs.client(node))));
        }
        // Control-plane services share the application's telemetry handle so
        // their facts and the files' spans land in one trace.
        let controller = Controller::start_with_telemetry(&cluster, config.ncl.telemetry.clone());
        let registry = NclRegistry::with_telemetry(config.ncl.telemetry.clone());
        let mut peers: Vec<Peer> = (0..config.peers)
            .map(|i| {
                Peer::start(
                    &cluster,
                    &format!("peer-{i}"),
                    config.peer_mem,
                    &config.ncl,
                    &controller,
                    &registry,
                )
            })
            .collect();
        if let Some(interval) = config.peer_gc_interval {
            for peer in &mut peers {
                peer.schedule_gc(interval);
            }
        }
        let flight = Arc::new(FlightRecorder::with_limits(
            config.ncl.telemetry.clone(),
            32,
            config.ncl.quorum(),
        ));
        // `FLIGHT_DUMP_DIR` arms the black box: on each transition of
        // `/health` into 503 (and on panic) the last N spans and counter
        // deltas are preserved as an analyzer-readable JSONL dump.
        let dump_dir = std::env::var("FLIGHT_DUMP_DIR").ok().map(PathBuf::from);
        let dump = dump_dir.clone().map(|dir| ((*flight).clone(), dir));
        let health = Health::new(config.ncl.telemetry.clone(), dump);
        health.add("ncl.record.e2e", 5_000_000, 0.05);
        health.add("ncl.record.doorbell", 2_000_000, 0.05);
        if let Some(dir) = dump_dir {
            // An invariant violation need not wait for a `/health` read:
            // preserve the offending window the moment the monitor flags
            // it, tagged so operators can tell the dumps apart. The hook
            // lives in the telemetry the recorder holds, so it holds the
            // recorder weakly: the testbed's drop frees them both.
            if let Some(monitor) = &monitor {
                let (recorder, dump_dir) = (Arc::downgrade(&flight), dir.clone());
                monitor.on_violation(move |v| {
                    let Some(recorder) = recorder.upgrade() else {
                        return;
                    };
                    let _ = recorder.dump_into(
                        &dump_dir,
                        "invariant",
                        &format!("invariant-violation [{}] {}", v.invariant, v.message),
                    );
                });
            }
            flight.install_panic_hook(dir);
        }
        let scrape = config.scrape_addr.as_deref().map(|addr| {
            ScrapeServer::start(config.ncl.telemetry.clone(), addr, Some(health.clone()))
                .expect("scrape endpoint binds")
        });
        Testbed {
            cluster,
            dfs,
            controller,
            registry,
            peers,
            config,
            local_disks: Mutex::new(Vec::new()),
            scrape,
            health,
            flight,
            monitor,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &TestbedConfig {
        &self.config
    }

    /// Bound address of the scrape endpoint, when one was requested.
    pub fn scrape_addr(&self) -> Option<std::net::SocketAddr> {
        self.scrape.as_ref().map(|s| s.addr())
    }

    /// The health judge (served on the scrape endpoint's `/health`). Add
    /// workload-specific objectives with [`Health::add`].
    pub fn health(&self) -> &Health {
        &self.health
    }

    /// The black-box flight recorder over the testbed's telemetry handle.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The streaming invariant monitor, when one was requested via
    /// [`TestbedConfig::online_monitor`] or `SPLITFT_ONLINE_MONITOR=1`.
    pub fn online_monitor(&self) -> Option<&OnlineMonitor> {
        self.monitor.as_ref()
    }

    /// Registers a fresh application-server node.
    pub fn add_app_node(&self, name: &str) -> NodeId {
        self.cluster.add_node(name)
    }

    /// Mounts a facade for application `app_id` in `mode` on a fresh node,
    /// returning the facade and the node (for failure injection). A
    /// [`Mode::Local`] mount gets a fresh local disk of its own.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is [`Mode::SplitFt`] and another live instance of
    /// `app_id` holds the NCL instance lock.
    pub fn mount(&self, mode: Mode, app_id: &str) -> (SplitFs, NodeId) {
        let node = self.add_app_node(&format!("app-{app_id}"));
        let fs = match mode {
            Mode::StrongDft => SplitFs::dft_strong(self.dfs.client(node)),
            Mode::WeakDft => {
                SplitFs::dft_weak(self.dfs.client(node), self.config.weak_flush_interval)
            }
            Mode::SplitFt => {
                let ncl = NclLib::new(
                    &self.cluster,
                    node,
                    app_id,
                    self.config.ncl.clone(),
                    &self.controller,
                    &self.registry,
                )
                .expect("NCL instance lock available");
                SplitFs::splitft(self.dfs.client(node), ncl)
            }
            Mode::Local => {
                let disk = DfsCluster::start(&self.cluster, DfsConfig::local_ssd());
                let fs = SplitFs::local(disk.client(node));
                self.local_disks.lock().push(disk);
                fs
            }
        };
        (fs, node)
    }

    /// Finds a peer by its published name.
    pub fn peer_named(&self, name: &str) -> Option<&Peer> {
        self.peers.iter().find(|p| p.name() == name)
    }

    /// Adds one more peer to the pool at runtime.
    pub fn add_peer(&mut self, name: &str) -> &Peer {
        let mut peer = Peer::start(
            &self.cluster,
            name,
            self.config.peer_mem,
            &self.config.ncl,
            &self.controller,
            &self.registry,
        );
        if let Some(interval) = self.config.peer_gc_interval {
            peer.schedule_gc(interval);
        }
        self.peers.push(peer);
        self.peers.last().expect("just pushed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpenOptions;

    #[test]
    fn testbed_mounts_all_modes() {
        let tb = Testbed::start(TestbedConfig::zero(3));
        for mode in [Mode::StrongDft, Mode::WeakDft, Mode::SplitFt, Mode::Local] {
            let (fs, _node) = tb.mount(mode, &format!("app-{mode:?}"));
            let f = fs.open("probe", OpenOptions::create()).unwrap();
            f.write_at(0, b"ok").unwrap();
            f.fsync().unwrap();
            assert_eq!(f.read(0, 2).unwrap(), b"ok");
        }
    }

    #[test]
    fn ec_testbed_wires_a_dfs_spill_sink() {
        let mut cfg = TestbedConfig::zero(4);
        cfg.ncl.durability = ncl::Durability::Ec { k: 2, n: 3 };
        let tb = Testbed::start(cfg);
        assert!(tb.config().ncl.spill.is_some(), "spill sink auto-wired");
        let (fs, _node) = tb.mount(Mode::SplitFt, "app-ec");
        let f = fs.open("probe", OpenOptions::create()).unwrap();
        f.write_at(0, b"ec-ok").unwrap();
        f.fsync().unwrap();
        assert_eq!(f.read(0, 5).unwrap(), b"ec-ok");
    }

    #[test]
    fn testbed_wires_health_and_flight_recorder() {
        let mut cfg = TestbedConfig::zero(3);
        cfg.scrape_addr = Some("127.0.0.1:0".into());
        let tb = Testbed::start(cfg);
        assert!(tb.scrape_addr().is_some());
        // The verdict starts ok (no objective has data yet) and the
        // recorder watches the same telemetry handle as the testbed
        // services.
        assert!(tb.health().verdict().ok());
        let (fs, _node) = tb.mount(Mode::SplitFt, "app-health");
        let f = fs.open("probe", OpenOptions::create_ncl(1 << 16)).unwrap();
        f.write_at(0, b"observed").unwrap();
        f.fsync().unwrap();
        let dump = tb.flight_recorder().capture();
        assert!(
            !dump.spans.is_empty(),
            "flight recorder must see the write's spans"
        );
    }

    #[test]
    fn online_monitor_stays_clean_on_healthy_writes() {
        let mut cfg = TestbedConfig::zero(3);
        cfg.online_monitor = true;
        let tb = Testbed::start(cfg);
        let monitor = tb.online_monitor().expect("monitor attached").clone();
        let (fs, _node) = tb.mount(Mode::SplitFt, "app-monitored");
        let f = fs.open("probe", OpenOptions::create_ncl(1 << 16)).unwrap();
        for i in 0..16u64 {
            f.write_at(i * 8, b"monitor!").unwrap();
        }
        f.fsync().unwrap();
        let report = monitor.finalize();
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert!(report.acked_writes > 0, "monitor saw the write stream");
        assert_eq!(report.violations.len(), 0);
    }

    #[test]
    fn add_peer_grows_pool() {
        let mut tb = Testbed::start(TestbedConfig::zero(1));
        assert_eq!(tb.peers.len(), 1);
        tb.add_peer("late-peer");
        assert_eq!(tb.peers.len(), 2);
        assert!(tb.peer_named("late-peer").is_some());
    }
}
