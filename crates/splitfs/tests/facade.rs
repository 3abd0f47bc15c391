//! Full-stack tests of the SplitFT facade: DFS + controller + peers + NCL.

use std::sync::Arc;
use std::time::Duration;

use dfs::{DfsCluster, DfsConfig, IoTrace};
use ncl::{Controller, NclConfig, NclLib, NclRegistry, Peer};
use sim::Cluster;
use splitfs::{FsError, Mode, OpenOptions, SplitFs, Testbed, TestbedConfig};

struct Harness {
    cluster: Cluster,
    dfs: DfsCluster,
    controller: Controller,
    registry: Arc<NclRegistry>,
    peers: Vec<Peer>,
    config: NclConfig,
    app_seq: std::cell::Cell<u32>,
}

impl Harness {
    fn new() -> Self {
        let cluster = Cluster::new();
        let dfs = DfsCluster::start(&cluster, DfsConfig::zero_small_objects());
        let controller = Controller::start(&cluster);
        let registry = NclRegistry::new();
        let config = NclConfig::zero();
        let peers = (0..4)
            .map(|i| {
                Peer::start(
                    &cluster,
                    &format!("p{i}"),
                    32 << 20,
                    &config,
                    &controller,
                    &registry,
                )
            })
            .collect();
        Harness {
            cluster,
            dfs,
            controller,
            registry,
            peers,
            config,
            app_seq: std::cell::Cell::new(0),
        }
    }

    fn next_node(&self, tag: &str) -> sim::NodeId {
        self.app_seq.set(self.app_seq.get() + 1);
        self.cluster
            .add_node(format!("{tag}-{}", self.app_seq.get()))
    }

    fn splitft(&self, app: &str) -> SplitFs {
        let node = self.next_node("app");
        let ncl = NclLib::new(
            &self.cluster,
            node,
            app,
            self.config.clone(),
            &self.controller,
            &self.registry,
        )
        .expect("instance lock");
        SplitFs::splitft(self.dfs.client(node), ncl)
    }

    fn strong(&self) -> SplitFs {
        SplitFs::dft_strong(self.dfs.client(self.next_node("app")))
    }

    fn weak(&self, interval: Duration) -> SplitFs {
        SplitFs::dft_weak(self.dfs.client(self.next_node("app")), interval)
    }
}

#[test]
fn splitft_routes_by_oncl_flag() {
    let h = Harness::new();
    let fs = h.splitft("db");
    let wal = fs.open("wal", OpenOptions::create_ncl(4096)).unwrap();
    let sst = fs.open("sst-1", OpenOptions::create()).unwrap();
    assert!(wal.is_ncl());
    assert!(!sst.is_ncl());
    wal.write_at(0, b"log entry").unwrap();
    sst.write_at(0, b"bulk data").unwrap();
    sst.fsync().unwrap();
    assert_eq!(wal.read(0, 9).unwrap(), b"log entry");
    assert_eq!(sst.read(0, 9).unwrap(), b"bulk data");
}

#[test]
fn oncl_flag_is_ignored_in_dft_modes() {
    let h = Harness::new();
    let fs = h.strong();
    let f = fs.open("wal", OpenOptions::create_ncl(4096)).unwrap();
    assert!(!f.is_ncl(), "strong DFT must route O_NCL files to the DFS");
}

#[test]
fn strong_mode_survives_crash_weak_mode_loses_data() {
    let h = Harness::new();

    // Strong: fsync makes data durable in the DFS.
    {
        let fs = h.strong();
        let f = fs.open("strong.log", OpenOptions::create()).unwrap();
        f.write_at(0, b"durable").unwrap();
        f.fsync().unwrap();
    } // Application crash: facade dropped.
    {
        let fs = h.strong();
        let f = fs.open("strong.log", OpenOptions::plain()).unwrap();
        assert_eq!(f.read(0, 7).unwrap(), b"durable");
    }

    // Weak: fsync is a no-op and the flusher never ran before the crash.
    {
        let fs = h.weak(Duration::from_secs(3600));
        let f = fs.open("weak.log", OpenOptions::create()).unwrap();
        f.write_at(0, b"vanishes").unwrap();
        f.fsync().unwrap(); // Returns instantly, durability not guaranteed.
    }
    {
        let fs = h.strong();
        let f = fs.open("weak.log", OpenOptions::plain()).unwrap();
        assert_eq!(f.size().unwrap(), 0, "acknowledged write was lost");
    }
}

#[test]
fn splitft_ncl_file_survives_app_crash() {
    let h = Harness::new();
    let app_node;
    {
        let fs = h.splitft("kv");
        app_node = fs.ncl().unwrap().node();
        let wal = fs.open("wal", OpenOptions::create_ncl(4096)).unwrap();
        wal.append(b"rec1;").unwrap();
        wal.append(b"rec2;").unwrap();
        // No fsync needed: records are synchronously replicated.
    }
    h.cluster.crash(app_node);
    let fs2 = h.splitft("kv");
    // Opening the existing ncl file triggers recovery.
    let wal = fs2.open("wal", OpenOptions::create_ncl(4096)).unwrap();
    assert_eq!(wal.read(0, 10).unwrap(), b"rec1;rec2;");
}

#[test]
fn splitft_bulk_files_survive_via_dfs() {
    let h = Harness::new();
    let app_node;
    {
        let fs = h.splitft("kv");
        app_node = fs.ncl().unwrap().node();
        let sst = fs.open("sst-9", OpenOptions::create()).unwrap();
        sst.write_at(0, b"compacted").unwrap();
        sst.fsync().unwrap();
    }
    h.cluster.crash(app_node);
    let fs2 = h.splitft("kv");
    let sst = fs2.open("sst-9", OpenOptions::plain()).unwrap();
    assert_eq!(sst.read(0, 9).unwrap(), b"compacted");
}

#[test]
fn unlink_ncl_file_releases_peer_regions() {
    let h = Harness::new();
    let fs = h.splitft("kv");
    let wal = fs.open("wal", OpenOptions::create_ncl(1024)).unwrap();
    wal.append(b"x").unwrap();
    let before: usize = h.peers.iter().map(|p| p.region_count()).sum();
    assert_eq!(before, 3);
    drop(wal);
    fs.unlink("wal").unwrap();
    let after: usize = h.peers.iter().map(|p| p.region_count()).sum();
    assert_eq!(after, 0);
    assert!(!fs.exists("wal"));
}

#[test]
fn unlink_unopened_ncl_file_after_restart() {
    // The delete-the-stale-WAL-at-startup pattern (RocksDB, Table 2).
    let h = Harness::new();
    let app_node;
    {
        let fs = h.splitft("kv");
        app_node = fs.ncl().unwrap().node();
        let wal = fs.open("old-wal", OpenOptions::create_ncl(1024)).unwrap();
        wal.append(b"obsolete").unwrap();
    }
    h.cluster.crash(app_node);
    let fs2 = h.splitft("kv");
    fs2.unlink("old-wal").unwrap();
    assert!(!fs2.exists("old-wal"));
    let regions: usize = h.peers.iter().map(|p| p.region_count()).sum();
    assert_eq!(regions, 0);
}

#[test]
fn list_merges_ncl_and_dfs_namespaces() {
    let h = Harness::new();
    let fs = h.splitft("kv");
    fs.open("wal-1", OpenOptions::create_ncl(1024)).unwrap();
    fs.open("sst-1", OpenOptions::create()).unwrap();
    fs.open("sst-2", OpenOptions::create()).unwrap();
    assert_eq!(fs.list("").unwrap(), vec!["sst-1", "sst-2", "wal-1"]);
    assert_eq!(fs.list("sst").unwrap(), vec!["sst-1", "sst-2"]);
}

#[test]
fn rename_bulk_ok_ncl_rejected() {
    let h = Harness::new();
    let fs = h.splitft("kv");
    fs.open("wal", OpenOptions::create_ncl(1024)).unwrap();
    fs.open("tmp", OpenOptions::create()).unwrap();
    fs.rename("tmp", "final").unwrap();
    assert!(fs.exists("final"));
    assert!(matches!(
        fs.rename("wal", "wal2"),
        Err(FsError::Unsupported(_))
    ));
}

/// The weak mount writes back on its own calls: the first write or
/// `fsync` after the interval posts it, and without one a crash loses the
/// data however long it sat.
#[test]
fn weak_flusher_eventually_persists() {
    let h = Harness::new();
    let interval = Duration::from_millis(50);
    for (path, call_after) in [("bg.log", true), ("idle.log", false)] {
        {
            let fs = h.weak(interval);
            let f = fs.open(path, OpenOptions::create()).unwrap();
            f.write_at(0, b"eventually").unwrap();
            std::thread::sleep(interval);
            if call_after {
                f.fsync().unwrap();
            }
        } // Application crash: facade dropped.
        let fs2 = h.strong();
        let f = fs2.open(path, OpenOptions::plain()).unwrap();
        let persisted = if call_after { 10 } else { 0 };
        assert_eq!(f.size().unwrap(), persisted, "{path}");
        assert_eq!(f.read(0, 10).unwrap(), &b"eventually"[..persisted as usize]);
    }
}

#[test]
fn open_missing_without_create_fails() {
    let h = Harness::new();
    let fs = h.splitft("kv");
    assert!(matches!(
        fs.open("nope", OpenOptions::plain()),
        Err(FsError::NotFound(_))
    ));
    let mut opts = OpenOptions::plain();
    opts.ncl = true;
    assert!(matches!(fs.open("nope", opts), Err(FsError::NotFound(_))));
}

#[test]
fn reopening_ncl_file_shares_handle() {
    let h = Harness::new();
    let fs = h.splitft("kv");
    let a = fs.open("wal", OpenOptions::create_ncl(1024)).unwrap();
    let b = fs.open("wal", OpenOptions::create_ncl(1024)).unwrap();
    a.append(b"one").unwrap();
    b.append(b"two").unwrap();
    assert_eq!(a.read(0, 6).unwrap(), b"onetwo");
    let regions: usize = h.peers.iter().map(|p| p.region_count()).sum();
    assert_eq!(regions, 3, "no duplicate allocation");
}

#[test]
fn trace_captures_ncl_record_sizes() {
    let h = Harness::new();
    let fs = h.splitft("kv");
    let trace = IoTrace::new();
    trace.enable();
    fs.set_trace(Arc::clone(&trace));
    let wal = fs.open("wal", OpenOptions::create_ncl(4096)).unwrap();
    wal.append(&[0u8; 124]).unwrap();
    wal.append(&[0u8; 124]).unwrap();
    let events = trace.events();
    assert_eq!(events.len(), 2);
    assert!(events.iter().all(|e| e.bytes == 124 && e.path == "wal"));
}

/// A zero-latency one-replica DFS for Local mounts: it serves while the
/// returned store lives, and each `client` is a (re)mount of it.
fn local_disk() -> (Cluster, DfsCluster) {
    let cluster = Cluster::new();
    let config = DfsConfig {
        replicas: 1,
        ..DfsConfig::zero()
    };
    let disk = DfsCluster::start(&cluster, config);
    (cluster, disk)
}

#[test]
fn local_mode_roundtrip() {
    let (cluster, disk) = local_disk();
    let fs = SplitFs::local(disk.client(cluster.add_node("app")));
    assert_eq!(fs.mode(), Mode::Local);
    let f = fs.open("f", OpenOptions::create()).unwrap();
    f.write_at(0, b"local").unwrap();
    f.fsync().unwrap();
    assert_eq!(f.read(0, 5).unwrap(), b"local");
    assert_eq!(f.size().unwrap(), 5);
    fs.rename("f", "g").unwrap();
    assert!(fs.exists("g"));
    fs.unlink("g").unwrap();
    assert!(!fs.exists("g"));
}

/// A Local mount's `fsync` is a strong one: after a remount of its disk
/// (a reboot) the fsynced bytes are there and the unsynced ones are gone,
/// as on `ext4` after a power loss.
#[test]
fn a_local_remount_keeps_fsynced_bytes_and_loses_the_rest() {
    let (cluster, disk) = local_disk();
    let fs = SplitFs::local(disk.client(cluster.add_node("app")));
    let f = fs.open("log", OpenOptions::create()).unwrap();
    f.append(b"synced").unwrap();
    f.fsync().unwrap();
    f.append(b", then lost").unwrap();
    assert_eq!(f.read(0, usize::MAX).unwrap(), b"synced, then lost");
    drop((f, fs));

    let fs = SplitFs::local(disk.client(cluster.add_node("app-rebooted")));
    let f = fs.open("log", OpenOptions::plain()).unwrap();
    assert_eq!(f.size().unwrap(), 6);
    assert_eq!(f.read(0, usize::MAX).unwrap(), b"synced");
}

#[test]
fn append_returns_monotonic_offsets() {
    let h = Harness::new();
    let fs = h.splitft("kv");
    let wal = fs.open("wal", OpenOptions::create_ncl(4096)).unwrap();
    assert_eq!(wal.append(b"aaa").unwrap(), 0);
    assert_eq!(wal.append(b"bb").unwrap(), 3);
    let sst = fs.open("sst", OpenOptions::create()).unwrap();
    assert_eq!(sst.append(b"xxxx").unwrap(), 0);
    assert_eq!(sst.append(b"y").unwrap(), 4);
}

#[test]
fn every_backend_clamps_a_read_the_same_way() {
    let mut config = TestbedConfig::zero(3);
    // The fallback handle below should engage quickly, not after 5 s.
    config.ncl.write_timeout = Duration::from_millis(300);
    let tb = Testbed::start(config);
    let (cluster, disk) = local_disk();
    let local = SplitFs::local(disk.client(cluster.add_node("clamp-local")));
    let (dft, _) = tb.mount(Mode::StrongDft, "clamp-dfs");
    let (split, _) = tb.mount(Mode::SplitFt, "clamp-ncl");
    let files = [
        ("local", local.open("f", OpenOptions::create()).unwrap()),
        ("dfs", dft.open("f", OpenOptions::create()).unwrap()),
        (
            "ncl",
            split.open("wal", OpenOptions::create_ncl(1 << 16)).unwrap(),
        ),
        (
            "ncl fallback",
            split
                .open("wal-degraded", OpenOptions::create_ncl(1 << 16))
                .unwrap(),
        ),
    ];
    let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
    let size = data.len() as u64;
    for (_, file) in &files[..3] {
        file.write_at(0, &data).unwrap();
        file.fsync().unwrap();
    }
    // The last handle loses its quorum half way (no spare peers exist) and
    // takes the rest through the shadow journal: its reads come from the
    // fallback image. The other log is only read from here on.
    let degraded = &files[3].1;
    degraded.write_at(0, &data[..500]).unwrap();
    for name in degraded.ncl_handle().unwrap().peer_names().iter().skip(1) {
        tb.cluster.crash(tb.peer_named(name).unwrap().node());
    }
    degraded.write_at(500, &data[500..]).unwrap();
    assert!(degraded.is_degraded() && !files[2].1.is_degraded());

    let cases: [(u64, usize, &[u8]); 5] = [
        (0, usize::MAX, &data),
        (size / 2, usize::MAX, &data[500..]),
        (size - 1, 2, &data[999..]),
        (size, 1, &[]),
        (size + 1, 1, &[]),
    ];
    for (backend, file) in &files {
        assert_eq!(file.size().unwrap(), size, "{backend}");
        for (offset, len, want) in cases {
            let got = file.read(offset, len).unwrap();
            assert_eq!(got, want, "{backend}: read({offset}, {len})");
            let lent = file.read_with(offset, len, |bytes| bytes == want);
            assert_eq!(lent, Ok(true), "{backend}: read_with({offset}, {len})");
        }
    }
}

/// Writers sharing one `O_NCL` route ("multiple writers of one WAL") never
/// get one offset twice: each append's offset is chosen where its record is
/// staged. Eight threads race 500 appends each, over 20 fresh logs.
#[test]
fn concurrent_appends_to_one_ncl_file_get_distinct_offsets() {
    const THREADS: u64 = 8;
    const APPENDS: u64 = 500;
    let tb = Testbed::start(TestbedConfig::zero(3));
    let (fs, _) = tb.mount(Mode::SplitFt, "appenders");
    let start = std::sync::Barrier::new(THREADS as usize);
    for round in 0..20 {
        let path = format!("wal-{round}");
        let capacity = (THREADS * APPENDS * 8) as usize;
        let files: Vec<_> = (0..THREADS)
            .map(|_| fs.open(&path, OpenOptions::create_ncl(capacity)).unwrap())
            .collect();
        let mut acked: Vec<(u64, [u8; 8])> = std::thread::scope(|s| {
            let writers: Vec<_> = files
                .iter()
                .enumerate()
                .map(|(t, file)| {
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        (0..APPENDS)
                            .map(|i| {
                                let record = (t as u64 * APPENDS + i).to_le_bytes();
                                (file.append(&record).unwrap(), record)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            writers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        acked.sort();
        acked.dedup_by_key(|(offset, _)| *offset);
        assert_eq!(
            acked.len() as u64,
            THREADS * APPENDS,
            "round {round}: shared offsets"
        );
        assert_eq!(files[0].size().unwrap(), capacity as u64, "round {round}");
        for (offset, record) in acked {
            assert_eq!(files[0].read(offset, 8).unwrap(), record, "round {round}");
        }
        fs.unlink(&path).unwrap();
    }
}
