//! End-to-end tests of the NCL replication and recovery protocols.
//!
//! These exercise the failure scenarios of §4.5 and the correctness
//! condition of §4.6: *every acknowledged record — and all records before
//! it — is recovered, in issued order, as long as at most `f` peers fail
//! simultaneously.*

use std::sync::Arc;
use std::time::Duration;

use ncl::{
    lockaudit, Controller, Durability, MemSpillSink, NclConfig, NclError, NclFile, NclLib,
    NclRegistry, Peer, RegionHeader, HEADER_SIZE,
};
use rdma::{CompletionQueue, QueuePair, RemoteMr, WcStatus, WorkRequest, WrId};
use sim::{Cluster, NodeId};
use telemetry::spans;

struct Harness {
    cluster: Cluster,
    controller: Controller,
    registry: Arc<NclRegistry>,
    peers: Vec<Peer>,
    config: NclConfig,
}

impl Harness {
    fn new(num_peers: usize) -> Self {
        Self::with_config(num_peers, NclConfig::zero())
    }

    fn with_config(num_peers: usize, config: NclConfig) -> Self {
        let cluster = Cluster::new();
        // Share the config's telemetry handle so controller and peer facts
        // land in the same trace as the files' spans.
        let controller = Controller::start(&cluster, config.telemetry.clone());
        let registry = NclRegistry::with_telemetry(config.telemetry.clone());
        let peers = (0..num_peers)
            .map(|i| {
                Peer::start(
                    &cluster,
                    &format!("p{i}"),
                    64 << 20,
                    &config,
                    &controller,
                    &registry,
                )
            })
            .collect();
        Harness {
            cluster,
            controller,
            registry,
            peers,
            config,
        }
    }

    fn app(&self, name: &str) -> NclLib {
        let node = self.cluster.add_node(format!("app-{name}"));
        NclLib::new(
            &self.cluster,
            node,
            "testapp",
            self.config.clone(),
            &self.controller,
            &self.registry,
        )
        .expect("instance lock")
    }

    fn peer_named(&self, name: &str) -> &Peer {
        self.peers
            .iter()
            .find(|p| p.name() == name)
            .expect("peer exists")
    }

    /// The token `peer` hands out for testapp's `file`, asked from `from`.
    fn region_of(&self, from: NodeId, peer: &str, file: &str) -> RemoteMr {
        let rpc = self.registry.lookup(peer).unwrap().rpc;
        match rpc.call(from, |d, s| d.lock().lookup(s.at, "testapp", file)) {
            Ok(Ok((mr, _))) => mr,
            other => panic!("lookup on {peer}: {other:?}"),
        }
    }

    /// Posts `writes` (offset, bytes) into `mr` on `peer` from `from` over a
    /// queue pair of its own, in order, one doorbell each so each is
    /// signalled, and returns their completions.
    fn post_from(
        &self,
        from: NodeId,
        peer: &str,
        mr: RemoteMr,
        writes: &[(usize, &[u8])],
    ) -> Vec<WcStatus> {
        let cq = CompletionQueue::new();
        let device = &self.registry.lookup(peer).unwrap().device;
        let qp = QueuePair::connect(
            self.cluster.clone(),
            from,
            device,
            cq.clone(),
            self.config.rdma,
        );
        let wrs: Vec<WorkRequest> = writes
            .iter()
            .enumerate()
            .map(|(i, (offset, data))| WorkRequest::Write {
                wr_id: WrId(i as u64),
                mr,
                offset: *offset,
                data: (*data).into(),
            })
            .collect();
        for wr in &wrs {
            qp.post_many(std::slice::from_ref(wr)).unwrap();
        }
        let mut done = Vec::new();
        while done.len() < writes.len() {
            done.extend(
                cq.wait(Duration::from_secs(5))
                    .into_iter()
                    .map(|(_, wc)| wc.status),
            );
        }
        done
    }

    /// The details of the per-peer recovery catch-up spans on `peer`.
    fn copies_on(&self, peer: &str) -> Vec<Box<str>> {
        let spans = self.config.telemetry.spans().into_iter();
        spans
            .filter(|s| s.name == spans::NCL_RECOVER_CATCH_UP_PEER && s.scope == peer)
            .filter_map(|s| s.detail)
            .collect()
    }
}

#[test]
fn write_then_read_back() {
    let h = Harness::new(3);
    let lib = h.app("a1");
    let file = lib.create("wal", 4096).unwrap();
    file.record(0, b"hello ").unwrap();
    file.record(6, b"world").unwrap();
    assert_eq!(file.len(), 11);
    assert_eq!(file.seq(), 2);
    assert_eq!(file.contents(), b"hello world");
    assert_eq!(file.read(6, 5), b"world");
    assert_eq!(file.peer_names().len(), 3);
}

#[test]
fn create_duplicate_rejected() {
    let h = Harness::new(3);
    let lib = h.app("a1");
    let _file = lib.create("wal", 1024).unwrap();
    assert!(matches!(
        lib.create("wal", 1024),
        Err(NclError::AlreadyExists(_))
    ));
}

#[test]
fn capacity_is_enforced() {
    let h = Harness::new(3);
    let lib = h.app("a1");
    let file = lib.create("wal", 64).unwrap();
    assert!(matches!(
        file.record(60, b"too much"),
        Err(NclError::CapacityExceeded { .. })
    ));
    // The failed record must not have been acknowledged or change state.
    assert_eq!(file.len(), 0);
}

#[test]
fn recover_after_app_crash_returns_all_acked_writes() {
    let h = Harness::new(3);
    let app_node;
    {
        let lib = h.app("a1");
        app_node = lib.node();
        let file = lib.create("wal", 4096).unwrap();
        for i in 0..50u32 {
            file.record((i * 4) as u64, &i.to_le_bytes()).unwrap();
        }
    }
    h.cluster.crash(app_node);

    let lib2 = h.app("a2");
    let file = lib2.recover("wal").unwrap();
    assert_eq!(file.len(), 200);
    for i in 0..50u32 {
        assert_eq!(file.read((i * 4) as u64, 4), i.to_le_bytes());
    }
    // Recovery restored the full FT level.
    assert_eq!(file.peer_names().len(), 3);
}

#[test]
fn recover_nonexistent_file_fails() {
    let h = Harness::new(3);
    let lib = h.app("a1");
    assert!(matches!(lib.recover("ghost"), Err(NclError::NotFound(_))));
}

#[test]
fn recovery_tolerates_one_crashed_peer() {
    let h = Harness::new(4);
    let app_node;
    let victim;
    {
        let lib = h.app("a1");
        app_node = lib.node();
        let file = lib.create("wal", 4096).unwrap();
        file.record(0, b"must survive").unwrap();
        victim = file.peer_names()[0].clone();
    }
    h.cluster.crash(app_node);
    h.cluster.crash(h.peer_named(&victim).node());

    let lib2 = h.app("a2");
    let file = lib2.recover("wal").unwrap();
    assert_eq!(file.contents(), b"must survive");
    // The dead peer was replaced by the spare.
    assert_eq!(file.peer_names().len(), 3);
    assert!(!file.peer_names().contains(&victim));
}

#[test]
fn recovery_picks_max_seq_from_lagging_quorum() {
    let h = Harness::new(3);
    let app_node;
    let lagging;
    {
        let lib = h.app("a1");
        app_node = lib.node();
        let file = lib.create("wal", 4096).unwrap();
        file.record(0, b"AAAA").unwrap();
        // Partition one peer; further writes complete on the other two.
        lagging = file.peer_names()[2].clone();
        let lag_node = h.peer_named(&lagging).node();
        h.cluster.partition(app_node, lag_node);
        file.record(4, b"BBBB").unwrap();
        file.record(8, b"CCCC").unwrap();
        // Heal so the lagging peer participates in recovery with stale data.
        h.cluster.heal(app_node, lag_node);
    }
    h.cluster.crash(app_node);

    let lib2 = h.app("a2");
    let file = lib2.recover("wal").unwrap();
    assert_eq!(
        file.contents(),
        b"AAAABBBBCCCC",
        "lagging peer must not win"
    );
    assert_eq!(file.seq(), 3);
}

#[test]
fn repeated_crash_recover_cycles_preserve_data() {
    let h = Harness::new(4);
    let mut expected = Vec::new();
    let mut prev_node = None;
    for round in 0..4u8 {
        if let Some(n) = prev_node {
            h.cluster.crash(n);
        }
        let lib = h.app(&format!("round{round}"));
        prev_node = Some(lib.node());
        let file = if round == 0 {
            lib.create("wal", 4096).unwrap()
        } else {
            let f = lib.recover("wal").unwrap();
            assert_eq!(f.contents(), expected, "round {round}");
            f
        };
        let chunk = [round; 8];
        file.record(expected.len() as u64, &chunk).unwrap();
        expected.extend_from_slice(&chunk);
    }
}

#[test]
fn peer_crash_during_writes_triggers_inline_replacement() {
    let h = Harness::new(5);
    let lib = h.app("a1");
    let file = lib.create("wal", 4096).unwrap();
    file.record(0, b"one").unwrap();
    let original = file.peer_names();
    let victim = original[1].clone();
    h.cluster.crash(h.peer_named(&victim).node());
    // The next record detects the failure and replaces the peer inline.
    file.record(3, b"two").unwrap();
    file.record(6, b"three").unwrap();
    let now = file.peer_names();
    assert_eq!(now.len(), 3, "FT level restored");
    assert!(!now.contains(&victim));
    assert!(!file.repair_pending());
    assert!(file.epoch() > 1, "replacement advanced the epoch");

    // Prove the replacement was caught up: crash BOTH remaining original
    // peers; the data must be recoverable from the new peer + quorum.
    drop(file);
    drop(lib);
    let survivors: Vec<String> = original.iter().filter(|n| **n != victim).cloned().collect();
    // Only crash one of them — f = 1 tolerates one simultaneous failure.
    h.cluster.crash(h.peer_named(&survivors[0]).node());
    let lib2 = h.app("a2");
    let file = lib2.recover("wal").unwrap();
    assert_eq!(file.contents(), b"onetwothree");
}

#[test]
fn majority_loss_blocks_until_replacements_available() {
    let h = Harness::new(5);
    let lib = h.app("a1");
    let file = lib.create("wal", 4096).unwrap();
    file.record(0, b"x").unwrap();
    let names = file.peer_names();
    // Crash two of three peers simultaneously: quorum lost, but two spare
    // peers exist, so the record must block, replace, and then succeed.
    h.cluster.crash(h.peer_named(&names[0]).node());
    h.cluster.crash(h.peer_named(&names[1]).node());
    file.record(1, b"y").unwrap();
    assert_eq!(file.peer_names().len(), 3);
    drop(file);
    drop(lib);
    let lib2 = h.app("a2");
    let file = lib2.recover("wal").unwrap();
    assert_eq!(file.contents(), b"xy");
}

#[test]
fn majority_loss_without_spares_times_out() {
    let mut config = NclConfig::zero();
    config.write_timeout = Duration::from_millis(300);
    let h = Harness::with_config(3, config);
    let lib = h.app("a1");
    let file = lib.create("wal", 4096).unwrap();
    file.record(0, b"x").unwrap();
    let names = file.peer_names();
    h.cluster.crash(h.peer_named(&names[0]).node());
    h.cluster.crash(h.peer_named(&names[1]).node());
    assert!(matches!(
        file.record(1, b"y"),
        Err(NclError::QuorumUnavailable(_))
    ));
}

#[test]
fn release_frees_peer_state() {
    let h = Harness::new(3);
    let lib = h.app("a1");
    let file = lib.create("wal", 1024).unwrap();
    file.record(0, b"temp").unwrap();
    let regions_before: usize = h.peers.iter().map(|p| p.region_count()).sum();
    assert_eq!(regions_before, 3);
    file.release().unwrap();
    assert!(!lib.exists("wal").unwrap());
    let regions_after: usize = h.peers.iter().map(|p| p.region_count()).sum();
    assert_eq!(regions_after, 0);
    // The file can be recreated (epoch must advance past the high-water).
    let file = lib.create("wal", 1024).unwrap();
    file.record(0, b"new").unwrap();
    assert_eq!(file.contents(), b"new");
}

#[test]
fn a_create_that_fails_part_way_frees_its_regions_and_its_retry_succeeds() {
    let h = Harness::new(3);
    let lib = h.app("a1");
    // Two of three down: the live one is allocated, one short of a quorum.
    let down = ["p1", "p2"].map(|p| h.peer_named(p).node());
    for node in down {
        h.cluster.crash(node);
    }
    assert!(matches!(
        lib.create("wal", 1024),
        Err(NclError::QuorumUnavailable(_))
    ));
    let counts: Vec<usize> = h.peers.iter().map(|p| p.region_count()).collect();
    assert_eq!(counts, [0, 0, 0], "the failed create left no region behind");
    // The retry runs at the same epoch; no peer may refuse it.
    for node in down {
        h.cluster.restart(node);
    }
    let file = lib.create("wal", 1024).unwrap();
    file.record(0, b"second try").unwrap();
    assert_eq!(file.peer_names().len(), 3);
    let counts: Vec<usize> = h.peers.iter().map(|p| p.region_count()).collect();
    assert_eq!(counts, [1, 1, 1]);
}

#[test]
fn a_create_with_no_spare_opens_on_an_ack_quorum_and_repairs_later() {
    let h = Harness::new(3);
    let lib = h.app("a1");
    let down = h.peer_named("p2").node();
    h.cluster.crash(down);
    let file = lib.create("wal", 1024).unwrap();
    assert!(file.repair_pending(), "under-replicated until repair");
    assert_eq!(file.peer_names().len(), 2);
    file.record(0, b"acked by two").unwrap();
    h.cluster.restart(down);
    assert!(file.maintain().unwrap());
    assert!(!file.repair_pending());
    assert_eq!(file.peer_names().len(), 3);
    let counts: Vec<usize> = h.peers.iter().map(|p| p.region_count()).collect();
    assert_eq!(counts, [1, 1, 1]);
    // The repaired peer holds the record acked before it joined.
    let app_node = lib.node();
    file.record(12, b", then three").unwrap();
    drop((file, lib));
    h.cluster.crash(h.peer_named("p0").node());
    h.cluster.crash(app_node);
    let file = h.app("a2").recover("wal").unwrap();
    assert_eq!(file.contents(), b"acked by two, then three");
}

/// A file left short of peers is repaired by its own writes: no caller of
/// `maintain` is needed, and while no spare exists its barriers ask for one
/// at most once per `reattach_probe`.
#[test]
fn a_file_short_of_peers_is_repaired_by_a_barrier_once_per_probe_interval() {
    let h = Harness::new(3);
    let lib = h.app("a1");
    let down = h.peer_named("p2").node();
    h.cluster.crash(down);
    let started = std::time::Instant::now();
    let file = lib.create("wal", 1 << 16).unwrap();
    for i in 0..200u64 {
        file.record(i * 8, b"acked!!!").unwrap();
    }
    let elapsed = started.elapsed();
    assert_eq!(file.peer_names().len(), 2);
    assert!(file.repair_pending());
    let repair_roots = |h: &Harness| {
        let spans = h.config.telemetry.spans();
        let roots = spans
            .iter()
            .filter(|s| s.name == spans::NCL_REPAIR && s.is_root());
        roots.count() as u128
    };
    let probe = h.config.reattach_probe;
    let bound = elapsed.as_nanos() / probe.as_nanos() + 1;
    assert!(
        repair_roots(&h) <= bound,
        "{} repair attempts in {elapsed:?} with no spare",
        repair_roots(&h)
    );

    h.cluster.restart(down);
    std::thread::sleep(probe);
    file.record(1600, b"then three").unwrap();
    assert!(!file.repair_pending(), "repaired without maintain");
    assert_eq!(file.peer_names().len(), 3);
    let counts: Vec<usize> = h.peers.iter().map(|p| p.region_count()).collect();
    assert_eq!(counts, [1, 1, 1]);
}

/// Σ of the direct children named `name` of the root named `root`, and the
/// root's own length, in that trace's spans.
fn phase_sum(h: &Harness, root: &str, name: &str) -> (Duration, Duration) {
    let spans = h.config.telemetry.spans();
    let roots: Vec<_> = spans.iter().filter(|s| s.name == root).collect();
    assert_eq!(roots.len(), 1, "one {root} root");
    let sum = spans
        .iter()
        .filter(|s| s.trace == roots[0].trace && s.parent == roots[0].id && s.name == name)
        .map(|s| s.duration_ns())
        .sum();
    (
        Duration::from_nanos(sum),
        Duration::from_nanos(roots[0].duration_ns()),
    )
}

/// `NclConfig::zero()` but for a 5 ms registration on every fresh region.
fn registering_5ms(f: usize, peers: usize) -> Harness {
    let mut config = NclConfig::zero();
    config.f = f;
    config.mr_register = sim::LatencyModel::from_nanos(5_000_000, 0.0);
    config.telemetry.set_span_capacity(1 << 16);
    Harness::with_config(peers, config)
}

#[test]
fn a_create_waits_once_for_its_peers_registrations() {
    let h = registering_5ms(1, 3);
    let lib = h.app("a1");
    let file = lib.create("wal", 4096).unwrap();
    file.record(0, b"registered").unwrap();
    let (connect, root) = phase_sum(&h, spans::NCL_CREATE, spans::NCL_CREATE_CONNECT_MR);
    // Three registrations on three peers overlap: one wait of one, not
    // three one after another.
    assert!(connect >= Duration::from_millis(5), "{connect:?}");
    assert!(root < Duration::from_millis(10), "{root:?}");
}

#[test]
fn a_recovery_replaces_two_non_responders_with_one_round_and_one_registration_wait() {
    let h = registering_5ms(2, 7);
    let app_node;
    let victims: Vec<String>;
    {
        let lib = h.app("a1");
        app_node = lib.node();
        let file = lib.create("wal", 4096).unwrap();
        file.record(0, b"five-way replicated").unwrap();
        victims = file.peer_names()[..2].to_vec();
    }
    h.cluster.crash(app_node);
    for v in &victims {
        h.cluster.crash(h.peer_named(v).node());
    }
    let lib2 = h.app("a2");
    let file = lib2.recover("wal").unwrap();
    assert_eq!(file.contents(), b"five-way replicated");
    assert_eq!(file.peer_names().len(), 5);
    // The phases after the replacement's controller round: one per
    // allocation, the last holding their one wait.
    let spans = h.config.telemetry.spans();
    let root = spans
        .iter()
        .find(|s| s.name == spans::NCL_RECOVER)
        .expect("recover root");
    let mut children: Vec<_> = spans
        .iter()
        .filter(|s| s.trace == root.trace && s.parent == root.id)
        .collect();
    children.sort_by_key(|s| s.start_ns);
    let rounds: Vec<usize> = (0..children.len())
        .filter(|&i| children[i].name == spans::NCL_RECOVER_GET_PEER)
        .collect();
    assert_eq!(
        rounds.len(),
        2,
        "the ap-map lookup and one replacement round"
    );
    let connects: Vec<Duration> = children[rounds[1] + 1..]
        .iter()
        .take_while(|s| s.name == spans::NCL_RECOVER_CONNECT)
        .map(|s| Duration::from_nanos(s.duration_ns()))
        .collect();
    // Registrations waited for one after another would put a 5 ms wait in
    // every allocation's phase. A slow host lengthens a phase but cannot
    // shorten a wait, so this counts waits, not time.
    let waited: Vec<bool> = connects
        .iter()
        .map(|took| *took >= Duration::from_millis(5))
        .collect();
    let mut one_wait = vec![false; connects.len()];
    *one_wait.last_mut().expect("a connect phase") = true;
    assert_eq!(waited, one_wait, "{connects:?}");
}

#[test]
fn circular_log_overwrite_recovers_current_image() {
    let h = Harness::new(3);
    let app_node;
    {
        let lib = h.app("a1");
        app_node = lib.node();
        let file = lib.create("wal", 16).unwrap();
        // Fill the "circular" log then wrap around, SQLite-style.
        file.record(0, b"AAAABBBBCCCCDDDD").unwrap();
        file.record(0, b"EEEE").unwrap(); // Overwrite at the start.
        file.record(4, b"FFFF").unwrap();
        assert_eq!(file.contents(), b"EEEEFFFFCCCCDDDD");
    }
    h.cluster.crash(app_node);
    let lib2 = h.app("a2");
    let file = lib2.recover("wal").unwrap();
    assert_eq!(file.contents(), b"EEEEFFFFCCCCDDDD");
}

/// A pending record is a range of the staging image, not a copy: a range
/// overwritten before its flush is posted with the later bytes. Whether the
/// overwrite lands in the same burst or while its predecessor is still in
/// flight, the peers and a recovery see the image and nothing in between:
/// the burst's one header names its final state (replicated) and its
/// fragment entry decodes whole (erasure-coded).
#[test]
fn overwrites_inside_a_burst_and_under_a_flight_ship_the_image() {
    // A = [0, 4096) of 0xAA, B = [2048, 6144) of 0xBB over half of it,
    // C = [6144, 8192) of 0xCC right behind B.
    let records = [
        (0usize, 4096usize, 0xAAu8),
        (2048, 4096, 0xBB),
        (6144, 2048, 0xCC),
    ];
    for durability in [Durability::Replicated, Durability::Ec { k: 2, n: 3 }] {
        for under_a_flight in [false, true] {
            let label = format!("{} under_a_flight={under_a_flight}", durability.label());
            let mut config = NclConfig::zero();
            config.durability = durability;
            config.spill = Some(Arc::new(MemSpillSink::new()));
            let h = Harness::with_config(3, config);
            let mut model = vec![0u8; 8192];
            let app_node;
            {
                let lib = h.app("a1");
                app_node = lib.node();
                let file = lib.create("wal", 8192).unwrap();
                for (i, &(at, len, byte)) in records.iter().enumerate() {
                    file.record_nowait(at as u64, &vec![byte; len]).unwrap();
                    model[at..at + len].fill(byte);
                    if under_a_flight && i == 0 {
                        // A is posted; no barrier has seen it durable yet.
                        file.submit();
                        assert_eq!(file.durable_seq(), 0, "{label}");
                    }
                }
                file.fsync().unwrap();
                assert_eq!(file.contents(), model, "{label}");
                if !durability.is_ec() {
                    assert_eq!(file.read_remote(0, 8192).unwrap(), model, "{label}");
                }
            }
            h.cluster.crash(app_node);
            let lib2 = h.app("a2");
            let file = lib2.recover("wal").unwrap();
            assert_eq!((file.seq(), file.len()), (3, 8192), "{label}");
            assert_eq!(file.contents(), model, "{label}");
            for name in file.peer_names() {
                let bytes = h
                    .peer_named(&name)
                    .inspect_region("testapp", "wal", 0, HEADER_SIZE)
                    .unwrap();
                let header = RegionHeader::decode(&bytes).unwrap();
                assert_eq!(
                    (header.seq, header.len, header.overwritten),
                    (3, 8192, true),
                    "{label}: {name}"
                );
            }
        }
    }
}

/// Recovery catch-up of a lagging peer picks its path from the two region
/// headers alone: an append-only log ships only the tail the peer misses
/// (§6 byte-diff) into the region it already holds, while a lagging
/// circular region's bytes are not a prefix of the recovered image
/// (Figure 7(ii)), so the full image is installed in a staged region that
/// replaces it. Either way the once-lagging peer must end up holding the
/// whole image.
#[test]
fn lagging_peer_catch_up_picks_its_path_from_the_headers() {
    struct Case {
        capacity: usize,
        first: &'static [u8],
        /// Written while one peer is partitioned away.
        second: (u64, &'static [u8]),
        image: &'static [u8],
        path: &'static str,
    }
    let cases = [
        Case {
            capacity: 4096,
            first: b"start...",
            second: (8, b"tail-data-only-on-majority"),
            image: b"start...tail-data-only-on-majority",
            path: "tail in place",
        },
        Case {
            capacity: 8,
            first: b"AAAABBBB",
            second: (0, b"CCCC"), // Overwrites the first half.
            image: b"CCCCBBBB",
            path: "full copy",
        },
    ];
    for case in cases {
        // The partitioned peer's work requests fail at post time, inside
        // the partition — the peer really is one record behind.
        let h = Harness::new(3);
        let app_node;
        let lagging;
        {
            let lib = h.app("a1");
            app_node = lib.node();
            let file = lib.create("wal", case.capacity).unwrap();
            file.record(0, case.first).unwrap();
            lagging = file.peer_names()[2].clone();
            let lag_node = h.peer_named(&lagging).node();
            h.cluster.partition(app_node, lag_node);
            file.record(case.second.0, case.second.1).unwrap();
            h.cluster.heal(app_node, lag_node);
        }
        h.cluster.crash(app_node);
        let probe = h.cluster.add_node("probe");
        let ledger = |h: &Harness| {
            let peers = h.peers.iter();
            let held = peers.map(|p| (p.region_count(), p.staged_count(), p.mem_used()));
            held.collect::<Vec<_>>()
        };
        let allocs = |h: &Harness| {
            let spans = h.config.telemetry.spans().into_iter();
            spans.filter(|s| s.name == spans::REGION_ALLOC).count()
        };
        let (before, allocs_before) = (ledger(&h), allocs(&h));
        let region_before = h.region_of(probe, &lagging, "wal");
        let lib2 = h.app("a2");
        let file = lib2.recover("wal").unwrap();
        assert_eq!(file.contents(), case.image, "{}", case.path);
        assert_eq!(
            h.copies_on(&lagging),
            [case.path.into()],
            "chosen catch-up path of the lagging peer"
        );
        // A full copy switches the region; in place, recovery allocates,
        // stages and charges nothing.
        let region = h.region_of(probe, &lagging, "wal");
        let in_place = case.path == "tail in place";
        assert_eq!(
            region.mr_id == region_before.mr_id,
            in_place,
            "{}",
            case.path
        );
        assert_ne!(
            region.rkey, region_before.rkey,
            "{}: old token fenced",
            case.path
        );
        assert_eq!(ledger(&h), before, "{}", case.path);
        if in_place {
            assert_eq!(allocs(&h), allocs_before, "no region-alloc fact");
        }
        // Every peer (including the previously lagging one) must now hold
        // the correct image: crash a peer that was always up to date.
        drop(file);
        drop(lib2);
        let up_to_date = ["p0", "p1", "p2"]
            .into_iter()
            .find(|n| *n != lagging)
            .expect("two peers never lagged");
        h.cluster.crash(h.peer_named(up_to_date).node());
        let lib3 = h.app("a3");
        let file = lib3.recover("wal").unwrap();
        assert_eq!(file.contents(), case.image, "{}", case.path);
    }
}

/// An in-place catch-up fences the crashed instance as the switch did: a
/// write posted with its pre-recovery token completes with an access error
/// and changes no byte on the peer.
#[test]
fn in_place_recovery_fences_the_crashed_instances_token() {
    let h = Harness::new(3);
    let lib = h.app("a1");
    let file = lib.create("wal", 4096).unwrap();
    file.record(0, b"acked").unwrap();
    let peer = file.peer_names()[0].clone();
    let zombie = lib.node();
    let stale = h.region_of(zombie, &peer, "wal");
    drop(file);
    h.cluster.crash(zombie);
    let lib2 = h.app("a2");
    let file = lib2.recover("wal").unwrap();
    assert_eq!(h.copies_on(&peer), ["tail in place".into()]);
    let bytes = |h: &Harness| {
        let peer = h.peer_named(&peer);
        peer.inspect_region("testapp", "wal", 0, HEADER_SIZE + 16)
    };
    let held = bytes(&h).unwrap();
    // The crashed instance, still running somewhere, posts a header and
    // data with the token it held before the recovery.
    let forged = RegionHeader {
        seq: 9,
        len: 16,
        ..Default::default()
    }
    .encode();
    let writer = h.cluster.add_node("zombie");
    let writes: [(usize, &[u8]); 2] = [(HEADER_SIZE, b"zombie-bytes"), (0, &forged)];
    let statuses = h.post_from(writer, &peer, stale, &writes);
    assert!(
        statuses.contains(&WcStatus::RemoteAccessErr),
        "{statuses:?}"
    );
    assert!(!statuses.contains(&WcStatus::Success), "{statuses:?}");
    assert_eq!(bytes(&h).unwrap(), held, "the fenced writes landed nowhere");
    // The recovered instance writes on.
    file.record(5, b"-more").unwrap();
    assert_eq!(file.contents(), b"acked-more");
}

/// The recovering instance dies after one responder's tail and header
/// landed in place but before the ap-map moved, leaving that peer at the
/// new epoch under a fresh key. A third instance recovers the acked image
/// on every peer: the adopted peer refuses a second adoption at the same
/// epoch and takes a full copy instead, and nothing is left staged.
#[test]
fn a_recovery_that_dies_mid_catch_up_is_recovered_again() {
    let h = Harness::new(3);
    let image: &[u8] = b"start...tail-only-on-a-majority";
    let lagging;
    {
        let lib = h.app("a1");
        let file = lib.create("wal", 4096).unwrap();
        file.record(0, &image[..8]).unwrap();
        lagging = file.peer_names()[2].clone();
        let lag_node = h.peer_named(&lagging).node();
        h.cluster.partition(lib.node(), lag_node);
        file.record(8, &image[8..]).unwrap();
        h.cluster.heal(lib.node(), lag_node);
        h.cluster.crash(lib.node());
    }
    let ctl = h.controller.client(h.config.control);
    let epoch = |node| {
        let entry = ctl.call(node, |c, _| c.get_ap_entry("testapp", "wal"));
        let entry = entry.unwrap();
        entry.expect("ap-map entry").epoch
    };
    // Instance a2 does what its catch-up of the lagging peer does — adopt,
    // then the tail and the recovered header — and dies.
    let lib2 = h.app("a2");
    let e = epoch(lib2.node());
    let endpoint = h.registry.lookup(&lagging).unwrap();
    let adopted = (endpoint.rpc).call(lib2.node(), |d, s| {
        d.lock().adopt(s.at, "testapp", "wal", e + 1)
    });
    let Ok(Ok((mr, _))) = adopted else {
        panic!("adopt refused")
    };
    let up_to_date = ["p0", "p1", "p2"].into_iter().find(|n| *n != lagging);
    let header = h
        .peer_named(up_to_date.unwrap())
        .inspect_region("testapp", "wal", 0, HEADER_SIZE)
        .unwrap();
    let writes: [(usize, &[u8]); 2] = [(HEADER_SIZE + 8, &image[8..]), (0, &header)];
    let statuses = h.post_from(lib2.node(), &lagging, mr, &writes);
    assert_eq!(statuses, [WcStatus::Success; 2]);
    h.cluster.crash(lib2.node());
    assert_eq!(
        epoch(h.cluster.add_node("probe")),
        e,
        "the ap-map never moved"
    );

    let lib3 = h.app("a3");
    let file = lib3.recover("wal").unwrap();
    assert_eq!(file.contents(), image);
    assert_eq!(file.peer_names().len(), 3);
    assert_eq!(epoch(lib3.node()), e + 1);
    for peer in &h.peers {
        let name = peer.name();
        let path = if name == lagging {
            "full copy"
        } else {
            "tail in place"
        };
        assert_eq!(h.copies_on(name), [path.into()], "{name}");
        let data = peer.inspect_region("testapp", "wal", HEADER_SIZE, image.len());
        assert_eq!(data.unwrap(), image, "{name}");
        assert_eq!(peer.staged_count(), 0, "{name}");
        assert_eq!(peer.gc_sweep(), 0, "{name}: every region is in the ap-map");
    }
}

#[test]
fn instance_lock_prevents_split_brain() {
    let h = Harness::new(3);
    let lib1 = h.app("a1");
    let node2 = h.cluster.add_node("app-clone");
    let err = NclLib::new(
        &h.cluster,
        node2,
        "testapp",
        h.config.clone(),
        &h.controller,
        &h.registry,
    );
    assert!(matches!(err, Err(NclError::InstanceConflict(_))));
    // After the holder crashes, a new instance may start.
    h.cluster.crash(lib1.node());
    let lib2 = NclLib::new(
        &h.cluster,
        node2,
        "testapp",
        h.config.clone(),
        &h.controller,
        &h.registry,
    );
    assert!(lib2.is_ok());
}

#[test]
fn instance_lock_released_on_clean_shutdown() {
    let h = Harness::new(3);
    {
        let _lib = h.app("a1");
    }
    // Dropped cleanly: the lock must be free.
    let _lib2 = h.app("a2");
}

#[test]
fn memory_revocation_is_handled_as_peer_failure() {
    let h = Harness::new(4);
    let lib = h.app("a1");
    let file = lib.create("wal", 4096).unwrap();
    file.record(0, b"before").unwrap();
    let victim = file.peer_names()[0].clone();
    assert!(h.peer_named(&victim).revoke("testapp", "wal"));
    // Writes keep succeeding; the revoked peer is replaced.
    file.record(6, b" after").unwrap();
    assert!(!file.peer_names().contains(&victim) || file.peer_names().len() == 3);
    drop(file);
    drop(lib);
    let lib2 = h.app("a2");
    let file = lib2.recover("wal").unwrap();
    assert_eq!(file.contents(), b"before after");
}

#[test]
fn multiple_files_tracked_independently() {
    let h = Harness::new(3);
    let lib = h.app("a1");
    let wal = lib.create("wal", 1024).unwrap();
    let aof = lib.create("aof", 1024).unwrap();
    wal.record(0, b"wal-data").unwrap();
    aof.record(0, b"aof-data").unwrap();
    assert_eq!(lib.list_files().unwrap(), vec!["aof", "wal"]);
    assert_eq!(wal.contents(), b"wal-data");
    assert_eq!(aof.contents(), b"aof-data");
    wal.release().unwrap();
    assert_eq!(lib.list_files().unwrap(), vec!["aof"]);
}

#[test]
fn read_remote_matches_local_buffer() {
    let h = Harness::new(3);
    let lib = h.app("a1");
    let file = lib.create("wal", 4096).unwrap();
    file.record(0, b"remote readable").unwrap();
    assert_eq!(file.read_remote(0, 15).unwrap(), b"remote readable");
    assert_eq!(file.read_remote(7, 8).unwrap(), b"readable");
    assert_eq!(file.read_remote(100, 10).unwrap(), b"");
}

#[test]
fn maintain_repairs_deferred_failures() {
    // 3 peers, one dies, no spare at first: record proceeds degraded with
    // repair_pending set; once a spare appears, maintain() fixes it.
    let h = Harness::new(3);
    let lib = h.app("a1");
    let file = lib.create("wal", 4096).unwrap();
    file.record(0, b"a").unwrap();
    let victim = file.peer_names()[0].clone();
    h.cluster.crash(h.peer_named(&victim).node());
    file.record(1, b"b").unwrap();
    assert!(file.repair_pending(), "no spare peer: repair deferred");
    assert_eq!(file.peer_names().len(), 2);
    // A new peer joins the pool.
    let _spare = Peer::start(
        &h.cluster,
        "spare",
        64 << 20,
        &h.config,
        &h.controller,
        &h.registry,
    );
    assert!(file.maintain().unwrap());
    assert!(!file.repair_pending());
    assert_eq!(file.peer_names().len(), 3);
    assert!(file.peer_names().contains(&"spare".to_string()));
}

#[test]
fn unacked_writes_never_break_acked_prefix() {
    // Partition both non-recovery peers so a record cannot reach quorum;
    // the record fails (unacked). Recovery may or may not surface the
    // unacked bytes, but all acked bytes must be intact and in order.
    let mut config = NclConfig::zero();
    config.write_timeout = Duration::from_millis(200);
    let h = Harness::with_config(3, config);
    let app_node;
    {
        let lib = h.app("a1");
        app_node = lib.node();
        let file = lib.create("wal", 4096).unwrap();
        file.record(0, b"ACKED").unwrap();
        let names = file.peer_names();
        h.cluster
            .partition(app_node, h.peer_named(&names[1]).node());
        h.cluster
            .partition(app_node, h.peer_named(&names[2]).node());
        assert!(file.record(5, b"UNACKED").is_err());
        for n in &names[1..] {
            h.cluster.heal(app_node, h.peer_named(n).node());
        }
    }
    h.cluster.crash(app_node);
    let lib2 = h.app("a2");
    let file = lib2.recover("wal").unwrap();
    let contents = file.contents();
    assert!(contents.len() >= 5);
    assert_eq!(&contents[..5], b"ACKED");
    if contents.len() > 5 {
        // If the unacked tail was recovered it must be the issued bytes.
        assert_eq!(&contents[5..], &b"UNACKED"[..contents.len() - 5]);
    }
}

#[test]
fn gc_reclaims_epoch_superseded_regions_after_recovery() {
    let h = Harness::new(4);
    let app_node;
    let victim;
    {
        let lib = h.app("a1");
        app_node = lib.node();
        let file = lib.create("wal", 1024).unwrap();
        file.record(0, b"data").unwrap();
        victim = file.peer_names()[0].clone();
    }
    h.cluster.crash(app_node);
    // The victim is down during recovery and gets replaced.
    let victim_node = h.peer_named(&victim).node();
    h.cluster.crash(victim_node);
    let lib2 = h.app("a2");
    let _file = lib2.recover("wal").unwrap();
    // The victim restarts: its old region is gone with its DRAM anyway, but
    // run the sweep to assert nothing is retained or double-freed.
    h.cluster.restart(victim_node);
    let freed = h.peer_named(&victim).gc_sweep();
    assert_eq!(freed, 0);
    assert_eq!(h.peer_named(&victim).region_count(), 0);
}

#[test]
fn a_peer_failure_mid_stream_preserves_protocol_guarantees() {
    let h = Harness::new(5);
    let app_node;
    {
        let lib = h.app("a1");
        app_node = lib.node();
        let file = lib.create("wal", 4096).unwrap();
        file.record(0, b"before-").unwrap();
        // Peer failure mid-stream: errors trigger replacement.
        let victim = file.peer_names()[0].clone();
        h.cluster.crash(h.peer_named(&victim).node());
        file.record(7, b"after").unwrap();
        assert_eq!(file.peer_names().len(), 3);
        assert!(!file.peer_names().contains(&victim));
    }
    h.cluster.crash(app_node);
    let lib2 = h.app("a2");
    let file = lib2.recover("wal").unwrap();
    assert_eq!(file.contents(), b"before-after");
}

/// The acknowledgement is the paper's: a record returns at the `f + 1`-th
/// header, not the slowest peer's. Pinned on state, not on wall time: when
/// `record` returns, the watermark covers it and its trace holds the wire
/// spans of the two peers whose headers covered it, not the slow peer's,
/// whose completions are still in the air; when they do land they are
/// absorbed as the successes they are, and the slow peer covers the next
/// record.
#[test]
fn a_record_is_acked_at_the_quorums_header_with_the_slow_peers_still_in_flight() {
    use sim::{Binding, FaultAction, FaultPlan, FaultScheduler, Trigger};
    const RECORDS: u64 = 8;
    const SLOW: Duration = Duration::from_millis(5);
    let h = Harness::with_config(3, NclConfig::calibrated());
    let lib = h.app("a1");
    let file = lib.create("wal", 4096).unwrap();
    let epoch = file.epoch();
    // Every request to one peer occupies its wire 5 ms longer (not the
    // 200 us that would show the same: a descheduled test thread must not
    // be able to sit the delay out). Data and header: that peer's
    // completions for record `k` land 10 ms * k after the first doorbell.
    let slow = FaultAction::SlowPeer {
        peer: 0,
        per_wr_us: SLOW.as_micros() as u64,
        wrs: 2 * RECORDS as u32,
    };
    let slow_peer = file.peer_names()[0].clone();
    let binding = Binding {
        peers: vec![h.peer_named(&slow_peer).node()],
        controller: h.controller.node(),
        app: lib.node(),
    };
    let plan = FaultPlan::new(1).push(Trigger::Step(1), slow);
    h.cluster
        .install_faults(FaultScheduler::new(&plan, binding));
    // The peers whose headers covered record `seq` before it was acked: the
    // wire spans of its trace.
    let tel = file.telemetry().clone();
    let covered = move |seq: u64| -> Vec<String> {
        let spans = tel.spans();
        let wire = spans
            .iter()
            .filter(|s| s.name == spans::NCL_WIRE_PEER && s.seq == (seq, seq));
        wire.map(|s| s.scope.to_string()).collect()
    };
    for seq in 1..=RECORDS {
        file.record((seq - 1) * 16, &[seq as u8; 16]).unwrap();
        assert_eq!(file.durable_seq(), seq);
        let peers = covered(seq);
        assert!(
            peers.len() == 2 && !peers.contains(&slow_peer),
            "record {seq}: covered by {peers:?}; the quorum's two headers ack it, {slow_peer}'s fly"
        );
    }
    // A slow request is due at most its delays after the last post: once
    // they have passed, one drain lands them all.
    std::thread::sleep(SLOW * 2 * RECORDS as u32 + SLOW);
    assert!(!file.maintain().unwrap(), "nothing to repair");
    assert_eq!(file.durable_seq(), RECORDS, "the watermark stays put");
    h.cluster.clear_faults();
    assert_eq!(file.peer_names().len(), 3, "late is not dead");
    assert!(!file.repair_pending());
    assert_eq!(file.epoch(), epoch);
    let alarms = [spans::PEER_FAILURE, spans::PEER_SUSPECT];
    let raised = h.config.telemetry.spans();
    assert!(!raised.iter().any(|s| alarms.contains(&s.name)));
    // And the file writes on, the late peer among those covering it.
    file.record(RECORDS * 16, b"after").unwrap();
    assert_eq!(file.durable_seq(), RECORDS + 1);
    assert!(covered(RECORDS + 1).contains(&slow_peer));
}

#[test]
fn scheduled_gc_reclaims_leaks_on_the_next_control_call() {
    let mut h = Harness::new(3);
    // Leak: a region allocated at an epoch the app then abandoned.
    let lib = h.app("a1");
    let file = lib.create("wal", 1024).unwrap();
    file.record(0, b"live").unwrap();
    // Manufacture a leak on peer p0 for a *different* file whose ap-map
    // moved on without it.
    let ep = h.registry.lookup("p0").unwrap();
    let app_node = lib.node();
    let resp = (ep.rpc).call(app_node, |d, s| {
        d.lock().alloc(s.at, "testapp", "leaked", 1, 128)
    });
    let resp = resp.unwrap();
    assert!(resp.is_ok());
    let ctrl = h.controller.client(sim::LatencyModel::ZERO);
    let leaked = vec!["p-elsewhere".into()];
    let set = ctrl.call(app_node, |c, _| {
        c.set_ap_entry("testapp", "leaked", leaked, 2)
    });
    set.unwrap().unwrap();

    let before = h.peer_named("p0").region_count();
    let interval = std::time::Duration::from_millis(100);
    h.peers[0].schedule_gc(interval);
    // The GC owns no thread: it runs on the first top-level control call
    // once its interval is up, and only then.
    let call = || (ctrl.call(app_node, |c, _| c.get_app_epoch("testapp", "wal"))).unwrap();
    call();
    assert_eq!(h.peer_named("p0").region_count(), before, "not due yet");
    std::thread::sleep(interval);
    assert_eq!(h.peer_named("p0").region_count(), before, "nobody called");
    call();
    assert_eq!(
        h.peer_named("p0").region_count(),
        before - 1,
        "the scheduled GC should reclaim the leaked region"
    );
    // The live file's region must be untouched.
    assert!(h
        .peer_named("p0")
        .inspect_region("testapp", "wal", 0, 1)
        .is_some());
    h.peers[0].stop_gc();
}

#[test]
fn f2_budget_uses_five_peers_and_survives_two_crashes() {
    let mut config = NclConfig::zero();
    config.f = 2;
    let h = Harness::with_config(7, config);
    let app_node;
    let victims: Vec<String>;
    {
        let lib = h.app("a1");
        app_node = lib.node();
        let file = lib.create("wal", 4096).unwrap();
        assert_eq!(file.peer_names().len(), 5, "2f+1 peers for f=2");
        file.record(0, b"five-way replicated").unwrap();
        victims = file.peer_names()[..2].to_vec();
    }
    h.cluster.crash(app_node);
    // Two simultaneous peer failures are inside the f=2 budget.
    for v in &victims {
        h.cluster.crash(h.peer_named(v).node());
    }
    let lib2 = h.app("a2");
    let file = lib2.recover("wal").unwrap();
    assert_eq!(file.contents(), b"five-way replicated");
    assert_eq!(file.peer_names().len(), 5, "FT level restored");
}

#[test]
fn many_files_with_concurrent_writers() {
    let h = Harness::new(4);
    let lib = std::sync::Arc::new(h.app("a1"));
    let files: Vec<_> = (0..4)
        .map(|i| std::sync::Arc::new(lib.create(&format!("wal-{i}"), 64 << 10).unwrap()))
        .collect();
    std::thread::scope(|scope| {
        for (i, file) in files.iter().enumerate() {
            let file = std::sync::Arc::clone(file);
            scope.spawn(move || {
                for j in 0..100u64 {
                    let data = [(i as u8) ^ (j as u8); 32];
                    file.record(j * 32, &data).unwrap();
                }
            });
        }
    });
    for (i, file) in files.iter().enumerate() {
        assert_eq!(file.len(), 3200, "file {i}");
        for j in 0..100u64 {
            assert_eq!(file.read(j * 32, 32), vec![(i as u8) ^ (j as u8); 32]);
        }
    }
}

#[test]
fn large_records_replicate_correctly() {
    let h = Harness::new(3);
    let lib = h.app("a1");
    let file = lib.create("wal", 1 << 20).unwrap();
    let blob: Vec<u8> = (0..256 * 1024).map(|i| (i % 241) as u8).collect();
    file.record(0, &blob).unwrap();
    file.record(blob.len() as u64, &blob).unwrap();
    assert_eq!(file.len(), 2 * blob.len() as u64);
    let back = file.contents();
    assert_eq!(&back[..blob.len()], &blob[..]);
    assert_eq!(&back[blob.len()..], &blob[..]);
}

#[test]
fn pipelined_records_are_durable_at_the_barrier() {
    let mut config = NclConfig::zero();
    config.pipeline_window = 8;
    let h = Harness::with_config(3, config);
    let lib = h.app("a1");
    let file = lib.create("wal", 4096).unwrap();
    let mut last = 0;
    for i in 0..20u32 {
        last = file
            .record_nowait((i * 4) as u64, &i.to_le_bytes())
            .unwrap();
    }
    assert_eq!(last, 20);
    file.fsync().unwrap();
    assert_eq!(file.durable_seq(), 20);
    assert_eq!(file.len(), 80);
    for i in 0..20u32 {
        assert_eq!(file.read((i * 4) as u64, 4), i.to_le_bytes());
    }
    // A barrier on an already-durable prefix returns immediately.
    file.wait_durable(1).unwrap();
    // Flush-reason telemetry: 20 records at a window of 8 ring
    // the doorbell twice on window-full (records 8 and 16) and once at the
    // fsync barrier (records 17..=20); nothing called submit().
    let tel = file.telemetry();
    assert_eq!(tel.counter("ncl.flush.window_full").get(), 2);
    assert_eq!(tel.counter("ncl.flush.barrier").get(), 1);
    assert_eq!(tel.counter("ncl.flush.submit").get(), 0);
}

#[test]
fn pipeline_window_bounds_in_flight_records() {
    let mut config = NclConfig::zero();
    config.pipeline_window = 2;
    let h = Harness::with_config(3, config);
    let lib = h.app("a1");
    let file = lib.create("wal", 1 << 16).unwrap();
    for i in 0..50u64 {
        let seq = file.record_nowait(i * 8, &i.to_le_bytes()).unwrap();
        assert_eq!(seq, i + 1);
        // Posting past the window drains the oldest record first, so
        // everything older than the window is durable once the post returns.
        assert!(
            seq.saturating_sub(file.durable_seq()) <= h.config.pipeline_window,
            "in-flight window exceeded at seq {seq}"
        );
    }
    file.fsync().unwrap();
    assert_eq!(file.durable_seq(), 50);
    // 50 records at window 2 flush exclusively on window-full (25 bursts of
    // two), and the first drain necessarily found its record not yet
    // durable (nothing refreshes the watermark before the first barrier).
    let tel = file.telemetry();
    assert_eq!(tel.counter("ncl.flush.window_full").get(), 25);
    assert_eq!(tel.counter("ncl.flush.barrier").get(), 0);
    assert!(
        tel.counter("ncl.window.stall").get() >= 1,
        "window drains must count at least one stall"
    );
}

#[test]
fn submit_and_barrier_flushes_are_counted_separately() {
    // Each flush site has its own counter: an explicit submit is tallied
    // apart from the barrier that has to ring the doorbell for the rest.
    let h = Harness::new(3);
    let lib = h.app("a1");
    let file = lib.create("wal", 4096).unwrap();
    for i in 0..3u64 {
        file.record_nowait(i * 4, &[i as u8; 4]).unwrap();
    }
    file.submit();
    for i in 3..5u64 {
        file.record_nowait(i * 4, &[i as u8; 4]).unwrap();
    }
    file.fsync().unwrap();
    let tel = file.telemetry();
    assert_eq!(tel.counter("ncl.flush.submit").get(), 1);
    assert_eq!(tel.counter("ncl.flush.barrier").get(), 1);
    assert_eq!(tel.counter("ncl.flush.window_full").get(), 0);
}

/// The count behind the deleted `ncl_batch` burst-sweep timing gate: a
/// submitted burst of 16 contiguous records is one doorbell and, per peer,
/// exactly two work requests — one data write cut from the image and the
/// one coalesced header — however many records it carries.
#[test]
fn a_burst_of_16_is_one_doorbell_and_two_wrs_per_peer() {
    const BURSTS: u64 = 4;
    const BURST: u64 = 16;
    let mut config = NclConfig::zero();
    config.pipeline_window = 2 * BURST;
    // A flight of no modelled time lands with its post: every WR has been
    // on the wire when `submit` returns, so the sample count below is exact.
    let h = Harness::with_config(3, config);
    let lib = h.app("a1");
    let file = lib.create("wal", 1 << 16).unwrap();
    let tel = file.telemetry();
    let wire_wrs = || {
        tel.snapshot()
            .summary("rdma.wr.wire")
            .map_or(0, |s| s.count)
    };
    let before = wire_wrs();
    for i in 0..BURSTS * BURST {
        file.record_nowait(i * 32, &[i as u8; 32]).unwrap();
        if (i + 1) % BURST == 0 {
            file.submit();
        }
    }
    file.fsync().unwrap();
    assert_eq!(file.durable_seq(), BURSTS * BURST);
    assert_eq!(tel.counter("ncl.flush.submit").get(), BURSTS);
    assert_eq!(tel.counter("ncl.flush.window_full").get(), 0);
    assert_eq!(tel.counter("ncl.flush.barrier").get(), 0);
    let peers = h.config.replicas() as u64;
    assert_eq!(
        wire_wrs() - before,
        BURSTS * peers * 2,
        "one data WR + one header WR per peer per burst"
    );
}

/// The count behind the deleted `ncl_batch` durability-axis gate: at burst
/// 16 with 256-B records, ec-2of3 puts at most 0.6x the replicated bytes
/// per record on the wire (each peer carries half of the burst plus
/// framing, instead of all of it).
#[test]
fn ec_2of3_ships_at_most_0_6x_the_replicated_wire_bytes() {
    const RECORDS: u64 = 2048;
    const RECORD: usize = 256;
    let wire_per_record = |durability: Durability| {
        let mut config = NclConfig::zero();
        config.durability = durability;
        config.spill = Some(Arc::new(MemSpillSink::new()));
        config.pipeline_window = 64;
        let h = Harness::with_config(3, config);
        let lib = h.app("a1");
        let file = lib.create("wal", 8 << 20).unwrap();
        let data = [0xC3u8; RECORD];
        for i in 0..RECORDS {
            file.record_nowait(i * RECORD as u64, &data).unwrap();
            if (i + 1) % 16 == 0 {
                file.submit();
            }
        }
        file.fsync().unwrap();
        file.telemetry().counter("ncl.wire.bytes").get() as f64 / RECORDS as f64
    };
    let replicated = wire_per_record(Durability::Replicated);
    let ec = wire_per_record(Durability::Ec { k: 2, n: 3 });
    assert!(
        ec <= 0.6 * replicated,
        "ec-2of3 {ec:.0} B/record vs replicated {replicated:.0} B/record"
    );
}

#[test]
fn peer_crash_mid_pipeline_preserves_acked_prefix() {
    // Give work requests a real in-flight period (threaded NIC, ~150 µs per
    // WR) so the victim dies with several records' data and header writes
    // still queued on its engine thread — including records caught between
    // their data WR and their header WR while later records are already
    // posted behind them.
    let mut config = NclConfig::zero();
    config.rdma = sim::LatencyModel::from_nanos(150_000, 25.0);
    let h = Harness::with_config(4, config);
    let app_node;
    {
        let lib = h.app("a1");
        app_node = lib.node();
        let file = lib.create("wal", 4096).unwrap();
        file.record(0, b"base").unwrap();
        let names = file.peer_names();

        let mut last = 1;
        for i in 0..6u64 {
            last = file
                .record_nowait(4 + i * 8, &(i + 1).to_le_bytes())
                .unwrap();
            if i == 2 {
                // Three pipelined records are in flight; kill a peer.
                h.cluster.crash(h.peer_named(&names[0]).node());
            }
        }
        file.wait_durable(last).unwrap();
        assert_eq!(file.durable_seq(), 7);
        // The dead peer is replaced with the spare — inline at the barrier
        // if its error completions had arrived by then, otherwise by the
        // deferred-repair path once they do (`maintain` drains the queue).
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while file.peer_names().contains(&names[0]) {
            assert!(
                std::time::Instant::now() < deadline,
                "dead peer never replaced"
            );
            file.maintain().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(file.peer_names().len(), 3);
    }

    // Crash the app: every acknowledged record must survive recovery.
    h.cluster.crash(app_node);
    let lib2 = h.app("a2");
    let file = lib2.recover("wal").unwrap();
    assert_eq!(file.seq(), 7);
    assert_eq!(file.read(0, 4), b"base");
    for i in 0..6u64 {
        assert_eq!(file.read(4 + i * 8, 8), (i + 1).to_le_bytes());
    }
}

#[test]
fn peer_crash_between_burst_data_and_coalesced_header() {
    // Batched submission fault injection, case 1: a peer dies after a
    // burst's data WRs have applied but before the burst's single coalesced
    // header WR lands. A slow fabric (5 ms/byte) turns the gap between the
    // two into a ~360 ms window: the burst's 8 data bytes apply at the post,
    // its 64-byte header lands ~360 ms after it. Only that header signals:
    // a healthy peer's silence counts from the header's modelled landing,
    // not from the post, or the 200 ms floor would suspect all three.
    let mut config = NclConfig::zero();
    config.pipeline_window = 64;
    config.rdma = sim::LatencyModel::from_nanos(0, 1.6e-6);
    let h = Harness::with_config(3, config);
    let app_node;
    {
        let lib = h.app("a1");
        app_node = lib.node();
        let file = lib.create("wal", 4096).unwrap();
        // Burst 1: records 1..=4, one doorbell, acked at the barrier.
        for i in 0..4u64 {
            file.record_nowait(i * 2, &[i as u8; 2]).unwrap();
        }
        file.fsync().unwrap();
        // Burst 2: records 5..=8, one doorbell; kill p2 mid-burst, after
        // its data landed but before the header covering them.
        for i in 4..8u64 {
            file.record_nowait(i * 2, &[i as u8; 2]).unwrap();
        }
        file.submit();
        std::thread::sleep(Duration::from_millis(100));
        h.cluster.crash(h.peer_named("p2").node());
        // The burst still reaches durability on the surviving majority.
        file.fsync().unwrap();
    }
    h.cluster.crash(app_node);

    let lib2 = h.app("a2");
    let file = lib2.recover("wal").unwrap();
    assert_eq!(file.seq(), 8);
    assert_eq!(file.len(), 16);
    for i in 0..8u64 {
        assert_eq!(file.read(i * 2, 2), [i as u8; 2]);
    }
}

#[test]
fn coalesced_header_on_minority_tail_is_not_resurrected() {
    // Batched submission fault injection, case 2: a burst's coalesced
    // header completes on only `f` peers (one short of a quorum) before the
    // holder and the application are both lost. Recovery from the surviving
    // majority must return exactly the acked prefix — the un-acked tail
    // records must not reappear, and nothing acked may be missing.
    let mut config = NclConfig::zero();
    config.pipeline_window = 64;
    let h = Harness::with_config(3, config);
    let app_node;
    {
        let lib = h.app("a1");
        app_node = lib.node();
        let file = lib.create("wal", 4096).unwrap();
        for i in 0..4u64 {
            file.record_nowait(i * 4, &(i as u32).to_le_bytes())
                .unwrap();
        }
        // Acked prefix: records 1..=4.
        file.fsync().unwrap();
        // Cut the app off from p1 and p2: burst 2 (data + coalesced header)
        // lands on p0 alone. Posted, never awaited — records 5..=8 are
        // un-acked.
        h.cluster.partition(app_node, h.peer_named("p1").node());
        h.cluster.partition(app_node, h.peer_named("p2").node());
        for i in 4..8u64 {
            file.record_nowait(i * 4, &(i as u32).to_le_bytes())
                .unwrap();
        }
        file.submit();
    }
    // The only peer holding the tail is lost, along with the app.
    h.cluster.crash(h.peer_named("p0").node());
    h.cluster.crash(app_node);

    let lib2 = h.app("a2");
    let file = lib2.recover("wal").unwrap();
    assert_eq!(file.seq(), 4, "un-acked tail must not be resurrected");
    assert_eq!(file.len(), 16);
    for i in 0..4u64 {
        assert_eq!(file.read(i * 4, 4), (i as u32).to_le_bytes());
    }
}

#[test]
fn out_of_range_offsets_are_errors_and_short_reads_not_overflows() {
    let h = Harness::new(3);
    let lib = h.app("a1");
    let file = lib.create("wal", 64).unwrap();
    file.record(0, b"0123456789abcdef").unwrap();
    // `offset + len` must not be computed unchecked in any of the three.
    assert!(matches!(
        file.record_nowait(u64::MAX - 3, b"abcd"),
        Err(NclError::CapacityExceeded { capacity: 64, .. })
    ));
    assert_eq!(file.read(10, usize::MAX), b"abcdef", "short read");
    assert_eq!(file.read(u64::MAX, usize::MAX), b"");
    assert_eq!(file.read_remote(10, usize::MAX).unwrap(), b"abcdef");
    assert_eq!(file.read_remote(u64::MAX, 8).unwrap(), b"");
    // The rejected record left no trace.
    assert_eq!((file.seq(), file.len()), (1, 16));
}

#[test]
fn ec_capacity_beyond_the_header_field_is_rejected() {
    // Under EC the file capacity travels in a `u32` region-header field; a
    // larger file would recover into a wrong-sized buffer, so it must be
    // refused up front. Replicated regions carry no capacity field.
    let mut config = NclConfig::zero();
    config.durability = Durability::Ec { k: 2, n: 3 };
    config.spill = Some(Arc::new(MemSpillSink::new()));
    let h = Harness::with_config(3, config);
    let lib = h.app("a1");
    let too_big = u32::MAX as usize + 1;
    assert!(matches!(
        lib.create("wal", too_big),
        Err(NclError::Rejected(_))
    ));
    assert!(!lib.exists("wal").unwrap());
}

/// One body, every durability scheme: create → pipelined bursts → kill a
/// peer mid-burst → barrier (inline replace) → app crash → recover → the
/// acked prefix comes back byte-identical. A leak in the scheme seam fails
/// this in one mode or the other instead of hiding in a twin.
#[test]
fn every_scheme_survives_peer_loss_mid_burst_then_app_crash() {
    for durability in [Durability::Replicated, Durability::Ec { k: 2, n: 3 }] {
        let label = durability.label();
        let mut config = NclConfig::zero();
        config.durability = durability;
        config.spill = Some(Arc::new(MemSpillSink::new()));
        // A real in-flight period, so the victim dies with work queued.
        config.rdma = sim::LatencyModel::from_nanos(150_000, 25.0);
        let h = Harness::with_config(5, config);
        let mut model = vec![0u8; 4096];
        let mut len = 0usize;
        let app_node;
        {
            let lib = h.app("a1");
            app_node = lib.node();
            let file = lib.create("wal", 4096).unwrap();
            let names = file.peer_names();
            assert_eq!(names.len(), 3, "{label}");
            for burst in 0..6u8 {
                for i in 0..5u8 {
                    let data = [burst * 16 + i + 1; 24];
                    // The fourth burst rewrites the start of the file, so
                    // the image is no longer append-only.
                    let at = if burst == 3 { i as usize * 24 } else { len };
                    file.record_nowait(at as u64, &data).unwrap();
                    model[at..at + 24].copy_from_slice(&data);
                    len = len.max(at + 24);
                    if burst == 2 && i == 2 {
                        h.cluster.crash(h.peer_named(&names[0]).node());
                    }
                }
                file.submit();
            }
            file.fsync().unwrap();
            assert_eq!(file.durable_seq(), 30, "{label}");
            // Replaced inline at the barrier if the error completions had
            // arrived by then, otherwise by the deferred-repair path.
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while file.peer_names().contains(&names[0]) || file.peer_names().len() < 3 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "{label}: dead peer never replaced"
                );
                let _ = file.maintain();
                std::thread::sleep(Duration::from_millis(1));
            }
            // A burst after the replacement: the fresh peer takes new work.
            file.record(len as u64, b"post-replace").unwrap();
            model[len..len + 12].copy_from_slice(b"post-replace");
            len += 12;
        }
        h.cluster.crash(app_node);
        let lib2 = h.app("a2");
        let file = lib2.recover("wal").unwrap();
        assert_eq!(file.seq(), 31, "{label}");
        assert_eq!(file.contents(), model[..len].to_vec(), "{label}");
        assert_eq!(file.peer_names().len(), 3, "{label}");
        // And the recovered handle keeps working under the same scheme.
        file.record(len as u64, b"after-recovery").unwrap();
        assert_eq!(file.read(len as u64, 14), b"after-recovery", "{label}");
    }
}

/// Once a record is acked, `wait_durable` (and `fsync` behind it) observes
/// the watermark the acking barrier published and returns without acquiring
/// a single mutex.
fn assert_acked_barriers_take_no_lock(file: &NclFile, what: &str) {
    let seq = file.seq();
    assert!(
        file.durable_seq() >= seq,
        "{what}: record() returns only once durable"
    );
    let (result, locks) = lockaudit::audited(|| file.wait_durable(seq));
    result.unwrap();
    assert_eq!(locks, 0, "{what}: wait_durable on an acked record");
    let (result, locks) = lockaudit::audited(|| file.fsync());
    result.unwrap();
    assert_eq!(locks, 0, "{what}: fsync with nothing staged");
}

#[test]
fn acked_fast_path_holds_zero_locks() {
    let h = Harness::new(3);
    let lib = h.app("a1");
    let file = lib.create("wal", 1 << 20).unwrap();
    file.record(0, b"hello acked world").unwrap();
    assert_acked_barriers_take_no_lock(&file, "created file");
}

/// A file that dies with its application recovers onto the same fast path:
/// the acked bytes come back, and a record on the recovered file leaves its
/// barriers lock-free like its first life did.
#[test]
fn recovered_file_keeps_the_acked_fast_path() {
    let h = Harness::new(3);
    let app_node;
    {
        let lib = h.app("a1");
        app_node = lib.node();
        let file = lib.create("wal", 1 << 20).unwrap();
        file.record(0, b"survives").unwrap();
    }
    h.cluster.crash(app_node);

    let lib2 = h.app("a2");
    let file = lib2.recover("wal").unwrap();
    assert_eq!(&file.contents()[..8], b"survives");
    assert_acked_barriers_take_no_lock(&file, "recovered file");
    file.record(8, b" twice").unwrap();
    assert_acked_barriers_take_no_lock(&file, "recovered file after a record");
}

/// The record path takes locks — the audit itself must be able to tell the
/// difference, or the zero assertions above are vacuous.
#[test]
fn lock_audit_counts_locks_on_the_record_path() {
    let h = Harness::new(3);
    let lib = h.app("a1");
    let file = lib.create("wal", 1 << 20).unwrap();
    file.record(0, b"data").unwrap();
    // record_nowait stages under the stage lock: a known lock-taking call.
    let (_, locks) = lockaudit::audited(|| file.record(32, b"more").unwrap());
    assert!(locks > 0, "the record path must register lock acquisitions");
}

/// A count gate, not a timing: a flight that takes no modelled time lands
/// with its post, so a steady-state synchronous `record` on the zero profile
/// takes exactly the same locks every time — `stage` to stage the
/// record, `stage` then `rep` for the barrier's doorbell, `rep` for the one
/// drain that finds the quorum. A fifth acquisition is a lock hand-off
/// added to every acknowledged write.
#[test]
fn synchronous_record_takes_four_stage_or_rep_locks() {
    let h = Harness::new(3);
    let lib = h.app("a1");
    let file = lib.create("wal", 1 << 20).unwrap();
    for i in 0..8u64 {
        file.record(i * 16, b"warm").unwrap();
    }
    for i in 8..16u64 {
        let (result, locks) = lockaudit::audited(|| file.record(i * 16, b"steady"));
        result.unwrap();
        assert_eq!(locks, 4, "record {i}: Stage/Rep acquisitions may not grow");
    }
}

// --- The control path is one sequence of fault points ---

/// Arms `plan` on `h`'s cluster — peer role `k` is `h.peers[k]`, the app
/// role `app` — and returns the scheduler.
fn arm(h: &Harness, app: &NclLib, plan: sim::FaultPlan) -> sim::FaultScheduler {
    let binding = sim::Binding {
        peers: h.peers.iter().map(Peer::node).collect(),
        controller: h.controller.node(),
        app: app.node(),
    };
    let sched = sim::FaultScheduler::new(&plan, binding);
    h.cluster.install_faults(sched.clone());
    sched
}

/// The peers and epoch testapp's `wal` has in the ap-map, asked from a
/// node of its own.
fn ap_map(h: &Harness) -> (Vec<String>, u64) {
    let ctl = h.controller.client(h.config.control);
    let probe = h.cluster.add_node("probe");
    let entry = ctl.call(probe, |c, _| c.get_ap_entry("testapp", "wal"));
    let entry = entry.unwrap();
    let entry = entry.expect("ap-map entry");
    (entry.peers, entry.epoch)
}

/// Four peers, zero latencies: testapp's `wal` is written on three, then
/// the application crashes, and one of the three with it. Returns the
/// deployment, the restarted instance and the spare's name.
fn app_and_peer_crashed() -> (Harness, NclLib, String) {
    let h = Harness::new(4);
    let spare = {
        let lib = h.app("a1");
        let file = lib.create("wal", 4096).unwrap();
        file.record(0, b"acked before the crash").unwrap();
        let names = file.peer_names();
        h.cluster.crash(lib.node());
        h.cluster.crash(h.peer_named(&names[0]).node());
        let spare = h
            .peers
            .iter()
            .map(Peer::name)
            .find(|n| !names.iter().any(|m| m == n));
        spare.expect("a fourth peer").to_string()
    };
    let lib = h.app("a2");
    (h, lib, spare)
}

/// Three peers, zero latencies: testapp's `wal` loses one with no spare to
/// replace it, so its repair is deferred; then a spare `p3` joins.
fn repair_deferred() -> (Harness, NclLib, Arc<NclFile>) {
    repair_deferred_with(NclConfig::zero())
}

/// [`repair_deferred`] under `config`.
fn repair_deferred_with(config: NclConfig) -> (Harness, NclLib, Arc<NclFile>) {
    let mut h = Harness::with_config(3, config);
    let lib = h.app("a1");
    let file = lib.create("wal", 4096).unwrap();
    file.record(0, b"a").unwrap();
    h.cluster.crash(h.peer_named(&file.peer_names()[0]).node());
    file.record(1, b"b").unwrap();
    assert!(file.repair_pending(), "no spare peer: repair deferred");
    let spare = Peer::start(
        &h.cluster,
        "p3",
        64 << 20,
        &h.config,
        &h.controller,
        &h.registry,
    );
    h.peers.push(spare);
    (h, lib, file)
}

/// A repair whose ap-map update fails keeps its survivors, frees the fresh
/// region and stays pending; the next `maintain` after the controller is
/// back moves the ap-map to the peers the file writes to.
#[test]
fn a_repair_whose_ap_map_update_fails_is_retried() {
    use sim::{FaultAction, FaultPlan, Trigger};
    // The ap-map update is the last step of a repair.
    let steps = {
        let (h, lib, file) = repair_deferred();
        let sched = arm(&h, &lib, FaultPlan::new(0));
        assert!(file.maintain().unwrap());
        sched.steps()
    };
    let (h, lib, file) = repair_deferred();
    let cut = FaultPlan::new(0).push(Trigger::Step(steps), FaultAction::PartitionController);
    arm(&h, &lib, cut);
    assert!(file.maintain().is_err(), "the ap-map update was cut");
    assert_eq!(h.peer_named("p3").region_count(), 0, "the fresh region");
    assert!(file.repair_pending());
    h.cluster.clear_faults();
    h.cluster.heal(lib.node(), h.controller.node());
    assert!(file.maintain().unwrap());
    assert!(file.peer_names().contains(&"p3".to_string()));
    assert_eq!(ap_map(&h), (file.peer_names(), file.epoch()));
    file.record(2, b"c").unwrap();
}

/// `NclConfig::zero()`, but a write whose completion is lost is given up
/// on after 100 ms.
fn quick_write_timeout() -> NclConfig {
    let mut config = NclConfig::zero();
    config.write_timeout = Duration::from_millis(100);
    config
}

/// A repair whose fresh peer's header write fails publishes nothing: the
/// ap-map keeps its epoch and peers, the fresh region is freed, and the
/// repair stays pending until one lands.
#[test]
fn a_repair_whose_fresh_header_fails_keeps_the_ap_map_and_frees_the_region() {
    use sim::{FaultAction, FaultPlan, Trigger};
    let (h, lib, file) = repair_deferred_with(quick_write_timeout());
    let before = ap_map(&h);
    // The catch-up is the spare's first traffic: its body, then its header,
    // each loses its completion.
    let lost = FaultAction::DropWr { peer: 3 };
    arm(
        &h,
        &lib,
        FaultPlan::new(0)
            .push(Trigger::Step(1), lost)
            .push(Trigger::Step(1), lost),
    );
    assert!(file.maintain().is_err(), "the fresh header never landed");
    assert_eq!(ap_map(&h), before, "the ap-map did not move");
    assert_eq!(h.peer_named("p3").region_count(), 0, "the fresh region");
    assert!(file.repair_pending());
    h.cluster.clear_faults();
    assert!(file.maintain().unwrap());
    assert!(file.peer_names().contains(&"p3".to_string()));
    assert_eq!(ap_map(&h), (file.peer_names(), file.epoch()));
    file.record(2, b"c").unwrap();
}

/// A create publishes only the peers its seed header reached: one that
/// missed stays out of the ap-map and its region is freed, and the file
/// opens on the ack quorum with a repair pending.
#[test]
fn a_create_publishes_only_the_peers_whose_seed_header_landed() {
    use sim::{FaultAction, FaultPlan, Trigger};
    let h = Harness::with_config(3, quick_write_timeout());
    let lib = h.app("a1");
    let lost = FaultAction::DropWr { peer: 2 };
    arm(&h, &lib, FaultPlan::new(0).push(Trigger::Step(1), lost));
    let file = lib.create("wal", 1024).unwrap();
    let (peers, epoch) = ap_map(&h);
    assert_eq!(peers.len(), 2, "{peers:?}");
    assert!(!peers.contains(&"p2".to_string()), "{peers:?}");
    assert_eq!(h.peer_named("p2").region_count(), 0, "the missed region");
    assert_eq!((peers, epoch), (file.peer_names(), file.epoch()));
    assert!(file.repair_pending());
    file.record(0, b"acked by two").unwrap();
    assert_eq!(file.contents(), b"acked by two");
}

/// A recovery whose ap-map update fails frees the replacement it
/// allocated, and its retry at the same epoch succeeds.
#[test]
fn a_recovery_whose_ap_map_update_fails_frees_its_replacement_and_is_retried() {
    use sim::{FaultAction, FaultPlan, Trigger};
    // The ap-map update is the last step of a recovery.
    let steps = {
        let (h, lib, _) = app_and_peer_crashed();
        let sched = arm(&h, &lib, FaultPlan::new(0));
        lib.recover("wal").unwrap();
        sched.steps()
    };
    let (h, lib, spare) = app_and_peer_crashed();
    let cut = FaultPlan::new(0).push(Trigger::Step(steps), FaultAction::PartitionController);
    arm(&h, &lib, cut);
    assert!(lib.recover("wal").is_err(), "the ap-map update was cut");
    assert_eq!(h.peer_named(&spare).region_count(), 0, "the fresh region");
    h.cluster.clear_faults();
    h.cluster.heal(lib.node(), h.controller.node());
    let file = lib.recover("wal").unwrap();
    assert_eq!(file.contents(), b"acked before the crash");
    assert!(file.peer_names().contains(&spare));
    assert_eq!(ap_map(&h), (file.peer_names(), file.epoch()));
    let roots = h.config.telemetry.spans().into_iter();
    let roots = roots.filter(|s| s.name == spans::NCL_RECOVER).count();
    assert_eq!(roots, 2, "the failed recovery recorded its root too");
}

/// `recover` and `replace_failed` run every per-peer step on the caller's
/// thread, so they consult the fault points in one fixed order: a peer
/// crash injected at step `k` has one outcome. Repeated, it gives the same
/// error or the same ap-map, after the same number of steps.
#[test]
fn a_crash_at_any_step_of_recovery_or_repair_has_one_outcome() {
    use sim::{FaultAction, FaultPlan, Trigger};
    const REPEATS: usize = 20;
    let recover = |plan: FaultPlan| {
        let (h, lib, _) = app_and_peer_crashed();
        let sched = arm(&h, &lib, plan);
        let result = lib.recover("wal").map(|f| (f.peer_names(), f.epoch()));
        let steps = sched.steps();
        h.cluster.clear_faults();
        (format!("{result:?}, ap-map {:?}", ap_map(&h)), steps)
    };
    let repair = |plan: FaultPlan| {
        let (h, lib, file) = repair_deferred();
        let sched = arm(&h, &lib, plan);
        let result = file.maintain();
        let steps = sched.steps();
        h.cluster.clear_faults();
        (format!("{result:?}, ap-map {:?}", ap_map(&h)), steps)
    };
    /// A run under a plan: its outcome and its step count.
    type Run<'a> = &'a dyn Fn(FaultPlan) -> (String, u64);
    let runs: [(&str, Run); 2] = [("recover", &recover), ("replace_failed", &repair)];
    for (what, run) in runs {
        let (_, steps) = run(FaultPlan::new(0));
        assert!(steps > 0, "{what}");
        for k in 1..=steps {
            for role in 0..4 {
                let plan =
                    || FaultPlan::new(0).push(Trigger::Step(k), FaultAction::CrashPeer(role));
                let first = run(plan());
                for _ in 1..REPEATS {
                    assert_eq!(
                        run(plan()),
                        first,
                        "{what}: peer {role} crashed at step {k}"
                    );
                }
            }
        }
    }
}

/// Selective signalling changes which requests complete, never which are
/// consulted: every request of a burst meets the wire fault point once, so
/// a fixed workload — a recovery's catch-up, synchronous records and
/// pipelined bursts of several runs — takes a fixed number of fault-point
/// steps (the count a sweep of every step walks).
#[test]
fn a_fixed_workload_consults_the_fault_points_a_fixed_number_of_times() {
    let (h, lib, _) = app_and_peer_crashed();
    let sched = arm(&h, &lib, sim::FaultPlan::new(0));
    let file = lib.recover("wal").unwrap();
    for i in 0..4u64 {
        file.record(100 + i * 8, &i.to_le_bytes()).unwrap();
    }
    for burst in 0..3u64 {
        for run in 0..3u64 {
            let at = 200 + burst * 600 + run * 200;
            file.record_nowait(at, &[burst as u8; 16]).unwrap();
        }
        file.submit();
    }
    file.fsync().unwrap();
    // What the same workload counts with every request signalled.
    assert_eq!(sched.steps(), 104);
}
