//! Fault-injection test of the causal trace: a peer killed mid-burst must
//! leave a failure-detect fact and a repair whose catch-up ends before its
//! ap-map phase starts in the shared telemetry trace (verified through `telemetry::analyze`, the same checker
//! `trace_analyzer --check` runs in CI), and every acknowledged write must
//! carry a complete span chain — stage → doorbell → per-peer wire/catch-up
//! coverage → quorum ack under one root span.
//!
//! A burst's chain is one record-ring entry that every reader expands:
//! the cases at the end compare the chains of pipelined, erasure-coded and
//! late-covered bursts span for span with the JSONL sink's lines and the
//! Chrome export, and bound the ring by whole bursts.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use ncl::{Controller, Durability, MemSpillSink, NclConfig, NclFile, NclLib, NclRegistry, Peer};
use sim::Cluster;
use telemetry::analyze::{analyze, parse_jsonl};
use telemetry::export::chrome;
use telemetry::{spans, Span, Telemetry};

fn harness(
    num_peers: usize,
    config: &NclConfig,
) -> (Cluster, Controller, Arc<NclRegistry>, Vec<Peer>) {
    let cluster = Cluster::new();
    let controller = Controller::start_with_telemetry(&cluster, config.telemetry.clone());
    let registry = NclRegistry::with_telemetry(config.telemetry.clone());
    let peers = (0..num_peers)
        .map(|i| {
            Peer::start(
                &cluster,
                &format!("p{i}"),
                64 << 20,
                config,
                &controller,
                &registry,
            )
        })
        .collect();
    (cluster, controller, registry, peers)
}

#[test]
fn peer_kill_mid_burst_traces_detect_catchup_apmap_in_order() {
    let config = NclConfig::zero();
    let (cluster, controller, registry, peers) = harness(4, &config);
    let node = cluster.add_node("app");
    let lib = NclLib::new(
        &cluster,
        node,
        "traced",
        config.clone(),
        &controller,
        &registry,
    )
    .expect("instance lock");
    let file = lib.create("wal", 4096).unwrap();
    file.record(0, b"base").unwrap();

    // Kill one assigned peer in the middle of a pipelined burst: the next
    // barrier detects the failure and replaces the peer inline.
    let victim = file.peer_names()[0].clone();
    let mut last = 0;
    for i in 0..6u64 {
        last = file.record_nowait(4 + i * 4, &[i as u8; 4]).unwrap();
        if i == 2 {
            let victim_node = peers
                .iter()
                .find(|p| p.name() == victim)
                .expect("victim exists")
                .node();
            cluster.crash(victim_node);
        }
    }
    file.wait_durable(last).unwrap();
    // The barrier can return on the surviving majority before the victim's
    // error completions drain; pump maintain() until replacement happens.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while file.peer_names().contains(&victim) {
        assert!(
            std::time::Instant::now() < deadline,
            "victim never replaced"
        );
        file.maintain().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert!(!file.peer_names().contains(&victim), "victim replaced");

    let spans = config.telemetry.spans();
    // The victim's failure is detected before its replacement began, and
    // the repair moved the ap-map only after its catch-up ended (§4.5.2
    // ordering).
    let failure = spans
        .iter()
        .find(|s| s.name == spans::PEER_FAILURE)
        .unwrap_or_else(|| panic!("no failure fact in trace: {spans:?}"));
    assert_eq!(failure.scope, victim);
    let repair = spans
        .iter()
        .rfind(|s| s.name == spans::NCL_REPAIR)
        .expect("repair root");
    assert!(
        failure.start_ns <= repair.start_ns,
        "failure detected first"
    );
    let phase = |name: &str| {
        let of_repair = |s: &&telemetry::Span| s.trace == repair.trace && s.name == name;
        spans
            .iter()
            .find(of_repair)
            .unwrap_or_else(|| panic!("no {name}"))
    };
    let (catch_up, ap_map) = (
        phase(spans::NCL_REPAIR_CATCH_UP),
        phase(spans::NCL_REPAIR_AP_MAP),
    );
    assert!(
        catch_up.end_ns <= ap_map.start_ns,
        "ap-map must follow catch-up"
    );

    // The epoch trail: the ap-map phases, in recording order, never go
    // backwards, and the last carries the bumped epoch the file runs at;
    // the survivors' peers fenced their regions to it.
    let epochs: Vec<u64> = spans
        .iter()
        .filter(|s| s.name.ends_with(".ap_map"))
        .map(|s| s.epoch)
        .collect();
    assert!(
        epochs.windows(2).all(|w| w[0] <= w[1]),
        "epochs must be monotonic: {epochs:?}"
    );
    assert_eq!(ap_map.epoch, file.epoch());
    assert!(ap_map.epoch > 1, "replacement bumped the epoch");
    assert!(spans
        .iter()
        .any(|s| s.name == spans::EPOCH_BUMP && s.epoch == ap_map.epoch));

    // Region lifecycle facts from the peers share the same trace.
    assert!(spans.iter().any(|s| s.name == spans::REGION_ALLOC));
    assert!(spans.iter().any(|s| s.name == spans::PEER_PUBLISH));

    // The analyzer agrees: complete span chains for every acked write, and
    // the catch-up/ap-map ordering holds — including the writes that were in
    // flight when the victim died, whose quorum coverage must include
    // `ncl.catchup.peer` credit for the replacement.
    let report = analyze(&spans, config.quorum());
    assert!(
        report.ok(),
        "trace invariants violated:\n{}",
        report.render()
    );
    assert_eq!(report.orphan_spans, 0);
    // One root for `base`, one for the six-record burst, counted by range.
    assert!(report.acked_writes >= 7, "all 7 acked records leave roots");
    assert!(
        spans.iter().any(|s| s.name == spans::NCL_REPAIR),
        "replacement leaves a repair root span"
    );
    assert!(
        spans
            .iter()
            .any(|s| s.name == spans::NCL_REPAIR_CATCH_UP_PEER && s.scope != "traced/wal"),
        "per-peer repair catch-up span present"
    );
}

#[test]
fn recovery_after_app_crash_traces_start_and_finish() {
    let config = NclConfig::zero();
    let (cluster, controller, registry, _peers) = harness(3, &config);
    let node = cluster.add_node("app");
    {
        let lib = NclLib::new(
            &cluster,
            node,
            "traced",
            config.clone(),
            &controller,
            &registry,
        )
        .expect("instance lock");
        let file = lib.create("wal", 1024).unwrap();
        file.record(0, b"persisted").unwrap();
    }
    cluster.crash(node);

    let node2 = cluster.add_node("app2");
    let lib2 = NclLib::new(
        &cluster,
        node2,
        "traced",
        config.clone(),
        &controller,
        &registry,
    )
    .expect("instance lock");
    let file = lib2.recover("wal").unwrap();
    assert_eq!(file.contents(), b"persisted");

    // Recovery leaves a span tree of its own: a root with the get-peer /
    // connect / rdma-read / catch-up / ap-map phase children, all under one
    // trace id, clean under the analyzer; the root closes at a higher epoch
    // than the ap-map lookup read, and each peer's catch-up says how it
    // was caught up.
    let spans = config.telemetry.spans();
    let root = spans
        .iter()
        .find(|s| s.name == spans::NCL_RECOVER)
        .expect("recovery root span");
    assert_eq!(root.id, root.trace);
    assert_eq!(root.parent, 0);
    assert_eq!(root.scope, "traced/wal");
    for child in [
        spans::NCL_RECOVER_GET_PEER,
        spans::NCL_RECOVER_CONNECT,
        spans::NCL_RECOVER_RDMA_READ,
        spans::NCL_RECOVER_CATCH_UP,
        spans::NCL_RECOVER_AP_MAP,
    ] {
        let c = spans
            .iter()
            .find(|s| s.name == child)
            .unwrap_or_else(|| panic!("missing {child} span"));
        assert_eq!(c.trace, root.trace, "{child} belongs to the recovery trace");
        assert_eq!(c.parent, root.id);
        assert!(c.start_ns >= root.start_ns && c.end_ns <= root.end_ns);
        if child == spans::NCL_RECOVER_GET_PEER {
            assert!(root.epoch > c.epoch, "recovery publishes a higher epoch");
        }
    }
    let per_peer = spans
        .iter()
        .filter(|s| s.name == spans::NCL_RECOVER_CATCH_UP_PEER);
    let copies: Vec<&str> = per_peer.filter_map(|s| s.detail.as_deref()).collect();
    assert_eq!(
        copies, ["tail in place"; 3],
        "append-only peers take their tails in place"
    );
    let report = analyze(&spans, config.quorum());
    assert!(
        report.ok(),
        "trace invariants violated:\n{}",
        report.render()
    );
}

#[test]
fn every_acked_write_leaves_a_complete_span_chain() {
    let config = NclConfig::zero();
    let (cluster, controller, registry, _peers) = harness(3, &config);
    let node = cluster.add_node("app");
    let lib = NclLib::new(
        &cluster,
        node,
        "chain",
        config.clone(),
        &controller,
        &registry,
    )
    .expect("instance lock");
    let file = lib.create("wal", 4096).unwrap();
    let mut last = 0;
    for i in 0..4u64 {
        last = file.record_nowait(i * 8, &[i as u8; 8]).unwrap();
    }
    file.wait_durable(last).unwrap();

    let spans = config.telemetry.spans();
    let roots: Vec<_> = spans
        .iter()
        .filter(|s| s.name == spans::NCL_WRITE)
        .collect();
    assert_eq!(roots.len(), 1, "one root for the burst");
    let root = roots[0];
    assert_eq!(root.id, root.trace);
    assert_eq!(root.parent, 0);
    assert_eq!(root.scope, "chain/wal");
    assert_eq!(root.seq, (last - 3, last), "the root spans all 4 records");
    let children: Vec<_> = spans
        .iter()
        .filter(|s| s.trace == root.trace && s.id != root.id)
        .collect();
    // Stage and doorbell are on the serial path; every child hangs off the
    // root, nests inside it and carries the burst's range.
    for required in [spans::NCL_STAGE, spans::NCL_DOORBELL, spans::NCL_ACK] {
        assert!(
            children.iter().any(|s| s.name == required),
            "trace {} missing {required}",
            root.trace
        );
    }
    for c in &children {
        assert_eq!(c.parent, root.id, "flat tree: children parent the root");
        assert_eq!(c.seq, root.seq, "{} carries the burst's range", c.name);
    }
    // Wire children cover at least the write quorum, one per peer.
    let peers: std::collections::BTreeSet<&str> = children
        .iter()
        .filter(|s| s.name == spans::NCL_WIRE_PEER)
        .map(|s| s.scope)
        .collect();
    assert!(
        peers.len() >= config.quorum(),
        "trace {}: wire coverage {peers:?} below quorum",
        root.trace
    );
    let report = analyze(&spans, config.quorum());
    assert!(
        report.ok(),
        "trace invariants violated:\n{}",
        report.render()
    );
    assert_eq!(report.acked_writes, 4, "counted by the root's range");
    assert_eq!(report.open_writes, 0);
}

#[test]
fn a_committed_burst_is_one_trace_of_seven_spans_and_one_stamp_per_stage() {
    let config = NclConfig::zero();
    let (cluster, controller, registry, _peers) = harness(3, &config);
    let node = cluster.add_node("app");
    let lib = NclLib::new(
        &cluster,
        node,
        "burst",
        config.clone(),
        &controller,
        &registry,
    )
    .expect("instance lock");
    let file = lib.create("wal", 1 << 16).unwrap();
    // A group commit: 16 records, one doorbell, one barrier.
    let seqs: Vec<u64> = (0..16u64)
        .map(|i| file.record_nowait(i * 1024, &[i as u8; 1024]).unwrap())
        .collect();
    file.submit();
    file.wait_durable(seqs[15]).unwrap();

    let spans = config.telemetry.spans();
    let roots: Vec<_> = spans
        .iter()
        .filter(|s| s.name == spans::NCL_WRITE)
        .collect();
    assert_eq!(roots.len(), 1, "one root per burst");
    let (lo, root) = (seqs[0], roots[0]);
    assert_eq!(root.seq, (lo, lo + 15));
    let trace: Vec<_> = spans.iter().filter(|s| s.trace == root.trace).collect();
    let names: Vec<&str> = trace.iter().map(|s| s.name).collect();
    assert_eq!(
        names.len(),
        7,
        "stage, doorbell, 3 wire, ack, root: {names:?}"
    );
    assert_eq!(names.last(), Some(&spans::NCL_WRITE), "root recorded last");

    // Every stage histogram counts records, and the stages' sums partition
    // the end-to-end sum.
    let hist = |stage: &str| {
        let h = config
            .telemetry
            .histogram(&format!("ncl.record.{stage}"))
            .load();
        assert_eq!(h.count(), 16, "ncl.record.{stage} counts records");
        h.sum()
    };
    let parts: u64 = ["stage", "doorbell", "wire", "ack"].map(hist).iter().sum();
    let e2e = hist("e2e");
    assert!(
        parts.abs_diff(e2e) <= 16,
        "Σ stages {parts} ns vs Σ e2e {e2e} ns"
    );
}

/// A zero-latency config whose telemetry mirrors every span to a JSONL file
/// of its own, returned with the file's path.
fn sunk_config(case: &str) -> (NclConfig, PathBuf) {
    let config = NclConfig::zero();
    let dir = std::env::temp_dir().join(format!("ncl-trace-{}-{case}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("spans.jsonl");
    config.telemetry.set_jsonl_sink(&path).unwrap();
    (config, path)
}

/// One file `wal` on a fresh harness of `peers` peers.
fn one_file(peers: usize, config: &NclConfig) -> (Cluster, Vec<Peer>, Controller, Arc<NclFile>) {
    let (cluster, controller, registry, peers) = harness(peers, config);
    let node = cluster.add_node("app");
    let lib = NclLib::new(
        &cluster,
        node,
        "chains",
        config.clone(),
        &controller,
        &registry,
    )
    .expect("instance lock");
    let file = lib.create("wal", 1 << 16).unwrap();
    (cluster, peers, controller, file)
}

/// The record-path spans `tel` holds, once they have been checked span for
/// span against the JSONL sink's lines at `sink` and the Chrome export.
fn record_path(tel: &Telemetry, sink: &Path) -> Vec<Span> {
    let ring: Vec<Span> = tel
        .spans()
        .into_iter()
        .filter(Span::on_record_path)
        .collect();
    let text = std::fs::read_to_string(sink).unwrap();
    let lines = parse_jsonl(&text).unwrap();
    let sunk: Vec<Span> = lines.into_iter().filter(Span::on_record_path).collect();
    assert_eq!(sunk, ring, "the sink's lines are the ring's spans");
    let export = chrome::render(&ring);
    assert_eq!(chrome::validate(&export), Ok(ring.len()));
    for (event, s) in export.lines().skip(1).zip(&ring) {
        let fields = [
            format!("\"name\": \"{}\"", s.name),
            format!("\"tid\": {}", s.trace),
            format!("\"scope\": \"{}\", \"epoch\": {}", s.scope, s.epoch),
            format!("\"seq\": [{}, {}]", s.seq.0, s.seq.1),
            format!("\"span\": {}, \"parent\": {}", s.id, s.parent),
        ];
        for field in fields {
            assert!(event.contains(&field), "{event} lacks {field}");
        }
    }
    std::fs::remove_dir_all(sink.parent().unwrap()).ok();
    ring
}

/// The names of a burst's chain on `peers` covering peers, in order.
fn chain_of(peers: usize) -> Vec<&'static str> {
    let wires = std::iter::repeat_n(spans::NCL_WIRE_PEER, peers);
    let head = [spans::NCL_STAGE, spans::NCL_DOORBELL].into_iter();
    head.chain(wires)
        .chain([spans::NCL_ACK, spans::NCL_WRITE])
        .collect()
}

/// Asserts that `chain` is one burst's whole chain, root last, and returns
/// the scopes of its wire spans.
fn wires_of(chain: &[Span]) -> Vec<&'static str> {
    let root = chain.last().expect("a chain");
    assert!(root.is_root() && root.name == spans::NCL_WRITE, "{chain:?}");
    for s in chain {
        assert_eq!((s.trace, s.seq), (root.trace, root.seq), "{s:?}");
        assert!(s.is_root() || s.parent == root.id, "{s:?}");
        assert!(
            root.start_ns <= s.start_ns && s.end_ns <= root.end_ns,
            "{s:?}"
        );
    }
    let wires = chain.iter().filter(|s| s.name == spans::NCL_WIRE_PEER);
    wires.map(|s| s.scope).collect()
}

#[test]
fn two_pipelined_bursts_retired_by_one_drain_are_two_whole_chains() {
    let (config, sink) = sunk_config("pipelined");
    let (_cluster, _peers, _controller, file) = one_file(3, &config);
    let mut last = 0;
    for burst in 0..2u64 {
        for i in 0..4u64 {
            last = file.record_nowait((burst * 4 + i) * 64, &[7; 64]).unwrap();
        }
        file.submit();
    }
    // Both bursts landed with their posts; the barrier's one drain retires
    // them together.
    file.wait_durable(last).unwrap();

    let spans = record_path(&config.telemetry, &sink);
    assert_eq!(spans.len(), 14, "{spans:?}");
    let (first, second) = spans.split_at(7);
    for (chain, seq) in [(first, (last - 7, last - 4)), (second, (last - 3, last))] {
        let names: Vec<&str> = chain.iter().map(|s| s.name).collect();
        assert_eq!(names, chain_of(3));
        assert_eq!(wires_of(chain).len(), 3);
        assert_eq!(chain[6].seq, seq);
    }
    assert_eq!(first[6].end_ns, second[6].end_ns, "one drain's instant");
    assert!(first[6].trace < second[6].trace);
    let report = analyze(&config.telemetry.spans(), config.quorum());
    assert!(report.ok(), "{}", report.render());
    assert_eq!(report.acked_writes, 8);
}

#[test]
fn an_erasure_coded_burst_has_one_wire_span_per_fragment() {
    let (mut config, sink) = sunk_config("ec");
    config.durability = Durability::Ec { k: 4, n: 6 };
    config.spill = Some(Arc::new(MemSpillSink::new()));
    let (_cluster, _peers, _controller, file) = one_file(6, &config);
    let mut last = 0;
    for i in 0..4u64 {
        last = file.record_nowait(i * 256, &[i as u8; 256]).unwrap();
    }
    file.fsync().unwrap();

    let spans = record_path(&config.telemetry, &sink);
    let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    assert_eq!(names, chain_of(6), "acked at all six headers");
    let mut wires = wires_of(&spans);
    wires.sort_unstable();
    wires.dedup();
    assert_eq!(wires.len(), 6, "six distinct peers");
    assert_eq!(spans[9].seq, (last - 3, last));
    let report = analyze(&config.telemetry.spans(), config.quorum());
    assert!(report.ok(), "{}", report.render());
}

#[test]
fn a_header_landing_after_the_quorum_retired_the_burst_leaves_no_wire_span() {
    use sim::{Binding, FaultAction, FaultPlan, FaultScheduler, Trigger};
    let (config, sink) = sunk_config("late");
    let (cluster, peers, controller, file) = one_file(3, &config);
    file.record(0, b"warm").unwrap();
    let late = file.peer_names()[2].clone();
    let node = |name: &str| peers.iter().find(|p| p.name() == name).unwrap().node();
    let binding = Binding {
        peers: vec![node(&late)],
        controller: controller.node(),
        app: cluster.add_node("fault-app"),
    };
    // The next record's data and header to one peer each take 1 ms on its
    // wire; the other two land with their posts.
    let slow = FaultAction::SlowPeer {
        peer: 0,
        per_wr_us: 1_000,
        wrs: 2,
    };
    let plan = FaultPlan::new(1).push(Trigger::Step(1), slow);
    cluster.install_faults(FaultScheduler::new(&plan, binding));
    file.record(4, b"late").unwrap();
    // Its header lands after the quorum retired the burst, and the drain
    // that absorbs it records nothing.
    std::thread::sleep(Duration::from_millis(5));
    assert!(!file.maintain().unwrap(), "late is not dead");
    cluster.clear_faults();

    let spans = record_path(&config.telemetry, &sink);
    let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    let mut expected = chain_of(3);
    expected.extend(chain_of(2));
    assert_eq!(names, expected);
    let (warm, slowed) = spans.split_at(7);
    assert!(wires_of(warm).contains(&late.as_str()));
    let covered = wires_of(slowed);
    assert!(!covered.contains(&late.as_str()), "{covered:?}");
    assert_eq!(file.peer_names().len(), 3);
    let report = analyze(&config.telemetry.spans(), config.quorum());
    assert!(report.ok(), "{}", report.render());
}

#[test]
fn a_span_capacity_evicts_whole_bursts_and_counts_their_spans() {
    let (config, sink) = sunk_config("capacity");
    config.telemetry.set_span_capacity(20);
    let (_cluster, _peers, _controller, file) = one_file(3, &config);
    for i in 0..5u64 {
        file.record(i * 8, &[i as u8; 8]).unwrap();
    }
    let tel = &config.telemetry;
    // Seven spans a burst: the third evicts the first whole, and so on.
    assert_eq!(tel.trace_dropped(), 21);
    let ring: Vec<Span> = tel
        .spans()
        .into_iter()
        .filter(Span::on_record_path)
        .collect();
    assert_eq!(ring.len(), 14);
    for (chain, seq) in ring.chunks(7).zip([4, 5]) {
        assert_eq!(wires_of(chain).len(), 3);
        assert_eq!(chain[6].seq, (seq, seq));
    }
    assert!(tel.spans().iter().any(|s| s.name == spans::TRACE_TRUNCATED));
    // The sink never drops: all five chains are there.
    let text = std::fs::read_to_string(&sink).unwrap();
    let sunk = parse_jsonl(&text).unwrap();
    let roots = sunk.iter().filter(|s| s.name == spans::NCL_WRITE).count();
    assert_eq!(roots, 5);
    std::fs::remove_dir_all(sink.parent().unwrap()).ok();
}
