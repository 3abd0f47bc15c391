//! The control path's one clock: `create`, `recover` and `replace_failed`
//! each time a phase once, as a child span of one root. The direct children
//! of every root are contiguous and add up to it to the nanosecond, and the
//! file's `RecoveryStats` / `RepairStats` are the sums of their same-named
//! children — on the replicated and the erasure-coded path, and through a
//! recovery that must replace a peer that did not respond. With telemetry
//! off there are no spans, and the stats still carry the modelled cost.

use std::sync::Arc;
use std::time::{Duration, Instant};

use splitft::ncl::file::{RecoveryStats, RepairStats};
use splitft::ncl::{Controller, Durability, MemSpillSink, NclConfig, NclLib, NclRegistry, Peer};
use splitft::sim::{Cluster, LatencyModel};
use telemetry::analyze::analyze;
use telemetry::{spans, Span, Telemetry};

/// What one drill leaves behind.
struct Drill {
    repair: RepairStats,
    recovery: RecoveryStats,
    spans: Vec<Span>,
}

/// create → records → one assigned peer crashes → inline repair → the app
/// crashes and a second assigned peer with it → recover, which reads from
/// the two survivors and acquires a spare for the peer that did not respond.
fn drill(durability: Durability, config: NclConfig) -> Drill {
    let config = NclConfig {
        durability,
        spill: Some(Arc::new(MemSpillSink::new())),
        ..config
    };
    config.telemetry.set_span_capacity(1 << 20);
    let cluster = Cluster::new();
    let controller = Controller::start_with_telemetry(&cluster, config.telemetry.clone());
    let registry = NclRegistry::with_telemetry(config.telemetry.clone());
    let peers: Vec<Peer> = (0..5)
        .map(|i| {
            let name = format!("p{i}");
            Peer::start(&cluster, &name, 64 << 20, &config, &controller, &registry)
        })
        .collect();
    let node_of = |name: &str| peers.iter().find(|p| p.name() == name).unwrap().node();
    let app = cluster.add_node("app");
    let repair = {
        let lib = NclLib::new(
            &cluster,
            app,
            "spans",
            config.clone(),
            &controller,
            &registry,
        )
        .expect("instance lock");
        let file = lib.create("wal", 1 << 16).unwrap();
        for i in 0..8u64 {
            file.record(i * 64, &[i as u8 + 1; 64]).unwrap();
        }
        let victim = file.peer_names()[0].clone();
        cluster.crash(node_of(&victim));
        file.record(8 * 64, b"trips the repair").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while file.peer_names().contains(&victim) {
            assert!(Instant::now() < deadline, "{victim} never replaced");
            let _ = file.maintain();
            std::thread::sleep(Duration::from_millis(1));
        }
        cluster.crash(node_of(&file.peer_names()[1]));
        file.repair_stats()
    };
    cluster.crash(app);
    let app2 = cluster.add_node("app2");
    let lib = NclLib::new(
        &cluster,
        app2,
        "spans",
        config.clone(),
        &controller,
        &registry,
    )
    .expect("instance lock");
    let file = lib.recover("wal").unwrap();
    assert_eq!(file.read(8 * 64, 16), b"trips the repair");
    assert_eq!(file.peer_names().len(), 3, "the non-responder was replaced");
    Drill {
        repair,
        recovery: file.recovery_stats(),
        spans: config.telemetry.spans(),
    }
}

/// The one root named `root`, checked to be partitioned by its direct
/// children: the first starts with the root, each next one where the
/// previous ended, the last ends with it. Returns the children.
fn partitioned<'a>(spans: &'a [Span], root: &str) -> Vec<&'a Span> {
    let roots: Vec<&Span> = spans.iter().filter(|s| s.name == root).collect();
    assert_eq!(roots.len(), 1, "one {root} root");
    let root = roots[0];
    assert!(root.is_root(), "{root:?}");
    let mut children: Vec<&Span> = spans
        .iter()
        .filter(|s| s.trace == root.trace && s.parent == root.id)
        .collect();
    children.sort_by_key(|s| (s.start_ns, s.end_ns));
    assert!(!children.is_empty(), "{} has children", root.name);
    let mut at = root.start_ns;
    for c in &children {
        assert_eq!(
            c.start_ns, at,
            "{}: {} starts where the last ended",
            root.name, c.name
        );
        assert!(
            c.name.starts_with(root.name),
            "{} under {}",
            c.name,
            root.name
        );
        at = c.end_ns;
    }
    assert_eq!(
        at, root.end_ns,
        "{}: the last child ends the root",
        root.name
    );
    let sum: u64 = children.iter().map(|c| c.duration_ns()).sum();
    assert_eq!(sum, root.duration_ns(), "{}: Σ children == root", root.name);
    children
}

/// Σ of the children named `name`, which must match `stat` (±1 ns).
fn matches(children: &[&Span], name: &str, stat: Duration) {
    let sum: u64 = children
        .iter()
        .filter(|c| c.name == name)
        .map(|c| c.duration_ns())
        .sum();
    let stat = stat.as_nanos() as u64;
    assert!(
        sum.abs_diff(stat) <= 1,
        "{name}: spans {sum} ns, stats {stat} ns"
    );
}

#[test]
fn control_path_spans_partition_their_roots_and_are_the_stats() {
    for durability in [Durability::Replicated, Durability::Ec { k: 2, n: 3 }] {
        let label = durability.label();
        let d = drill(durability, NclConfig::zero());

        let create = partitioned(&d.spans, spans::NCL_CREATE);
        assert!(
            create
                .iter()
                .any(|c| c.name == spans::NCL_CREATE_CONNECT_MR),
            "{label}"
        );
        assert!(
            create.iter().any(|c| c.name == spans::NCL_CREATE_SEED),
            "{label}: every create seeds"
        );

        let repair = partitioned(&d.spans, spans::NCL_REPAIR);
        assert_eq!(repair[0].name, spans::NCL_REPAIR_FLUSH, "{label}");
        matches(&repair, spans::NCL_REPAIR_GET_PEER, d.repair.get_peer);
        matches(&repair, spans::NCL_REPAIR_CONNECT_MR, d.repair.connect_mr);
        matches(&repair, spans::NCL_REPAIR_CATCH_UP, d.repair.catch_up);
        matches(&repair, spans::NCL_REPAIR_AP_MAP, d.repair.update_ap_map);

        let recover = partitioned(&d.spans, spans::NCL_RECOVER);
        let r = d.recovery;
        matches(&recover, spans::NCL_RECOVER_GET_PEER, r.get_peer);
        matches(&recover, spans::NCL_RECOVER_CONNECT, r.connect);
        matches(&recover, spans::NCL_RECOVER_RDMA_READ, r.rdma_read);
        matches(&recover, spans::NCL_RECOVER_CATCH_UP, r.catch_up);
        matches(&recover, spans::NCL_RECOVER_AP_MAP, r.update_ap_map);
        assert_eq!(r.sync_peer, r.catch_up + r.update_ap_map, "{label}");
        // The fresh-peer path ran: a second controller round for the spare.
        let rounds = recover
            .iter()
            .filter(|c| c.name == spans::NCL_RECOVER_GET_PEER);
        assert_eq!(
            rounds.count(),
            2,
            "{label}: ap-map lookup + one replacement"
        );

        // Every per-peer catch-up hangs off a `catch_up` phase of its own
        // trace: two survivors and the spare on recovery, one on repair.
        for (phases, peer, n) in [
            (&recover, spans::NCL_RECOVER_CATCH_UP_PEER, 3),
            (&repair, spans::NCL_REPAIR_CATCH_UP_PEER, 1),
        ] {
            let per_peer: Vec<&Span> = d.spans.iter().filter(|s| s.name == peer).collect();
            assert_eq!(per_peer.len(), n, "{label}: {peer}");
            for s in per_peer {
                let parent = phases
                    .iter()
                    .find(|c| c.id == s.parent)
                    .expect("parent phase");
                assert!(
                    parent.name.ends_with(".catch_up"),
                    "{label}: {}",
                    parent.name
                );
                assert!(s.scope.starts_with('p'), "{label}: scope is the peer");
            }
        }
        let report = analyze(&d.spans, 2);
        assert!(report.ok(), "{label}:\n{}", report.render());
        assert_eq!(report.orphan_spans, 0, "{label}");
    }
}

#[test]
fn the_stats_do_not_depend_on_the_spans() {
    let mut config = NclConfig::zero();
    config.control = LatencyModel::from_nanos(200_000, 0.0);
    let rpc = config.control.cost(0);
    for tel in [Telemetry::disabled(), Telemetry::new()] {
        let traced = tel.is_enabled();
        let d = drill(
            Durability::Replicated,
            NclConfig {
                telemetry: tel,
                ..config.clone()
            },
        );
        assert_eq!(d.spans.is_empty(), !traced);
        assert!(d.recovery.get_peer >= rpc, "{:?}", d.recovery);
        assert!(d.repair.get_peer >= rpc, "{:?}", d.repair);
        if traced {
            let recover = partitioned(&d.spans, spans::NCL_RECOVER);
            matches(&recover, spans::NCL_RECOVER_GET_PEER, d.recovery.get_peer);
            let repair = partitioned(&d.spans, spans::NCL_REPAIR);
            matches(&repair, spans::NCL_REPAIR_GET_PEER, d.repair.get_peer);
        }
    }
}
