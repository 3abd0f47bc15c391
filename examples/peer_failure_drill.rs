//! Peer failure drill: watch NCL ride through log-peer failures.
//!
//! Walks through §4.5.2 of the paper interactively: a peer crash during
//! writes (inline replacement), memory revocation by a peer under pressure,
//! loss of a majority (writes block until replacements restore a quorum),
//! and the epoch-based garbage collection of leaked regions.
//!
//! Run with: `cargo run --release --example peer_failure_drill`

use splitft::ncl::NclLib;
use splitft::splitfs::{Testbed, TestbedConfig};

fn main() {
    let mut tb = Testbed::start(TestbedConfig::calibrated(5));
    let node = tb.add_app_node("drill-app");
    let ncl = NclLib::new(
        &tb.cluster,
        node,
        "drill",
        tb.config().ncl.clone(),
        &tb.controller,
        &tb.registry,
    )
    .unwrap();

    let file = ncl.create("wal", 1 << 20).unwrap();
    file.record(0, b"first-batch;").unwrap();
    println!(
        "initial peers: {:?} (epoch {})",
        file.peer_names(),
        file.epoch()
    );

    // 1. Crash one assigned peer; the next record replaces it inline.
    let victim = file.peer_names()[0].clone();
    tb.cluster.crash(tb.peer_named(&victim).unwrap().node());
    println!("\n-- crash peer {victim} --");
    file.record(12, b"second-batch;").unwrap();
    println!(
        "write still acknowledged; peers now {:?} (epoch {})",
        file.peer_names(),
        file.epoch()
    );
    let repair = file.repair_stats();
    println!(
        "replacement: get-peer {:?}, connect+MR {:?}, catch-up {:?}, ap-map {:?}",
        repair.get_peer, repair.connect_mr, repair.catch_up, repair.update_ap_map
    );

    // 2. A peer revokes its memory under local pressure (§4.5.2).
    let revoker_name = file.peer_names()[0].clone();
    let revoker = tb.peer_named(&revoker_name).unwrap();
    println!("\n-- peer {revoker_name} revokes its region (memory pressure) --");
    assert!(revoker.revoke("drill", "wal"));
    file.record(25, b"third-batch;").unwrap();
    println!(
        "treated as a peer failure and replaced: peers now {:?}",
        file.peer_names()
    );

    // 3. Lose a majority: writes block until a quorum is restored — here a
    //    freshly registered peer makes replacement possible.
    let names = file.peer_names();
    println!(
        "\n-- crash TWO peers simultaneously ({} and {}) --",
        names[0], names[1]
    );
    tb.cluster.crash(tb.peer_named(&names[0]).unwrap().node());
    tb.cluster.crash(tb.peer_named(&names[1]).unwrap().node());
    tb.add_peer("reinforcement");
    let sw = std::time::Instant::now();
    file.record(37, b"fourth-batch;").unwrap();
    println!(
        "write blocked {:?} while NCL restored a quorum; peers now {:?}",
        sw.elapsed(),
        file.peer_names()
    );

    // 4. Everything is still recoverable after an app crash on top.
    tb.cluster.crash(node);
    drop(file);
    drop(ncl);
    let node2 = tb.add_app_node("drill-app-2");
    let ncl2 = NclLib::new(
        &tb.cluster,
        node2,
        "drill",
        tb.config().ncl.clone(),
        &tb.controller,
        &tb.registry,
    )
    .unwrap();
    let recovered = ncl2.recover("wal").unwrap();
    println!(
        "\nrecovered after app crash: {:?}",
        String::from_utf8_lossy(&recovered.contents())
    );
    assert_eq!(
        recovered.contents(),
        b"first-batch;second-batch;third-batch;fourth-batch;"
    );

    // 5. Restarted peers garbage-collect their stale regions via epochs.
    for peer in &tb.peers {
        if !tb.cluster.is_alive(peer.node()) {
            tb.cluster.restart(peer.node());
        }
        let freed = peer.gc_sweep();
        if freed > 0 {
            println!("peer {} reclaimed {freed} stale region(s)", peer.name());
        }
    }
    println!("\ndrill complete — every acknowledged write survived");
}
