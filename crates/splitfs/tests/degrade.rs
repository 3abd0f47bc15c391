//! Quorum-loss degradation: when more than `f` log peers die and no spares
//! exist, the facade must keep accepting writes by falling back to
//! direct-DFS strong mode, and must re-attach to NCL (replaying the shadow
//! journal) once a fresh peer set can be assembled. Each of the three ways
//! back — the probe, the rebuild at open and the replay at open — replays
//! the journal as one burst under one replay span.

use std::time::Duration;

use splitfs::{FsError, Mode, OpenOptions, Testbed, TestbedConfig};
use telemetry::{spans, Telemetry};

fn quick_timeout_config(peers: usize) -> TestbedConfig {
    let mut cfg = TestbedConfig::zero(peers);
    // Quorum loss should trip the fallback quickly, not after 5 s.
    cfg.ncl.write_timeout = Duration::from_millis(300);
    cfg
}

/// Crashes every assigned peer except one (losing the `f + 1` quorum) and
/// returns how many were crashed.
fn crash_all_but_one(tb: &Testbed, peer_names: &[String]) -> usize {
    let mut crashed = 0;
    for name in peer_names.iter().skip(1) {
        let peer = tb.peer_named(name).expect("assigned peer exists");
        tb.cluster.crash(peer.node());
        crashed += 1;
    }
    crashed
}

/// Asserts the trace holds exactly one `splitfs.reattach.replay` span and,
/// starting inside it, exactly one `ncl.write` root whose records are the
/// `frames` replayed: the replay staged them all and waited once.
fn assert_one_replay_burst(tel: &Telemetry, frames: u64) {
    let all = tel.spans();
    let replays: Vec<_> = all
        .iter()
        .filter(|s| s.name == spans::FS_REATTACH_REPLAY)
        .collect();
    assert_eq!(replays.len(), 1, "one replay span: {replays:?}");
    let replay = replays[0];
    let roots: Vec<_> = all
        .iter()
        .filter(|s| s.name == spans::NCL_WRITE && s.parent == 0 && s.scope == replay.scope)
        .filter(|s| (replay.start_ns..=replay.end_ns).contains(&s.start_ns))
        .collect();
    assert_eq!(roots.len(), 1, "the replay is one burst: {roots:?}");
    let (lo, hi) = roots[0].seq;
    assert_eq!(
        hi + 1 - lo,
        frames,
        "the burst covers every frame: {roots:?}"
    );
}

#[test]
fn quorum_loss_degrades_and_reattaches_with_fresh_peers() {
    let mut tb = Testbed::start(quick_timeout_config(3));
    let (fs, app_node) = tb.mount(Mode::SplitFt, "degrade");
    let f = fs.open("wal", OpenOptions::create_ncl(1 << 16)).unwrap();
    f.write_at(0, b"before-loss").unwrap();

    // Lose the quorum: 2 of the 3 assigned peers die, no spares exist.
    let names = f.ncl_handle().unwrap().peer_names();
    assert_eq!(crash_all_but_one(&tb, &names), 2);

    // The next write cannot assemble a majority; instead of failing, the
    // facade degrades to the DFS shadow journal and acknowledges.
    let off = f.size().unwrap();
    f.write_at(off, b"|during-loss").unwrap();
    assert!(f.is_degraded(), "quorum loss must engage the fallback");
    assert_eq!(fs.telemetry().counter("splitfs.fallback.engaged").get(), 1);

    // While degraded, no record is ever acknowledged through NCL: the log's
    // issue and durability watermarks freeze while the fallback counter and
    // the overlay keep advancing.
    let ncl = f.ncl_handle().unwrap().clone();
    let (frozen_seq, frozen_durable) = (ncl.seq(), ncl.durable_seq());
    let records_before = fs.telemetry().counter("splitfs.fallback.records").get();
    let off = f.size().unwrap();
    f.write_at(off, b"|still-degraded").unwrap();
    f.fsync().unwrap();
    assert_eq!(ncl.seq(), frozen_seq, "degraded write leaked into NCL");
    assert_eq!(
        ncl.durable_seq(),
        frozen_durable,
        "NCL acked while degraded"
    );
    assert!(fs.telemetry().counter("splitfs.fallback.records").get() > records_before);

    // Reads and sizes stay coherent through the overlay.
    let size = f.size().unwrap();
    let image = f.read(0, size as usize).unwrap();
    assert_eq!(image, b"before-loss|during-loss|still-degraded");

    // Publish fresh capacity and let the probe re-attach.
    tb.add_peer("spare-a");
    tb.add_peer("spare-b");
    let reattach_deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        std::thread::sleep(tb.config().ncl.reattach_probe);
        let off = f.size().unwrap();
        f.write_at(off, b".").unwrap();
        if !f.is_degraded() {
            break;
        }
        assert!(
            std::time::Instant::now() < reattach_deadline,
            "fallback never re-attached after fresh peers were published"
        );
    }
    assert_eq!(fs.telemetry().counter("splitfs.fallback.reattach").get(), 1);
    let degraded = fs.telemetry().counter("splitfs.fallback.records").get();
    assert_one_replay_burst(fs.telemetry(), degraded);

    // Fact ordering: engage strictly before re-attach, and the re-attach
    // runs at a bumped epoch (the replacement's fence).
    let facts = fs.telemetry().spans();
    let engage = facts
        .iter()
        .position(|s| s.name == spans::DFS_FALLBACK_ENGAGE)
        .expect("engage fact");
    let reattach = facts
        .iter()
        .position(|s| s.name == spans::NCL_REATTACH)
        .expect("re-attach fact");
    assert!(engage < reattach, "engage must precede re-attach");
    assert!(
        facts[reattach].epoch > facts[engage].epoch,
        "re-attach must carry a bumped epoch ({} vs {})",
        facts[reattach].epoch,
        facts[engage].epoch
    );

    // Everything acknowledged — through NCL or the fallback — survives an
    // application crash and a recovery on a fresh node.
    let expected = {
        let size = f.size().unwrap();
        f.read(0, size as usize).unwrap()
    };
    tb.cluster.crash(app_node);
    drop(f);
    drop(fs);
    let (fs2, _) = tb.mount(Mode::SplitFt, "degrade");
    let f2 = fs2.open("wal", OpenOptions::create_ncl(1 << 16)).unwrap();
    let size = f2.size().unwrap();
    assert_eq!(f2.read(0, size as usize).unwrap(), expected);
}

#[test]
fn crash_while_degraded_replays_the_shadow_journal_at_open() {
    let tb = Testbed::start(quick_timeout_config(3));
    let (fs, app_node) = tb.mount(Mode::SplitFt, "degrade-crash");
    let f = fs.open("wal", OpenOptions::create_ncl(1 << 16)).unwrap();
    f.write_at(0, b"ncl-data").unwrap();

    let names = f.ncl_handle().unwrap().peer_names();
    assert_eq!(crash_all_but_one(&tb, &names), 2);
    let off = f.size().unwrap();
    f.write_at(off, b"|journal-only").unwrap();
    assert!(f.is_degraded());

    // Crash the application while still degraded: the journal (not the log)
    // holds the tail. The crashed peers lost their regions (DRAM), so NCL
    // recovery alone cannot find a quorum — the open must rebuild the log
    // from the shadow journal on a fresh peer set. Restarting the peers
    // provides that capacity, not the lost regions.
    tb.cluster.crash(app_node);
    drop(f);
    drop(fs);
    for name in names.iter().skip(1) {
        tb.cluster
            .restart(tb.peer_named(name).expect("peer").node());
    }

    let (fs2, _) = tb.mount(Mode::SplitFt, "degrade-crash");
    let f2 = fs2.open("wal", OpenOptions::create_ncl(1 << 16)).unwrap();
    let size = f2.size().unwrap();
    assert_eq!(f2.read(0, size as usize).unwrap(), b"ncl-data|journal-only");
    assert!(!f2.is_degraded());
    // The replay is reported as a re-attach on the recovering mount's trace.
    assert!(fs2
        .telemetry()
        .spans()
        .iter()
        .any(|s| s.name == spans::NCL_REATTACH));
    // The engage-time snapshot and the one degraded record.
    assert_one_replay_burst(fs2.telemetry(), 2);
}

#[test]
fn crash_while_degraded_behind_a_partition_replays_the_journal_into_the_recovered_log() {
    let tb = Testbed::start(quick_timeout_config(3));
    let (fs, app_node) = tb.mount(Mode::SplitFt, "degrade-partition");
    let f = fs.open("wal", OpenOptions::create_ncl(1 << 16)).unwrap();
    f.write_at(0, b"ncl-data").unwrap();

    // Cut the application off from 2 of its 3 peers: they keep their
    // regions, but the log cannot reach a quorum.
    let names = f.ncl_handle().unwrap().peer_names();
    let cut: Vec<_> = names
        .iter()
        .skip(1)
        .map(|name| tb.peer_named(name).expect("assigned peer exists").node())
        .collect();
    for &peer in &cut {
        tb.cluster.partition(app_node, peer);
    }
    f.write_at(8, b"|journal-only").unwrap();
    assert!(f.is_degraded());
    f.write_at(21, b"|more").unwrap();

    // Crash while degraded, then heal: NCL recovery finds its quorum, and
    // the open replays the leftover journal on top of the recovered log.
    tb.cluster.crash(app_node);
    drop(f);
    drop(fs);
    for &peer in &cut {
        tb.cluster.heal(app_node, peer);
    }
    let (fs2, _) = tb.mount(Mode::SplitFt, "degrade-partition");
    let f2 = fs2.open("wal", OpenOptions::create_ncl(1 << 16)).unwrap();
    assert!(fs2.last_ncl_recovery().is_some(), "recovered, not rebuilt");
    let size = f2.size().unwrap();
    assert_eq!(
        f2.read(0, size as usize).unwrap(),
        b"ncl-data|journal-only|more"
    );
    assert!(!f2.is_degraded());
    assert_eq!(
        fs2.telemetry().counter("splitfs.fallback.reattach").get(),
        1
    );
    // The engage-time snapshot and the two degraded records.
    assert_one_replay_burst(fs2.telemetry(), 3);
}

#[test]
fn a_degraded_write_past_capacity_is_refused_and_the_route_reattaches() {
    let mut tb = Testbed::start(quick_timeout_config(3));
    let (fs, _) = tb.mount(Mode::SplitFt, "degrade-capacity");
    let f = fs.open("wal", OpenOptions::create_ncl(64)).unwrap();
    f.write_at(0, &[b'x'; 60]).unwrap();

    let names = f.ncl_handle().unwrap().peer_names();
    assert_eq!(crash_all_but_one(&tb, &names), 2);
    f.write_at(60, b"ab").unwrap();
    assert!(f.is_degraded());

    // NCL would refuse this record, so the fallback must too: the journal
    // only holds what a re-attach can replay.
    match f.write_at(62, b"past") {
        Err(FsError::CapacityExceeded(_)) => {}
        other => panic!("a write past capacity must be refused, got {other:?}"),
    }
    assert_eq!(f.size().unwrap(), 62);

    tb.add_peer("spare-a");
    tb.add_peer("spare-b");
    // Probe through `fsync`: another write would run past capacity.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while f.is_degraded() {
        assert!(
            std::time::Instant::now() < deadline,
            "fallback never re-attached after fresh peers were published"
        );
        std::thread::sleep(tb.config().ncl.reattach_probe);
        f.fsync().unwrap();
    }
    assert_one_replay_burst(fs.telemetry(), 1);
    let mut expected = vec![b'x'; 60];
    expected.extend_from_slice(b"ab");
    assert_eq!(f.read(0, 64).unwrap(), expected);
}
