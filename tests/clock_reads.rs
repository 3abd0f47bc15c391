//! Tier-1 pin of the record path's clock reads, counted the way `lockaudit`
//! counts locks: `Instant::now()` costs tens of nanoseconds, a synchronous
//! 128-B record is a few microseconds, and a read that asks for an answer
//! the thread already holds is pure host time. Every read on the record path
//! goes through `sim::time::now()`; the polls inside a wait loop are the
//! wait and are not counted. The counts repeat exactly, so they are asserted
//! exactly wherever the model does not make them depend on timing.

use std::time::{Duration, Instant};

use splitft::ncl::{NclConfig, NclLib};
use splitft::rdma::{CompletionQueue, QueuePair, RdmaDevice, WorkRequest, WrId};
use splitft::sim::{self, Cluster, LatencyModel};
use splitft::splitfs::{Testbed, TestbedConfig};

/// Clock reads of one steady-state synchronous 128-B `record` on a
/// three-peer testbed configured by `ncl`.
fn reads_per_record(ncl: NclConfig) -> u64 {
    let mut cfg = TestbedConfig::zero(3);
    cfg.ncl = ncl;
    let tb = Testbed::start(cfg);
    let node = tb.add_app_node("clock-app");
    let lib = NclLib::new(
        &tb.cluster,
        node,
        "clock-app",
        tb.config().ncl.clone(),
        &tb.controller,
        &tb.registry,
    )
    .unwrap();
    let file = lib.create("wal", 1 << 20).unwrap();
    let payload = [7u8; 128];
    for i in 0..8u64 {
        file.record(i * 128, &payload).unwrap();
    }
    let (result, reads) = sim::time::audited(|| file.record(8 * 128, &payload));
    result.unwrap();
    reads
}

#[test]
fn a_zero_latency_record_reads_the_clock_three_times() {
    // Entry (a free local copy is staged at its entry reading), the flush
    // instant (the doorbell stage's end, the detector's `touch`, every
    // peer's `post_many_at`) and the drain instant. A flight that takes no
    // modelled time lands with its post, so the barrier finds nothing in
    // the air, does not wait, and its one drain finds the record durable:
    // the deadline is never computed.
    assert_eq!(reads_per_record(NclConfig::zero()), 3);
}

#[test]
fn with_telemetry_off_only_the_flush_and_the_drain_read_the_clock() {
    let mut ncl = NclConfig::zero();
    ncl.telemetry = telemetry::Telemetry::disabled();
    assert_eq!(reads_per_record(ncl), 2);
}

#[test]
fn a_calibrated_record_reads_the_clock_at_most_five_times() {
    // Entry, which also starts the local copy's wait (the reading that wait
    // ends on is the staged instant, and a wait's polls are not counted),
    // the flush instant and the entry read of the barrier's one wait:
    // three. No post reads the clock (below), and the drain happens at the
    // reading the wait ended on. A fourth is the entry read of the wait's
    // spin, when the first `due` is still ahead of the posts' own CPU (an
    // optimised build). The headers land 20 ns behind the data: a fifth is
    // the drain asking again when the wait's last reading fell between the
    // two and left them in the air.
    let reads = reads_per_record(NclConfig::calibrated());
    assert!((3..=5).contains(&reads), "{reads} clock reads");
}

#[test]
fn a_doorbell_rung_at_a_known_instant_reads_no_clock() {
    let cluster = Cluster::new();
    let app = cluster.add_node("app");
    let cq = CompletionQueue::new();
    let qps: Vec<_> = (0..3)
        .map(|i| {
            let peer = cluster.add_node(format!("peer{i}"));
            let dev = RdmaDevice::new(cluster.clone(), peer, LatencyModel::ZERO);
            let (_local, mr) = dev.register_mr(256).unwrap();
            let lat = LatencyModel::rdma_write();
            (
                QueuePair::connect(cluster.clone(), app, &dev, cq.clone(), lat),
                mr,
            )
        })
        .collect();
    let t = Instant::now();
    for (qp, mr) in &qps {
        let wrs = [128usize, 64].map(|len| WorkRequest::Write {
            wr_id: WrId(len as u64),
            mr: *mr,
            offset: 0,
            data: vec![7u8; len].into(),
        });
        let (result, reads) = sim::time::audited(|| qp.post_many_at(t, &wrs));
        result.unwrap();
        assert_eq!(reads, 0, "applied and priced, not waited for");
    }
    // All six fly from `t`; nobody waited inside a post.
    assert_eq!(cq.next_due(), Some(t + Duration::from_nanos(1_540)));
}
