//! Tier-1 pin of the record path's clock reads, counted the way `lockaudit`
//! counts locks: `Instant::now()` costs tens of nanoseconds, a synchronous
//! 128-B record is a few microseconds, and a read that asks for an answer
//! the thread already holds is pure host time. Every read on the record path
//! goes through `sim::time::now()`; the polls inside a wait loop are the
//! wait and are not counted. The counts repeat exactly, so they are asserted
//! exactly wherever the model does not make them depend on timing.

use std::time::Instant;

use splitft::ncl::{NclConfig, NclLib};
use splitft::rdma::{CompletionQueue, QueuePair, RdmaDevice, WorkRequest, WrId};
use splitft::sim::{self, Cluster, LatencyModel};
use splitft::splitfs::{Testbed, TestbedConfig};

/// Clock reads of one steady-state synchronous 128-B `record` on a
/// three-peer inline-NIC testbed configured by `ncl`.
fn reads_per_record(mut ncl: NclConfig) -> u64 {
    ncl.inline_nic = true;
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
fn a_zero_latency_record_reads_the_clock_four_times() {
    // Entry, staged, the flush instant (doorbell spans, the detector's
    // `touch`, every peer's `post_many_at`) and the drain instant. The
    // barrier's deadline is never computed: the first drain finds the
    // record durable.
    assert_eq!(reads_per_record(NclConfig::zero()), 4);
}

#[test]
fn with_telemetry_off_only_the_flush_and_the_drain_read_the_clock() {
    let mut ncl = NclConfig::zero();
    ncl.telemetry = telemetry::Telemetry::disabled();
    assert_eq!(reads_per_record(ncl), 2);
}

#[test]
fn a_calibrated_record_reads_the_clock_at_most_seven_times() {
    // The four above, the local copy's `delay`, and the first peer's data
    // flight. Its header lands 20 ns behind the data: whether the data
    // wait's last poll already covered it depends on the poll, hence the
    // bound. The second and third peers' flights read nothing (below).
    let reads = reads_per_record(NclConfig::calibrated());
    assert!((6..=7).contains(&reads), "{reads} clock reads");
}

#[test]
fn doorbells_behind_the_first_of_an_instant_read_no_clock() {
    let cluster = Cluster::new();
    let app = cluster.add_node("app");
    let cq = CompletionQueue::new();
    let qps: Vec<_> = (0..3)
        .map(|i| {
            let peer = cluster.add_node(format!("peer{i}"));
            let dev = RdmaDevice::new(cluster.clone(), peer, LatencyModel::ZERO);
            let (_local, mr) = dev.register_mr(256).unwrap();
            let lat = LatencyModel::rdma_write();
            let qp =
                QueuePair::connect_with_mode(cluster.clone(), app, &dev, cq.clone(), lat, true);
            (qp, mr)
        })
        .collect();
    let t = Instant::now();
    let reads: Vec<u64> = qps
        .iter()
        .map(|(qp, mr)| {
            let wrs = [128usize, 64].map(|len| WorkRequest::Write {
                wr_id: WrId(len as u64),
                mr: *mr,
                offset: 0,
                data: vec![7u8; len].into(),
            });
            let (result, reads) = sim::time::audited(|| qp.post_many_at(t, &wrs));
            result.unwrap();
            reads
        })
        .collect();
    assert!((1..=2).contains(&reads[0]), "first peer: {reads:?}");
    assert_eq!(reads[1..], [0, 0], "their deadlines have been watched pass");
    assert_eq!(cq.poll().len(), 6);
}
