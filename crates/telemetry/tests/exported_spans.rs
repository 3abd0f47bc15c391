//! What a handle records is what its exporters write: spans recorded
//! through `Telemetry`'s own calls — a burst's chain, a fact with a detail
//! and a control root — render as one Chrome trace event each, and read
//! back from their JSONL lines exactly as `Telemetry::spans` returns them,
//! which the analyzer then judges clean. The unit tests of `export::chrome`,
//! `analyze` and the monitor's case table build their spans by hand; the
//! chains the NCL record path records are compared with the sink and the
//! Chrome export in `crates/core/tests/telemetry_trace.rs`.

use std::time::{Duration, Instant};

use telemetry::analyze::{analyze, parse_jsonl};
use telemetry::export::chrome;
use telemetry::{spans, ScopeId, Telemetry};

const WAL: &str = "app/wal";

/// Records one acked burst of the records `seq` on [`WAL`], posted to and
/// covered by two peers, the way the record path does: opened at its post,
/// its wire spans added as the peers' headers land, recorded at its ack.
fn acked_burst(tel: &Telemetry, seq: (u64, u64), t0: Instant) {
    let mut burst = tel.open_burst(ScopeId::of(WAL), seq, (t0, t0), t0, 2);
    burst.cover(0);
    for peer in ["peer-0", "peer-1"] {
        tel.add_wire(&mut burst, ScopeId::of(peer), 1, (0, 0));
    }
    burst.retire(1, 0);
    tel.record_burst(&burst);
}

#[test]
fn recorded_spans_export_and_read_back_as_recorded() {
    let tel = Telemetry::new();
    let t0 = Instant::now();
    let at = |us| t0 + Duration::from_micros(us);
    acked_burst(&tel, (0, 0), t0);
    acked_burst(&tel, (1, 3), at(1));
    tel.fact(spans::EPOCH_BUMP, WAL, 2, "tab\there \"quoted\"");
    let trace = tel.next_trace_id();
    let phases = [
        (spans::NCL_REPAIR_CATCH_UP, 2, 3),
        (spans::NCL_REPAIR_AP_MAP, 3, 4),
    ];
    for (name, start, end) in phases {
        tel.span_auto(trace, trace, name, WAL, 2, at(start), at(end));
    }
    tel.span(trace, trace, 0, spans::NCL_REPAIR, WAL, 2, at(2), at(4));

    let all = tel.spans();
    assert_eq!(all.len(), 16, "{all:?}");
    assert_eq!(chrome::validate(&chrome::render(&all)), Ok(all.len()));
    let text: String = all.iter().map(|s| s.to_json() + "\n").collect();
    assert_eq!(parse_jsonl(&text).unwrap(), all);

    let report = analyze(&all, 2);
    assert!(report.ok(), "{}", report.render());
    assert_eq!(
        report.acked_writes, 4,
        "a single record and a 3-record burst"
    );
    assert_eq!(report.orphan_spans, 0);
}

#[test]
fn a_burst_expands_into_its_chain_with_ids_from_one_block() {
    let tel = Telemetry::new();
    let t0 = Instant::now();
    let at = |ns| t0 + Duration::from_nanos(ns);
    let mut burst = tel.open_burst(ScopeId::of(WAL), (5, 8), (at(10), at(20)), at(30), 3);
    assert_eq!(burst.posted_ns(), 20);
    burst.cover(burst.ns(at(40)));
    // Wire times back from the landing, never before the post.
    tel.add_wire(&mut burst, ScopeId::of("peer-1"), 4, (10, 30));
    tel.add_wire(&mut burst, ScopeId::of("peer-0"), 4, (10, 35));
    tel.add_wire(&mut burst, ScopeId::of("peer-2"), 4, (30, 40));
    tel.add_wire(&mut burst, ScopeId::of("peer-3"), 4, (0, 40)); // past the peers it was posted to
    burst.retire(4, 50);
    let trace = burst.trace;
    tel.record_burst(&burst);
    let next = tel.next_trace_id();
    assert_eq!(next, trace + 7, "trace, stage, doorbell, three wires, ack");

    let chain = tel.spans();
    let shape: Vec<_> = chain
        .iter()
        .map(|s| (s.name, s.scope, s.id - trace, s.parent, s.epoch))
        .collect();
    assert_eq!(
        shape,
        [
            (spans::NCL_STAGE, WAL, 1, trace, 0),
            (spans::NCL_DOORBELL, WAL, 2, trace, 0),
            (spans::NCL_WIRE_PEER, "peer-1", 3, trace, 4),
            (spans::NCL_WIRE_PEER, "peer-0", 4, trace, 4),
            (spans::NCL_WIRE_PEER, "peer-2", 5, trace, 4),
            (spans::NCL_ACK, WAL, 6, trace, 4),
            (spans::NCL_WRITE, WAL, 0, 0, 4),
        ]
    );
    let base = chain[6].start_ns;
    let offsets: Vec<_> = chain
        .iter()
        .map(|s| (s.start_ns - base, s.end_ns - base, s.seq))
        .collect();
    let expected = [
        (0, 10),
        (10, 20),
        (20, 30),
        (25, 35),
        (20, 40),
        (30, 50),
        (0, 50),
    ];
    assert_eq!(
        offsets,
        expected.map(|(start, end)| (start, end, (5, 8))),
        "each span between the instants the burst kept"
    );

    // Untraced, it records nothing and takes no id.
    tel.set_tracing(false);
    let quiet = tel.open_burst(ScopeId::of(WAL), (9, 9), (t0, t0), t0, 3);
    assert_eq!(quiet.trace, 0);
    tel.record_burst(&quiet);
    tel.set_tracing(true);
    assert_eq!(tel.spans().len(), 7);
    assert_eq!(tel.next_trace_id(), next + 1);
}

#[test]
fn a_seventh_wire_span_is_recorded_ahead_of_its_chain() {
    let tel = Telemetry::new();
    let t0 = Instant::now();
    let mut burst = tel.open_burst(ScopeId::of(WAL), (1, 1), (t0, t0), t0, 8);
    let peers = ["p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"];
    for (i, peer) in peers.into_iter().enumerate() {
        tel.add_wire(&mut burst, ScopeId::of(peer), 3, (0, 10 + i as u64));
    }
    burst.cover(10);
    burst.retire(3, 20);
    let trace = burst.trace;
    tel.record_burst(&burst);
    let all = tel.spans();
    let wires: Vec<_> = all
        .iter()
        .filter(|s| s.name == spans::NCL_WIRE_PEER)
        .map(|s| (s.scope, s.id - trace))
        .collect();
    assert_eq!(
        wires,
        [
            ("p6", 9),
            ("p7", 10),
            ("p0", 3),
            ("p1", 4),
            ("p2", 5),
            ("p3", 6),
            ("p4", 7),
            ("p5", 8)
        ],
        "the two past six first, then the chain's, ids in credit order"
    );
    assert_eq!(all.len(), 12);
    assert!(all.last().unwrap().is_root());
    let report = analyze(&all, 2);
    assert!(report.ok(), "{}", report.render());
}

#[test]
fn a_wire_span_past_four_seconds_is_recorded_ahead_of_its_chain() {
    let tel = Telemetry::new();
    let t0 = Instant::now();
    let mut burst = tel.open_burst(ScopeId::of(WAL), (1, 2), (t0, t0), t0, 3);
    burst.cover(5);
    for (peer, end) in [("peer-0", 10), ("peer-1", 12), ("peer-2", 5_000_000_000)] {
        tel.add_wire(&mut burst, ScopeId::of(peer), 1, (5, end));
    }
    burst.retire(1, 5_000_000_001);
    let trace = burst.trace;
    tel.record_burst(&burst);
    let all = tel.spans();
    let shape: Vec<_> = all
        .iter()
        .map(|s| (s.name, s.scope, s.id - trace))
        .collect();
    assert_eq!(
        shape,
        [
            (spans::NCL_WIRE_PEER, "peer-2", 5),
            (spans::NCL_STAGE, WAL, 1),
            (spans::NCL_DOORBELL, WAL, 2),
            (spans::NCL_WIRE_PEER, "peer-0", 3),
            (spans::NCL_WIRE_PEER, "peer-1", 4),
            (spans::NCL_ACK, WAL, 6),
            (spans::NCL_WRITE, WAL, 0),
        ]
    );
    assert_eq!(all[0].duration_ns(), 5, "its own flight, back from its end");
    assert_eq!(all[6].duration_ns(), 5_000_000_001);
    // The lone span goes first, one span's worth; the chain goes whole.
    tel.set_span_capacity(6);
    assert_eq!((tel.spans().len(), tel.trace_dropped()), (6, 1));
    tel.set_span_capacity(5);
    assert_eq!(
        tel.spans().len(),
        6,
        "the newest entry stays, whatever its size"
    );
}
