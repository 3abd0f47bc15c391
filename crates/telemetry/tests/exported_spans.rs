//! What a handle records is what its exporters write: spans recorded
//! through `Telemetry`'s own calls — a burst's chain, a fact with a detail
//! and a control root — render as one Chrome trace event each, and read
//! back from their JSONL lines exactly as `Telemetry::spans` returns them,
//! which the analyzer then judges clean. The unit tests of `export::chrome`,
//! `analyze` and the monitor's case table build their spans by hand.

use std::time::{Duration, Instant};

use telemetry::analyze::{analyze, parse_jsonl};
use telemetry::export::chrome;
use telemetry::{spans, Telemetry};

const WAL: &str = "app/wal";

/// Records one acked burst of the records `seq` on [`WAL`], covered by
/// two peers, the way the record path does: children first, root last, in
/// one `record_spans` call.
fn acked_burst(tel: &Telemetry, seq: (u64, u64), t0: Instant) {
    let trace = tel.next_trace_id();
    let mut chain: Vec<_> = [
        (spans::NCL_STAGE, WAL),
        (spans::NCL_DOORBELL, WAL),
        (spans::NCL_WIRE_PEER, "peer-0"),
        (spans::NCL_WIRE_PEER, "peer-1"),
        (spans::NCL_ACK, WAL),
    ]
    .into_iter()
    .map(|(name, scope)| {
        let id = tel.next_trace_id();
        tel.closed_span(trace, id, trace, name, scope, 1, seq, t0, t0)
    })
    .collect();
    chain.push(tel.closed_span(trace, trace, 0, spans::NCL_WRITE, WAL, 1, seq, t0, t0));
    tel.record_spans(&mut chain);
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
