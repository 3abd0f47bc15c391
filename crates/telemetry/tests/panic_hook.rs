//! The flight recorder's panic hook is global to the process, so it is
//! tested in a binary of its own: a process that arms several recorders
//! (as one that starts several testbeds does) dumps the newest one still
//! alive on a panic, and the hook keeps no recorder's telemetry alive.

use std::sync::Arc;

use telemetry::analyze::parse_jsonl;
use telemetry::{spans, FlightRecorder, OnlineMonitor, Span, Telemetry};

/// One complete acked write under `scope` on two peers.
fn acked_write(tel: &Telemetry, scope: &'static str) {
    let (trace, start_ns) = (tel.next_trace_id(), tel.now_ns());
    let child = |name, scope| Span {
        trace,
        id: tel.next_trace_id(),
        parent: trace,
        name,
        scope,
        epoch: 1,
        start_ns,
        end_ns: tel.now_ns(),
        ..Span::default()
    };
    let mut chain = vec![
        child(spans::NCL_STAGE, scope),
        child(spans::NCL_DOORBELL, scope),
    ];
    for peer in ["peer-0", "peer-1"] {
        chain.push(child(spans::NCL_WIRE_PEER, telemetry::intern_scope(peer)));
    }
    let root = child(spans::NCL_WRITE, scope);
    chain.push(Span {
        id: trace,
        parent: 0,
        ..root
    });
    tel.record_spans(chain);
}

#[test]
fn a_panic_dumps_the_newest_live_recorder_and_frees_the_dropped_ones() {
    let dir = std::env::temp_dir().join(format!("flight-hook-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // The first recorder, armed and dropped. Its telemetry's monitor holds
    // a sentinel, so whether that telemetry was freed can be seen.
    let sentinel = Arc::new(());
    let freed = Arc::downgrade(&sentinel);
    {
        let tel = Telemetry::new();
        let held = Arc::clone(&sentinel);
        OnlineMonitor::attach(&tel, 2).on_violation(move |_| drop(Arc::clone(&held)));
        acked_write(&tel, "first-app/wal");
        FlightRecorder::with_limits(tel, 32, 2).install_panic_hook(&dir);
    }
    drop(sentinel);
    assert!(
        freed.upgrade().is_none(),
        "the hook holds the first telemetry"
    );

    let tel = Telemetry::new();
    acked_write(&tel, "second-app/wal");
    let second = FlightRecorder::with_limits(tel, 32, 2);
    second.install_panic_hook(&dir);
    let path = dir.join(format!("trace-flight-panic-{}.jsonl", std::process::id()));
    let dumped_on_panic = || {
        let _ = std::panic::catch_unwind(|| panic!("boom"));
        let jsonl = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let spans = parse_jsonl(&jsonl).unwrap();
        let mut scopes: Vec<&str> = spans.iter().map(|s| s.scope).collect();
        scopes.retain(|s| s.ends_with("/wal"));
        scopes.dedup();
        scopes
    };
    assert_eq!(dumped_on_panic(), ["second-app/wal"]);

    // A third recorder armed after the second and dropped before it (two
    // testbeds of one process that end out of order): the second, still
    // alive, is the one dumped.
    {
        let tel = Telemetry::new();
        acked_write(&tel, "third-app/wal");
        FlightRecorder::with_limits(tel, 32, 2).install_panic_hook(&dir);
    }
    assert_eq!(dumped_on_panic(), ["second-app/wal"]);
    drop(second);
    std::fs::remove_dir_all(&dir).ok();
}
