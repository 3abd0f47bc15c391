//! Threads a deployment owns, counted: a simulated service is a lock, a
//! queue pair a send queue, a peer's GC a timer on the cluster's list and an
//! erasure-coded spill a posted store and the online monitor a checker fed
//! by whoever records, none of them a thread, so a testbed adds none — the
//! shipping configuration included.
//!
//! One test, alone in its binary: the thread count is the process's. Run it
//! with none of `Testbed::start`'s environment overrides set.
#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use splitft::splitfs::{Mode, OpenOptions, Testbed, TestbedConfig};
use telemetry::{intern_scope, spans, Span};

fn threads_of_the_process() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn a_testbed_owns_no_thread_with_gc_on_and_a_spill_in_flight() {
    let before = threads_of_the_process();

    // Controller, MDS, three OSDs and three peers: eight services. A queue
    // pair owns no thread either, whichever way its posts complete.
    let tb = Testbed::start(TestbedConfig::zero(3));
    let (fs, _) = tb.mount(Mode::SplitFt, "inventory");
    let file = fs.open("wal", OpenOptions::create_ncl(1 << 12)).unwrap();
    file.write_at(0, b"no thread served this").unwrap();
    file.fsync().unwrap();
    assert_eq!(threads_of_the_process() - before, 0, "zero(3), one file");
    let more = ["wal-2", "wal-3"].map(|name| {
        let file = fs.open(name, OpenOptions::create_ncl(1 << 12)).unwrap();
        file.write_at(0, b"nor this").unwrap();
        file
    });
    assert_eq!(threads_of_the_process() - before, 0, "zero(3), three files");
    drop((file, more, fs, tb));

    // The shipping shape (zero latencies keep the set-up short): ten
    // services, five peers sweeping every 100 ms.
    let mut config = TestbedConfig::calibrated(5);
    config.dfs = splitft::dfs::DfsConfig::zero();
    config.ncl = splitft::ncl::NclConfig::zero();
    let tb = Testbed::start(config.clone());
    assert_eq!(threads_of_the_process() - before, 0, "calibrated(5)");
    drop(tb);

    // A zero interval is no schedule, not a sweep on every call.
    config.peer_gc_interval = Some(Duration::ZERO);
    let tb = Testbed::start(config.clone());
    assert_eq!(threads_of_the_process(), before, "zero GC interval");
    drop(tb);

    // GC due on every control call, and an erasure-coded file whose
    // fragment tail crossed the spill watermark: the demotion is posted to
    // the DFS on the writer's thread.
    config.peer_gc_interval = Some(Duration::from_millis(1));
    let mut ec = config.clone();
    ec.ncl = splitft::ncl::NclConfig::zero();
    ec.ncl.durability = splitft::ncl::Durability::Ec { k: 2, n: 3 };
    ec.ncl.spill_watermark = 512;
    let telemetry = ec.ncl.telemetry.clone();
    let tb = Testbed::start(ec);
    let (fs, _) = tb.mount(Mode::SplitFt, "inventory-ec");
    let file = fs.open("wal", OpenOptions::create_ncl(1 << 16)).unwrap();
    let mut offset = 0;
    while telemetry.counter("ncl.spill.demotions").get() == 0 {
        file.write_at(offset, b"spilled by its own writer|")
            .unwrap();
        offset += 26;
    }
    std::thread::sleep(Duration::from_millis(1));
    assert!(fs.exists("wal"), "a control call after the interval");
    assert_eq!(threads_of_the_process() - before, 0, "GC on, EC spill");
    drop((file, fs, tb));

    // Sweeps due on every call, over many regions: the opens' own control
    // calls run them, and the testbed goes with its schedule mid-sweep.
    let tb = Testbed::start(config);
    let (fs, _) = tb.mount(Mode::SplitFt, "inventory-drop");
    let files: Vec<_> = (0..32)
        .map(|i| {
            fs.open(&format!("wal-{i}"), OpenOptions::create_ncl(1 << 12))
                .unwrap()
        })
        .collect();
    drop((files, fs, tb));
    assert_eq!(threads_of_the_process(), before, "dropped mid-sweep");

    // The online monitor judges each span on the thread that records it:
    // attached, fed a write, and tripped by a misordered repair, it has
    // fired its hook on this thread and added none.
    let mut config = TestbedConfig::zero(3);
    config.online_monitor = true;
    let tel = config.ncl.telemetry.clone();
    let tb = Testbed::start(config);
    let fired = Arc::new(AtomicUsize::new(0));
    let hook = Arc::clone(&fired);
    let monitor = tb.online_monitor().expect("monitor attached");
    monitor.on_violation(move |_| {
        hook.fetch_add(1, Ordering::SeqCst);
    });
    let (fs, _) = tb.mount(Mode::SplitFt, "inventory-monitor");
    let file = fs.open("wal", OpenOptions::create_ncl(1 << 12)).unwrap();
    file.write_at(0, b"judged by its own writer").unwrap();
    file.fsync().unwrap();
    let (scope, now, trace) = (
        intern_scope("inventory/seeded"),
        tel.now_ns(),
        tel.next_trace_id(),
    );
    let phase = |id, parent, name| Span {
        trace,
        id,
        parent,
        name,
        scope,
        epoch: 2,
        start_ns: now,
        end_ns: now,
        ..Span::default()
    };
    tel.record_spans([phase(tel.next_trace_id(), trace, spans::NCL_REPAIR_AP_MAP)]);
    tel.record_spans([phase(trace, 0, spans::NCL_REPAIR)]);
    let added = threads_of_the_process() - before;
    assert_eq!(added, 0, "monitor attached, violation recorded");
    let fired = fired.load(Ordering::SeqCst);
    assert_eq!(fired, 1, "the hook ran in the recording call");
    drop((file, fs, tb));
}
