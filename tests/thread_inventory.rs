//! Threads a deployment owns, counted: a simulated service is a lock and a
//! queue pair a send queue, neither a thread, so a testbed adds none, and the
//! shipping configuration adds one GC thread per peer and nothing else.
//!
//! One test, alone in its binary: the thread count is the process's. Run it
//! with none of `Testbed::start`'s environment overrides set.
#![cfg(target_os = "linux")]

use std::time::Duration;

use splitft::splitfs::{Mode, OpenOptions, Testbed, TestbedConfig};

fn threads_of_the_process() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// The count once joined threads have left `/proc`: a join returns when the
/// kernel clears the thread's id, a moment before its task is unlisted.
fn threads_after_joins(expected: usize) -> usize {
    for _ in 0..1_000 {
        if threads_of_the_process() == expected {
            break;
        }
        std::thread::yield_now();
    }
    threads_of_the_process()
}

#[test]
fn a_testbed_owns_its_gc_threads_and_no_other() {
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
    assert_eq!(threads_of_the_process() - before, 5, "calibrated(5)");
    drop(tb);
    assert_eq!(threads_after_joins(before), before, "GC threads are joined");

    // A zero interval is no schedule, not a sweep in a busy loop.
    config.peer_gc_interval = Some(Duration::ZERO);
    let tb = Testbed::start(config.clone());
    assert_eq!(threads_of_the_process(), before, "zero GC interval");
    drop(tb);

    // Sweeps back to back over many regions: every GC thread is inside a
    // controller RPC nearly all the time when the testbed goes, controller
    // first. Each sweep finds the controller gone and its thread is joined.
    config.peer_gc_interval = Some(Duration::from_millis(1));
    let tb = Testbed::start(config);
    let (fs, _) = tb.mount(Mode::SplitFt, "inventory-drop");
    let files: Vec<_> = (0..32)
        .map(|i| {
            fs.open(&format!("wal-{i}"), OpenOptions::create_ncl(1 << 12))
                .unwrap()
        })
        .collect();
    drop((files, fs, tb));
    assert_eq!(threads_after_joins(before), before, "dropped mid-sweep");
}
