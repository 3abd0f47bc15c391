//! A testbed armed with `FLIGHT_DUMP_DIR` and an online monitor frees its
//! telemetry when it is dropped: the monitor's violation hook lives inside
//! the telemetry, so it must not own the flight recorder that owns the
//! telemetry. A telemetry with a JSONL sink holds that file open for as
//! long as it lives, so the test asks whether this process still has the
//! file open. Its own binary: it sets a process-wide variable.

use std::path::{Path, PathBuf};

use splitfs::{Mode, OpenOptions, Testbed, TestbedConfig};

/// Whether any of this process's file descriptors names `path`.
fn held_open(path: &Path) -> bool {
    let fds = std::fs::read_dir("/proc/self/fd").expect("procfs");
    fds.filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
        .any(|target| target == path)
}

#[test]
fn an_armed_monitored_testbed_releases_its_telemetry_when_dropped() {
    let dir: PathBuf = std::env::temp_dir().join(format!("testbed-drop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let dir = dir.canonicalize().unwrap();
    let sink = dir.join("trace-sink.jsonl");

    let mut cfg = TestbedConfig::zero(3);
    cfg.online_monitor = true;
    cfg.ncl.telemetry.set_jsonl_sink(&sink).unwrap();
    std::env::set_var("FLIGHT_DUMP_DIR", dir.join("flight"));
    let tb = Testbed::start(cfg);
    std::env::remove_var("FLIGHT_DUMP_DIR");
    let (fs, _) = tb.mount(Mode::SplitFt, "drop");
    let file = fs.open("wal", OpenOptions::create_ncl(4096)).unwrap();
    file.append(b"record").unwrap();
    file.fsync().unwrap();
    drop((file, fs));
    assert!(held_open(&sink), "the live telemetry holds its sink open");

    drop(tb);
    assert!(
        !held_open(&sink),
        "the dropped testbed's telemetry is still alive"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
