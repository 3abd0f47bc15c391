//! Figure 11(b) — application recovery time.
//!
//! Each application builds a log (no flush/checkpoint in between, so the
//! full state must be replayed), the application server "crashes", and a
//! fresh instance recovers. SplitFT recovers the log from NCL (with the
//! get-peer / connect / rdma-read / catch-up / ap-map / parse breakdown),
//! DFT from the DFS, and the unrealistic `local ext4` baseline from local
//! disk.
//!
//! Paper shape: all three are comparable (hundreds of ms for a 60 MB log,
//! dominated by application-level parsing); NCL is modestly slower than
//! DFS (4%–2x) because of its extra protocol steps.
//!
//! Besides the console table, emits `BENCH_fig11b_recovery_time.json`
//! (schema v2): one result row per (app, config) with the recovery wall
//! time, plus a `recovery_phases` section mapping each run onto the
//! five-phase breakdown (detect → acquire → catch-up → ap-map →
//! first-ack): detect is the crash-to-remount interval, acquire is
//! get-peer + connect, catch-up is the RDMA read-back of the image plus
//! bringing every peer up to it under the new epoch
//! ([`RecoveryStats::rdma_read`] + [`RecoveryStats::catch_up`]), ap-map is
//! the controller write alone ([`RecoveryStats::update_ap_map`]), and
//! first-ack the application-level parse until it serves again. Non-NCL
//! configs recover from a file image, so everything lands in detect +
//! first-ack. A `catch_up_kinds` section lists, per SplitFT row, how the
//! recovery caught each peer up (the details of its
//! `ncl.recover.catch_up.peer` spans); the validator requires rocksdb and
//! redis, whose logs are append-only, to have taken every tail in place.
//!
//! [`RecoveryStats::rdma_read`]: ncl::file::RecoveryStats::rdma_read
//! [`RecoveryStats::catch_up`]: ncl::file::RecoveryStats::catch_up
//! [`RecoveryStats::update_ap_map`]: ncl::file::RecoveryStats::update_ap_map

use std::time::{Duration, Instant};

use apps::miniredis::{Command, MiniRedis, RedisOptions};
use apps::minirocks::{MiniRocks, RocksOptions};
use apps::minisql::{MiniSql, SqlOptions};
use bench::{
    calibrated_testbed, f1, header, quick, row, AppKind, BenchJson, RecoveryPhases, NCL_STAGES,
};
use splitfs::{Mode, SplitFs, Testbed};
use telemetry::spans;

/// Writes roughly `target_bytes` of per-key payload into the app's log
/// without triggering flush/checkpoint (options sized generously).
fn build_log(app: AppKind, fs: SplitFs, target_bytes: usize) {
    let value = vec![0x77u8; 100];
    // MiniSql logs full page images per transaction, so fewer keys produce
    // the same log volume.
    let keys = match app {
        AppKind::Sql => target_bytes / 4200,
        _ => target_bytes / 150,
    };
    match app {
        AppKind::Rocks => {
            let opts = RocksOptions {
                memtable_bytes: 1 << 30,
                wal_capacity: target_bytes * 3,
                ..RocksOptions::default()
            };
            let db = MiniRocks::open(fs, "app/", opts).unwrap();
            for i in 0..keys {
                db.put(format!("key{i:08}").as_bytes(), &value).unwrap();
            }
        }
        AppKind::Redis => {
            let opts = RedisOptions {
                aof_capacity: target_bytes * 3,
                rewrite_threshold: 1 << 30,
                ..RedisOptions::default()
            };
            let r = MiniRedis::open(fs, "app/", opts).unwrap();
            for i in 0..keys {
                r.execute(Command::Set(format!("key{i:08}"), value.clone()))
                    .unwrap();
            }
        }
        AppKind::Sql => {
            let opts = SqlOptions {
                npages: 512,
                wal_capacity: target_bytes * 3,
                checkpoint_threshold: 1 << 30,
                ..SqlOptions::default()
            };
            let db = MiniSql::open(fs, "app/", opts).unwrap();
            for i in 0..keys {
                db.put(format!("key{i:08}").as_bytes(), &value).unwrap();
            }
        }
    }
}

/// Reopens the application, timing the recovery.
fn recover(app: AppKind, fs: SplitFs, target_bytes: usize) -> Duration {
    let sw = Instant::now();
    match app {
        AppKind::Rocks => {
            let opts = RocksOptions {
                memtable_bytes: 1 << 30,
                wal_capacity: target_bytes * 3,
                ..RocksOptions::default()
            };
            let _db = MiniRocks::open(fs, "app/", opts).unwrap();
        }
        AppKind::Redis => {
            let opts = RedisOptions {
                aof_capacity: target_bytes * 3,
                rewrite_threshold: 1 << 30,
                ..RedisOptions::default()
            };
            let _r = MiniRedis::open(fs, "app/", opts).unwrap();
        }
        AppKind::Sql => {
            let opts = SqlOptions {
                npages: 512,
                wal_capacity: target_bytes * 3,
                checkpoint_threshold: 1 << 30,
                ..SqlOptions::default()
            };
            let _db = MiniSql::open(fs, "app/", opts).unwrap();
        }
    }
    sw.elapsed()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

fn main() {
    // The paper recovers a 60 MB log; scale down for the simulated host.
    let target = if quick() { 1 << 20 } else { 6 << 20 };

    header(&format!(
        "Figure 11(b): recovery time for a {} log (ms)",
        bench::human_bytes(target as f64)
    ));
    row(&[
        "app".into(),
        "config".into(),
        "total".into(),
        "get peer".into(),
        "connect".into(),
        "rdma read".into(),
        "catch up".into(),
        "ap map".into(),
        "parse".into(),
    ]);

    let mut json = BenchJson::new("fig11b_recovery_time");
    let mut phase_rows: Vec<(String, RecoveryPhases)> = Vec::new();
    let mut kind_rows: Vec<(String, Vec<String>)> = Vec::new();
    // Snapshot of the last SplitFT testbed: its log build ran through the
    // full NCL record pipeline, populating every stage histogram for the
    // trend file's schema gate.
    let mut stage_snap: Option<telemetry::TelemetrySnapshot> = None;

    let mut emit =
        |json: &mut BenchJson, label: String, total: Duration, phases: RecoveryPhases| {
            let total_ns = ns(total) as f64;
            json.result(
                &format!("fig11b_recovery_time/{label}"),
                total_ns,
                1e9 / total_ns,
            );
            phase_rows.push((label, phases));
        };

    for kind in AppKind::all() {
        for (name, mode) in [("SplitFT", Mode::SplitFt), ("DFT", Mode::StrongDft)] {
            let tb: Testbed = calibrated_testbed();
            let app_id = format!("f11b-{}-{name}", kind.name());
            let (fs, node) = tb.mount(mode, &app_id);
            build_log(kind, fs, target);
            tb.cluster.crash(node);
            // The crash-to-remount interval is the breakdown's detect
            // phase: noticing the dead server and re-establishing a mount.
            let sw = Instant::now();
            let (fs2, _) = tb.mount(mode, &app_id);
            let detect = sw.elapsed();
            let total = recover(kind, fs2.clone(), target);
            let label = format!("{}/{name}", kind.name());
            if let Some(stats) = fs2.last_ncl_recovery() {
                let parse = total
                    .saturating_sub(stats.get_peer)
                    .saturating_sub(stats.connect)
                    .saturating_sub(stats.rdma_read)
                    .saturating_sub(stats.sync_peer);
                row(&[
                    kind.name().into(),
                    name.into(),
                    f1(ms(total)),
                    f1(ms(stats.get_peer)),
                    f1(ms(stats.connect)),
                    f1(ms(stats.rdma_read)),
                    f1(ms(stats.catch_up)),
                    f1(ms(stats.update_ap_map)),
                    f1(ms(parse)),
                ]);
                kind_rows.push((label.clone(), catch_up_kinds(&tb)));
                emit(
                    &mut json,
                    label,
                    total,
                    RecoveryPhases {
                        detect_ns: ns(detect),
                        acquire_ns: ns(stats.get_peer + stats.connect),
                        catch_up_ns: ns(stats.rdma_read + stats.catch_up),
                        ap_map_ns: ns(stats.update_ap_map),
                        first_ack_ns: ns(parse),
                    },
                );
            } else {
                row(&[
                    kind.name().into(),
                    name.into(),
                    f1(ms(total)),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    f1(ms(total)),
                ]);
                emit(
                    &mut json,
                    label,
                    total,
                    RecoveryPhases {
                        detect_ns: ns(detect),
                        first_ack_ns: ns(total),
                        ..RecoveryPhases::default()
                    },
                );
            }
            if name == "SplitFT" {
                stage_snap = Some(tb.config().ncl.telemetry.snapshot());
            }
        }
        // Local ext4 baseline: same store, cold page cache.
        let tb = calibrated_testbed();
        let (fs, _) = tb.mount(Mode::Local, &format!("f11b-{}-local", kind.name()));
        build_log(kind, fs.clone(), target);
        // Evict the page cache to model a reboot.
        let sw = Instant::now();
        let disk = fs.dfs().expect("every mount has a DFS client");
        for path in fs.list("").unwrap() {
            disk.drop_cache(&path);
        }
        let detect = sw.elapsed();
        let total = recover(kind, fs, target);
        row(&[
            kind.name().into(),
            "local ext4".into(),
            f1(ms(total)),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            f1(ms(total)),
        ]);
        emit(
            &mut json,
            format!("{}/local-ext4", kind.name()),
            total,
            RecoveryPhases {
                detect_ns: ns(detect),
                first_ack_ns: ns(total),
                ..RecoveryPhases::default()
            },
        );
    }
    println!(
        "\npaper shape: NCL recovery within ~2x of DFS; both within the same order as \
         local ext4; application-level parse dominates"
    );

    println!("\nhow recovery caught each peer up:");
    for (label, kinds) in &kind_rows {
        println!("  {label}: {}", kinds.join(", "));
    }

    let rendered: Vec<String> = phase_rows
        .iter()
        .map(|(label, phases)| {
            format!(
                "    \"{}\": {}",
                telemetry::json_escape(label),
                phases.to_json()
            )
        })
        .collect();
    json.section(
        "recovery_phases",
        format!("{{\n{}\n  }}", rendered.join(",\n")),
    );
    let rendered: Vec<String> = kind_rows
        .iter()
        .map(|(label, kinds)| {
            let kinds: Vec<String> = kinds
                .iter()
                .map(|k| format!("\"{}\"", telemetry::json_escape(k)))
                .collect();
            format!(
                "    \"{}\": [{}]",
                telemetry::json_escape(label),
                kinds.join(", ")
            )
        })
        .collect();
    json.section(
        "catch_up_kinds",
        format!("{{\n{}\n  }}", rendered.join(",\n")),
    );
    json.stage_breakdown(
        stage_snap
            .as_ref()
            .expect("SplitFT runs populate NCL stages"),
        &NCL_STAGES,
    );
    json.write();
}

/// How the testbed's recoveries caught each peer up, in record order: the
/// details of its `ncl.recover.catch_up.peer` spans.
fn catch_up_kinds(tb: &Testbed) -> Vec<String> {
    let spans = tb.config().ncl.telemetry.spans().into_iter();
    spans
        .filter(|s| s.name == spans::NCL_RECOVER_CATCH_UP_PEER)
        .filter_map(|s| s.detail.map(String::from))
        .collect()
}
