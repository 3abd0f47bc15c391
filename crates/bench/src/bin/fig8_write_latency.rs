//! Figure 8 — NCL write latency (embedded mode).
//!
//! Sequentially writes a file with write sizes from 128 B to 8 KB in three
//! configurations and reports the average per-write latency:
//!
//! * `strong-bench DFS` — every write followed by an fdatasync to the DFS;
//! * `weak-bench DFS`   — buffered writes, never flushed in-band;
//! * `NCL`              — every write synchronously replicated to 3 peers.
//!
//! Paper reference (128 B): strong ≈ 2000 µs, weak ≈ 1.2 µs, NCL ≈ 4.6 µs —
//! NCL tracks the weak configuration while strong is two orders of
//! magnitude slower.
//!
//! A window-depth sweep (`NCL w4` / `w16`) rides along: `NCL` issues one
//! synchronous `record` at a time (the paper's baseline), the deeper windows
//! post through `record_nowait` and fence once at the end, so the reported
//! figure is the amortized per-record latency the pipelined path achieves at
//! that depth — window overlap plus one doorbell and one header write per
//! window-full burst.

use std::time::Instant;

use bench::{calibrated_testbed, f1, header, quick, row, NCL_STAGES};
use ncl::NclLib;
use splitfs::{Mode, OpenOptions};
use telemetry::Telemetry;

fn main() {
    let tb = calibrated_testbed();
    let sizes = [128usize, 256, 512, 1024, 2048, 4096, 8192];
    let ops_strong = if quick() { 30 } else { 200 };
    let ops_fast = if quick() { 2_000 } else { 20_000 };

    header("Figure 8: write latency, embedded mode (average µs per write)");
    row(&[
        "size".into(),
        "strong DFS".into(),
        "weak DFS".into(),
        "NCL".into(),
        "NCL w4".into(),
        "NCL w16".into(),
    ]);

    for &size in &sizes {
        let data = vec![0xABu8; size];

        // Strong: write + fsync to the DFS per op.
        let (fs, _) = tb.mount(Mode::StrongDft, &format!("fig8-strong-{size}"));
        let f = fs.open("bench", OpenOptions::create()).unwrap();
        let sw = Instant::now();
        for i in 0..ops_strong {
            f.write_at((i * size) as u64, &data).unwrap();
            f.fsync().unwrap();
        }
        let strong_us = sw.elapsed().as_secs_f64() * 1e6 / ops_strong as f64;

        // Weak: buffered write only.
        let (fs, _) = tb.mount(Mode::WeakDft, &format!("fig8-weak-{size}"));
        let f = fs.open("bench", OpenOptions::create()).unwrap();
        let sw = Instant::now();
        for i in 0..ops_fast {
            f.write_at((i * size) as u64, &data).unwrap();
            f.fsync().unwrap(); // No-op in the weak configuration.
        }
        let weak_us = sw.elapsed().as_secs_f64() * 1e6 / ops_fast as f64;

        // NCL: synchronous replication per write, embedded (no server hop).
        let node = tb.add_app_node(&format!("fig8-ncl-{size}"));
        let ncl = NclLib::new(
            &tb.cluster,
            node,
            &format!("fig8-{size}"),
            tb.config().ncl.clone(),
            &tb.controller,
            &tb.registry,
        )
        .unwrap();
        let ncl_ops = ops_fast.min(4_000);
        let file = ncl.create("bench", ncl_ops * size).unwrap();
        let sw = Instant::now();
        for i in 0..ncl_ops {
            file.record((i * size) as u64, &data).unwrap();
        }
        let ncl_us = sw.elapsed().as_secs_f64() * 1e6 / ncl_ops as f64;
        file.release().unwrap();

        // Window-depth sweep: amortized per-record latency at pipeline
        // depth 4 and 16.
        let pipe_ops = ncl_ops.min(2_000);
        let pipelined_us = |window: u64| {
            let mut config = tb.config().ncl.clone();
            config.pipeline_window = window;
            let node = tb.add_app_node(&format!("fig8-w{window}-{size}"));
            let ncl = NclLib::new(
                &tb.cluster,
                node,
                &format!("fig8-w{window}-{size}"),
                config,
                &tb.controller,
                &tb.registry,
            )
            .unwrap();
            let file = ncl.create("bench", pipe_ops * size).unwrap();
            let sw = Instant::now();
            for i in 0..pipe_ops {
                file.record_nowait((i * size) as u64, &data).unwrap();
            }
            file.fsync().unwrap();
            let us = sw.elapsed().as_secs_f64() * 1e6 / pipe_ops as f64;
            file.release().unwrap();
            us
        };
        let w4_us = pipelined_us(4);
        let w16_us = pipelined_us(16);

        row(&[
            format!("{size}B"),
            f1(strong_us),
            f1(weak_us),
            f1(ncl_us),
            f1(w4_us),
            f1(w16_us),
        ]);
    }

    // Where does an NCL record's latency go? One telemetry-instrumented
    // 128 B pipelined run (window 16), decomposed into the staging /
    // doorbell / wire / ack spans the record path stamps.
    let telemetry = Telemetry::new();
    let mut config = tb.config().ncl.clone();
    config.pipeline_window = 16;
    config.telemetry = telemetry.clone();
    let node = tb.add_app_node("fig8-breakdown");
    let ncl = NclLib::new(
        &tb.cluster,
        node,
        "fig8-breakdown",
        config,
        &tb.controller,
        &tb.registry,
    )
    .unwrap();
    let data = vec![0xABu8; 128];
    let ops = if quick() { 500 } else { 2_000 };
    let file = ncl.create("bench", ops * 128).unwrap();
    for i in 0..ops {
        file.record_nowait((i * 128) as u64, &data).unwrap();
    }
    file.fsync().unwrap();
    file.release().unwrap();
    let snap = telemetry.snapshot();
    header("NCL per-record stage breakdown @128B, window 16 (µs)");
    row(&[
        "stage".into(),
        "count".into(),
        "mean".into(),
        "p50".into(),
        "p99".into(),
    ]);
    for stage in NCL_STAGES {
        if let Some(s) = snap.summary(stage) {
            row(&[
                stage.trim_start_matches("ncl.record.").to_string(),
                s.count.to_string(),
                f1(s.mean_ns / 1e3),
                f1(s.p50_ns as f64 / 1e3),
                f1(s.p99_ns as f64 / 1e3),
            ]);
        }
    }

    println!(
        "\npaper reference @128B: strong ≈ 2000 µs | weak ≈ 1.2 µs | NCL ≈ 4.6 µs\n\
         expectation: NCL within ~5x of weak; strong 2+ orders of magnitude above both\n\
         w-columns: `record_nowait` at pipeline window 4/16 and one fence at the\n\
         end, amortized — deeper windows overlap the in-flight period and post one\n\
         doorbell and one coalesced header write per window-full burst"
    );
}
