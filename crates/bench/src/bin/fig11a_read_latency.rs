//! Figure 11(a) — read latency during recovery.
//!
//! Log files are only read when an application recovers. This benchmark
//! sequentially reads a recovered log at sizes from 128 B to 8 KB through
//! four paths:
//!
//! * `NCL`            — the recovered local image (the prefetch cost — the
//!   recovery's RDMA read of the whole region — is amortised over the
//!   reads, as in the paper). Its two addends are printed beside it:
//!   `local` is `NclFile::read` alone, `prefetch` the amortised
//!   `rdma_read`;
//! * `NCL no prefetch`— a 1-sided RDMA read per application read;
//! * `DFS`            — CephFS-style client with sequential readahead;
//! * `DFS direct IO`  — cache and readahead bypassed.
//!
//! Paper shape: NCL (with prefetch) beats DFS (4x at 128 B); without
//! prefetch it is worse than DFS (4.5x at 128 B); direct IO is far worse.

use std::time::Instant;

use bench::{calibrated_testbed, f1, header, quick, row};
use ncl::NclLib;
use splitfs::Mode;

fn main() {
    let tb = calibrated_testbed();
    let file_bytes: usize = if quick() { 1 << 20 } else { 4 << 20 };
    let sizes = [128usize, 512, 2048, 8192];
    let max_ops = if quick() { 1_000 } else { 8_000 };

    // Build the NCL log, then "crash" and recover it from a new node.
    let writer_node = tb.add_app_node("fig11a-writer");
    let writer = NclLib::new(
        &tb.cluster,
        writer_node,
        "fig11a",
        tb.config().ncl.clone(),
        &tb.controller,
        &tb.registry,
    )
    .unwrap();
    {
        let file = writer.create("log", file_bytes).unwrap();
        let chunk = vec![0x42u8; 64 << 10];
        let mut off = 0usize;
        while off < file_bytes {
            let n = chunk.len().min(file_bytes - off);
            file.record(off as u64, &chunk[..n]).unwrap();
            off += n;
        }
    }
    tb.cluster.crash(writer_node);
    drop(writer);

    let reader_node = tb.add_app_node("fig11a-reader");
    let reader = NclLib::new(
        &tb.cluster,
        reader_node,
        "fig11a",
        tb.config().ncl.clone(),
        &tb.controller,
        &tb.registry,
    )
    .unwrap();
    let recovered = reader.recover("log").unwrap();
    // The prefetch cost amortised over reads is the RDMA fetch of the file
    // image (the rest of recovery — peer lookup, catch-up, ap-map — happens
    // once per restart regardless of how the log is then read).
    let prefetch_total = recovered.recovery_stats().rdma_read;

    // Build the same log on the DFS for the comparison lines.
    let (dfs_fs, _) = tb.mount(Mode::StrongDft, "fig11a-dfs");
    let dfs_file = dfs_fs.open("log", splitfs::OpenOptions::create()).unwrap();
    {
        let chunk = vec![0x42u8; 256 << 10];
        let mut off = 0usize;
        while off < file_bytes {
            let n = chunk.len().min(file_bytes - off);
            dfs_file.write_at(off as u64, &chunk[..n]).unwrap();
            off += n;
        }
        dfs_file.fsync().unwrap();
    }

    header("Figure 11(a): recovery read latency (average µs per read)");
    row(&[
        "size".into(),
        "NCL".into(),
        "= local".into(),
        "+ prefetch".into(),
        "NCL no-prefetch".into(),
        "DFS".into(),
        "DFS direct".into(),
    ]);

    for &size in &sizes {
        let ops = (file_bytes / size).min(max_ops);

        // NCL with prefetch: local buffer reads + amortised prefetch.
        let sw = Instant::now();
        for i in 0..ops {
            let _ = recovered.read((i * size) as u64, size);
        }
        // Amortise the prefetch over the number of reads a full-file pass
        // at this size would make (as the paper does).
        let full_pass_reads = (file_bytes / size).max(1);
        let local_us = sw.elapsed().as_secs_f64() * 1e6 / ops as f64;
        let prefetch_us = prefetch_total.as_secs_f64() * 1e6 / full_pass_reads as f64;

        // NCL without prefetch: one RDMA read per application read.
        let remote_ops = ops.min(1_000);
        let sw = Instant::now();
        for i in 0..remote_ops {
            let _ = recovered.read_remote((i * size) as u64, size).unwrap();
        }
        let ncl_np_us = sw.elapsed().as_secs_f64() * 1e6 / remote_ops as f64;

        // DFS with readahead: fresh mount per size (cold cache).
        let (fs, _) = tb.mount(Mode::StrongDft, &format!("fig11a-dfs-{size}"));
        let f = fs.open("log", splitfs::OpenOptions::plain()).unwrap();
        let sw = Instant::now();
        for i in 0..ops {
            let _ = f.read((i * size) as u64, size).unwrap();
        }
        let dfs_us = sw.elapsed().as_secs_f64() * 1e6 / ops as f64;

        // DFS direct IO (no cache, no readahead).
        let direct_ops = ops.min(200);
        let sw = Instant::now();
        for i in 0..direct_ops {
            let _ = fs
                .dfs()
                .unwrap()
                .read_direct("log", (i * size) as u64, size)
                .unwrap();
        }
        let direct_us = sw.elapsed().as_secs_f64() * 1e6 / direct_ops as f64;

        row(&[
            format!("{size}B"),
            f1(local_us + prefetch_us),
            format!("{local_us:.2}"),
            format!("{prefetch_us:.2}"),
            f1(ncl_np_us),
            f1(dfs_us),
            f1(direct_us),
        ]);
    }

    println!(
        "\npaper shape @128B: NCL ≈ 4x faster than DFS; NCL-no-prefetch ≈ 4.5x slower \
         than DFS; DFS direct IO slowest by far"
    );
}
