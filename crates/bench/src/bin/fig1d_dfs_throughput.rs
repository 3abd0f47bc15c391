//! Figure 1(d) — DFS sequential write throughput vs IO size.
//!
//! Writes a fixed volume to the DFS with synchronous IOs of different
//! sizes. The paper measures ~250 KB/s at 512 B and ~3 orders of magnitude
//! more at 64 MB on CephFS; small synchronous writes are catastrophically
//! slow, which is the asymmetry SplitFT's split design exploits.

use std::time::Instant;

use bench::{header, human_bytes, quick, row};
use dfs::{DfsCluster, DfsConfig};
use sim::Cluster;

fn main() {
    let cluster = Cluster::new();
    let dfs = DfsCluster::start(&cluster, DfsConfig::calibrated());
    let app = cluster.add_node("app");

    header("Figure 1(d): DFS sequential write throughput vs block size");
    row(&["block".into(), "ops".into(), "throughput".into()]);

    let sizes: &[usize] = &[512, 8 << 10, 64 << 10, 1 << 20, 8 << 20, 64 << 20];
    let mut first: Option<f64> = None;
    let mut last = 0.0;
    for &size in sizes {
        // Write enough blocks to smooth jitter, capped for the small sizes.
        let target_bytes = if size <= 64 << 10 { 2 << 20 } else { 128 << 20 };
        let target_bytes = if quick() {
            target_bytes / 4
        } else {
            target_bytes
        };
        let ops = (target_bytes / size).clamp(2, 512);
        let client = dfs.client(app);
        client.create("stream").unwrap();
        let data = vec![0x5Au8; size];
        let sw = Instant::now();
        for i in 0..ops {
            client.write("stream", (i * size) as u64, &data).unwrap();
            client.fsync("stream").unwrap();
        }
        let secs = sw.elapsed().as_secs_f64();
        let tput = (ops * size) as f64 / secs;
        if first.is_none() {
            first = Some(tput);
        }
        last = tput;
        row(&[
            human_bytes(size as f64),
            ops.to_string(),
            format!("{}/s", human_bytes(tput)),
        ]);
        client.delete("stream").unwrap();
    }

    let ratio = last / first.unwrap_or(1.0);
    println!(
        "\n64MB vs 512B throughput ratio: {ratio:.0}x \
         (paper: ~3 orders of magnitude)"
    );
}
