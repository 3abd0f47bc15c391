//! Figure 10 — YCSB throughput (workloads A, B, C, D, F).
//!
//! Each application is loaded once per configuration and then runs the five
//! paper workloads back to back. Expected shape (§5.3): SplitFT within a
//! few percent of weak-app DFT everywhere (paper worst cases: RocksDB 3.2%,
//! Redis 2.9%, SQLite 10.8%); strong-app DFT an order of magnitude slower
//! on the write-heavy mixes (A, F), converging on read-heavy ones and
//! matching on read-only C — except Redis, whose single-threaded loop
//! head-of-line-blocks reads behind write flushes on every mix but C.
//!
//! Besides the console tables, emits `BENCH_fig10_ycsb.json`: one result
//! row per (app, mode, workload) with throughput and p50/p99 latency, plus
//! the NCL `stage_breakdown` — the schema-validated trend format every
//! figure bin emits, so CI tracks the YCSB matrix too.

use std::collections::BTreeMap;

use bench::{
    calibrated_testbed, f1, header, mount_app, paper_modes, record_count, row, run_secs, AppKind,
    BenchJson, NCL_STAGES,
};
use ycsb::{LoadSpec, RunSpec, Runner, Workload};

fn main() {
    let tb = calibrated_testbed();
    let mut json = BenchJson::new("fig10_ycsb");

    for kind in AppKind::all() {
        let records = record_count(kind);
        let threads = kind.paper_threads();
        header(&format!(
            "Figure 10: YCSB throughput (KOps/s) — {} ({} records, {} clients)",
            kind.name(),
            records,
            threads
        ));

        // mode -> workload -> kops
        let mut table: BTreeMap<&'static str, BTreeMap<String, f64>> = BTreeMap::new();
        for (mode_name, mode) in paper_modes() {
            let app = mount_app(
                &tb,
                mode,
                kind,
                &format!("f10-{mode_name}").replace(' ', ""),
            );
            Runner::load(
                app.as_ref(),
                &LoadSpec {
                    record_count: records,
                    value_size: 100,
                    threads: threads.max(4),
                },
            )
            .expect("load");
            let mut loaded = records;
            for workload in Workload::paper_suite(records) {
                let report = Runner::run(
                    app.as_ref(),
                    &workload,
                    loaded,
                    &RunSpec {
                        threads,
                        duration: run_secs(),
                        value_size: 100,
                        sample_window: None,
                        seed: 0xF10,
                    },
                );
                // Settle background flush/compaction debt so the next
                // phase measures its own workload, not this one's tail.
                app.quiesce();
                // Workload D inserts extend the keyspace for later runs.
                loaded += report.ops.min((report.ops as f64 * 0.06) as u64);
                json.result_with_percentiles(
                    &format!(
                        "fig10_ycsb/{}/{}/{}",
                        kind.name(),
                        mode_name.replace(' ', "-"),
                        workload.name
                    ),
                    report.latency.mean_ns,
                    report.ops as f64 / report.elapsed.as_secs_f64(),
                    report.latency.p50_ns,
                    report.latency.p99_ns,
                );
                table
                    .entry(mode_name)
                    .or_default()
                    .insert(workload.name.to_string(), report.kops());
            }
        }

        let mut cols = vec!["workload".to_string()];
        cols.extend(paper_modes().iter().map(|(n, _)| n.to_string()));
        row(&cols);
        for w in ["a", "b", "c", "d", "f"] {
            let mut cols = vec![w.to_string()];
            for (mode_name, _) in paper_modes() {
                cols.push(f1(table[mode_name].get(w).copied().unwrap_or(0.0)));
            }
            row(&cols);
        }
        // Overheads of SplitFT vs weak (the paper's headline percentages).
        let mut worst = 0.0f64;
        for w in ["a", "b", "c", "d", "f"] {
            let weak = table["weak-app DFT"][w];
            let split = table["SplitFT"][w];
            if weak > 0.0 {
                worst = worst.max((weak - split) / weak * 100.0);
            }
        }
        println!(
            "worst-case SplitFT overhead vs weak: {:.1}% (paper: {}%)",
            worst,
            match kind {
                AppKind::Rocks => "0.1–3.2",
                AppKind::Redis => "2.9",
                AppKind::Sql => "10.8",
            }
        );
    }

    // The SplitFT runs exercised every NCL stage; stamp their cumulative
    // summaries so the trend file passes the schema gate.
    json.stage_breakdown(&tb.config().ncl.telemetry.snapshot(), &NCL_STAGES);
    json.write();
}
