//! Criterion bench: thread-per-core sharded NCL runtime scaling sweep.
//!
//! {1, 2, 4, 8} reactor shards, posts not waiting, one pinned WAL file per
//! shard, every worker staging 32 B records in bursts of [`BURST`] with the
//! pipeline window bounding the backlog. Completions are reaped by the shard
//! reactors, so the application threads only stage, ring doorbells, and park
//! on the published watermark — the configuration whose aggregate rate the
//! sharding work is accountable for.
//!
//! The wire model matches `ncl_batch` (100 µs propagation, 100 ns/B): each
//! shard's throughput is serialization-bound on its own private QPs, so the
//! sweep measures how well the runtime lets independent shards overlap —
//! not how fast one mutex can hand off. A separate instrumented 4-shard run
//! collects the per-shard stage breakdown for `BENCH_ncl_mt.json`. Rates,
//! ratios and percentiles are printed and recorded, never asserted:
//! splitbench is the repository's only judge of time.
//!
//! The sweep itself runs with telemetry disabled: the scaling number must
//! not include histogram stamping.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bench::{BenchJson, NCL_STAGES};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ncl::{NclConfig, NclFile, NclLib, NclRuntime};
use splitfs::{Testbed, TestbedConfig};
use telemetry::Telemetry;

const RECORD_SIZE: usize = 32;
/// Records per doorbell in the instrumented breakdown run.
const BURST: u64 = 16;
/// Records per doorbell in the scaling sweep. Larger than the breakdown
/// burst: on a single core every reactor wakeup is a context switch, and a
/// doorbell signals the reactor once per batch — big batches keep the wakeup
/// rate far below the record rate.
const SWEEP_BURST: u64 = 256;
/// Records each shard worker stages per measured iteration.
const BATCH: u64 = 2048;
const CAPACITY: usize = 32 << 20;
/// Pipeline depth per file: covers the records in flight at the wire's
/// bandwidth-delay product plus what lands between two reactor rounds
/// behind the serialization front, so the steady state is
/// serialization-bound, not window-bound.
const WINDOW: u64 = 1024;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Shard count of the instrumented breakdown run (and the JSON dimension).
const BREAKDOWN_SHARDS: usize = 4;

fn mt_lib(tb: &Testbed, tag: &str, telemetry: Telemetry, window: u64) -> NclLib {
    // The zero profile as the base: the sweep isolates the replication
    // plane, so the local staging copy must not charge a modelled spin per
    // record (on one core those spins serialize across shards and would
    // measure the staging model, not the runtime).
    let mut config = NclConfig::zero();
    // Slow fabric: 100 µs propagation (overlapped across a doorbell batch)
    // and 100 ns/B serialization. Per shard the wire frees a 32 B record
    // every ~3.3 µs, so one shard tops out near 300k records/s and the
    // aggregate only grows if shards genuinely overlap.
    config.rdma = sim::LatencyModel::from_nanos(100_000, 0.08, 0.0);
    config.pipeline_window = window;
    config.telemetry = telemetry;
    // Files are pinned one-per-shard via `host_on`, not hashed via the
    // config runtime: the sweep must not depend on hash luck.
    config.runtime = None;
    let node = tb.add_app_node(tag);
    NclLib::new(&tb.cluster, node, tag, config, &tb.controller, &tb.registry).unwrap()
}

/// One pinned WAL per shard: the lib (holds the instance lock), the file,
/// and its append cursor carried across iterations.
struct ShardFile {
    _lib: NclLib,
    file: Arc<NclFile>,
    offset: AtomicU64,
}

fn shard_files(
    tb: &Testbed,
    runtime: &Arc<NclRuntime>,
    tag: &str,
    tel: &Telemetry,
    window: u64,
) -> Vec<ShardFile> {
    (0..runtime.shards())
        .map(|i| {
            let lib = mt_lib(tb, &format!("{tag}-{i}"), tel.clone(), window);
            let file = lib.create("wal", CAPACITY).unwrap();
            runtime.host_on(&file, i);
            ShardFile {
                _lib: lib,
                file,
                offset: AtomicU64::new(0),
            }
        })
        .collect()
}

/// Stages `BATCH` records on `sf`'s file in bursts of `burst`, advancing
/// the cursor. The pipeline window provides backpressure; no final barrier,
/// so the pipe stays warm across iterations.
fn drive(sf: &ShardFile, data: &[u8], burst: u64) {
    let mut off = sf.offset.load(Ordering::Relaxed);
    for j in 0..BATCH {
        if off as usize + RECORD_SIZE > CAPACITY {
            off = 0;
        }
        sf.file.record_nowait(off, data).unwrap();
        off += RECORD_SIZE as u64;
        if (j + 1) % burst == 0 {
            sf.file.submit();
        }
    }
    sf.offset.store(off, Ordering::Relaxed);
}

fn shard_sweep(c: &mut Criterion) {
    let tb = Testbed::start(TestbedConfig::calibrated(3));
    let mut group = c.benchmark_group("ncl_mt");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(3));
    let data = vec![0x5Au8; RECORD_SIZE];
    for shards in SHARD_COUNTS {
        let runtime = NclRuntime::start(shards);
        let files = shard_files(
            &tb,
            &runtime,
            &format!("bench-mt-{shards}"),
            &Telemetry::disabled(),
            WINDOW,
        );
        group.throughput(Throughput::Elements(shards as u64 * BATCH));
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, _| {
            b.iter(|| {
                std::thread::scope(|s| {
                    for sf in &files {
                        let data = &data;
                        s.spawn(move || drive(sf, data, SWEEP_BURST));
                    }
                });
            });
        });
        for sf in &files {
            sf.file.fsync().unwrap();
            sf.file.release().unwrap();
        }
    }
    group.finish();

    let per_second = |shards: usize| -> f64 {
        c.measurements()
            .iter()
            .find(|m| m.id == format!("ncl_mt/shards/{shards}"))
            .and_then(|m| m.per_second())
            .expect("measurement present")
    };
    for shards in SHARD_COUNTS {
        println!(
            "ncl_mt: {shards} shard(s) -> {:.0} records/s aggregate",
            per_second(shards)
        );
    }
    println!(
        "ncl_mt: 4-shard / 1-shard aggregate = {:.2}x",
        per_second(4) / per_second(1)
    );
}

/// Instrumented 4-shard run against a private telemetry handle: returns the
/// snapshot carrying both the fleet-wide stage histograms and their
/// `ncl.shard-<i>.record.*` twins, after checking every shard stamped its
/// own.
fn collect_stage_breakdown(tb: &Testbed) -> telemetry::TelemetrySnapshot {
    let telemetry = Telemetry::new();
    let runtime = NclRuntime::start_with_telemetry(BREAKDOWN_SHARDS, telemetry.clone());
    // Window sized past the whole run: the breakdown isolates doorbell
    // latency, so a record must never sit staged through a window stall
    // (a stalled writer holds its partial burst until the watermark moves,
    // which is wire time, not doorbell time).
    let files = shard_files(tb, &runtime, "bench-mt-breakdown", &telemetry, 4 * BATCH);
    let data = vec![0x5Au8; RECORD_SIZE];
    // Group-commit, one shard at a time: stage a burst, fsync it durable,
    // stage the next. The sweep above already measures concurrent overlap;
    // here each doorbell sample must capture the runtime's own
    // stage-to-flush path — with completions in flight during staging, a
    // small-CPU box measures the scheduler's preemptions instead.
    for sf in &files {
        let mut off = 0u64;
        for _ in 0..BATCH {
            for _ in 0..BURST {
                sf.file.record_nowait(off, &data).unwrap();
                off += RECORD_SIZE as u64;
            }
            sf.file.fsync().unwrap();
        }
    }
    for sf in &files {
        sf.file.release().unwrap();
    }
    let snap = telemetry.snapshot();

    for stage in NCL_STAGES {
        let count = snap.summary(stage).map(|s| s.count).unwrap_or(0);
        assert!(count > 0, "stage histogram {stage} is empty");
    }
    // A shard whose twin histogram is empty was never hosted.
    for i in 0..BREAKDOWN_SHARDS {
        let name = format!("ncl.shard-{i}.record.doorbell");
        let s = snap
            .summary(&name)
            .unwrap_or_else(|| panic!("{name} histogram is empty"));
        assert!(s.count > 0, "{name} recorded no samples");
        println!("ncl_mt: shard-{i} doorbell p99 = {} ns", s.p99_ns);
    }
    snap
}

fn emit_json(c: &mut Criterion) {
    let tb = Testbed::start(TestbedConfig::calibrated(3));
    let snap = collect_stage_breakdown(&tb);
    let mut json = BenchJson::new("ncl_mt");
    for m in c.measurements() {
        json.result(&m.id, m.mean_ns, m.per_second().unwrap_or(0.0));
    }
    json.shard_stage_breakdown(&snap, &NCL_STAGES, BREAKDOWN_SHARDS);
    // Per-shard-count scaling efficiency: aggregate throughput at `s`
    // shards over `s` times the 1-shard aggregate. 1.0 = perfect linear
    // scaling; CI tracks the trend and warns on any point under 0.6.
    let per_second = |shards: usize| -> f64 {
        c.measurements()
            .iter()
            .find(|m| m.id == format!("ncl_mt/shards/{shards}"))
            .and_then(|m| m.per_second())
            .unwrap_or(0.0)
    };
    let base = per_second(1);
    let rows: Vec<String> = SHARD_COUNTS
        .iter()
        .map(|&shards| {
            let efficiency = if base > 0.0 {
                per_second(shards) / (shards as f64 * base)
            } else {
                0.0
            };
            if efficiency < 0.6 {
                println!(
                    "ncl_mt: WARNING: scaling efficiency at {shards} shard(s) is \
                     {efficiency:.2} (< 0.6) — shards are contending instead of overlapping"
                );
            }
            format!("    \"{shards}\": {efficiency:.3}")
        })
        .collect();
    json.section(
        "scaling_efficiency",
        format!("{{\n{}\n  }}", rows.join(",\n")),
    );
    json.write();
}

criterion_group!(benches, shard_sweep, emit_json);
criterion_main!(benches);
