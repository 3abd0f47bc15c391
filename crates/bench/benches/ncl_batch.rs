//! Criterion bench: batched NCL submission — doorbell batching with one
//! coalesced header write per flushed burst.
//!
//! Burst-size sweep {1, 4, 16, 64}, posts not waiting. Records are small
//! (32 B) so the fixed-location header write (64 wire bytes) is larger than
//! the data it covers — the regime where batching pays: a flushed burst
//! posts one data WR cut from the image plus a **single** header WR with one
//! doorbell (`post_many`), so header traffic and doorbells amortize over
//! the burst.
//!
//! The wire model charges serialization per byte with one propagation
//! overlap per doorbell batch, and the fabric bandwidth is scaled down
//! (100 ns/B) so serialization dominates host scheduler jitter. Appends are
//! contiguous, so each burst is one run: one data WR.
//!
//! A per-stage latency breakdown at burst 16 rides along as
//! `stage_breakdown`, and a durability axis (replicated / ec-2of3 /
//! ec-4of6) as `durability`. Emits `BENCH_ncl_batch.json` at the repo root
//! for CI trend tracking. Rates, ratios and percentiles are printed and
//! recorded, never asserted: splitbench is the repository's only judge of
//! time (its `telemetry.on_over_off` and `bench.trace_overhead` carry the
//! instrumentation cost this bench used to sweep).

use std::sync::Arc;

use bench::{BenchJson, NCL_STAGES};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ncl::{Durability, MemSpillSink, NclLib};
use splitfs::{Testbed, TestbedConfig};
use telemetry::Telemetry;

const RECORD_SIZE: usize = 32;
const BATCH: u64 = 64;
const CAPACITY: usize = 32 << 20;

/// Pipeline depth: deep enough that several bursts are in flight at once
/// (burst boundaries come from explicit `submit` calls, not window drains)
/// and that the backlog covers more than the NIC's completion-moderation
/// window — a window smaller than one moderation clump drains completely
/// between clumps and the measurement phase-locks to the stop-and-go
/// period instead of the wire's serialization rate.
const WINDOW: u64 = 1024;

fn batch_lib(tb: &Testbed, tag: &str, telemetry: Telemetry) -> NclLib {
    let mut config = tb.config().ncl.clone();
    // A slow fabric (100 µs propagation, 100 ns/B): work requests spend
    // their modelled latency on the wire, and the per-byte term is large
    // enough that header bytes are resolvable above scheduler noise.
    // Propagation overlaps within a doorbell batch, so the burst sweep
    // isolates serialized bytes + per-WR overhead.
    config.rdma = sim::LatencyModel::from_nanos(100_000, 0.08);
    config.pipeline_window = WINDOW;
    config.telemetry = telemetry;
    let node = tb.add_app_node(tag);
    NclLib::new(&tb.cluster, node, tag, config, &tb.controller, &tb.registry).unwrap()
}

fn burst_sweep(c: &mut Criterion) {
    let tb = Testbed::start(TestbedConfig::calibrated(3));
    let mut group = c.benchmark_group("ncl_batch");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(3));
    let data = vec![0x5Au8; RECORD_SIZE];
    for burst in [1u64, 4, 16, 64] {
        let tag = format!("bench-batch-{burst}");
        let lib = batch_lib(&tb, &tag, tb.config().ncl.telemetry.clone());
        let file = lib.create("wal", CAPACITY).unwrap();
        let mut offset = 0usize;
        group.throughput(Throughput::Elements(BATCH));
        group.bench_with_input(BenchmarkId::new("coalesced", burst), &burst, |b, &burst| {
            // Steady-state throughput: each iteration stages BATCH
            // records and rings one doorbell per `burst` of them; the
            // pipeline window (not an explicit barrier) bounds the
            // backlog, so the measured rate is the wire's serialization
            // rate — exactly what batching changes.
            b.iter(|| {
                for i in 0..BATCH {
                    if offset + RECORD_SIZE > CAPACITY {
                        offset = 0;
                    }
                    file.record_nowait(offset as u64, &data).unwrap();
                    offset += RECORD_SIZE;
                    if (i + 1) % burst == 0 {
                        file.submit();
                    }
                }
            });
        });
        file.fsync().unwrap();
        file.release().unwrap();
    }
    group.finish();

    let per_second = |burst: u64| -> f64 {
        c.measurements()
            .iter()
            .find(|m| m.id == format!("ncl_batch/coalesced/{burst}"))
            .and_then(|m| m.per_second())
            .expect("measurement present")
    };
    println!(
        "ncl_batch: burst 16 vs burst 1 = {:.2}x",
        per_second(16) / per_second(1)
    );
}

/// One clean burst-16 run against a private telemetry handle, returning the
/// per-stage latency snapshot for the `stage_breakdown` JSON section. The
/// barrier reaps its own completions, as on every deployment.
fn collect_stage_breakdown(tb: &Testbed) -> telemetry::TelemetrySnapshot {
    let telemetry = Telemetry::new();
    let lib = batch_lib(tb, "bench-batch-breakdown", telemetry.clone());
    let file = lib.create("wal", CAPACITY).unwrap();
    let data = vec![0x5Au8; RECORD_SIZE];
    let mut offset = 0usize;
    // Group commit: each burst is staged, submitted, and fsynced durable
    // before the next begins, so no record waits out a window stall inside
    // its staged burst (that wait would be wire time booked as doorbell).
    // 4096 records = 256 group-commits.
    for i in 0..(BATCH * 64) {
        if offset + RECORD_SIZE > CAPACITY {
            offset = 0;
        }
        file.record_nowait(offset as u64, &data).unwrap();
        offset += RECORD_SIZE;
        if (i + 1) % 16 == 0 {
            file.submit();
            file.fsync().unwrap();
        }
    }
    file.fsync().unwrap();
    file.release().unwrap();
    let snap = telemetry.snapshot();

    // The four stages partition the end-to-end interval by construction
    // (shared boundary timestamps), so their means must re-add to the e2e
    // mean. A drift beyond 20% means a span boundary moved or a stage is
    // dropping samples.
    let mean = |name: &str| -> f64 { snap.summary(name).map(|s| s.mean_ns).unwrap_or(0.0) };
    for stage in NCL_STAGES {
        let count = snap.summary(stage).map(|s| s.count).unwrap_or(0);
        assert!(count > 0, "stage histogram {stage} is empty");
    }
    let sum = mean("ncl.record.stage")
        + mean("ncl.record.doorbell")
        + mean("ncl.record.wire")
        + mean("ncl.record.ack");
    let e2e = mean("ncl.record.e2e");
    let drift = (sum - e2e).abs() / e2e;
    println!("ncl_batch: stage-sum {sum:.0} ns vs e2e {e2e:.0} ns (drift {drift:.3})");
    assert!(
        drift <= 0.2,
        "stage means must re-add to the e2e mean within 20% \
         (sum {sum:.0} ns, e2e {e2e:.0} ns)"
    );
    snap
}

// --- Durability axis: replicated vs erasure-coded fragment striping. ---

/// Record size for the durability axis. Large enough (256 B) that the
/// per-burst framing (fragment entry + 64 B header) does not dominate: the
/// regime where the EC wire saving is attributable to striping (the ≤0.6x
/// wire-bytes bar is the tier-1 count test
/// `ec_2of3_ships_at_most_0_6x_the_replicated_wire_bytes`).
const DUR_RECORD_SIZE: usize = 256;
const DUR_BURST: u64 = 16;
const DUR_CAPACITY: usize = 8 << 20;
/// Records in the deterministic wire-accounting pass.
const DUR_RECORDS: u64 = 2048;

/// `(label, erasure-coding parameters)`; `None` = replicated `2f + 1`.
const DUR_MODES: [(&str, Option<(usize, usize)>); 3] = [
    ("replicated", None),
    ("ec_2of3", Some((2, 3))),
    ("ec_4of6", Some((4, 6))),
];

fn dur_lib(tb: &Testbed, tag: &str, telemetry: Telemetry, ec: Option<(usize, usize)>) -> NclLib {
    let mut config = tb.config().ncl.clone();
    // Same slow-fabric regime as the burst sweep: serialization-bound, so
    // throughput differences track wire bytes.
    config.rdma = sim::LatencyModel::from_nanos(100_000, 0.08);
    config.pipeline_window = WINDOW;
    config.telemetry = telemetry;
    if let Some((k, n)) = ec {
        config.durability = Durability::Ec { k, n };
        config.spill = Some(Arc::new(MemSpillSink::new()));
    }
    let node = tb.add_app_node(tag);
    NclLib::new(&tb.cluster, node, tag, config, &tb.controller, &tb.registry).unwrap()
}

/// Burst-16 append throughput for each durability mode. On this wire-bound
/// config ec-2of3 should beat replicated, since each peer serializes `1/k`
/// of the burst instead of all of it.
fn durability_axis(c: &mut Criterion) {
    let tb = Testbed::start(TestbedConfig::calibrated(8));
    let mut group = c.benchmark_group("ncl_batch");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(3));
    let data = vec![0xC3u8; DUR_RECORD_SIZE];
    for (mode, ec) in DUR_MODES {
        let tag = format!("bench-durability-{mode}");
        let lib = dur_lib(&tb, &tag, Telemetry::disabled(), ec);
        let file = lib.create("wal", DUR_CAPACITY).unwrap();
        let mut offset = 0usize;
        group.throughput(Throughput::Elements(BATCH));
        group.bench_with_input(BenchmarkId::new("durability", mode), &mode, |b, _| {
            b.iter(|| {
                for i in 0..BATCH {
                    if offset + DUR_RECORD_SIZE > DUR_CAPACITY {
                        offset = 0;
                    }
                    file.record_nowait(offset as u64, &data).unwrap();
                    offset += DUR_RECORD_SIZE;
                    if (i + 1) % DUR_BURST == 0 {
                        file.submit();
                    }
                }
            });
        });
        file.fsync().unwrap();
        file.release().unwrap();
    }
    group.finish();

    let per_second = |mode: &str| -> f64 {
        c.measurements()
            .iter()
            .find(|m| m.id == format!("ncl_batch/durability/{mode}"))
            .and_then(|m| m.per_second())
            .expect("measurement present")
    };
    for (mode, _) in DUR_MODES {
        println!(
            "ncl_batch: durability {mode} -> {:.0} records/s",
            per_second(mode)
        );
    }
    println!(
        "ncl_batch: ec-2of3 / replicated throughput = {:.2}x",
        per_second("ec_2of3") / per_second("replicated")
    );
}

/// One deterministic pass per durability mode: wire bytes per record (from
/// the `ncl.wire.bytes` counter), peer-memory copies, and timed post-crash
/// recovery.
fn collect_durability(tb: &Testbed) -> Vec<(String, f64, f64, f64)> {
    let data = vec![0xC3u8; DUR_RECORD_SIZE];
    let mut rows = Vec::new();
    for (mode, ec) in DUR_MODES {
        let telemetry = Telemetry::new();
        let tag = format!("bench-durability-acct-{mode}");
        let lib = dur_lib(tb, &tag, telemetry.clone(), ec);
        let app_node = lib.node();
        let file = lib.create("wal", DUR_CAPACITY).unwrap();
        let mut offset = 0usize;
        for i in 0..DUR_RECORDS {
            if offset + DUR_RECORD_SIZE > DUR_CAPACITY {
                offset = 0;
            }
            file.record_nowait(offset as u64, &data).unwrap();
            offset += DUR_RECORD_SIZE;
            if (i + 1) % DUR_BURST == 0 {
                file.submit();
            }
        }
        file.fsync().unwrap();
        let wire_per_record = telemetry.counter_value("ncl.wire.bytes") as f64 / DUR_RECORDS as f64;
        // Peer memory consumed per byte of log: full copies under
        // replication, `n/k` fragment inflation under erasure coding.
        let copies = match ec {
            None => tb.config().ncl.replicas() as f64,
            Some((k, n)) => n as f64 / k as f64,
        };
        // Crash the application and time recovery on a fresh node.
        drop(file);
        let config = lib.config().clone();
        drop(lib);
        tb.cluster.crash(app_node);
        let node2 = tb.add_app_node(&format!("{tag}-r"));
        let lib2 = NclLib::new(
            &tb.cluster,
            node2,
            &tag,
            config,
            &tb.controller,
            &tb.registry,
        )
        .expect("recovery instance lock");
        let t0 = std::time::Instant::now();
        let recovered = lib2.recover("wal").unwrap();
        let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(
            !recovered.contents().is_empty(),
            "{mode}: recovery came back empty after {DUR_RECORDS} records"
        );
        recovered.release().unwrap();
        println!(
            "ncl_batch: durability {mode}: {wire_per_record:.0} wire B/record, \
             {copies:.2} copies of memory, recovery {recovery_ms:.2} ms"
        );
        rows.push((mode.to_string(), copies, wire_per_record, recovery_ms));
    }
    rows
}

fn emit_json(c: &mut Criterion) {
    let tb = Testbed::start(TestbedConfig::calibrated(3));
    let snap = collect_stage_breakdown(&tb);
    let dur_tb = Testbed::start(TestbedConfig::calibrated(8));
    let dur = collect_durability(&dur_tb);
    let mut json = BenchJson::new("ncl_batch");
    for m in c.measurements() {
        json.result(&m.id, m.mean_ns, m.per_second().unwrap_or(0.0));
    }
    json.stage_breakdown(&snap, &NCL_STAGES);
    let per_second = |mode: &str| -> f64 {
        c.measurements()
            .iter()
            .find(|m| m.id == format!("ncl_batch/durability/{mode}"))
            .and_then(|m| m.per_second())
            .unwrap_or(0.0)
    };
    let rows: Vec<String> = dur
        .iter()
        .map(|(mode, copies, wire, recovery_ms)| {
            format!(
                "    \"{mode}\": {{\"copies_of_memory\": {copies:.2}, \
                 \"wire_bytes_per_record\": {wire:.1}, \
                 \"per_second\": {:.1}, \"recovery_ms\": {recovery_ms:.3}}}",
                per_second(mode)
            )
        })
        .collect();
    json.section("durability", format!("{{\n{}\n  }}", rows.join(",\n")));
    json.write();
}

criterion_group!(benches, burst_sweep, durability_axis, emit_json);
criterion_main!(benches);
