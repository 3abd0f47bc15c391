//! Criterion bench: pipelined NCL replication (`record_nowait` +
//! `wait_durable`) versus the synchronous per-record baseline.
//!
//! Two measurements:
//!
//! 1. **Window sweep** — 128 B records on the calibrated testbed with the
//!    fabric propagation term scaled so the modelled bandwidth-delay product
//!    is resolvable above host scheduler jitter (see `pipeline_lib`). Depth 1
//!    is the paper's baseline protocol (synchronous `record`); deeper windows
//!    post batches through `record_nowait` and fence once with `fsync`. The
//!    window-4-over-1 speedup is printed and recorded, not asserted:
//!    splitbench is the repository's only judge of time.
//! 2. **Allocation count** — the record hot path copies a record once, into
//!    the staging image, and every post borrows from there, so posting to
//!    any number of peers allocates nothing, and absorbing their
//!    completions nothing either. A counting global allocator holds the
//!    line against regressions such as re-introducing a payload copy or
//!    per-peer, per-WR or per-completion buffers.
//!
//! Emits `BENCH_ncl_pipeline.json` for CI trend tracking.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bench::{BenchJson, NCL_STAGES};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ncl::NclLib;
use splitfs::{Testbed, TestbedConfig};
use telemetry::Telemetry;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const RECORD_SIZE: usize = 128;
const BATCH: u64 = 64;
const CAPACITY: usize = 32 << 20;

fn pipeline_lib(tb: &Testbed, window: u64, tag: &str, telemetry: Telemetry) -> NclLib {
    let mut config = tb.config().ncl.clone();
    config.telemetry = telemetry;
    // The calibrated 1.5 µs fabric latency is charged by spinning, so on an
    // oversubscribed host the measured per-record time is dominated by
    // cross-thread scheduler wake-ups, which hit depth 1 and depth 16 alike.
    // Scale the propagation term up (same 25 Gb/s bandwidth, no jitter) so
    // the in-flight period is sleep-based and resolvable above that noise:
    // the sweep then measures the modelled bandwidth-delay overlap — the
    // effect pipelining exists to exploit — rather than scheduler jitter.
    config.rdma = sim::LatencyModel::from_nanos(100_000, 25.0);
    config.pipeline_window = window;
    let node = tb.add_app_node(tag);
    NclLib::new(&tb.cluster, node, tag, config, &tb.controller, &tb.registry).unwrap()
}

fn window_sweep(c: &mut Criterion) {
    let tb = Testbed::start(TestbedConfig::calibrated(3));
    let mut group = c.benchmark_group("ncl_pipeline");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(3));
    let data = vec![0xA5u8; RECORD_SIZE];
    for window in [1u64, 2, 4, 8, 16] {
        let lib = pipeline_lib(
            &tb,
            window,
            &format!("bench-pipe-{window}"),
            tb.config().ncl.telemetry.clone(),
        );
        let file = lib.create("wal", CAPACITY).unwrap();
        let mut offset = 0usize;
        group.throughput(Throughput::Elements(BATCH));
        group.bench_with_input(BenchmarkId::from_parameter(window), &window, |b, &w| {
            b.iter(|| {
                for _ in 0..BATCH {
                    if offset + RECORD_SIZE > CAPACITY {
                        offset = 0;
                    }
                    if w == 1 {
                        // The paper's baseline: one synchronous record.
                        file.record(offset as u64, &data).unwrap();
                    } else {
                        file.record_nowait(offset as u64, &data).unwrap();
                    }
                    offset += RECORD_SIZE;
                }
                file.fsync().unwrap();
            });
        });
        file.release().unwrap();
    }
    group.finish();

    let per_second = |id: &str| -> f64 {
        c.measurements()
            .iter()
            .find(|m| m.id == format!("ncl_pipeline/{id}"))
            .and_then(|m| m.per_second())
            .expect("measurement present")
    };
    println!(
        "ncl_pipeline: window 4 vs 1 speedup = {:.2}x",
        per_second("4") / per_second("1")
    );
}

/// Heap allocations per steady-state synchronous 128-B `record` on a
/// three-peer testbed configured by `config`.
fn allocations_per_record(config: TestbedConfig, tag: &str) -> f64 {
    let tb = Testbed::start(config);
    let node = tb.add_app_node(tag);
    let ncl = tb.config().ncl.clone();
    let lib = NclLib::new(&tb.cluster, node, tag, ncl, &tb.controller, &tb.registry).unwrap();
    let file = lib.create("wal", CAPACITY).unwrap();
    let data = vec![0xA5u8; RECORD_SIZE];

    let rounds = 2_000u64;
    let record_all = |start: u64| {
        for i in 0..rounds {
            file.record(((start + i) as usize * RECORD_SIZE) as u64, &data)
                .unwrap();
        }
    };
    record_all(0); // Warm up caches, completion vectors, etc.
    let before = ALLOCS.load(Ordering::Relaxed);
    record_all(rounds);
    let per_record = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / rounds as f64;
    file.release().unwrap();
    per_record
}

fn allocation_count(c: &mut Criterion) {
    // Zero latencies: nothing sleeps, so the allocation count per record is
    // stable and dominated by the record path itself.
    let zero = allocations_per_record(TestbedConfig::zero(3), "bench-pipe-alloc");
    println!("ncl_pipeline: {zero:.2} heap allocations per 3-peer record");
    // Measured 0.00: nothing is left. The record is staged into the image
    // and every post borrows from it, the header is encoded on the stack,
    // a doorbell's requests are built as they are posted, and the
    // completion path (queue, poll buffer, watermark scratch, flights,
    // spans) reuses its buffers. The count repeats exactly, so the bound is
    // the measurement plus one: anything above it means a copy or a
    // per-completion buffer crept back in.
    assert!(
        zero <= 1.0,
        "record path allocation regression: {zero:.2} allocs/record"
    );
    // The calibrated twin: there the barrier waits for its flights to land,
    // and the wait must reuse the drain's buffers like everything else. (Its
    // peers' GC threads tick meanwhile, hence the hundredth.)
    let calibrated = allocations_per_record(TestbedConfig::calibrated(3), "bench-pipe-alloc-cal");
    println!("ncl_pipeline: {calibrated:.2} heap allocations per calibrated 3-peer record");
    assert!(
        calibrated <= zero + 0.01,
        "a record that waits for its flights allocates more: {calibrated:.2} vs {zero:.2}"
    );
    let _ = c; // Allocation check is an assertion, not a timing measurement.
}

/// One clean window-16 pipelined run against a private telemetry handle,
/// returning the per-stage latency snapshot for the `stage_breakdown` JSON
/// section. The stage/doorbell/wire/ack spans partition the end-to-end
/// interval by construction, so their means must re-add to the e2e mean.
fn collect_stage_breakdown(tb: &Testbed) -> telemetry::TelemetrySnapshot {
    let telemetry = Telemetry::new();
    let lib = pipeline_lib(tb, 16, "bench-pipe-breakdown", telemetry.clone());
    let file = lib.create("wal", CAPACITY).unwrap();
    let data = vec![0xA5u8; RECORD_SIZE];
    let mut offset = 0usize;
    for _ in 0..(BATCH * 8) {
        if offset + RECORD_SIZE > CAPACITY {
            offset = 0;
        }
        file.record_nowait(offset as u64, &data).unwrap();
        offset += RECORD_SIZE;
    }
    file.fsync().unwrap();
    file.release().unwrap();
    let snap = telemetry.snapshot();
    for stage in NCL_STAGES {
        let count = snap.summary(stage).map(|s| s.count).unwrap_or(0);
        assert!(count > 0, "stage histogram {stage} is empty");
    }
    snap
}

fn emit_json(c: &mut Criterion) {
    let tb = Testbed::start(TestbedConfig::calibrated(3));
    let snap = collect_stage_breakdown(&tb);
    let mut json = BenchJson::new("ncl_pipeline");
    for m in c.measurements() {
        json.result(&m.id, m.mean_ns, m.per_second().unwrap_or(0.0));
    }
    json.stage_breakdown(&snap, &NCL_STAGES);
    json.write();
}

criterion_group!(benches, window_sweep, allocation_count, emit_json);
criterion_main!(benches);
