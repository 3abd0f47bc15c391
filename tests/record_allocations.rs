//! Tier-1 pin of the record path's heap allocations: a record is copied
//! once, into the staging image, and every post borrows from there, so a
//! synchronous 128-B record to three peers allocates nothing — nor does
//! absorbing the peers' completions, nor a barrier that waits for its
//! flights to land.
//!
//! One test, alone in its binary: the allocation count is the process's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use splitft::ncl::NclLib;
use splitft::splitfs::{Testbed, TestbedConfig};

struct CountingAlloc;

/// Allocations and reallocations of every thread: the record path may not
/// hide its copies on another one.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const RECORD_SIZE: usize = 128;
const ROUNDS: u64 = 2_000;

/// Heap allocations per steady-state synchronous 128-B `record` on a
/// three-peer testbed configured by `config`, after `ROUNDS` records of
/// warm-up (completion vectors, span rings and histograms reach their size).
fn allocations_per_record(config: TestbedConfig, tag: &str) -> f64 {
    let tb = Testbed::start(config);
    let node = tb.add_app_node(tag);
    let ncl = tb.config().ncl.clone();
    let lib = NclLib::new(&tb.cluster, node, tag, ncl, &tb.controller, &tb.registry).unwrap();
    let file = lib
        .create("wal", 2 * ROUNDS as usize * RECORD_SIZE)
        .unwrap();
    let data = [0xA5u8; RECORD_SIZE];
    let record_all = |start: u64| {
        for i in start..start + ROUNDS {
            file.record(i * RECORD_SIZE as u64, &data).unwrap();
        }
    };
    record_all(0);
    let before = ALLOCS.load(Ordering::Relaxed);
    record_all(ROUNDS);
    let per_record = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / ROUNDS as f64;
    file.release().unwrap();
    per_record
}

#[test]
fn a_synchronous_record_allocates_nothing() {
    // Zero latencies: nothing sleeps, so every allocation counted is the
    // record path's own.
    let zero = allocations_per_record(TestbedConfig::zero(3), "alloc-zero");
    println!("{zero:.4} heap allocations per 3-peer record");
    // Measured 0.0005 (one allocation in 2,000 records): the header is
    // encoded on the stack, a doorbell's requests are built as they are
    // posted, and the completion path (queue, poll buffer, watermark
    // scratch, flights, spans) reuses its buffers. The count repeats
    // exactly. A payload copy per record reads 1.0005, and a per-peer,
    // per-WR or per-completion buffer more, so the bound sits half way.
    assert!(
        zero < 0.5,
        "record path allocation regression: {zero:.4} allocations per record"
    );
    // The calibrated twin: there the barrier waits for its flights to land,
    // and the wait must reuse the drain's buffers like everything else.
    let calibrated = allocations_per_record(TestbedConfig::calibrated(3), "alloc-calibrated");
    println!("{calibrated:.4} heap allocations per calibrated 3-peer record");
    assert!(
        calibrated <= zero + 0.01,
        "a record that waits for its flights allocates more: {calibrated:.4} vs {zero:.4}"
    );
}
