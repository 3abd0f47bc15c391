//! What a single writer costs minirocks, in counts that repeat: threads the
//! store adds, sleeps of the writing thread, heap allocations per put.
//!
//! One test, alone in its binary: the thread count and the allocation count
//! are the process's.
#![cfg(target_os = "linux")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use apps::minirocks::{MiniRocks, RocksOptions};
use splitfs::{Mode, Testbed, TestbedConfig};

struct CountingAlloc;

/// Allocations and reallocations of every thread: the write path may not
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

fn threads_of_the_process() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// Times the calling thread has gone to sleep of its own accord.
fn voluntary_switches() -> u64 {
    let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .expect("the kernel reports context switches");
    line.trim().parse().unwrap()
}

#[test]
fn a_single_writer_commits_on_its_own_thread() {
    // Zero latencies and the inline NIC: nothing below the store sleeps, so
    // every sleep and allocation counted here is the write path's own.
    let mut config = TestbedConfig::zero(3);
    config.ncl.inline_nic = true;
    let tb = Testbed::start(config);
    let (fs, _) = tb.mount(Mode::SplitFt, "rocks-counts");

    let before = threads_of_the_process();
    let db = MiniRocks::open(fs, "db/", RocksOptions::default()).unwrap();
    assert_eq!(
        threads_of_the_process() - before,
        1,
        "the flush thread is the store's only thread"
    );

    // 2,000 puts of 120 bytes stay far below the default memtable and WAL
    // sizes: no rotation, no flush. Updates of 1,000 keys written before,
    // so the memtable's tree allocates no node either.
    let puts = 1_000u64;
    let keys: Vec<String> = (0..puts).map(|i| format!("key-{i:015}")).collect();
    let value = [0x5Au8; 100];
    let put_all = || {
        for key in &keys {
            db.put(key.as_bytes(), &value).unwrap();
        }
    };
    put_all();
    let (switches, allocs) = (voluntary_switches(), ALLOCS.load(Ordering::Relaxed));
    put_all();
    let (switches, allocs) = (
        voluntary_switches() - switches,
        ALLOCS.load(Ordering::Relaxed) - allocs,
    );
    let per_put = allocs as f64 / puts as f64;
    println!("single writer: {switches} voluntary context switches per {puts} puts, {per_put:.2} allocations per put");

    // Measured 0. A hand-off to another thread and back is two sleeps per
    // put: with the commit thread this store used to have, this read 1,864
    // to 1,912 (a reply that beat its sleeper saved the odd one).
    assert!(
        switches < 20,
        "{switches} sleeps in {puts} single-writer puts"
    );
    // Measured 7.01 (18.01 with the commit thread): `put`'s key, value and
    // one-entry batch, which the memtable keeps, and the four of ncl's
    // record path (`ncl_pipeline` gates those). The store's own path adds
    // none: no reply channel, no copy of the entries, no record buffer. The
    // count repeats exactly, so the bound is the measurement plus one.
    assert!(
        per_put <= 8.01,
        "write path allocation regression: {per_put:.2} allocations per put"
    );
}
