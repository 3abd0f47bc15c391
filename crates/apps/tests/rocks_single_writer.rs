//! What a single writer costs minirocks, in counts that repeat: threads the
//! store adds, sleeps of the writing thread, heap allocations per put — and
//! per get that has to go to an SSTable.
//!
//! One test, alone in its binary: the thread count and the allocation count
//! are the process's.
#![cfg(target_os = "linux")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use apps::minirocks::{MiniRocks, RocksOptions};
use apps::KvApp;
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

/// The count once joined threads have left `/proc`: a join returns when
/// the kernel clears the thread's id, a moment before its task is
/// unlisted.
fn threads_after_joins(expected: usize) -> usize {
    for _ in 0..1_000 {
        if threads_of_the_process() == expected {
            break;
        }
        std::thread::yield_now();
    }
    threads_of_the_process()
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
    // Zero latencies: nothing below the store sleeps, so every sleep and
    // allocation counted here is the write path's own.
    let tb = Testbed::start(TestbedConfig::zero(3));
    let (fs, _) = tb.mount(Mode::SplitFt, "rocks-counts");

    let before = threads_of_the_process();
    let db = MiniRocks::open(fs, "db/", RocksOptions::default()).unwrap();
    assert_eq!(
        threads_after_joins(before + 1) - before,
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
    // Measured 3.01 (18.01 with the commit thread, 7.01 while ncl copied
    // each record out of its image): `put`'s key, value and one-entry
    // batch, which the memtable keeps. ncl's record path adds none (the
    // root `record_allocations` test gates it), and neither does the
    // store's own path: no reply channel, no copy of the entries, no
    // record buffer. The count repeats exactly, so the bound is the
    // measurement plus one.
    assert!(
        per_put <= 4.01,
        "write path allocation regression: {per_put:.2} allocations per put"
    );

    a_get_from_an_sstable_copies_one_value(&tb);
}

/// Same binary, same counter: a `get` copies the value it returns and
/// nothing else, whether the memtable has the key or a table does — where
/// it searches the block index and walks half a 4 KiB block of ~30 entries
/// in the file system's page cache, on average.
fn a_get_from_an_sstable_copies_one_value(tb: &Testbed) {
    let (fs, _) = tb.mount(Mode::SplitFt, "rocks-read-counts");
    // 1,000 sorted keys through a 64 KiB memtable, which counts 151 bytes an
    // entry: a flush after 435 keys and one after 870, to L0 tables of
    // disjoint ranges (below the compaction trigger, so the flush thread
    // then idles). The first 300 keys are in the first table, the last 100
    // still in the memtable.
    let opts = RocksOptions {
        memtable_bytes: 64 << 10,
        ..RocksOptions::default()
    };
    let db = MiniRocks::open(fs, "reads/", opts).unwrap();
    let keys: Vec<String> = (0..1_000u64).map(|i| format!("key-{i:015}")).collect();
    for key in &keys {
        db.put(key.as_bytes(), &[0x5Au8; 100]).unwrap();
    }
    db.quiesce();
    let (l0, l1) = db.level_file_counts();
    assert!((1..4).contains(&l0) && l1 == 0, "L0 {l0}, L1 {l1}");
    assert_eq!(db.flush_count(), 2, "which keys the memtable holds");

    let per_get = |keys: &[String]| {
        let get_all = || {
            for key in keys {
                assert_eq!(db.get(key.as_bytes()).unwrap().unwrap().len(), 100);
            }
        };
        get_all();
        let allocs = ALLOCS.load(Ordering::Relaxed);
        get_all();
        (ALLOCS.load(Ordering::Relaxed) - allocs) as f64 / keys.len() as f64
    };
    let (from_table, from_memtable) = (per_get(&keys[..300]), per_get(&keys[900..]));
    println!(
        "allocations per get: {from_table:.2} from an sstable, {from_memtable:.2} from the memtable"
    );
    // Measured 1.00 and 1.00: the value. (4.00 from a table while the
    // candidate list, the block and its dirty-overlay scan were allocated
    // per get; 19.10 when every entry walked past had its value copied.)
    // Exact, so the bound is the measurement.
    assert!(
        from_table <= 1.0 && from_memtable <= 1.0,
        "read path allocation regression: {from_table:.2} per get from an sstable, \
         {from_memtable:.2} from the memtable"
    );
}
