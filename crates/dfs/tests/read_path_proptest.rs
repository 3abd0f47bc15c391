//! Property test: whatever a client did to a file, `read_with` lends the
//! bytes `read` copies, and both are the file's — dirty data over cached,
//! ranges spanning extents, holes, short reads at end of file, a cold cache
//! after a remount — against a flat `Vec<u8>` model.
//!
//! Which arm served a `read_with` shows from outside: the borrowing arm
//! allocates nothing, the assembling arm allocates its buffer. The counting
//! allocator below sorts every call by that, and the run must have taken
//! both.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dfs::{DfsClient, DfsCluster, DfsConfig, DfsFile};
use proptest::prelude::*;
use sim::Cluster;

thread_local! {
    /// Heap allocations (and reallocations) by the calling thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// `read_with` calls that allocated nothing / something.
    static BORROWED: Cell<u64> = const { Cell::new(0) };
    static ASSEMBLED: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count_alloc() {
    // A `const` thread-local of a `Cell<u64>` has no destructor and
    // allocates nothing itself; a thread past its teardown is not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the counter touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: the caller's `layout`, as `alloc` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        // SAFETY: `ptr` came from `System` with `layout` (this type
        // allocates nowhere else) and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[derive(Debug, Clone)]
enum Op {
    Write {
        offset: u16,
        data: Vec<u8>,
    },
    Append {
        data: Vec<u8>,
    },
    Fsync,
    /// `len == None` reads to end of file (`usize::MAX`).
    ReadWith {
        offset: u16,
        len: Option<u16>,
    },
    Read {
        offset: u16,
        len: Option<u16>,
    },
    /// The application server restarts: a fresh client, cold caches, and
    /// whatever was not fsynced is gone.
    Remount,
}

fn read_range() -> impl Strategy<Value = (u16, Option<u16>)> {
    prop_oneof![
        // Mostly small ranges, which fit one extent; some to end of file.
        4 => (0u16..6000, 0u16..700).prop_map(|(offset, len)| (offset, Some(len))),
        1 => (0u16..6000, 700u16..5000).prop_map(|(offset, len)| (offset, Some(len))),
        1 => (0u16..6000).prop_map(|offset| (offset, None)),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let data = || prop::collection::vec(any::<u8>(), 1..400);
    prop_oneof![
        4 => (0u16..5000, data()).prop_map(|(offset, data)| Op::Write { offset, data }),
        2 => data().prop_map(|data| Op::Append { data }),
        2 => Just(Op::Fsync),
        6 => read_range().prop_map(|(offset, len)| Op::ReadWith { offset, len }),
        2 => read_range().prop_map(|(offset, len)| Op::Read { offset, len }),
        1 => Just(Op::Remount),
    ]
}

/// What the file holds: as this client sees it, and as of the last fsync.
#[derive(Default)]
struct Model {
    local: Vec<u8>,
    durable: Vec<u8>,
}

impl Model {
    fn write(&mut self, offset: usize, data: &[u8]) {
        if self.local.len() < offset + data.len() {
            self.local.resize(offset + data.len(), 0);
        }
        self.local[offset..offset + data.len()].copy_from_slice(data);
    }

    fn range(&self, offset: u16, len: Option<u16>) -> &[u8] {
        let len = len.map_or(usize::MAX, usize::from);
        &self.local[sim::short_read(self.local.len(), offset as u64, len)]
    }
}

fn mount(cluster: &Cluster, dfs: &DfsCluster) -> (DfsClient, DfsFile) {
    let client = dfs.client(cluster.add_node("app"));
    let file = client.open("f").expect("the file exists");
    (client, file)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    // Run by the test below, which reads the arm counters afterwards.
    fn reads_match_the_model(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let cluster = Cluster::new();
        // 1 KiB objects: ranges span objects as well as extents.
        let dfs = DfsCluster::start(&cluster, DfsConfig::zero_small_objects());
        dfs.client(cluster.add_node("creator")).create("f").unwrap();
        let (mut client, mut file) = mount(&cluster, &dfs);
        let mut model = Model::default();
        for op in &ops {
            match op {
                Op::Write { offset, data } => {
                    client.write("f", *offset as u64, data).unwrap();
                    model.write(*offset as usize, data);
                }
                Op::Append { data } => {
                    let at = client.append("f", data).unwrap();
                    prop_assert_eq!(at as usize, model.local.len());
                    model.write(at as usize, data);
                }
                Op::Fsync => {
                    client.fsync("f").unwrap();
                    model.durable = model.local.clone();
                }
                Op::ReadWith { offset, len } => {
                    let want = model.range(*offset, *len);
                    let len = len.map_or(usize::MAX, usize::from);
                    let allocs = ALLOCS.get();
                    // The closure allocates nothing: any allocation is the
                    // read path's.
                    let same = client.read_with(&file, *offset as u64, len, |got| got == want);
                    let arm = if ALLOCS.get() == allocs { &BORROWED } else { &ASSEMBLED };
                    arm.with(|n| n.set(n.get() + 1));
                    prop_assert_eq!(same, Ok(true), "read_with({}, {})", offset, len);
                }
                Op::Read { offset, len } => {
                    let want = model.range(*offset, *len);
                    let len = len.map_or(usize::MAX, usize::from);
                    let got = client.read("f", *offset as u64, len).unwrap();
                    prop_assert_eq!(&got[..], want, "read({}, {})", offset, len);
                }
                Op::Remount => {
                    (client, file) = mount(&cluster, &dfs);
                    model.local = model.durable.clone();
                }
            }
            prop_assert_eq!(client.size("f").unwrap() as usize, model.local.len());
        }
    }
}

#[test]
fn the_borrowed_path_equals_the_copied_one() {
    reads_match_the_model();
    let (borrowed, assembled) = (BORROWED.get(), ASSEMBLED.get());
    println!("read_with: {borrowed} borrowed, {assembled} assembled");
    assert!(
        borrowed > 100 && assembled > 100,
        "both arms must be exercised: {borrowed} borrowed, {assembled} assembled"
    );
}
