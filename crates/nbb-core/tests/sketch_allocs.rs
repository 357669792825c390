//! What the two frequency sketches cost a database that does not use
//! them: nothing. The leaf cache's sketch (`nbb-btree` `cache/sketch.rs`)
//! and the hot set's (`table/hot.rs`) are each sized from their pool,
//! 1 MB apiece on the benchmark's load geometry (4,096 frames of 4 KiB,
//! 64-byte rows), and each is allocated by its first record: a cached
//! index that is only backfilled and persisted allocates no sketch, and
//! a table that is only read allocates no hot-set sketch. The benchmark
//! loads its tree through exactly such a database, and its read
//! workloads never update.
//!
//! The counting allocator only counts on the thread that armed it, so
//! the pools' flusher threads and the test harness never show up.

mod support;

use nbb_core::db::Database;
use nbb_storage::{DiskManager, InMemoryDisk};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use support::{config, encode_row, load, row};

/// Allocations at least this large are counted: half a sketch here, and
/// larger than anything else the measured calls allocate.
const LARGE: usize = 512 << 10;

thread_local! {
    /// `Some(n)` while this thread is measuring; `const`-initialised
    /// and `Drop`-free, so touching it never allocates.
    static LARGE_ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

impl Counting {
    fn count(size: usize) {
        if size >= LARGE {
            let _ = LARGE_ALLOCS.try_with(|c| c.set(c.get().map(|n| n + 1)));
        }
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the only
// addition is a thread-local counter bump, which neither allocates nor
// unwinds (`try_with` covers thread teardown).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations of at least [`LARGE`] bytes `f` makes on this thread.
fn large_allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    LARGE_ALLOCS.with(|c| c.set(Some(0)));
    let out = f();
    (LARGE_ALLOCS.with(|c| c.replace(None)).expect("armed above"), out)
}

/// Rows loaded: few enough that no batch the load builds nears
/// [`LARGE`].
const ROWS: u64 = 8_192;

#[test]
fn sketches_are_allocated_by_their_first_record() {
    let (heap, index) = (Arc::new(InMemoryDisk::new(4096)), Arc::new(InMemoryDisk::new(4096)));
    let (heap_dm, index_dm) = (Arc::clone(&heap) as Arc<dyn DiskManager>, Arc::clone(&index) as _);
    // The benchmark's load: rows appended, the cached index backfilled,
    // everything persisted, over 4,096-frame pools.
    let (large, ()) = large_allocations_in(|| load(heap_dm, index_dm, ROWS));
    assert_eq!(large, 0, "a backfilled, persisted cached index allocates no sketch");

    let db = Database::reopen(config(4096, 4096), heap as _, index as _).unwrap();
    let t = db.table("t").unwrap();
    let pk = t.index("pk").unwrap();
    let keys: Vec<[u8; 8]> = (0..64u64).map(|k| (k * 97).to_be_bytes()).collect();
    let (large, rows) = large_allocations_in(|| pk.get_many(&keys).unwrap());
    assert_eq!(rows[1].as_deref(), Some(&row(97)[..]));
    assert_eq!(large, 1, "the first cached read allocates the leaf cache's sketch, and only it");
    let (large, _) = large_allocations_in(|| pk.get_many(&keys).unwrap());
    assert_eq!(large, 0, "reads allocate no hot-set sketch");

    let update: Vec<([u8; 8], Vec<u8>)> =
        (0..4u64).map(|k| (k.to_be_bytes(), encode_row(k, 1))).collect();
    let (large, applied) = large_allocations_in(|| pk.update_many(&update).unwrap());
    assert!(applied.iter().all(|&a| a));
    assert_eq!(large, 1, "the first update allocates the hot set's sketch");
    let (large, _) = large_allocations_in(|| {
        pk.update_many(&update).unwrap();
        pk.get_many(&keys).unwrap()
    });
    assert_eq!(large, 0, "both sketches are allocated once");
}
