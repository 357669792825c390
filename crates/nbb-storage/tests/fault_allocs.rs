//! What a buffer-pool access costs the allocator: a warm hit makes no
//! allocation, and a cold one-page fault makes a handful — the fault
//! machine's bookkeeping is one reservation record, not a vector per
//! concern.
//!
//! The counting allocator only counts on the thread that armed it, so
//! the pool's flusher thread and the test harness never show up.

use nbb_storage::buffer::PoolOptions;
use nbb_storage::{BufferPool, DiskManager, InMemoryDisk};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// `Some(n)` while this thread is measuring; `const`-initialised
    /// and `Drop`-free, so touching it never allocates.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the only
// addition is a thread-local counter bump, which neither allocates nor
// unwinds (`try_with` covers thread teardown).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get().map(|n| n + 1)));
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get().map(|n| n + 1)));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|c| c.set(Some(0)));
    f();
    ALLOCS.with(|c| c.replace(None)).expect("armed above")
}

/// A one-shard pool whose `n` pages have all been faulted once, so the
/// residency table and free list have their final capacity.
fn warm_pool(n: usize) -> (BufferPool, Vec<nbb_storage::PageId>) {
    let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(256));
    let pool = BufferPool::with_pool_options(
        disk,
        2 * n,
        PoolOptions { shards: 1, ..PoolOptions::default() },
    );
    let ids: Vec<_> = (0..n).map(|_| pool.new_page().unwrap()).collect();
    pool.fault_many(&ids).unwrap();
    (pool, ids)
}

/// Allocations of a cold one-page `fault_many` at the commit before the
/// fault machine became reserve → load → publish over one `Reservation`
/// (measured with this same test: `slots`, `by_shard` and one group in
/// it, `reserved`, the `InFlight`, `abort.entries`, `guards`, `serves`,
/// `batch_ks`, `batch`, `resolutions`).
const PARENT_COLD_FAULT_ALLOCS: u64 = 11;

#[test]
fn cold_one_page_fault_allocates_at_most_half_of_what_it_did() {
    let (pool, ids) = warm_pool(8);
    let id = ids[3];
    // Once unmeasured, so nothing below is a first-time growth.
    pool.evict_page(id).unwrap();
    pool.fault_many(&[id]).unwrap();

    pool.evict_page(id).unwrap();
    let n = allocations_in(|| pool.fault_many(&[id]).unwrap());
    assert!(pool.contains(id));
    assert!(n >= 1, "the counter is armed: a fault allocates its InFlight at least");
    assert!(
        2 * n <= PARENT_COLD_FAULT_ALLOCS,
        "a cold one-page fault made {n} allocations; at most half of {PARENT_COLD_FAULT_ALLOCS} allowed"
    );
}

#[test]
fn evicting_cold_fault_allocates_no_more_than_a_free_one() {
    // One shard, every frame holding a page on probation.
    let (pool, ids) = warm_pool(16);
    let extra = pool.new_page().unwrap();
    assert_eq!(pool.capacity(), 32);
    let more: Vec<_> = (0..16).map(|_| pool.new_page().unwrap()).collect();
    pool.fault_many(&more).unwrap();
    assert!(ids.iter().chain(&more).all(|&id| pool.contains(id)), "premise: the shard is full");

    // The first eviction this pool makes: its victim, probation's
    // oldest page, leaves its id in a ghost that has never held one.
    let evicting = allocations_in(|| pool.fault_many(&[extra]).unwrap());
    assert!(pool.contains(extra) && !pool.contains(ids[0]), "the victim was probation's oldest");

    let id = ids[3];
    pool.evict_page(id).unwrap();
    let free = allocations_in(|| pool.fault_many(&[id]).unwrap());
    println!("cold fault: {free} allocations off the free list, {evicting} evicting");
    assert!(
        evicting <= free,
        "a fault that evicts made {evicting} allocations; one off the free list made {free}"
    );
}

#[test]
fn warm_hit_allocates_nothing() {
    let (pool, ids) = warm_pool(8);
    let mut seen = 0u8;
    let n = allocations_in(|| seen = pool.with_page(ids[5], |p| p.bytes()[0]).unwrap());
    assert_eq!(seen, 0);
    assert_eq!(n, 0, "a pool hit is one map probe and a pin");
    assert_eq!(pool.stats().hits, 1);
}
