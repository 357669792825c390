//! What the warm read path costs the allocator, in the two shapes the
//! benchmark sends all day: `project_hot`'s 16-key
//! `lookup_cached_many` answered from leaf free space, and
//! `point_cold`'s 4-key `get_many`, both over resident leaves. The
//! leaf-group reader the two share may not buy its simplicity with a
//! per-key allocation: both counts are pinned at what the two separate
//! walkers made before they became one.
//!
//! The counting allocator only counts on the thread that armed it, so
//! the pool's flusher thread and the test harness never show up.

use nbb_btree::{BTree, BTreeOptions, CacheConfig};
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

fn k(v: u64) -> [u8; 8] {
    v.to_be_bytes()
}

/// 4,000 keys (key `v` → value `3v`) over a pool that holds the whole
/// tree, every page resident.
fn resident_tree(opts: BTreeOptions) -> BTree {
    let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    let tree = BTree::create(Arc::new(BufferPool::new(disk, 256)), 8, opts).unwrap();
    for v in 0..4_000u64 {
        tree.insert(&k(v), v * 3).unwrap();
    }
    assert!(tree.height().unwrap() >= 2);
    tree
}

/// Allocations of the measured 16-key `lookup_cached_many` at the
/// commit before the leaf-group reader (measured with this same test:
/// `order`, `out`, and per leaf a `found` vector, a `hits` vector and
/// the payload copy).
const PARENT_LOOKUP_CACHED_16_ALLOCS: u64 = 63;

/// Allocations of the measured 4-key `get_many` at that commit
/// (`order` and `out`).
const PARENT_GET_MANY_4_ALLOCS: u64 = 2;

#[test]
fn sixteen_key_cached_lookup_allocates_no_more_than_it_did() {
    let tree = resident_tree(BTreeOptions { cache: Some(CacheConfig { payload_size: 8 }) });
    // 16 keys in 16 distinct leaves, out of order, each answered from
    // its leaf's cache.
    let keys: Vec<[u8; 8]> = (0..16u64).map(|i| k((i * 7 % 16) * 250 + 3)).collect();
    for m in tree.lookup_cached_many(&keys).unwrap() {
        let v = m.value.expect("present");
        assert!(tree.cache_populate(m.leaf, v, &v.to_le_bytes(), m.token).unwrap());
    }
    // Once unmeasured, so nothing below is a first-time growth.
    let warm = tree.lookup_cached_many(&keys).unwrap();
    let leaves: std::collections::BTreeSet<_> = warm.iter().map(|m| m.leaf).collect();
    assert_eq!(leaves.len(), 16, "one key per leaf");

    let mut got = Vec::new();
    let n = allocations_in(|| got = tree.lookup_cached_many(&keys).unwrap());
    for (m, key) in got.iter().zip(&keys) {
        let v = u64::from_be_bytes(*key) * 3;
        assert_eq!(m.value, Some(v));
        assert_eq!(m.payload.as_deref(), Some(&v.to_le_bytes()[..]), "served from the leaf");
    }
    println!("16-key lookup_cached_many: {n} allocations");
    assert!(n >= 17, "the counter is armed: the answer vector and 16 payload copies at least");
    assert!(
        n <= PARENT_LOOKUP_CACHED_16_ALLOCS,
        "a warm 16-key lookup_cached_many made {n} allocations; \
         {PARENT_LOOKUP_CACHED_16_ALLOCS} allowed"
    );
}

#[test]
fn four_key_get_many_allocates_no_more_than_it_did() {
    let tree = resident_tree(BTreeOptions::default());
    // Two keys of one leaf, one of another, one absent past the end.
    let keys = [k(2_001), k(17), k(2_002), k(9_999)];
    tree.get_many(&keys).unwrap();

    let mut got = Vec::new();
    let n = allocations_in(|| got = tree.get_many(&keys).unwrap());
    assert_eq!(got, vec![Some(6_003), Some(51), Some(6_006), None]);
    println!("4-key get_many: {n} allocations");
    assert!(n >= 1, "the counter is armed: the answer vector at least");
    assert!(
        n <= PARENT_GET_MANY_4_ALLOCS,
        "a warm 4-key get_many made {n} allocations; {PARENT_GET_MANY_4_ALLOCS} allowed"
    );
}
