//! Buffer-pool edge cases: exhaustion, nested access, stats accounting.

use nbb_storage::{BufferPool, DiskManager, InMemoryDisk, PoolOptions, StorageError};
use std::sync::atomic::Ordering;
use std::sync::Arc;

#[path = "support/flaky_disk.rs"]
mod flaky_disk;
use flaky_disk::FlakyDisk;

fn pool(cap: usize) -> Arc<BufferPool> {
    let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(256));
    Arc::new(BufferPool::new(disk, cap))
}

#[test]
fn exhaustion_when_all_frames_pinned() {
    // Single-frame pool: fetching a second page while the first is
    // pinned (inside its closure) must fail with BufferPoolExhausted,
    // not deadlock and not evict the pinned frame.
    let p = pool(1);
    let a = p.new_page().unwrap();
    let b = p.new_page().unwrap();
    let inner_result = p
        .with_page(a, |_| {
            // `a` is pinned here; no frame is free for `b`.
            p.with_page(b, |_| ()).map_err(|e| format!("{e}"))
        })
        .unwrap();
    assert!(inner_result.unwrap_err().contains("exhausted"), "expected BufferPoolExhausted");
    // After the closure, the frame is unpinned and `b` is reachable.
    p.with_page(b, |_| ()).unwrap();
}

#[test]
fn nested_access_to_distinct_pages_is_fine() {
    let p = pool(4);
    let a = p.new_page().unwrap();
    let b = p.new_page().unwrap();
    let sum = p
        .with_page_mut(a, |pa| {
            pa.bytes_mut()[0] = 5;
            p.with_page_mut(b, |pb| {
                pb.bytes_mut()[0] = 7;
                pb.bytes()[0]
            })
            .unwrap()
                + pa.bytes()[0]
        })
        .unwrap();
    assert_eq!(sum, 12);
}

#[test]
fn eviction_prefers_unreferenced_frames() {
    // Touch page A between every page of a one-touch stream. A's hits
    // on probation do not protect it, so the stream pushes it out once
    // (FIFO); its next miss is a re-reference after probation, which
    // promotes it, and from then on the stream evicts only itself.
    let p = pool(4);
    let a = p.new_page().unwrap();
    let others: Vec<_> = (0..8).map(|_| p.new_page().unwrap()).collect();
    p.with_page(a, |_| ()).unwrap();
    let mut a_misses = 1;
    for o in &others {
        let before = p.stats().misses;
        p.with_page(a, |_| ()).unwrap();
        a_misses += p.stats().misses - before;
        p.with_page(*o, |_| ()).unwrap();
    }
    assert_eq!(a_misses, 2, "A misses on its first load and on one ghost re-reference");
    assert!(p.contains(a), "a promoted, frequently-referenced page was evicted by the stream");
}

#[test]
fn evict_pinned_page_refused() {
    let p = pool(2);
    let a = p.new_page().unwrap();
    let err = p.with_page(a, |_| p.evict_page(a)).unwrap();
    assert!(matches!(err, Err(StorageError::BufferPoolExhausted)));
}

#[test]
fn stats_add_up() {
    let p = pool(2);
    let ids: Vec<_> = (0..6).map(|_| p.new_page().unwrap()).collect();
    for id in &ids {
        p.with_page(*id, |_| ()).unwrap(); // 6 misses
    }
    for id in ids.iter().rev().take(2) {
        p.with_page(*id, |_| ()).unwrap(); // 2 hits (last two resident)
    }
    let s = p.stats();
    assert_eq!(s.misses, 6);
    assert_eq!(s.hits, 2);
    assert_eq!(s.evictions, 4, "6 loads into 2 frames");
}

#[test]
fn failed_read_leaves_pool_consistent() {
    let disk = Arc::new(FlakyDisk::new(256));
    let pool = BufferPool::with_pool_options(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        2,
        PoolOptions { shards: 1, ..PoolOptions::default() },
    );
    // Fill both frames, one dirty.
    let a = pool.new_page().unwrap();
    let b = pool.new_page().unwrap();
    let c = pool.new_page().unwrap();
    pool.with_page_mut(a, |p| p.bytes_mut()[0] = 11).unwrap();
    pool.with_page(b, |_| ()).unwrap();
    // Inject failures: faulting `c` must error without corrupting
    // the map — and must not lose `a`'s dirty data.
    disk.fail_reads.store(true, Ordering::Relaxed);
    assert!(pool.with_page(c, |_| ()).is_err());
    disk.fail_reads.store(false, Ordering::Relaxed);
    // Everything still readable with the right contents.
    assert_eq!(pool.with_page(a, |p| p.bytes()[0]).unwrap(), 11);
    pool.with_page(b, |_| ()).unwrap();
    pool.with_page(c, |_| ()).unwrap();
    assert_eq!(pool.with_page(a, |p| p.bytes()[0]).unwrap(), 11, "dirty page lost");
}
