//! Slot patches: a row overwritten while its page is out of the pool
//! waits in the write-behind store as `(slot, expect, new)` and costs
//! no read ([`HeapFile::overwrite`], [`BufferPool::patch`]). Each test
//! scripts a [`FaultDisk`] and reads its call log: the next load of a
//! patched page applies the patch within its one read, a failed load
//! leaves the patch for the retry, an overwrite meeting a load in
//! flight joins it, two patches to a slot chain, a stale patch is
//! dropped, and `flush_all` merges patched pages in batched calls.

use nbb_storage::disk::{DiskManager, FaultDisk};
use nbb_storage::{BufferPool, HeapFile, PageId, PoolOptions, RecordId};
use std::sync::Arc;

/// A 32-byte row of `fill`.
fn tuple(fill: u8) -> Vec<u8> {
    vec![fill; 32]
}

/// A heap of 4 KiB pages on a one-shard pool of 16 frames over a
/// [`FaultDisk`], holding `pages` full pages of rows of byte `1`; every
/// page is flushed and evicted, and the logs are empty. Returns the
/// first row of each page.
fn cold_heap(pages: usize) -> (HeapFile, Arc<FaultDisk>, Vec<RecordId>) {
    let disk = Arc::new(FaultDisk::new(4096));
    let opts = PoolOptions { shards: 1, ..PoolOptions::default() };
    let pool = Arc::new(BufferPool::with_pool_options(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        16,
        opts,
    ));
    let heap = HeapFile::create(Arc::clone(&pool)).unwrap();
    let mut firsts = Vec::new();
    while heap.page_count() < pages + 1 {
        let rid = heap.insert(&tuple(1)).unwrap();
        if firsts.last().is_none_or(|r: &RecordId| r.page != rid.page) {
            firsts.push(rid);
        }
    }
    firsts.truncate(pages);
    pool.flush_all().unwrap();
    for pid in heap.page_ids() {
        pool.evict_page(pid).unwrap();
    }
    disk.take_read_log();
    pool.reset_stats();
    (heap, disk, firsts)
}

fn write_calls(disk: &FaultDisk) -> Vec<Vec<PageId>> {
    disk.write_log()
}

#[test]
fn a_patched_pages_next_load_applies_the_patch_within_one_read() {
    let (heap, disk, rows) = cold_heap(1);
    let pool = heap.pool();
    heap.overwrite(rows[0], &tuple(1), &tuple(2)).unwrap();
    assert!(disk.read_log().is_empty(), "the overwrite read nothing");
    assert!(!pool.contains(rows[0].page));
    assert_eq!(pool.stats().patches_deferred, 1);
    assert_eq!(heap.get(rows[0]).unwrap(), tuple(2));
    assert_eq!(disk.take_read_log(), vec![vec![rows[0].page]], "one read, patched on the way in");
    let s = pool.stats();
    assert_eq!((s.patches_absorbed, s.patches_dropped, s.wb_pending), (1, 0, 0));
    // The page entered dirty: flushing writes the patched row.
    let writes = write_calls(&disk).len();
    pool.flush_all().unwrap();
    assert_eq!(write_calls(&disk).len(), writes + 1);
    pool.evict_page(rows[0].page).unwrap();
    assert_eq!(heap.get(rows[0]).unwrap(), tuple(2));
}

#[test]
fn a_failed_load_leaves_its_patches_for_the_retry() {
    let (heap, disk, rows) = cold_heap(1);
    let pool = heap.pool();
    heap.overwrite(rows[0], &tuple(1), &tuple(2)).unwrap();
    disk.fail_nth_read(rows[0].page, 1);
    assert!(heap.get(rows[0]).is_err(), "the scripted read fails");
    let s = pool.stats();
    assert_eq!((s.patches_absorbed, s.wb_pending), (0, 1), "the patch is still in the store");
    assert_eq!(heap.get(rows[0]).unwrap(), tuple(2), "the retry applies it");
    assert_eq!(disk.take_read_log().len(), 2);
    assert_eq!(pool.stats().patches_absorbed, 1);
}

#[test]
fn an_overwrite_meeting_a_load_in_flight_joins_it() {
    let (heap, disk, rows) = cold_heap(1);
    let (heap, row) = (Arc::new(heap), rows[0]);
    let pool = Arc::clone(heap.pool());
    disk.hold_reads();
    let reader = {
        let heap = Arc::clone(&heap);
        std::thread::spawn(move || heap.get(row).unwrap())
    };
    while disk.read_log().is_empty() {
        std::thread::yield_now();
    }
    // The page is loading: the overwrite must park on that load, not
    // patch behind it.
    let writer = {
        let heap = Arc::clone(&heap);
        std::thread::spawn(move || heap.overwrite(row, &tuple(1), &tuple(2)).unwrap())
    };
    while pool.stats().fault_joins < 1 {
        std::thread::yield_now();
    }
    disk.release_reads();
    writer.join().unwrap();
    let read = reader.join().unwrap();
    assert!(read == tuple(1) || read == tuple(2), "the reader saw a whole row");
    let s = pool.stats();
    assert_eq!((s.patches_deferred, s.patches_refused), (0, 0), "no patch was offered");
    assert_eq!(disk.take_read_log().len(), 1, "one load served both");
    assert_eq!(heap.get(row).unwrap(), tuple(2), "the write landed in the frame");
}

#[test]
fn two_patches_to_one_slot_keep_the_first_expect_and_the_last_bytes() {
    let (heap, _disk, rows) = cold_heap(1);
    let pool = heap.pool();
    heap.overwrite(rows[0], &tuple(1), &tuple(2)).unwrap();
    heap.overwrite(rows[0], &tuple(2), &tuple(3)).unwrap();
    let s = pool.stats();
    assert_eq!((s.patches_deferred, s.wb_pending), (2, 1));
    // The slot holds 1 on the device: only a chain that kept the first
    // `expect` applies.
    assert_eq!(heap.get(rows[0]).unwrap(), tuple(3));
    let s = pool.stats();
    assert_eq!((s.patches_absorbed, s.patches_dropped), (1, 0), "one patch, applied");
}

#[test]
fn a_patch_whose_slot_moved_on_is_dropped_and_counted() {
    let (heap, disk, rows) = cold_heap(1);
    let pool = heap.pool();
    // The caller's `expect` is stale: the slot holds 1, not 7.
    heap.overwrite(rows[0], &tuple(7), &tuple(2)).unwrap();
    assert!(disk.read_log().is_empty(), "the store cannot tell yet");
    assert_eq!(heap.get(rows[0]).unwrap(), tuple(1), "never written");
    let s = pool.stats();
    assert_eq!((s.patches_absorbed, s.patches_dropped), (0, 1));
    // A resident page is checked at once.
    assert!(heap.overwrite(rows[0], &tuple(7), &tuple(2)).is_err());
    assert_eq!(heap.get(rows[0]).unwrap(), tuple(1));
}

#[test]
fn flush_all_merges_patched_pages_in_batched_calls() {
    const PAGES: usize = 6;
    let (heap, disk, rows) = cold_heap(PAGES);
    let pool = heap.pool();
    for (i, rid) in rows.iter().enumerate() {
        heap.overwrite(*rid, &tuple(1), &tuple(10 + i as u8)).unwrap();
    }
    assert_eq!(pool.stats().wb_pending, PAGES as u64);
    let writes = write_calls(&disk).len();
    pool.flush_all().unwrap();
    let pages: Vec<PageId> = rows.iter().map(|r| r.page).collect();
    let sorted = |mut v: Vec<PageId>| {
        v.sort_unstable();
        v
    };
    let reads = disk.take_read_log();
    assert_eq!(reads.len(), 1, "one read call for every patched page: {reads:?}");
    assert_eq!(sorted(reads[0].clone()), pages);
    let new_writes = write_calls(&disk).split_off(writes);
    assert_eq!(new_writes.len(), 1, "one write call: {new_writes:?}");
    assert_eq!(sorted(new_writes[0].clone()), pages);
    let s = pool.stats();
    assert_eq!((s.patches_drained, s.wb_pending), (PAGES as u64, 0));
    for (i, rid) in rows.iter().enumerate() {
        assert_eq!(heap.get(*rid).unwrap(), tuple(10 + i as u8));
    }
}

#[test]
fn write_behind_off_takes_no_patch() {
    let disk = Arc::new(FaultDisk::new(4096));
    let opts = PoolOptions { shards: 1, write_behind: 0 };
    let pool =
        Arc::new(BufferPool::with_pool_options(Arc::clone(&disk) as Arc<dyn DiskManager>, 4, opts));
    let heap = HeapFile::create(Arc::clone(&pool)).unwrap();
    let rid = heap.insert(&tuple(1)).unwrap();
    pool.flush_all().unwrap();
    pool.evict_page(rid.page).unwrap();
    disk.take_read_log();
    heap.overwrite(rid, &tuple(1), &tuple(2)).unwrap();
    assert_eq!(disk.take_read_log().len(), 1, "today's path: the page is read");
    let s = pool.stats();
    assert_eq!((s.patches_deferred, s.patches_refused), (0, 0));
    assert_eq!(heap.get(rid).unwrap(), tuple(2));
}
