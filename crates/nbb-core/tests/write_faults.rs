//! A heap page that fails to fault in the middle of a write batch must
//! not tear the rows around it: `Table::apply` finishes the plan —
//! every row whose heap write landed gets its full index maintenance,
//! the remaining frees still run — and only then reports the error.
//! Likewise a relocation whose copy cannot land leaves the row in place.

use nbb_core::table::{FieldSpec, IndexSpec, Table};
use nbb_storage::{
    BufferPool, DiskManager, FaultDisk, InMemoryDisk, PageId, PoolOptions, RecordId, StorageError,
};
use std::sync::Arc;

const ROWS: u64 = 200;

/// 32-byte tuple: id(8, BE) | group(8) | value(8, LE) | blob(8).
fn tuple(id: u64, value: u64) -> Vec<u8> {
    let mut t = id.to_be_bytes().to_vec();
    t.extend_from_slice(&0u64.to_be_bytes());
    t.extend_from_slice(&value.to_le_bytes());
    t.extend_from_slice(&[0xAB; 8]);
    t
}

/// `ROWS` rows on a two-frame heap pool over a [`FaultDisk`], one cached
/// index on `id` caching `value`; returns the table, the disk, and a
/// batch of keys each on a heap page of its own, in page order — four
/// times the page set the pool can hold.
fn table_on_flaky_heap() -> (Table, Arc<FaultDisk>, Vec<(u64, PageId)>) {
    let heap_disk = Arc::new(FaultDisk::new(512));
    let heap_pool = Arc::new(BufferPool::with_pool_options(
        Arc::clone(&heap_disk) as Arc<dyn DiskManager>,
        2,
        // No write-behind: an evicted page is on the disk, not in a
        // queue that could answer its next fault.
        PoolOptions { shards: 1, write_behind: 0 },
    ));
    let index_disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    let t = Table::create("t", 32, heap_pool, Arc::new(BufferPool::new(index_disk, 64))).unwrap();
    t.create_index(IndexSpec::cached("by_id", FieldSpec::new(0, 8), vec![FieldSpec::new(16, 8)]))
        .unwrap();
    let rows: Vec<Vec<u8>> = (0..ROWS).map(|i| tuple(i, i)).collect();
    let rids = t.insert_many(&rows).unwrap();
    let mut batch: Vec<(u64, PageId)> = Vec::new();
    for (id, rid) in (0..ROWS).zip(rids) {
        if batch.last().is_none_or(|&(_, page)| page != rid.page) {
            batch.push((id, rid.page));
        }
    }
    batch.truncate(8);
    assert_eq!(batch.len(), 8, "the heap must span at least eight pages");
    (t, heap_disk, batch)
}

#[test]
fn failed_page_fault_mid_update_leaves_no_stale_projection() {
    let (t, disk, batch) = table_on_flaky_heap();
    let by_id = t.index("by_id").unwrap();
    // Warm every projection: the second access is answered by the cache.
    for (id, _) in &batch {
        by_id.project(&id.to_be_bytes()).unwrap();
        assert!(by_id.project(&id.to_be_bytes()).unwrap().unwrap().index_only);
    }
    // The third row's page: the batch resolves its rows from the leaf
    // cache the projections warmed, so no page is read until the rows
    // are overwritten, and with write-behind off no overwrite waits as a
    // patch: its first read fails, after two rows landed.
    disk.fail_nth_read(batch[2].1, 1);
    let pairs: Vec<(Vec<u8>, Vec<u8>)> =
        batch.iter().map(|(id, _)| (id.to_be_bytes().to_vec(), tuple(*id, id + 1000))).collect();
    let err = by_id.update_many(&pairs).unwrap_err();
    assert!(matches!(err, StorageError::Io(_)), "want the injected failure, got {err:?}");
    let mut landed = 0;
    for (id, _) in &batch {
        let row = by_id.get(&id.to_be_bytes()).unwrap().unwrap();
        let projected = by_id.project(&id.to_be_bytes()).unwrap().unwrap();
        assert_eq!(projected.payload, row[16..24], "key {id}: projection disagrees with the heap");
        landed += usize::from(row == tuple(*id, id + 1000));
    }
    assert_eq!(landed, batch.len() - 1, "every row but the failed one is overwritten");
    assert_eq!(t.stats().updates, landed as u64);
}

#[test]
fn failed_page_fault_mid_delete_strands_only_its_own_row() {
    let (t, disk, batch) = table_on_flaky_heap();
    let by_id = t.index("by_id").unwrap();
    disk.fail_nth_read(batch[2].1, 2);
    let keys: Vec<Vec<u8>> = batch.iter().map(|(id, _)| id.to_be_bytes().to_vec()).collect();
    let err = by_id.delete_many(&keys).unwrap_err();
    assert!(matches!(err, StorageError::Io(_)), "want the injected failure, got {err:?}");
    // Every index entry is gone; every slot but the one whose page
    // failed is freed — the rows after it are not left behind as live
    // tuples no index can reach.
    for key in &keys {
        assert!(by_id.get(key).unwrap().is_none());
    }
    assert_eq!(t.heap().live_tuple_count().unwrap(), ROWS as usize - (batch.len() - 1));
    assert_eq!(t.stats().deletes, batch.len() as u64 - 1);
}

#[test]
fn failed_allocation_mid_relocate_leaves_the_row_where_the_index_names_it() {
    let (t, disk, batch) = table_on_flaky_heap();
    let by_id = t.index("by_id").unwrap();
    disk.fail_allocs(true);
    // Fill the tail page: the first insert that needs a new page fails.
    let mut next = ROWS;
    let err = loop {
        match t.insert(&tuple(next, next)) {
            Ok(_) => next += 1,
            Err(e) => break e,
        }
    };
    assert!(matches!(err, StorageError::Io(_)), "want the injected failure, got {err:?}");
    // A row on the first page: its copy needs a page past the full tail.
    let (id, page) = batch[0];
    let key = id.to_be_bytes();
    let rid = RecordId::from_u64(by_id.tree().get(&key).unwrap().unwrap());
    assert_eq!(rid.page, page);
    let err = t.relocate(rid).unwrap_err();
    assert!(matches!(err, StorageError::Io(_)), "want the injected failure, got {err:?}");
    assert_eq!(by_id.get(&key).unwrap(), Some(tuple(id, id)), "the row left its indexed slot");
    assert_eq!(t.heap().live_tuple_count().unwrap(), next as usize);
    // Once the disk allocates again, the same relocation goes through.
    disk.fail_allocs(false);
    let moved = t.relocate(rid).unwrap();
    assert_ne!(moved.page, page);
    assert_eq!(by_id.get(&key).unwrap(), Some(tuple(id, id)));
    assert_eq!(t.heap().live_tuple_count().unwrap(), next as usize);
}
