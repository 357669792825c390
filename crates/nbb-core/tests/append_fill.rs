//! Concurrent appenders fill the heap pages they race for. Two append
//! batches that both find the tail full must link one page between
//! them, not one each: every heap page but the last holds as many
//! fixed-width rows as one page can, so N rows take exactly
//! `ceil(N / per_page)` pages however many threads appended them.
//!
//! The heap disks charge 100 µs per read, as a device would: an
//! allocation that faulted its fresh page through the device held a
//! page's growth open that long, which is when racing batches found
//! the same tail full.

use nbb_core::db::{Database, DbConfig};
use nbb_core::table::{FieldSpec, IndexSpec};
use nbb_storage::{
    BufferPool, DiskManager, DiskModel, HeapFile, InMemoryDisk, LatencyDisk, RecordId,
};
use std::collections::HashSet;
use std::sync::{Arc, Barrier};

const PAGE: usize = 4096;
const WIDTH: usize = 64;
const THREADS: u64 = 4;
const BATCH: u64 = 4;
const BATCHES: u64 = 600;

/// A 64-byte row: `key` big-endian in the first 8 bytes, then a filler
/// derived from it.
fn row(key: u64) -> Vec<u8> {
    let mut t = key.to_be_bytes().to_vec();
    t.resize(WIDTH, (key % 251) as u8);
    t
}

fn heap_disk() -> Arc<dyn DiskManager> {
    Arc::new(LatencyDisk::new(PAGE, DiskModel { read_ns: 100_000, write_ns: 0 }))
}

fn heap_pool() -> Arc<BufferPool> {
    Arc::new(BufferPool::new(heap_disk(), 1024))
}

/// Rows of `WIDTH` bytes one page holds, measured on a single-threaded
/// heap: the rows appended before the second page appeared.
fn per_page() -> usize {
    let heap = HeapFile::create(heap_pool()).unwrap();
    let mut rows = 0;
    while heap.page_count() == 1 {
        heap.insert(&row(rows as u64)).unwrap();
        rows += 1;
    }
    rows - 1
}

/// `BATCHES` batches of `BATCH` distinct keys per thread, all threads
/// released together by a barrier; returns each thread's keys and
/// `append`'s rids, in order.
fn race(append: impl Fn(&[Vec<u8>]) -> Vec<RecordId> + Sync) -> Vec<(u64, RecordId)> {
    let start = Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (start, append) = (&start, &append);
                s.spawn(move || {
                    start.wait();
                    let mut out = Vec::new();
                    for b in 0..BATCHES {
                        let keys: Vec<u64> =
                            (0..BATCH).map(|i| (t * BATCHES + b) * BATCH + i).collect();
                        let rows: Vec<Vec<u8>> = keys.iter().map(|&k| row(k)).collect();
                        out.extend(keys.into_iter().zip(append(&rows)));
                    }
                    out
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().unwrap()).collect()
    })
}

#[test]
fn concurrent_appenders_fill_every_page_but_the_last() {
    let per_page = per_page();
    assert_eq!(per_page, 60, "64 B rows on 4 KiB slotted pages");
    let heap = HeapFile::create(heap_pool()).unwrap();
    let landed = race(|rows| heap.append_many(rows).unwrap());
    let rows = landed.len();
    assert_eq!(rows as u64, THREADS * BATCHES * BATCH);
    assert_eq!(
        heap.page_count(),
        rows.div_ceil(per_page),
        "{rows} rows on {} pages: appenders stranded part-empty pages",
        heap.page_count()
    );
    let distinct: HashSet<RecordId> = landed.iter().map(|&(_, rid)| rid).collect();
    assert_eq!(distinct.len(), rows, "two rows were given one slot");
    for (key, rid) in landed {
        assert_eq!(heap.get(rid).unwrap(), row(key), "{rid} does not hold row {key}");
    }
}

#[test]
fn concurrent_put_many_rows_survive_persist_and_reopen() {
    let per_page = per_page();
    let heap = heap_disk();
    let index: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(PAGE));
    let config =
        DbConfig { page_size: PAGE, heap_frames: 1024, index_frames: 1024, ..DbConfig::default() };
    let db = Database::with_disks(config.clone(), Arc::clone(&heap), Arc::clone(&index)).unwrap();
    let t = db.create_table("t", WIDTH).unwrap();
    t.create_index(IndexSpec::plain("pk", FieldSpec::new(0, 8))).unwrap();
    let acked = race(|rows| t.index("pk").unwrap().put_many(rows).unwrap());
    assert_eq!(
        t.heap().page_count(),
        acked.len().div_ceil(per_page),
        "put_many appenders stranded part-empty pages"
    );
    db.persist().unwrap();
    drop(t);
    drop(db);

    let db = Database::reopen(config, heap, index).unwrap();
    let t = db.table("t").unwrap();
    let pk = t.index("pk").unwrap();
    for (key, _) in &acked {
        assert_eq!(pk.get(&key.to_be_bytes()).unwrap(), Some(row(*key)), "row {key} lost");
    }
    assert_eq!(t.heap().live_tuple_count().unwrap(), acked.len());
}
