//! Swap on update (`table/hot.rs`) on the benchmark's `write_mix`,
//! replayed single-threaded through the public API with the
//! benchmark's own set-up: 200,000 rows of 64 bytes loaded in key
//! order, the cached index backfilled, persist, then a reopen over the
//! same `InMemoryDisk`s with 25 % of the heap's pages and 100 % of the
//! index's as frames. Then the `write_mix` streams of connections 0 and
//! 1 interleaved (50 % 4-key `GetMany`, 40 % 4-key `UpdateMany`, 10 %
//! `PutMany` of 4 new keys); the first 40 % warms up.
//!
//! An update must read its row's page whatever the leaf cache holds, so
//! with the rows in load order it faults a cold page for one hot row.
//! Swapping the row onto a resident hot page instead is what the bars
//! below pin, each set above what the swaps reached (0.673 heap reads
//! per request, 0.398 heap writes, 0.911 heap reads per `UpdateMany`)
//! and below what in-place updates do (0.846, 0.578, 1.368).
//!
//! Every row a `GetMany` returns is checked against the replay's map of
//! written values. After a close and a reopen every row is read back,
//! and a heap scan must see each row exactly once: a swap interchanges
//! two slots and loses or doubles nothing.

mod support;

use nbb_core::db::Database;
use nbb_storage::{DiskManager, InMemoryDisk};
use std::collections::HashMap;
use std::sync::Arc;
use support::{check_rows, config, load, run, value, Stream, WriteMixOp, ROWS};

/// Requests per connection; the first 40 % warm up.
const REQUESTS: usize = 150_000;
/// Heap device reads per request, after the warm-up.
const HEAP_READS_BAR: f64 = 0.72;
/// Heap device writes per request, after the warm-up.
const HEAP_WRITES_BAR: f64 = 0.45;
/// Heap device reads per `UpdateMany`, after the warm-up.
const UPDATE_READS_BAR: f64 = 1.05;

/// `percent` of `pages`, at least 16 frames: the benchmark's sizing.
fn frames(pages: u64, percent: u64) -> usize {
    ((pages * percent).div_ceil(100) as usize).max(16)
}

fn reopen(heap: &Arc<InMemoryDisk>, index: &Arc<InMemoryDisk>) -> Database {
    let config = config(frames(heap.num_pages(), 25), frames(index.num_pages(), 100));
    let (heap, index) = (Arc::clone(heap), Arc::clone(index));
    Database::reopen(config, heap as Arc<dyn DiskManager>, index as Arc<dyn DiskManager>).unwrap()
}

#[test]
fn write_mix_updates_gather_hot_rows_onto_few_pages() {
    let (heap, index) = (Arc::new(InMemoryDisk::new(4096)), Arc::new(InMemoryDisk::new(4096)));
    load(Arc::clone(&heap) as Arc<dyn DiskManager>, Arc::clone(&index) as _, ROWS);
    let db = reopen(&heap, &index);
    let t = db.table("t").unwrap();
    let pk = t.index("pk").unwrap();
    let mut conns = [Stream::new("write_mix", 1, 0), Stream::new("write_mix", 1, 1)];
    let mut written: HashMap<u64, u64> = HashMap::new();
    let warm = 2 * REQUESTS * 2 / 5;
    let (mut heap_io, mut index_io) = db.io_stats();
    let mut stats = t.stats();
    let (mut updates, mut update_reads) = (0u64, 0u64);
    for i in 0..2 * REQUESTS {
        if i == warm {
            (heap_io, index_io) = db.io_stats();
            stats = t.stats();
        }
        let op = conns[i % 2].write_mix_op();
        let (update, before) = (matches!(op, WriteMixOp::Update(_)), heap.stats().reads);
        run(&pk, i, op, &mut written);
        if update && i >= warm {
            updates += 1;
            update_reads += heap.stats().reads - before;
        }
    }
    let measured = (2 * REQUESTS - warm) as f64;
    let (heap_now, index_now) = db.io_stats();
    let now = t.stats();
    let per_req = |n: u64| n as f64 / measured;
    let heap_reads = per_req(heap_now.reads - heap_io.reads);
    let heap_writes = per_req(heap_now.writes - heap_io.writes);
    let update_reads = update_reads as f64 / updates as f64;
    println!(
        "swap replay: heap reads / request {heap_reads:.3} (bar {HEAP_READS_BAR}), heap writes \
         / request {heap_writes:.3} (bar {HEAP_WRITES_BAR}), heap reads / UpdateMany \
         {update_reads:.3} (bar {UPDATE_READS_BAR}); swaps / kreq {:.1}, index writes / \
         request {:.4}, intent parks / kreq {:.2}",
        per_req(now.swaps - stats.swaps) * 1e3,
        per_req(index_now.writes - index_io.writes),
        per_req(now.intent_parks - stats.intent_parks) * 1e3,
    );
    assert!(now.swaps > stats.swaps, "updates swapped rows onto hot pages");
    assert!(heap_reads <= HEAP_READS_BAR, "heap reads / request {heap_reads:.3}");
    assert!(heap_writes <= HEAP_WRITES_BAR, "heap writes / request {heap_writes:.3}");
    assert!(update_reads <= UPDATE_READS_BAR, "heap reads / UpdateMany {update_reads:.3}");

    let heap_pages = t.heap().page_count();
    drop(pk);
    drop(t);
    db.close().unwrap();
    let db = reopen(&heap, &index);
    let t = db.table("t").unwrap();
    assert_eq!(t.heap().page_count(), heap_pages, "a swap allocates nothing");
    let keys: Vec<u64> = (0..ROWS).chain(written.keys().copied().filter(|&k| k >= ROWS)).collect();
    check_rows(&t, &keys, |key| value(&written, key));
}
