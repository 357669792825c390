//! Swap on update (`table/hot.rs`) on the benchmark's `write_mix`,
//! replayed single-threaded through the public API with the
//! benchmark's own set-up: 200,000 rows of 64 bytes loaded in key
//! order, the cached index backfilled, persist, then a reopen over the
//! same `InMemoryDisk`s with 25 % of the heap's pages and 100 % of the
//! index's as frames. Then the `write_mix` streams of connections 0 and
//! 1 interleaved (50 % 4-key `GetMany`, 40 % 4-key `UpdateMany`, 10 %
//! `PutMany` of 4 new keys); the first 40 % warms up.
//!
//! With the rows in load order, an update that reads its row's page
//! faults a cold page for one hot row. Two mechanisms spare it: an
//! update whose row the leaf cache holds resolves from the leaf and,
//! when the page is out of the pool, leaves its bytes below the pool as
//! a slot patch that the page's next read applies; and an update whose
//! page is out of the pool swaps its row onto a resident hot page when
//! it is more frequent than the row it displaces there (the row's side
//! of that swap a patch too, when it came from the leaf). The bars pin
//! both together: 0.470 heap reads per request (bar 0.52), 0.286 heap
//! writes (bar 0.342), 0.523 heap reads per `UpdateMany` (bar 0.62)
//! and 61 swaps per thousand requests (bar 120). Before patches, with
//! every update reading its page, the same replay read 0.573, 0.342,
//! 0.789 and 64; swapping every faulting update read 0.673, 0.398,
//! 0.915 and 330, and in-place updates alone 0.846, 0.578, 1.368.
//!
//! Split by request kind (heap reads and writes per request seen while
//! it ran; the flusher's writes land where they land): `GetMany` 0.521
//! and 0.176 (0.515 and 0.179 before patches — a patched page is read
//! by the `GetMany` that next misses on it), `UpdateMany` 0.523 and
//! 0.453 (0.789 and 0.588), `PutMany` 0 and 0.146 (0 and 0.136). Of
//! 133 patches per thousand requests, 122 are absorbed by a load the
//! page took anyway; none is drained by the flusher, refused or
//! dropped, and the rest wait for the close.
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
const HEAP_READS_BAR: f64 = 0.52;
/// Heap device writes per request, after the warm-up.
const HEAP_WRITES_BAR: f64 = 0.342;
/// Heap device reads per `UpdateMany`, after the warm-up.
const UPDATE_READS_BAR: f64 = 0.62;
/// Swaps per thousand requests, after the warm-up.
const SWAPS_PER_KREQ_BAR: f64 = 120.0;

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
    let mut pool = db.heap_pool().stats();
    // Per request kind (GetMany, UpdateMany, PutMany): requests, and the
    // heap device reads and writes seen while they ran.
    let mut kinds = [[0u64; 3]; 3];
    for i in 0..2 * REQUESTS {
        if i == warm {
            (heap_io, index_io) = db.io_stats();
            stats = t.stats();
            pool = db.heap_pool().stats();
        }
        let op = conns[i % 2].write_mix_op();
        let kind = match op {
            WriteMixOp::Get(_) => 0,
            WriteMixOp::Update(_) => 1,
            WriteMixOp::Put(_) => 2,
        };
        let before = heap.stats();
        run(&pk, i, op, &mut written);
        if i >= warm {
            let after = heap.stats();
            let k = &mut kinds[kind];
            k[0] += 1;
            k[1] += after.reads - before.reads;
            k[2] += after.writes - before.writes;
        }
    }
    let measured = (2 * REQUESTS - warm) as f64;
    let (heap_now, index_now) = db.io_stats();
    let now = t.stats();
    let per_req = |n: u64| n as f64 / measured;
    let heap_reads = per_req(heap_now.reads - heap_io.reads);
    let heap_writes = per_req(heap_now.writes - heap_io.writes);
    let per_kind = |k: [u64; 3], at: usize| k[at] as f64 / k[0] as f64;
    let update_reads = per_kind(kinds[1], 1);
    let swaps = per_req(now.swaps - stats.swaps) * 1e3;
    let p = db.heap_pool().stats();
    println!(
        "swap replay: heap reads / request {heap_reads:.3} (bar {HEAP_READS_BAR}), heap writes \
         / request {heap_writes:.3} (bar {HEAP_WRITES_BAR}), heap reads / UpdateMany \
         {update_reads:.3} (bar {UPDATE_READS_BAR}), swaps / kreq {swaps:.1} (bar \
         {SWAPS_PER_KREQ_BAR}); index writes / request {:.4}, intent parks / kreq {:.2}",
        per_req(index_now.writes - index_io.writes),
        per_req(now.intent_parks - stats.intent_parks) * 1e3,
    );
    for (name, k) in ["GetMany", "UpdateMany", "PutMany"].iter().zip(kinds) {
        println!(
            "  {name}: {} requests, heap reads {:.3} and writes {:.3} per request",
            k[0],
            per_kind(k, 1),
            per_kind(k, 2)
        );
    }
    println!(
        "  slot patches / kreq: deferred {:.1}, absorbed by a load {:.1}, drained {:.1}, \
         refused {:.1}, dropped {}",
        per_req(p.patches_deferred - pool.patches_deferred) * 1e3,
        per_req(p.patches_absorbed - pool.patches_absorbed) * 1e3,
        per_req(p.patches_drained - pool.patches_drained) * 1e3,
        per_req(p.patches_refused - pool.patches_refused) * 1e3,
        p.patches_dropped,
    );
    assert_eq!(p.patches_dropped, 0, "every patch met the bytes it expected");
    assert!(now.swaps > stats.swaps, "updates swapped rows onto hot pages");
    assert!(heap_reads <= HEAP_READS_BAR, "heap reads / request {heap_reads:.3}");
    assert!(heap_writes <= HEAP_WRITES_BAR, "heap writes / request {heap_writes:.3}");
    assert!(update_reads <= UPDATE_READS_BAR, "heap reads / UpdateMany {update_reads:.3}");
    assert!(swaps <= SWAPS_PER_KREQ_BAR, "swaps / kreq {swaps:.1}");

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
