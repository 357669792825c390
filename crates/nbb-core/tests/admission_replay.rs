//! Admission by frequency in the leaf cache (`nbb-btree`
//! `cache/sketch.rs`) on the benchmark's read workloads, replayed
//! single-threaded through the public API with the benchmark's own
//! set-up: 200,000 rows of 64 bytes loaded in key order, the cached
//! index backfilled, persist, then a reopen over the same
//! `InMemoryDisk`s with the workload's pools. Connections 0 and 1 of
//! the workload's stream (seed 1) are interleaved, the first 40 %
//! warms up, and every returned row is checked.
//!
//! * `point_cold`: 4-key `GetMany`, scrambled Zipf, 10 % of the heap's
//!   pages and 100 % of the index's as frames. Every leaf-cache miss
//!   chases its row through the small heap pool, so heap device reads
//!   per request are what the cache's hit ratio is worth. A miss enters
//!   a full leaf only if the sketch counts it more often than the least
//!   frequent of 8 sampled entries: 0.440 reads per request, where
//!   random placement with on-hit promotion read 0.489. The bar sits
//!   between them.
//! * `project_hot`: 16-key `ProjectMany`, clustered Zipf, every page
//!   resident. Random eviction stored and evicted 8.55 entries per
//!   request here, churning leaves for a 0.466 hit ratio; admission
//!   evicts 0.46 for 0.468. The bar is one eviction per request.

mod support;

use nbb_core::db::Database;
use nbb_storage::{DiskManager, InMemoryDisk};
use std::sync::Arc;
use support::{config, load, row, Stream, ROWS};

/// `point_cold` requests per connection; the first 40 % warm up. The
/// sketch needs them: at half as many the bar is not reached.
const POINT_COLD_REQUESTS: usize = 300_000;
/// `project_hot` requests per connection (16 keys each).
const PROJECT_HOT_REQUESTS: usize = 100_000;
/// `point_cold` heap device reads per request, after the warm-up.
const POINT_COLD_HEAP_READS_BAR: f64 = 0.455;
/// `project_hot` leaf-cache evictions per request, after the warm-up.
const PROJECT_HOT_EVICTIONS_BAR: f64 = 1.0;

/// `percent` of `pages`, at least 16 frames: the benchmark's sizing.
fn frames(pages: u64, percent: u64) -> usize {
    ((pages * percent).div_ceil(100) as usize).max(16)
}

/// The benchmark's data set, loaded, persisted and reopened with
/// `heap_pct` / `index_pct` of each disk's pages as frames.
fn reopened(heap_pct: u64, index_pct: u64) -> Database {
    let (heap, index) = (Arc::new(InMemoryDisk::new(4096)), Arc::new(InMemoryDisk::new(4096)));
    load(Arc::clone(&heap) as Arc<dyn DiskManager>, Arc::clone(&index) as _, ROWS);
    let config = config(frames(heap.num_pages(), heap_pct), frames(index.num_pages(), index_pct));
    Database::reopen(config, heap as Arc<dyn DiskManager>, index as Arc<dyn DiskManager>).unwrap()
}

/// What a replay measured after its warm-up, per request.
struct Replay {
    hit_ratio: f64,
    heap_reads: f64,
    evictions: f64,
}

/// Replays `requests` of `workload`'s requests of `n` keys per
/// connection, each checked, through `GetMany` or `ProjectMany`.
fn replay(db: &Database, workload: &str, requests: usize, n: usize, project: bool) -> Replay {
    let t = db.table("t").unwrap();
    let pk = t.index("pk").unwrap();
    let mut conns = [Stream::new(workload, 1, 0), Stream::new(workload, 1, 1)];
    let warm = 2 * requests * 2 / 5;
    let (mut heap_io, mut cache) = (db.io_stats().0, pk.tree().cache_stats());
    for i in 0..2 * requests {
        if i == warm {
            (heap_io, cache) = (db.io_stats().0, pk.tree().cache_stats());
        }
        let keys = conns[i % 2].request(n);
        if project {
            for (key, p) in keys.iter().zip(pk.project_many(&keys).unwrap()) {
                assert_eq!(p.unwrap().payload, row(u64::from_be_bytes(*key))[8..24], "request {i}");
            }
        } else {
            for (key, r) in keys.iter().zip(pk.get_many(&keys).unwrap()) {
                assert_eq!(r.unwrap(), row(u64::from_be_bytes(*key)), "request {i}");
            }
        }
    }
    let (heap_now, now) = (db.io_stats().0, pk.tree().cache_stats());
    let measured = (2 * requests - warm) as f64;
    let r = Replay {
        hit_ratio: (now.hits - cache.hits) as f64 / (now.lookups - cache.lookups) as f64,
        heap_reads: (heap_now.reads - heap_io.reads) as f64 / measured,
        evictions: (now.evictions - cache.evictions) as f64 / measured,
    };
    println!(
        "{workload} admission replay: hit ratio {:.4}, heap reads / request {:.4}, populates / \
         request {:.3}, evictions / request {:.3}",
        r.hit_ratio,
        r.heap_reads,
        (now.populates - cache.populates) as f64 / measured,
        r.evictions
    );
    r
}

#[test]
fn point_cold_admission_takes_heap_reads_off_the_device() {
    let r = replay(&reopened(10, 100), "point_cold", POINT_COLD_REQUESTS, 4, false);
    assert!(
        r.heap_reads <= POINT_COLD_HEAP_READS_BAR,
        "heap reads / request {:.4} (hit ratio {:.4}); at most {POINT_COLD_HEAP_READS_BAR}",
        r.heap_reads,
        r.hit_ratio
    );
}

#[test]
fn project_hot_admission_does_not_churn_the_leaves() {
    let r = replay(&reopened(100, 100), "project_hot", PROJECT_HOT_REQUESTS, 16, true);
    assert!(
        r.evictions <= PROJECT_HOT_EVICTIONS_BAR,
        "leaf-cache evictions / request {:.3} (hit ratio {:.4}); at most \
         {PROJECT_HOT_EVICTIONS_BAR}",
        r.evictions,
        r.hit_ratio
    );
}
