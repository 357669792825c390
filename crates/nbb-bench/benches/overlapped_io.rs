//! Write-behind eviction: what a dirty victim's reclaim costs with the
//! write taken off the eviction path, vs the old synchronous scheme.
//!
//! The workload dirties a working set that overflows a small
//! single-stripe pool over a blocking [`LatencyDisk`], so every fault
//! must reclaim a dirty victim. In synchronous mode (`write_behind =
//! 0`) each reclaim pays the full modeled device write before the new
//! page can load; with write-behind it pays a page memcpy and the
//! background flusher absorbs the device waits. The headline ratio
//! (write-behind reclaim time / synchronous reclaim time) is printed
//! and asserted ≤ [`MAX_RECLAIM_RATIO`] — the acceptance bar for taking
//! write-back off the eviction path. `flush_all` (the durability
//! barrier) is measured separately so the cost doesn't vanish from the
//! books: write-behind defers the writes, it does not delete them.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use nbb_storage::{BufferPool, DiskManager, DiskModel, LatencyDisk, PageId, PoolOptions};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pages dirtied per pass (4-frame pool: all but 4 reclaim a dirty victim).
const PAGES: u64 = 32;
/// Modeled device write latency (NVMe-ish; reads are free so reclaim
/// cost is isolated).
const WRITE_NS: u64 = 2_000_000;
/// Acceptance bar: write-behind reclaim costs at most this fraction of
/// synchronous reclaim.
const MAX_RECLAIM_RATIO: f64 = 1.0 / 3.0;

struct Rig {
    pool: BufferPool,
    ids: Vec<PageId>,
}

fn rig(write_behind: usize) -> Rig {
    let model = DiskModel { read_ns: 0, write_ns: WRITE_NS };
    let disk: Arc<dyn DiskManager> = Arc::new(LatencyDisk::new(4096, model));
    let pool = BufferPool::with_pool_options(
        disk,
        4,
        PoolOptions { shards: 1, write_behind, ..PoolOptions::default() },
    );
    let ids = (0..PAGES).map(|_| pool.new_page().unwrap()).collect();
    Rig { pool, ids }
}

/// One pass: dirty every page in the working set, forcing
/// `PAGES - frames` dirty-victim reclaims. Returns the timed reclaim
/// phase; the flush barrier runs untimed (benched separately).
fn dirty_pass(rig: &Rig) -> Duration {
    let start = Instant::now();
    for (i, id) in rig.ids.iter().enumerate() {
        rig.pool.with_page_mut(*id, |p| p.bytes_mut()[0] = i as u8).unwrap();
    }
    let reclaim = start.elapsed();
    rig.pool.flush_all().unwrap();
    reclaim
}

fn bench_dirty_eviction(c: &mut Criterion) {
    let mut group = c.benchmark_group("dirty_eviction_reclaim");
    group.sample_size(10);
    for (label, wb) in [("sync", 0usize), ("write_behind", 64)] {
        let r = rig(wb);
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| black_box(dirty_pass(&r)))
        });
    }
    group.finish();

    // Separate rung: what the durability barrier itself costs when the
    // queue is full of deferred writes.
    let mut group = c.benchmark_group("write_behind_flush_barrier");
    group.sample_size(10);
    let r = rig(64);
    group.bench_function(BenchmarkId::from_parameter("dirty_pass_plus_flush"), |b| {
        b.iter(|| {
            let start = Instant::now();
            for (i, id) in r.ids.iter().enumerate() {
                r.pool.with_page_mut(*id, |p| p.bytes_mut()[0] = i as u8).unwrap();
            }
            r.pool.flush_all().unwrap();
            black_box(start.elapsed())
        })
    });
    group.finish();

    // Headline outside criterion's adaptive loop; best-of-two per mode.
    let sync_rig = rig(0);
    let wb_rig = rig(64);
    let sync_time = dirty_pass(&sync_rig).min(dirty_pass(&sync_rig));
    let wb_time = dirty_pass(&wb_rig).min(dirty_pass(&wb_rig));
    let ratio = wb_time.as_secs_f64() / sync_time.as_secs_f64();
    let s = wb_rig.pool.stats();
    println!(
        "dirty_eviction_reclaim ratio: write-behind reclaim costs {ratio:.3}x the \
         synchronous write-back ({:.2}ms vs {:.2}ms for {PAGES} dirtied pages; \
         {} enqueued, {} flushed in background)",
        wb_time.as_secs_f64() * 1e3,
        sync_time.as_secs_f64() * 1e3,
        s.wb_enqueued,
        s.wb_flushed,
    );
    assert!(
        ratio <= MAX_RECLAIM_RATIO,
        "victim reclaim must not pay a synchronous write: \
         ratio {ratio:.3} > bar {MAX_RECLAIM_RATIO:.3}"
    );
}

fn short() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_dirty_eviction
}
criterion_main!(benches);
