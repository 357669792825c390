//! Multi-threaded read throughput through the cached-index projection
//! path (§2.1's hot query), comparing buffer-pool shard counts.
//!
//! Each measured iteration spawns `threads` workers that together
//! perform `threads × OPS_PER_THREAD` `IndexRef::project` calls. With
//! `shards = 1` every page touch funnels through a single pool mutex;
//! with `shards = 8` readers only contend when their pages collide on a
//! stripe. The recorded elements/s is end-to-end read throughput.
//!
//! Two regimes:
//!
//! * `resident/…` — working set fits in the pools; measures pure
//!   lock-path CPU cost. On a single-core host this is flat across
//!   thread counts (threads timeshare one CPU and hold times are tiny),
//!   so treat it as a contention sanity check, not a scaling curve.
//! * `io_bound/…` — working set ≫ pool frames over a [`LatencyDisk`]
//!   (a disk that really blocks). Faults dominate here. Historically a
//!   miss held its stripe's lock across the device wait, so in-flight
//!   faults were capped at one per *shard*; with the pool's
//!   I/O-in-progress frame state machine the stripe lock is released
//!   across the read and the cap is one per *frame* — sharding still
//!   helps (map-lock contention), but no longer decides overlap.
//! * `overlap/…` — the direct probe of that state machine: k threads
//!   fault k distinct cold pages in a **single-stripe** pool. The
//!   printed overlap factor (serialized-time / wall-time) must clear
//!   [`MIN_OVERLAP`]; before the state machine it pinned at ~1.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nbb_core::db::{Database, DbConfig};
use nbb_core::table::{FieldSpec, IndexSpec, Table};
use nbb_storage::{DiskManager, DiskModel, LatencyDisk};
use std::sync::Arc;

const RESIDENT_ROWS: u64 = 20_000;
const RESIDENT_OPS_PER_THREAD: usize = 2_000;

const IO_ROWS: u64 = 50_000;
const IO_OPS_PER_THREAD: usize = 50;
/// Modeled device latency for the io_bound regime (NVMe-ish).
const IO_READ_NS: u64 = 50_000;

/// Overlap probe: threads (= cold pages faulted at once, single stripe).
const OVERLAP_K: usize = 8;
/// Overlap probe: modeled device latency (long enough that thread spawn
/// and scheduling noise is a rounding error against k × 20ms).
const OVERLAP_READ_NS: u64 = 20_000_000;
/// Floor on overlapped faults per stripe: k cold faults must finish at
/// least this many times faster than k serialized device waits.
const MIN_OVERLAP: f64 = 3.0;

/// 24-byte tuple: key(8) | value(8) | filler(8).
fn tuple(key: u64, value: u64) -> Vec<u8> {
    let mut t = Vec::with_capacity(24);
    t.extend_from_slice(&key.to_be_bytes());
    t.extend_from_slice(&value.to_le_bytes());
    t.extend_from_slice(&[0u8; 8]);
    t
}

fn mix(k: u64) -> u64 {
    k.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
}

fn fill_table(db: &Database, rows: u64, warm: bool) -> Arc<Table> {
    let t = db.create_table("t", 24).unwrap();
    for k in 0..rows {
        t.insert(&tuple(k, k.wrapping_mul(3))).unwrap();
    }
    t.create_index(IndexSpec::cached("pk", FieldSpec::new(0, 8), vec![FieldSpec::new(8, 8)]))
        .unwrap();
    if warm {
        let pk = t.index("pk").unwrap();
        for k in 0..rows {
            pk.project(&k.to_be_bytes()).unwrap().unwrap();
        }
    }
    t
}

/// Runs `threads × ops` projections; returns a checksum so the work
/// cannot be optimized away.
fn read_batch(table: &Arc<Table>, threads: usize, ops: usize, rows: u64) -> u64 {
    // Advance the key stream across iterations, or every sample after
    // the first replays the previous sample's (now resident) keys and
    // the io_bound regime silently degrades to the resident one.
    static EPOCH: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let epoch = EPOCH.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|ti| {
                let table = Arc::clone(table);
                s.spawn(move || {
                    let mut acc = 0u64;
                    // Per-thread seed so threads fan out over the key
                    // space instead of marching in lockstep.
                    let mut k = mix(mix(epoch) ^ (0x5eed + ti as u64));
                    let pk = table.index("pk").unwrap();
                    for _ in 0..ops {
                        k = mix(k);
                        let key = (k % rows).to_be_bytes();
                        let p = pk.project(&key).unwrap().unwrap();
                        acc = acc
                            .wrapping_add(u64::from_le_bytes(p.payload[..8].try_into().unwrap()));
                    }
                    acc
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).fold(0u64, u64::wrapping_add)
    })
}

/// Fully resident pools: measures the lock path itself.
fn bench_resident(c: &mut Criterion) {
    for &shards in &[1usize, 8] {
        let db = Database::open(DbConfig {
            page_size: 8192,
            heap_frames: 1024,
            index_frames: 1024,
            pool_shards: shards,
            disk_model: None,
            ..DbConfig::default()
        });
        let table = fill_table(&db, RESIDENT_ROWS, true);
        assert_eq!(table.index_pool().shards(), shards, "knob must take effect");
        let mut group = c.benchmark_group(format!("concurrent_reads/resident/shards={shards}"));
        group.sample_size(10);
        for &threads in &[1usize, 2, 4, 8] {
            group.throughput(Throughput::Elements((threads * RESIDENT_OPS_PER_THREAD) as u64));
            group.bench_function(BenchmarkId::from_parameter(threads), |b| {
                b.iter(|| {
                    black_box(read_batch(&table, threads, RESIDENT_OPS_PER_THREAD, RESIDENT_ROWS))
                })
            });
        }
        group.finish();
    }
}

/// Working set ≫ frames over a blocking disk: measures how many device
/// waits the pool can keep in flight.
fn bench_io_bound(c: &mut Criterion) {
    for &shards in &[1usize, 8] {
        let model = DiskModel { read_ns: IO_READ_NS, write_ns: 0 };
        let heap_disk: Arc<dyn DiskManager> = Arc::new(LatencyDisk::new(4096, model));
        let index_disk: Arc<dyn DiskManager> = Arc::new(LatencyDisk::new(4096, model));
        let db = Database::with_disks(
            DbConfig {
                page_size: 4096,
                heap_frames: 128,
                index_frames: 128,
                pool_shards: shards,
                disk_model: None,
                ..DbConfig::default()
            },
            heap_disk,
            index_disk,
        )
        .unwrap();
        let table = fill_table(&db, IO_ROWS, false);
        assert_eq!(table.index_pool().shards(), shards, "knob must take effect");
        let mut group = c.benchmark_group(format!("concurrent_reads/io_bound/shards={shards}"));
        group.sample_size(10);
        for &threads in &[1usize, 2, 4, 8] {
            group.throughput(Throughput::Elements((threads * IO_OPS_PER_THREAD) as u64));
            group.bench_function(BenchmarkId::from_parameter(threads), |b| {
                b.iter(|| black_box(read_batch(&table, threads, IO_OPS_PER_THREAD, IO_ROWS)))
            });
        }
        group.finish();
    }
}

/// Overlapped faults per stripe at shards = 1: k threads fault k
/// distinct cold pages of a single-stripe pool over a blocking disk and
/// the wall clock tells how many device waits ran concurrently. This
/// isolates the fault state machine from sharding entirely — the win
/// must appear with one stripe or it isn't the state machine's.
fn bench_overlapped_faults(_c: &mut Criterion) {
    use nbb_storage::{BufferPool, Page, PageId, PoolOptions};
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

    let model = DiskModel { read_ns: OVERLAP_READ_NS, write_ns: 0 };
    let disk = Arc::new(LatencyDisk::new(4096, model));
    let pool = Arc::new(BufferPool::with_pool_options(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        2 * OVERLAP_K,
        PoolOptions { shards: 1, write_behind: 0, ..PoolOptions::default() },
    ));
    assert_eq!(pool.shards(), 1, "the probe must run in a single stripe");

    // Best-of-three rounds over fresh cold pages, so one scheduler
    // hiccup cannot decide the headline number.
    let mut best = Duration::MAX;
    for _ in 0..3 {
        let ids: Vec<PageId> = (0..OVERLAP_K).map(|_| pool.new_page().unwrap()).collect();
        for id in &ids {
            disk.write(*id, &Page::new(4096)).unwrap();
        }
        let barrier = Barrier::new(OVERLAP_K);
        let start = Instant::now();
        std::thread::scope(|s| {
            for id in &ids {
                let pool = Arc::clone(&pool);
                let barrier = &barrier;
                let id = *id;
                s.spawn(move || {
                    barrier.wait();
                    pool.with_page(id, |p| black_box(p.bytes()[0])).unwrap();
                });
            }
        });
        best = best.min(start.elapsed());
        // Evict so the next round faults cold again.
        for id in &ids {
            pool.evict_page(*id).unwrap();
        }
    }
    let serialized = Duration::from_nanos(OVERLAP_READ_NS * OVERLAP_K as u64);
    let overlap = serialized.as_secs_f64() / best.as_secs_f64();
    let s = pool.stats();
    println!(
        "concurrent_reads overlap: shards=1, k={OVERLAP_K} distinct cold faults in \
         {:.1}ms vs {:.0}ms serialized = {overlap:.1} overlapped faults per stripe \
         ({} faults, {} co-waiter joins)",
        best.as_secs_f64() * 1e3,
        serialized.as_secs_f64() * 1e3,
        s.faults,
        s.fault_joins,
    );
    assert!(
        overlap >= MIN_OVERLAP,
        "a single stripe must sustain >= {MIN_OVERLAP} overlapped faults at k={OVERLAP_K}, \
         got {overlap:.1}"
    );
}

fn short() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_resident, bench_io_bound, bench_overlapped_faults
}
criterion_main!(benches);
