//! Batched vs point writes, and concurrent disjoint-range writers vs
//! the old serialized-writer discipline.
//!
//! Two questions:
//!
//! 1. **Amortization.** A 1024-key sorted `insert_many` pays one
//!    descent + one per-leaf latch + one page access per *destination
//!    leaf*; the equivalent loop of single `insert` calls pays all
//!    three per *key*. The headline ratio (batched time / looped time)
//!    is printed and asserted ≤ 0.6 — the acceptance bar for the
//!    batched write path.
//! 2. **Parallelism.** With per-leaf latching, 8 writer threads on
//!    disjoint key ranges only contend on pool stripes and split
//!    escalations. The baseline emulates the seed's discipline — one
//!    tree-level write lock serializing every mutation — via a global
//!    mutex around each batch. Over a blocking [`LatencyDisk`] with
//!    small pools (the io-bound regime where concurrency pays even on
//!    one core), the free-running writers must beat the serialized
//!    ones at `shards = 8`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nbb_core::db::{Database, DbConfig};
use nbb_core::table::{FieldSpec, IndexSpec, Table};
use nbb_storage::{DiskManager, DiskModel, LatencyDisk};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BASE_ROWS: u64 = 50_000;
const BATCH: u64 = 1024;
/// Acceptance bar: one sorted 1024-key multi-insert costs at most this
/// fraction of the equivalent looped single inserts.
const MAX_BATCHED_RATIO: f64 = 0.6;

const WRITER_THREADS: u64 = 8;
const WRITER_BATCH: u64 = 128;
const WRITER_ROUNDS: u64 = 6;
/// Modeled device latency for the concurrent regime (NVMe-ish).
const IO_NS: u64 = 20_000;

/// 24-byte tuple: key(8) | value(8) | filler(8).
fn tuple(key: u64, value: u64) -> Vec<u8> {
    let mut t = Vec::with_capacity(24);
    t.extend_from_slice(&key.to_be_bytes());
    t.extend_from_slice(&value.to_le_bytes());
    t.extend_from_slice(&[0u8; 8]);
    t
}

fn build_table(db: &Database) -> Arc<Table> {
    let t = db.create_table("t", 24).unwrap();
    for chunk in (0..BASE_ROWS).step_by(4096) {
        let tuples: Vec<Vec<u8>> =
            (chunk..(chunk + 4096).min(BASE_ROWS)).map(|k| tuple(k, k * 3)).collect();
        t.insert_many(&tuples).unwrap();
    }
    t.create_index(IndexSpec::cached("pk", FieldSpec::new(0, 8), vec![FieldSpec::new(8, 8)]))
        .unwrap();
    t
}

/// Criterion rungs: insert a 1024-key sorted batch above the table's
/// key space, then delete it again, so the table size stays bounded
/// across criterion's adaptive iteration count. Both rungs do the same
/// insert+delete round trip; only the batching differs.
fn bench_write_round_trip(c: &mut Criterion) {
    let db = Database::open(DbConfig::default());
    let t = build_table(&db);
    let pk = t.index("pk").unwrap();
    let keys: Vec<[u8; 8]> = (BASE_ROWS..BASE_ROWS + BATCH).map(|k| k.to_be_bytes()).collect();
    let tuples: Vec<Vec<u8>> = (BASE_ROWS..BASE_ROWS + BATCH).map(|k| tuple(k, k)).collect();

    let mut group = c.benchmark_group("batched_writes");
    group.throughput(Throughput::Elements(BATCH));

    group.bench_function(BenchmarkId::new("looped_insert_delete", BATCH), |b| {
        b.iter(|| {
            for tu in &tuples {
                black_box(t.insert(tu).unwrap());
            }
            for key in &keys {
                black_box(pk.delete(key).unwrap());
            }
        })
    });

    group.bench_function(BenchmarkId::new("insert_many_delete_many", BATCH), |b| {
        b.iter(|| {
            black_box(t.insert_many(&tuples).unwrap());
            black_box(pk.delete_many(&keys).unwrap());
        })
    });
    group.finish();

    // Headline: pure sorted multi-insert vs looped single inserts over
    // identical fresh key ranges, measured back to back — on a fresh
    // table, so the rung phase's churned leaves and recycled heap
    // slots cannot skew either side.
    let db = Database::open(DbConfig::default());
    let t = build_table(&db);
    const REPS: u64 = 15;
    let mut looped = Duration::ZERO;
    let mut batched = Duration::ZERO;
    let mut next_key = BASE_ROWS;
    for _ in 0..REPS {
        let range: Vec<Vec<u8>> = (next_key..next_key + BATCH).map(|k| tuple(k, k)).collect();
        next_key += BATCH;
        let start = Instant::now();
        for tu in &range {
            black_box(t.insert(tu).unwrap());
        }
        looped += start.elapsed();

        let range: Vec<Vec<u8>> = (next_key..next_key + BATCH).map(|k| tuple(k, k)).collect();
        next_key += BATCH;
        let start = Instant::now();
        black_box(t.insert_many(&range).unwrap());
        batched += start.elapsed();
    }
    let ratio = batched.as_secs_f64() / looped.as_secs_f64();
    let w = t.index("pk").unwrap().tree().write_stats();
    println!(
        "batched_writes ratio: one {BATCH}-key sorted insert_many costs {ratio:.2}x \
         the looped single inserts ({:.1}us vs {:.1}us per batch; \
         tree amortization {:.1} keys/descent overall)",
        batched.as_secs_f64() * 1e6 / REPS as f64,
        looped.as_secs_f64() * 1e6 / REPS as f64,
        w.keys_per_leaf_group(),
    );
    assert!(
        ratio <= MAX_BATCHED_RATIO,
        "sorted multi-insert must cost <= {MAX_BATCHED_RATIO}x the looped inserts, got {ratio:.2}x"
    );
}

/// One full multi-writer workload: every thread owns a disjoint key
/// range and rounds through batched inserts + deletes. `serialize`
/// wraps each batch in one global mutex — the seed's single
/// tree-level-write-lock discipline — so the same work degrades to one
/// writer at a time.
fn run_writers(table: &Arc<Table>, serialize: Option<&Mutex<()>>) -> Duration {
    let start = Instant::now();
    std::thread::scope(|s| {
        for w in 0..WRITER_THREADS {
            let table = Arc::clone(table);
            s.spawn(move || {
                let pk = table.index("pk").unwrap();
                let base = BASE_ROWS + w * WRITER_ROUNDS * WRITER_BATCH;
                for round in 0..WRITER_ROUNDS {
                    let lo = base + round * WRITER_BATCH;
                    let tuples: Vec<Vec<u8>> =
                        (lo..lo + WRITER_BATCH).map(|k| tuple(k, k)).collect();
                    let keys: Vec<[u8; 8]> =
                        (lo..lo + WRITER_BATCH).map(|k| k.to_be_bytes()).collect();
                    {
                        let _serialized = serialize.map(|m| m.lock());
                        table.insert_many(&tuples).unwrap();
                    }
                    {
                        let _serialized = serialize.map(|m| m.lock());
                        pk.delete_many(&keys).unwrap();
                    }
                }
            });
        }
    });
    start.elapsed()
}

/// Concurrent disjoint-range writers over a blocking disk, at 1 and 8
/// pool shards, against the serialized-writer baseline.
fn bench_concurrent_writers(c: &mut Criterion) {
    let mut at_8_shards: Option<(Duration, Duration)> = None;
    for &shards in &[1usize, 8] {
        let model = DiskModel { read_ns: IO_NS, write_ns: IO_NS };
        let heap_disk: Arc<dyn DiskManager> = Arc::new(LatencyDisk::new(4096, model));
        let index_disk: Arc<dyn DiskManager> = Arc::new(LatencyDisk::new(4096, model));
        let db = Database::with_disks(
            DbConfig {
                page_size: 4096,
                heap_frames: 256,
                index_frames: 256,
                pool_shards: shards,
                disk_model: None,
                ..DbConfig::default()
            },
            heap_disk,
            index_disk,
        )
        .unwrap();
        let table = build_table(&db);
        assert_eq!(table.index_pool().shards(), shards, "knob must take effect");

        let mut group = c.benchmark_group(format!("concurrent_writes/shards={shards}"));
        group.sample_size(10);
        group.throughput(Throughput::Elements(WRITER_THREADS * WRITER_ROUNDS * WRITER_BATCH * 2));
        let lock = Mutex::new(());
        group.bench_function(BenchmarkId::from_parameter("serialized"), |b| {
            b.iter(|| black_box(run_writers(&table, Some(&lock))))
        });
        group.bench_function(BenchmarkId::from_parameter("per_leaf_latched"), |b| {
            b.iter(|| black_box(run_writers(&table, None)))
        });
        group.finish();

        // Headline measurement outside criterion's adaptive loop;
        // best-of-two keeps a stray scheduler hiccup from deciding it.
        let serialized = run_writers(&table, Some(&lock)).min(run_writers(&table, Some(&lock)));
        let concurrent = run_writers(&table, None).min(run_writers(&table, None));
        println!(
            "concurrent_writes shards={shards}: {WRITER_THREADS} disjoint-range writers \
             {:.2}x vs serialized baseline ({:.1}ms vs {:.1}ms)",
            serialized.as_secs_f64() / concurrent.as_secs_f64(),
            concurrent.as_secs_f64() * 1e3,
            serialized.as_secs_f64() * 1e3,
        );
        if shards == 8 {
            at_8_shards = Some((concurrent, serialized));
        }
    }
    let (concurrent, serialized) = at_8_shards.expect("shards=8 measured");
    assert!(
        concurrent < serialized,
        "per-leaf latched writers must beat the single-write-lock baseline at 8 shards \
         ({concurrent:?} vs {serialized:?})"
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
    targets = bench_write_round_trip, bench_concurrent_writers
}
criterion_main!(benches);
