//! Compressed cold frames: spend CPU to multiply the buffer pool.
//!
//! A Zipf-skewed read workload over a working set **2× the frame
//! count** runs against a blocking [`LatencyDisk`], once with the
//! compressed frame tier off (`budget = 0` — every capacity miss pays
//! the modeled device read) and once with a budget big enough to hold
//! the overflow compressed. The pages carry FOR-friendly content
//! (smooth u64 sequences, the paper's "small dynamic range" case), so
//! the tier holds the cold half of the working set in a fraction of its
//! raw bytes and a refault costs one in-memory decompression instead of
//! a device read.
//!
//! Printed: raw vs effective hit rate for both modes, the achieved
//! compression ratio, and the throughput multiple. Asserted (the
//! acceptance bar for the tier): the effective hit rate must *improve*
//! over the tierless run, and throughput must be at least
//! [`MIN_SPEEDUP`]× — CPU spent compressing must buy back more than it
//! costs whenever the device is slower than the codec.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use nbb_storage::{BufferPool, DiskManager, DiskModel, LatencyDisk, PageId, PoolOptions};
use nbb_workload::ScrambledZipf;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frames in the (single-stripe) pool.
const FRAMES: usize = 64;
/// Working-set pages — 2× the pool, so half the set is always cold.
const PAGES: u64 = 2 * FRAMES as u64;
/// Modeled device read latency (writes are free so the read path is
/// isolated). A 4 KiB decompression costs single-digit microseconds;
/// anything slower than this mid-range SSD read loses to the codec.
const READ_NS: u64 = 250_000;
/// Tier budget: comfortably holds the cold half even stored raw.
const BUDGET: usize = 512 * 1024;
/// Zipf skew — hot head resident, long tail churning through eviction.
const ALPHA: f64 = 0.8;
const WARMUP_OPS: usize = 1_024;
const TIMED_OPS: usize = 2_048;
/// Acceptance bar: tier-on throughput must be at least this multiple.
const MIN_SPEEDUP: f64 = 1.2;

struct Pass {
    throughput_ops_s: f64,
    raw_hit_rate: f64,
    effective_hit_rate: f64,
    compression_ratio: f64,
    disk_reads_avoided: u64,
}

fn rig(budget: usize) -> (BufferPool, Vec<PageId>) {
    let model = DiskModel { read_ns: READ_NS, write_ns: 0 };
    let disk: Arc<dyn DiskManager> = Arc::new(LatencyDisk::new(4096, model));
    // Write-behind off: dirty evictions write synchronously (free under
    // the model), so the timed phase measures the read path alone.
    let pool = BufferPool::with_pool_options(
        disk,
        FRAMES,
        PoolOptions { shards: 1, write_behind: 0, compressed_budget_bytes: budget },
    );
    let ids: Vec<PageId> = (0..PAGES).map(|_| pool.new_page().unwrap()).collect();
    // FOR-friendly content: per-page smooth u64 ramps (id-salted so
    // pages are distinct), the codec's best case.
    for (i, id) in ids.iter().enumerate() {
        pool.with_page_mut(*id, |p| {
            let base = (i as u64) << 20;
            for (j, w) in p.bytes_mut().chunks_exact_mut(8).enumerate() {
                w.copy_from_slice(&(base + j as u64 * 3).to_be_bytes());
            }
        })
        .unwrap();
    }
    pool.flush_all().unwrap();
    (pool, ids)
}

/// One measured run: warm up the clock + tier on the Zipf stream, let
/// the compressor settle behind the flush barrier, then time the same
/// stream shape. Both modes consume identical access sequences (fixed
/// seeds) so the comparison is access-for-access.
fn run(budget: usize) -> Pass {
    let (pool, ids) = rig(budget);
    let zipf = ScrambledZipf::new(PAGES, ALPHA, 0xC0FFEE);
    let mut rng = SmallRng::seed_from_u64(42);
    let mut sink = 0u64;
    for _ in 0..WARMUP_OPS {
        let i = zipf.sample(&mut rng) as usize;
        sink ^= pool.with_page(ids[i], |p| u64::from(p.bytes()[9])).unwrap();
    }
    pool.flush_all().unwrap(); // drains the compressor queue
    pool.reset_stats();

    let start = Instant::now();
    for _ in 0..TIMED_OPS {
        let i = zipf.sample(&mut rng) as usize;
        sink ^= pool.with_page(ids[i], |p| u64::from(p.bytes()[9])).unwrap();
    }
    let elapsed = start.elapsed();
    black_box(sink);

    let s = pool.stats();
    Pass {
        throughput_ops_s: TIMED_OPS as f64 / elapsed.as_secs_f64(),
        raw_hit_rate: s.hit_rate(),
        effective_hit_rate: s.effective_hit_rate(),
        compression_ratio: s.compression_ratio(),
        disk_reads_avoided: s.compressed_hits,
    }
}

fn bench_compressed_frames(c: &mut Criterion) {
    let mut group = c.benchmark_group("zipf_reads_2x_working_set");
    group.sample_size(10);
    for (label, budget) in [("tier_off", 0usize), ("tier_on", BUDGET)] {
        let (pool, ids) = rig(budget);
        let zipf = ScrambledZipf::new(PAGES, ALPHA, 0xC0FFEE);
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            let mut rng = SmallRng::seed_from_u64(7);
            b.iter(|| {
                let i = zipf.sample(&mut rng) as usize;
                black_box(pool.with_page(ids[i], |p| u64::from(p.bytes()[9])).unwrap())
            })
        });
    }
    group.finish();

    // Headline comparison outside criterion's adaptive loop.
    let off = run(0);
    let on = run(BUDGET);
    let speedup = on.throughput_ops_s / off.throughput_ops_s;
    println!(
        "compressed_frames: tier off {:.0} ops/s at {:.1}% hits | tier on {:.0} ops/s at \
         {:.1}% raw / {:.1}% effective hits ({} device reads became decompressions, \
         {:.2}x compression ratio) -> {speedup:.2}x throughput",
        off.throughput_ops_s,
        off.raw_hit_rate * 100.0,
        on.throughput_ops_s,
        on.raw_hit_rate * 100.0,
        on.effective_hit_rate * 100.0,
        on.disk_reads_avoided,
        on.compression_ratio,
    );
    assert!(
        on.effective_hit_rate > off.effective_hit_rate,
        "the tier must lift the effective hit rate: {:.3} vs {:.3} without it",
        on.effective_hit_rate,
        off.effective_hit_rate
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "compressing cold frames must beat rereading them: {speedup:.2}x < {MIN_SPEEDUP}x bar"
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
    targets = bench_compressed_frames
}
criterion_main!(benches);
