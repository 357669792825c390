//! Ablation benchmarks for two design choices:
//! covering index vs index cache (time per lookup), and cache probe cost
//! as entry size varies (the slot-scan trade-off behind the 25-byte
//! items). Hit-rate ablations (bucket size, policy) live in the
//! `ablation_policies` binary since they measure rates, not time.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use nbb_btree::cache::{Admission, CacheConfig, CacheView, CacheViewMut};
use nbb_btree::node::NodeMut;
use nbb_btree::{BTree, BTreeOptions, CoveringIndex};
use nbb_storage::{BufferPool, DiskManager, InMemoryDisk, Page};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn pool() -> Arc<BufferPool> {
    let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(8192));
    Arc::new(BufferPool::new(disk, 4096))
}

/// Covering index vs cached index, identical workload, warm caches.
fn bench_covering_vs_cache(c: &mut Criterion) {
    let n = 50_000u64;
    // Covering: 8-byte key + 17 covered bytes per entry.
    let covering = CoveringIndex::bulk_load(
        pool(),
        8,
        17,
        (0..n).map(|i| (i.to_be_bytes().to_vec(), vec![3u8; 17], i)),
        0.68,
    )
    .unwrap();
    // Cached: plain entries, 17-byte payloads in leaf free space.
    let cached = BTree::bulk_load(
        pool(),
        8,
        BTreeOptions { cache: Some(CacheConfig { payload_size: 17 }) },
        (0..n).map(|i| (i.to_be_bytes().to_vec(), i)),
        0.68,
    )
    .unwrap();
    for i in 0..n {
        let m = cached.lookup_cached(&i.to_be_bytes()).unwrap();
        if m.payload.is_none() {
            cached.cache_populate(m.leaf, &i.to_be_bytes(), &[3u8; 17], m.token).unwrap();
        }
    }

    let mut rng = SmallRng::seed_from_u64(5);
    let mut group = c.benchmark_group("covering_vs_cache");
    group.bench_function("covering_lookup", |b| {
        b.iter(|| {
            let k = (rng.gen::<u64>() % n).to_be_bytes();
            black_box(covering.get(black_box(&k)).unwrap())
        })
    });
    group.bench_function("cached_lookup_warm", |b| {
        b.iter(|| {
            let k = (rng.gen::<u64>() % n).to_be_bytes();
            black_box(cached.lookup_cached(black_box(&k)).unwrap())
        })
    });
    group.finish();

    // Space ablation, printed once: the paper's bloat argument.
    let cov_leaves = covering.tree().index_stats().unwrap().leaf_pages;
    let cache_leaves = cached.index_stats().unwrap().leaf_pages;
    println!(
        "[space] covering index: {cov_leaves} leaves; cached index: {cache_leaves} leaves \
         ({:.2}x bloat for covering)",
        cov_leaves as f64 / cache_leaves as f64
    );
}

/// Probe cost as cache entry size varies: bigger entries mean fewer
/// slots to scan but more bytes per entry.
fn bench_probe_by_entry_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe_by_payload");
    for &payload in &[9usize, 17, 57, 120] {
        let cfg = CacheConfig { payload_size: payload };
        let mut page = Page::new(8192);
        {
            let mut node = NodeMut::init_leaf(&mut page, 32);
            let cap = node.as_ref().capacity();
            for i in 0..(cap as f64 * 0.68) as u64 {
                let mut key = vec![0u8; 32];
                key[..8].copy_from_slice(&i.to_be_bytes());
                node.append_sorted(&key, i + 1);
            }
        }
        let capacity = CacheView::new(&page, 32, &cfg).capacity();
        let mut rng = SmallRng::seed_from_u64(9);
        {
            let mut cv = CacheViewMut::new(&mut page, 32, &cfg);
            let pl = vec![1u8; payload];
            for i in 0..capacity as u16 {
                cv.store(1000 + i, &pl, Admission::Free, &mut rng);
            }
        }
        group.bench_function(BenchmarkId::from_parameter(payload), |b| {
            b.iter(|| {
                // Worst case: full scan (miss).
                let v = CacheView::new(&page, 32, &cfg);
                black_box(v.probe(black_box(1)))
            })
        });
    }
    group.finish();
}

fn short() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_covering_vs_cache, bench_probe_by_entry_size
}

criterion_main!(benches);
