//! Microbenchmarks for the index cache: probe, store, promote, and the
//! end-to-end cached lookup path.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use nbb_btree::cache::{CacheConfig, CacheView, CacheViewMut};
use nbb_btree::node::NodeMut;
use nbb_btree::{BTree, BTreeOptions};
use nbb_storage::{BufferPool, DiskManager, InMemoryDisk, Page};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn cfg() -> CacheConfig {
    CacheConfig { payload_size: 17, bucket_slots: 8, log_threshold: 64 }
}

/// A 68%-full leaf with a fully-populated cache; returns cached ids.
fn populated_leaf() -> (Page, Vec<u64>) {
    let mut rng = SmallRng::seed_from_u64(1);
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
    let capacity = CacheView::new(&page, 32, &cfg()).capacity();
    let mut ids = Vec::new();
    {
        let mut cv = CacheViewMut::new(&mut page, 32, &cfg());
        for i in 0..capacity as u64 {
            let id = 10_000 + i;
            cv.store(id, &[7u8; 17], &mut rng);
            ids.push(id);
        }
    }
    (page, ids)
}

fn bench_probe(c: &mut Criterion) {
    let (page, ids) = populated_leaf();
    let view_cfg = cfg();
    let mut rng = SmallRng::seed_from_u64(2);
    c.bench_function("cache_probe_hit", |b| {
        b.iter(|| {
            let id = ids[rng.gen_range(0..ids.len())];
            let v = CacheView::new(&page, 32, &view_cfg);
            black_box(v.probe(black_box(id)))
        })
    });
    c.bench_function("cache_probe_miss_full_scan", |b| {
        b.iter(|| {
            let v = CacheView::new(&page, 32, &view_cfg);
            black_box(v.probe(black_box(u64::MAX - 1)))
        })
    });
}

fn bench_store_promote(c: &mut Criterion) {
    let view_cfg = cfg();
    c.bench_function("cache_store_evicting", |b| {
        let (mut page, _) = populated_leaf();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut id = 1_000_000u64;
        b.iter(|| {
            id += 1;
            let mut cv = CacheViewMut::new(&mut page, 32, &view_cfg);
            black_box(cv.store(id, &[9u8; 17], &mut rng))
        })
    });
    c.bench_function("cache_promote", |b| {
        let (mut page, ids) = populated_leaf();
        let mut rng = SmallRng::seed_from_u64(4);
        let id = ids[0];
        let mut slot = CacheView::new(&page, 32, &cfg()).probe(id).unwrap().0;
        b.iter(|| {
            let mut cv = CacheViewMut::new(&mut page, 32, &view_cfg);
            if let Some(s) = cv.promote(slot, id, &mut rng) {
                slot = s;
            }
            black_box(slot)
        })
    });
}

fn bench_tree_lookup_paths(c: &mut Criterion) {
    let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(8192));
    let pool = Arc::new(BufferPool::new(disk, 1024));
    let opts = BTreeOptions { cache: Some(cfg()), cache_seed: 5 };
    let tree = BTree::create(pool, 8, opts).unwrap();
    let n = 50_000u64;
    for i in 0..n {
        tree.insert(&i.to_be_bytes(), i).unwrap();
    }
    // Warm every key's cache entry.
    for i in 0..n {
        let m = tree.lookup_cached(&i.to_be_bytes()).unwrap();
        if m.payload.is_none() {
            tree.cache_populate(m.leaf, i, &[1u8; 17], m.token).unwrap();
        }
    }
    let mut rng = SmallRng::seed_from_u64(6);
    let mut group = c.benchmark_group("tree_lookup");
    group.bench_function(BenchmarkId::new("cached_hit", n), |b| {
        b.iter(|| {
            let k = (rng.gen::<u64>() % n).to_be_bytes();
            black_box(tree.lookup_cached(black_box(&k)).unwrap())
        })
    });
    group.bench_function(BenchmarkId::new("plain_get", n), |b| {
        b.iter(|| {
            let k = (rng.gen::<u64>() % n).to_be_bytes();
            black_box(tree.get(black_box(&k)).unwrap())
        })
    });
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
    targets = bench_probe, bench_store_promote, bench_tree_lookup_paths
}
criterion_main!(benches);
