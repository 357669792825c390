//! Adversarial consistency tests: the index cache must never serve a
//! value that differs from the heap, under any interleaving of updates,
//! deletes, RID reuse, eviction, and crash-invalidation.

use nbb::btree::{BTree, BTreeOptions, CacheConfig};
use nbb::core::db::{Database, DbConfig};
use nbb::core::table::{FieldSpec, IndexSpec, Table};
use nbb::storage::{BufferPool, DiskManager, InMemoryDisk, PageId};
use std::collections::HashMap;
use std::sync::Arc;

fn k(v: u64) -> [u8; 8] {
    v.to_be_bytes()
}

/// tuple: id(8 BE) | value(8 LE) | junk(8)
fn tuple(id: u64, value: u64) -> Vec<u8> {
    let mut t = Vec::with_capacity(24);
    t.extend_from_slice(&k(id));
    t.extend_from_slice(&value.to_le_bytes());
    t.extend_from_slice(&[0x77; 8]);
    t
}

fn cached_table(heap_frames: usize, index_frames: usize) -> (Database, Arc<Table>) {
    let db = Database::open(DbConfig {
        page_size: 4096,
        heap_frames,
        index_frames,
        ..DbConfig::default()
    });
    let t = db.create_table("t", 24).unwrap();
    t.create_index(IndexSpec::cached("pk", FieldSpec::new(0, 8), vec![FieldSpec::new(8, 8)]))
        .unwrap();
    (db, t)
}

#[test]
fn long_adversarial_interleaving_never_serves_stale() {
    let (_db, t) = cached_table(256, 256);
    let mut truth: HashMap<u64, u64> = HashMap::new();
    let mut x = 0xA5A5_5A5A_1234_5678u64;
    for step in 0..30_000u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let id = x % 200;
        match x % 11 {
            0 | 1 => {
                truth.entry(id).or_insert_with(|| {
                    let v = x >> 32;
                    t.insert(&tuple(id, v)).unwrap();
                    v
                });
            }
            2 => {
                if truth.contains_key(&id) {
                    let v = x >> 32;
                    assert!(t.index("pk").unwrap().update(&k(id), &tuple(id, v)).unwrap());
                    truth.insert(id, v);
                }
            }
            3 => {
                let existed = t.index("pk").unwrap().delete(&k(id)).unwrap();
                assert_eq!(existed, truth.remove(&id).is_some(), "step {step}");
            }
            _ => {
                let got = t.index("pk").unwrap().project(&k(id)).unwrap();
                match (got, truth.get(&id)) {
                    (Some(p), Some(v)) => assert_eq!(
                        p.payload,
                        v.to_le_bytes(),
                        "STALE CACHE at step {step}, id {id}"
                    ),
                    (None, None) => {}
                    (g, m) => panic!("presence mismatch at step {step}: {g:?} vs {m:?}"),
                }
            }
        }
    }
    let stats = t.stats();
    assert!(stats.index_only_answers > 0, "cache must have been exercised: {stats:?}");
}

#[test]
fn stale_never_served_under_memory_pressure() {
    // Tiny pools: constant eviction, so non-dirty cache writes are lost
    // and leaves reload from disk continually.
    let (_db, t) = cached_table(3, 3);
    let mut truth: HashMap<u64, u64> = HashMap::new();
    let mut x = 0x1357_9BDF_2468_ACE0u64;
    for step in 0..8_000u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let id = x % 500;
        match x % 7 {
            0 => {
                truth.entry(id).or_insert_with(|| {
                    t.insert(&tuple(id, x >> 32)).unwrap();
                    x >> 32
                });
            }
            1 => {
                if truth.contains_key(&id) {
                    t.index("pk").unwrap().update(&k(id), &tuple(id, x >> 33)).unwrap();
                    truth.insert(id, x >> 33);
                }
            }
            _ => {
                if let Some(p) = t.index("pk").unwrap().project(&k(id)).unwrap() {
                    assert_eq!(
                        p.payload,
                        truth[&id].to_le_bytes(),
                        "stale under eviction at step {step}"
                    );
                } else {
                    assert!(!truth.contains_key(&id), "lost tuple at step {step}");
                }
            }
        }
    }
}

#[test]
fn concurrent_readers_and_writers_on_shared_tree() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(8192));
    let pool = Arc::new(BufferPool::new(disk, 128));
    let tree = Arc::new(
        BTree::create(pool, 8, BTreeOptions { cache: Some(CacheConfig { payload_size: 8 }) })
            .unwrap(),
    );
    let n = 64u64;
    let versions: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
    for i in 0..n {
        tree.insert(&k(i), i).unwrap();
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut handles = Vec::new();
    // Writer: bump the version ("heap") first, then write it through.
    {
        let tree = Arc::clone(&tree);
        let versions = Arc::clone(&versions);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut x = 1u64;
            while !stop.load(Ordering::Relaxed) {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let id = x % n;
                let v = versions[id as usize].fetch_add(1, Ordering::SeqCst) + 1;
                tree.cache_refresh_many(&[(k(id), id, v.to_le_bytes())]).unwrap();
            }
        }));
    }
    // Readers: cached value must never exceed current version, and a
    // populate must never resurrect an older version over a newer one.
    for t_id in 0..3 {
        let tree = Arc::clone(&tree);
        let versions = Arc::clone(&versions);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut x: u64 = 77 + t_id;
            for _ in 0..20_000 {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let id = x % n;
                let m = tree.lookup_cached(&k(id)).unwrap();
                if let Some(pl) = &m.payload {
                    let got = u64::from_le_bytes(pl[..8].try_into().unwrap());
                    let now = versions[id as usize].load(Ordering::SeqCst);
                    assert!(got <= now, "cache from the future: {got} > {now}");
                } else {
                    // Read "heap" (the version array), then populate.
                    let v = versions[id as usize].load(Ordering::SeqCst);
                    let _ = tree.cache_populate(m.leaf, id, &v.to_le_bytes(), m.token);
                }
            }
        }));
    }
    // Let readers finish, then stop the writer.
    for h in handles.drain(1..) {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    // Quiesced: every write was written through, so every hit is the
    // current version — no lag is left to forgive.
    for i in 0..n {
        if let Some(pl) = tree.lookup_cached(&k(i)).unwrap().payload {
            let got = u64::from_le_bytes(pl[..8].try_into().unwrap());
            assert_eq!(got, versions[i as usize].load(Ordering::SeqCst), "key {i}");
        }
    }
    assert!(tree.cache_stats().hits > 0 && tree.cache_stats().refreshes > 0);
    // Every leaf read back from the device: every lookup misses.
    let pool = tree.pool();
    for id in 0..pool.disk().num_pages() {
        pool.evict_page(PageId(id)).unwrap();
    }
    for i in 0..n {
        assert!(tree.lookup_cached(&k(i)).unwrap().payload.is_none());
    }
}

#[test]
fn rid_reuse_across_tables_is_safe() {
    // Delete a tuple, insert another that reuses its heap slot, and make
    // sure projections resolve the new tuple (never the ghost).
    let (_db, t) = cached_table(64, 64);
    for round in 0..50u64 {
        let id = 1000 + round;
        t.insert(&tuple(id, round)).unwrap();
        // Warm the cache, then delete.
        t.index("pk").unwrap().project(&k(id)).unwrap();
        t.index("pk").unwrap().project(&k(id)).unwrap();
        assert!(t.index("pk").unwrap().delete(&k(id)).unwrap());
        // Reuse: new id, very likely the same heap slot.
        let id2 = 2000 + round;
        t.insert(&tuple(id2, round * 7)).unwrap();
        let p = t.index("pk").unwrap().project(&k(id2)).unwrap().unwrap();
        assert_eq!(p.payload, (round * 7).to_le_bytes(), "round {round}");
        assert!(t.index("pk").unwrap().project(&k(id)).unwrap().is_none());
        assert!(t.index("pk").unwrap().delete(&k(id2)).unwrap());
    }
}
