//! The write-path latching matrix: sorted multi-key ops, same-leaf
//! writers under contention, escalated splits racing fast-path
//! writers, and writers racing range cursors mid-iteration.
//!
//! The contract under test (see the `tree` module docs): writers crab —
//! shared structure lock + the leaf's frame latch — so disjoint-leaf writers
//! run in parallel; a full leaf escalates to the exclusive structure
//! lock and splits there; readers never block each other and always
//! observe a leaf between two whole operations.

use nbb_btree::{BTree, BTreeOptions};
use nbb_storage::error::StorageError;
use nbb_storage::{BufferPool, DiskManager, InMemoryDisk, PoolOptions};
use std::ops::Bound;
use std::sync::Arc;

fn pool_with(page_size: usize, frames: usize) -> Arc<BufferPool> {
    let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(page_size));
    Arc::new(BufferPool::new(disk, frames))
}

fn pool() -> Arc<BufferPool> {
    pool_with(4096, 512)
}

fn k(v: u64) -> [u8; 8] {
    v.to_be_bytes()
}

// ---------------------------------------------------------------------
// Multi-key op semantics (single-threaded)
// ---------------------------------------------------------------------

#[test]
fn insert_many_matches_insert_loop_across_splits() {
    let batched = BTree::create(pool(), 8, BTreeOptions::default()).unwrap();
    let looped = BTree::create(pool(), 8, BTreeOptions::default()).unwrap();
    // Unsorted input with enough keys to split several times.
    let entries: Vec<([u8; 8], u64)> =
        (0..4000u64).map(|v| (k(v.wrapping_mul(2654435761) % 10_000), v)).collect();
    let mut dedup = std::collections::HashMap::new();
    let mut unique = Vec::new();
    for (key, v) in entries {
        if dedup.insert(key, v).is_none() {
            unique.push((key, v));
        }
    }
    let olds = batched.insert_many(&unique).unwrap();
    assert!(olds.iter().all(Option::is_none), "unique keys never overwrite");
    for (key, v) in &unique {
        looped.insert(key, *v).unwrap();
    }
    batched.check_invariants().unwrap().unwrap();
    assert_eq!(batched.len().unwrap(), looped.len().unwrap());
    for (key, v) in &unique {
        assert_eq!(batched.get(key).unwrap(), Some(*v));
    }
    let w = batched.write_stats();
    assert!(w.escalations > 0, "4000 keys into 4KiB pages must split: {w:?}");
    assert!(w.keys_per_leaf_group() > 2.0, "sorted grouping must amortize descents: {w:?}");
}

#[test]
fn insert_many_returns_old_values_in_input_order() {
    let tree = BTree::create(pool(), 8, BTreeOptions::default()).unwrap();
    tree.insert_many(&[(k(1), 10), (k(3), 30)]).unwrap();
    // Unsorted batch mixing overwrites and fresh keys.
    let olds = tree.insert_many(&[(k(3), 33), (k(2), 22), (k(1), 11)]).unwrap();
    assert_eq!(olds, vec![Some(30), None, Some(10)]);
    assert_eq!(tree.get(&k(1)).unwrap(), Some(11));
    assert_eq!(tree.get(&k(2)).unwrap(), Some(22));
    assert_eq!(tree.get(&k(3)).unwrap(), Some(33));
}

#[test]
fn insert_many_duplicate_key_is_named_error_and_atomic() {
    let tree = BTree::create(pool(), 8, BTreeOptions::default()).unwrap();
    tree.insert(&k(5), 50).unwrap();
    let err = tree.insert_many(&[(k(1), 1), (k(2), 2), (k(1), 9)]).unwrap_err();
    assert!(
        matches!(err, StorageError::DuplicateKeyInBatch { .. }),
        "want the named error, got {err:?}"
    );
    // Rejection happens before any mutation.
    assert_eq!(tree.len().unwrap(), 1);
    assert_eq!(tree.get(&k(1)).unwrap(), None);
    assert_eq!(tree.get(&k(5)).unwrap(), Some(50));
    assert_eq!(tree.write_stats().batches, 1, "rejected batch must not be counted");
}

#[test]
fn delete_many_matches_delete_loop() {
    let tree = BTree::create(pool(), 8, BTreeOptions::default()).unwrap();
    let entries: Vec<([u8; 8], u64)> = (0..2000u64).map(|v| (k(v), v)).collect();
    tree.insert_many(&entries).unwrap();
    // Delete every third key plus some absentees and a duplicate.
    let mut doomed: Vec<[u8; 8]> = (0..2000u64).step_by(3).map(k).collect();
    doomed.push(k(999_999));
    doomed.push(k(0)); // duplicate of the first entry
    let removed = tree.delete_many(&doomed).unwrap();
    for (i, key) in doomed.iter().enumerate() {
        let v = u64::from_be_bytes(*key);
        let expect = if v < 2000 && i + 2 < doomed.len() { Some(v) } else { None };
        assert_eq!(removed[i], expect, "position {i}");
    }
    tree.check_invariants().unwrap().unwrap();
    for v in 0..2000u64 {
        let expect = (v % 3 != 0).then_some(v);
        assert_eq!(tree.get(&k(v)).unwrap(), expect, "key {v}");
    }
}

#[test]
fn write_stats_meter_amortization() {
    let tree = BTree::create(pool(), 8, BTreeOptions::default()).unwrap();
    // A loop of singles: one leaf group per key.
    for v in 0..10u64 {
        tree.insert(&k(v), v).unwrap();
    }
    let w = tree.write_stats();
    assert_eq!((w.batches, w.keys, w.leaf_groups), (10, 10, 10));
    // One batch over one leaf: a single group.
    tree.insert_many(&(10..40u64).map(|v| (k(v), v)).collect::<Vec<_>>()).unwrap();
    let w = tree.write_stats();
    assert_eq!(w.batches, 11);
    assert_eq!(w.keys, 40);
    assert_eq!(w.leaf_groups, 11, "30 same-leaf keys must share one descent");
}

// ---------------------------------------------------------------------
// Contention matrix
// ---------------------------------------------------------------------

/// Split under contention: writer threads hammer interleaved key
/// stripes hard enough to split leaves repeatedly while point readers
/// verify published keys stay visible.
#[test]
fn concurrent_writers_split_safely() {
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 3000;
    let tree = Arc::new(BTree::create(pool_with(4096, 1024), 8, BTreeOptions::default()).unwrap());
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let tree = Arc::clone(&tree);
            s.spawn(move || {
                // Interleaved stripes (w, w+W, w+2W, …): every writer
                // keeps landing on the same leaves as its peers, so
                // frame latches and escalated splits genuinely contend.
                for i in 0..PER_WRITER {
                    let key = i * WRITERS + w;
                    tree.insert(&k(key), key * 7).unwrap();
                }
            });
        }
        let tree = Arc::clone(&tree);
        s.spawn(move || {
            for i in 0..2000u64 {
                // Whatever exists must carry the right value.
                if let Some(v) = tree.get(&k(i)).unwrap() {
                    assert_eq!(v, i * 7, "key {i}");
                }
            }
        });
    });
    tree.check_invariants().unwrap().unwrap();
    assert_eq!(tree.len().unwrap(), (WRITERS * PER_WRITER) as usize);
    for i in 0..WRITERS * PER_WRITER {
        assert_eq!(tree.get(&k(i)).unwrap(), Some(i * 7), "key {i}");
    }
    assert!(tree.write_stats().escalations > 0, "the workload must have split");
}

/// Batched writers on disjoint ranges racing batched deleters on other
/// disjoint ranges: the latch discipline must keep every range exact.
#[test]
fn concurrent_insert_many_delete_many_disjoint_ranges() {
    const THREADS: u64 = 4;
    const RANGE: u64 = 4000;
    const BATCH: u64 = 250;
    let tree = Arc::new(BTree::create(pool_with(4096, 1024), 8, BTreeOptions::default()).unwrap());
    // Pre-populate even thread ranges so deleters have work.
    for t in (0..THREADS).step_by(2) {
        let entries: Vec<([u8; 8], u64)> =
            (t * RANGE..(t + 1) * RANGE).map(|v| (k(v), v)).collect();
        tree.insert_many(&entries).unwrap();
    }
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let tree = Arc::clone(&tree);
            s.spawn(move || {
                let base = t * RANGE;
                if t % 2 == 0 {
                    // Deleter: drain the pre-populated range in batches.
                    for chunk in (0..RANGE).step_by(BATCH as usize) {
                        let keys: Vec<[u8; 8]> =
                            (base + chunk..base + chunk + BATCH).map(k).collect();
                        let removed = tree.delete_many(&keys).unwrap();
                        assert!(removed.iter().all(Option::is_some), "own range, no races");
                    }
                } else {
                    // Inserter: fill the empty range in batches.
                    for chunk in (0..RANGE).step_by(BATCH as usize) {
                        let entries: Vec<([u8; 8], u64)> =
                            (base + chunk..base + chunk + BATCH).map(|v| (k(v), v * 2)).collect();
                        let olds = tree.insert_many(&entries).unwrap();
                        assert!(olds.iter().all(Option::is_none), "own range, no races");
                    }
                }
            });
        }
    });
    tree.check_invariants().unwrap().unwrap();
    for t in 0..THREADS {
        for v in t * RANGE..(t + 1) * RANGE {
            let expect = (t % 2 == 1).then_some(v * 2);
            assert_eq!(tree.get(&k(v)).unwrap(), expect, "key {v}");
        }
    }
}

/// Writer vs. range cursor mid-iteration: a `range_chunk` walk whose
/// leaves split underneath it must still yield an ascending, duplicate-
/// free sequence containing every key that existed before the scan.
#[test]
fn range_scan_survives_concurrent_splits() {
    const PREEXISTING: u64 = 2000;
    let tree = Arc::new(BTree::create(pool_with(4096, 1024), 8, BTreeOptions::default()).unwrap());
    // Even keys exist up front; a writer adds odd keys during the scan.
    let entries: Vec<([u8; 8], u64)> = (0..PREEXISTING).map(|v| (k(v * 2), v)).collect();
    tree.insert_many(&entries).unwrap();
    std::thread::scope(|s| {
        let writer = {
            let tree = Arc::clone(&tree);
            s.spawn(move || {
                for v in 0..PREEXISTING {
                    tree.insert(&k(v * 2 + 1), v).unwrap();
                }
            })
        };
        // Cursor discipline from the query layer: advance the lower
        // bound past the last yielded key, re-descending per refill.
        let mut buf = nbb_btree::RangeBuf::default();
        let mut lower: Option<Vec<u8>> = None;
        loop {
            let lb = match &lower {
                Some(key) => Bound::Excluded(key.as_slice()),
                None => Bound::Unbounded,
            };
            let chunk =
                tree.range_chunk(lb, Bound::Unbounded, usize::MAX, false, &mut buf).unwrap();
            lower = buf.keys.chunks_exact(8).last().map(<[u8]>::to_vec);
            if chunk.exhausted {
                break;
            }
        }
        let seen: Vec<u64> = buf
            .keys
            .chunks_exact(8)
            .map(|key| u64::from_be_bytes(key.try_into().unwrap()))
            .collect();
        writer.join().unwrap();
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "cursor must stay strictly ascending");
        let evens: Vec<u64> = seen.iter().copied().filter(|v| v % 2 == 0).collect();
        assert_eq!(
            evens,
            (0..PREEXISTING).map(|v| v * 2).collect::<Vec<_>>(),
            "every pre-existing key must be yielded exactly once"
        );
    });
    tree.check_invariants().unwrap().unwrap();
    assert_eq!(tree.len().unwrap(), 2 * PREEXISTING as usize);
}

/// Same-leaf contention: many writers all updating one tiny key range
/// serialize on the leaf's frame latch without losing updates.
#[test]
fn same_leaf_writers_serialize_on_the_latch() {
    const THREADS: usize = 8;
    const ROUNDS: u64 = 500;
    let tree = Arc::new(BTree::create(pool(), 8, BTreeOptions::default()).unwrap());
    for v in 0..4u64 {
        tree.insert(&k(v), 0).unwrap();
    }
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let tree = Arc::clone(&tree);
            s.spawn(move || {
                for i in 0..ROUNDS {
                    let key = k((t as u64 + i) % 4);
                    // Overwriting insert + point read on a shared leaf.
                    tree.insert(&key, t as u64 * ROUNDS + i).unwrap();
                    assert!(tree.get(&key).unwrap().is_some());
                }
            });
        }
    });
    tree.check_invariants().unwrap().unwrap();
    assert_eq!(tree.len().unwrap(), 4);
}

/// Batched reads vs the buffer pool's in-flight (`Loading`) frames: a
/// tiny single-shard pool over a blocking disk keeps every `get_many`
/// batch faulting cold leaves, so concurrent readers constantly
/// encounter pages mid-load. They must park on (or proceed past) the
/// in-flight fault — never deadlock, never read a half-loaded page —
/// and co-waiter joins replace duplicate disk reads.
#[test]
fn batched_gets_tolerate_in_flight_page_faults() {
    use nbb_storage::{DiskModel, LatencyDisk};
    const THREADS: usize = 4;
    const ROUNDS: usize = 3;
    const N: u64 = 2000;

    let disk: Arc<dyn DiskManager> =
        Arc::new(LatencyDisk::new(4096, DiskModel { read_ns: 200_000, write_ns: 0 }));
    let pool = Arc::new(BufferPool::with_pool_options(
        disk,
        8,
        PoolOptions { shards: 1, write_behind: 16, ..PoolOptions::default() },
    ));
    let tree = Arc::new(BTree::create(Arc::clone(&pool), 8, BTreeOptions::default()).unwrap());
    let entries: Vec<([u8; 8], u64)> = (0..N).map(|v| (k(v), v.wrapping_mul(7))).collect();
    tree.insert_many(&entries).unwrap();
    pool.reset_stats();

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let tree = Arc::clone(&tree);
            s.spawn(move || {
                for round in 0..ROUNDS {
                    // Stride the key space so threads collide on some
                    // leaves (joining in-flight loads) and diverge on
                    // others (overlapping distinct faults).
                    let keys: Vec<[u8; 8]> = (0..64u64)
                        .map(|i| k((i * 31 + (t as u64) * 16 + round as u64) % N))
                        .collect();
                    let got = tree.get_many(&keys).unwrap();
                    for (key, v) in keys.iter().zip(got) {
                        let expect = u64::from_be_bytes(*key).wrapping_mul(7);
                        assert_eq!(v, Some(expect), "cold batched get under fault churn");
                    }
                }
            });
        }
    });
    let s = pool.stats();
    assert!(s.faults > 0, "an 8-frame pool must keep faulting: {s:?}");
    assert_eq!(s.misses, s.faults + s.fault_joins, "every miss loaded or parked: {s:?}");
}
