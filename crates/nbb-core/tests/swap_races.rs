//! Swap on update (`table/hot.rs`) against concurrent readers and
//! writers, run under the debug rank checker like every test here.
//!
//! A swap moves two rows between an index read and a heap read that
//! another thread may be in the middle of. The contract: a reader never
//! reports a moved row absent and never returns a row under another
//! key; a writer never loses a row; a swap that cannot take every
//! intent it needs without waiting does not happen.

mod support;

use nbb_core::db::Database;
use nbb_core::table::{FieldSpec, IndexSpec, Table};
use nbb_storage::disk::FaultDisk;
use nbb_storage::rid::RecordId;
use nbb_storage::{DiskManager, InMemoryDisk};
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::Arc;
use support::{check_rows, config, encode_row, initial_value, load, mix, row};

/// Rows loaded: 100 heap pages of 60.
const ROWS: u64 = 6_000;
/// Rows a 4 KiB heap page holds.
const PER_PAGE: u64 = 60;

fn reopen(heap: Arc<dyn DiskManager>, index: Arc<dyn DiskManager>, heap_frames: usize) -> Database {
    Database::reopen(config(heap_frames, 512), heap, index).unwrap()
}

fn key(k: u64) -> [u8; 8] {
    k.to_be_bytes()
}

/// The big-endian word `bytes` starts with: a key, or a row's key.
fn id(bytes: &[u8]) -> u64 {
    u64::from_be_bytes(bytes[..8].try_into().unwrap())
}

/// The value a well-formed row of `key` carries, or a panic naming
/// what is wrong with it.
fn value_of(key: u64, tuple: &[u8]) -> u64 {
    let value = id(&tuple[8..]);
    assert_eq!(tuple, encode_row(key, value), "a row answered for key {key} is not its own");
    value
}

/// Checks every row of `oracle` through `t`, then a scan-once.
fn check(t: &Table, oracle: &BTreeMap<u64, u64>) {
    check_rows(t, &oracle.keys().copied().collect::<Vec<_>>(), |k| oracle[&k]);
}

/// Two updaters on disjoint keys, a putter, a `GetMany` reader and a
/// range reader over a heap pool of 24 frames for 100 pages: nearly
/// every update faults its page, so swaps run all the time under the
/// readers. Every answer is checked as it comes, the final state
/// against an oracle, and again after a persist and a reopen.
#[test]
fn a_storm_of_reads_updates_ranges_and_puts_matches_the_oracle() {
    let heap: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    let index: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    load(Arc::clone(&heap), Arc::clone(&index), ROWS);
    let db = reopen(Arc::clone(&heap), Arc::clone(&index), 24);
    let t = db.table("t").unwrap();
    let draw = |seed: u64, i: u64| mix(seed, i) % ROWS;
    let written: Vec<HashMap<u64, u64>> = std::thread::scope(|s| {
        let updaters: Vec<_> = (0..2u64)
            .map(|parity| {
                let t = &t;
                s.spawn(move || {
                    let pk = t.index("pk").unwrap();
                    let mut mine = HashMap::new();
                    for batch in 0..400u64 {
                        let mut keys: Vec<u64> = (0..8)
                            .map(|j| draw(parity + 10, batch * 8 + j))
                            .filter(|k| k % 2 == parity)
                            .collect();
                        keys.sort_unstable();
                        keys.dedup();
                        let value = mix(parity, batch);
                        let pairs: Vec<([u8; 8], Vec<u8>)> =
                            keys.iter().map(|&k| (key(k), encode_row(k, value))).collect();
                        assert!(pk.update_many(&pairs).unwrap().iter().all(|&a| a));
                        mine.extend(keys.iter().map(|&k| (k, value)));
                    }
                    mine
                })
            })
            .collect();
        let putter = s.spawn(|| {
            let pk = t.index("pk").unwrap();
            let mut mine = HashMap::new();
            for batch in 0..100u64 {
                let keys: Vec<u64> = (0..4).map(|j| 1_000_000 + batch * 4 + j).collect();
                let rows: Vec<Vec<u8>> = keys.iter().map(|&k| encode_row(k, batch)).collect();
                pk.put_many(&rows).unwrap();
                mine.extend(keys.iter().map(|&k| (k, batch)));
            }
            mine
        });
        s.spawn(|| {
            let pk = t.index("pk").unwrap();
            for i in 0..600u64 {
                let keys: Vec<u64> = (0..4).map(|j| draw(7, i * 4 + j)).collect();
                let bytes: Vec<[u8; 8]> = keys.iter().map(|&k| key(k)).collect();
                for (&k, got) in keys.iter().zip(pk.get_many(&bytes).unwrap()) {
                    value_of(k, &got.unwrap_or_else(|| panic!("key {k} read as absent")));
                }
            }
        });
        s.spawn(|| {
            let pk = t.index("pk").unwrap();
            for i in 0..100u64 {
                let start = draw(8, i) % (ROWS - 64);
                let rows: Vec<_> = pk.range(key(start)..).limit(64).map(Result::unwrap).collect();
                let keys: Vec<u64> = rows.iter().map(|r| id(&r.key)).collect();
                assert_eq!(keys, (start..start + 64).collect::<Vec<_>>(), "range from {start}");
                rows.iter().for_each(|r| _ = value_of(id(&r.key), &r.tuple));
            }
        });
        let mut written: Vec<_> = updaters.into_iter().map(|u| u.join().unwrap()).collect();
        written.push(putter.join().unwrap());
        written
    });
    let mut oracle: BTreeMap<u64, u64> = (0..ROWS).map(|k| (k, initial_value(k))).collect();
    oracle.extend(written.into_iter().flatten());
    let swaps = t.stats().swaps;
    assert!(swaps > 100, "the heap pool is small enough that updates swap ({swaps})");
    assert!(t.index("pk").unwrap().tree().intents().is_idle(), "every intent released");
    check(&t, &oracle);
    drop(t);
    db.close().unwrap();
    let db = reopen(heap, index, 24);
    check(&db.table("t").unwrap(), &oracle);
}

/// A second index, on the value bytes, stays exact while updates
/// through the first change its keys and swap rows onto hot pages: the
/// swapper repoints both rows on both indexes under intents it tried
/// on both.
#[test]
fn swaps_keep_a_second_index_exact() {
    let heap: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    let index: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    load(Arc::clone(&heap), Arc::clone(&index), ROWS);
    let db = reopen(heap, index, 24);
    let t = db.table("t").unwrap();
    t.create_index(IndexSpec::plain("by_value", FieldSpec::new(8, 8))).unwrap();
    let pk = t.index("pk").unwrap();
    let mut oracle: BTreeMap<u64, u64> = (0..ROWS).map(|k| (k, initial_value(k))).collect();
    for batch in 0..300u64 {
        let mut keys: Vec<u64> = (0..4).map(|j| mix(3, batch * 4 + j) % ROWS).collect();
        keys.sort_unstable();
        keys.dedup();
        let pairs: Vec<([u8; 8], Vec<u8>)> =
            keys.iter().map(|&k| (key(k), encode_row(k, mix(k, batch + 1)))).collect();
        assert!(pk.update_many(&pairs).unwrap().iter().all(|&a| a));
        oracle.extend(keys.iter().map(|&k| (k, mix(k, batch + 1))));
    }
    assert!(t.stats().swaps > 50, "updates swapped ({})", t.stats().swaps);
    check(&t, &oracle);
    let by_value = t.index("by_value").unwrap();
    for (&k, &v) in &oracle {
        assert_eq!(id(&by_value.get(&v.to_be_bytes()).unwrap().unwrap()), k, "value of key {k}");
    }
}

/// A database over `heap` and a scripted index disk, reopened with 16
/// heap frames (a hot set of 8 pages) and the hot set filled: an update
/// of slot 5 on each of the first 8 heap pages, each page evicted
/// first so that the update faults it. The clock's hand then points at
/// page 0, slot 0.
fn with_full_hot_set() -> (Database, Arc<FaultDisk>) {
    let heap: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    let index = Arc::new(FaultDisk::new(4096));
    load(Arc::clone(&heap), Arc::clone(&index) as Arc<dyn DiskManager>, ROWS);
    let db = reopen(heap, Arc::clone(&index) as Arc<dyn DiskManager>, 16);
    let t = db.table("t").unwrap();
    let pk = t.index("pk").unwrap();
    let pages = t.heap().page_ids();
    for (i, &page) in pages.iter().take(8).enumerate() {
        t.heap().pool().evict_page(page).unwrap();
        let k = i as u64 * PER_PAGE + 5;
        assert_eq!(RecordId::from_u64(pk.tree().get(&key(k)).unwrap().unwrap()).page, page);
        assert!(pk.update_many(&[(key(k), encode_row(k, 1))]).unwrap()[0]);
    }
    assert_eq!(t.stats().swaps, 0, "the first faulted pages join the hot set");
    drop(pk);
    drop(t);
    (db, index)
}

/// Evicts the heap page of `k` (page 30 for the keys used here, never
/// a hot page) and returns `k`'s address.
fn evict_row_page(t: &Table, k: u64) -> RecordId {
    let rid = RecordId::from_u64(t.index("pk").unwrap().tree().get(&key(k)).unwrap().unwrap());
    t.heap().pool().evict_page(rid.page).unwrap();
    rid
}

/// A range reader reads `u`'s pointer off its leaf, then parks on the
/// index device read of the next leaf. Meanwhile an update of `u`
/// faults its page and swaps it onto hot page 0, so the pointer the
/// reader holds now names the cold row that took `u`'s old slot. The
/// reader must retry under `u`'s intent and return `u`'s new row, not
/// drop it as deleted.
#[test]
fn a_reader_parked_between_its_index_and_heap_reads_finds_the_row_a_swap_moved() {
    let (db, index) = with_full_hot_set();
    let t = db.table("t").unwrap();
    let pk = t.index("pk").unwrap();
    let u = 30 * PER_PAGE + 7;
    let old = evict_row_page(&t, u);
    let leaf = pk.tree().leaf_for(Bound::Included(&key(u)[..])).unwrap();
    let next = pk.tree().leaves_after(&key(u), Bound::Unbounded, 1).unwrap()[0];
    assert_ne!(leaf, next);
    t.index_pool().evict_page(next).unwrap();
    index.take_read_log();
    index.hold_reads();
    let rows = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let rows = pk.range(key(u)..).limit(300).map(Result::unwrap);
            rows.map(|r| (id(&r.key), r.rid, r.tuple)).collect()
        });
        while !index.read_log().iter().any(|call| call.contains(&next)) {
            std::thread::yield_now();
        }
        assert!(pk.update_many(&[(key(u), encode_row(u, 999))]).unwrap()[0]);
        index.release_reads();
        reader.join().unwrap()
    });
    let rows: Vec<(u64, RecordId, Vec<u8>)> = rows;
    assert_eq!(t.stats().swaps, 1, "premise: the update swapped");
    let moved = RecordId::from_u64(pk.tree().get(&key(u)).unwrap().unwrap());
    assert_eq!(moved, RecordId::new(t.heap().page_ids()[0], 0), "premise: onto hot page 0");
    assert_eq!(t.heap().get(old).unwrap(), row(0), "premise: the cold row took u's slot");
    let keys: Vec<u64> = rows.iter().map(|r| r.0).collect();
    assert_eq!(keys, (u..u + 300).collect::<Vec<_>>(), "no row dropped");
    assert_eq!(rows[0].2, encode_row(u, 999), "the reader found u where the swap put it");
    assert_eq!(rows[0].1, moved, "and reports where that is");
    for (k, _, tuple) in &rows {
        value_of(*k, tuple);
    }
}

/// The clock hands out page 0, slot 0 (key 0); while key 0's intent is
/// held, an update that faulted its page overwrites in place instead.
/// Once the intent is free, the next faulting update swaps.
#[test]
fn a_swap_is_skipped_while_the_cold_rows_intent_is_held() {
    let (db, _index) = with_full_hot_set();
    let t = db.table("t").unwrap();
    let pk = t.index("pk").unwrap();
    let u = 30 * PER_PAGE + 7;
    let old = evict_row_page(&t, u);
    let held = pk.tree().intents().acquire(&key(0));
    assert!(pk.update_many(&[(key(u), encode_row(u, 2))]).unwrap()[0]);
    assert_eq!(t.stats().swaps, 0, "the cold row's intent was held");
    assert_eq!(RecordId::from_u64(pk.tree().get(&key(u)).unwrap().unwrap()), old, "in place");
    assert_eq!(t.heap().get(old).unwrap(), encode_row(u, 2));
    drop(held);
    evict_row_page(&t, u);
    assert!(pk.update_many(&[(key(u), encode_row(u, 3))]).unwrap()[0]);
    assert_eq!(t.stats().swaps, 1);
    let hot = RecordId::new(t.heap().page_ids()[0], 1);
    assert_eq!(RecordId::from_u64(pk.tree().get(&key(u)).unwrap().unwrap()), hot);
    assert_eq!(t.heap().get(old).unwrap(), row(1), "key 1 took u's old slot");
    assert_eq!(pk.get(&key(1)).unwrap().unwrap(), row(1));
    assert_eq!(pk.get(&key(u)).unwrap().unwrap(), encode_row(u, 3));
    assert!(pk.tree().intents().is_idle());
}

/// Two updaters on disjoint keys and a `GetMany` reader over a heap
/// pool of 16 frames for 100 pages, with the leaf cache warmed first:
/// an update of a row whose whole-row entry the leaf holds resolves
/// from the leaf, and when the row's page is out of the pool its bytes
/// wait below the pool as a slot patch — in place, or as the row's side
/// of a swap — until a read faults the page. No patch may be dropped,
/// and the final state must match the oracle, and again after a persist
/// and a reopen, which drain the patches still waiting.
#[test]
fn a_storm_over_warm_leaves_patches_rows_and_matches_the_oracle() {
    let heap: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    let index: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    load(Arc::clone(&heap), Arc::clone(&index), ROWS);
    let db = reopen(Arc::clone(&heap), Arc::clone(&index), 16);
    let t = db.table("t").unwrap();
    let pk = t.index("pk").unwrap();
    let all: Vec<[u8; 8]> = (0..ROWS).map(key).collect();
    for _ in 0..2 {
        for chunk in all.chunks(64) {
            pk.get_many(chunk).unwrap();
        }
    }
    db.heap_pool().reset_stats();
    let draw = |seed: u64, i: u64| mix(seed, i) % ROWS;
    let written: Vec<HashMap<u64, u64>> = std::thread::scope(|s| {
        let updaters: Vec<_> = (0..2u64)
            .map(|parity| {
                let t = &t;
                s.spawn(move || {
                    let pk = t.index("pk").unwrap();
                    let mut mine = HashMap::new();
                    for batch in 0..400u64 {
                        let mut keys: Vec<u64> = (0..8)
                            .map(|j| draw(parity + 20, batch * 8 + j))
                            .filter(|k| k % 2 == parity)
                            .collect();
                        keys.sort_unstable();
                        keys.dedup();
                        let value = mix(parity + 5, batch);
                        let pairs: Vec<([u8; 8], Vec<u8>)> =
                            keys.iter().map(|&k| (key(k), encode_row(k, value))).collect();
                        assert!(pk.update_many(&pairs).unwrap().iter().all(|&a| a));
                        mine.extend(keys.iter().map(|&k| (k, value)));
                    }
                    mine
                })
            })
            .collect();
        s.spawn(|| {
            let pk = t.index("pk").unwrap();
            for i in 0..600u64 {
                let keys: Vec<u64> = (0..4).map(|j| draw(21, i * 4 + j)).collect();
                let bytes: Vec<[u8; 8]> = keys.iter().map(|&k| key(k)).collect();
                for (&k, got) in keys.iter().zip(pk.get_many(&bytes).unwrap()) {
                    value_of(k, &got.unwrap_or_else(|| panic!("key {k} read as absent")));
                }
            }
        });
        updaters.into_iter().map(|u| u.join().unwrap()).collect()
    });
    let mut oracle: BTreeMap<u64, u64> = (0..ROWS).map(|k| (k, initial_value(k))).collect();
    oracle.extend(written.into_iter().flatten());
    let s = db.heap_pool().stats();
    assert!(s.patches_deferred > 100, "cached rows' updates wait as patches: {s:?}");
    assert!(s.patches_absorbed > 0, "reads absorb them: {s:?}");
    assert_eq!(s.patches_dropped, 0, "no patch met a slot it did not expect: {s:?}");
    assert!(t.stats().swaps > 0, "the hot set is still offered its swaps");
    assert!(pk.tree().intents().is_idle(), "every intent released");
    check(&t, &oracle);
    drop(pk);
    drop(t);
    db.close().unwrap();
    let db = reopen(heap, index, 16);
    check(&db.table("t").unwrap(), &oracle);
}
