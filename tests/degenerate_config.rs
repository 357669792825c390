//! The degenerate configuration: one pool stripe, synchronous
//! write-back (`write_behind = 0`).
//!
//! Every concurrency structure in the engine is striped or queued for
//! parallelism, and each has a single-stripe / disabled mode that the
//! fast paths rarely exercise — exactly the code that rots first. This
//! suite runs a representative workload (mixed singles + batches vs a
//! model, a same-key storm, persist/reopen) with every knob forced to
//! its degenerate value; CI runs it as a dedicated job so a regression
//! here cannot hide behind the default configuration.

use nbb::core::db::{Database, DbConfig};
use nbb::core::table::{FieldSpec, IndexSpec};
use std::collections::HashMap;
use std::sync::Barrier;

fn degenerate_config() -> DbConfig {
    DbConfig { page_size: 4096, heap_frames: 32, index_frames: 32, pool_shards: 1, write_behind: 0 }
}

/// 24-byte tuple: key(8) | group(8) | value(8).
fn tuple(key: u64, group: u64, value: u64) -> Vec<u8> {
    let mut t = Vec::with_capacity(24);
    t.extend_from_slice(&key.to_be_bytes());
    t.extend_from_slice(&group.to_be_bytes());
    t.extend_from_slice(&value.to_le_bytes());
    t
}

#[test]
fn knobs_actually_degenerate() {
    let db = Database::open(degenerate_config());
    assert_eq!(db.heap_pool().shards(), 1);
    assert_eq!(db.index_pool().shards(), 1);
    assert_eq!(db.heap_pool().write_behind(), 0);
    assert_eq!(db.index_pool().write_behind(), 0);
}

#[test]
fn mixed_workload_matches_model_on_degenerate_config() {
    let db = Database::open(degenerate_config());
    let t = db.create_table("t", 24).unwrap();
    t.create_index(IndexSpec::cached("pk", FieldSpec::new(0, 8), vec![FieldSpec::new(16, 8)]))
        .unwrap();
    let pk = t.index("pk").unwrap();
    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut x = 7u64;
    for step in 0..4000u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let id = x % 200;
        match x % 8 {
            0 => {
                let v = x % 10_000;
                pk.put(&tuple(id, 0, v)).unwrap();
                model.insert(id, v);
            }
            1 => {
                let existed = pk.delete(&id.to_be_bytes()).unwrap();
                assert_eq!(existed, model.remove(&id).is_some(), "step {step}");
            }
            2 => {
                // Batched leg: 8 sequential keys through put_many.
                let base = (x >> 8) % 200;
                let batch: Vec<Vec<u8>> = (base..base + 8).map(|k| tuple(k, 1, k + step)).collect();
                pk.put_many(&batch).unwrap();
                for k in base..base + 8 {
                    model.insert(k, k + step);
                }
            }
            3 => {
                let base = (x >> 8) % 200;
                let keys: Vec<[u8; 8]> = (base..base + 4).map(|k| k.to_be_bytes()).collect();
                let gone = pk.delete_many(&keys).unwrap();
                for (j, k) in (base..base + 4).enumerate() {
                    assert_eq!(gone[j], model.remove(&k).is_some(), "step {step} key {k}");
                }
            }
            _ => {
                let got = pk.project(&id.to_be_bytes()).unwrap();
                match (got, model.get(&id)) {
                    (Some(p), Some(v)) => assert_eq!(p.payload, v.to_le_bytes(), "step {step}"),
                    (None, None) => {}
                    (g, m) => panic!("step {step} id {id}: {:?} vs {m:?}", g.map(|p| p.payload)),
                }
            }
        }
    }
    assert_eq!(t.heap().live_tuple_count().unwrap(), model.len());
    assert!(t.index_tree("pk").unwrap().tree().check_invariants().unwrap().is_ok());
}

#[test]
fn same_key_storm_on_degenerate_config() {
    const WRITERS: u64 = 8;
    const ROUNDS: u64 = 50;
    let db = Database::open(degenerate_config());
    let t = db.create_table("t", 24).unwrap();
    t.create_index(IndexSpec::plain("pk", FieldSpec::new(0, 8))).unwrap();
    let barrier = Barrier::new(WRITERS as usize);
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let t = &t;
            let barrier = &barrier;
            s.spawn(move || {
                let pk = t.index("pk").unwrap();
                barrier.wait();
                for r in 0..ROUNDS {
                    match (w + r) % 3 {
                        0 => {
                            pk.put(&tuple(9, w, r)).unwrap();
                        }
                        1 => {
                            pk.update(&9u64.to_be_bytes(), &tuple(9, w, r)).unwrap();
                        }
                        _ => {
                            pk.delete(&9u64.to_be_bytes()).unwrap();
                        }
                    }
                }
            });
        }
    });
    let live = t.heap().live_tuple_count().unwrap();
    let via_pk = t.index("pk").unwrap().get(&9u64.to_be_bytes()).unwrap();
    assert_eq!(live, usize::from(via_pk.is_some()), "heap and index agree after the storm");
    assert!(t.index_tree("pk").unwrap().tree().intents().is_idle());
}

/// The write-behind axis: a real (shallow) write-behind queue and its
/// flusher, composed with every other knob at its degenerate value.
/// close() must remain a full drain barrier however the flusher and the
/// barrier's own drain split the queued slots, so a reopen sees the
/// last version of every row.
#[test]
fn write_behind_axis_close_drains_every_queued_write() {
    use nbb::storage::{DiskManager, InMemoryDisk};
    use std::sync::Arc;
    let heap: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    let index: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    let config = DbConfig { write_behind: 8, ..degenerate_config() };
    let db = Database::with_disks(config.clone(), Arc::clone(&heap), Arc::clone(&index)).unwrap();
    assert_eq!(db.heap_pool().write_behind(), 8);
    let t = db.create_table("t", 24).unwrap();
    t.create_index(IndexSpec::plain("pk", FieldSpec::new(0, 8))).unwrap();
    // Insert, then overwrite every row: the 32-frame pool evicts dirty
    // pages through the queue repeatedly, and only the *last* version
    // of each row may survive the drain.
    for k in 0..2000u64 {
        t.insert(&tuple(k, 0, k)).unwrap();
    }
    let pk = t.index("pk").unwrap();
    for k in 0..2000u64 {
        pk.update(&k.to_be_bytes(), &tuple(k, 1, k * 2)).unwrap();
    }
    db.close().unwrap();

    let db = Database::reopen(config, heap, index).unwrap();
    let t = db.table("t").unwrap();
    let mut rows = 0u64;
    let mut sum = 0u64;
    t.scan(|_, tuple| {
        rows += 1;
        sum += u64::from_le_bytes(tuple[16..24].try_into().unwrap());
        true
    })
    .unwrap();
    assert_eq!(rows, 2000, "the drain lost rows");
    assert_eq!(sum, (0..2000u64).map(|k| k * 2).sum::<u64>(), "a stale version survived");
}

/// A shallow write-behind queue under a mixed read/write workload over
/// two cached indexes, every other knob degenerate: puts and deletes
/// maintain both indexes' leaf caches while dirty pages leave through
/// the 4-deep queue, and every projection must still match the model.
#[test]
fn shallow_write_behind_with_two_cached_indexes_matches_model() {
    let db = Database::open(DbConfig { write_behind: 4, ..degenerate_config() });
    let t = db.create_table("t", 24).unwrap();
    t.create_index(IndexSpec::cached("pk", FieldSpec::new(0, 8), vec![FieldSpec::new(16, 8)]))
        .unwrap();
    t.create_index(IndexSpec::cached("grp", FieldSpec::new(8, 8), vec![FieldSpec::new(16, 8)]))
        .unwrap();
    let pk = t.index("pk").unwrap();
    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut x = 13u64;
    for step in 0..3000u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let id = x % 150;
        match x % 6 {
            0 | 1 => {
                let v = x % 10_000;
                pk.put(&tuple(id, id, v)).unwrap();
                model.insert(id, v);
            }
            2 => {
                let existed = pk.delete(&id.to_be_bytes()).unwrap();
                assert_eq!(existed, model.remove(&id).is_some(), "step {step}");
            }
            _ => {
                let got = pk.project(&id.to_be_bytes()).unwrap();
                match (got, model.get(&id)) {
                    (Some(p), Some(v)) => assert_eq!(p.payload, v.to_le_bytes(), "step {step}"),
                    (None, None) => {}
                    (g, m) => panic!("step {step} id {id}: {:?} vs {m:?}", g.map(|p| p.payload)),
                }
            }
        }
    }
    assert_eq!(t.heap().live_tuple_count().unwrap(), model.len());
    // Dropping with writes still queued must drain, not hang or panic.
    drop(db);
}

#[test]
fn persist_reopen_round_trips_on_degenerate_config() {
    use nbb::storage::{DiskManager, InMemoryDisk};
    use std::sync::Arc;
    let heap: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    let index: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    let config = degenerate_config();
    let db = Database::with_disks(config.clone(), Arc::clone(&heap), Arc::clone(&index)).unwrap();
    let t = db.create_table("t", 24).unwrap();
    t.create_index(IndexSpec::plain("pk", FieldSpec::new(0, 8))).unwrap();
    for k in 0..300u64 {
        t.insert(&tuple(k, k % 7, k * 2)).unwrap();
    }
    db.close().unwrap();
    let db = Database::reopen(config, heap, index).unwrap();
    let t = db.table("t").unwrap();
    for k in (0..300u64).step_by(37) {
        assert_eq!(
            t.index("pk").unwrap().get(&k.to_be_bytes()).unwrap().unwrap(),
            tuple(k, k % 7, k * 2)
        );
    }
}

#[test]
fn two_frame_pools_still_scan_correctly() {
    use nbb::storage::{DiskManager, InMemoryDisk};
    use std::sync::Arc;
    // Two frames per pool, one shard: a batch fault may hold one frame
    // at a time, so a refill's multi-leaf fault and its heap batch both
    // degrade to one page per device call, and each page they load
    // evicts the one before — the leaves faulted ahead are gone again
    // when the walk reaches them. Slow, but the cursors must not notice.
    let heap: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    let index: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    let db =
        Database::with_disks(degenerate_config(), Arc::clone(&heap), Arc::clone(&index)).unwrap();
    let t = db.create_table("t", 24).unwrap();
    let rows: Vec<Vec<u8>> = (0..3000u64).map(|k| tuple(k, k % 5, k * 7)).collect();
    t.insert_many(&rows).unwrap();
    t.create_index(IndexSpec::cached("pk", FieldSpec::new(0, 8), vec![FieldSpec::new(16, 8)]))
        .unwrap();
    db.close().unwrap();

    let tiny = DbConfig { heap_frames: 2, index_frames: 2, ..degenerate_config() };
    let db = Database::reopen(tiny, heap, index).unwrap();
    assert_eq!((db.heap_pool().capacity(), db.index_pool().capacity()), (2, 2));
    let t = db.table("t").unwrap();
    let pk = t.index("pk").unwrap();
    let start = 1000u64.to_be_bytes();
    let page: Vec<_> = pk.range(&start[..]..).limit(513).map(|r| r.unwrap()).collect();
    assert_eq!(page.len(), 513);
    for (i, row) in page.iter().enumerate() {
        assert_eq!(row.tuple, tuple(1000 + i as u64, (1000 + i as u64) % 5, (1000 + i as u64) * 7));
    }
    let all: Vec<_> = pk.range_projected_all().map(|r| r.unwrap()).collect();
    assert_eq!(all.len(), 3000);
    for (k, row) in all.iter().enumerate() {
        assert_eq!(row.key, (k as u64).to_be_bytes());
        assert_eq!(row.projection.payload, (k as u64 * 7).to_le_bytes());
    }
}
