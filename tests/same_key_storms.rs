//! Same-key writer storms: the key-level write-intent contract, end to
//! end through the table layer.
//!
//! What PR 3/4 left racy — N writers hammering *one* key interleaving
//! their index→heap→index sequences — is now serialized by write
//! intents ([`nbb::btree::KeyIntents`]): the first writer installs an
//! intent, racing writers park on it and resume via pre-granted
//! handoff. These tests pin the contract from the public API:
//!
//! * **zero aborted or dropped ops** — every storm op returns `Ok`,
//!   racing deleters split into exactly one `true` and N-1 clean
//!   `false`s (the pre-intent code silently dropped losers' rows);
//! * **a consistent final row** — heap, primary and secondary indexes
//!   agree after the storm, and the row is one writer's tuple, whole;
//! * **observable contention** — `TableStats::intent_parks` /
//!   `intent_handoffs` count the serialized writers.
//!
//! The deterministic test uses the read-gate/observed-parked technique
//! from `nbb-storage/tests/overlapped_io.rs`: the first writer blocks
//! inside a gated heap fault, the test *observes* every other writer
//! parked on the intent via the stats counter, and only then opens the
//! gate — no sleep window to lose a race against a loaded host.

use nbb::core::db::{Database, DbConfig};
use nbb::core::table::{FieldSpec, IndexSpec, Table};
use nbb::storage::disk::{DiskManager, DiskModel, FaultDisk, InMemoryDisk};
use nbb::storage::{BufferPool, PoolOptions};
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};

/// 24-byte tuple: key(8) | group(8) | value(8).
fn tuple(key: u64, group: u64, value: u64) -> Vec<u8> {
    let mut t = Vec::with_capacity(24);
    t.extend_from_slice(&key.to_be_bytes());
    t.extend_from_slice(&group.to_be_bytes());
    t.extend_from_slice(&value.to_le_bytes());
    t
}

const KEY: u64 = 42;

#[test]
fn observed_parked_storm_serializes_same_key_updates() {
    const WRITERS: u64 = 6;
    let gate = Arc::new(FaultDisk::new(4096));
    // write_behind = 0 so the eviction below lands on the (ungated)
    // write path and the storm's heap access must *read* through the
    // gate — freezing the intent holder mid-fault.
    let heap_pool = Arc::new(BufferPool::with_pool_options(
        Arc::clone(&gate) as Arc<dyn DiskManager>,
        4,
        PoolOptions { shards: 1, write_behind: 0 },
    ));
    let index_disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    let index_pool = Arc::new(BufferPool::new(index_disk, 64));
    let t = Table::create("t", 24, heap_pool, index_pool).unwrap();
    t.create_index(IndexSpec::cached("pk", FieldSpec::new(0, 8), vec![FieldSpec::new(16, 8)]))
        .unwrap();
    let rid = t.insert(&tuple(KEY, 0, 0)).unwrap();
    // Force the row's heap page cold, then gate the re-read: the first
    // storm writer blocks inside its heap fault *while holding the
    // key's intent*.
    t.heap().pool().evict_page(rid.page).unwrap();
    gate.hold_reads();

    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let t = &t;
            s.spawn(move || {
                let pk = t.index("pk").unwrap();
                let updated = pk.update(&KEY.to_be_bytes(), &tuple(KEY, w, w + 100)).unwrap();
                assert!(updated, "writer {w}: the row exists throughout, every update lands");
            });
        }
        // Deterministic, no sleeps: writers register their park before
        // waiting, so once the counter reads N-1 every rival is
        // provably parked on the held intent.
        while t.stats().intent_parks < WRITERS - 1 {
            std::thread::yield_now();
        }
        gate.release_reads();
    });

    let s = t.stats();
    assert_eq!(s.updates, WRITERS, "zero dropped ops: every writer updated the row");
    assert_eq!(s.intent_parks, WRITERS - 1, "every rival parked exactly once");
    assert_eq!(s.intent_handoffs, WRITERS - 1, "every release handed the key to a parked rival");
    // Final row is one writer's tuple, whole (no torn interleaving).
    let row = t.index("pk").unwrap().get(&KEY.to_be_bytes()).unwrap().expect("row survives");
    let w = u64::from_be_bytes(row[8..16].try_into().unwrap());
    assert!(w < WRITERS);
    assert_eq!(row, tuple(KEY, w, w + 100), "row must be exactly one writer's tuple");
    assert!(t.index("pk").unwrap().tree().intents().is_idle(), "no leaked intents");
}

#[test]
fn racing_deleters_split_one_true_rest_false() {
    const DELETERS: usize = 8;
    const ROUNDS: usize = 40;
    let db = Database::open(DbConfig {
        page_size: 4096,
        heap_frames: 32,
        index_frames: 32,
        ..DbConfig::default()
    });
    let t = db.create_table("t", 24).unwrap();
    t.create_index(IndexSpec::plain("pk", FieldSpec::new(0, 8))).unwrap();
    t.create_index(IndexSpec::plain("by_group", FieldSpec::new(8, 8))).unwrap();

    let wins = AtomicU64::new(0);
    for round in 0..ROUNDS {
        t.insert(&tuple(KEY, round as u64, 7)).unwrap();
        let barrier = Barrier::new(DELETERS);
        std::thread::scope(|s| {
            for _ in 0..DELETERS {
                let t = &t;
                let barrier = &barrier;
                let wins = &wins;
                s.spawn(move || {
                    let pk = t.index("pk").unwrap();
                    barrier.wait();
                    // The tentpole contract: a losing deleter gets a
                    // clean `false` (it observed the winner's completed
                    // delete), never an error, never a half-deleted row.
                    if pk.delete(&KEY.to_be_bytes()).unwrap() {
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(
            wins.swap(0, Ordering::Relaxed),
            1,
            "round {round}: exactly one racing deleter wins"
        );
        assert!(t.index("pk").unwrap().get(&KEY.to_be_bytes()).unwrap().is_none());
        assert!(
            t.index("by_group").unwrap().get(&(round as u64).to_be_bytes()).unwrap().is_none(),
            "round {round}: secondary index fully maintained by the winning delete"
        );
    }
    assert_eq!(t.heap().live_tuple_count().unwrap(), 0);
    // (No intent_parks floor here: over a zero-latency disk a one-core
    // host can legitimately schedule the deleters back to back. The
    // observed-parked test and the blocking-disk storm assert contention
    // deterministically.)
    assert_eq!(t.stats().deletes, ROUNDS as u64);
}

#[test]
fn mixed_put_update_delete_storm_stays_consistent() {
    const WRITERS: u64 = 8;
    const ROUNDS: u64 = 30;
    // Io-bound regime: a blocking disk stretches every op across real
    // time, so the storm exercises park/handoff chains under load.
    let model = DiskModel { read_ns: 50_000, write_ns: 50_000 };
    let heap: Arc<dyn DiskManager> = Arc::new(FaultDisk::with_latency(4096, model));
    let index: Arc<dyn DiskManager> = Arc::new(FaultDisk::with_latency(4096, model));
    // Pools far below the working set: every storm op faults through
    // the blocking disk, so the intent holder sits in real I/O while
    // its rivals arrive — contention is structural, not a scheduling
    // accident.
    let db = Database::with_disks(
        DbConfig { page_size: 4096, heap_frames: 4, index_frames: 4, ..DbConfig::default() },
        heap,
        index,
    )
    .unwrap();
    let t = db.create_table("t", 24).unwrap();
    t.create_index(IndexSpec::plain("pk", FieldSpec::new(0, 8))).unwrap();
    t.create_index(IndexSpec::plain("by_group", FieldSpec::new(8, 8))).unwrap();
    // Base rows on distinct keys/groups keep the tree multi-leaf so the
    // storm's maintenance crosses real structure (and overflow the
    // 4-frame pools).
    const BASE: u64 = 256;
    for k in 0..BASE {
        t.insert(&tuple(1000 + k, 1000 + k, 0)).unwrap();
    }

    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let t = &t;
            s.spawn(move || {
                let pk = t.index("pk").unwrap();
                for r in 0..ROUNDS {
                    // Every op targets the ONE hot key; groups are
                    // writer-unique so secondary maintenance is
                    // distinguishable per writer.
                    match (w + r) % 3 {
                        0 => {
                            pk.put(&tuple(KEY, w, r)).unwrap();
                        }
                        1 => {
                            // May race a delete: a clean `false` is the
                            // serialized outcome, an error is a bug.
                            pk.update(&KEY.to_be_bytes(), &tuple(KEY, w, r + 1)).unwrap();
                        }
                        _ => {
                            pk.delete(&KEY.to_be_bytes()).unwrap();
                        }
                    }
                }
            });
        }
    });

    // Consistency sweep: heap, pk, and the secondary agree exactly.
    let hot = t.index("pk").unwrap().get(&KEY.to_be_bytes()).unwrap();
    let mut live_hot = 0u64;
    let mut heap_copy = None;
    t.scan(|_, row| {
        if u64::from_be_bytes(row[..8].try_into().unwrap()) == KEY {
            live_hot += 1;
            heap_copy = Some(row.to_vec());
        }
        true
    })
    .unwrap();
    match &hot {
        Some(row) => {
            assert_eq!(live_hot, 1, "exactly one live hot row");
            assert_eq!(heap_copy.as_ref(), Some(row), "pk and heap agree");
            let group = u64::from_be_bytes(row[8..16].try_into().unwrap());
            assert!(group < WRITERS, "row is one writer's tuple");
            assert_eq!(
                t.index("by_group").unwrap().get(&group.to_be_bytes()).unwrap().as_ref(),
                Some(row),
                "secondary index points at the surviving row"
            );
        }
        None => assert_eq!(live_hot, 0, "deleted row must not linger in the heap"),
    }
    // No writer's secondary entry survived except (at most) the live one.
    for w in 0..WRITERS {
        let via_group = t.index("by_group").unwrap().get(&w.to_be_bytes()).unwrap();
        if let Some(row) = via_group {
            assert_eq!(Some(row), hot, "stale secondary entry for writer {w}");
        }
    }
    assert_eq!(t.heap().live_tuple_count().unwrap() as u64, BASE + live_hot);
    let s = t.stats();
    assert!(s.intent_parks > 0, "a one-key storm must park rivals: {s:?}");
    assert_eq!(s.intent_parks, s.intent_handoffs, "every park resolves via a handoff");
    assert!(t.index("pk").unwrap().tree().intents().is_idle(), "no leaked intents");
    assert!(t.index("pk").unwrap().tree().check_invariants().unwrap().is_ok());
}

#[test]
fn racing_puts_leave_exactly_one_row() {
    const WRITERS: u64 = 8;
    let db = Database::open(DbConfig::default());
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
                pk.put(&tuple(KEY, w, w)).unwrap();
            });
        }
    });
    // Serialized puts: one insert, the rest in-place updates — never
    // two heap rows for one key.
    assert_eq!(t.heap().live_tuple_count().unwrap(), 1, "upsert storm must not duplicate rows");
    let row = t.index("pk").unwrap().get(&KEY.to_be_bytes()).unwrap().unwrap();
    let w = u64::from_be_bytes(row[8..16].try_into().unwrap());
    assert_eq!(row, tuple(KEY, w, w));
    let s = t.stats();
    assert_eq!(s.inserts, 1);
    assert_eq!(s.updates, WRITERS - 1);
}
