//! Lock-order model check: a mixed storm across every ranked subsystem.
//!
//! In debug builds every ranked lock acquisition is checked against the
//! workspace lattice (`CONCURRENCY.md`): an inversion panics on the
//! spot, naming both locks. This test's job is to make one run cross as
//! many *combinations* of lock paths as possible at once — faults and
//! coalesced fault-joins, evictions through the write-behind queue and
//! the compressed tier, same-key intent parks and handoffs, cached-index
//! promotion/invalidation (the frame-nested ranks), and the `flush_all`
//! barrier — so the ordinary assertion "the storm completed" carries the
//! real payload "no interleaving of these paths violated the lattice".
//!
//! The deterministic inversion tests (panic message naming both locks)
//! live next to the lattice itself in `nbb-storage/src/lockrank.rs`; the
//! checker's own unit tests live in the `parking_lot` shim.

use nbb::core::db::{Database, DbConfig};
use nbb::core::table::{FieldSpec, IndexSpec};
use std::sync::atomic::{AtomicU64, Ordering};

fn tuple(key: u64, group: u64, value: u64) -> Vec<u8> {
    let mut t = Vec::with_capacity(24);
    t.extend_from_slice(&key.to_be_bytes());
    t.extend_from_slice(&group.to_be_bytes());
    t.extend_from_slice(&value.to_le_bytes());
    t
}

/// Rows seeded before the storm; far more pages than the pool has
/// frames, so cold reads fault and hot writes evict continuously.
const SEEDED: u64 = 400;
/// Keys the update threads hammer (small set → intent contention).
const HOT_KEYS: u64 = 4;
const UPDATERS: usize = 3;
const READERS: usize = 2;
const ROUNDS: u64 = 60;

#[test]
fn mixed_storm_respects_the_lock_lattice() {
    let db = Database::open(DbConfig {
        page_size: 1024,
        heap_frames: 8,
        index_frames: 8,
        pool_shards: 2,
        write_behind: 4,
        compressed_budget_bytes: 64 * 1024,
        ..DbConfig::default()
    });
    let t = db.create_table("t", 24).unwrap();
    // A cached pk exercises the frame-nested ranks (promotion RNG,
    // invalidation log) from inside pool callbacks; the secondary
    // index makes every logical write a multi-index sequence under
    // one intent.
    t.create_index(IndexSpec::cached("pk", FieldSpec::new(0, 8), vec![FieldSpec::new(16, 8)]))
        .unwrap();
    t.create_index(IndexSpec::plain("by_group", FieldSpec::new(8, 8))).unwrap();
    for k in 0..SEEDED {
        t.insert(&tuple(k, k % 7, k)).unwrap();
    }
    // Pools are tiny, so the seed already overflowed them; the storm
    // below re-faults cold pages while updaters keep dirtying others.
    let inserted = AtomicU64::new(SEEDED);

    std::thread::scope(|s| {
        for w in 0..UPDATERS as u64 {
            let t = &t;
            s.spawn(move || {
                let pk = t.index("pk").unwrap();
                for round in 0..ROUNDS {
                    let key = (w + round) % HOT_KEYS;
                    let updated =
                        pk.update(&key.to_be_bytes(), &tuple(key, round % 7, w * 1000 + round));
                    assert!(updated.unwrap(), "hot keys exist throughout");
                }
            });
        }
        for r in 0..READERS as u64 {
            let t = &t;
            s.spawn(move || {
                for round in 0..ROUNDS {
                    // Stride through the cold range: every read is a
                    // likely fault, some served by the compressed tier.
                    let key = (r * 131 + round * 17) % SEEDED;
                    let row = t.index("pk").unwrap().get(&key.to_be_bytes()).unwrap();
                    if key >= HOT_KEYS {
                        let row = row.expect("cold rows are never deleted");
                        assert_eq!(u64::from_be_bytes(row[..8].try_into().unwrap()), key);
                    }
                }
            });
        }
        {
            let t = &t;
            let inserted = &inserted;
            s.spawn(move || {
                let pk = t.index("pk").unwrap();
                for round in 0..ROUNDS {
                    let key = SEEDED + round;
                    t.insert(&tuple(key, key % 7, key)).unwrap();
                    inserted.fetch_add(1, Ordering::Relaxed);
                    if round % 8 == 0 {
                        // Delete/reinsert churns the cached index's
                        // invalidation log under frame latches.
                        assert!(pk.delete(&key.to_be_bytes()).unwrap());
                        t.insert(&tuple(key, key % 7, key + 1)).unwrap();
                    }
                }
            });
        }
        {
            // A concurrent persist drives the flush_all barrier (the
            // ordered map→frame sweep) against live faulting writers.
            let db = &db;
            s.spawn(move || {
                db.persist().unwrap();
            });
        }
    });

    // The storm must actually have crossed the interesting paths —
    // otherwise this test silently degrades into a no-op model check.
    let stats = t.stats();
    let pool = db.heap_pool().stats();
    assert!(pool.misses > 0, "storm never faulted: pool too large for the workload");
    assert!(pool.evictions > 0, "storm never evicted: no map→frame path exercised");
    assert!(pool.writebacks > 0, "storm never wrote back a dirty victim");
    assert_eq!(stats.updates, (UPDATERS as u64) * ROUNDS, "every hot update landed");

    // Every row is whole and findable after the storm.
    for k in 0..inserted.load(Ordering::Relaxed) {
        let row = t.index("pk").unwrap().get(&k.to_be_bytes()).unwrap().expect("row survives");
        assert_eq!(u64::from_be_bytes(row[..8].try_into().unwrap()), k);
    }

    // The checker's stack must be fully unwound on this thread, and the
    // close-path flush (drain write-behind, stop the compressor, flush
    // residents) must itself pass the lattice.
    #[cfg(debug_assertions)]
    assert_eq!(parking_lot::held_rank_count(), 0);
    db.close().unwrap();
}
