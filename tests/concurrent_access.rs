//! Concurrency stress: N reader threads racing one writer through the
//! cached-index projection path.
//!
//! The §2.1.2 contract under test: a projection answered from the index
//! cache (`index_only`) must never be stale. Concretely, once an update
//! to key `k` has *completed*, no later-starting read of `k` may observe
//! an older version — a violation means a write-through was lost (or a
//! stale populate won a race against a writer's leaf latch).
//!
//! The writer bumps per-key version counters (publishing a floor AFTER
//! each update completes) and churns a disjoint key range with
//! delete/re-insert cycles. Readers assert every observed payload (a)
//! belongs to the key they asked for, and (b) carries a version at least
//! the floor published before their read began.

use nbb::core::db::{Database, DbConfig};
use nbb::core::table::{FieldSpec, IndexSpec, Table};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Keys the writer updates in place.
const UPDATE_KEYS: u64 = 48;
/// Keys (above `UPDATE_KEYS`) the writer deletes and re-inserts.
const CHURN_KEYS: u64 = 32;
const WRITER_ROUNDS: u64 = 4_000;
const READER_THREADS: usize = 4;

/// 24-byte tuple: key(8) | tagged-version(8) | filler(8). The cached
/// field is the tagged version: key in the high 16 bits, version below —
/// so a reader can detect both stale values and cross-key corruption.
fn tagged(key: u64, version: u64) -> u64 {
    (key << 48) | (version & 0xFFFF_FFFF_FFFF)
}

fn tuple(key: u64, version: u64) -> Vec<u8> {
    let mut t = Vec::with_capacity(24);
    t.extend_from_slice(&key.to_be_bytes());
    t.extend_from_slice(&tagged(key, version).to_le_bytes());
    t.extend_from_slice(&[0u8; 8]);
    t
}

fn build(pool_shards: usize, heap_frames: usize, index_frames: usize) -> (Database, Arc<Table>) {
    let db = Database::open(DbConfig {
        page_size: 4096,
        heap_frames,
        index_frames,
        pool_shards,
        ..DbConfig::default()
    });
    let t = db.create_table("t", 24).unwrap();
    for k in 0..UPDATE_KEYS + CHURN_KEYS {
        t.insert(&tuple(k, 0)).unwrap();
    }
    t.create_index(IndexSpec::cached("pk", FieldSpec::new(0, 8), vec![FieldSpec::new(8, 8)]))
        .unwrap();
    (db, t)
}

/// Decodes a projection payload into (key_tag, version).
fn decode(payload: &[u8]) -> (u64, u64) {
    let v = u64::from_le_bytes(payload[..8].try_into().unwrap());
    (v >> 48, v & 0xFFFF_FFFF_FFFF)
}

fn run_stress(pool_shards: usize, heap_frames: usize, index_frames: usize) {
    let (_db, table) = build(pool_shards, heap_frames, index_frames);
    let floors: Arc<Vec<AtomicU64>> =
        Arc::new((0..UPDATE_KEYS).map(|_| AtomicU64::new(0)).collect());
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        // Readers: hammer the projection path, checking freshness
        // against the floor read BEFORE the projection started.
        let mut readers = Vec::new();
        for ti in 0..READER_THREADS {
            let table = Arc::clone(&table);
            let floors = Arc::clone(&floors);
            let done = Arc::clone(&done);
            readers.push(s.spawn(move || {
                let mut x = 0x9E37_79B9u64.wrapping_add(ti as u64);
                let mut reads = 0u64;
                let mut hits = 0u64;
                while !done.load(Ordering::Acquire) {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let k = x % (UPDATE_KEYS + CHURN_KEYS);
                    if k < UPDATE_KEYS {
                        let floor = floors[k as usize].load(Ordering::Acquire);
                        let p = table
                            .index("pk")
                            .unwrap()
                            .project(&k.to_be_bytes())
                            .unwrap()
                            .expect("update keys are never deleted");
                        let (tag, version) = decode(&p.payload);
                        assert_eq!(tag, k, "projection returned another key's bytes");
                        assert!(
                            version >= floor,
                            "lost invalidation: key {k} read version {version} \
                             after version {floor} was committed (index_only={})",
                            p.index_only
                        );
                        hits += u64::from(p.index_only);
                    } else {
                        // Churned key: may be absent, but when present the
                        // payload must belong to it.
                        if let Some(p) =
                            table.index("pk").unwrap().project(&k.to_be_bytes()).unwrap()
                        {
                            let (tag, _) = decode(&p.payload);
                            assert_eq!(tag, k, "projection returned another key's bytes");
                        }
                    }
                    reads += 1;
                }
                (reads, hits)
            }));
        }

        // Writer: in-place updates with a published floor, plus
        // delete/re-insert churn that exercises RID reuse.
        let writer = {
            let table = Arc::clone(&table);
            let floors = Arc::clone(&floors);
            let done = Arc::clone(&done);
            s.spawn(move || {
                let mut versions = vec![0u64; UPDATE_KEYS as usize];
                let mut x = 7u64;
                for round in 0..WRITER_ROUNDS {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let k = x % UPDATE_KEYS;
                    versions[k as usize] += 1;
                    let v = versions[k as usize];
                    assert!(table
                        .index("pk")
                        .unwrap()
                        .update(&k.to_be_bytes(), &tuple(k, v))
                        .unwrap());
                    // Publish only after the update (heap write + index
                    // invalidation) has completed: from here on, readers
                    // must never see an older version.
                    floors[k as usize].store(v, Ordering::Release);

                    if round % 5 == 0 {
                        let ck = UPDATE_KEYS + (x >> 8) % CHURN_KEYS;
                        assert!(table.index("pk").unwrap().delete(&ck.to_be_bytes()).unwrap());
                        table.insert(&tuple(ck, round)).unwrap();
                    }
                }
                done.store(true, Ordering::Release);
            })
        };

        writer.join().unwrap();
        let mut total_reads = 0u64;
        let mut total_hits = 0u64;
        for r in readers {
            let (reads, hits) = r.join().unwrap();
            total_reads += reads;
            total_hits += hits;
        }
        assert!(total_reads > 0, "readers must have run");
        // Not a correctness property, but if the cache never answered a
        // single read the test lost its point — flag it loudly.
        assert!(total_hits > 0, "no index-only answers across {total_reads} racing reads");
    });

    // Quiesced verification: every key's projection must match its heap
    // tuple, both on the populate path and the subsequent cache hit.
    for k in 0..UPDATE_KEYS + CHURN_KEYS {
        let heap_tuple = table.index("pk").unwrap().get(&k.to_be_bytes()).unwrap().unwrap();
        let expect = &heap_tuple[8..16];
        for pass in 0..2 {
            let p = table.index("pk").unwrap().project(&k.to_be_bytes()).unwrap().unwrap();
            assert_eq!(p.payload, expect, "key {k} pass {pass}: projection disagrees with heap");
        }
    }
}

#[test]
fn readers_vs_writer_no_lost_invalidations() {
    // Everything resident: isolates the cache-invalidation protocol.
    run_stress(8, 256, 256);
}

#[test]
fn readers_vs_writer_under_memory_pressure() {
    // Tiny pools: frames churn, so cache writes race evictions too.
    run_stress(2, 32, 32);
}

// ---------------------------------------------------------------------
// Multi-writer: N batched writers on disjoint key ranges vs readers
// ---------------------------------------------------------------------

/// Multi-writer stress over the batched write path. Each writer owns a
/// disjoint key range and rounds through `put_many` (upsert) version
/// bumps, `delete_many`/re-insert churn on the upper half of its
/// range, and `get_many` read-backs — so leaf frame latches, escalated
/// splits, and the grouped heap appends all contend across threads.
/// Readers race `get_many`/`project` over every range,
/// asserting (a) any observed tuple belongs to the key that was asked
/// for and (b) stable keys never read older than the writer's
/// published floor (a violation means a lost invalidation or a torn
/// batched write).
#[test]
fn disjoint_range_batch_writers_vs_readers() {
    const WRITERS: u64 = 4;
    const RANGE: u64 = 256;
    /// Keys below this offset within a range are never deleted, so
    /// readers can assert version floors on them.
    const STABLE: u64 = 128;
    const ROUNDS: u64 = 40;
    const READER_THREADS: usize = 3;

    let db = Database::open(DbConfig {
        page_size: 4096,
        heap_frames: 512,
        index_frames: 512,
        pool_shards: 8,
        ..DbConfig::default()
    });
    let table = db.create_table("t", 24).unwrap();
    table
        .create_index(IndexSpec::cached("pk", FieldSpec::new(0, 8), vec![FieldSpec::new(8, 8)]))
        .unwrap();
    // Seed every range at version 0 in one batch per writer.
    for w in 0..WRITERS {
        let base = w * RANGE;
        let tuples: Vec<Vec<u8>> = (base..base + RANGE).map(|key| tuple(key, 0)).collect();
        table.insert_many(&tuples).unwrap();
    }

    let floors: Arc<Vec<AtomicU64>> =
        Arc::new((0..WRITERS * RANGE).map(|_| AtomicU64::new(0)).collect());
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        let mut readers = Vec::new();
        for ti in 0..READER_THREADS {
            let table = Arc::clone(&table);
            let floors = Arc::clone(&floors);
            let done = Arc::clone(&done);
            readers.push(s.spawn(move || {
                let mut x = 0xA5A5_5A5Au64.wrapping_add(ti as u64);
                let mut reads = 0u64;
                while !done.load(Ordering::Acquire) {
                    // A batch of keys spanning every writer's range.
                    let mut keys = Vec::with_capacity(16);
                    let mut floor_snapshot = Vec::with_capacity(16);
                    for _ in 0..16 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        let key = x % (WRITERS * RANGE);
                        floor_snapshot.push((key, floors[key as usize].load(Ordering::Acquire)));
                        keys.push(key.to_be_bytes());
                    }
                    let pk = table.index("pk").unwrap();
                    let got = pk.get_many(&keys).unwrap();
                    for (i, t) in got.iter().enumerate() {
                        let (key, floor) = floor_snapshot[i];
                        let stable = key % RANGE < STABLE;
                        let Some(t) = t else {
                            assert!(!stable, "stable key {key} vanished");
                            continue;
                        };
                        let (tag, version) = decode(&t[8..16]);
                        assert_eq!(tag, key, "get_many returned another key's tuple");
                        if stable {
                            assert!(
                                version >= floor,
                                "stale read: key {key} version {version} after floor {floor}"
                            );
                        }
                    }
                    // Exercise the §2.1 cache path too: a stale
                    // index-only answer here means a batched write lost
                    // an invalidation.
                    let (key, floor) = floor_snapshot[0];
                    if key % RANGE < STABLE {
                        let p = pk.project(&key.to_be_bytes()).unwrap().expect("stable key");
                        let (tag, version) = decode(&p.payload);
                        assert_eq!(tag, key, "projection returned another key's bytes");
                        assert!(
                            version >= floor,
                            "lost invalidation: key {key} projected version {version} \
                             after floor {floor} (index_only={})",
                            p.index_only
                        );
                    }
                    reads += 1;
                }
                reads
            }));
        }

        let mut writers = Vec::new();
        for w in 0..WRITERS {
            let table = Arc::clone(&table);
            let floors = Arc::clone(&floors);
            writers.push(s.spawn(move || {
                let base = w * RANGE;
                let pk = table.index("pk").unwrap();
                for round in 1..=ROUNDS {
                    // Upsert the stable half at the new version, then
                    // publish the floors (readers from here on must not
                    // see anything older).
                    let tuples: Vec<Vec<u8>> =
                        (base..base + STABLE).map(|key| tuple(key, round)).collect();
                    pk.put_many(&tuples).unwrap();
                    for key in base..base + STABLE {
                        floors[key as usize].store(round, Ordering::Release);
                    }
                    // Churn the volatile half: batch-delete, then
                    // re-insert — RID recycling races the readers.
                    let doomed: Vec<[u8; 8]> =
                        (base + STABLE..base + RANGE).map(|key| key.to_be_bytes()).collect();
                    let removed = pk.delete_many(&doomed).unwrap();
                    assert!(removed.iter().all(|&b| b), "own range: deletes cannot miss");
                    let reborn: Vec<Vec<u8>> =
                        (base + STABLE..base + RANGE).map(|key| tuple(key, round)).collect();
                    table.insert_many(&reborn).unwrap();
                    // Read-back through the batched path.
                    let keys: Vec<[u8; 8]> =
                        (base..base + RANGE).map(|key| key.to_be_bytes()).collect();
                    for (i, t) in pk.get_many(&keys).unwrap().into_iter().enumerate() {
                        let t = t.expect("own range: key must exist");
                        let (tag, version) = decode(&t[8..16]);
                        assert_eq!(tag, base + i as u64);
                        assert_eq!(version, round, "own write must be visible");
                    }
                }
            }));
        }
        for wtr in writers {
            wtr.join().unwrap();
        }
        done.store(true, Ordering::Release);
        let mut total_reads = 0u64;
        for r in readers {
            total_reads += r.join().unwrap();
        }
        assert!(total_reads > 0, "readers must have run");
    });

    // Quiesced: every key at its final version, indexes consistent.
    let pk = table.index("pk").unwrap();
    let keys: Vec<[u8; 8]> = (0..WRITERS * RANGE).map(|key| key.to_be_bytes()).collect();
    for (i, t) in pk.get_many(&keys).unwrap().into_iter().enumerate() {
        let t = t.unwrap_or_else(|| panic!("key {i} missing after quiesce"));
        let (tag, version) = decode(&t[8..16]);
        assert_eq!(tag, i as u64);
        assert_eq!(version, ROUNDS);
    }
    pk.tree().check_invariants().unwrap().unwrap();
    let s = table.stats();
    assert!(
        s.write_batches < s.inserts + s.updates + s.deletes,
        "batched writes must amortize: {s:?}"
    );
}

// ---------------------------------------------------------------------
// A paging scan vs an ascending inserter splitting leaves under it
// ---------------------------------------------------------------------

/// Pagers walk the whole index in `.limit(257)` pages (full tuples,
/// projections, and two scanners whose pages coalesce into one group
/// refill), resuming each page past the last key of the one
/// before, while a writer inserts the three keys between every two pre-loaded
/// ones in ascending order — every bulk-loaded leaf splits at some
/// point, some
/// between a refill's batched leaf fault and its walk, some between two
/// pages. Every pass must come out strictly ascending (nothing
/// duplicated) and contain every pre-loaded key (nothing lost); an inserted
/// key may or may not be seen, but one that is seen carries its own
/// tuple.
#[test]
fn paging_scans_lose_and_duplicate_nothing_under_an_ascending_inserter() {
    /// Pre-loaded keys: the multiples of 4 below `4 * LOADED`.
    const LOADED: u64 = 3_000;
    const PAGERS: usize = 3;

    // The index pool holds a fraction of the leaves, so refills fault
    // while the writer splits.
    let db = Database::open(DbConfig {
        page_size: 4096,
        heap_frames: 64,
        index_frames: 16,
        pool_shards: 2,
        ..DbConfig::default()
    });
    let table = db.create_table("t", 24).unwrap();
    let loaded: Vec<Vec<u8>> = (0..LOADED).map(|i| tuple(4 * i, 0)).collect();
    table.insert_many(&loaded).unwrap();
    table
        .create_index(IndexSpec::cached("pk", FieldSpec::new(0, 8), vec![FieldSpec::new(8, 8)]))
        .unwrap();
    let leaves_before = table.index("pk").unwrap().tree().index_stats().unwrap().leaf_pages;

    let done = AtomicBool::new(false);
    let start = std::sync::Barrier::new(PAGERS + 1);
    // One full pass in pages of 257 rows; returns the keys in the
    // order yielded.
    let pass = |projected: bool| -> Vec<u64> {
        let pk = table.index("pk").unwrap();
        let mut seen: Vec<u64> = Vec::new();
        loop {
            let lo = seen.last().map(|k| k.to_be_bytes());
            let bounds = match &lo {
                Some(k) => (std::ops::Bound::Excluded(&k[..]), std::ops::Bound::Unbounded),
                None => (std::ops::Bound::Unbounded, std::ops::Bound::Unbounded),
            };
            let before = seen.len();
            if projected {
                for row in pk.range_projected::<[u8], _>(bounds).limit(257) {
                    let row = row.unwrap();
                    let key = u64::from_be_bytes(row.key[..].try_into().unwrap());
                    assert_eq!(decode(&row.projection.payload), (key, 0), "another key's bytes");
                    seen.push(key);
                }
            } else {
                for row in pk.range::<[u8], _>(bounds).limit(257) {
                    let row = row.unwrap();
                    let key = u64::from_be_bytes(row.key[..].try_into().unwrap());
                    assert_eq!(row.tuple, tuple(key, 0), "another key's tuple");
                    seen.push(key);
                }
            }
            if seen.len() - before < 257 {
                return seen;
            }
        }
    };
    // Two scanners — one over everything, one from the middle — whose
    // pages coalesce: every step refills both as one group
    // (`range_pages`, what a server worker makes of two queued `Range`
    // requests). Returns each scanner's keys.
    const MID: u64 = 2 * LOADED;
    let coalesced_pass = || -> [Vec<u64>; 2] {
        let pk = table.index("pk").unwrap();
        let mut seen: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
        let mut scanning = vec![0usize, 1];
        while !scanning.is_empty() {
            let resume: Vec<[u8; 8]> = scanning
                .iter()
                .map(|&s| seen[s].last().map_or(MID * s as u64, |k| k + 1).to_be_bytes())
                .collect();
            let specs: Vec<nbb::core::query::PageSpec<'_>> = resume
                .iter()
                .map(|k| (std::ops::Bound::Included(&k[..]), std::ops::Bound::Unbounded, 257))
                .collect();
            let pages = pk.range_pages(&specs).unwrap();
            for (s, page) in std::mem::take(&mut scanning).into_iter().zip(&pages) {
                for (key, row) in page.rows() {
                    let key = u64::from_be_bytes(key.try_into().unwrap());
                    assert_eq!(row, tuple(key, 0), "another key's tuple");
                    seen[s].push(key);
                }
                if page.more() {
                    scanning.push(s);
                }
            }
        }
        seen
    };
    let check_from = |seen: &[u64], from: u64| {
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "a pass must be strictly ascending");
        let loaded_seen = seen.iter().filter(|k| *k % 4 == 0).count() as u64;
        assert_eq!(loaded_seen, LOADED - from / 4, "a pre-loaded key went missing across a split");
    };
    let check = |seen: &[u64]| check_from(seen, 0);

    std::thread::scope(|s| {
        let pagers: Vec<_> = (0..PAGERS)
            .map(|i| {
                let (pass, check, done, start) = (&pass, &check, &done, &start);
                let (coalesced_pass, check_from) = (&coalesced_pass, &check_from);
                s.spawn(move || {
                    start.wait();
                    let mut passes = 0;
                    while !done.load(Ordering::Acquire) {
                        if i == 2 {
                            let [whole, half] = coalesced_pass();
                            check(&whole);
                            check_from(&half, MID);
                        } else {
                            check(&pass(i == 1));
                        }
                        passes += 1;
                    }
                    passes
                })
            })
            .collect();
        start.wait();
        for key in (0..4 * LOADED).filter(|k| k % 4 != 0) {
            table.insert(&tuple(key, 0)).unwrap();
        }
        done.store(true, Ordering::Release);
        for pager in pagers {
            assert!(pager.join().unwrap() >= 1, "every pager overlapped the writer");
        }
    });

    let pk = table.index("pk").unwrap();
    assert!(pk.tree().index_stats().unwrap().leaf_pages > leaves_before, "the inserts must split");
    for projected in [false, true] {
        assert_eq!(pass(projected), (0..4 * LOADED).collect::<Vec<u64>>());
    }
    let [whole, half] = coalesced_pass();
    assert_eq!(whole, (0..4 * LOADED).collect::<Vec<u64>>());
    assert_eq!(half, (MID..4 * LOADED).collect::<Vec<u64>>());
    assert!(pk.tree().check_invariants().unwrap().is_ok());
}
