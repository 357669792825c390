//! Range cursors refill by row budget: whatever the budget, the limit
//! or the start, a cursor yields exactly what a `BTreeMap` yields, and
//! a limited cursor reads exactly the pages a row-at-a-time walk reads.
//! Pages refilled as a group equal the pages refilled alone, and read
//! the union of their pages in the device calls of one.

use nbb_btree::RangeBuf;
use nbb_core::db::{Database, DbConfig};
use nbb_core::table::{FieldSpec, IndexSpec, Table};
use nbb_storage::disk::FaultDisk;
use nbb_storage::error::StorageError;
use nbb_storage::{PageId, RecordId};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::sync::Arc;

/// Rows loaded: even keys `0, 2, .. 2 * (ROWS - 1)`, so every odd key
/// lies between two keys.
const ROWS: u64 = 3000;
/// Small pages: ≈ 27 keys per bulk-loaded leaf, > 100 leaves, three
/// levels — a 513-row page spans many leaves and several parents.
const PAGE_SIZE: usize = 1024;

/// 24-byte tuple: key(8, BE) | group(8) | value(8, LE).
fn tuple(key: u64) -> Vec<u8> {
    let mut t = key.to_be_bytes().to_vec();
    t.extend_from_slice(&(key % 7).to_le_bytes());
    t.extend_from_slice(&(key * 3).to_le_bytes());
    t
}

fn config(frames: usize) -> DbConfig {
    config_with(PAGE_SIZE, frames)
}

fn config_with(page_size: usize, frames: usize) -> DbConfig {
    DbConfig { page_size, heap_frames: frames, index_frames: frames, ..DbConfig::default() }
}

/// Loads the table in key order, then bulk-loads `pk` (caching the
/// value field) over it.
fn load(db: &Database) -> Arc<Table> {
    let t = db.create_table("t", 24).unwrap();
    let rows: Vec<Vec<u8>> = (0..ROWS).map(|i| tuple(2 * i)).collect();
    t.insert_many(&rows).unwrap();
    t.create_index(IndexSpec::cached("pk", FieldSpec::new(0, 8), vec![FieldSpec::new(16, 8)]))
        .unwrap();
    t
}

fn oracle() -> BTreeMap<u64, Vec<u8>> {
    (0..ROWS).map(|i| (2 * i, tuple(2 * i))).collect()
}

fn id(key: &[u8]) -> u64 {
    u64::from_be_bytes(key.try_into().unwrap())
}

/// Keys of the first bulk-loaded leaf, which every leaf but the last
/// matches.
fn keys_per_leaf(t: &Table) -> usize {
    let pk = t.index("pk").unwrap();
    let mut buf = RangeBuf::default();
    pk.tree().range_chunk(Bound::Unbounded, Bound::Unbounded, 1, false, &mut buf).unwrap().leaf_keys
}

#[test]
fn cursors_match_a_btreemap_for_every_limit_start_and_bound_kind() {
    let db = Database::open(config(1024));
    let t = load(&db);
    let pk = t.index("pk").unwrap();
    let model = oracle();
    let per_leaf = keys_per_leaf(&t);
    assert!((20..40).contains(&per_leaf), "geometry drifted: {per_leaf} keys per leaf");
    let first_of_second_leaf = 2 * per_leaf as u64;
    let starts = [
        0,                        // first key
        first_of_second_leaf + 8, // mid-leaf
        first_of_second_leaf - 2, // last key of a leaf
        2 * ROWS + 10,            // past the end
        first_of_second_leaf + 9, // between two keys
    ];
    let limits = [1, per_leaf - 1, per_leaf, per_leaf + 1, 513, ROWS as usize + 10];
    let upper = 2 * ROWS - 100; // ends inside the last leaves
    for start in starts {
        for excluded in [false, true] {
            let lo = start.to_be_bytes();
            let hi = upper.to_be_bytes();
            let lower = if excluded { Bound::Excluded(&lo[..]) } else { Bound::Included(&lo[..]) };
            let bounds = (lower, Bound::Excluded(&hi[..]));
            // (`BTreeMap::range` panics on a start past the end.)
            let from = if excluded { Bound::Excluded(start) } else { Bound::Included(start) };
            let want: Vec<(u64, Vec<u8>)> = model
                .range((from, Bound::Unbounded))
                .take_while(|(k, _)| **k < upper)
                .map(|(k, v)| (*k, v.clone()))
                .collect();
            let case = format!("start {start} excluded {excluded}");

            let rows: Vec<_> = pk.range::<[u8], _>(bounds).map(|r| r.unwrap()).collect();
            let got: Vec<(u64, Vec<u8>)> =
                rows.iter().map(|r| (id(&r.key), r.tuple.clone())).collect();
            assert_eq!(got, want, "unlimited range, {case}");
            let projected: Vec<_> =
                pk.range_projected::<[u8], _>(bounds).map(|r| r.unwrap()).collect();
            let got: Vec<(u64, &[u8])> =
                projected.iter().map(|r| (id(&r.key), &r.projection.payload[..])).collect();
            let want_p: Vec<(u64, &[u8])> = want.iter().map(|(k, v)| (*k, &v[16..24])).collect();
            assert_eq!(got, want_p, "unlimited range_projected, {case}");

            for limit in limits {
                let n = limit.min(want.len());
                let rows: Vec<_> =
                    pk.range::<[u8], _>(bounds).limit(limit).map(|r| r.unwrap()).collect();
                let got: Vec<(u64, Vec<u8>)> =
                    rows.iter().map(|r| (id(&r.key), r.tuple.clone())).collect();
                assert_eq!(got, want[..n], "range limit {limit}, {case}");
                for r in &rows {
                    assert_eq!(t.heap().get(r.rid).unwrap(), r.tuple, "rid of {}", id(&r.key));
                }
                let projected: Vec<_> = pk
                    .range_projected::<[u8], _>(bounds)
                    .limit(limit)
                    .map(|r| r.unwrap())
                    .collect();
                let got: Vec<(u64, &[u8])> =
                    projected.iter().map(|r| (id(&r.key), &r.projection.payload[..])).collect();
                assert_eq!(got, want_p[..n], "range_projected limit {limit}, {case}");
            }
        }
    }
}

#[test]
fn a_refill_spanning_leaves_warms_each_leafs_own_cache_and_warm_rows_skip_the_heap() {
    let db = Database::open(config(1024));
    let t = load(&db);
    let pk = t.index("pk").unwrap();
    let per_leaf = keys_per_leaf(&t);

    // Cold: one refill buffers 513 rows from ≈ 19 leaves, chases them
    // all, and must populate each row into the leaf it came from.
    let before = t.stats();
    let cold: Vec<_> = pk.range_projected_all().limit(513).map(|r| r.unwrap()).collect();
    assert_eq!(cold.len(), 513);
    assert!(cold.iter().all(|r| !r.projection.index_only));
    let after = t.stats();
    assert_eq!(after.heap_fetches - before.heap_fetches, 513, "one chase per cold row");
    assert_eq!(after.index_only_answers, before.index_only_answers);

    // Warm: a row is index-only only if its payload sits in the cache
    // of the leaf that owns its key, so rows past the first leaf prove
    // the populate went to the right leaf.
    let warm: Vec<_> = pk.range_projected_all().limit(513).map(|r| r.unwrap()).collect();
    let payloads = |rows: &[nbb_core::ProjectedRow]| -> Vec<Vec<u8>> {
        rows.iter().map(|r| r.projection.payload.clone()).collect()
    };
    assert_eq!(payloads(&warm), payloads(&cold));
    let later = &warm[per_leaf..];
    let served = later.iter().filter(|r| r.projection.index_only).count();
    assert!(served * 2 > later.len(), "only {served}/{} rows past leaf one are warm", later.len());

    // Index-only rows add no heap fetch; the cold remainder adds one each.
    let end = t.stats();
    let index_only = warm.iter().filter(|r| r.projection.index_only).count() as u64;
    assert_eq!(end.index_only_answers - after.index_only_answers, index_only);
    assert_eq!(end.heap_fetches - after.heap_fetches, 513 - index_only);

    // The full-tuple cursor chases every row, warm or not.
    assert_eq!(pk.range_all().limit(513).count(), 513);
    assert_eq!(t.stats().heap_fetches - end.heap_fetches, 513);
}

/// Drains `disk`'s read log: (device calls, distinct pages read). A
/// [`FaultDisk`] can also fail every call that touches one page, until
/// told to stop: a page that fails once inside a batch is absorbed by
/// the pool's per-page retry and never reaches the cursor.
fn take(disk: &FaultDisk) -> (usize, BTreeSet<u64>) {
    let (calls, _, pages) = take_counted(disk);
    (calls, pages)
}

/// Drains `disk`'s read log: (device calls, page reads, distinct pages
/// read).
fn take_counted(disk: &FaultDisk) -> (usize, usize, BTreeSet<u64>) {
    let calls = disk.take_read_log();
    let reads = calls.iter().map(Vec::len).sum();
    (calls.len(), reads, calls.iter().flatten().map(|p| p.0).collect())
}

/// A loaded, persisted database over two logging disks, plus a way to
/// reopen it with cold pools of `frames` frames each.
struct Persisted {
    page_size: usize,
    heap: Arc<FaultDisk>,
    index: Arc<FaultDisk>,
}

impl Persisted {
    fn new() -> Self {
        Self::with_page_size(PAGE_SIZE)
    }

    fn with_page_size(page_size: usize) -> Self {
        Self::loaded(page_size, |_| {})
    }

    /// Loads the table, lets `edit` change it, then closes it.
    fn loaded(page_size: usize, edit: impl FnOnce(&Table)) -> Self {
        let (heap, index) =
            (Arc::new(FaultDisk::new(page_size)), Arc::new(FaultDisk::new(page_size)));
        let cfg = config_with(page_size, 1024);
        let db = Database::with_disks(cfg, heap.clone(), index.clone()).unwrap();
        edit(&load(&db));
        db.close().unwrap();
        Persisted { page_size, heap, index }
    }

    /// Reopens, empties both pools (reattaching walks the leaves and
    /// the heap) and forgets the reads made so far.
    fn reopen(&self, frames: usize) -> Database {
        let cfg = config_with(self.page_size, frames);
        let db = Database::reopen(cfg, self.heap.clone(), self.index.clone()).unwrap();
        for pool in [db.heap_pool(), db.index_pool()] {
            for page in 0..pool.disk().num_pages() {
                pool.evict_page(PageId(page)).unwrap();
            }
        }
        take(&self.heap);
        take(&self.index);
        db
    }
}

/// Reads `limit` rows from `start` on cold pools twice — first one
/// leaf per `range_chunk` and one `heap.get` per row, then as one
/// limited cursor — and asserts the cursor read exactly the walk's
/// pages, its heap pages in one call. Returns the walk's (index, heap)
/// page counts and the cursor's index calls.
fn cursor_against_walk(disks: &Persisted, start: u64, limit: usize) -> (usize, usize, usize) {
    let start = start.to_be_bytes();
    let case = format!("{limit} rows from {}", id(&start));

    let db = disks.reopen(1024);
    let t = db.table("t").unwrap();
    let tree_of = t.index("pk").unwrap();
    let mut lower = Bound::Included(start.to_vec());
    let mut walked = 0;
    while walked < limit {
        let lb = match &lower {
            Bound::Included(k) => Bound::Included(&k[..]),
            Bound::Excluded(k) => Bound::Excluded(&k[..]),
            Bound::Unbounded => unreachable!(),
        };
        let mut buf = RangeBuf::default();
        tree_of.tree().range_chunk(lb, Bound::Unbounded, limit - walked, false, &mut buf).unwrap();
        for value in &buf.values {
            t.heap().get(RecordId::from_u64(*value)).unwrap();
            walked += 1;
        }
        lower = Bound::Excluded(buf.keys.chunks_exact(8).last().unwrap().to_vec());
    }
    let (walk_index_calls, walk_index) = take(&disks.index);
    let (walk_heap_calls, walk_heap) = take(&disks.heap);
    assert_eq!(walk_index_calls, walk_index.len(), "the walk reads one page per call, {case}");
    assert_eq!(walk_heap_calls, walk_heap.len(), "the walk reads one page per call, {case}");
    drop(tree_of);
    drop((t, db));

    let db = disks.reopen(1024);
    let t = db.table("t").unwrap();
    let rows: Vec<_> =
        t.index("pk").unwrap().range(&start[..]..).limit(limit).map(|r| r.unwrap()).collect();
    assert_eq!(rows.len(), limit, "{case}");
    let (index_calls, index) = take(&disks.index);
    let (heap_calls, heap) = take(&disks.heap);
    assert_eq!(index, walk_index, "index pages read, {case}");
    assert_eq!(heap, walk_heap, "heap pages read, {case}");
    assert_eq!(heap_calls, 1, "{} heap pages, {case}", heap.len());
    (walk_index.len(), walk_heap.len(), index_calls)
}

#[test]
fn a_limited_cursor_reads_exactly_the_pages_a_row_at_a_time_walk_reads() {
    let disks = Persisted::new();
    // Enter the first leaf three keys before its end: a batch sized
    // from those three in-range keys would fault ≈ 170 leaves ahead.
    let per_leaf = {
        let db = disks.reopen(1024);
        keys_per_leaf(&db.table("t").unwrap()) as u64
    };
    let (walk_index, walk_heap, index_calls) =
        cursor_against_walk(&disks, 2 * (5 * per_leaf - 3), 513);
    assert!(
        walk_index >= 20 && walk_heap >= 10,
        "the page must span many pages: {walk_index} index, {walk_heap} heap"
    );
    // Same pages, far fewer round trips: root, level-1 node, first
    // leaf, then every other leaf as one batch (the page stays under
    // one level-1 parent) — against one call per page.
    assert!(index_calls <= 4, "{index_calls} index calls for {walk_index} pages");

    // A leaf thinned by deletes to its last key (leaves never merge):
    // its one key must not size the next batch, or it names every
    // remaining child of its level-1 parent.
    let sparse = Persisted::loaded(PAGE_SIZE, |t| {
        let doomed: Vec<[u8; 8]> =
            (5 * per_leaf..6 * per_leaf - 1).map(|i| (2 * i).to_be_bytes()).collect();
        assert!(t.index("pk").unwrap().delete_many(&doomed).unwrap().iter().all(|&d| d));
    });
    let survivor = 2 * (6 * per_leaf - 1);
    {
        let db = sparse.reopen(1024);
        let t = db.table("t").unwrap();
        let tree_of = t.index("pk").unwrap();
        let lower = survivor.to_be_bytes();
        let mut buf = RangeBuf::default();
        let chunk = tree_of
            .tree()
            .range_chunk(Bound::Included(&lower[..]), Bound::Unbounded, 1, false, &mut buf)
            .unwrap();
        assert_eq!((chunk.leaf_keys, id(&buf.keys)), (1, survivor), "premise: a one-key leaf");
    }
    for limit in [60, 100, 513] {
        let (walk_index, _, index_calls) = cursor_against_walk(&sparse, survivor, limit);
        assert!(index_calls <= 4, "{index_calls} index calls for {walk_index} pages");
    }
}

#[test]
fn a_failed_page_fails_the_cursor_once_and_a_fresh_cursor_succeeds() {
    let disks = Persisted::new();
    let db = disks.reopen(1024);
    let t = db.table("t").unwrap();
    let pk = t.index("pk").unwrap();
    let want: Vec<u64> = (0..513).map(|i| 2 * i).collect();

    // A heap page in the middle of the page's rows: the batch fails.
    let victim = pk.tree().get(&400u64.to_be_bytes()).unwrap().unwrap();
    disks.heap.fail_reads_of(Some(RecordId::from_u64(victim).page));
    let mut cursor = pk.range_all().limit(513);
    assert!(matches!(cursor.next(), Some(Err(StorageError::Io(_)))), "the refill's error surfaces");
    assert!(cursor.next().is_none(), "a failed cursor stays ended");
    disks.heap.fail_reads_of(None);
    let got: Vec<u64> = pk.range_all().limit(513).map(|r| id(&r.unwrap().key)).collect();
    assert_eq!(got, want, "nothing was poisoned: a fresh cursor reads the same pages");

    // A leaf among those faulted ahead in one batch.
    let db = disks.reopen(1024);
    let t = db.table("t").unwrap();
    let pk = t.index("pk").unwrap();
    let per_leaf = keys_per_leaf(&t) as u64;
    let ahead = pk.tree().leaves_after(&0u64.to_be_bytes(), Bound::Unbounded, 3).unwrap();
    assert_eq!(ahead.len(), 3);
    db.index_pool().evict_page(ahead[1]).unwrap();
    disks.index.fail_reads_of(Some(ahead[1]));
    let mut cursor = pk.range_projected_all().limit(513);
    assert!(matches!(cursor.next(), Some(Err(StorageError::Io(_)))));
    assert!(cursor.next().is_none());
    disks.index.fail_reads_of(None);
    let got: Vec<u64> = pk.range_projected_all().limit(513).map(|r| id(&r.unwrap().key)).collect();
    assert_eq!(got, want);
    assert!(per_leaf * 3 < 513, "the failed leaf was inside the page");
}

#[test]
fn a_hostile_limit_pages_through_the_table_in_bounded_refills() {
    let db = Database::open(config(1024));
    let t = load(&db);
    let pk = t.index("pk").unwrap();
    // What a refill chases is what it buffers: no single `next` may
    // chase more than the clamp, whatever the limit says.
    let cursor = pk.range_all().limit(u32::MAX as usize);
    let (mut seen, mut refills) = (0u64, 0);
    let mut chased = t.stats().heap_fetches;
    for row in cursor {
        assert_eq!(id(&row.unwrap().key), 2 * seen);
        seen += 1;
        let now = t.stats().heap_fetches;
        assert!(now - chased <= 1024, "one refill buffered {} rows", now - chased);
        refills += usize::from(now > chased);
        chased = now;
    }
    assert_eq!(seen, ROWS);
    assert_eq!(refills, 3, "3000 rows in refills of 1024, 1024 and 952");
}

/// `(start key, exclusive end key, limit)`; `u64::MAX` = unbounded end.
type Spec = (u64, u64, usize);

/// What the oracle says a page of `spec` holds: rows and `more`.
fn oracle_page(model: &BTreeMap<u64, Vec<u8>>, (lo, hi, limit): Spec) -> (Vec<u64>, bool) {
    let in_range: Vec<u64> = model.keys().copied().filter(|k| (lo..hi).contains(k)).collect();
    (in_range[..limit.min(in_range.len())].to_vec(), in_range.len() > limit)
}

/// Runs `group` through the group-refill entry point; per page the keys,
/// bodies and index-only flags, plus `more`.
#[allow(clippy::type_complexity)]
fn pages_of(
    t: &Table,
    group: &[Spec],
    projected: bool,
) -> Vec<(Vec<u64>, Vec<Vec<u8>>, Vec<bool>, bool)> {
    let pk = t.index("pk").unwrap();
    let bytes: Vec<([u8; 8], [u8; 8])> =
        group.iter().map(|s| (s.0.to_be_bytes(), s.1.to_be_bytes())).collect();
    let specs: Vec<nbb_core::query::PageSpec<'_>> = group
        .iter()
        .zip(&bytes)
        .map(|(&(_, hi, limit), (lo, hi_bytes))| {
            let upper =
                if hi == u64::MAX { Bound::Unbounded } else { Bound::Excluded(&hi_bytes[..]) };
            (Bound::Included(&lo[..]), upper, limit)
        })
        .collect();
    let pages =
        if projected { pk.range_projected_pages(&specs) } else { pk.range_pages(&specs) }.unwrap();
    assert_eq!(pages.len(), group.len());
    pages
        .iter()
        .map(|page| {
            let (keys, bodies) = page.rows().map(|(k, b)| (id(k), b.to_vec())).unzip();
            let flags = (0..page.rows().len()).map(|i| projected && page.index_only(i)).collect();
            (keys, bodies, flags, page.more())
        })
        .collect()
}

#[test]
fn pages_refilled_as_a_group_equal_the_oracle_and_the_same_pages_alone() {
    let db = Database::open(config(1024));
    let t = load(&db);
    let model = oracle();
    let per_leaf = keys_per_leaf(&t) as u64;
    let pool: [Spec; 7] = [
        (100, u64::MAX, 60),                            // a short page
        (4000, u64::MAX, 513),                          // disjoint from it
        (100 + 2 * per_leaf, u64::MAX, 100),            // overlapping it
        (100, u64::MAX, 60),                            // identical to it
        (51, 52, 10),                                   // empty: between two keys
        (2 * ROWS + 10, u64::MAX, 10),                  // past the end
        (2 * (ROWS - 40), u64::MAX, 2 * ROWS as usize), // limit > table, runs off the end
    ];
    let whole_table: Spec = (0, u64::MAX, ROWS as usize + 10); // several refills
    let mut groups: Vec<Vec<Spec>> = Vec::new();
    for mask in 1u32..1 << pool.len() {
        if mask.count_ones() <= 4 {
            groups.push((0..pool.len()).filter(|i| mask >> i & 1 == 1).map(|i| pool[i]).collect());
        }
    }
    groups.extend([vec![whole_table], vec![pool[0], whole_table, pool[1]]]);
    for projected in [false, true] {
        for group in &groups {
            let pages = pages_of(&t, group, projected);
            for (spec, (keys, bodies, _, more)) in group.iter().zip(&pages) {
                let case = format!("spec {spec:?} in {group:?}, projected {projected}");
                let (want_keys, want_more) = oracle_page(&model, *spec);
                assert_eq!((keys, more), (&want_keys, &want_more), "{case}");
                for (key, body) in keys.iter().zip(bodies) {
                    let tuple = &model[key];
                    assert_eq!(body, if projected { &tuple[16..24] } else { &tuple[..] }, "{case}");
                }
                let alone = pages_of(&t, &[*spec], projected).remove(0);
                assert_eq!((&alone.0, &alone.1, alone.3), (keys, bodies, *more), "alone, {case}");
            }
        }
    }
}

#[test]
fn grouped_projected_pages_warm_each_rows_own_leaf_and_then_answer_index_only() {
    let db = Database::open(config(1024));
    let t = load(&db);
    let per_leaf = keys_per_leaf(&t);
    let group: [Spec; 2] = [(0, u64::MAX, 300), (3000, u64::MAX, 300)];

    // Cold: every row of both pages is chased, in one merged heap read,
    // and populates the cache of the leaf it came from.
    let before = t.stats();
    let cold = pages_of(&t, &group, true);
    assert!(cold.iter().all(|(_, _, index_only, _)| index_only.iter().all(|f| !f)));
    let after = t.stats();
    // 301 rows per page: the `more` probe row is chased with the rest.
    assert_eq!(after.heap_fetches - before.heap_fetches, 2 * 301);
    assert_eq!(after.index_only_answers, before.index_only_answers);

    // Warm: rows past each page's first leaf are index-only only if
    // their payload sits in their own leaf's cache; those rows stay
    // index-only in a group (no heap fetch), the rest are chased.
    let warm = pages_of(&t, &group, true);
    let mut served = 0;
    for ((_, bodies, index_only, _), (_, cold_bodies, ..)) in warm.iter().zip(&cold) {
        assert_eq!(bodies, cold_bodies);
        let later = &index_only[per_leaf..];
        let hits = later.iter().filter(|f| **f).count();
        assert!(hits * 2 > later.len(), "only {hits}/{} rows past leaf one are warm", later.len());
        served += index_only.iter().filter(|f| **f).count() as u64;
    }
    let end = t.stats();
    assert_eq!(end.index_only_answers - after.index_only_answers, served);
    // The probe rows past each page may be cached too: they are not
    // chased, and not counted as answers either.
    let chased = end.heap_fetches - after.heap_fetches;
    assert!((2 * 301 - served - 2..=2 * 301 - served).contains(&chased), "{chased} chased");
}

#[test]
fn a_full_tuple_scan_over_a_cached_index_stays_off_the_leaf_cache() {
    let db = Database::open(config(1024));
    let t = load(&db);
    let pk = t.index("pk").unwrap();
    // Warm some of the cache, so there would be something to hit.
    assert_eq!(pk.range_projected_all().limit(200).count(), 200);
    let before = pk.tree().cache_stats();
    assert_eq!(pk.range_all().limit(513).count(), 513);
    assert_eq!(pages_of(&t, &[(0, u64::MAX, 513)], false)[0].0.len(), 513);
    assert_eq!(pk.tree().cache_stats(), before, "every row is chased anyway: no probe, no counter");
    assert_eq!(pk.range_projected_all().limit(10).count(), 10);
    assert_eq!(pk.tree().cache_stats().lookups - before.lookups, 10, "projections still probe");
}

#[test]
fn a_group_of_two_pages_reads_the_union_of_their_pages_in_the_calls_of_one() {
    // 4 KiB pages: the 3,000-key index is a root over ≈ 27 leaves, so a
    // cold 513-row page is root, first leaf, every other leaf as one
    // batch — 3 index calls — and one heap batch.
    let disks = Persisted::with_page_size(4096);
    let (first, second): (Spec, Spec) = ((2 * 310, u64::MAX, 512), (2 * 700, u64::MAX, 512));
    let mut solo: Vec<(BTreeSet<u64>, BTreeSet<u64>)> = Vec::new();
    for spec in [first, second] {
        let db = disks.reopen(1024);
        assert_eq!(pages_of(&db.table("t").unwrap(), &[spec], false)[0].0.len(), 512);
        let ((index_calls, index), (heap_calls, heap)) = (take(&disks.index), take(&disks.heap));
        assert!(index_calls <= 3 && heap_calls <= 2, "alone: {index_calls} + {heap_calls} calls");
        solo.push((index, heap));
    }
    let shared: Vec<_> = solo[0].0.intersection(&solo[1].0).collect();
    assert!(shared.len() >= 2, "premise: the pages overlap beyond the root, share {shared:?}");
    assert!(solo[0].1.intersection(&solo[1].1).count() >= 1, "premise: heap pages overlap too");

    let db = disks.reopen(1024);
    let pages = pages_of(&db.table("t").unwrap(), &[first, second], false);
    assert_eq!((pages[0].0.len(), pages[1].0.len()), (512, 512));
    let (index_calls, index_reads, index) = take_counted(&disks.index);
    let (heap_calls, heap_reads, heap) = take_counted(&disks.heap);
    assert_eq!(index, &solo[0].0 | &solo[1].0, "index pages: exactly the union");
    assert_eq!(heap, &solo[0].1 | &solo[1].1, "heap pages: exactly the union");
    assert_eq!((index_reads, heap_reads), (index.len(), heap.len()), "a shared page is read once");
    assert!(index_calls <= 3, "{index_calls} index calls for {} pages", index.len());
    assert!(heap_calls <= 2, "{heap_calls} heap calls for {} pages", heap.len());
}
