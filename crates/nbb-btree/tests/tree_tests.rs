//! Integration tests for the B+Tree: structure, scans, bulk load, and
//! the full §2.1 index-cache protocol.

use nbb_btree::{BTree, BTreeOptions, CacheConfig};
use nbb_storage::{BufferPool, DiskManager, InMemoryDisk, PageId};
use std::sync::Arc;

fn pool_with(page_size: usize, frames: usize) -> Arc<BufferPool> {
    let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(page_size));
    Arc::new(BufferPool::new(disk, frames))
}

fn pool() -> Arc<BufferPool> {
    pool_with(4096, 256)
}

fn k(v: u64) -> [u8; 8] {
    v.to_be_bytes()
}

/// Evicts every page of `tree`'s pool, so each leaf is read back from
/// the device on its next access: the reload a restart or memory
/// pressure brings.
fn evict_all(tree: &BTree) {
    let pool = tree.pool();
    for id in 0..pool.disk().num_pages() {
        pool.evict_page(PageId(id)).unwrap();
    }
}

fn cached_opts(payload: usize) -> BTreeOptions {
    BTreeOptions { cache: Some(CacheConfig { payload_size: payload }) }
}

// ---------------------------------------------------------------------
// Structure
// ---------------------------------------------------------------------

#[test]
fn insert_search_thousands_with_splits() {
    let tree = BTree::create(pool(), 8, BTreeOptions::default()).unwrap();
    let n = 5000u64;
    // Insert in a scrambled order to exercise mid-node inserts.
    let mut order: Vec<u64> = (0..n).collect();
    let mut x = 0xDEADBEEFu64;
    for i in (1..order.len()).rev() {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }
    for v in &order {
        tree.insert(&k(*v), v * 3).unwrap();
    }
    assert!(tree.height().unwrap() >= 2, "5000 keys must split the root");
    tree.check_invariants().unwrap().unwrap();
    for v in 0..n {
        assert_eq!(tree.get(&k(v)).unwrap(), Some(v * 3), "key {v}");
    }
    assert_eq!(tree.get(&k(n + 1)).unwrap(), None);
    assert_eq!(tree.len().unwrap(), n as usize);
}

#[test]
fn overwrite_returns_old_value() {
    let tree = BTree::create(pool(), 8, BTreeOptions::default()).unwrap();
    assert_eq!(tree.insert(&k(1), 10).unwrap(), None);
    assert_eq!(tree.insert(&k(1), 20).unwrap(), Some(10));
    assert_eq!(tree.get(&k(1)).unwrap(), Some(20));
    assert_eq!(tree.len().unwrap(), 1);
}

#[test]
fn delete_then_reinsert() {
    let tree = BTree::create(pool(), 8, BTreeOptions::default()).unwrap();
    for v in 0..1000 {
        tree.insert(&k(v), v).unwrap();
    }
    for v in (0..1000).step_by(3) {
        assert_eq!(tree.delete(&k(v)).unwrap(), Some(v), "delete {v}");
    }
    for v in 0..1000 {
        let expect = if v % 3 == 0 { None } else { Some(v) };
        assert_eq!(tree.get(&k(v)).unwrap(), expect, "get {v}");
    }
    for v in (0..1000).step_by(3) {
        tree.insert(&k(v), v + 7).unwrap();
    }
    for v in (0..1000).step_by(3) {
        assert_eq!(tree.get(&k(v)).unwrap(), Some(v + 7));
    }
    tree.check_invariants().unwrap().unwrap();
}

#[test]
fn scan_from_walks_in_order_across_leaves() {
    let tree = BTree::create(pool(), 8, BTreeOptions::default()).unwrap();
    for v in (0..2000u64).rev() {
        tree.insert(&k(v), v).unwrap();
    }
    let mut seen = Vec::new();
    tree.scan_from(&k(500), |key, value| {
        seen.push((key.to_vec(), value));
        seen.len() < 100
    })
    .unwrap();
    assert_eq!(seen.len(), 100);
    for (i, (key, value)) in seen.iter().enumerate() {
        assert_eq!(key.as_slice(), &k(500 + i as u64));
        assert_eq!(*value, 500 + i as u64);
    }
}

#[test]
fn scan_to_end_visits_everything() {
    let tree = BTree::create(pool(), 8, BTreeOptions::default()).unwrap();
    for v in 0..777u64 {
        tree.insert(&k(v), v).unwrap();
    }
    let mut count = 0u64;
    tree.scan_from(&k(0), |key, _| {
        assert_eq!(key, &k(count)[..]);
        count += 1;
        true
    })
    .unwrap();
    assert_eq!(count, 777);
}

#[test]
fn bulk_load_equivalent_to_inserts() {
    let entries: Vec<(Vec<u8>, u64)> = (0..3000u64).map(|v| (k(v).to_vec(), v * 2)).collect();
    let tree = BTree::bulk_load(pool(), 8, BTreeOptions::default(), entries, 0.68).unwrap();
    tree.check_invariants().unwrap().unwrap();
    assert_eq!(tree.len().unwrap(), 3000);
    for v in (0..3000u64).step_by(97) {
        assert_eq!(tree.get(&k(v)).unwrap(), Some(v * 2));
    }
    // Mean fill factor should be near the requested 68%.
    let stats = tree.index_stats().unwrap();
    let fill = stats.avg_fill();
    assert!((0.55..0.80).contains(&fill), "fill {fill}");
}

#[test]
fn bulk_load_full_fill_leaves_no_cache_room() {
    let entries: Vec<(Vec<u8>, u64)> = (0..2000u64).map(|v| (k(v).to_vec(), v)).collect();
    let tree = BTree::bulk_load(pool(), 8, cached_opts(16), entries, 1.0).unwrap();
    let stats = tree.index_stats().unwrap();
    // 100% fill: nearly zero free bytes per leaf (the paper's compacted
    // read-only configuration).
    let per_leaf = stats.free_bytes as f64 / stats.leaf_pages as f64;
    assert!(per_leaf < 64.0, "full leaves should have ~no free space, got {per_leaf}");
    assert!(tree.index_stats().unwrap().cache_slots <= stats.leaf_pages * 2);
}

#[test]
fn bulk_load_45_percent_fill_has_big_caches() {
    // The CarTel observation: churned indexes run at 45% fill — which
    // means *more* cache capacity.
    let entries: Vec<(Vec<u8>, u64)> = (0..2000u64).map(|v| (k(v).to_vec(), v)).collect();
    let t45 = BTree::bulk_load(pool(), 8, cached_opts(16), entries.clone(), 0.45).unwrap();
    let t90 = BTree::bulk_load(pool(), 8, cached_opts(16), entries, 0.90).unwrap();
    let s45 = t45.index_stats().unwrap();
    let s90 = t90.index_stats().unwrap();
    assert!(
        s45.cache_slots > s90.cache_slots,
        "45% fill must expose more cache slots ({} vs {})",
        s45.cache_slots,
        s90.cache_slots
    );
}

#[test]
fn bulk_load_empty_and_single() {
    let tree =
        BTree::bulk_load(pool(), 8, BTreeOptions::default(), Vec::<(Vec<u8>, u64)>::new(), 0.68)
            .unwrap();
    assert!(tree.is_empty().unwrap());
    let tree =
        BTree::bulk_load(pool(), 8, BTreeOptions::default(), vec![(k(9).to_vec(), 99u64)], 0.68)
            .unwrap();
    assert_eq!(tree.get(&k(9)).unwrap(), Some(99));
}

#[test]
#[should_panic(expected = "fill must be in (0, 1]")]
fn bulk_load_refuses_zero_fill() {
    // A zero fill would be clamped to one key a leaf.
    let entries = (0..10u64).map(|v| (k(v).to_vec(), v));
    let _ = BTree::bulk_load(pool(), 8, BTreeOptions::default(), entries, 0.0);
}

#[test]
fn wrong_key_width_is_an_error() {
    let tree = BTree::create(pool(), 8, BTreeOptions::default()).unwrap();
    assert!(tree.get(b"short").is_err());
    assert!(tree.insert(b"toolongtoolong", 1).is_err());
    assert!(tree.delete(b"x").is_err());
}

#[test]
fn works_under_memory_pressure() {
    // Buffer pool far smaller than the index: every descent faults pages.
    let pool = pool_with(4096, 4);
    let tree = BTree::create(pool, 8, BTreeOptions::default()).unwrap();
    for v in 0..3000u64 {
        tree.insert(&k(v), v).unwrap();
    }
    for v in (0..3000u64).step_by(61) {
        assert_eq!(tree.get(&k(v)).unwrap(), Some(v));
    }
    tree.check_invariants().unwrap().unwrap();
}

#[test]
fn update_value_changes_pointer() {
    let tree = BTree::create(pool(), 8, BTreeOptions::default()).unwrap();
    tree.insert(&k(5), 50).unwrap();
    assert!(tree.update_value(&k(5), 51).unwrap());
    assert_eq!(tree.get(&k(5)).unwrap(), Some(51));
    assert!(!tree.update_value(&k(404), 1).unwrap());
}

// ---------------------------------------------------------------------
// Batched lookups and range chunks
// ---------------------------------------------------------------------

/// Every reader must give one answer. Key `v` is present, with value
/// `7v`, iff `v < 4000` and 3 does not divide `v`; the same unsorted,
/// duplicated, absent and leaf-straddling key set goes through
/// `get_many`, `lookup_cached_many`, `range_chunk` and `scan_from`.
fn readers_match_closed_form(opts: BTreeOptions) {
    use std::ops::Bound;
    let cached = opts.cache.is_some();
    let tree = BTree::create(pool(), 8, opts).unwrap();
    for v in (0..4000u64).filter(|v| v % 3 != 0) {
        tree.insert(&k(v), v * 7).unwrap();
    }
    let present = |v: u64| v < 4000 && !v.is_multiple_of(3);
    let want = |v: u64| present(v).then_some(v * 7);
    // The first present key at or above `v`.
    let ceil = |v: u64| (v..4000).find(|v| present(*v));

    // Unsorted batch with duplicates, absentees, and out-of-range keys.
    let mut asked: Vec<[u8; 8]> = Vec::new();
    let mut x = 99u64;
    for _ in 0..600 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        asked.push(k(x % 4500));
    }
    asked.push(k(1));
    asked.push(k(1));
    // Every leaf's last key, the absent key after it and the next
    // leaf's first key: a sorted run that straddles each boundary.
    let (mut leaves, mut lower) = (0, Bound::Unbounded);
    let mut edge;
    loop {
        let (chunk, buf) = chunk_of(&tree, lower, Bound::Unbounded, false);
        let last = *buf.values.last().unwrap() / 7;
        asked.extend([k(last), k(last + 1), k(last + 2)]);
        leaves += 1;
        assert!(leaves < 4000, "a chunk after {last} did not move past it");
        if chunk.exhausted {
            break;
        }
        edge = k(last);
        lower = Bound::Excluded(&edge[..]);
    }
    assert!(leaves >= 10, "the key set must straddle many leaves, got {leaves}");
    let values: Vec<Option<u64>> = asked.iter().map(|key| want(u64::from_be_bytes(*key))).collect();

    assert_eq!(tree.get_many(&asked).unwrap(), values, "get_many");
    let looked = tree.lookup_cached_many(&asked).unwrap();
    let got: Vec<Option<u64>> = looked.iter().map(|m| m.value).collect();
    assert_eq!(got, values, "lookup_cached_many");
    assert!(looked.iter().all(|m| m.payload.is_none()), "nothing was populated");
    if cached {
        // Populate what was found; values must not move and the hits
        // must carry what was stored.
        for m in looked.iter().filter(|m| m.value.is_some()) {
            let v = m.value.unwrap();
            tree.cache_populate(m.leaf, v, &v.to_le_bytes(), m.token).unwrap();
        }
        let warm = tree.lookup_cached_many(&asked).unwrap();
        let got: Vec<Option<u64>> = warm.iter().map(|m| m.value).collect();
        assert_eq!(got, values, "lookup_cached_many after populate");
        assert!(warm.iter().any(|m| m.payload.is_some()), "a populated cache must hit");
        for m in warm.iter().filter(|m| m.payload.is_some()) {
            assert_eq!(m.payload.as_deref(), Some(&m.value.unwrap().to_le_bytes()[..]));
        }
    } else {
        assert_eq!(tree.cache_stats(), nbb_btree::CacheStats::default());
    }

    // The range readers over the same keys, probing or not.
    for (key, value) in asked.iter().zip(&values) {
        let v = u64::from_be_bytes(*key);
        let at = (Bound::Included(&key[..]), Bound::Included(&key[..]));
        let (_, buf) = chunk_of(&tree, at.0, at.1, cached);
        assert_eq!(buf.values, Vec::from_iter(*value), "range_chunk at {v}");
        let mut buf = nbb_btree::RangeBuf::default();
        tree.range_chunk(Bound::Excluded(&key[..]), Bound::Unbounded, 1, cached, &mut buf).unwrap();
        assert_eq!(buf.values, Vec::from_iter(ceil(v + 1).map(|n| n * 7)), "range_chunk after {v}");
        let mut first = None;
        tree.scan_from(key, |found, value| {
            first = Some((u64::from_be_bytes(found.try_into().unwrap()), value));
            false
        })
        .unwrap();
        assert_eq!(first, ceil(v).map(|n| (n, n * 7)), "scan_from {v}");
    }
    // And a scan across every leaf boundary yields each key once.
    let mut seen = Vec::new();
    tree.scan_from(&k(1000), |_, value| {
        seen.push(value / 7);
        seen.len() <= 4000 // a scan that stopped advancing fails below, not hangs
    })
    .unwrap();
    assert_eq!(seen, (1000..4000).filter(|v| present(*v)).collect::<Vec<_>>());

    // A point get is the same path with a batch of one.
    assert_eq!(tree.get(&k(1)).unwrap(), Some(7));
    assert_eq!(tree.get(&k(3)).unwrap(), None);
    assert_eq!(tree.get(&k(4400)).unwrap(), None);
}

#[test]
fn get_many_matches_closed_form_over_unsorted_duplicated_absent_keys() {
    readers_match_closed_form(BTreeOptions::default());
    readers_match_closed_form(cached_opts(8));
}

#[test]
fn get_many_on_empty_tree() {
    let tree = BTree::create(pool(), 8, BTreeOptions::default()).unwrap();
    assert_eq!(tree.get_many(&[k(1), k(2)]).unwrap(), vec![None, None]);
    assert_eq!(tree.get_many::<[u8; 8]>(&[]).unwrap(), Vec::<Option<u64>>::new());
}

#[test]
fn lookup_cached_many_hits_after_populate() {
    let tree = BTree::create(pool(), 8, cached_opts(8)).unwrap();
    for v in 0..2000u64 {
        tree.insert(&k(v), v + 10).unwrap();
    }
    let hot: Vec<[u8; 8]> = (0..64u64).map(|v| k(v * 31)).collect();
    // First pass: all misses; populate through the returned tokens.
    let first = tree.lookup_cached_many(&hot).unwrap();
    for (i, m) in first.iter().enumerate() {
        let v = m.value.expect("key exists");
        assert_eq!(v, (i as u64 * 31) + 10);
        assert!(m.payload.is_none(), "cold cache must miss");
        tree.cache_populate(m.leaf, v, &v.to_le_bytes(), m.token).unwrap();
    }
    // Second pass: served from leaf free space.
    let second = tree.lookup_cached_many(&hot).unwrap();
    let hits = second.iter().filter(|m| m.payload.is_some()).count();
    assert!(hits > hot.len() / 2, "only {hits}/{} cache hits", hot.len());
    for (m, want) in second.iter().zip(&first) {
        if let Some(pl) = &m.payload {
            assert_eq!(pl[..], want.value.unwrap().to_le_bytes()[..]);
        }
    }
    let s = tree.cache_stats();
    assert!(s.hits >= hits as u64);
}

#[test]
fn lookup_cached_many_resolves_present_and_absent_keys_in_descending_order() {
    let tree = BTree::create(pool(), 8, cached_opts(8)).unwrap();
    for v in 0..500u64 {
        tree.insert(&k(v), v).unwrap();
    }
    // Keys 699 down to 0: key v is present, with value v, iff v < 500.
    let asked: Vec<[u8; 8]> = (0..700u64).rev().map(k).collect();
    let batch = tree.lookup_cached_many(&asked).unwrap();
    for (i, m) in batch.iter().enumerate() {
        let v = 699 - i as u64;
        assert_eq!(m.value, (v < 500).then_some(v), "position {i}");
        assert!(m.payload.is_none(), "nothing was populated");
    }
    // A point lookup is the same path with a batch of one.
    assert_eq!(tree.lookup_cached(&k(499)).unwrap().value, Some(499));
    assert_eq!(tree.lookup_cached(&k(500)).unwrap().value, None);
}

#[test]
fn lookup_cached_many_on_uncached_tree_records_no_cache_stats() {
    let tree = BTree::create(pool(), 8, BTreeOptions::default()).unwrap();
    for v in 0..100u64 {
        tree.insert(&k(v), v).unwrap();
    }
    let asked: Vec<[u8; 8]> = (0..100u64).map(k).collect();
    let batch = tree.lookup_cached_many(&asked).unwrap();
    assert!(batch.iter().all(|m| m.value.is_some() && m.payload.is_none()));
    // Same contract as N lookup_cached calls on a cache-less tree.
    assert_eq!(tree.cache_stats(), nbb_btree::CacheStats::default());
}

/// One uncut chunk into fresh buffers.
fn chunk_of(
    tree: &BTree,
    lower: std::ops::Bound<&[u8]>,
    upper: std::ops::Bound<&[u8]>,
    probe: bool,
) -> (nbb_btree::RangeChunk, nbb_btree::RangeBuf) {
    let mut buf = nbb_btree::RangeBuf::default();
    let chunk = tree.range_chunk(lower, upper, usize::MAX, probe, &mut buf).unwrap();
    assert_eq!((buf.values.len(), buf.keys.len()), (chunk.len, chunk.len * tree.key_size()));
    assert_eq!(buf.cached.len(), if probe { chunk.len } else { 0 });
    (chunk, buf)
}

#[test]
fn range_chunk_walks_the_whole_tree_in_order() {
    use std::ops::Bound;
    let tree = BTree::create(pool(), 8, BTreeOptions::default()).unwrap();
    let n = 3000u64;
    for v in 0..n {
        tree.insert(&k(v), v).unwrap();
    }
    let mut seen: Vec<u64> = Vec::new();
    let mut lower: Option<Vec<u8>> = None;
    loop {
        let lb = match &lower {
            None => Bound::Unbounded,
            Some(key) => Bound::Excluded(&key[..]),
        };
        let (chunk, buf) = chunk_of(&tree, lb, Bound::Unbounded, false);
        seen.extend(&buf.values);
        if let Some(last) = buf.keys.chunks_exact(8).last() {
            lower = Some(last.to_vec());
        }
        if chunk.exhausted {
            break;
        }
    }
    assert_eq!(seen, (0..n).collect::<Vec<_>>());
}

#[test]
fn range_chunk_appends_up_to_max_and_only_cuts_in_front_of_a_row() {
    use std::ops::Bound;
    let tree = BTree::create(pool(), 8, BTreeOptions::default()).unwrap();
    for v in 0..10u64 {
        tree.insert(&k(v), v).unwrap();
    }
    let mut buf = nbb_btree::RangeBuf::default();
    let all = (Bound::Unbounded, Bound::Excluded(&k(6)[..]));
    // Cut at 4 of 6 in-range rows: more is known to follow.
    let cut = tree.range_chunk(all.0, all.1, 4, false, &mut buf).unwrap();
    assert_eq!((cut.len, cut.exhausted, cut.leaf_keys), (4, false, 10));
    // The remaining two end the range at `max` exactly: not a cut.
    let rest = tree.range_chunk(Bound::Excluded(&k(3)), all.1, 2, false, &mut buf).unwrap();
    assert_eq!((rest.len, rest.exhausted), (2, true));
    // Both chunks appended to the same buffers, at a fixed stride.
    assert_eq!(buf.values, (0..6).collect::<Vec<u64>>());
    let keys: Vec<&[u8]> = buf.keys.chunks_exact(8).collect();
    assert_eq!(keys, (0..6).map(k).collect::<Vec<_>>());
    assert!(buf.payloads.is_empty() && buf.cached.is_empty(), "not a probing scan");
}

#[test]
fn range_chunk_respects_bounds_between_keys() {
    use std::ops::Bound;
    let tree = BTree::create(pool(), 8, BTreeOptions::default()).unwrap();
    for v in (0..100u64).map(|v| v * 10) {
        tree.insert(&k(v), v).unwrap();
    }
    // 35..=65 → 40, 50, 60 (bounds fall between keys).
    let (chunk, buf) = chunk_of(&tree, Bound::Included(&k(35)), Bound::Included(&k(65)), false);
    assert_eq!(buf.values, vec![40, 50, 60]);
    assert!(chunk.exhausted);
    // Exclusive bounds on exact keys.
    let (_, buf) = chunk_of(&tree, Bound::Excluded(&k(40)), Bound::Excluded(&k(60)), false);
    assert_eq!(buf.values, vec![50]);
}

#[test]
fn leaves_after_names_exactly_the_leaves_a_scan_walks_next() {
    use std::ops::Bound;
    // Small pages: 20,000 ascending keys make a three-level tree, so
    // leaves hang off several level-1 parents.
    let tree = BTree::create(pool_with(1024, 2048), 8, BTreeOptions::default()).unwrap();
    assert!(tree.leaves_after(&k(0), Bound::Unbounded, 4).unwrap().is_empty(), "root is a leaf");
    assert_eq!(tree.leaf_for(Bound::Included(&k(7))).unwrap(), tree.root_page(), "root is a leaf");
    let n = 20_000u64;
    for v in 0..n {
        tree.insert(&k(v), v).unwrap();
    }
    assert_eq!(tree.height().unwrap(), 3);
    // The chain a scan walks: (leaf page, first key, last key, keys).
    let mut chain = Vec::new();
    let mut lower = Bound::Unbounded;
    let mut last_key;
    loop {
        let (chunk, buf) = chunk_of(&tree, lower, Bound::Unbounded, false);
        let (first, last) = (buf.values[0], *buf.values.last().unwrap());
        assert_eq!(chunk.leaf_keys, chunk.len, "a whole leaf is all in range");
        chain.push((chunk.leaf, first, last));
        if chunk.exhausted {
            break;
        }
        last_key = k(last);
        lower = Bound::Excluded(&last_key[..]);
    }
    // A leaf entered part-way still reports its total key count.
    let (_, first, last) = chain[3];
    let (part, _) = chunk_of(&tree, Bound::Included(&k(last - 1)), Bound::Unbounded, false);
    assert_eq!((part.len, part.leaf_keys), (2, (last - first + 1) as usize));

    // `leaf_for` names the leaf a scan from any bound reads first.
    assert_eq!(tree.leaf_for(Bound::Unbounded).unwrap(), chain[0].0);
    for &(leaf, first, last) in &chain {
        for key in [first, last] {
            assert_eq!(tree.leaf_for(Bound::Included(&k(key))).unwrap(), leaf);
            assert_eq!(
                tree.leaf_for(Bound::Excluded(&k(key))).unwrap(),
                leaf,
                "by owner, not by successor"
            );
        }
    }

    let mut crossed = 0;
    for (i, &(_, first, last)) in chain.iter().enumerate() {
        for key in [first, last] {
            let ahead = tree.leaves_after(&k(key), Bound::Unbounded, 5).unwrap();
            let next: Vec<_> = chain[i + 1..].iter().take(ahead.len()).map(|c| c.0).collect();
            assert_eq!(ahead, next, "after leaf {i}: exact ids, in key order");
            // Fewer than asked only at the end of a parent (or the tree).
            crossed += usize::from(ahead.is_empty() && i + 1 < chain.len());
        }
        // An upper bound cuts the list at the first leaf wholly past it.
        if let Some(&(next_leaf, next_first, _)) = chain.get(i + 1) {
            let reach = |hi: Bound<&[u8]>| tree.leaves_after(&k(first), hi, 1).unwrap();
            if reach(Bound::Unbounded).is_empty() {
                continue; // last child of its parent
            }
            let (own_last, next_first) = (k(last), k(next_first));
            assert_eq!(reach(Bound::Included(&next_first)), vec![next_leaf]);
            assert!(reach(Bound::Excluded(&next_first)).is_empty());
            assert!(reach(Bound::Included(&own_last)).is_empty());
        }
    }
    assert!(crossed >= 2, "the chain must cross level-1 parents, crossed {crossed}");
    assert_eq!(tree.leaves_after(&k(0), Bound::Unbounded, 0).unwrap(), vec![]);
}

#[test]
fn range_chunk_on_empty_tree_is_exhausted() {
    use std::ops::Bound;
    let tree = BTree::create(pool(), 8, BTreeOptions::default()).unwrap();
    let (chunk, _) = chunk_of(&tree, Bound::Unbounded, Bound::Unbounded, true);
    assert_eq!(chunk.len, 0);
    assert!(chunk.exhausted);
}

#[test]
fn range_chunk_serves_cached_payloads() {
    use std::ops::Bound;
    let tree = BTree::create(pool(), 8, cached_opts(8)).unwrap();
    for v in 0..200u64 {
        tree.insert(&k(v), v).unwrap();
    }
    // Warm a few entries through the point path.
    for v in 10..20u64 {
        let m = tree.lookup_cached(&k(v)).unwrap();
        tree.cache_populate(m.leaf, v, &v.to_le_bytes(), m.token).unwrap();
    }
    let range = (Bound::Included(&k(10)[..]), Bound::Excluded(&k(20)[..]));
    let before = tree.cache_stats();
    let (chunk, buf) = chunk_of(&tree, range.0, range.1, true);
    assert_eq!(chunk.len, 10);
    let warm = buf.cached.iter().filter(|c| **c).count();
    assert!(warm > 0, "scan must serve projections from leaf free space");
    for (i, slot) in buf.payloads.chunks_exact(8).enumerate() {
        let want = if buf.cached[i] { buf.values[i].to_le_bytes() } else { [0; 8] };
        assert_eq!(slot, want, "a miss leaves a zeroed slot for the caller to fill");
    }
    let probed = tree.cache_stats();
    assert_eq!(probed.lookups - before.lookups, 10);
    assert_eq!(probed.hits - before.hits, warm as u64);
    // A scan that chases every row anyway stays off the cache and its
    // counters altogether.
    let (_, buf) = chunk_of(&tree, range.0, range.1, false);
    assert_eq!(buf.values.len(), 10);
    assert_eq!(tree.cache_stats(), probed);
}

// ---------------------------------------------------------------------
// Index cache protocol
// ---------------------------------------------------------------------

#[test]
fn cache_miss_populate_hit_cycle() {
    let tree = BTree::create(pool(), 8, cached_opts(16)).unwrap();
    tree.insert(&k(1), 100).unwrap();
    let m = tree.lookup_cached(&k(1)).unwrap();
    assert_eq!(m.value, Some(100));
    assert!(m.payload.is_none());
    assert!(tree.cache_populate(m.leaf, 100, &[9u8; 16], m.token).unwrap());
    let h = tree.lookup_cached(&k(1)).unwrap();
    assert_eq!(h.payload.as_deref(), Some(&[9u8; 16][..]));
    let s = tree.cache_stats();
    assert_eq!(s.lookups, 2);
    assert_eq!(s.hits, 1);
    assert_eq!(s.misses, 1);
    assert_eq!(s.populates, 1);
}

#[test]
fn cache_answers_match_heap_under_mixed_workload() {
    // Ground truth: a HashMap of current payloads. Every cache hit must
    // equal ground truth at all times.
    use std::collections::HashMap;
    let tree = BTree::create(pool(), 8, cached_opts(8)).unwrap();
    let mut truth: HashMap<u64, u64> = HashMap::new(); // key -> payload word
    let n = 400u64;
    for v in 0..n {
        tree.insert(&k(v), v).unwrap();
        truth.insert(v, v * 7);
    }
    let mut x = 12345u64;
    for step in 0..20_000u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let key = x % n;
        if step % 25 == 24 {
            // Update the "heap" payload, then write it through.
            let nv = truth[&key].wrapping_add(1);
            truth.insert(key, nv);
            let ptr = tree.get(&k(key)).unwrap().unwrap();
            tree.cache_refresh_many(&[(k(key), ptr, nv.to_le_bytes())]).unwrap();
        } else {
            let m = tree.lookup_cached(&k(key)).unwrap();
            let ptr = m.value.expect("key exists");
            if let Some(pl) = &m.payload {
                let got = u64::from_le_bytes(pl[..8].try_into().unwrap());
                assert_eq!(got, truth[&key], "stale cache hit for {key} at step {step}");
            } else {
                let payload = truth[&key].to_le_bytes();
                tree.cache_populate(m.leaf, ptr, &payload, m.token).unwrap();
            }
        }
    }
    let s = tree.cache_stats();
    assert!(s.hits > 500, "expected plenty of cache hits, got {:?}", s);
    assert!(s.refreshes > 0, "updates of cached keys must be written through: {s:?}");
    // Each populate follows its own lookup with no writer between.
    assert_eq!(s.stale_skips, 0, "{s:?}");
}

#[test]
fn a_reload_drops_every_cache() {
    let tree = BTree::create(pool(), 8, cached_opts(8)).unwrap();
    for v in 0..50u64 {
        tree.insert(&k(v), v).unwrap();
    }
    for v in 0..50u64 {
        let m = tree.lookup_cached(&k(v)).unwrap();
        tree.cache_populate(m.leaf, v, &v.to_le_bytes(), m.token).unwrap();
    }
    // Everything hits now.
    let m = tree.lookup_cached(&k(10)).unwrap();
    assert!(m.payload.is_some());
    // Simulated crash: every leaf is read back from the device.
    evict_all(&tree);
    for v in 0..50u64 {
        let m = tree.lookup_cached(&k(v)).unwrap();
        assert!(m.payload.is_none(), "cache must be invalid after a reload (key {v})");
    }
}

#[test]
fn stale_token_populate_is_skipped() {
    let tree = BTree::create(pool(), 8, cached_opts(8)).unwrap();
    tree.insert(&k(1), 10).unwrap();
    tree.insert(&k(2), 20).unwrap();
    let m = tree.lookup_cached(&k(1)).unwrap();
    // A writer races the heap read: its write-through finds no entry to
    // fix, but its latch on the leaf moves the stamp the token holds.
    assert_eq!(tree.cache_refresh_many(&[(k(1), 10, 8u64.to_le_bytes())]).unwrap(), 0);
    assert!(
        !tree.cache_populate(m.leaf, 10, &7u64.to_le_bytes(), m.token).unwrap(),
        "populate with a stale token must be refused"
    );
    assert_eq!(tree.cache_stats().stale_skips, 1);
    assert!(tree.lookup_cached(&k(1)).unwrap().payload.is_none());
    // Any writer latch on the leaf counts, not only one on the same key.
    let m = tree.lookup_cached(&k(1)).unwrap();
    tree.insert(&k(3), 30).unwrap();
    assert!(!tree.cache_populate(m.leaf, 10, &8u64.to_le_bytes(), m.token).unwrap());
    // A fresh token, with no writer since, is taken.
    let m = tree.lookup_cached(&k(1)).unwrap();
    assert!(tree.cache_populate(m.leaf, 10, &8u64.to_le_bytes(), m.token).unwrap());
    assert_eq!(
        tree.lookup_cached(&k(1)).unwrap().payload.as_deref(),
        Some(&8u64.to_le_bytes()[..])
    );
}

#[test]
fn a_populate_whose_reset_comes_first_keeps_other_tokens_good() {
    // Two readers miss on one leaf; the first populate of the residency
    // resets the leaf's cache and marks it. That mark is no writer: the
    // second reader's token, issued before it, still stores.
    let tree = BTree::create(pool(), 8, cached_opts(8)).unwrap();
    tree.insert(&k(1), 10).unwrap();
    tree.insert(&k(2), 20).unwrap();
    let (a, b) = (tree.lookup_cached(&k(1)).unwrap(), tree.lookup_cached(&k(2)).unwrap());
    assert!(tree.cache_populate(a.leaf, 10, &1u64.to_le_bytes(), a.token).unwrap());
    assert!(tree.cache_populate(b.leaf, 20, &2u64.to_le_bytes(), b.token).unwrap());
    assert!(tree.lookup_cached(&k(1)).unwrap().payload.is_some());
    assert!(tree.lookup_cached(&k(2)).unwrap().payload.is_some());
    assert_eq!(tree.cache_stats().stale_skips, 0);
}

#[test]
fn an_overwritten_pointer_drops_its_old_entry_in_the_same_latch() {
    let tree = BTree::create(pool(), 8, cached_opts(8)).unwrap();
    for v in 1..=3u64 {
        tree.insert(&k(v), v * 10).unwrap();
        let m = tree.lookup_cached(&k(v)).unwrap();
        assert!(tree.cache_populate(m.leaf, v * 10, &v.to_le_bytes(), m.token).unwrap());
    }
    // Key 1 now names tuple 99; key 2 later names key 1's old tuple 10.
    assert_eq!(tree.insert(&k(1), 99).unwrap(), Some(10));
    assert!(tree.lookup_cached(&k(1)).unwrap().payload.is_none());
    assert!(tree.update_value(&k(2), 10).unwrap());
    assert!(
        tree.lookup_cached(&k(2)).unwrap().payload.is_none(),
        "tuple 10's old entry must be gone, not served for key 2"
    );
    assert_eq!(
        tree.lookup_cached(&k(3)).unwrap().payload.as_deref(),
        Some(&3u64.to_le_bytes()[..])
    );
}

#[test]
fn cache_lost_on_eviction_but_reads_stay_correct() {
    // Non-dirtying cache writes disappear when the frame is reclaimed;
    // lookups must degrade to misses, never wrong answers.
    let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    let pool = Arc::new(BufferPool::new(disk, 3));
    let tree = BTree::create(pool, 8, cached_opts(8)).unwrap();
    for v in 0..500u64 {
        tree.insert(&k(v), v).unwrap();
    }
    for v in 0..500u64 {
        let m = tree.lookup_cached(&k(v)).unwrap();
        if m.payload.is_none() {
            tree.cache_populate(m.leaf, v, &(v * 2).to_le_bytes(), m.token).unwrap();
        }
    }
    // Sweep again: hits may be rare (pool is tiny) but must be correct.
    let mut hits = 0;
    for v in 0..500u64 {
        let m = tree.lookup_cached(&k(v)).unwrap();
        assert_eq!(m.value, Some(v));
        if let Some(pl) = m.payload {
            assert_eq!(u64::from_le_bytes(pl[..8].try_into().unwrap()), v * 2);
            hits += 1;
        }
    }
    // With 3 frames and dozens of leaves, most caches were evicted.
    assert!(hits < 450, "expected eviction losses, got {hits} hits");
}

#[test]
fn splits_drop_affected_page_caches_only() {
    let tree = BTree::create(pool(), 8, cached_opts(8)).unwrap();
    // Two distant key clusters, each large enough to own whole leaves.
    for v in 0..300u64 {
        tree.insert(&k(v), v).unwrap();
    }
    for v in 10_000..10_300u64 {
        tree.insert(&k(v), v).unwrap();
    }
    for v in (0..300u64).chain(10_000..10_300) {
        let m = tree.lookup_cached(&k(v)).unwrap();
        tree.cache_populate(m.leaf, v, &v.to_le_bytes(), m.token).unwrap();
    }
    // Force splits in the low cluster only.
    for v in 300..600u64 {
        tree.insert(&k(v), v).unwrap();
    }
    tree.check_invariants().unwrap().unwrap();
    // All lookups remain correct; hits for the untouched high cluster
    // should largely survive.
    let mut high_hits = 0;
    for v in 10_000..10_300u64 {
        let m = tree.lookup_cached(&k(v)).unwrap();
        assert_eq!(m.value, Some(v));
        if m.payload.is_some() {
            high_hits += 1;
        }
    }
    assert!(high_hits > 0, "distant leaf caches should survive unrelated splits");
}

#[test]
fn cached_tree_without_cache_config_behaves_plain() {
    let tree = BTree::create(pool(), 8, BTreeOptions::default()).unwrap();
    tree.insert(&k(1), 10).unwrap();
    let m = tree.lookup_cached(&k(1)).unwrap();
    assert_eq!(m.value, Some(10));
    assert!(m.payload.is_none());
    assert!(!tree.cache_populate(m.leaf, 10, &[0u8; 16], m.token).unwrap());
    assert_eq!(tree.cache_stats().lookups, 0, "no cache, no cache accounting");
}

#[test]
fn wrong_payload_width_rejected() {
    let tree = BTree::create(pool(), 8, cached_opts(16)).unwrap();
    tree.insert(&k(1), 10).unwrap();
    let m = tree.lookup_cached(&k(1)).unwrap();
    assert!(tree.cache_populate(m.leaf, 10, &[0u8; 4], m.token).is_err());
}

#[test]
fn hot_keys_survive_cache_pressure() {
    // Fill one leaf's cache beyond capacity with cold keys while
    // repeatedly hitting a hot key: admission by frequency must keep
    // the hot entry, and must not churn the leaf on every miss.
    let tree = BTree::create(pool_with(8192, 256), 8, cached_opts(16)).unwrap();
    let n = 200u64; // all in a handful of leaves
    for v in 0..n {
        tree.insert(&k(v), v).unwrap();
    }
    let hot = 5u64;
    let m = tree.lookup_cached(&k(hot)).unwrap();
    tree.cache_populate(m.leaf, hot, &[1u8; 16], m.token).unwrap();
    let mut x = 999u64;
    for _ in 0..5_000 {
        // Hot hit (counted by the sketch, the leaf untouched)…
        let h = tree.lookup_cached(&k(hot)).unwrap();
        if h.payload.is_none() {
            tree.cache_populate(h.leaf, hot, &[1u8; 16], h.token).unwrap();
        }
        // …plus two cold lookups whose misses ask to be stored.
        for _ in 0..2 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let c = x % n;
            let m = tree.lookup_cached(&k(c)).unwrap();
            if m.payload.is_none() && m.token.admits() {
                tree.cache_populate(m.leaf, m.value.unwrap(), &[2u8; 16], m.token).unwrap();
            }
        }
    }
    let s = tree.cache_stats();
    assert!(s.evictions > 0 && s.evictions * 4 < s.misses, "eviction churn: {s:?}");
    // The hot key should hit far more often than the base rate.
    let h = tree.lookup_cached(&k(hot)).unwrap();
    assert!(h.payload.is_some(), "hot key must still be cached after churn");
}

#[test]
fn concurrent_cached_reads_and_invalidations_stay_consistent() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let tree = Arc::new(BTree::create(pool_with(8192, 512), 8, cached_opts(8)).unwrap());
    let n = 128u64;
    // Shared "heap": versioned payloads.
    let heap: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(AtomicU64::new).collect());
    for v in 0..n {
        tree.insert(&k(v), v).unwrap();
    }
    let mut handles = Vec::new();
    for t in 0..4 {
        let tree = Arc::clone(&tree);
        let heap = Arc::clone(&heap);
        handles.push(std::thread::spawn(move || {
            let mut x = 7777u64 + t;
            for _ in 0..5_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let key = x % n;
                if x.is_multiple_of(17) {
                    // writer: bump heap version, then write it through,
                    // holding the key's intent across both as
                    // `Table::apply` does (without it two writers of one
                    // key can write through out of order, leaving the
                    // older version cached)
                    let _intent = tree.intents().acquire(&k(key));
                    let v = heap[key as usize].fetch_add(1, Ordering::SeqCst) + 1;
                    tree.cache_refresh_many(&[(k(key), key, v.to_le_bytes())]).unwrap();
                } else {
                    let m = tree.lookup_cached(&k(key)).unwrap();
                    if let Some(pl) = &m.payload {
                        let got = u64::from_le_bytes(pl[..8].try_into().unwrap());
                        let now = heap[key as usize].load(Ordering::SeqCst);
                        // A cached value may lag only while a writer is
                        // between its heap bump and its write-through;
                        // it never runs ahead of the heap. The strong
                        // check is below, once the writers are done.
                        assert!(got <= now, "cache ahead of heap?! {got} > {now}");
                    } else {
                        let now = heap[key as usize].load(Ordering::SeqCst);
                        let _ = tree.cache_populate(
                            m.leaf,
                            m.value.unwrap(),
                            &now.to_le_bytes(),
                            m.token,
                        );
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Quiesced: every write was written through and no populate after
    // a writer latch was taken, so every hit is the current version.
    let mut hits = 0;
    for v in 0..n {
        if let Some(pl) = tree.lookup_cached(&k(v)).unwrap().payload {
            let got = u64::from_le_bytes(pl[..8].try_into().unwrap());
            assert_eq!(got, heap[v as usize].load(Ordering::SeqCst), "key {v}");
            hits += 1;
        }
    }
    assert!(hits > 0, "the cache must hold something once the writers stop");
    // And a reload still drops everything at once.
    evict_all(&tree);
    for v in 0..n {
        let m = tree.lookup_cached(&k(v)).unwrap();
        assert!(m.payload.is_none());
    }
}

// ---------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn tree_matches_btreemap(ops in prop::collection::vec(
            (0u8..3, 0u64..300, 0u64..1000), 1..400))
        {
            let tree = BTree::create(pool(), 8, BTreeOptions::default()).unwrap();
            let mut model = std::collections::BTreeMap::new();
            for (op, key, val) in ops {
                match op {
                    0 => {
                        let old = tree.insert(&k(key), val).unwrap();
                        prop_assert_eq!(old, model.insert(key, val));
                    }
                    1 => {
                        let got = tree.delete(&k(key)).unwrap();
                        prop_assert_eq!(got, model.remove(&key));
                    }
                    _ => {
                        let got = tree.get(&k(key)).unwrap();
                        prop_assert_eq!(got, model.get(&key).copied());
                    }
                }
            }
            prop_assert_eq!(tree.len().unwrap(), model.len());
            tree.check_invariants().unwrap().unwrap();
            // Full scan equals the model's iteration order.
            let mut pairs = Vec::new();
            tree.scan_from(&k(0), |key, value| {
                pairs.push((u64::from_be_bytes(key.try_into().unwrap()), value));
                true
            }).unwrap();
            let expect: Vec<(u64, u64)> = model.into_iter().collect();
            prop_assert_eq!(pairs, expect);
        }

        #[test]
        fn cached_lookups_never_lie(
            seed in 0u64..u64::MAX,
            nkeys in 50u64..200,
            steps in 100usize..600)
        {
            let tree = BTree::create(pool(), 8, cached_opts(8)).unwrap();
            let mut truth = std::collections::HashMap::new();
            for v in 0..nkeys {
                tree.insert(&k(v), v).unwrap();
                truth.insert(v, v);
            }
            let mut x = seed | 1;
            for _ in 0..steps {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let key = x % nkeys;
                match x % 5 {
                    0 => {
                        let nv = truth[&key].wrapping_add(x);
                        truth.insert(key, nv);
                        tree.cache_refresh_many(&[(k(key), key, nv.to_le_bytes())]).unwrap();
                    }
                    _ => {
                        let m = tree.lookup_cached(&k(key)).unwrap();
                        if let Some(pl) = &m.payload {
                            let got = u64::from_le_bytes(pl[..8].try_into().unwrap());
                            prop_assert_eq!(got, truth[&key]);
                        } else {
                            let payload = truth[&key].to_le_bytes();
                            tree.cache_populate(m.leaf, key, &payload, m.token).unwrap();
                        }
                    }
                }
            }
        }

        #[test]
        fn bulk_load_any_fill_is_sound(fill in 0.05f64..1.0, n in 1u64..2000) {
            let entries: Vec<(Vec<u8>, u64)> =
                (0..n).map(|v| (k(v).to_vec(), v)).collect();
            let tree = BTree::bulk_load(pool(), 8, BTreeOptions::default(), entries, fill).unwrap();
            tree.check_invariants().unwrap().unwrap();
            prop_assert_eq!(tree.len().unwrap(), n as usize);
            // Spot check lookups.
            for v in (0..n).step_by((n as usize / 13).max(1)) {
                prop_assert_eq!(tree.get(&k(v)).unwrap(), Some(v));
            }
        }
    }
}
