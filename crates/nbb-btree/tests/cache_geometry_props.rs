//! Property tests for the cache/page geometry: under arbitrary
//! interleavings of key operations and cache operations, the cache must
//! never fabricate data — an entry is named by its key's directory
//! cell, and every probe result must be byte-identical to the payload
//! last stored for that key.

use nbb_btree::cache::{CacheConfig, CacheView, CacheViewMut, StoreOutcome};
use nbb_btree::node::{
    node_capacity, stable_point, Node, NodeMut, NODE_FOOTER_SIZE, NODE_HEADER_SIZE,
};
use nbb_btree::InsertOutcome;
use nbb_storage::page::Page;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};

fn cfg(payload: usize) -> CacheConfig {
    CacheConfig { payload_size: payload }
}

/// The directory cell of `key` in the leaf on `page`.
fn cell(page: &Page, key: u64) -> Option<u16> {
    Node::new(page, 8).cell_of(&key.to_be_bytes())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary op sequences on a 1 KiB leaf, small enough that inserts
    /// fill it and compact it. The model keeps one payload per live
    /// key, as the tree does: a key whose pointer is overwritten drops
    /// its entry (the tree's `forget`), and a delete or a compaction
    /// zeroes every entry. A probe of a key may miss (key growth took
    /// the slot, or admission evicted it) but returns only the payload
    /// last stored for that key, and every entry is a live key's.
    #[test]
    fn cache_never_fabricates_under_churn(
        ops in prop::collection::vec((0u8..6, 1u64..120), 1..400),
        payload in 4usize..40,
        seed in any::<u64>(),
    ) {
        let c = cfg(payload);
        let mut page = Page::new(1024);
        NodeMut::init_leaf(&mut page, 8);
        let mut rng = SmallRng::seed_from_u64(seed);
        // The payload last stored per key, and the live keys' pointers.
        let mut stored: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut keys: BTreeMap<u64, u64> = BTreeMap::new();
        let mut version = 0u8;
        for (step, (op, x)) in ops.into_iter().enumerate() {
            let key = x.to_be_bytes();
            match op {
                0 | 1 => {
                    // key insert (may overwrite cache periphery, may
                    // compact); op 1 gives a live key a new pointer
                    let ptr = if op == 0 { x } else { 1_000 + step as u64 };
                    let dead = Node::new(&page, 8).dead_bytes();
                    let outcome = NodeMut::new(&mut page, 8).insert(&key, ptr);
                    match outcome {
                        InsertOutcome::Updated => {
                            let cell = cell(&page, x).expect("an updated key is live");
                            CacheViewMut::new(&mut page, 8, &c).remove(cell);
                            stored.remove(&x);
                            keys.insert(x, ptr);
                        }
                        InsertOutcome::Inserted => {
                            if dead > 0 && Node::new(&page, 8).dead_bytes() == 0 {
                                stored.clear(); // compaction zeroes the free region
                            }
                            keys.insert(x, ptr);
                        }
                        InsertOutcome::NeedSplit => {}
                    }
                }
                2 => {
                    // key delete (zeroes the free region = drops cache)
                    if NodeMut::new(&mut page, 8).delete(&key).is_some() {
                        keys.remove(&x);
                        stored.clear();
                    }
                }
                3 | 4 => {
                    // cache store (op 3), admitted by a frequency made
                    // of the key's pointer, or write-through (op 4)
                    let Some(cell) = cell(&page, x) else { continue };
                    version = version.wrapping_add(1);
                    let pl: Vec<u8> =
                        (0..payload).map(|i| (x as u8) ^ version.wrapping_add(i as u8)).collect();
                    let written = if op == 3 {
                        let n = Node::new(&page, 8);
                        let freq = |cell: u16| (n.value_at_cell(cell) % 16) as u8;
                        let admission = CacheView::new(&page, 8, &c).admit(cell, freq(cell), freq);
                        let mut cv = CacheViewMut::new(&mut page, 8, &c);
                        matches!(
                            cv.store(cell, &pl, admission, &mut rng),
                            StoreOutcome::Stored | StoreOutcome::StoredEvicting
                        )
                    } else {
                        CacheViewMut::new(&mut page, 8, &c).refresh(cell, &pl)
                    };
                    if written {
                        stored.insert(x, pl);
                    }
                }
                _ => {
                    // probe
                    if let Some(cell) = cell(&page, x) {
                        if let Some((_, pl)) = CacheView::new(&page, 8, &c).probe(cell) {
                            prop_assert_eq!(Some(&pl.to_vec()), stored.get(&x),
                                "key {} answered with bytes not last stored for it", x);
                        }
                    }
                }
            }
            // Every entry is a live key's, holding what was last stored
            // for that key.
            let n = Node::new(&page, 8);
            let owner: HashMap<u16, u64> = (0..n.nkeys())
                .map(|i| (n.cell_at(i), u64::from_be_bytes(n.key_at(i).try_into().unwrap())))
                .collect();
            for (tag, pl) in CacheView::new(&page, 8, &c).entries() {
                let k = owner.get(&tag).copied();
                prop_assert!(k.is_some(), "entry tagged {} names no live key", tag);
                prop_assert_eq!(Some(&pl.to_vec()), k.and_then(|k| stored.get(&k)),
                    "key {:?}'s entry holds bytes not last stored for it", k);
            }
            // Node keys always intact and sorted.
            prop_assert_eq!(n.nkeys(), keys.len());
            for (i, (k, v)) in keys.iter().enumerate() {
                prop_assert_eq!(n.key_at(i), &k.to_be_bytes());
                prop_assert_eq!(n.value_at(i), *v);
            }
            // Geometry invariants.
            prop_assert!(n.free_low() <= n.free_high());
            prop_assert!(n.free_low() >= NODE_HEADER_SIZE);
            prop_assert!(n.free_high() <= page.size() - NODE_FOOTER_SIZE);
        }
    }

    /// The stable point lies strictly inside the usable area for any
    /// sane page/key size, and closer to the directory end than the
    /// key end (since K >> D).
    #[test]
    fn stable_point_inside_page(page_size in 256usize..=65536, key_size in 1usize..=128) {
        prop_assume!(node_capacity(page_size, key_size) >= 2);
        let s = stable_point(page_size, key_size);
        prop_assert!(s >= NODE_HEADER_SIZE);
        prop_assert!(s <= page_size - NODE_FOOTER_SIZE);
        let mid = NODE_HEADER_SIZE + (page_size - NODE_HEADER_SIZE - NODE_FOOTER_SIZE) / 2;
        prop_assert!(s >= mid, "S={s} must sit in the upper half (K > D)");
    }

    /// Slot ranges never overlap the key region or directory, for any
    /// fill level and entry size.
    #[test]
    fn slots_fully_inside_free_region(
        nkeys in 0usize..200,
        payload in 1usize..64,
    ) {
        let c = cfg(payload);
        let mut page = Page::new(4096);
        let mut n = NodeMut::init_leaf(&mut page, 8);
        let cap = n.as_ref().capacity();
        for i in 0..nkeys.min(cap) as u64 {
            n.append_sorted(&i.to_be_bytes(), i);
        }
        let node = Node::new(&page, 8);
        let (lo, hi) = (node.free_low(), node.free_high());
        let v = CacheView::new(&page, 8, &c);
        let (first, last) = v.slot_range();
        let entry = c.entry_size();
        if first < last {
            prop_assert!(first * entry >= lo, "first slot below free_low");
            prop_assert!(last * entry <= hi, "last slot above free_high");
        }
        prop_assert_eq!(v.capacity(), (last - first).min(node.nkeys()));
    }
}

/// The benchmark's geometry: a leaf bulk-loaded at fill 0.5 with 8-byte
/// keys holds 112 of them, leaving `[1832, 3864)` free, and 58-byte
/// whole-row entries (a 2-byte tag and 56 bytes) take 34 aligned slots
/// of it. With an 8-byte tuple id, 64-byte entries took 31.
#[test]
fn a_half_full_leaf_offers_34_whole_row_slots() {
    use nbb_btree::{BTree, BTreeOptions};
    use nbb_storage::{BufferPool, DiskManager, InMemoryDisk};
    use std::sync::Arc;
    let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    let pool = Arc::new(BufferPool::new(disk, 64));
    let c = cfg(56);
    assert_eq!(c.entry_size(), 58);
    let keys = (0..10 * 112u64).map(|i| (i.to_be_bytes().to_vec(), i));
    let tree = BTree::bulk_load(pool, 8, BTreeOptions { cache: Some(c) }, keys, 0.5).unwrap();
    let s = tree.index_stats().unwrap();
    assert_eq!((s.leaf_pages, s.keys), (10, 1_120));
    assert_eq!(s.cache_slots, 10 * 34, "{s:?}");
}

/// Deterministic regression: storing into every leaf of a real tree
/// then reading through lookup_cached never mixes payloads across keys.
#[test]
fn payload_isolation_across_keys() {
    use nbb_btree::{BTree, BTreeOptions};
    use nbb_storage::{BufferPool, DiskManager, InMemoryDisk};
    use std::sync::Arc;
    let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    let pool = Arc::new(BufferPool::new(disk, 256));
    let tree = BTree::create(pool, 8, BTreeOptions { cache: Some(cfg(8)) }).unwrap();
    let n = 2_000u64;
    for i in 0..n {
        tree.insert(&i.to_be_bytes(), i).unwrap();
    }
    for i in 0..n {
        let m = tree.lookup_cached(&i.to_be_bytes()).unwrap();
        tree.cache_populate(m.leaf, &i.to_be_bytes(), &(i * 31).to_le_bytes(), m.token).unwrap();
    }
    let mut hits = 0;
    for i in 0..n {
        let m = tree.lookup_cached(&i.to_be_bytes()).unwrap();
        if let Some(pl) = m.payload {
            assert_eq!(
                u64::from_le_bytes(pl[..8].try_into().unwrap()),
                i * 31,
                "payload for key {i} belongs to another key"
            );
            hits += 1;
        }
    }
    assert!(hits > (n as usize) / 2, "most populated entries should survive: {hits}");
}

/// The paper's geometry (§2.1.4): an 8 KiB leaf of 32-byte keys at 68 %
/// fill holds 131 keys, and its free region holds 138 aligned slots of
/// 19-byte entries (17 bytes of fields and the tag). An entry is one
/// key's, so the leaf offers 131, and the index's count is 131 a leaf.
#[test]
fn a_leaf_of_the_papers_geometry_offers_a_slot_per_key() {
    use nbb_btree::{BTree, BTreeOptions};
    use nbb_storage::{BufferPool, DiskManager, InMemoryDisk};
    use std::sync::Arc;
    let (page_size, key_size, c) = (8192, 32, cfg(17));
    let per_leaf = (node_capacity(page_size, key_size) as f64 * 0.68) as usize;
    assert_eq!((per_leaf, c.entry_size()), (131, 19));
    let key = |i: u64| {
        let mut k = vec![0u8; key_size];
        k[..8].copy_from_slice(&i.to_be_bytes());
        k
    };
    let mut page = Page::new(page_size);
    let mut n = NodeMut::init_leaf(&mut page, key_size);
    for i in 0..per_leaf as u64 {
        n.append_sorted(&key(i), i);
    }
    let v = CacheView::new(&page, key_size, &c);
    let (first, last) = v.slot_range();
    assert_eq!((last - first, v.capacity()), (138, 131));

    let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(page_size));
    let pool = Arc::new(BufferPool::new(disk, 64));
    let keys = (0..10 * per_leaf as u64).map(|i| (key(i), i));
    let tree = BTree::bulk_load(pool, key_size, BTreeOptions { cache: Some(c) }, keys, 0.68);
    let s = tree.unwrap().index_stats().unwrap();
    assert_eq!((s.leaf_pages, s.cache_slots), (10, 10 * 131), "{s:?}");
}
