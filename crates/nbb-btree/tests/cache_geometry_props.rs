//! Property tests for the cache/page geometry: under arbitrary
//! interleavings of key operations and cache operations, the cache must
//! never fabricate data — every probe result must be byte-identical to
//! a payload previously stored for that exact tuple id.

use nbb_btree::cache::{CacheConfig, CacheView, CacheViewMut, StoreOutcome};
use nbb_btree::node::{
    node_capacity, stable_point, Node, NodeMut, NODE_FOOTER_SIZE, NODE_HEADER_SIZE,
};
use nbb_storage::page::Page;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;

fn cfg(payload: usize) -> CacheConfig {
    CacheConfig { payload_size: payload }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary op sequences: the cache never returns bytes that were
    /// not stored for that id, and node keys are never corrupted.
    #[test]
    fn cache_never_fabricates_under_churn(
        ops in prop::collection::vec((0u8..5, 1u64..500), 1..300),
        payload in 4usize..40,
        seed in any::<u64>(),
    ) {
        let c = cfg(payload);
        let mut page = Page::new(4096);
        NodeMut::init_leaf(&mut page, 8);
        let mut rng = SmallRng::seed_from_u64(seed);
        // Ground truth of what we stored per id, and of live keys.
        let mut stored: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut keys: std::collections::BTreeMap<u64, u64> = Default::default();
        for (op, x) in ops {
            match op {
                0 => {
                    // key insert (may overwrite cache periphery)
                    let mut n = NodeMut::new(&mut page, 8);
                    if n.insert(&x.to_be_bytes(), x) != nbb_btree::InsertOutcome::NeedSplit {
                        keys.insert(x, x);
                    }
                }
                1 => {
                    // key delete (zeroes the free region = drops cache)
                    let mut n = NodeMut::new(&mut page, 8);
                    if n.delete(&x.to_be_bytes()).is_some() {
                        keys.remove(&x);
                        stored.clear(); // free-region zeroing drops all
                    }
                }
                2 => {
                    // cache store, admitted by a frequency made of the id
                    let pl: Vec<u8> = (0..payload).map(|i| (x as u8).wrapping_add(i as u8)).collect();
                    let freq = |id: u64| (id % 16) as u8;
                    let admission = CacheView::new(&page, 8, &c).admit(x, freq(x), freq);
                    let mut cv = CacheViewMut::new(&mut page, 8, &c);
                    match cv.store(x, &pl, admission, &mut rng) {
                        StoreOutcome::Stored | StoreOutcome::StoredEvicting => {
                            stored.insert(x, pl);
                        }
                        StoreOutcome::NoRoom | StoreOutcome::Refused => {}
                    }
                }
                3 => {
                    // probe
                    if let Some((_, pl)) = CacheView::new(&page, 8, &c).probe(x) {
                        let expect = stored.get(&x);
                        prop_assert_eq!(Some(&pl.to_vec()), expect,
                            "probe returned bytes never stored for id {}", x);
                    }
                }
                _ => {
                    // full verification sweep
                    let v = CacheView::new(&page, 8, &c);
                    for (id, pl) in v.entries() {
                        let expect = stored.get(&id);
                        prop_assert_eq!(Some(&pl.to_vec()), expect,
                            "cache entry {} not in stored set", id);
                    }
                }
            }
            // Node keys always intact and sorted.
            let n = Node::new(&page, 8);
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
        prop_assert_eq!(v.capacity(), last - first);
    }
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
        tree.cache_populate(m.leaf, i, &(i * 31).to_le_bytes(), m.token).unwrap();
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
