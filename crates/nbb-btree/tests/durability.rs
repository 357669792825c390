//! Restart tests: trees persisted to a (file or memory) disk survive a
//! full tear-down of all in-memory state, and a reopened tree never
//! trusts cache bytes read back from a device, so stale ones are never
//! served.

use nbb_btree::{BTree, BTreeOptions, CacheConfig, NodeMut};
use nbb_storage::{BufferPool, DiskManager, FileDisk, InMemoryDisk, StorageError};
use std::sync::Arc;

fn k(v: u64) -> [u8; 8] {
    v.to_be_bytes()
}

fn cached_opts() -> BTreeOptions {
    BTreeOptions { cache: Some(CacheConfig { payload_size: 8 }) }
}

fn restart_round_trip(disk: Arc<dyn DiskManager>) {
    let n = 3_000u64;
    let root;
    {
        // First incarnation: build, warm caches, flush, drop everything.
        let pool = Arc::new(BufferPool::new(Arc::clone(&disk), 64));
        let tree = BTree::create(Arc::clone(&pool), 8, cached_opts()).unwrap();
        for i in 0..n {
            tree.insert(&k(i), i * 3).unwrap();
        }
        for i in (0..n).step_by(5) {
            let m = tree.lookup_cached(&k(i)).unwrap();
            tree.cache_populate(m.leaf, &k(i), &(i * 3).to_le_bytes(), m.token).unwrap();
        }
        root = tree.root_page();
        pool.flush_all().unwrap();
    } // pool + tree dropped: all in-memory state gone

    // Second incarnation: reopen from the catalog (root id).
    let pool = Arc::new(BufferPool::new(Arc::clone(&disk), 64));
    let tree = BTree::open(pool, 8, root, cached_opts()).unwrap();
    tree.check_invariants().unwrap().unwrap();
    assert_eq!(tree.len().unwrap(), n as usize);
    for i in (0..n).step_by(97) {
        assert_eq!(tree.get(&k(i)).unwrap(), Some(i * 3), "key {i} after restart");
    }
    // Stale on-disk cache bytes must not be served: the first cached
    // lookup after restart misses even for previously-cached keys.
    let m = tree.lookup_cached(&k(0)).unwrap();
    assert_eq!(m.value, Some(0));
    assert!(m.payload.is_none(), "restart must invalidate persisted caches");
    // And the cache works again after repopulation.
    tree.cache_populate(m.leaf, &k(0), &0u64.to_le_bytes(), m.token).unwrap();
    assert!(tree.lookup_cached(&k(0)).unwrap().payload.is_some());
}

#[test]
fn restart_from_in_memory_disk() {
    restart_round_trip(Arc::new(InMemoryDisk::new(4096)));
}

#[test]
fn restart_from_real_file() {
    let dir = std::env::temp_dir().join(format!("nbb_durability_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tree.db");
    restart_round_trip(Arc::new(FileDisk::create(&path, 4096).unwrap()));
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_reopened_tree_never_trusts_persisted_cache_bytes() {
    // Populate every key's entry in the first incarnation and persist
    // the cache bytes, then reopen and verify no false validation: a
    // leaf read back from a device is not trusted until a populate
    // resets it.
    let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    let root;
    {
        let pool = Arc::new(BufferPool::new(Arc::clone(&disk), 64));
        let tree = BTree::create(Arc::clone(&pool), 8, cached_opts()).unwrap();
        for i in 0..100u64 {
            tree.insert(&k(i), i).unwrap();
        }
        for i in 0..100u64 {
            let m = tree.lookup_cached(&k(i)).unwrap();
            tree.cache_populate(m.leaf, &k(i), &[0xEE; 8], m.token).unwrap();
        }
        // Dirty the pages so the cache bytes persist, then flush.
        for i in 100..110u64 {
            tree.insert(&k(i), i).unwrap();
        }
        root = tree.root_page();
        pool.flush_all().unwrap();
    }
    let pool = Arc::new(BufferPool::new(Arc::clone(&disk), 64));
    let tree = BTree::open(pool, 8, root, cached_opts()).unwrap();
    for i in 0..100u64 {
        let m = tree.lookup_cached(&k(i)).unwrap();
        assert!(m.payload.is_none(), "persisted cache bytes false-validated for key {i}");
    }
}

#[test]
fn open_rejects_garbage_root() {
    let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    let pool = Arc::new(BufferPool::new(disk, 8));
    // Allocate an uninitialized page: not a node. A zeroed page read as
    // a node is a level-0 leaf whose next-leaf pointer is page 0 —
    // itself — so an unchecked open walks that chain forever once debug
    // asserts are off. The magic is checked for real in every profile.
    let pid = pool.new_page().unwrap();
    assert_corrupt_naming("open", BTree::open(pool, 8, pid, BTreeOptions::default()), &[pid]);
}

#[test]
fn open_rejects_a_leaf_chain_that_runs_into_an_unformatted_page() {
    let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    let pool = Arc::new(BufferPool::new(disk, 8));
    let tree = BTree::create(Arc::clone(&pool), 8, BTreeOptions::default()).unwrap();
    for i in 0..10 {
        tree.insert(&k(i), i).unwrap();
    }
    let root = tree.root_page();
    drop(tree);
    // The root is a well-formed leaf; point its sibling link at a page
    // nobody ever formatted.
    let stray = pool.new_page().unwrap();
    pool.with_page_mut(root, |p| NodeMut::new(p, 8).set_next_leaf(stray)).unwrap();
    assert_corrupt_naming("open", BTree::open(pool, 8, root, BTreeOptions::default()), &[stray]);
}

/// A three-leaf-or-more tree on `pool`, with the leaves a scan walks in
/// chain order.
fn tree_with_chain(pool: &Arc<BufferPool>) -> (BTree, Vec<nbb_storage::PageId>) {
    use std::ops::Bound;
    let tree = BTree::create(Arc::clone(pool), 8, BTreeOptions::default()).unwrap();
    for i in 0..1_000 {
        tree.insert(&k(i), i).unwrap();
    }
    let (mut chain, mut buf) = (Vec::new(), nbb_btree::RangeBuf::default());
    let mut lower: Option<[u8; 8]> = None;
    loop {
        let lb = lower.as_ref().map_or(Bound::Unbounded, |key| Bound::Excluded(&key[..]));
        let chunk = tree.range_chunk(lb, Bound::Unbounded, usize::MAX, false, &mut buf).unwrap();
        chain.push(chunk.leaf);
        if chunk.exhausted {
            break;
        }
        lower = Some(k(*buf.values.last().unwrap()));
    }
    assert!(chain.len() >= 3, "1,000 keys split into {} leaves", chain.len());
    (tree, chain)
}

/// `Corrupt` whose message names one of `pages`.
fn assert_corrupt_naming<T>(what: &str, r: Result<T, StorageError>, pages: &[nbb_storage::PageId]) {
    match r {
        Err(StorageError::Corrupt(msg)) => assert!(
            pages.iter().any(|p| msg.contains(&format!("page {p}"))),
            "{what}: the error names the page: {msg}"
        ),
        Err(e) => panic!("{what}: expected Corrupt, got {e}"),
        Ok(_) => panic!("{what}: a corrupt leaf chain read as a tree"),
    }
}

#[test]
fn chain_cycle_among_formatted_leaves_is_corrupt_not_a_hang() {
    use std::ops::Bound;
    let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    let pool = Arc::new(BufferPool::new(disk, 64));
    let (tree, chain) = tree_with_chain(&pool);
    let last = *chain.last().unwrap();
    // Every page on the chain is a well-formed leaf, so no magic check
    // can see this: only a bound on the hops ends the walk. First the
    // last leaf names an earlier one, then itself.
    for (target, cycle) in [(chain[1], &chain[1..]), (last, &chain[chain.len() - 1..])] {
        pool.with_page_mut(last, |p| NodeMut::new(p, 8).set_next_leaf(target)).unwrap();
        assert_corrupt_naming("len", tree.len(), cycle);
        assert_corrupt_naming("index_stats", tree.index_stats(), cycle);
        assert_corrupt_naming("scan_from", tree.scan_from(&k(0), |_, _| true), cycle);
        // The skip loop: nothing at or above the lower bound is left in
        // the last leaf, so the chunk hops on looking for a row.
        let mut buf = nbb_btree::RangeBuf::default();
        let past = (Bound::Excluded(&k(999)[..]), Bound::Unbounded);
        let chunk = tree.range_chunk(past.0, past.1, usize::MAX, false, &mut buf);
        assert_corrupt_naming("range_chunk", chunk, cycle);
        let root = tree.root_page();
        let reopened = BTree::open(Arc::clone(&pool), 8, root, BTreeOptions::default());
        assert_corrupt_naming("open", reopened, cycle);
    }
    // Reads that never follow the broken link still answer.
    assert_eq!(tree.get(&k(999)).unwrap(), Some(999));
}

#[test]
fn range_chunk_and_scan_from_reject_an_unformatted_sibling() {
    use std::ops::Bound;
    let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    let pool = Arc::new(BufferPool::new(disk, 64));
    let (tree, chain) = tree_with_chain(&pool);
    let stray = pool.new_page().unwrap();
    pool.with_page_mut(chain[0], |p| NodeMut::new(p, 8).set_next_leaf(stray)).unwrap();
    assert_corrupt_naming("scan_from", tree.scan_from(&k(0), |_, _| true), &[stray]);
    assert_corrupt_naming("len", tree.len(), &[stray]);
    assert_corrupt_naming("index_stats", tree.index_stats(), &[stray]);
    // A chunk follows the sibling link only out of a leaf that gave it
    // nothing: empty the first leaf, then ask from the start.
    let mut first = nbb_btree::RangeBuf::default();
    tree.range_chunk(Bound::Unbounded, Bound::Unbounded, usize::MAX, false, &mut first).unwrap();
    for key in first.keys.chunks_exact(8) {
        tree.delete(key).unwrap();
    }
    let mut buf = nbb_btree::RangeBuf::default();
    let chunk = tree.range_chunk(Bound::Unbounded, Bound::Unbounded, usize::MAX, false, &mut buf);
    assert_corrupt_naming("range_chunk", chunk, &[stray]);
}
