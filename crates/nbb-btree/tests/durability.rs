//! Restart tests: trees persisted to a (file or memory) disk survive a
//! full tear-down of all in-memory state, and reopened trees start a
//! fresh CSN epoch so stale on-disk cache bytes are never served.

use nbb_btree::{BTree, BTreeOptions, CacheConfig, NodeMut};
use nbb_storage::{BufferPool, DiskManager, FileDisk, InMemoryDisk, StorageError};
use std::sync::Arc;

fn k(v: u64) -> [u8; 8] {
    v.to_be_bytes()
}

fn cached_opts() -> BTreeOptions {
    BTreeOptions {
        cache: Some(CacheConfig { payload_size: 8, bucket_slots: 8, log_threshold: 32 }),
        cache_seed: 17,
    }
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
            tree.cache_populate(m.leaf, i * 3, &(i * 3).to_le_bytes(), m.token).unwrap();
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
    tree.cache_populate(m.leaf, 0, &0u64.to_le_bytes(), m.token).unwrap();
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
fn reopened_epoch_outruns_persisted_csn() {
    // Crank CSNp values high in the first incarnation (many full
    // invalidations), then reopen and verify no false validation.
    let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    let root;
    {
        let pool = Arc::new(BufferPool::new(Arc::clone(&disk), 64));
        let tree = BTree::create(Arc::clone(&pool), 8, cached_opts()).unwrap();
        for i in 0..100u64 {
            tree.insert(&k(i), i).unwrap();
        }
        // Inflate the epoch, then stamp pages at the high epoch by
        // populating (populate re-stamps CSNp lazily).
        for _ in 0..50 {
            tree.invalidate_all_caches();
        }
        for i in 0..100u64 {
            let m = tree.lookup_cached(&k(i)).unwrap();
            tree.cache_populate(m.leaf, i, &[0xEE; 8], m.token).unwrap();
        }
        // Dirty the pages so CSNp + cache bytes persist, then flush.
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
        assert!(
            m.payload.is_none(),
            "persisted cache bytes false-validated for key {i} (epoch collision)"
        );
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
    match BTree::open(pool, 8, pid, BTreeOptions::default()) {
        Err(StorageError::Corrupt(msg)) => {
            assert!(msg.contains(&format!("page {pid}")), "the error names the page: {msg}")
        }
        Err(e) => panic!("expected Corrupt, got {e}"),
        Ok(_) => panic!("a zeroed page opened as a tree"),
    }
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
    match BTree::open(pool, 8, root, BTreeOptions::default()) {
        Err(StorageError::Corrupt(msg)) => {
            assert!(msg.contains(&format!("page {stray}")), "the error names the page: {msg}")
        }
        Err(e) => panic!("expected Corrupt, got {e}"),
        Ok(_) => panic!("a chain into an unformatted page opened as a tree"),
    }
}
