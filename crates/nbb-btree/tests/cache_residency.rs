//! The leaf cache across evictions and reloads. Cache writes never
//! dirty a frame, so the image a device holds may carry entries older
//! than the memory that was evicted: a write-through that only reached
//! memory is lost with the frame. These tests pin what keeps that from
//! ever being served — a page read back from a device is not trusted
//! until a populate resets its cache, and a populate whose lookup saw
//! the page before a writer latch or a reload is refused.

use nbb_btree::{BTree, BTreeOptions, CacheConfig};
use nbb_storage::{BufferPool, DiskManager, InMemoryDisk, Page, PageId};
use std::sync::Arc;

fn k(v: u64) -> [u8; 8] {
    v.to_be_bytes()
}

fn entry(v: u64) -> [u8; 8] {
    v.to_le_bytes()
}

/// A one-leaf cached tree over a pool of `frames` frames, with keys
/// 1..=8 pointing at tuples 10, 20, …, and the disk below it.
fn tiny(frames: usize) -> (BTree, Arc<BufferPool>, Arc<InMemoryDisk>) {
    let disk = Arc::new(InMemoryDisk::new(4096));
    let pool = Arc::new(BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskManager>, frames));
    let opts = BTreeOptions { cache: Some(CacheConfig { payload_size: 8 }) };
    let tree = BTree::create(Arc::clone(&pool), 8, opts).unwrap();
    for v in 1..=8u64 {
        tree.insert(&k(v), v * 10).unwrap();
    }
    (tree, pool, disk)
}

/// Whether the device image of `page` holds `bytes` anywhere.
fn image_holds(disk: &InMemoryDisk, page: PageId, bytes: &[u8]) -> bool {
    let mut raw = Page::new(4096);
    disk.read(page, &mut raw).unwrap();
    raw.bytes().windows(bytes.len()).any(|w| w == bytes)
}

#[test]
fn a_reloaded_image_cannot_bring_back_a_stale_entry() {
    let (tree, pool, disk) = tiny(4);
    let old = 0xA11C_E000_0000_0001u64;
    let new = 0xB0B0_0000_0000_0002u64;
    // Populate key 3's entry with the old row.
    let m = tree.lookup_cached(&k(3)).unwrap();
    assert!(tree.cache_populate(m.leaf, 30, &entry(old), m.token).unwrap());
    let leaf = m.leaf;
    // Dirty the leaf (a key insert) and let it be written back: the
    // device image now carries the old entry.
    tree.insert(&k(9), 90).unwrap();
    assert_eq!(tree.lookup_cached(&k(3)).unwrap().payload.as_deref(), Some(&entry(old)[..]));
    pool.flush_all().unwrap();
    assert!(image_holds(&disk, leaf, &entry(old)));
    // The row changes; its write-through reaches memory only.
    assert_eq!(tree.cache_refresh_many(&[(k(3), 30, entry(new))]).unwrap(), 1);
    assert_eq!(tree.lookup_cached(&k(3)).unwrap().payload.as_deref(), Some(&entry(new)[..]));
    // Evict the clean frame and read the old image back.
    pool.evict_page(leaf).unwrap();
    assert!(image_holds(&disk, leaf, &entry(old)), "the eviction wrote nothing");
    let m = tree.lookup_cached(&k(3)).unwrap();
    assert_eq!(m.value, Some(30));
    assert!(m.payload.is_none(), "the reloaded image's entry is older than the row");
    // The miss goes to the heap, whose new bytes the cache then holds.
    assert!(tree.cache_populate(m.leaf, 30, &entry(new), m.token).unwrap());
    assert_eq!(tree.lookup_cached(&k(3)).unwrap().payload.as_deref(), Some(&entry(new)[..]));
    // The first populate of the residency reset the leaf: the image's
    // other entries are gone with it.
    assert_eq!(tree.index_stats().unwrap().cache_occupied, 1);
}

#[test]
fn a_populate_whose_token_predates_a_refresh_and_a_reload_is_refused() {
    let (tree, pool, _disk) = tiny(4);
    let m = tree.lookup_cached(&k(5)).unwrap();
    assert!(m.payload.is_none());
    // Between the lookup and its populate: a writer's write-through on
    // the leaf, then an eviction and a reload.
    tree.cache_refresh_many(&[(k(5), 50, entry(2))]).unwrap();
    pool.evict_page(m.leaf).unwrap();
    assert_eq!(tree.get(&k(5)).unwrap(), Some(50));
    assert!(
        !tree.cache_populate(m.leaf, 50, &entry(1), m.token).unwrap(),
        "the heap read may predate the write"
    );
    assert_eq!(tree.cache_stats().stale_skips, 1);
    // A reload alone moves the stamp too: it is a new residency.
    let m = tree.lookup_cached(&k(5)).unwrap();
    pool.evict_page(m.leaf).unwrap();
    assert!(!tree.cache_populate(m.leaf, 50, &entry(2), m.token).unwrap());
    assert!(tree.lookup_cached(&k(5)).unwrap().payload.is_none());
}

#[test]
fn the_write_through_leaves_the_frame_clean() {
    let (tree, pool, disk) = tiny(4);
    let m = tree.lookup_cached(&k(2)).unwrap();
    assert!(tree.cache_populate(m.leaf, 20, &entry(1), m.token).unwrap());
    pool.flush_all().unwrap();
    let written = pool.stats().writebacks;
    assert_eq!(tree.cache_refresh_many(&[(k(2), 20, entry(7))]).unwrap(), 1);
    assert_eq!(tree.cache_stats().refreshes, 1);
    // Nothing dirty: the barrier writes nothing, and neither does an
    // eviction.
    pool.flush_all().unwrap();
    pool.evict_page(m.leaf).unwrap();
    assert_eq!(pool.stats().writebacks, written, "a refresh owes the device nothing");
    assert!(!image_holds(&disk, m.leaf, &entry(7)));
    assert_eq!(tree.write_stats().batches, 8, "the eight inserts; the refresh is no write batch");
}
