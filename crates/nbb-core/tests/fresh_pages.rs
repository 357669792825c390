//! Allocating a page reads nothing. The disk promises a zeroed page, so
//! `BufferPool::new_page_with` zeroes a frame instead of faulting the
//! page through the device: a heap growth, a B+Tree split or root
//! growth and every `bulk_load` page cost no device read. And the
//! fresh page is all zeros before `init` runs, whatever its frame held.
//!
//! Every test runs under the default pool options and the degenerate
//! ones (one shard, no write-behind: a dirty victim is written
//! synchronously under the shard map).

use nbb_btree::{BTree, BTreeOptions};
use nbb_storage::{BufferPool, DiskManager, HeapFile, InMemoryDisk, Page, PoolOptions};
use std::sync::Arc;

const PAGE: usize = 4096;

fn configs() -> [PoolOptions; 2] {
    [PoolOptions::default(), PoolOptions { shards: 1, write_behind: 0 }]
}

/// A pool of `frames` frames over a fresh in-memory disk.
fn pool(frames: usize, opts: PoolOptions) -> (Arc<BufferPool>, Arc<InMemoryDisk>) {
    let disk = Arc::new(InMemoryDisk::new(PAGE));
    let pool =
        BufferPool::with_pool_options(Arc::clone(&disk) as Arc<dyn DiskManager>, frames, opts);
    (Arc::new(pool), disk)
}

#[test]
fn new_page_with_reads_nothing_and_zeroes_a_dirty_victims_frame() {
    for opts in configs() {
        let frames = 4;
        let (pool, disk) = pool(frames, opts.clone());
        // Every page written over every byte, so each fresh page below
        // takes the frame of a dirty victim.
        let mut ids = Vec::new();
        for i in 0..3 * frames {
            let (id, zeros) = pool
                .new_page_with(|p| {
                    let zeros = p.bytes().iter().all(|&b| b == 0);
                    p.bytes_mut().fill(0xA0 + i as u8);
                    zeros
                })
                .unwrap();
            assert!(zeros, "{opts:?}: page {i} was not zeroed before init");
            ids.push(id);
        }
        assert!(pool.stats().evictions >= (2 * frames) as u64, "{opts:?}: premise: victims");
        assert_eq!(disk.stats().reads, 0, "{opts:?}: an allocation read the device");
        let s = pool.stats();
        assert_eq!((s.misses, s.faults, s.read_batches), (0, 0, 0), "{opts:?}: {s:?}");
        // The victims' bytes reached the disk, not the next tenant's.
        pool.flush_all().unwrap();
        for (i, id) in ids.iter().enumerate() {
            let mut raw = Page::new(PAGE);
            disk.read(*id, &mut raw).unwrap();
            assert!(raw.bytes().iter().all(|&b| b == 0xA0 + i as u8), "{opts:?}: page {i}");
        }
    }
}

#[test]
fn heap_growth_reads_nothing() {
    for opts in configs() {
        let (pool, disk) = pool(64, opts.clone());
        let heap = HeapFile::create(Arc::clone(&pool)).unwrap();
        let rows: Vec<Vec<u8>> = (0..1000u64).map(|i| i.to_le_bytes().repeat(8)).collect();
        heap.append_many(&rows).unwrap();
        for r in rows.chunks(3) {
            heap.append_many(r).unwrap();
        }
        assert!(heap.page_count() > 20, "{opts:?}: premise: the heap grew");
        assert_eq!(disk.stats().reads, 0, "{opts:?}: a heap growth read the device");
    }
}

#[test]
fn splits_root_growth_and_bulk_load_read_nothing() {
    for opts in configs() {
        let (pool, disk) = pool(256, opts.clone());
        let tree = BTree::create(Arc::clone(&pool), 8, BTreeOptions::default()).unwrap();
        for k in 0..3000u64 {
            tree.insert(&k.to_be_bytes(), k).unwrap();
        }
        assert!(tree.height().unwrap() >= 2, "{opts:?}: premise: leaves split, the root grew");
        // The batched walker's splits, keys out of order.
        let keys: Vec<[u8; 8]> =
            (0..3000u64).map(|k| (3000 + k * 7919 % 3000).to_be_bytes()).collect();
        let pairs: Vec<(&[u8], u64)> = keys.iter().map(|k| (&k[..], 1)).collect();
        tree.insert_many(&pairs).unwrap();
        let loaded = BTree::bulk_load(
            Arc::clone(&pool),
            8,
            BTreeOptions::default(),
            (0..5000u64).map(|k| (k.to_be_bytes().to_vec(), k)),
            1.0,
        )
        .unwrap();
        assert!(loaded.height().unwrap() >= 2, "{opts:?}: premise: a multi-level load");
        assert_eq!(disk.stats().reads, 0, "{opts:?}: a new tree page read the device");
        assert_eq!(loaded.get(&4999u64.to_be_bytes()).unwrap(), Some(4999));
        assert_eq!(tree.len().unwrap(), 6000);
    }
}
