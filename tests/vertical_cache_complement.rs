//! §3.2's stated purpose, measured: "separating the cached fields from
//! the uncached fields can complement index caching by minimizing the
//! amount of redundant data read into memory when queries access fields
//! not found in the index."
//!
//! Wide tuples = 16 hot bytes (the index-cached fields) + 240 cold blob
//! bytes. A workload that mostly reads hot fields (with occasional cache
//! misses) drags whole 256-byte rows through the buffer pool when the
//! table is row-stored, but only 16-byte rows when the hot columns live
//! in their own vertical partition.

use nbb::partition::{optimize, QueryClass, VerticalTable};
use nbb::storage::{BufferPool, DiskManager, HeapFile, InMemoryDisk};
use std::sync::Arc;

const HOT_W: usize = 16;
const COLD_W: usize = 240;
const N_ROWS: usize = 2_000;

fn pool_and_disk(frames: usize) -> (Arc<BufferPool>, Arc<dyn DiskManager>) {
    let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    (Arc::new(BufferPool::new(Arc::clone(&disk), frames)), disk)
}

fn row(i: usize) -> Vec<u8> {
    let mut r = Vec::with_capacity(HOT_W + COLD_W);
    r.extend_from_slice(&(i as u64).to_le_bytes());
    r.extend_from_slice(&(i as u64 ^ 0xFF).to_le_bytes());
    r.extend_from_slice(&vec![i as u8; COLD_W]);
    r
}

#[test]
fn optimizer_recommends_the_complementary_split() {
    // 95% of queries read the hot columns (cache misses re-fetching the
    // cached fields), 5% read everything.
    let widths = [8usize, 8, COLD_W];
    let wl = [
        QueryClass { columns: vec![0, 1], weight: 95.0 },
        QueryClass { columns: vec![0, 1, 2], weight: 5.0 },
    ];
    let parts = optimize(&widths, &wl, 32.0);
    assert_eq!(
        parts,
        vec![vec![0, 1], vec![2]],
        "the optimizer must separate cached fields from the blob"
    );
}

#[test]
fn vertical_split_cuts_io_for_hot_field_misses() {
    // Row store: every hot-field fetch faults a page holding ~16 rows.
    let (row_pool, row_disk) = pool_and_disk(8);
    let row_heap = HeapFile::create(row_pool).unwrap();
    let mut row_rids = Vec::new();
    for i in 0..N_ROWS {
        row_rids.push(row_heap.insert(&row(i)).unwrap());
    }

    // Vertical: hot partition rows are 16 bytes -> ~250 rows/page.
    let (vert_pool, vert_disk) = pool_and_disk(8);
    let (cold_pool, _) = pool_and_disk(8);
    let hot_heap = HeapFile::create(vert_pool).unwrap();
    let cold_heap = HeapFile::create(cold_pool).unwrap();
    let vt = VerticalTable::new(
        vec![vec![0, 1], vec![2]],
        vec![8, 8, COLD_W],
        vec![hot_heap, cold_heap],
    );
    let mut vt_ids = Vec::new();
    for i in 0..N_ROWS {
        vt_ids.push(vt.insert(&row(i)).unwrap());
    }

    // Same pseudo-random hot-field access stream against both layouts.
    row_disk.reset_stats();
    vert_disk.reset_stats();
    let mut x = 0x1234_5678_9ABC_DEF0u64;
    for _ in 0..5_000 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let i = (x % N_ROWS as u64) as usize;
        // Row store: read the full tuple to get 16 bytes.
        let full = row_heap.get(row_rids[i]).unwrap();
        assert_eq!(&full[..8], &(i as u64).to_le_bytes());
        // Vertical: read only the hot partition.
        let (cols, touched) = vt.read_columns(vt_ids[i], &[0, 1]).unwrap();
        assert_eq!(cols[0], (i as u64).to_le_bytes());
        assert_eq!(touched, 1, "hot-field reads must touch one partition");
    }
    let row_reads = row_disk.stats().reads;
    let vert_reads = vert_disk.stats().reads;
    assert!(
        vert_reads * 4 < row_reads,
        "vertical hot partition should slash I/O: {vert_reads} vs {row_reads}"
    );
}

#[test]
fn full_row_reconstruction_still_works_and_costs_merges() {
    let (pool_a, _) = pool_and_disk(32);
    let (pool_b, _) = pool_and_disk(32);
    let vt = VerticalTable::new(
        vec![vec![0, 1], vec![2]],
        vec![8, 8, COLD_W],
        vec![HeapFile::create(pool_a).unwrap(), HeapFile::create(pool_b).unwrap()],
    );
    let mut ids = Vec::new();
    for i in 0..100 {
        ids.push(vt.insert(&row(i)).unwrap());
    }
    for (i, id) in ids.iter().enumerate() {
        assert_eq!(vt.read_row(*id).unwrap(), row(i), "row {i}");
        let (_, touched) = vt.read_columns(*id, &[0, 2]).unwrap();
        assert_eq!(touched, 2, "cross-partition projections pay the merge");
    }
}
