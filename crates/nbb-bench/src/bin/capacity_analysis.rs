//! §2.1.4 capacity analysis: how many cache items fit in the
//! `name_title` index's free space?
//!
//! Paper: "The index contains 360 MB of key data and, assuming that the
//! index is 68% full and all 4 fields are cached (25 bytes/cache item),
//! the index can store up to 7.9 million cache items — representing
//! over 70% of the tuples in the page table."
//!
//! Two columns: the analytic count from our page geometry, and a
//! measured count from a real bulk-loaded index at 68% fill.

use nbb_bench::report::{f, print_table};
use nbb_btree::cache::CacheConfig;
use nbb_btree::node::{node_capacity, NODE_FOOTER_SIZE, NODE_HEADER_SIZE};
use nbb_btree::{BTree, BTreeOptions};
use nbb_storage::{BufferPool, DiskManager, InMemoryDisk};
use std::sync::Arc;

fn main() {
    // The paper's parameters.
    let page_size = 8192usize;
    let key_size = 32usize; // (namespace u32, title char[28])
    let entry = key_size + 8; // key + tuple pointer
    let item = 25usize; // 8-byte id + 17 bytes of cached fields
    let fill = 0.68f64;
    let key_data_mb = 360.0;
    let n_keys = (key_data_mb * 1024.0 * 1024.0 / entry as f64) as u64;

    // Analytic: slots per leaf at 68% fill.
    let cap = node_capacity(page_size, key_size);
    let per_leaf_keys = (cap as f64 * fill) as usize;
    let used = NODE_HEADER_SIZE + NODE_FOOTER_SIZE + per_leaf_keys * (entry + 2);
    let free = page_size - used;
    let slots_analytic = free / item;
    let leaves = n_keys as f64 / per_leaf_keys as f64;
    let total_items_analytic = leaves * slots_analytic as f64;

    // Measured: bulk-load a scaled-down index and count real slots.
    let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(page_size));
    let pool = Arc::new(BufferPool::new(disk, 4096));
    let n_scaled = 200_000u64;
    let opts = BTreeOptions {
        cache: Some(CacheConfig { payload_size: 17, bucket_slots: 8, log_threshold: 64 }),
        cache_seed: 1,
    };
    let entries = (0..n_scaled).map(|i| {
        let mut k = vec![0u8; key_size];
        k[..8].copy_from_slice(&i.to_be_bytes());
        (k, i)
    });
    let tree = BTree::bulk_load(pool, key_size, opts, entries, fill).expect("bulk load");
    let stats = tree.index_stats().expect("stats");
    let slots_measured = stats.cache_slots as f64 / stats.leaf_pages as f64;
    let scale = n_keys as f64 / n_scaled as f64;
    let total_items_measured = stats.cache_slots as f64 * scale;

    print_table(
        "2.1.4 analysis: cache capacity of the name_title index (360 MB keys, 68% fill, 25 B items)",
        &["quantity", "analytic", "measured(real index)"],
        &[
            vec!["keys in index".into(), n_keys.to_string(), format!("{n_scaled} (scaled)")],
            vec!["keys per leaf".into(), per_leaf_keys.to_string(), f(stats.keys as f64 / stats.leaf_pages as f64, 1)],
            vec!["cache slots per leaf".into(), slots_analytic.to_string(), f(slots_measured, 1)],
            vec![
                "total cache items (M)".into(),
                f(total_items_analytic / 1e6, 2),
                f(total_items_measured / 1e6, 2),
            ],
        ],
    );
    let page_table_rows = 11.0e6; // paper: 7.9M items ≈ 70% of the page table
    println!(
        "\ncoverage of an ~11M-row page table: analytic {:.0}%, measured {:.0}% (paper: >70%, 7.9M items)",
        total_items_analytic / page_table_rows * 100.0,
        total_items_measured / page_table_rows * 100.0
    );
}
