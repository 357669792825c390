//! §2.1.4 capacity analysis: how many cache items fit in the
//! `name_title` index's free space?
//!
//! Paper: "The index contains 360 MB of key data and, assuming that the
//! index is 68% full and all 4 fields are cached (25 bytes/cache item),
//! the index can store up to 7.9 million cache items — representing
//! over 70% of the tuples in the page table."
//!
//! Two columns: the analytic count from our page geometry, and a
//! measured count from a real bulk-loaded index at 68% fill. The
//! analytic column keeps the paper's 25-byte items (an 8-byte tuple id
//! and 17 bytes of fields); this repo names an entry by its key's
//! 2-byte directory cell, so a real index's entries take 19 bytes, and
//! the 19-byte rows compare the two columns like with like.

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
    let fields = 17usize; // the 4 cached fields
    let item = 8 + fields; // the paper's item: 8-byte id + fields
    let cfg = CacheConfig { payload_size: fields };
    let our_item = cfg.entry_size(); // 2-byte tag + fields
    let fill = 0.68f64;
    let key_data_mb = 360.0;
    let n_keys = (key_data_mb * 1024.0 * 1024.0 / entry as f64) as u64;

    // Analytic: slots per leaf at 68% fill.
    let cap = node_capacity(page_size, key_size);
    let per_leaf_keys = (cap as f64 * fill) as usize;
    let used = NODE_HEADER_SIZE + NODE_FOOTER_SIZE + per_leaf_keys * (entry + 2);
    let free = page_size - used;
    let leaves = n_keys as f64 / per_leaf_keys as f64;
    let (slots_25, slots_19) = (free / item, free / our_item);
    // A leaf caches its own keys' tuples, one item each: slots past its
    // key count stay empty.
    let items = |slots: usize| leaves * slots.min(per_leaf_keys) as f64;
    let (total_25, total_19) = (items(slots_25), items(slots_19));

    // Measured: bulk-load a scaled-down index and count real slots.
    let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(page_size));
    let pool = Arc::new(BufferPool::new(disk, 4096));
    let n_scaled = 200_000u64;
    let opts = BTreeOptions { cache: Some(cfg) };
    let entries = (0..n_scaled).map(|i| {
        let mut k = vec![0u8; key_size];
        k[..8].copy_from_slice(&i.to_be_bytes());
        (k, i)
    });
    let tree = BTree::bulk_load(pool, key_size, opts, entries, fill).expect("bulk load");
    let stats = tree.index_stats().expect("stats");
    let slots_measured = stats.cache_slots as f64 / stats.leaf_pages as f64;
    let scale = n_keys as f64 / n_scaled as f64;
    let total_measured = stats.cache_slots as f64 * scale;

    let measured_col = format!("measured (real index, {our_item} B entries)");
    print_table(
        "2.1.4 analysis: cache capacity of the name_title index (360 MB keys, 68% fill)",
        &["quantity", "analytic", &measured_col],
        &[
            vec!["keys in index".into(), n_keys.to_string(), format!("{n_scaled} (scaled)")],
            vec![
                "keys per leaf".into(),
                per_leaf_keys.to_string(),
                f(stats.keys as f64 / stats.leaf_pages as f64, 1),
            ],
            vec![format!("cache slots per leaf, {item} B items"), slots_25.to_string(), "-".into()],
            vec![
                format!("cache slots per leaf, {our_item} B entries"),
                slots_19.to_string(),
                "-".into(),
            ],
            vec![
                format!("slots entries can fill per leaf (one per key), {our_item} B entries"),
                slots_19.min(per_leaf_keys).to_string(),
                f(slots_measured, 1),
            ],
            vec![
                format!("total cache items (M), {item} B items"),
                f(total_25 / 1e6, 2),
                "-".into(),
            ],
            vec![
                format!("total cache items (M), {our_item} B entries"),
                f(total_19 / 1e6, 2),
                f(total_measured / 1e6, 2),
            ],
        ],
    );
    let page_table_rows = 11.0e6; // paper: 7.9M items ≈ 70% of the page table
    println!(
        "\ncoverage of an ~11M-row page table: analytic {:.0}% at {item} B, {:.0}% at {our_item} B; \
         measured {:.0}% (paper: >70%, 7.9M items)",
        total_25 / page_table_rows * 100.0,
        total_19 / page_table_rows * 100.0,
        total_measured / page_table_rows * 100.0
    );
}
