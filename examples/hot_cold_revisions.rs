//! The §3.1 scenario: Wikipedia's revision table, where 99.9% of
//! lookups touch the ~5% of tuples that are each page's latest revision.
//!
//! ```sh
//! cargo run --release --example hot_cold_revisions
//! ```
//!
//! Demonstrates the full Figure 3 progression on one database: measure
//! the scattered baseline, cluster the hot tuples, then split them into
//! a hot partition — and watch the disk reads fall. Also shows
//! the ongoing §3.1 policy: a new revision replaces its page's previous
//! latest revision, which migrates to the cold partition.

use nbb::partition::{HotColdStore, SetPolicy, Temperature};
use nbb::storage::{BufferPool, DiskManager, HeapFile, InMemoryDisk};
use nbb::workload::WikiGenerator;
use std::collections::HashMap;
use std::sync::Arc;

fn heap_and_disk(frames: usize) -> (HeapFile, Arc<dyn DiskManager>) {
    let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(8192));
    let pool = Arc::new(BufferPool::new(Arc::clone(&disk), frames));
    (HeapFile::create(pool).expect("heap"), disk)
}

fn main() {
    let mut gen = WikiGenerator::new(42);
    let mut pages = gen.pages(1_000);
    let revisions = gen.revisions(&mut pages, 20);
    let hot_ids: std::collections::HashSet<u64> = pages.iter().map(|p| p.latest_rev).collect();
    println!(
        "revision table: {} rows, hot set = {} latest revisions ({:.1}%)",
        revisions.len(),
        hot_ids.len(),
        hot_ids.len() as f64 * 100.0 / revisions.len() as f64
    );

    // ---- baseline: append order, hot tuples scattered ----------------
    let (heap, disk) = heap_and_disk(16);
    let mut rid_of = HashMap::new();
    for r in &revisions {
        rid_of.insert(r.id, heap.insert(&r.encode()).expect("insert"));
    }
    let hot_rids: Vec<_> = pages.iter().map(|p| rid_of[&p.latest_rev]).collect();
    let hot_pages: std::collections::HashSet<_> = hot_rids.iter().map(|r| r.page).collect();
    println!(
        "\nbaseline: hot tuples spread over {} of {} heap pages",
        hot_pages.len(),
        heap.page_count()
    );
    disk.reset_stats();
    for rid in &hot_rids {
        heap.get(*rid).expect("read");
    }
    let base_reads = disk.stats().reads;
    println!("one sweep over the hot set: {base_reads} disk reads");

    // ---- clustered: relocate hot tuples to the tail -------------------
    let mut new_rids = Vec::new();
    for rid in &hot_rids {
        new_rids.push(heap.relocate(*rid).expect("relocate"));
    }
    let clustered_pages: std::collections::HashSet<_> = new_rids.iter().map(|r| r.page).collect();
    disk.reset_stats();
    for rid in &new_rids {
        heap.get(*rid).expect("read");
    }
    println!(
        "\nclustered: hot tuples now on {} pages; same sweep: {} disk reads ({:.1}x fewer)",
        clustered_pages.len(),
        disk.stats().reads,
        base_reads as f64 / disk.stats().reads.max(1) as f64
    );

    // ---- partitioned: hot tuples in their own heap --------------------
    let (hot_heap, hot_disk) = heap_and_disk(16);
    let (cold_heap, _cold_disk) = heap_and_disk(16);
    let store = HotColdStore::new(hot_heap, cold_heap);
    let mut policy = SetPolicy::new(hot_ids.iter().copied());
    let mut loc_of = HashMap::new();
    for r in &revisions {
        let temp = if policy.is_hot_key(r.id) { Temperature::Hot } else { Temperature::Cold };
        loc_of.insert(r.id, store.insert(temp, &r.encode()).expect("insert"));
    }
    let (hp, cp) = store.page_counts();
    println!("\npartitioned: hot heap {hp} pages, cold heap {cp} pages");
    hot_disk.reset_stats();
    for p in &pages {
        store.get(loc_of[&p.latest_rev]).expect("read hot");
    }
    println!(
        "same sweep against the hot partition: {} disk reads ({:.1}x fewer than baseline)",
        hot_disk.stats().reads,
        base_reads as f64 / hot_disk.stats().reads.max(1) as f64
    );

    // ---- the ongoing policy: new revision demotes the old one ---------
    let page0 = &pages[0];
    let old_latest = page0.latest_rev;
    let new_rev_id = revisions.len() as u64 + 1;
    println!("\npolicy: page {} gets revision {new_rev_id}", page0.id);
    // Insert the new latest hot, demote the superseded one to cold.
    let mut new_rev = revisions.iter().find(|r| r.id == old_latest).unwrap().clone();
    new_rev.id = new_rev_id;
    new_rev.parent_id = old_latest;
    let new_loc = store.insert(Temperature::Hot, &new_rev.encode()).expect("insert new");
    let demoted = store.migrate(loc_of[&old_latest]).expect("demote");
    loc_of.insert(new_rev_id, new_loc);
    loc_of.insert(old_latest, demoted);
    policy.replace(old_latest, new_rev_id);
    println!("revision {old_latest} migrated to {:?}; revision {new_rev_id} is hot", demoted.temp);
    assert_eq!(demoted.temp, Temperature::Cold);
    assert!(policy.is_hot_key(new_rev_id) && !policy.is_hot_key(old_latest));
    println!("\ndone: locality waste measured, clustered away, and kept away by policy.");
}

/// Local extension trait shim: `SetPolicy::is_hot` comes from the
/// `HotPolicy` trait; alias it for readability in this example.
trait IsHotKey {
    fn is_hot_key(&self, key: u64) -> bool;
}

impl IsHotKey for SetPolicy {
    fn is_hot_key(&self, key: u64) -> bool {
        use nbb::partition::HotPolicy;
        self.is_hot(key)
    }
}
