//! The §3.1 scenario: Wikipedia's revision table, where almost every
//! access touches the ~5% of tuples that are each page's latest
//! revision, and those tuples sit one or two to a heap page among
//! revisions no one reads again.
//!
//! ```sh
//! cargo run --release --example hot_cold_revisions
//! ```
//!
//! The engine gathers them as they are touched: an update that faults a
//! cold heap page swaps its row onto a resident hot page instead of
//! writing it back in place (`nbb-core`'s `table/hot.rs`). This loads
//! the table, reopens it with a heap pool of a tenth of its pages, and
//! runs rounds of edits to the latest revisions (a `minor_edit` flip
//! through `update_many`). After each round it prints how many heap
//! pages the latest revisions span and how many heap reads one sweep
//! over them costs. The heap never grows: a swap interchanges two
//! slots.

use nbb::core::db::{Database, DbConfig};
use nbb::core::table::{FieldSpec, IndexSpec};
use nbb::storage::{DiskManager, InMemoryDisk, RecordId};
use nbb::workload::wikipedia::{RevisionRow, REVISION_ROW_WIDTH};
use nbb::workload::WikiGenerator;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

const ROUNDS: u64 = 4;

fn config(heap_frames: usize) -> DbConfig {
    DbConfig { page_size: 4096, heap_frames, index_frames: 1024, ..DbConfig::default() }
}

fn main() {
    let mut gen = WikiGenerator::new(42);
    let mut pages = gen.pages(1_000);
    let revisions = gen.revisions(&mut pages, 20);
    let mut latest: HashMap<u64, RevisionRow> = HashMap::new();
    for p in &pages {
        let r = revisions.iter().find(|r| r.id == p.latest_rev).expect("latest revision");
        latest.insert(r.id, r.clone());
    }
    println!(
        "revision table: {} rows, {} latest revisions ({:.1}%)",
        revisions.len(),
        latest.len(),
        latest.len() as f64 * 100.0 / revisions.len() as f64
    );

    let heap: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    let index: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
    {
        let db = Database::with_disks(config(4096), Arc::clone(&heap), Arc::clone(&index))
            .expect("fresh disks");
        let t = db.create_table("revision", REVISION_ROW_WIDTH).expect("table");
        let rows: Vec<Vec<u8>> = revisions.iter().map(RevisionRow::encode).collect();
        t.insert_many(&rows).expect("load");
        t.create_index(IndexSpec::plain("rev_id", FieldSpec::new(0, 8))).expect("index");
        db.close().expect("persist");
    }
    let frames = heap.num_pages() as usize / 10;
    let db = Database::reopen(config(frames), Arc::clone(&heap), index).expect("reopen");
    let t = db.table("revision").expect("table");
    let by_id = t.index("rev_id").expect("index");
    let heap_pages = t.heap().page_count();
    let mut ids: Vec<u64> = latest.keys().copied().collect();
    ids.sort_unstable();
    let keys: Vec<[u8; 8]> = ids.iter().map(|id| id.to_le_bytes()).collect();
    let spread = || {
        let rids = by_id.tree().get_many(&keys).expect("lookup");
        rids.into_iter()
            .map(|r| RecordId::from_u64(r.expect("indexed")).page)
            .collect::<HashSet<_>>()
    };
    let sweep = |latest: &HashMap<u64, RevisionRow>| {
        let before = heap.stats().reads;
        for (id, row) in ids.iter().zip(by_id.get_many(&keys).expect("sweep")) {
            assert_eq!(row.expect("present"), latest[id].encode(), "revision {id}");
        }
        heap.stats().reads - before
    };
    let (first_spread, first_sweep) = (spread().len(), sweep(&latest));
    println!(
        "\nheap pool of {frames} frames for {heap_pages} heap pages\nround 0: latest revisions \
         on {first_spread} heap pages; one sweep over them: {first_sweep} heap reads"
    );

    for round in 1..=ROUNDS {
        // Every latest revision edited once, in a different order each
        // round, four to a batch.
        let mut order = ids.clone();
        order.sort_by_key(|id| id.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(round as u32));
        for batch in order.chunks(4) {
            let pairs: Vec<([u8; 8], Vec<u8>)> = batch
                .iter()
                .map(|id| {
                    let row = latest.get_mut(id).expect("latest revision");
                    row.minor_edit = !row.minor_edit;
                    (id.to_le_bytes(), row.encode())
                })
                .collect();
            assert!(by_id.update_many(&pairs).expect("edit").iter().all(|&done| done));
        }
        println!(
            "round {round}: latest revisions on {} heap pages; one sweep: {} heap reads \
             ({} rows swapped onto hot pages so far)",
            spread().len(),
            sweep(&latest),
            t.stats().swaps
        );
    }

    let (last_spread, last_sweep) = (spread().len(), sweep(&latest));
    assert!(last_spread * 2 < first_spread, "the latest revisions gathered onto few pages");
    assert!(last_sweep * 4 < first_sweep, "and a sweep over them reads a quarter as much");
    assert_eq!(t.heap().page_count(), heap_pages, "without a single new heap page");
    println!(
        "\ndone: {first_spread} → {last_spread} pages, {first_sweep} → {last_sweep} heap reads \
         per sweep, heap still {heap_pages} pages."
    );
}
