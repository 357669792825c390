//! End-to-end integration: the full stack from synthetic Wikipedia
//! through cached indexes, clustering, and the waste audit.

use nbb::core::db::{Database, DbConfig};
use nbb::core::table::{FieldSpec, IndexSpec};
use nbb::core::waste;
use nbb::workload::{WikiGenerator, REVISION_ROW_WIDTH};

fn be_key(id: u64) -> [u8; 8] {
    id.to_be_bytes()
}

/// Builds the revision table with a big-endian rev_id key prefix.
fn load_revisions(
    db: &Database,
    n_pages: u64,
    revs: usize,
    seed: u64,
) -> (std::sync::Arc<nbb::core::table::Table>, Vec<u64>, usize) {
    let mut gen = WikiGenerator::new(seed);
    let mut pages = gen.pages(n_pages);
    let revisions = gen.revisions(&mut pages, revs);
    let t = db.create_table("revision", REVISION_ROW_WIDTH).unwrap();
    for r in &revisions {
        let mut row = r.encode();
        row[..8].copy_from_slice(&be_key(r.id));
        t.insert(&row).unwrap();
    }
    t.create_index(IndexSpec::cached(
        "by_rev_id",
        FieldSpec::new(0, 8),
        vec![FieldSpec::new(8, 8)], // cache rev_page
    ))
    .unwrap();
    let hot: Vec<u64> = pages.iter().map(|p| p.latest_rev).collect();
    (t, hot, revisions.len())
}

/// Loads the revision table from data seed `seed`, checks every
/// revision resolves, then warms the hot set and returns what its
/// second pass answered index-only, the hot set's size, and its `room`.
fn hot_set_answers(seed: u64) -> (u64, usize, usize) {
    let db = Database::open(DbConfig::default());
    let (t, hot, total) = load_revisions(&db, 200, 10, seed);
    // Every revision resolvable; payload equals the stored field.
    for id in 1..=total as u64 {
        let tuple = t.index("by_rev_id").unwrap().get(&be_key(id)).unwrap().unwrap();
        let page_id = u64::from_le_bytes(tuple[8..16].try_into().unwrap());
        let proj = t.index("by_rev_id").unwrap().project(&be_key(id)).unwrap().unwrap();
        assert_eq!(proj.payload, page_id.to_le_bytes());
    }
    // A cached entry is a whole revision row (96 non-key bytes): a leaf
    // holds 39 of them, not all of its 226 rows, so the pass above left
    // a random sixth of every leaf cached, and a full cache admits a new
    // row only into its outermost bucket. The hot set (each page's
    // latest revision) crowds into the newest leaves, so what it can win
    // is bounded by `room`: per leaf, its hot keys or the leaf's slots,
    // whichever is fewer.
    let by_rev = t.index("by_rev_id").unwrap();
    let (tree, cfg) = (by_rev.tree(), *by_rev.tree().cache_config().unwrap());
    let mut per_leaf = std::collections::HashMap::new();
    for id in &hot {
        *per_leaf.entry(tree.lookup_cached(&be_key(*id)).unwrap().leaf).or_insert(0usize) += 1;
    }
    let slots = |leaf| {
        tree.pool().with_page(leaf, |p| nbb::btree::CacheView::new(p, 8, &cfg).capacity()).unwrap()
    };
    let room: usize = per_leaf.iter().map(|(&leaf, &n)| n.min(slots(leaf))).sum();
    // Touch the hot set once; the second pass over it answers a good
    // share of that room index-only.
    for id in &hot {
        by_rev.project(&be_key(*id)).unwrap().unwrap();
    }
    let before = t.stats().index_only_answers;
    for id in &hot {
        by_rev.project(&be_key(*id)).unwrap().unwrap();
    }
    let after = t.stats().index_only_answers;
    (after - before, hot.len(), room)
}

#[test]
fn full_stack_lookup_correctness() {
    // Which hot keys win a leaf's slots is the placement draw's call,
    // so one data seed's share swings (0.23-0.53 over seeds 1..=12);
    // summed over eight seeds the share is the cache's, not the draw's.
    let (mut answered, mut hot, mut room) = (0, 0, 0);
    for seed in 1..=8 {
        let (a, h, r) = hot_set_answers(seed);
        (answered, hot, room) = (answered + a, hot + h, room + r);
    }
    assert!(
        4 * answered > room as u64,
        "warm hot sets should answer index-only ({answered} of {hot}, room for {room})"
    );
}

#[test]
fn clustering_plus_partitioning_cut_io_in_order() {
    // The Figure 3 shape through the public API at test scale.
    let run = |cluster: bool, partition: bool| -> u64 {
        let db = Database::open(DbConfig {
            page_size: 8192,
            heap_frames: 12,
            index_frames: 6,
            ..DbConfig::default()
        });
        if partition {
            let mut gen = WikiGenerator::new(5);
            let mut pages = gen.pages(400);
            let revisions = gen.revisions(&mut pages, 10);
            let hotset: std::collections::HashSet<u64> =
                pages.iter().map(|p| p.latest_rev).collect();
            let hot_t = db.create_table("hot", REVISION_ROW_WIDTH).unwrap();
            let cold_t = db.create_table("cold", REVISION_ROW_WIDTH).unwrap();
            for r in &revisions {
                let mut row = r.encode();
                row[..8].copy_from_slice(&be_key(r.id));
                if hotset.contains(&r.id) {
                    hot_t.insert(&row).unwrap();
                } else {
                    cold_t.insert(&row).unwrap();
                }
            }
            hot_t.create_index(IndexSpec::plain("by_rev_id", FieldSpec::new(0, 8))).unwrap();
            db.reset_stats();
            for id in &hotset {
                hot_t.index("by_rev_id").unwrap().get(&be_key(*id)).unwrap().unwrap();
            }
            let (h, i) = db.io_stats();
            return h.reads + i.reads;
        }
        let (t, hot, _) = load_revisions(&db, 400, 10, 5);
        if cluster {
            let idx = t.index_tree("by_rev_id").unwrap();
            for id in &hot {
                let ptr = idx.tree().get(&be_key(*id)).unwrap().unwrap();
                t.relocate(nbb::storage::RecordId::from_u64(ptr)).unwrap();
            }
        }
        db.reset_stats();
        for id in &hot {
            t.index("by_rev_id").unwrap().get(&be_key(*id)).unwrap().unwrap();
        }
        let (h, i) = db.io_stats();
        h.reads + i.reads
    };
    let baseline = run(false, false);
    let clustered = run(true, false);
    let partitioned = run(false, true);
    assert!(clustered < baseline, "clustering must cut I/O: {clustered} vs {baseline}");
    assert!(partitioned < clustered, "partitioning must cut more: {partitioned} vs {clustered}");
}

#[test]
fn waste_audit_covers_all_three_classes() {
    use nbb::encoding::{ColumnDef, DeclaredType, Schema, Value};
    let db = Database::open(DbConfig::default());
    let (t, hot, _) = load_revisions(&db, 100, 10, 9);
    let idx = t.index_tree("by_rev_id").unwrap();
    let hot_rids: Vec<_> = hot
        .iter()
        .map(|id| nbb::storage::RecordId::from_u64(idx.tree().get(&be_key(*id)).unwrap().unwrap()))
        .collect();
    let schema = Schema {
        table: "revision".into(),
        columns: vec![ColumnDef::new("rev_id", DeclaredType::Int64)],
    };
    let decode: &dyn Fn(&[u8]) -> Vec<Value> =
        &|b| vec![Value::Int(i64::from_be_bytes(b[..8].try_into().unwrap()))];
    let report =
        waste::audit(&t, &["by_rev_id"], Some(&hot_rids), Some((&schema, decode, 500))).unwrap();
    // Unused space: a real index with measurable free bytes.
    assert!(report.unused.indexes[0].free_bytes > 0);
    // Locality: scattered hot set -> low utilization.
    let loc = report.locality.as_ref().unwrap();
    assert!(loc.hot_utilization < 0.5, "{loc:?}");
    // Encoding: ids fit far fewer bits than declared.
    let enc = report.encoding.as_ref().unwrap();
    assert!(enc.waste_fraction() > 0.5);
    // Render shows everything.
    let text = report.render();
    assert!(text.contains("[unused space]") && text.contains("[locality]"));
}

#[test]
fn simulated_crash_invalidates_caches_but_preserves_data() {
    let db = Database::open(DbConfig::default());
    let (t, hot, total) = load_revisions(&db, 100, 10, 13);
    for id in &hot {
        t.index("by_rev_id").unwrap().project(&be_key(*id)).unwrap();
        t.index("by_rev_id").unwrap().project(&be_key(*id)).unwrap();
    }
    let idx = t.index_tree("by_rev_id").unwrap();
    assert!(idx.tree().cache_stats().hits > 0);
    // "Crash": every index page is read back from the device, and a
    // reloaded leaf's cache is not trusted.
    let pool = idx.tree().pool();
    for id in 0..pool.disk().num_pages() {
        pool.evict_page(nbb::storage::PageId(id)).unwrap();
    }
    let hits_before = idx.tree().cache_stats().hits;
    // First post-crash cached lookup for each key misses. (A `get` is a
    // cached lookup too — the entries are whole rows — so this is asked
    // before the gets below repopulate.)
    let m = idx.tree().lookup_cached(&be_key(hot[0])).unwrap();
    assert!(m.payload.is_none());
    for id in 1..=total as u64 {
        assert!(
            t.index("by_rev_id").unwrap().get(&be_key(id)).unwrap().is_some(),
            "data must survive the crash"
        );
    }
    assert_eq!(idx.tree().cache_stats().hits, hits_before);
}
