//! Integration tests for the handle-based query API: `IndexRef`
//! handles, batched execution, ordered range cursors, typed
//! `RowSchema` tables, and index-spec validation.

use nbb::core::db::{Database, DbConfig};
use nbb::core::query::Batch;
use nbb::core::row::RowSchema;
use nbb::core::table::{FieldSpec, IndexSpec, Table};
use nbb::encoding::{ColumnDef, DeclaredType, Schema, Value};
use nbb::storage::StorageError;
use std::sync::Arc;

fn be_key(id: u64) -> [u8; 8] {
    id.to_be_bytes()
}

/// 32-byte tuple: id(8) | group(8) | value(8) | pad(8).
fn tuple(id: u64, group: u64, value: u64) -> Vec<u8> {
    let mut t = Vec::with_capacity(32);
    t.extend_from_slice(&id.to_be_bytes());
    t.extend_from_slice(&group.to_be_bytes());
    t.extend_from_slice(&value.to_le_bytes());
    t.extend_from_slice(&[0xAB; 8]);
    t
}

fn cached_table(db: &Database, rows: u64) -> Arc<Table> {
    let t = db.create_table("t", 32).unwrap();
    t.create_index(IndexSpec::cached(
        "by_id",
        FieldSpec::new(0, 8),
        vec![FieldSpec::new(16, 8)], // cache `value`
    ))
    .unwrap();
    for i in 0..rows {
        t.insert(&tuple(i, i % 7, i * 3)).unwrap();
    }
    t
}

// ---------------------------------------------------------------------
// IndexRef handles
// ---------------------------------------------------------------------

#[test]
fn handle_point_ops_read_and_maintain_rows() {
    let db = Database::open(DbConfig::default());
    let t = cached_table(&db, 500);
    let by_id = t.index("by_id").unwrap();
    assert_eq!(by_id.name(), "by_id");
    assert_eq!(by_id.spec().key, FieldSpec::new(0, 8));

    // get / project return the loaded row (`cached_table`'s closed
    // form) and its cached `value` field.
    for id in [0u64, 17, 499] {
        assert_eq!(by_id.get(&be_key(id)).unwrap().unwrap(), tuple(id, id % 7, id * 3));
        assert_eq!(by_id.project(&be_key(id)).unwrap().unwrap().payload, (id * 3).to_le_bytes());
    }
    assert!(by_id.get(&be_key(9999)).unwrap().is_none());

    // Handles are clonable and update/delete maintain every index.
    let h2 = by_id.clone();
    assert!(h2.update(&be_key(3), &tuple(3, 0, 777)).unwrap());
    assert_eq!(by_id.get(&be_key(3)).unwrap().unwrap(), tuple(3, 0, 777));
    assert!(h2.delete(&be_key(3)).unwrap());
    assert!(by_id.get(&be_key(3)).unwrap().is_none());
    assert!(!h2.delete(&be_key(3)).unwrap());
}

#[test]
fn unknown_index_name_errors_once_at_resolution() {
    let db = Database::open(DbConfig::default());
    let t = cached_table(&db, 10);
    assert!(t.index("nope").is_err());
}

// ---------------------------------------------------------------------
// Batched ops
// ---------------------------------------------------------------------

#[test]
fn get_many_matches_closed_form_including_absentees() {
    let db = Database::open(DbConfig::default());
    let t = cached_table(&db, 2000);
    let by_id = t.index("by_id").unwrap();
    by_id.delete(&be_key(100)).unwrap();
    by_id.delete(&be_key(1500)).unwrap();
    // Unsorted, duplicates, deleted keys, never-present keys.
    let mut keys: Vec<[u8; 8]> = Vec::new();
    let mut x = 7u64;
    for _ in 0..1024 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        keys.push(be_key(x % 2500));
    }
    keys.push(be_key(100));
    keys.push(be_key(100));
    // Key id is present, as `cached_table` loaded it, iff id < 2000 and
    // it was not deleted above.
    let want = |id: u64| (id < 2000 && id != 100 && id != 1500).then(|| tuple(id, id % 7, id * 3));
    let batch = by_id.get_many(&keys).unwrap();
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(batch[i], want(u64::from_be_bytes(*k)), "position {i}");
    }
    // A point get is the same path with a batch of one.
    assert_eq!(by_id.get(&be_key(1499)).unwrap(), want(1499));
    assert_eq!(by_id.get(&be_key(1500)).unwrap(), None);
    assert_eq!(by_id.get(&be_key(2400)).unwrap(), None);
}

#[test]
fn project_many_serves_cache_hits_and_populates_misses() {
    let db = Database::open(DbConfig::default());
    let t = cached_table(&db, 3000);
    let by_id = t.index("by_id").unwrap();
    let hot: Vec<[u8; 8]> = (0..256u64).map(|i| be_key(i * 11)).collect();
    let first = by_id.project_many(&hot).unwrap();
    for (i, p) in first.iter().enumerate() {
        let p = p.as_ref().expect("present");
        assert_eq!(p.payload, ((i as u64 * 11) * 3).to_le_bytes());
        assert!(!p.index_only, "cold cache must fetch the heap");
    }
    let second = by_id.project_many(&hot).unwrap();
    let warm = second.iter().filter(|p| p.as_ref().unwrap().index_only).count();
    assert!(warm > hot.len() / 2, "only {warm}/{} served from the cache", hot.len());
    let s = t.stats();
    assert!(s.index_only_answers >= warm as u64);
    // Absent keys come back None, in position.
    let mixed = by_id.project_many(&[be_key(0), be_key(999_999)]).unwrap();
    assert!(mixed[0].is_some() && mixed[1].is_none());
}

#[test]
fn project_many_on_plain_index_projects_from_heap() {
    let db = Database::open(DbConfig::default());
    let t = db.create_table("t", 32).unwrap();
    t.create_index(IndexSpec::plain("by_id", FieldSpec::new(0, 8))).unwrap();
    for i in 0..100u64 {
        t.insert(&tuple(i, 0, i)).unwrap();
    }
    let by_id = t.index("by_id").unwrap();
    let got = by_id.project_many(&[be_key(5), be_key(50)]).unwrap();
    for p in got {
        let p = p.unwrap();
        assert!(!p.index_only);
        assert!(p.payload.is_empty(), "plain index has no cached fields");
    }
}

#[test]
fn execute_groups_heterogeneous_ops_per_index() {
    let db = Database::open(DbConfig::default());
    let t = cached_table(&db, 400);
    t.create_index(IndexSpec::plain("by_group", FieldSpec::new(8, 8))).unwrap();
    // groups are 0..7; ids 0..400.
    let batch = Batch::new()
        .get("by_id", &be_key(10))
        .project("by_id", &be_key(20))
        .get("by_group", &be_key(3))
        .get("by_id", &be_key(999_999))
        .project("by_id", &be_key(30));
    assert_eq!(batch.len(), 5);
    let out = t.execute(batch).unwrap();
    assert_eq!(out[0].tuple().unwrap(), &tuple(10, 3, 30)[..]);
    assert_eq!(out[1].projection().unwrap().payload, 60u64.to_le_bytes());
    // by_group key 3 points at some tuple whose group is 3.
    let g = out[2].tuple().expect("group 3 exists");
    assert_eq!(&g[8..16], &be_key(3));
    assert!(out[3].tuple().is_none(), "absent key is None, in position");
    assert_eq!(out[4].projection().unwrap().payload, 90u64.to_le_bytes());
    // Unknown index fails the whole batch.
    assert!(t.execute(Batch::new().get("nope", &be_key(1))).is_err());
    // Empty batch is fine.
    assert_eq!(t.execute(Batch::new()).unwrap().len(), 0);
}

// ---------------------------------------------------------------------
// Range cursors
// ---------------------------------------------------------------------

#[test]
fn execute_write_ops_then_reads_observe_them() {
    let db = Database::open(DbConfig::default());
    let t = cached_table(&db, 100);
    // One batch mixing every op kind. Documented semantics: put →
    // update → delete → read, so the reads see all of this batch's
    // writes regardless of queue position.
    let out = t
        .execute(
            Batch::new()
                .get("by_id", &be_key(200)) // sees the put below
                .put("by_id", &tuple(200, 1, 2000))
                .update("by_id", &be_key(5), &tuple(5, 5, 555))
                .delete("by_id", &be_key(7))
                .get("by_id", &be_key(5))
                .project("by_id", &be_key(7))
                .update("by_id", &be_key(9999), &tuple(9999, 0, 0)) // absent
                .delete("by_id", &be_key(9998)), // absent
        )
        .unwrap();
    assert_eq!(out[0].tuple().unwrap(), &tuple(200, 1, 2000)[..], "read sees the batch's put");
    let rid = out[1].rid().expect("put returns a rid");
    assert_eq!(t.heap().get(rid).unwrap(), tuple(200, 1, 2000));
    assert_eq!(out[2].applied(), Some(true));
    assert_eq!(out[3].applied(), Some(true));
    assert_eq!(out[4].tuple().unwrap(), &tuple(5, 5, 555)[..], "read sees the batch's update");
    assert!(out[5].projection().is_none(), "read sees the batch's delete");
    assert_eq!(out[6].applied(), Some(false));
    assert_eq!(out[7].applied(), Some(false));
    // Cross-check against the table after the batch.
    assert!(t.index("by_id").unwrap().get(&be_key(7)).unwrap().is_none());
    assert_eq!(t.index("by_id").unwrap().get(&be_key(5)).unwrap().unwrap(), tuple(5, 5, 555));
}

#[test]
fn execute_validates_before_touching_anything() {
    let db = Database::open(DbConfig::default());
    let t = cached_table(&db, 10);
    let live_before = t.heap().live_tuple_count().unwrap();
    // Unknown index name fails the whole batch up front: the put never
    // lands even though it precedes the bad op.
    let err = t
        .execute(Batch::new().put("by_id", &tuple(500, 0, 0)).get("nope", &be_key(1)))
        .unwrap_err();
    assert!(matches!(err, StorageError::Corrupt(_)), "unknown index: {err:?}");
    assert_eq!(t.heap().live_tuple_count().unwrap(), live_before);
    // Wrong tuple width on a later op: same story.
    let err = t
        .execute(Batch::new().put("by_id", &tuple(500, 0, 0)).put("by_id", &[0u8; 3]))
        .unwrap_err();
    assert!(matches!(err, StorageError::Corrupt(_)), "bad width: {err:?}");
    assert_eq!(t.heap().live_tuple_count().unwrap(), live_before);
    // Duplicate keys within one write group surface the named error.
    let err = t
        .execute(Batch::new().put("by_id", &tuple(600, 0, 1)).put("by_id", &tuple(600, 0, 2)))
        .unwrap_err();
    assert!(matches!(err, StorageError::DuplicateKeyInBatch { .. }), "dup: {err:?}");
    assert_eq!(t.heap().live_tuple_count().unwrap(), live_before);
}

#[test]
fn put_many_and_delete_many_through_the_handle() {
    let db = Database::open(DbConfig::default());
    let t = cached_table(&db, 50);
    let by_id = t.index("by_id").unwrap();
    // Upsert across the existing/fresh boundary.
    let tuples: Vec<Vec<u8>> = (40..60u64).map(|i| tuple(i, 2, i + 100)).collect();
    let rids = by_id.put_many(&tuples).unwrap();
    assert_eq!(rids.len(), 20);
    for i in 40..60u64 {
        assert_eq!(by_id.get(&be_key(i)).unwrap().unwrap(), tuple(i, 2, i + 100));
    }
    assert_eq!(t.heap().live_tuple_count().unwrap(), 60, "40..50 updated in place");
    // Single put wrapper agrees.
    let rid = by_id.put(&tuple(41, 3, 999)).unwrap();
    assert_eq!(rid, rids[1], "in-place upsert keeps the rid");
    // Batched delete, duplicates idempotent.
    let doomed: Vec<[u8; 8]> = vec![be_key(41), be_key(58), be_key(41)];
    assert_eq!(by_id.delete_many(&doomed).unwrap(), vec![true, true, false]);
    assert!(by_id.get(&be_key(41)).unwrap().is_none());
    // update_many with an absentee.
    let pairs: Vec<([u8; 8], Vec<u8>)> =
        vec![(be_key(42), tuple(42, 9, 1)), (be_key(41), tuple(41, 9, 1))];
    assert_eq!(by_id.update_many(&pairs).unwrap(), vec![true, false]);
}

#[test]
fn range_on_empty_table_yields_nothing() {
    let db = Database::open(DbConfig::default());
    let t = db.create_table("t", 32).unwrap();
    t.create_index(IndexSpec::cached("by_id", FieldSpec::new(0, 8), vec![FieldSpec::new(16, 8)]))
        .unwrap();
    let by_id = t.index("by_id").unwrap();
    assert_eq!(by_id.range_all().count(), 0);
    assert_eq!(by_id.range(&be_key(5)[..]..&be_key(50)[..]).count(), 0);
    assert_eq!(by_id.range_projected_all().count(), 0);
}

#[test]
fn range_over_single_leaf() {
    let db = Database::open(DbConfig::default());
    // A handful of rows stays within one leaf.
    let t = cached_table(&db, 10);
    let by_id = t.index("by_id").unwrap();
    assert_eq!(by_id.tree().height().unwrap(), 1, "10 rows must fit the root leaf");
    let rows: Vec<u64> = by_id
        .range_all()
        .map(|r| u64::from_be_bytes(r.unwrap().tuple[..8].try_into().unwrap()))
        .collect();
    assert_eq!(rows, (0..10).collect::<Vec<_>>());
    let some: Vec<u64> = by_id
        .range(&be_key(3)[..]..&be_key(7)[..])
        .map(|r| u64::from_be_bytes(r.unwrap().tuple[..8].try_into().unwrap()))
        .collect();
    assert_eq!(some, vec![3, 4, 5, 6]);
}

#[test]
fn range_bounds_falling_between_keys() {
    let db = Database::open(DbConfig::default());
    let t = db.create_table("t", 32).unwrap();
    t.create_index(IndexSpec::plain("by_id", FieldSpec::new(0, 8))).unwrap();
    for i in 0..100u64 {
        t.insert(&tuple(i * 10, 0, i)).unwrap(); // keys 0, 10, ..., 990
    }
    let by_id = t.index("by_id").unwrap();
    let ids = |lo: [u8; 8], hi: [u8; 8]| -> Vec<u64> {
        by_id
            .range(&lo[..]..&hi[..])
            .map(|r| u64::from_be_bytes(r.unwrap().key[..8].try_into().unwrap()))
            .collect()
    };
    // Both bounds between keys.
    assert_eq!(ids(be_key(35), be_key(65)), vec![40, 50, 60]);
    // Inclusive upper on an exact key.
    let upto: Vec<u64> = by_id
        .range(&be_key(35)[..]..=&be_key(60)[..])
        .map(|r| u64::from_be_bytes(r.unwrap().key[..8].try_into().unwrap()))
        .collect();
    assert_eq!(upto, vec![40, 50, 60]);
    // Bounds beyond either end.
    assert_eq!(ids(be_key(995), be_key(10_000)), Vec::<u64>::new());
    assert_eq!(ids(be_key(0), be_key(1)), vec![0]);
}

#[test]
fn range_survives_leaf_splits_mid_iteration() {
    let db = Database::open(DbConfig::default());
    let t = db.create_table("t", 32).unwrap();
    t.create_index(IndexSpec::plain("by_id", FieldSpec::new(0, 8))).unwrap();
    // Even ids 0..4000 by 2s; odd ids inserted mid-scan force splits.
    for i in 0..2000u64 {
        t.insert(&tuple(i * 2, 0, i)).unwrap();
    }
    let by_id = t.index("by_id").unwrap();
    let leaves_before = by_id.tree().index_stats().unwrap().leaf_pages;
    let mut cursor = by_id.range_all();
    let mut seen: Vec<u64> = Vec::new();
    // Consume a prefix...
    for _ in 0..100 {
        let row = cursor.next().unwrap().unwrap();
        seen.push(u64::from_be_bytes(row.key[..8].try_into().unwrap()));
    }
    // ...then split leaves across the whole key space mid-iteration.
    for i in 0..2000u64 {
        t.insert(&tuple(i * 2 + 1, 0, i)).unwrap();
    }
    assert!(
        by_id.tree().index_stats().unwrap().leaf_pages > leaves_before,
        "the mid-scan inserts must actually split leaves"
    );
    for row in cursor {
        seen.push(u64::from_be_bytes(row.unwrap().key[..8].try_into().unwrap()));
    }
    // Strictly ascending, and every even id from the original load that
    // lies past the consumed prefix must still be there.
    assert!(seen.windows(2).all(|w| w[0] < w[1]), "cursor order must stay ascending");
    let evens: std::collections::HashSet<u64> =
        seen.iter().copied().filter(|v| v % 2 == 0).collect();
    for v in (0..4000u64).step_by(2) {
        assert!(evens.contains(&v), "pre-existing id {v} lost across the split");
    }
}

#[test]
fn projected_range_serves_warm_entries_index_only_and_warms_cold_ones() {
    let db = Database::open(DbConfig::default());
    let t = cached_table(&db, 1000);
    let by_id = t.index("by_id").unwrap();
    let lo = be_key(100);
    let hi = be_key(200);
    // Cold pass: every projection chases the heap, populating the cache.
    let cold: Vec<bool> =
        by_id.range_projected(&lo[..]..&hi[..]).map(|r| r.unwrap().projection.index_only).collect();
    assert_eq!(cold.len(), 100);
    assert!(cold.iter().all(|&io| !io), "first pass must be all heap fetches");
    // Warm pass: a solid majority now comes straight from leaf free space.
    let rows: Vec<_> = by_id.range_projected(&lo[..]..&hi[..]).map(|r| r.unwrap()).collect();
    assert_eq!(rows.len(), 100);
    for (i, r) in rows.iter().enumerate() {
        assert_eq!(r.projection.payload, ((100 + i as u64) * 3).to_le_bytes());
    }
    let warm = rows.iter().filter(|r| r.projection.index_only).count();
    assert!(warm > 50, "only {warm}/100 rows served from the cache");
    assert!(t.stats().index_only_answers >= warm as u64);
}

#[test]
fn range_skips_rows_deleted_behind_the_index() {
    let db = Database::open(DbConfig::default());
    let t = cached_table(&db, 50);
    let by_id = t.index("by_id").unwrap();
    // Delete rows through the heap only, leaving their index entries
    // dangling: what a cursor sees when a delete lands between its leaf
    // read and its heap batch (the index→heap race).
    let heap_only: Vec<u64> = vec![10, 11, 12];
    for id in &heap_only {
        let ptr = by_id.tree().get(&be_key(*id)).unwrap().unwrap();
        t.heap().delete(nbb::storage::RecordId::from_u64(ptr)).unwrap();
    }
    let ids = |rows: Vec<nbb::core::RangeRow>| -> Vec<u64> {
        rows.iter().map(|r| u64::from_be_bytes(r.key[..8].try_into().unwrap())).collect()
    };
    let all = ids(by_id.range_all().map(|r| r.unwrap()).collect());
    assert_eq!(all, (0..50).filter(|id| !heap_only.contains(id)).collect::<Vec<u64>>());
    // A limited cursor's first refill buffers ids 0..=12 and loses
    // three of them to the heap; it refills until the limit is met.
    let page = ids(by_id.range_all().limit(13).map(|r| r.unwrap()).collect());
    assert_eq!(page, all[..13], "the skipped rows must not shorten the page");
}

// ---------------------------------------------------------------------
// RowSchema bridge
// ---------------------------------------------------------------------

fn articles_schema() -> Schema {
    Schema {
        table: "articles".into(),
        columns: vec![
            ColumnDef::new("id", DeclaredType::Int64),
            ColumnDef::new("views", DeclaredType::Int32),
            ColumnDef::new("title", DeclaredType::Str { width: 12 }),
            ColumnDef::new("minor", DeclaredType::Bool),
        ],
    }
}

#[test]
fn row_schema_declares_indexes_and_round_trips_rows() {
    let schema = articles_schema();
    let rows = RowSchema::new(&schema);
    assert_eq!(rows.tuple_width(), 8 + 4 + 12 + 1);
    assert_eq!(rows.field("views").unwrap(), FieldSpec::new(8, 4));

    let db = Database::open(DbConfig::default());
    let t = db.create_table_with(&rows).unwrap();
    assert_eq!(t.name(), "articles");
    let spec = rows.index_spec("by_id", "id", &["views", "minor"]).unwrap();
    assert_eq!(spec.key, FieldSpec::new(0, 8));
    assert_eq!(spec.cached_fields, vec![FieldSpec::new(8, 4), FieldSpec::new(24, 1)]);
    t.create_index(spec.clone()).unwrap();

    for i in 0..300i64 {
        let row = vec![
            Value::Int(i),
            Value::Int(i * 2),
            Value::Str(format!("page_{i}")),
            Value::Bool(i % 3 == 0),
        ];
        t.insert(&rows.encode(&row).unwrap()).unwrap();
    }
    let by_id = t.index("by_id").unwrap();
    let tuple = by_id.get(&rows.key("id", &Value::Int(42)).unwrap()).unwrap().unwrap();
    assert_eq!(
        rows.decode(&tuple).unwrap(),
        vec![Value::Int(42), Value::Int(84), Value::str("page_42"), Value::Bool(true)],
    );

    // Projections decode back to named typed values.
    let p = by_id.project(&rows.key("id", &Value::Int(7)).unwrap()).unwrap().unwrap();
    let fields = rows.decode_projection(&spec, &p.payload).unwrap();
    assert_eq!(
        fields,
        vec![("views".to_string(), Value::Int(14)), ("minor".to_string(), Value::Bool(false))],
    );

    // Typed range bounds: ids 100..110, numeric order == byte order.
    let lo = rows.key("id", &Value::Int(100)).unwrap();
    let hi = rows.key("id", &Value::Int(110)).unwrap();
    let ids: Vec<i64> = by_id
        .range(&lo[..]..&hi[..])
        .map(|r| match rows.decode(&r.unwrap().tuple).unwrap()[0] {
            Value::Int(i) => i,
            ref v => panic!("{v:?}"),
        })
        .collect();
    assert_eq!(ids, (100..110).collect::<Vec<_>>());
}

#[test]
fn row_schema_negative_keys_sort_before_positive() {
    let schema = articles_schema();
    let rows = RowSchema::new(&schema);
    let db = Database::open(DbConfig::default());
    let t = db.create_table_with(&rows).unwrap();
    t.create_index(rows.index_spec("by_id", "id", &[]).unwrap()).unwrap();
    for i in [-5i64, -1, 0, 3, 9] {
        let row = vec![Value::Int(i), Value::Int(0), Value::str("x"), Value::Bool(false)];
        t.insert(&rows.encode(&row).unwrap()).unwrap();
    }
    let by_id = t.index("by_id").unwrap();
    let lo = rows.key("id", &Value::Int(-2)).unwrap();
    let hi = rows.key("id", &Value::Int(4)).unwrap();
    let ids: Vec<i64> = by_id
        .range(&lo[..]..=&hi[..])
        .map(|r| match rows.decode(&r.unwrap().tuple).unwrap()[0] {
            Value::Int(i) => i,
            ref v => panic!("{v:?}"),
        })
        .collect();
    assert_eq!(ids, vec![-1, 0, 3]);
}

#[test]
fn row_schema_type_errors_are_surfaced() {
    let rows = RowSchema::new(&articles_schema());
    assert!(rows.field("nope").is_err());
    assert!(rows.index_spec("x", "nope", &[]).is_err());
    assert!(rows.index_spec("x", "id", &["nope"]).is_err());
    assert!(rows.encode(&[Value::Int(1)]).is_err());
    assert!(rows
        .encode(&[Value::Bool(true), Value::Int(0), Value::str("x"), Value::Bool(false)])
        .is_err());
    assert!(rows.key("id", &Value::str("not an int")).is_err());
    assert!(rows.decode(&[0u8; 3]).is_err());
}

// ---------------------------------------------------------------------
// IndexSpec validation
// ---------------------------------------------------------------------

#[test]
fn invalid_index_specs_return_named_errors() {
    let db = Database::open(DbConfig::default());
    let t = db.create_table("t", 32).unwrap();
    let named = |r: nbb::storage::error::Result<()>| match r {
        Err(StorageError::InvalidIndexSpec { index, reason }) => (index, reason),
        other => panic!("expected InvalidIndexSpec, got {other:?}"),
    };
    // Key out of bounds.
    let (idx, reason) = named(t.create_index(IndexSpec::plain("oob", FieldSpec::new(30, 8))));
    assert_eq!(idx, "oob");
    assert!(reason.contains("30..38"), "{reason}");
    // Empty key.
    let (_, reason) = named(t.create_index(IndexSpec::plain("empty", FieldSpec::new(0, 0))));
    assert!(reason.contains("empty"), "{reason}");
    // Cached field out of bounds.
    let (_, reason) = named(t.create_index(IndexSpec::cached(
        "cf_oob",
        FieldSpec::new(0, 8),
        vec![FieldSpec::new(28, 8)],
    )));
    assert!(reason.contains("cached field"), "{reason}");
    // Cached field overlapping the key.
    let (idx, reason) = named(t.create_index(IndexSpec::cached(
        "overlap",
        FieldSpec::new(0, 8),
        vec![FieldSpec::new(4, 8)],
    )));
    assert_eq!(idx, "overlap");
    assert!(reason.contains("overlap"), "{reason}");
    // A valid spec still works afterwards.
    t.create_index(IndexSpec::cached("ok", FieldSpec::new(0, 8), vec![FieldSpec::new(8, 8)]))
        .unwrap();
}
