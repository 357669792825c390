//! Cross-crate property tests: the whole-table model check, vertical
//! partitioning round trips, and encoding round trips on generated
//! Wikipedia rows.

use nbb::core::db::{Database, DbConfig};
use nbb::core::table::{FieldSpec, IndexSpec};
use nbb::encoding::{analyze_column, decode_column, encode_column, DeclaredType, Value};
use nbb::partition::{optimize, QueryClass, VerticalTable};
use nbb::storage::{BufferPool, DiskManager, HeapFile, InMemoryDisk};
use nbb::workload::WikiGenerator;
use proptest::prelude::*;
use std::sync::Arc;

fn k(v: u64) -> [u8; 8] {
    v.to_be_bytes()
}

/// id(8, BE) | value(8, LE) | tag(8, BE).
fn tuple(id: u64, value: u64, tag: u64) -> Vec<u8> {
    let mut t = Vec::with_capacity(24);
    t.extend_from_slice(&k(id));
    t.extend_from_slice(&value.to_le_bytes());
    t.extend_from_slice(&k(tag));
    t
}

/// The whole-table model: id → (value, tag), tags unique among rows.
type Model = std::collections::BTreeMap<u64, (u64, u64)>;

/// What a write of `rows` (id, value, tag) must do to `model`: `None`
/// when two of the tags it writes (a fresh row's, or a changed one)
/// collide with each other or with a tag a rewritten row keeps — the
/// engine must then reject the batch whole — else the model afterwards.
fn written(model: &Model, rows: &[(u64, u64, u64)]) -> Option<Model> {
    let keeps = |&(id, _, tag): &(u64, u64, u64)| model.get(&id).is_some_and(|m| m.1 == tag);
    let writes: Vec<u64> = rows.iter().filter(|r| !keeps(r)).map(|r| r.2).collect();
    let collides = |(i, tag): (usize, &u64)| {
        writes[..i].contains(tag) || rows.iter().any(|r| keeps(r) && r.2 == *tag)
    };
    if writes.iter().enumerate().any(collides) {
        return None;
    }
    let mut after = model.clone();
    after.extend(rows.iter().map(|&(id, value, tag)| (id, (value, tag))));
    Some(after)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every write op in single and batched form — insert, update
    /// (tag-changing ones included), delete, put — over a table with a
    /// cached primary index and a cached unique secondary index: after
    /// every step the model, `get`, `project` and a scan through each
    /// index agree; at the end both trees are sound and the heap holds
    /// exactly the model's rows.
    #[test]
    fn table_with_cached_index_matches_model(
        ops in prop::collection::vec((0u8..8, any::<u64>()), 1..120)
    ) {
        const IDS: u64 = 24;
        let db = Database::open(DbConfig {
            page_size: 4096, heap_frames: 32, index_frames: 32, ..DbConfig::default()
        });
        let t = db.create_table("t", 24).unwrap();
        t.create_index(IndexSpec::cached(
            "pk", FieldSpec::new(0, 8), vec![FieldSpec::new(8, 8)],
        )).unwrap();
        t.create_index(IndexSpec::cached(
            "by_tag", FieldSpec::new(16, 8), vec![FieldSpec::new(8, 8)],
        )).unwrap();
        let (pk, by_tag) = (t.index("pk").unwrap(), t.index("by_tag").unwrap());
        let mut model = Model::new();
        // Tags no row ever held: what a drawn tag is swapped for when a
        // row outside the batch holds it (overwriting that row's entry
        // is the caller's contract violation, not the engine's to see).
        let mut unused_tag = 1_000u64;
        for (op, seed) in ops {
            let mut x = seed | 1;
            let mut draw = |n: u64| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 33) % n
            };
            // Ops 0, 2, 4, 6 are singles; 1, 3, 5, 7 batches of 2..=5.
            let n = if op % 2 == 0 { 1 } else { 2 + draw(4) as usize };
            let mut ids: Vec<u64> = (0..n).map(|_| draw(IDS)).collect();
            if op / 2 != 2 {
                // Only deletes take a key twice (idempotent).
                ids.sort_unstable();
                ids.dedup();
            }
            match op / 2 {
                0 => ids.retain(|id| !model.contains_key(id)),
                1 => ids.retain(|id| model.contains_key(id)),
                _ => {}
            }
            if ids.is_empty() {
                continue;
            }
            if op / 2 == 2 {
                let keys: Vec<[u8; 8]> = ids.iter().map(|&id| k(id)).collect();
                let want: Vec<bool> = ids.iter().map(|id| model.remove(id).is_some()).collect();
                let got = if n == 1 {
                    vec![pk.delete(&keys[0]).unwrap()]
                } else {
                    pk.delete_many(&keys).unwrap()
                };
                prop_assert_eq!(got, want);
            } else {
                let rows: Vec<(u64, u64, u64)> = ids.iter().map(|&id| {
                    let held = model.get(&id).map(|m| m.1);
                    let tag = match held {
                        Some(tag) if draw(2) == 0 => tag,
                        _ => draw(3 * IDS),
                    };
                    let outside = model.iter().any(|(o, m)| m.1 == tag && !ids.contains(o));
                    let tag = if outside { unused_tag += 1; unused_tag } else { tag };
                    (id, draw(100_000), tag)
                }).collect();
                let tuples: Vec<Vec<u8>> =
                    rows.iter().map(|&(id, value, tag)| tuple(id, value, tag)).collect();
                let done = match (op / 2, n) {
                    (0, 1) => t.insert(&tuples[0]).map(|_| ()),
                    (0, _) => t.insert_many(&tuples).map(|_| ()),
                    (1, 1) => pk.update(&k(ids[0]), &tuples[0]).map(|applied| assert!(applied)),
                    (1, _) => {
                        let pairs: Vec<([u8; 8], &[u8])> =
                            ids.iter().map(|&id| k(id)).zip(tuples.iter().map(Vec::as_slice)).collect();
                        pk.update_many(&pairs).map(|applied| assert!(applied.iter().all(|&a| a)))
                    }
                    (_, 1) => pk.put(&tuples[0]).map(|_| ()),
                    _ => pk.put_many(&tuples).map(|_| ()),
                };
                match written(&model, &rows) {
                    Some(after) => {
                        prop_assert!(done.is_ok(), "step rejected: {:?}", done);
                        model = after;
                    }
                    None => prop_assert!(
                        matches!(done, Err(nbb::storage::StorageError::DuplicateKeyInBatch { .. })),
                        "colliding tags must reject the batch whole, got {:?}", done
                    ),
                }
            }
            // Point views: every id through the primary index, every
            // live tag through the secondary.
            for id in 0..IDS {
                let want = model.get(&id).map(|&(value, tag)| tuple(id, value, tag));
                prop_assert_eq!(&pk.get(&k(id)).unwrap(), &want, "get({})", id);
                let projected = pk.project(&k(id)).unwrap().map(|p| p.payload);
                prop_assert_eq!(projected, want.map(|w| w[8..16].to_vec()), "project({})", id);
            }
            for (&id, &(value, tag)) in &model {
                let projected = by_tag.project(&k(tag)).unwrap().map(|p| p.payload);
                prop_assert_eq!(projected, Some(value.to_le_bytes().to_vec()), "tag of {}", id);
            }
            // Ordered views: a scan through each index is the model in
            // that index's key order.
            let by_id: Vec<Vec<u8>> =
                model.iter().map(|(&id, &(value, tag))| tuple(id, value, tag)).collect();
            let mut by_tag_order = by_id.clone();
            by_tag_order.sort_by(|a, b| a[16..].cmp(&b[16..]));
            for (index, want) in [(&pk, by_id), (&by_tag, by_tag_order)] {
                let got: Vec<Vec<u8>> = index.range_all().map(|r| r.unwrap().tuple).collect();
                prop_assert_eq!(got, want, "scan through {}", index.name());
            }
        }
        for index in [&pk, &by_tag] {
            prop_assert_eq!(index.tree().check_invariants().unwrap(), Ok(()));
        }
        prop_assert_eq!(t.heap().live_tuple_count().unwrap(), model.len());
    }

    #[test]
    fn vertical_table_round_trips_any_partitioning(
        widths in prop::collection::vec(1usize..16, 2..6),
        rows in prop::collection::vec(any::<u8>(), 1..40),
        seed in any::<u64>(),
    ) {
        // Build a random valid partitioning of the columns.
        let ncols = widths.len();
        let mut x = seed | 1;
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for c in 0..ncols {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if groups.is_empty() || x % 3 == 0 {
                groups.push(vec![c]);
            } else {
                let gi = (x as usize / 7) % groups.len();
                groups[gi].push(c);
            }
        }
        let heaps: Vec<HeapFile> = groups.iter().map(|_| {
            let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(1024));
            HeapFile::create(Arc::new(BufferPool::new(disk, 32))).unwrap()
        }).collect();
        let vt = VerticalTable::new(groups, widths.clone(), heaps);
        let row_width: usize = widths.iter().sum();
        let mut ids = Vec::new();
        for r in &rows {
            let row: Vec<u8> = (0..row_width).map(|i| r.wrapping_add(i as u8)).collect();
            ids.push((vt.insert(&row).unwrap(), row));
        }
        for (id, row) in &ids {
            prop_assert_eq!(&vt.read_row(*id).unwrap(), row);
        }
    }

    #[test]
    fn optimizer_output_is_always_a_valid_partitioning(
        widths in prop::collection::vec(1usize..64, 1..8),
        nqueries in 0usize..5,
        seed in any::<u64>(),
    ) {
        let ncols = widths.len();
        let mut x = seed | 1;
        let mut workload = Vec::new();
        for _ in 0..nqueries {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let cols: Vec<usize> = (0..ncols).filter(|c| (x >> c) & 1 == 1).collect();
            if !cols.is_empty() {
                workload.push(QueryClass { columns: cols, weight: (x % 100) as f64 + 1.0 });
            }
        }
        let parts = optimize(&widths, &workload, 16.0);
        // Disjoint cover of all columns.
        let mut seen = vec![false; ncols];
        for g in &parts {
            for &c in g {
                prop_assert!(!seen[c], "column {} twice", c);
                seen[c] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn inference_recommendations_always_round_trip(
        kind in 0u8..4,
        n in 1usize..200,
        seed in any::<u64>(),
    ) {
        let mut x = seed | 1;
        let values: Vec<Value> = (0..n).map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            match kind {
                0 => Value::Int((x % 10_000) as i64 - 5_000),
                1 => Value::Bool(x % 2 == 0),
                2 => Value::Str(nbb::encoding::timestamp::format_epoch(x % 1_000_000)),
                _ => Value::Str(format!("tag-{}", x % 7)),
            }
        }).collect();
        let declared = match kind {
            0 => DeclaredType::Int64,
            1 => DeclaredType::Bool,
            _ => DeclaredType::Str { width: 20 },
        };
        let analysis = analyze_column("c", declared, &values);
        let encoded = encode_column(&values, &analysis.recommended);
        let decoded = decode_column(&encoded);
        // Bool-kind columns may decode as Bool(x) for Int 0/1 inputs;
        // normalize both sides to a comparable form.
        let norm = |v: &Value| match v {
            Value::Bool(b) => Value::Int(i64::from(*b)),
            other => other.clone(),
        };
        let a: Vec<Value> = values.iter().map(norm).collect();
        let b: Vec<Value> = decoded.iter().map(norm).collect();
        prop_assert_eq!(a, b);
    }
}

#[test]
fn wiki_rows_survive_heap_and_decode() {
    // Generated rows -> heap bytes -> decode: everything equal.
    let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(8192));
    let heap = HeapFile::create(Arc::new(BufferPool::new(disk, 64))).unwrap();
    let mut gen = WikiGenerator::new(3);
    let mut pages = gen.pages(100);
    let revisions = gen.revisions(&mut pages, 5);
    let mut rids = Vec::new();
    for r in &revisions {
        rids.push((heap.insert(&r.encode()).unwrap(), r.clone()));
    }
    for (rid, r) in &rids {
        let bytes = heap.get(*rid).unwrap();
        let decoded = nbb::workload::RevisionRow::decode(&bytes).unwrap();
        assert_eq!(&decoded, r);
    }
}
