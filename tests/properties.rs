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

fn tuple(id: u64, value: u64) -> Vec<u8> {
    let mut t = Vec::with_capacity(24);
    t.extend_from_slice(&k(id));
    t.extend_from_slice(&value.to_le_bytes());
    t.extend_from_slice(&[0u8; 8]);
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn table_with_cached_index_matches_model(
        ops in prop::collection::vec((0u8..4, 0u64..80, 0u64..100_000), 1..300)
    ) {
        let db = Database::open(DbConfig {
            page_size: 4096, heap_frames: 32, index_frames: 32, ..DbConfig::default()
        });
        let t = db.create_table("t", 24).unwrap();
        t.create_index(IndexSpec::cached(
            "pk", FieldSpec::new(0, 8), vec![FieldSpec::new(8, 8)],
        )).unwrap();
        let mut model = std::collections::HashMap::new();
        for (op, id, v) in ops {
            match op {
                0 => {
                    model.entry(id).or_insert_with(|| {
                        t.insert(&tuple(id, v)).unwrap();
                        v
                    });
                }
                1 => {
                    if let std::collections::hash_map::Entry::Occupied(mut e) = model.entry(id) {
                        prop_assert!(t.index("pk").unwrap().update(&k(id), &tuple(id, v)).unwrap());
                        e.insert(v);
                    }
                }
                2 => {
                    let deleted = t.index("pk").unwrap().delete(&k(id)).unwrap();
                    prop_assert_eq!(deleted, model.remove(&id).is_some());
                }
                _ => {
                    let got = t.index("pk").unwrap().project(&k(id)).unwrap();
                    match (got, model.get(&id)) {
                        (Some(p), Some(mv)) => prop_assert_eq!(p.payload, mv.to_le_bytes().to_vec()),
                        (None, None) => {}
                        (g, m) => prop_assert!(false, "mismatch: {:?} vs {:?}", g, m),
                    }
                }
            }
        }
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
