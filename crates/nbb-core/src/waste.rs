//! The waste audit: "tools that automate waste detection" (§1).
//!
//! One report per table covering the paper's three waste classes:
//!
//! * **Unused space** (§2): heap and index fill factors, free bytes, and
//!   how much of the free space the index cache is recycling;
//! * **Locality waste** (§3): how thinly hot tuples are spread over data
//!   pages (Wikipedia's revision table: "as few as one hot tuple per
//!   data page (2% utilization)");
//! * **Encoding waste** (§4): the schema analyzer's verdict over decoded
//!   tuples.

use crate::table::Table;
use nbb_encoding::schema::{analyze_table, Schema, SchemaReport};
use nbb_encoding::Value;
use nbb_storage::error::Result;
use nbb_storage::rid::RecordId;
use std::collections::HashMap;

/// Index-level space metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexSpaceReport {
    /// Index name.
    pub name: String,
    /// Leaf pages.
    pub leaf_pages: usize,
    /// Mean leaf fill factor (the paper's 68% / 45% numbers).
    pub avg_fill: f64,
    /// Total free bytes across leaves.
    pub free_bytes: usize,
    /// Usable cache slots carved from that free space.
    pub cache_slots: usize,
    /// Currently occupied cache slots.
    pub cache_occupied: usize,
    /// Write-path counters: a leaf-grouped multi-insert counts as one
    /// batch (not once per key), and
    /// [`nbb_btree::WriteStats::keys_per_leaf_group`] is the realized
    /// amortization factor. Also carries the index's same-key
    /// write-intent contention (`intent_parks` / `intent_handoffs`).
    pub writes: nbb_btree::WriteStats,
    /// The index buffer pool's fault and write-behind counters at audit
    /// time: `faults` started vs `fault_joins` coalesced onto in-flight
    /// loads, and `wb_flushed`/`wb_pending` for writes taken off the
    /// eviction path. One pool serves every index of a table, so each
    /// report row carries the same snapshot.
    pub pool: nbb_storage::PoolStats,
}

/// §2 metrics: allocated-but-empty bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct UnusedSpaceReport {
    /// Heap pages.
    pub heap_pages: usize,
    /// Mean heap page fill factor.
    pub heap_avg_fill: f64,
    /// Per-index reports.
    pub indexes: Vec<IndexSpaceReport>,
}

/// §3 metrics: hot-tuple placement quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalityReport {
    /// Hot tuples considered.
    pub hot_tuples: usize,
    /// Data pages holding at least one hot tuple.
    pub pages_with_hot: usize,
    /// Mean hot tuples per hot page (1.0 = maximally scattered).
    pub hot_per_page: f64,
    /// Mean fraction of a hot page's bytes that are hot tuple bytes —
    /// the paper's "2% utilization".
    pub hot_utilization: f64,
}

/// Combined audit across the three waste classes.
#[derive(Debug, Clone, PartialEq)]
pub struct WasteReport {
    /// Audited table name.
    pub table: String,
    /// §2 unused space.
    pub unused: UnusedSpaceReport,
    /// §3 locality (when a hot set was supplied).
    pub locality: Option<LocalityReport>,
    /// §4 encoding (when a schema/decoder was supplied).
    pub encoding: Option<SchemaReport>,
}

impl WasteReport {
    /// Renders a human-readable multi-section report.
    pub fn render(&self) -> String {
        let mut out = format!("=== waste audit: table {} ===\n", self.table);
        out.push_str(&format!(
            "[unused space] heap: {} pages, {:.1}% full\n",
            self.unused.heap_pages,
            self.unused.heap_avg_fill * 100.0
        ));
        for i in &self.unused.indexes {
            out.push_str(&format!(
                "  index {}: {} leaves, {:.1}% full, {} free bytes, cache {}/{} slots used\n",
                i.name,
                i.leaf_pages,
                i.avg_fill * 100.0,
                i.free_bytes,
                i.cache_occupied,
                i.cache_slots
            ));
            if i.writes.batches > 0 {
                out.push_str(&format!(
                    "    writes: {} keys in {} batches over {} leaf groups \
                     ({:.1} keys/descent)\n",
                    i.writes.keys,
                    i.writes.batches,
                    i.writes.leaf_groups,
                    i.writes.keys_per_leaf_group(),
                ));
            }
            if i.writes.intent_parks > 0 {
                out.push_str(&format!(
                    "    intents: {} same-key writers parked, {} handoffs \
                     (contention the intent table serialized)\n",
                    i.writes.intent_parks, i.writes.intent_handoffs,
                ));
            }
            if i.pool.faults > 0 {
                out.push_str(&format!(
                    "    pool: {} faults ({} joined in-flight loads), \
                     write-behind {} flushed / {} pending\n",
                    i.pool.faults, i.pool.fault_joins, i.pool.wb_flushed, i.pool.wb_pending,
                ));
            }
            // Every fault is a read batch (a point fault, of one page);
            // the line only says something once reads coalesced.
            if i.pool.read_pages > i.pool.read_batches {
                out.push_str(&format!(
                    "    batched reads: {} pages in {} batches \
                     ({:.1} pages/read — device round-trips amortized)\n",
                    i.pool.read_pages,
                    i.pool.read_batches,
                    i.pool.read_pages as f64 / i.pool.read_batches as f64,
                ));
            }
        }
        if let Some(l) = &self.locality {
            out.push_str(&format!(
                "[locality] {} hot tuples on {} pages ({:.2} hot/page, {:.1}% hot-page utilization)\n",
                l.hot_tuples,
                l.pages_with_hot,
                l.hot_per_page,
                l.hot_utilization * 100.0
            ));
        }
        if let Some(e) = &self.encoding {
            out.push_str("[encoding]\n");
            out.push_str(&e.render());
        }
        out
    }
}

/// Audits unused space (always available).
pub fn audit_unused(table: &Table, index_names: &[&str]) -> Result<UnusedSpaceReport> {
    let pool = table.index_pool().stats();
    let mut indexes = Vec::new();
    for name in index_names {
        let h = table.index_tree(name)?;
        let s = h.tree().index_stats()?;
        indexes.push(IndexSpaceReport {
            name: (*name).to_string(),
            leaf_pages: s.leaf_pages,
            avg_fill: s.avg_fill(),
            free_bytes: s.free_bytes,
            cache_slots: s.cache_slots,
            cache_occupied: s.cache_occupied,
            writes: h.tree().write_stats(),
            pool,
        });
    }
    Ok(UnusedSpaceReport {
        heap_pages: table.heap().page_count(),
        heap_avg_fill: table.heap().avg_fill_factor()?,
        indexes,
    })
}

/// Audits locality for a given hot set of tuple addresses.
pub fn audit_locality(table: &Table, hot: &[RecordId]) -> Result<LocalityReport> {
    let page_size = table.heap().pool().disk().page_size();
    let mut per_page: HashMap<u64, usize> = HashMap::new();
    for rid in hot {
        *per_page.entry(rid.page.0).or_insert(0) += 1;
    }
    let pages_with_hot = per_page.len();
    let hot_per_page =
        if pages_with_hot == 0 { 0.0 } else { hot.len() as f64 / pages_with_hot as f64 };
    let hot_utilization = if pages_with_hot == 0 {
        0.0
    } else {
        let width = table.tuple_width() as f64;
        per_page.values().map(|&n| n as f64 * width / page_size as f64).sum::<f64>()
            / pages_with_hot as f64
    };
    Ok(LocalityReport { hot_tuples: hot.len(), pages_with_hot, hot_per_page, hot_utilization })
}

/// Audits encoding waste by decoding up to `sample_limit` tuples with
/// `decode` and running the §4.1 analyzer.
pub fn audit_encoding(
    table: &Table,
    schema: &Schema,
    decode: impl Fn(&[u8]) -> Vec<Value>,
    sample_limit: usize,
) -> Result<SchemaReport> {
    let mut rows = Vec::new();
    // Early exit: once the sample is full there is no reason to keep
    // paying for heap pages.
    table.scan(|_, tuple| {
        if rows.len() < sample_limit {
            rows.push(decode(tuple));
        }
        rows.len() < sample_limit
    })?;
    Ok(analyze_table(schema, &rows))
}

/// Encoding-audit request: the logical schema, a tuple decoder, and a
/// row sample limit.
pub type EncodingAudit<'a> = (&'a Schema, &'a dyn Fn(&[u8]) -> Vec<Value>, usize);

/// Runs the full audit.
pub fn audit(
    table: &Table,
    index_names: &[&str],
    hot: Option<&[RecordId]>,
    encoding: Option<EncodingAudit<'_>>,
) -> Result<WasteReport> {
    Ok(WasteReport {
        table: table.name().to_string(),
        unused: audit_unused(table, index_names)?,
        locality: match hot {
            Some(h) => Some(audit_locality(table, h)?),
            None => None,
        },
        encoding: match encoding {
            Some((schema, decode, limit)) => Some(audit_encoding(table, schema, decode, limit)?),
            None => None,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{FieldSpec, IndexSpec};
    use nbb_encoding::{ColumnDef, DeclaredType};
    use nbb_storage::{BufferPool, DiskManager, InMemoryDisk};
    use std::sync::Arc;

    fn table() -> Table {
        let d1: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
        let d2: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
        let t = Table::create(
            "audit_me",
            24,
            Arc::new(BufferPool::new(d1, 64)),
            Arc::new(BufferPool::new(d2, 64)),
        )
        .unwrap();
        t.create_index(IndexSpec::cached("pk", FieldSpec::new(0, 8), vec![FieldSpec::new(8, 8)]))
            .unwrap();
        for i in 0..500u64 {
            let mut tu = Vec::new();
            tu.extend_from_slice(&i.to_be_bytes());
            tu.extend_from_slice(&(i % 4).to_le_bytes());
            tu.extend_from_slice(&[1u8; 8]);
            t.insert(&tu).unwrap();
        }
        t
    }

    #[test]
    fn unused_report_sees_heap_and_index() {
        let t = table();
        let r = audit_unused(&t, &["pk"]).unwrap();
        assert!(r.heap_pages > 1);
        assert!(r.heap_avg_fill > 0.5);
        assert_eq!(r.indexes.len(), 1);
        assert!(r.indexes[0].leaf_pages >= 1);
        assert!(r.indexes[0].cache_slots > 0, "free space must expose cache slots");
        assert!(r.indexes[0].pool.faults > 0, "index pages were cold-loaded at least once");
        assert_eq!(r.indexes[0].pool.wb_pending, 0, "nothing evicted dirty in this workload");
    }

    #[test]
    fn locality_detects_scatter_vs_cluster() {
        let t = table();
        // Scattered hot set: every 20th tuple.
        let mut all = Vec::new();
        t.scan(|rid, _| {
            all.push(rid);
            true
        })
        .unwrap();
        let scattered: Vec<_> = all.iter().copied().step_by(20).collect();
        let r1 = audit_locality(&t, &scattered).unwrap();
        assert!(r1.hot_utilization < 0.2, "scattered: {r1:?}");
        // Clustered hot set: a contiguous run.
        let clustered: Vec<_> = all[..25].to_vec();
        let r2 = audit_locality(&t, &clustered).unwrap();
        assert!(r2.hot_per_page > r1.hot_per_page, "clustered {r2:?} vs scattered {r1:?}");
        assert!(r2.hot_utilization > r1.hot_utilization);
    }

    #[test]
    fn empty_hot_set_is_safe() {
        let t = table();
        let r = audit_locality(&t, &[]).unwrap();
        assert_eq!(r.pages_with_hot, 0);
        assert_eq!(r.hot_per_page, 0.0);
    }

    #[test]
    fn encoding_audit_flags_waste() {
        let t = table();
        let schema = Schema {
            table: "audit_me".into(),
            columns: vec![
                ColumnDef::new("id", DeclaredType::Int64),
                ColumnDef::new("small", DeclaredType::Int64),
                ColumnDef::new("const", DeclaredType::Int64),
            ],
        };
        let decode = |b: &[u8]| {
            vec![
                Value::Int(i64::from_be_bytes(b[0..8].try_into().unwrap())),
                Value::Int(i64::from_le_bytes(b[8..16].try_into().unwrap())),
                Value::Int(i64::from_le_bytes(b[16..24].try_into().unwrap())),
            ]
        };
        let rep = audit_encoding(&t, &schema, decode, 1000).unwrap();
        assert_eq!(rep.rows, 500);
        // `small` has range 0..3 (2 bits), `const` is constant: big waste.
        assert!(rep.waste_fraction() > 0.3, "waste {}", rep.waste_fraction());
    }

    #[test]
    fn full_audit_renders_all_sections() {
        let t = table();
        let mut all = Vec::new();
        t.scan(|rid, _| {
            all.push(rid);
            true
        })
        .unwrap();
        let schema = Schema {
            table: "audit_me".into(),
            columns: vec![ColumnDef::new("id", DeclaredType::Int64)],
        };
        let decode: &dyn Fn(&[u8]) -> Vec<Value> =
            &|b: &[u8]| vec![Value::Int(i64::from_be_bytes(b[0..8].try_into().unwrap()))];
        let rep = audit(&t, &["pk"], Some(&all[..10]), Some((&schema, decode, 100))).unwrap();
        let text = rep.render();
        assert!(text.contains("[unused space]"));
        assert!(text.contains("[locality]"));
        assert!(text.contains("[encoding]"));
        assert!(text.contains("audit_me"));
    }

    #[test]
    fn batched_read_counters_render_when_nonzero() {
        let t = table();
        let mut rep = audit(&t, &["pk"], None, None).unwrap();
        let zero = rep.render();
        assert!(!zero.contains("batched reads"), "quiet counters must render nothing:\n{zero}");
        let pool = &mut rep.unused.indexes[0].pool;
        pool.read_batches = 3;
        pool.read_pages = 24;
        let text = rep.render();
        assert!(
            text.contains("batched reads: 24 pages in 3 batches (8.0 pages/read"),
            "batch coalescing line missing:\n{text}"
        );
    }
}
