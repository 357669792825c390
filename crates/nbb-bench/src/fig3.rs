//! The Figure 3 harness: access-based clustering of Wikipedia's
//! revision table.
//!
//! Four configurations over the same synthetic revision table and the
//! same 99.9%-hot lookup trace (§3.1):
//!
//! * `0%` — append-order placement: each page's latest revision is
//!   scattered ≈1 per data page;
//! * `54%`, `100%` — that fraction of hot tuples relocated
//!   (delete+append) to the heap tail;
//! * `Partition` — hot tuples in their own table with their own (small)
//!   index.
//!
//! All variants share one pair of constrained buffer pools, so wins come
//! from working-set shrinkage exactly as in the paper: clustering shrinks
//! the *heap* working set; partitioning additionally shrinks the *index*
//! working set ("reducing the index size … allows the entire index to
//! fit in RAM").

use nbb_core::db::{Database, DbConfig};
use nbb_core::table::{FieldSpec, IndexSpec, Table};
use nbb_storage::disk::DiskModel;
use nbb_storage::error::Result;
use nbb_storage::rid::RecordId;
use nbb_workload::{revision_lookup_trace, TraceOp, WikiGenerator, REVISION_ROW_WIDTH};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Experiment scale and resources.
#[derive(Debug, Clone)]
pub struct Fig3Config {
    /// Wiki pages (hot set size = one latest revision each).
    pub n_pages: u64,
    /// Revisions per page (20 → hot set is 5% of the table).
    pub revs_per_page: usize,
    /// Lookups in the measured trace.
    pub lookups: usize,
    /// Heap buffer-pool frames.
    pub heap_frames: usize,
    /// Index buffer-pool frames.
    pub index_frames: usize,
    /// Disk cost model, charged per counted page read and write.
    pub disk: DiskModel,
    /// Trace/generator seed.
    pub seed: u64,
}

impl Default for Fig3Config {
    fn default() -> Self {
        Fig3Config {
            n_pages: 2_000,
            revs_per_page: 20,
            lookups: 30_000,
            // Sized so that: the full-table index thrashes while the hot
            // partition's index fits (the paper's 27.1 GB vs 1.4 GB), and
            // the hot *heap* only partially fits even when clustered —
            // in the paper the data pages stay disk-resident, so the
            // Partition bar keeps paying some heap I/O.
            heap_frames: 24,
            index_frames: 10,
            disk: DiskModel::default(),
            seed: 11,
        }
    }
}

/// Which Figure 3 bar to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fig3Variant {
    /// Cluster the given fraction of hot tuples (0.0 = baseline).
    Cluster(f64),
    /// Separate hot partition with its own index.
    Partition,
}

impl Fig3Variant {
    /// Bar label as in the paper.
    pub fn label(&self) -> String {
        match self {
            Fig3Variant::Cluster(f) => format!("{:.0}%", f * 100.0),
            Fig3Variant::Partition => "Partition".to_string(),
        }
    }
}

/// One measured bar.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// Bar label.
    pub label: String,
    /// Mean cost per lookup in milliseconds (CPU + simulated I/O).
    pub cost_ms: f64,
    /// Measured CPU portion (ms).
    pub cpu_ms: f64,
    /// Simulated I/O portion (ms).
    pub io_ms: f64,
    /// Disk reads issued during the measured phase.
    pub disk_reads: u64,
    /// Heap pages of the (hot, cold-or-full) tables.
    pub heap_pages: (usize, usize),
    /// Index leaf pages of the (hot, cold-or-full) indexes.
    pub index_leaves: (usize, usize),
}

const REV_ID: FieldSpec = FieldSpec { offset: 0, len: 8 };

fn rev_index() -> IndexSpec {
    IndexSpec::plain("by_rev_id", REV_ID)
}

fn be_key(id: u64) -> [u8; 8] {
    id.to_be_bytes()
}

/// Builds the wiki, returns `(rows_in_insert_order, hot_rev_ids)`.
fn build_rows(cfg: &Fig3Config) -> (Vec<Vec<u8>>, Vec<u64>) {
    let mut gen = WikiGenerator::new(cfg.seed);
    let mut pages = gen.pages(cfg.n_pages);
    let revs = gen.revisions(&mut pages, cfg.revs_per_page);
    let rows: Vec<Vec<u8>> = revs
        .iter()
        .map(|r| {
            // Re-key on big-endian id so the index key is memcmp-ordered.
            let mut row = r.encode();
            row[..8].copy_from_slice(&be_key(r.id));
            row
        })
        .collect();
    let hot: Vec<u64> = pages.iter().map(|p| p.latest_rev).collect();
    (rows, hot)
}

fn trace(cfg: &Fig3Config) -> Vec<u64> {
    let mut gen = WikiGenerator::new(cfg.seed);
    let mut pages = gen.pages(cfg.n_pages);
    let revs = gen.revisions(&mut pages, cfg.revs_per_page);
    revision_lookup_trace(&pages, revs.len() as u64, cfg.lookups, 0.999, 0.5, cfg.seed ^ 0xF3)
        .into_iter()
        .map(|op| match op {
            TraceOp::RevisionLookup { rev_id } => rev_id,
            _ => unreachable!("revision traces only contain lookups"),
        })
        .collect()
}

/// Runs one Figure 3 variant end to end.
pub fn run_variant(cfg: &Fig3Config, variant: Fig3Variant) -> Result<Fig3Result> {
    let db = Database::open(DbConfig {
        page_size: 8192,
        heap_frames: cfg.heap_frames,
        index_frames: cfg.index_frames,
        ..DbConfig::default()
    });
    let (rows, hot_ids) = build_rows(cfg);
    let ops = trace(cfg);

    type LookupFn = Box<dyn Fn(u64) -> Result<bool>>;
    let (lookup, hot_table, main_table): (LookupFn, Arc<Table>, Arc<Table>);
    match variant {
        Fig3Variant::Cluster(fraction) => {
            let t = db.create_table("revision", REVISION_ROW_WIDTH)?;
            for row in &rows {
                t.insert(row)?;
            }
            t.create_index(rev_index())?;
            // Collect hot RIDs via the index, then relocate.
            let idx = t.index_tree("by_rev_id")?;
            let mut hot_rids: Vec<(u64, RecordId)> = Vec::with_capacity(hot_ids.len());
            for id in &hot_ids {
                let ptr = idx.tree().get(&be_key(*id))?.expect("hot revision indexed");
                hot_rids.push((*id, RecordId::from_u64(ptr)));
            }
            let n = (hot_rids.len() as f64 * fraction).round() as usize;
            for (_, rid) in hot_rids.iter().take(n) {
                t.relocate(*rid)?;
            }
            let tc = Arc::clone(&t);
            lookup = Box::new(move |rev_id: u64| {
                Ok(tc.index("by_rev_id")?.get(&be_key(rev_id))?.is_some())
            });
            hot_table = Arc::clone(&t);
            main_table = t;
        }
        Fig3Variant::Partition => {
            let hot_set: std::collections::HashSet<u64> = hot_ids.iter().copied().collect();
            let hot = db.create_table("revision_hot", REVISION_ROW_WIDTH)?;
            let cold = db.create_table("revision_cold", REVISION_ROW_WIDTH)?;
            for row in &rows {
                let id = u64::from_be_bytes(row[..8].try_into().expect("8-byte key"));
                if hot_set.contains(&id) {
                    hot.insert(row)?;
                } else {
                    cold.insert(row)?;
                }
            }
            hot.create_index(rev_index())?;
            cold.create_index(rev_index())?;
            let (h, c) = (Arc::clone(&hot), Arc::clone(&cold));
            lookup = Box::new(move |rev_id: u64| {
                if h.index("by_rev_id")?.get(&be_key(rev_id))?.is_some() {
                    return Ok(true);
                }
                Ok(c.index("by_rev_id")?.get(&be_key(rev_id))?.is_some())
            });
            hot_table = hot;
            main_table = cold;
        }
    }

    // Warm-up pass over a slice of the trace, then measure.
    for rev_id in ops.iter().take(ops.len() / 10) {
        black_box(lookup(*rev_id)?);
    }
    db.reset_stats();
    let start = Instant::now();
    let mut found = 0u64;
    for rev_id in &ops {
        if lookup(*rev_id)? {
            found += 1;
        }
    }
    let cpu_ns = start.elapsed().as_nanos() as f64;
    black_box(found);
    assert!(found as usize >= ops.len() * 99 / 100, "trace lookups must resolve");

    let (heap_io, index_io) = db.io_stats();
    // Every counted page read or write pays the model's cost once.
    let (reads, writes) = (heap_io.reads + index_io.reads, heap_io.writes + index_io.writes);
    let io_ns = (reads * cfg.disk.read_ns + writes * cfg.disk.write_ns) as f64;
    let n = ops.len() as f64;
    let hot_stats = hot_table.index_tree("by_rev_id")?.tree().index_stats()?;
    let main_stats = main_table.index_tree("by_rev_id")?.tree().index_stats()?;
    Ok(Fig3Result {
        label: variant.label(),
        cost_ms: (cpu_ns + io_ns) / n / 1e6,
        cpu_ms: cpu_ns / n / 1e6,
        io_ms: io_ns / n / 1e6,
        disk_reads: reads,
        heap_pages: (hot_table.heap().page_count(), main_table.heap().page_count()),
        index_leaves: (hot_stats.leaf_pages, main_stats.leaf_pages),
    })
}

/// Runs all four bars.
pub fn run_all(cfg: &Fig3Config) -> Result<Vec<Fig3Result>> {
    [
        Fig3Variant::Cluster(0.0),
        Fig3Variant::Cluster(0.54),
        Fig3Variant::Cluster(1.0),
        Fig3Variant::Partition,
    ]
    .into_iter()
    .map(|v| run_variant(cfg, v))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Fig3Config {
        Fig3Config {
            n_pages: 300,
            revs_per_page: 10,
            lookups: 3_000,
            heap_frames: 24,
            index_frames: 8,
            disk: DiskModel { read_ns: 1_000_000, write_ns: 1_000_000 },
            seed: 7,
        }
    }

    #[test]
    fn figure3_ordering_holds_at_small_scale() {
        let cfg = tiny();
        let results = run_all(&cfg).unwrap();
        assert_eq!(results.len(), 4);
        let c0 = results[0].cost_ms;
        let c100 = results[2].cost_ms;
        let part = results[3].cost_ms;
        assert!(c100 < c0, "full clustering must beat baseline: {c100:.3} vs {c0:.3}");
        assert!(part < c100, "partition must beat clustering: {part:.3} vs {c100:.3}");
        assert!(part * 2.0 < c0, "partition should win big: {part:.3} vs {c0:.3}");
    }

    #[test]
    fn partition_shrinks_hot_index() {
        let cfg = tiny();
        let p = run_variant(&cfg, Fig3Variant::Partition).unwrap();
        let (hot_leaves, cold_leaves) = p.index_leaves;
        assert!(
            hot_leaves * 4 < cold_leaves,
            "hot index must be much smaller: {hot_leaves} vs {cold_leaves}"
        );
    }

    #[test]
    fn clustering_reduces_disk_reads() {
        let cfg = tiny();
        let base = run_variant(&cfg, Fig3Variant::Cluster(0.0)).unwrap();
        let full = run_variant(&cfg, Fig3Variant::Cluster(1.0)).unwrap();
        assert!(
            full.disk_reads < base.disk_reads,
            "clustering must cut I/O: {} vs {}",
            full.disk_reads,
            base.disk_reads
        );
    }
}
