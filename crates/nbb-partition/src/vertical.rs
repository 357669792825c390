//! Vertical partitioning (§3.2): splitting columns across partitions.
//!
//! "Separating the cached fields from the uncached fields can complement
//! index caching … splitting the table based on the field update rate
//! can increase the write density per page. Weighing the benefit of
//! vertical partitioning against cost of merging the partitions together
//! makes this problem non-trivial."
//!
//! The cost model here makes that trade-off explicit: a query touching
//! columns `C` reads, for every partition it intersects, the partition's
//! full row width, plus a per-extra-partition merge penalty. The greedy
//! optimizer starts from one-column-per-partition and merges groups
//! while the modeled workload cost decreases.

use nbb_storage::error::Result;
use nbb_storage::heap::HeapFile;
use nbb_storage::rid::RecordId;
use parking_lot::Mutex;

/// A query class: the set of columns it touches and its frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryClass {
    /// Column indexes accessed.
    pub columns: Vec<usize>,
    /// Relative frequency (any non-negative scale).
    pub weight: f64,
}

/// A partitioning: disjoint column groups covering all columns.
pub type Partitioning = Vec<Vec<usize>>;

/// Modeled cost of running `workload` against `partitioning`:
/// `Σ weight · (bytes of touched partitions + merge_penalty · extra
/// partitions)`.
pub fn evaluate(
    partitioning: &Partitioning,
    col_widths: &[usize],
    workload: &[QueryClass],
    merge_penalty: f64,
) -> f64 {
    let mut cost = 0.0;
    for q in workload {
        let mut touched = 0usize;
        let mut bytes = 0usize;
        for group in partitioning {
            if group.iter().any(|c| q.columns.contains(c)) {
                touched += 1;
                bytes += group.iter().map(|&c| col_widths[c]).sum::<usize>();
            }
        }
        cost += q.weight * (bytes as f64 + merge_penalty * touched.saturating_sub(1) as f64);
    }
    cost
}

/// Greedy partitioner: begin fully decomposed, merge the pair of groups
/// whose union lowers workload cost the most, repeat until no merge
/// helps.
pub fn optimize(col_widths: &[usize], workload: &[QueryClass], merge_penalty: f64) -> Partitioning {
    let ncols = col_widths.len();
    for q in workload {
        for &c in &q.columns {
            assert!(c < ncols, "query references column {c} beyond schema width {ncols}");
        }
    }
    let mut parts: Partitioning = (0..ncols).map(|c| vec![c]).collect();
    let mut cost = evaluate(&parts, col_widths, workload, merge_penalty);
    loop {
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..parts.len() {
            for j in i + 1..parts.len() {
                let mut trial = parts.clone();
                let merged: Vec<usize> = trial[i].iter().chain(trial[j].iter()).copied().collect();
                trial[i] = merged;
                trial.remove(j);
                let c = evaluate(&trial, col_widths, workload, merge_penalty);
                if c < cost - 1e-9 && best.is_none_or(|(_, _, bc)| c < bc) {
                    best = Some((i, j, c));
                }
            }
        }
        match best {
            Some((i, j, c)) => {
                let moved = parts.remove(j);
                parts[i].extend(moved);
                parts[i].sort_unstable();
                cost = c;
            }
            None => break,
        }
    }
    parts.sort_by_key(|g| g.first().copied().unwrap_or(0));
    parts
}

/// A table stored column-group-wise over one heap per partition.
///
/// Rows are fixed-width; inserting splits the row into per-partition
/// projections, reading merges them back. A row directory keeps the
/// per-partition RIDs aligned.
pub struct VerticalTable {
    partitioning: Partitioning,
    col_offsets: Vec<usize>,
    col_widths: Vec<usize>,
    heaps: Vec<HeapFile>,
    /// Row id → its RID in each partition's heap.
    rows: Mutex<Vec<Vec<RecordId>>>,
}

impl VerticalTable {
    /// Creates a vertical table: one heap per column group.
    ///
    /// `col_widths` are the fixed byte widths of each column in row
    /// order; `heaps` must have one entry per group of `partitioning`.
    pub fn new(partitioning: Partitioning, col_widths: Vec<usize>, heaps: Vec<HeapFile>) -> Self {
        assert_eq!(partitioning.len(), heaps.len(), "one heap per partition");
        let mut seen = vec![false; col_widths.len()];
        for g in &partitioning {
            for &c in g {
                assert!(!seen[c], "column {c} in two partitions");
                seen[c] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "partitioning must cover all columns");
        let mut col_offsets = Vec::with_capacity(col_widths.len());
        let mut off = 0;
        for w in &col_widths {
            col_offsets.push(off);
            off += w;
        }
        VerticalTable { partitioning, col_offsets, col_widths, heaps, rows: Default::default() }
    }

    /// Full row width in bytes.
    pub fn row_width(&self) -> usize {
        self.col_widths.iter().sum()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.lock().len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column groups.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    fn project(&self, row: &[u8], group: &[usize]) -> Vec<u8> {
        let mut out = Vec::with_capacity(group.iter().map(|&c| self.col_widths[c]).sum());
        for &c in group {
            out.extend_from_slice(
                &row[self.col_offsets[c]..self.col_offsets[c] + self.col_widths[c]],
            );
        }
        out
    }

    /// Inserts a full row, returning its row id.
    pub fn insert(&self, row: &[u8]) -> Result<usize> {
        assert_eq!(row.len(), self.row_width(), "row width mismatch");
        let mut rids: Vec<RecordId> = Vec::with_capacity(self.heaps.len());
        for (group, heap) in self.partitioning.iter().zip(&self.heaps) {
            rids.push(heap.insert(&self.project(row, group))?);
        }
        let mut rows = self.rows.lock();
        rows.push(rids);
        Ok(rows.len() - 1)
    }

    /// Reads selected columns of a row, touching only the partitions
    /// that contain them. Returns the values in the order requested and
    /// the number of partitions touched (the merge cost driver).
    pub fn read_columns(&self, row: usize, columns: &[usize]) -> Result<(Vec<Vec<u8>>, usize)> {
        let rids = (self.rows.lock().get(row).cloned())
            .ok_or_else(|| nbb_storage::error::StorageError::Corrupt(format!("row {row}")))?;
        let mut touched = 0usize;
        let mut fetched: Vec<Option<Vec<u8>>> = vec![None; self.col_widths.len()];
        for (gi, group) in self.partitioning.iter().enumerate() {
            if !group.iter().any(|c| columns.contains(c)) {
                continue;
            }
            touched += 1;
            let bytes = self.heaps[gi].get(rids[gi])?;
            let mut off = 0;
            for &c in group {
                fetched[c] = Some(bytes[off..off + self.col_widths[c]].to_vec());
                off += self.col_widths[c];
            }
        }
        let out = columns
            .iter()
            .map(|&c| fetched[c].clone().expect("column fetched with its group"))
            .collect();
        Ok((out, touched))
    }

    /// Reconstructs a full row (touching every partition — the merge
    /// cost the paper warns about).
    pub fn read_row(&self, row: usize) -> Result<Vec<u8>> {
        let all: Vec<usize> = (0..self.col_widths.len()).collect();
        let (cols, _) = self.read_columns(row, &all)?;
        let mut out = Vec::with_capacity(self.row_width());
        for c in cols {
            out.extend_from_slice(&c);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbb_storage::buffer::BufferPool;
    use nbb_storage::disk::{DiskManager, InMemoryDisk};
    use std::sync::Arc;

    fn heap() -> HeapFile {
        let disk: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(1024));
        HeapFile::create(Arc::new(BufferPool::new(disk, 32))).unwrap()
    }

    #[test]
    fn evaluate_prefers_collocating_coaccessed_columns() {
        let widths = [8usize, 8, 100];
        // One query always reads columns 0 and 1 together; col 2 unread.
        let wl = [QueryClass { columns: vec![0, 1], weight: 1.0 }];
        let split: Partitioning = vec![vec![0], vec![1], vec![2]];
        let merged: Partitioning = vec![vec![0, 1], vec![2]];
        let c_split = evaluate(&split, &widths, &wl, 50.0);
        let c_merged = evaluate(&merged, &widths, &wl, 50.0);
        assert!(c_merged < c_split, "{c_merged} vs {c_split}");
    }

    #[test]
    fn evaluate_prefers_splitting_off_cold_wide_columns() {
        let widths = [8usize, 200];
        let wl = [QueryClass { columns: vec![0], weight: 1.0 }];
        let together: Partitioning = vec![vec![0, 1]];
        let apart: Partitioning = vec![vec![0], vec![1]];
        assert!(evaluate(&apart, &widths, &wl, 10.0) < evaluate(&together, &widths, &wl, 10.0));
    }

    #[test]
    fn optimize_separates_hot_narrow_from_cold_wide() {
        // The §3.2 index-caching complement: cached fields (0,1) are hot,
        // the blob (2) is cold.
        let widths = [8usize, 9, 500];
        let wl = [
            QueryClass { columns: vec![0, 1], weight: 100.0 },
            QueryClass { columns: vec![0, 1, 2], weight: 1.0 },
        ];
        let parts = optimize(&widths, &wl, 20.0);
        assert_eq!(parts, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn optimize_keeps_everything_together_when_queries_want_full_rows() {
        let widths = [8usize, 8, 8];
        let wl = [QueryClass { columns: vec![0, 1, 2], weight: 1.0 }];
        let parts = optimize(&widths, &wl, 100.0);
        assert_eq!(parts, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn optimize_with_empty_workload_stays_decomposed() {
        let widths = [4usize, 4];
        let parts = optimize(&widths, &[], 10.0);
        assert_eq!(parts.len(), 2, "no evidence to merge: {parts:?}");
    }

    #[test]
    fn vertical_table_round_trip() {
        let parts: Partitioning = vec![vec![0, 2], vec![1]];
        let widths = vec![4usize, 8, 4];
        let t = VerticalTable::new(parts, widths, vec![heap(), heap()]);
        let row: Vec<u8> = (0u8..16).collect();
        let id = t.insert(&row).unwrap();
        assert_eq!(t.read_row(id).unwrap(), row);
    }

    #[test]
    fn read_columns_touches_minimal_partitions() {
        let parts: Partitioning = vec![vec![0], vec![1], vec![2]];
        let widths = vec![2usize, 2, 2];
        let t = VerticalTable::new(parts, widths, vec![heap(), heap(), heap()]);
        let id = t.insert(&[1, 1, 2, 2, 3, 3]).unwrap();
        let (vals, touched) = t.read_columns(id, &[1]).unwrap();
        assert_eq!(vals, vec![vec![2, 2]]);
        assert_eq!(touched, 1);
        let (vals, touched) = t.read_columns(id, &[0, 2]).unwrap();
        assert_eq!(vals, vec![vec![1, 1], vec![3, 3]]);
        assert_eq!(touched, 2);
    }

    #[test]
    fn many_rows_stay_aligned_across_partitions() {
        let parts: Partitioning = vec![vec![0], vec![1]];
        let t = VerticalTable::new(parts, vec![8, 24], vec![heap(), heap()]);
        let mut ids = Vec::new();
        for i in 0..300u64 {
            let mut row = i.to_le_bytes().to_vec();
            row.extend_from_slice(&[i as u8; 24]);
            ids.push(t.insert(&row).unwrap());
        }
        for (i, id) in ids.iter().enumerate() {
            let (vals, _) = t.read_columns(*id, &[0]).unwrap();
            assert_eq!(u64::from_le_bytes(vals[0][..8].try_into().unwrap()), i as u64);
        }
        assert_eq!(t.len(), 300);
    }

    #[test]
    #[should_panic(expected = "cover all columns")]
    fn partitioning_must_cover_schema() {
        let _ = VerticalTable::new(vec![vec![0]], vec![4, 4], vec![heap()]);
    }
}
