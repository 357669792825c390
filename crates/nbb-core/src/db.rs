//! Database facade: pools, disks, and named tables in one place.

use crate::table::Table;
use nbb_storage::disk::{DiskManager, InMemoryDisk};
use nbb_storage::error::{Result, StorageError};
use nbb_storage::lockrank;
use nbb_storage::stats::{IoStats, PoolStats};
use nbb_storage::{BufferPool, PoolOptions};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Configuration for a [`Database`].
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Page size for both data and index pages.
    pub page_size: usize,
    /// Buffer-pool frames for data pages.
    pub heap_frames: usize,
    /// Buffer-pool frames for index pages (separate pool: the Figure 3
    /// experiments size this independently).
    pub index_frames: usize,
    /// Target lock-stripe shard count for each buffer pool. Clamped so
    /// every shard keeps at least
    /// [`nbb_storage::MIN_FRAMES_PER_SHARD`] frames — tiny experiment
    /// pools degrade gracefully to a single stripe while production
    /// pools fan out. Concurrent readers of distinct pages contend only
    /// within a stripe.
    pub pool_shards: usize,
    /// Write-behind depth for each buffer pool, in pages: the budget,
    /// counted in bytes, of the store below the frames. Dirty eviction
    /// victims are memcpy'd into it (a page each) and written to disk by
    /// a background flusher, so victim reclaim never waits on the
    /// device; and an update of a row the leaf cache holds, whose heap
    /// page is out of the pool, leaves its bytes there as a slot patch
    /// (its tuples' bytes) instead of reading the page, applied when
    /// the page is next read. `0` disables write-behind — every dirty
    /// eviction pays a synchronous write and every update reads its
    /// page, the pre-overlapped-I/O behavior. Durability is unchanged
    /// either way: [`Database::persist`] and [`Database::close`] drain
    /// the store before returning.
    pub write_behind: usize,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            page_size: 8192,
            heap_frames: 1024,
            index_frames: 1024,
            pool_shards: nbb_storage::DEFAULT_POOL_SHARDS,
            write_behind: nbb_storage::DEFAULT_WRITE_BEHIND,
        }
    }
}

impl DbConfig {
    /// Builds a pool of `frames` frames over `disk` with this config's
    /// shard target (clamped by the pool's own headroom policy,
    /// [`nbb_storage::clamp_shards`]) and write-behind depth.
    fn build_pool(&self, disk: &Arc<dyn DiskManager>, frames: usize) -> Arc<BufferPool> {
        let shards = nbb_storage::clamp_shards(frames, self.pool_shards);
        Arc::new(BufferPool::with_pool_options(
            Arc::clone(disk),
            frames,
            PoolOptions { shards, write_behind: self.write_behind },
        ))
    }
}

/// A small database: two buffer pools over two disks and named tables.
pub struct Database {
    config: DbConfig,
    heap_pool: Arc<BufferPool>,
    index_pool: Arc<BufferPool>,
    heap_disk: Arc<dyn DiskManager>,
    index_disk: Arc<dyn DiskManager>,
    tables: RwLock<HashMap<String, Arc<Table>>>,
}

impl Database {
    /// Opens an empty database per `config` over two in-memory disks.
    /// A cost-modelled or scripted database passes its own disks to
    /// [`Database::with_disks`].
    pub fn open(config: DbConfig) -> Self {
        let heap_disk = Arc::new(InMemoryDisk::new(config.page_size));
        let index_disk = Arc::new(InMemoryDisk::new(config.page_size));
        let db = Self::attach_disks(config, heap_disk, index_disk)
            // nbb-lint: allow(unwrap, fresh in-memory disks cannot fail validation)
            .expect("fresh in-memory disks are always attachable");
        // nbb-lint: allow(unwrap, fresh in-memory disks cannot fail allocation)
        db.reserve_catalog_header().expect("fresh in-memory disks always allocate");
        db
    }

    /// Opens an empty database over caller-supplied disks (e.g.
    /// [`nbb_storage::FileDisk`]s for real persistence). The disks must
    /// be empty; use [`Database::reopen`] for populated ones.
    pub fn with_disks(
        config: DbConfig,
        heap_disk: Arc<dyn DiskManager>,
        index_disk: Arc<dyn DiskManager>,
    ) -> Result<Self> {
        for (name, disk) in [("heap", &heap_disk), ("index", &index_disk)] {
            if disk.num_pages() != 0 {
                return Err(StorageError::Corrupt(format!(
                    "with_disks requires empty disks, but the {name} disk holds {} page(s); \
                     use Database::reopen for populated disks",
                    disk.num_pages()
                )));
            }
        }
        let db = Self::attach_disks(config, heap_disk, index_disk)?;
        db.reserve_catalog_header()?;
        Ok(db)
    }

    /// The one construction path: validates page sizes and builds both
    /// pools per `config`. `open`, `with_disks`, and `reopen` all
    /// funnel through here. Side-effect free on the disks — probing a
    /// populated (or wrong) disk via `reopen` must not mutate it.
    fn attach_disks(
        config: DbConfig,
        heap_disk: Arc<dyn DiskManager>,
        index_disk: Arc<dyn DiskManager>,
    ) -> Result<Self> {
        Self::check_page_sizes(&config, &heap_disk, &index_disk)?;
        let heap_pool = config.build_pool(&heap_disk, config.heap_frames);
        let index_pool = config.build_pool(&index_disk, config.index_frames);
        Ok(Database {
            config,
            heap_pool,
            index_pool,
            heap_disk,
            index_disk,
            tables: RwLock::with_rank(lockrank::DB_TABLES, HashMap::new()),
        })
    }

    fn check_page_sizes(
        config: &DbConfig,
        heap_disk: &Arc<dyn DiskManager>,
        index_disk: &Arc<dyn DiskManager>,
    ) -> Result<()> {
        if heap_disk.page_size() != config.page_size || index_disk.page_size() != config.page_size {
            return Err(StorageError::Corrupt(format!(
                "disk page sizes (heap {}, index {}) do not match config page size {}",
                heap_disk.page_size(),
                index_disk.page_size(),
                config.page_size
            )));
        }
        Ok(())
    }

    /// Reserves heap page 0 as the catalog header (see catalog.rs) on a
    /// fresh heap disk. Only the fresh-disk paths (`open`, `with_disks`)
    /// call this; `reopen` expects the header to already exist.
    fn reserve_catalog_header(&self) -> Result<()> {
        if self.heap_disk.num_pages() == 0 {
            self.heap_disk.allocate()?;
        }
        Ok(())
    }

    /// Persists the catalog (all table/index metadata) and flushes both
    /// pools, so [`Database::reopen`] over the same disks restores every
    /// table. Each persist writes fresh payload chunks; superseded
    /// chunks become dead pages.
    ///
    /// The pool flushes are full durability barriers: each drains its
    /// write-behind queue (pages evicted dirty but not yet written by
    /// the background flusher) *before* flushing resident dirty frames,
    /// so after `persist` returns every committed byte is on its disk.
    pub fn persist(&self) -> Result<()> {
        use crate::catalog::{encode, Catalog, TableEntry};
        let tables = self.tables.read();
        let mut entries: Vec<TableEntry> = tables
            .values()
            .map(|t| TableEntry {
                name: t.name().to_string(),
                tuple_width: t.tuple_width() as u32,
                heap_pages: t.heap().page_ids(),
                indexes: t.index_specs(),
            })
            .collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        let payload = encode(&Catalog { tables: entries });

        // Write payload chunks to freshly-allocated heap-disk pages.
        let page_size = self.config.page_size;
        let nchunks = payload.len().div_ceil(page_size).max(1);
        let mut first_chunk = None;
        for i in 0..nchunks {
            let pid = self.heap_disk.allocate()?;
            if first_chunk.is_none() {
                first_chunk = Some(pid);
            }
            let mut page = nbb_storage::Page::new(page_size);
            let start = i * page_size;
            let end = (start + page_size).min(payload.len());
            page.bytes_mut()[..end - start].copy_from_slice(&payload[start..end]);
            self.heap_disk.write(pid, &page)?;
        }
        // Header page 0: magic | len | first_chunk | nchunks.
        let mut header = nbb_storage::Page::new(page_size);
        header.write_u32(0, 0x6E62_6200);
        header.write_u64(4, payload.len() as u64);
        // nbb-lint: allow(unwrap, nchunks >= 1 so the loop set first_chunk)
        header.write_u64(12, first_chunk.expect("at least one chunk").0);
        header.write_u32(20, nchunks as u32);
        self.heap_disk.write(nbb_storage::PageId(0), &header)?;

        self.heap_pool.flush_all()?;
        self.index_pool.flush_all()?;
        Ok(())
    }

    /// Reopens a persisted database: reads the catalog from the heap
    /// disk and reattaches every table (heaps via page lists, indexes
    /// via [`nbb_btree::BTree::open`]; persisted cache bytes are never
    /// trusted, since a leaf read back from a device is not until a
    /// populate resets it).
    ///
    /// Reads the disks directly, so the previous owner of these disks
    /// must have flushed through [`Database::persist`] or
    /// [`Database::close`] (both drain write-behind); a still-live
    /// `Database` over the same disks may hold newer bytes in its
    /// pools or write-behind queues than `reopen` can see.
    pub fn reopen(
        config: DbConfig,
        heap_disk: Arc<dyn DiskManager>,
        index_disk: Arc<dyn DiskManager>,
    ) -> Result<Self> {
        // Validate the catalog before attach_disks allocates two full
        // frame sets — a failed probe should cost a header read, not
        // megabytes of zeroed pool pages.
        let page_size = config.page_size;
        Self::check_page_sizes(&config, &heap_disk, &index_disk)?;
        let mut header = nbb_storage::Page::new(page_size);
        heap_disk.read(nbb_storage::PageId(0), &mut header)?;
        if header.read_u32(0) != 0x6E62_6200 {
            return Err(StorageError::Corrupt("no catalog on this disk".into()));
        }
        let len = header.read_u64(4) as usize;
        let first_chunk = header.read_u64(12);
        let nchunks = header.read_u32(20) as usize;
        let mut payload = Vec::with_capacity(len);
        let mut buf = nbb_storage::Page::new(page_size);
        for i in 0..nchunks {
            heap_disk.read(nbb_storage::PageId(first_chunk + i as u64), &mut buf)?;
            let take = (len - payload.len()).min(page_size);
            payload.extend_from_slice(&buf.bytes()[..take]);
        }
        let catalog = crate::catalog::decode(&payload)?;
        let db = Self::attach_disks(config, heap_disk, index_disk)?;
        for entry in catalog.tables {
            let heap = nbb_storage::HeapFile::attach(Arc::clone(&db.heap_pool), entry.heap_pages)?;
            let table = Table::attach(
                &entry.name,
                entry.tuple_width as usize,
                heap,
                Arc::clone(&db.index_pool),
                entry.indexes,
            )?;
            db.tables.write().insert(entry.name, Arc::new(table));
        }
        Ok(db)
    }

    /// The configuration in effect.
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    /// Creates a table of fixed-width tuples.
    pub fn create_table(&self, name: &str, tuple_width: usize) -> Result<Arc<Table>> {
        let mut tables = self.tables.write();
        if tables.contains_key(name) {
            return Err(StorageError::Corrupt(format!("table {name} already exists")));
        }
        let t = Arc::new(Table::create(
            name,
            tuple_width,
            Arc::clone(&self.heap_pool),
            Arc::clone(&self.index_pool),
        )?);
        tables.insert(name.to_string(), Arc::clone(&t));
        Ok(t)
    }

    /// Creates a table from a typed [`crate::row::RowSchema`]: the
    /// table takes the schema's name and derived tuple width, and rows
    /// can then be encoded/decoded through the schema instead of
    /// hand-packed bytes.
    pub fn create_table_with(&self, rows: &crate::row::RowSchema) -> Result<Arc<Table>> {
        self.create_table(rows.table_name(), rows.tuple_width())
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::Corrupt(format!("no table named {name}")))
    }

    /// Table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// The data-page buffer pool.
    pub fn heap_pool(&self) -> &Arc<BufferPool> {
        &self.heap_pool
    }

    /// The index-page buffer pool.
    pub fn index_pool(&self) -> &Arc<BufferPool> {
        &self.index_pool
    }

    /// `(heap, index)` buffer pool counters.
    pub fn pool_stats(&self) -> (PoolStats, PoolStats) {
        (self.heap_pool.stats(), self.index_pool.stats())
    }

    /// `(heap, index)` disk counters: pages read and written.
    pub fn io_stats(&self) -> (IoStats, IoStats) {
        (self.heap_disk.stats(), self.index_disk.stats())
    }

    /// Closes the database: persists the catalog and flushes both pools
    /// — including draining their write-behind queues — then drops the
    /// in-memory state. The error-visible durability barrier: dropping
    /// a `Database` without `close` still drains write-behind (the
    /// pools' drop does), but swallows I/O errors and does not flush
    /// resident dirty frames or the catalog.
    pub fn close(self) -> Result<()> {
        self.persist()
    }

    /// Zeroes all pool and disk counters (between experiment phases).
    pub fn reset_stats(&self) {
        self.heap_pool.reset_stats();
        self.index_pool.reset_stats();
        self.heap_disk.reset_stats();
        self.index_disk.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{FieldSpec, IndexSpec};

    #[test]
    fn create_and_fetch_tables() {
        let db = Database::open(DbConfig::default());
        db.create_table("a", 16).unwrap();
        db.create_table("b", 32).unwrap();
        assert_eq!(db.table_names(), vec!["a", "b"]);
        assert_eq!(db.table("a").unwrap().tuple_width(), 16);
        assert!(db.table("c").is_err());
        assert!(db.create_table("a", 8).is_err(), "duplicate name");
    }

    #[test]
    fn tiny_pools_force_device_reads() {
        let db = Database::open(DbConfig {
            page_size: 4096,
            heap_frames: 2,
            index_frames: 2,
            ..DbConfig::default()
        });
        let t = db.create_table("t", 64).unwrap();
        t.create_index(IndexSpec::plain("pk", FieldSpec::new(0, 8))).unwrap();
        for i in 0..500u64 {
            let mut tu = i.to_be_bytes().to_vec();
            tu.extend_from_slice(&[0u8; 56]);
            t.insert(&tu).unwrap();
        }
        // Land the inserts' dirty evictions on the disk: a page still in
        // the write-behind queue would serve the lookups' faults below
        // without a device read.
        db.persist().unwrap();
        db.reset_stats();
        for i in (0..500u64).step_by(7) {
            t.index("pk").unwrap().get(&i.to_be_bytes()).unwrap().unwrap();
        }
        let (heap_io, index_io) = db.io_stats();
        // Tiny pools force disk reads.
        assert!(heap_io.reads + index_io.reads > 0);
    }

    #[test]
    fn reopen_probe_does_not_mutate_an_empty_disk() {
        use nbb_storage::InMemoryDisk;
        let heap: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(8192));
        let index: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(8192));
        // Probing an empty disk for a catalog fails...
        assert!(
            Database::reopen(DbConfig::default(), Arc::clone(&heap), Arc::clone(&index)).is_err()
        );
        // ...and must leave the disk untouched, so with_disks still works.
        assert_eq!(heap.num_pages(), 0, "reopen must not allocate on failure");
        let db = Database::with_disks(DbConfig::default(), heap, index).unwrap();
        db.create_table("t", 8).unwrap();
    }

    #[test]
    fn pool_shards_knob_applies_with_clamping() {
        let db = Database::open(DbConfig { pool_shards: 4, ..DbConfig::default() });
        assert_eq!(db.heap_pool().shards(), 4);
        assert_eq!(db.index_pool().shards(), 4);
        // Tiny pools clamp to one stripe regardless of the knob.
        let db = Database::open(DbConfig {
            heap_frames: 8,
            index_frames: 8,
            pool_shards: 8,
            ..DbConfig::default()
        });
        assert_eq!(db.heap_pool().shards(), 1);
    }

    #[test]
    fn write_behind_knob_applies_and_close_is_a_flush_barrier() {
        use nbb_storage::InMemoryDisk;
        // Knob: 0 disables, default threads through to both pools.
        let db = Database::open(DbConfig { write_behind: 0, ..DbConfig::default() });
        assert_eq!(db.heap_pool().write_behind(), 0);
        assert_eq!(db.index_pool().write_behind(), 0);

        // Tiny pools force dirty evictions into the write-behind queue;
        // close() must drain it so reopen sees every row.
        let heap: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
        let index: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
        let config =
            DbConfig { page_size: 4096, heap_frames: 4, index_frames: 4, ..DbConfig::default() };
        let db =
            Database::with_disks(config.clone(), Arc::clone(&heap), Arc::clone(&index)).unwrap();
        assert_eq!(db.heap_pool().write_behind(), nbb_storage::DEFAULT_WRITE_BEHIND);
        let t = db.create_table("t", 16).unwrap();
        for i in 0..500u64 {
            let mut tu = i.to_be_bytes().to_vec();
            tu.extend_from_slice(&[7u8; 8]);
            t.insert(&tu).unwrap();
        }
        db.close().unwrap();

        let db = Database::reopen(config, heap, index).unwrap();
        let t = db.table("t").unwrap();
        let mut rows = 0u64;
        let mut sum = 0u64;
        t.scan(|_, tuple| {
            rows += 1;
            sum += u64::from_be_bytes(tuple[..8].try_into().unwrap());
            true
        })
        .unwrap();
        assert_eq!(rows, 500, "close must drain write-behind before reopen");
        assert_eq!(sum, (0..500).sum::<u64>());
    }

    /// The catalog's payload as the last persist wrote it.
    fn catalog_bytes(heap: &Arc<dyn DiskManager>) -> Vec<u8> {
        let mut header = nbb_storage::Page::new(heap.page_size());
        heap.read(nbb_storage::PageId(0), &mut header).unwrap();
        let (len, first) = (header.read_u64(4) as usize, header.read_u64(12));
        let mut out = Vec::new();
        let mut page = nbb_storage::Page::new(heap.page_size());
        for pid in first.. {
            if out.len() == len {
                return out;
            }
            heap.read(nbb_storage::PageId(pid), &mut page).unwrap();
            let take = (len - out.len()).min(page.size());
            out.extend_from_slice(&page.bytes()[..take]);
        }
        unreachable!("the loop returns once the payload is read")
    }

    #[test]
    fn whole_row_entries_are_derived_again_on_reopen_from_unchanged_catalog_bytes() {
        use nbb_storage::InMemoryDisk;
        let heap: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
        let index: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
        let config =
            DbConfig { page_size: 4096, heap_frames: 64, index_frames: 64, ..DbConfig::default() };
        let row = |k: u64| {
            let mut r = k.to_be_bytes().to_vec();
            r.extend((0..56u64).map(|i| (k.wrapping_mul(31) + i) as u8));
            r
        };
        let keys: Vec<[u8; 8]> = (0..2_000u64).step_by(13).map(u64::to_be_bytes).collect();
        let spec = IndexSpec::cached("pk", FieldSpec::new(0, 8), vec![FieldSpec::new(8, 16)]);
        let written = {
            let db = Database::with_disks(config.clone(), Arc::clone(&heap), Arc::clone(&index))
                .unwrap();
            let t = db.create_table("t", 64).unwrap();
            t.insert_many(&(0..2_000u64).map(row).collect::<Vec<_>>()).unwrap();
            t.create_index(spec.clone()).unwrap();
            let pk = t.index("pk").unwrap();
            assert_eq!(pk.tree().cache_config().unwrap().payload_size, 56);
            pk.get_many(&keys).unwrap();
            db.persist().unwrap();
            catalog_bytes(&heap)
        };
        let catalog = crate::catalog::decode(&written).unwrap();
        assert_eq!(catalog.tables[0].tuple_width, 64);
        assert_eq!(catalog.tables[0].indexes[0].0, spec, "the catalog stores the spec as given");

        let db = Database::reopen(config, Arc::clone(&heap), index).unwrap();
        let t = db.table("t").unwrap();
        let pk = t.index("pk").unwrap();
        assert_eq!(pk.tree().cache_config().unwrap().payload_size, 56, "derived again");
        let cold = pk.get_many(&keys).unwrap();
        let before = t.stats();
        let warm = pk.get_many(&keys).unwrap();
        assert_eq!(t.stats().index_only_answers - before.index_only_answers, keys.len() as u64);
        assert_eq!(t.stats().heap_fetches, before.heap_fetches);
        for ((k, cold), warm) in keys.iter().zip(cold).zip(warm) {
            let want = row(u64::from_be_bytes(*k));
            assert_eq!(cold.unwrap(), want);
            assert_eq!(warm.unwrap(), want, "a hit after reopen is the row, byte for byte");
        }
        db.persist().unwrap();
        assert_eq!(catalog_bytes(&heap), written, "nothing new is stored in the catalog");
    }

    #[test]
    fn stats_reset_clears_everything() {
        let db = Database::open(DbConfig { heap_frames: 2, ..DbConfig::default() });
        let t = db.create_table("t", 16).unwrap();
        for i in 0..100u64 {
            t.insert(&[i as u8; 16]).unwrap();
        }
        db.reset_stats();
        let (h, i) = db.pool_stats();
        assert_eq!(h, PoolStats::default());
        assert_eq!(i, PoolStats::default());
    }
}
