//! Database facade: pools, disks, and named tables in one place.

use crate::joincache::JoinCache;
use crate::table::Table;
use crate::tuner::{
    ConsumerId, ConsumerSample, Controller, DecisionRing, TunedSurface, TunerConfig, TunerDecision,
};
use nbb_storage::disk::{DiskManager, DiskModel, InMemoryDisk, SimulatedDisk};
use nbb_storage::error::{Result, StorageError};
use nbb_storage::lockrank;
use nbb_storage::stats::{IoStats, PoolStats};
use nbb_storage::{BufferPool, PoolOptions};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

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
    /// Write-behind queue depth for each buffer pool: dirty eviction
    /// victims are memcpy'd into this bounded queue and written to disk
    /// by a background flusher, so victim reclaim never waits on the
    /// device. `0` disables write-behind — every dirty eviction pays a
    /// synchronous write, the pre-overlapped-I/O behavior. Durability
    /// is unchanged either way: [`Database::persist`] and
    /// [`Database::close`] drain the queue before returning.
    pub write_behind: usize,
    /// Compressed frame tier budget, in stored (encoded) bytes, for
    /// each buffer pool. Nonzero makes eviction demote cold victims
    /// into a budget-bounded compressed store (a background thread pays
    /// the CPU; a later fault on such a page decompresses instead of
    /// reading the disk), so the same frame budget effectively caches
    /// compression-ratio× more pages. `0` (the default) disables the
    /// tier entirely — eviction behavior is bit-identical to a build
    /// without it. See `nbb_storage::buffer`'s module docs;
    /// `TableStats::pool_compressed_*` meters it.
    pub compressed_budget_bytes: usize,
    /// Self-tuning free-space controller interval. `None` (the
    /// default) is **off**: no tuner thread is spawned, no cache-space
    /// targets or join-cache bounds are ever set, and behavior is
    /// byte-identical to a build without the tuner. `Some(d)` spawns a
    /// background controller that samples every spare-byte consumer
    /// (each cached index's leaf space, the join cache, the compressed
    /// tier) every `d`, scores hits per spare KiB, and moves a bounded
    /// step of bytes from the lowest-value consumer to the highest.
    /// Decisions surface through [`Database::tuner_decisions`] and the
    /// waste report; benches and tests can drive the controller
    /// deterministically with [`Database::tuning_tick`] (use a long
    /// interval so the background thread stays out of the way). Step
    /// size, hysteresis and cooldown are
    /// [`crate::tuner::TunerConfig`]'s defaults.
    pub tuning_interval: Option<Duration>,
    /// Disk latency model; `None` = plain in-memory disk.
    pub disk_model: Option<DiskModel>,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            page_size: 8192,
            heap_frames: 1024,
            index_frames: 1024,
            pool_shards: nbb_storage::DEFAULT_POOL_SHARDS,
            write_behind: nbb_storage::DEFAULT_WRITE_BEHIND,
            compressed_budget_bytes: 0,
            tuning_interval: None,
            disk_model: None,
        }
    }
}

impl DbConfig {
    /// Builds a pool of `frames` frames over `disk` with this config's
    /// shard target (clamped by the pool's own headroom policy,
    /// [`nbb_storage::clamp_shards`]), write-behind depth, and
    /// compressed-tier budget.
    fn build_pool(&self, disk: &Arc<dyn DiskManager>, frames: usize) -> Arc<BufferPool> {
        let shards = nbb_storage::clamp_shards(frames, self.pool_shards);
        Arc::new(BufferPool::with_pool_options(
            Arc::clone(disk),
            frames,
            PoolOptions {
                shards,
                write_behind: self.write_behind,
                compressed_budget_bytes: self.compressed_budget_bytes,
            },
        ))
    }
}

/// A small database: two buffer pools over two disks, named tables,
/// and (opt-in) a self-tuning free-space controller.
pub struct Database {
    config: DbConfig,
    heap_pool: Arc<BufferPool>,
    index_pool: Arc<BufferPool>,
    heap_disk: Arc<dyn DiskManager>,
    index_disk: Arc<dyn DiskManager>,
    /// `Arc` so the tuner thread can sample tables without borrowing
    /// the `Database` (which it outlives-races with during drop).
    tables: Arc<RwLock<HashMap<String, Arc<Table>>>>,
    join_cache: Arc<Mutex<JoinCache>>,
    tuner: Option<Arc<TunerShared>>,
    tuner_thread: Option<std::thread::JoinHandle<()>>,
}

/// State shared between the tuner thread, [`Database::tuning_tick`],
/// and the waste report.
struct TunerShared {
    controller: Mutex<Controller>,
    ring: DecisionRing,
    surface: DbSurface,
    /// Shutdown flag + wake condvar for prompt drop-time exit.
    shutdown: Mutex<bool>,
    wake: Condvar,
}

impl TunerShared {
    /// One full controller round: sample every consumer, decide, apply
    /// the resizes, record the decision. The controller lock is held
    /// only across the pure decision — sampling and resizing reach
    /// engine locks with no tuner lock held.
    fn tick_once(&self) -> Option<TunerDecision> {
        let samples = self.surface.sample();
        let decision = self.controller.lock().tick(&samples)?;
        self.surface.resize(&decision.from, decision.from_bytes);
        self.surface.resize(&decision.to, decision.to_bytes);
        self.ring.push(decision.to_string());
        Some(decision)
    }
}

/// The production [`TunedSurface`]: walks every cached index, the join
/// cache, and the compressed tier.
struct DbSurface {
    tables: Arc<RwLock<HashMap<String, Arc<Table>>>>,
    join_cache: Arc<Mutex<JoinCache>>,
    heap_pool: Arc<BufferPool>,
    index_pool: Arc<BufferPool>,
}

/// Separator inside a [`ConsumerId::LeafCache`] name: `table/index`.
const LEAF_CONSUMER_SEP: char = '/';

impl DbSurface {
    /// Tables snapshot, sorted by name for deterministic sample order.
    fn tables_sorted(&self) -> Vec<Arc<Table>> {
        let mut v: Vec<Arc<Table>> = self.tables.read().values().cloned().collect();
        v.sort_by(|a, b| a.name().cmp(b.name()));
        v
    }
}

impl TunedSurface for DbSurface {
    fn sample(&self) -> Vec<ConsumerSample> {
        let mut out = Vec::new();
        for t in self.tables_sorted() {
            for (spec, _) in t.index_specs() {
                let Ok(handle) = t.index_tree(&spec.name) else { continue };
                let tree = handle.tree();
                if tree.cache_config().is_none() {
                    continue; // uncached index: no spare-byte consumer
                }
                let Ok(stats) = tree.index_stats() else { continue };
                // Allocation = the explicit target if one was ever set,
                // else the measured free bytes (the natural, uncapped
                // spare space the cache recycles today).
                let bytes = match tree.cache_space_target() {
                    Some(per_leaf) => per_leaf * stats.leaf_pages.max(1),
                    None => stats.free_bytes,
                };
                out.push(ConsumerSample {
                    id: ConsumerId::LeafCache(format!(
                        "{}{LEAF_CONSUMER_SEP}{}",
                        t.name(),
                        spec.name
                    )),
                    hits: tree.cache_stats().hits,
                    bytes,
                });
            }
        }
        {
            let jc = self.join_cache.lock();
            out.push(ConsumerSample {
                id: ConsumerId::JoinCache,
                hits: jc.stats().hits,
                bytes: jc.total_budget().unwrap_or_else(|| jc.total_used()),
            });
        }
        let tier_bytes = self.heap_pool.compressed_budget() + self.index_pool.compressed_budget();
        if tier_bytes > 0 {
            let (h, i) = (self.heap_pool.stats(), self.index_pool.stats());
            out.push(ConsumerSample {
                id: ConsumerId::CompressedTier,
                hits: h.compressed_hits + i.compressed_hits,
                bytes: tier_bytes,
            });
        }
        out
    }

    fn resize(&self, id: &ConsumerId, new_bytes: usize) {
        match id {
            ConsumerId::LeafCache(name) => {
                let Some((tname, iname)) = name.split_once(LEAF_CONSUMER_SEP) else { return };
                let Some(t) = self.tables.read().get(tname).cloned() else { return };
                let Ok(handle) = t.index_tree(iname) else { return };
                let tree = handle.tree();
                let leaves = tree.index_stats().map_or(1, |s| s.leaf_pages).max(1);
                // Honored lazily: the cap applies at the next leaf
                // touch; no stop-the-world rewrite.
                tree.set_cache_space_target(Some(new_bytes / leaves));
            }
            ConsumerId::JoinCache => {
                self.join_cache.lock().set_total_budget(Some(new_bytes));
            }
            ConsumerId::CompressedTier => {
                // One logical consumer over two pools: split evenly.
                let half = new_bytes / 2;
                self.heap_pool.set_compressed_budget(half);
                self.index_pool.set_compressed_budget(new_bytes - half);
            }
        }
    }
}

impl Database {
    /// Opens an empty database per `config`.
    pub fn open(config: DbConfig) -> Self {
        let heap_disk = Self::fresh_disk(&config);
        let index_disk = Self::fresh_disk(&config);
        let db = Self::attach_disks(config, heap_disk, index_disk)
            // nbb-lint: allow(unwrap, fresh in-memory disks cannot fail validation)
            .expect("fresh in-memory disks are always attachable");
        // nbb-lint: allow(unwrap, fresh in-memory disks cannot fail allocation)
        db.reserve_catalog_header().expect("fresh in-memory disks always allocate");
        db
    }

    fn fresh_disk(config: &DbConfig) -> Arc<dyn DiskManager> {
        match config.disk_model {
            Some(model) => Arc::new(SimulatedDisk::new(config.page_size, model)),
            None => Arc::new(InMemoryDisk::new(config.page_size)),
        }
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
        let mut db = Database {
            config,
            heap_pool,
            index_pool,
            heap_disk,
            index_disk,
            tables: Arc::new(RwLock::with_rank(lockrank::DB_TABLES, HashMap::new())),
            join_cache: Arc::new(Mutex::with_rank(lockrank::JOIN_CACHE, JoinCache::new())),
            tuner: None,
            tuner_thread: None,
        };
        if let Some(interval) = db.config.tuning_interval {
            db.start_tuner(interval);
        }
        Ok(db)
    }

    /// Spawns the background free-space controller (tuning is on).
    fn start_tuner(&mut self, interval: Duration) {
        let cfg = TunerConfig { interval, ..TunerConfig::default() };
        let ring_cap = cfg.ring;
        let shared = Arc::new(TunerShared {
            controller: Mutex::with_rank(lockrank::TUNER, Controller::new(cfg)),
            ring: DecisionRing::new(ring_cap),
            surface: DbSurface {
                tables: Arc::clone(&self.tables),
                join_cache: Arc::clone(&self.join_cache),
                heap_pool: Arc::clone(&self.heap_pool),
                index_pool: Arc::clone(&self.index_pool),
            },
            shutdown: Mutex::with_rank(lockrank::TUNER, false),
            wake: Condvar::new(),
        });
        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("nbb-tuner".into())
                .spawn(move || loop {
                    {
                        let mut stop = shared.shutdown.lock();
                        if !*stop {
                            shared.wake.wait_for(&mut stop, interval);
                        }
                        if *stop {
                            break;
                        }
                    }
                    shared.tick_once();
                })
                // nbb-lint: allow(unwrap, thread spawn at database construction; OS exhaustion is fatal)
                .expect("spawn tuner thread")
        };
        self.tuner = Some(shared);
        self.tuner_thread = Some(thread);
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
    /// via [`nbb_btree::BTree::open`], which invalidates persisted
    /// cache bytes by starting a fresh CSN epoch).
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

    /// `(heap, index)` disk counters (simulated time lives here).
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

    /// The §2.2 join cache. Lock it to insert/lookup joined payloads;
    /// the tuner (when on) bounds its total bytes.
    pub fn join_cache(&self) -> &Arc<Mutex<JoinCache>> {
        &self.join_cache
    }

    /// Forces one synchronous controller round (sample → decide →
    /// resize → record). `None` when tuning is off *or* the controller
    /// decided to hold still this round. Benches and tests pair this
    /// with a long [`DbConfig::tuning_interval`] so ticks happen at
    /// deterministic workload points instead of wall-clock ones.
    pub fn tuning_tick(&self) -> Option<TunerDecision> {
        self.tuner.as_ref()?.tick_once()
    }

    /// The tuner's recent decisions, oldest first, rendered as the
    /// waste report prints them. Empty when tuning is off.
    pub fn tuner_decisions(&self) -> Vec<String> {
        self.tuner.as_ref().map_or_else(Vec::new, |t| t.ring.snapshot())
    }

    /// Runs the full waste audit on `table` and attaches the tuner's
    /// decision trace, so one report shows both the measured waste and
    /// what the controller did about it.
    pub fn waste_report(&self, table: &str, index_names: &[&str]) -> Result<crate::WasteReport> {
        let t = self.table(table)?;
        let mut report = crate::waste::audit(&t, index_names, None, None)?;
        report.tuner = self.tuner_decisions();
        Ok(report)
    }
}

impl Drop for Database {
    /// Stops the tuner thread (when tuning is on) before the pools go
    /// down: set the flag, wake the interval sleep, join.
    fn drop(&mut self) {
        if let Some(shared) = &self.tuner {
            *shared.shutdown.lock() = true;
            shared.wake.notify_all();
        }
        if let Some(h) = self.tuner_thread.take() {
            let _ = h.join();
        }
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
    fn simulated_disk_accumulates_cost() {
        let db = Database::open(DbConfig {
            page_size: 4096,
            heap_frames: 2,
            index_frames: 2,
            disk_model: Some(DiskModel { read_ns: 1000, write_ns: 10 }),
            ..DbConfig::default()
        });
        let t = db.create_table("t", 64).unwrap();
        t.create_index(IndexSpec::plain("pk", FieldSpec::new(0, 8))).unwrap();
        for i in 0..500u64 {
            let mut tu = i.to_be_bytes().to_vec();
            tu.extend_from_slice(&[0u8; 56]);
            t.insert(&tu).unwrap();
        }
        db.reset_stats();
        for i in (0..500u64).step_by(7) {
            t.index("pk").unwrap().get(&i.to_be_bytes()).unwrap().unwrap();
        }
        let (heap_io, index_io) = db.io_stats();
        // Tiny pools force disk reads with simulated latency.
        assert!(heap_io.reads + index_io.reads > 0);
        assert!(heap_io.sim_total_ns() + index_io.sim_total_ns() > 0);
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

    #[test]
    fn compressed_budget_knob_applies_and_close_drains_the_compressor() {
        use nbb_storage::InMemoryDisk;
        // Knob: default is 0 (tier off), a nonzero budget threads
        // through to both pools — and survives reopen via the config.
        let db = Database::open(DbConfig::default());
        assert_eq!(db.heap_pool().compressed_budget(), 0);
        assert_eq!(db.index_pool().compressed_budget(), 0);

        let heap: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
        let index: Arc<dyn DiskManager> = Arc::new(InMemoryDisk::new(4096));
        let config = DbConfig {
            page_size: 4096,
            heap_frames: 4,
            index_frames: 4,
            compressed_budget_bytes: 256 * 1024,
            ..DbConfig::default()
        };
        let db =
            Database::with_disks(config.clone(), Arc::clone(&heap), Arc::clone(&index)).unwrap();
        assert_eq!(db.heap_pool().compressed_budget(), 256 * 1024);
        assert_eq!(db.index_pool().compressed_budget(), 256 * 1024);

        // Tiny pools force evictions, which now feed the compressor;
        // close() is a flush barrier, so every queued demotion must be
        // either admitted or retired before the pool drops — and the
        // durable bytes must round-trip regardless of tier state.
        let t = db.create_table("t", 16).unwrap();
        for i in 0..500u64 {
            let mut tu = i.to_be_bytes().to_vec();
            tu.extend_from_slice(&[7u8; 8]);
            t.insert(&tu).unwrap();
        }
        db.close().unwrap();

        let db = Database::reopen(config, heap, index).unwrap();
        assert_eq!(db.heap_pool().compressed_budget(), 256 * 1024, "reopen threads the knob");
        let t = db.table("t").unwrap();
        let mut rows = 0u64;
        t.scan(|_, _| {
            rows += 1;
            true
        })
        .unwrap();
        assert_eq!(rows, 500, "the tier never substitutes for durability");
    }

    #[test]
    fn tuning_is_off_by_default_and_surfaces_nothing() {
        let db = Database::open(DbConfig::default());
        db.create_table("t", 16).unwrap();
        assert!(db.tuning_tick().is_none());
        assert!(db.tuner_decisions().is_empty());
        let report = db.waste_report("t", &[]).unwrap();
        assert!(report.tuner.is_empty());
        assert!(!report.render().contains("[tuner]"));
    }

    #[test]
    fn tuner_thread_starts_and_shuts_down_cleanly() {
        // Spawn → (maybe a few wall-clock ticks) → shutdown → join.
        // The short interval exercises the timed wait; Drop must not
        // hang even if the thread is mid-sleep.
        let db = Database::open(DbConfig {
            tuning_interval: Some(Duration::from_millis(1)),
            ..DbConfig::default()
        });
        let t = db.create_table("t", 16).unwrap();
        for i in 0..50u64 {
            let mut tu = i.to_be_bytes().to_vec();
            tu.extend_from_slice(&[3u8; 8]);
            t.insert(&tu).unwrap();
        }
        std::thread::sleep(Duration::from_millis(10));
        drop(db);
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
